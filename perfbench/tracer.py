"""In-memory span tracer for the qmontyhall modules.

`Tracer.install` wraps every public callable bound in the namespace of any
loaded ``qmontyhall`` module, and the public methods and ``__post_init__`` of
the package's public classes. A function imported by name into several
modules (``kron`` in channels and game, ``play`` in analysis and cli) is
wrapped in each of them, so calls through any binding are seen. Each span is
attributed to the layer that *defines* the function: the qmontyhall
submodule name, ``scipy`` for scipy callables bound in package namespaces
(``bisect``), or ``other`` for package modules outside the five layers.

Spans are aggregated as they close: a span's self time is its duration minus
the time covered by its child spans. Nothing is written until `stats`.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "analysis", "game", "channels", "linalg")
LAYER_GROUPS = LAYERS + ("scipy", "other")
PACKAGE = "qmontyhall"


def layer_of(module: str) -> str | None:
    if module.startswith(PACKAGE + "."):
        name = module.split(".")[1]
        return name if name in LAYERS else "other"
    if module == "scipy" or module.startswith("scipy."):
        return "scipy"
    return None


def _noise_key(spec) -> tuple:
    return (spec.kind, spec.t, spec.p, spec.a1, spec.a2)


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.play_s: list[float] = []
        self._active: Counter = Counter()
        self._play_noise: set = set()
        self._build_noise: set = set()

    # -- request scope ---------------------------------------------------
    def begin_request(self) -> None:
        self._play_noise = set()
        self._build_noise = set()

    def end_request(self) -> None:
        self.counts["play_distinct_noise"] += len(self._play_noise)
        self.counts["build_distinct_noise"] += len(self._build_noise)

    # -- wrapping ----------------------------------------------------------
    def _on_enter(self, key: str, args, kwargs) -> None:
        if key == "game.play":
            self.counts["plays"] += 1
            cfg = args[0] if args else next(iter(kwargs.values()))
            self._play_noise.add(_noise_key(cfg.noise))
            if self._active["analysis.gamma_coefficients"]:
                self.counts["plays_in_c1"] += 1
        elif key in ("channels.se_single", "channels.gp_single"):
            self.counts["builds"] += 1
            self._build_noise.add((key, args, tuple(sorted(kwargs.items()))))
        elif key == "linalg.kron":
            self.counts["kron"] += 1
        elif key == "analysis.gamma_coefficients":
            self.counts["c1"] += 1
            if self._active["analysis.threshold"]:
                self.counts["threshold_c1"] += 1
        elif key == "analysis.threshold":
            self.counts["thresholds"] += 1

    def _wrap(self, fn, layer: str, key: str):
        stack, self_s, calls, active = self._stack, self.self_s, self.calls, self._active
        on_enter, play_s = self._on_enter, self.play_s

        def traced(*args, **kwargs):
            on_enter(key, args, kwargs)
            active[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                active[key] -= 1
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if key == "game.play":
                    play_s.append(duration)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        wrapped: dict[int, object] = {}
        classes = set()
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__.startswith(PACKAGE + ".") and obj not in classes:
                        classes.add(obj)
                        self._install_class(obj)
                    continue
                layer = layer_of(getattr(obj, "__module__", None) or "")
                if layer is None or not callable(obj):
                    continue
                if id(obj) not in wrapped:
                    key = f"{obj.__module__.split('.')[-1]}.{getattr(obj, '__name__', name)}"
                    wrapped[id(obj)] = self._wrap(obj, layer, key)
                self._patch(module, name, wrapped[id(obj)])

    def _install_class(self, cls: type) -> None:
        layer = layer_of(cls.__module__)
        for name, raw in list(vars(cls).items()):
            if name != "__post_init__" and name.startswith("_"):
                continue
            key = f"{cls.__module__.split('.')[-1]}.{cls.__name__}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, name, type(raw)(self._wrap(raw.__func__, layer, key)))
            elif callable(raw):
                self._patch(cls, name, self._wrap(raw, layer, key))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def stats(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "play_s": list(self.play_s),
        }


def merge(stats_list) -> dict:
    """Sum the `Tracer.stats` of several processes."""
    out = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "play_s": []}
    for s in stats_list:
        out["self_s"].update(s["self_s"])
        out["calls"].update(s["calls"])
        out["counts"].update(s["counts"])
        out["play_s"].extend(s["play_s"])
    return out
