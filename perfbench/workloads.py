"""The three seeded workloads.

Each workload turns ``--seed`` into an endless, deterministic request
sequence, runs one request at a time (a closed loop with one client), and
checks each result against `oracle` after the timed window.

* ``grid-sweep``: ``analysis.sweep`` of one configuration over a 60-point
  (noise, gamma) grid. Every block of ten requests holds the seven named
  cases and three custom configurations (seeded unitaries, a seeded state,
  two with SE at a1 != a2 and one with GP) passed as a ``play``-based
  payoff callable, the way the CLI's --state/--alice/--bob path builds it.
  Grid shapes run from 1x60 (gamma-heavy) to 60x1 (noise-heavy). Fixed
  block contents and a fixed point count keep the mix the same for every
  seed.
* ``solve``: alternating ``analysis.threshold`` (xtol 1e-10) and
  ``analysis.verify_case`` on the default 21x21 grid; see `Solve`.
* ``cli-oneshot``: one fresh ``python -m qmontyhall`` per request. Every
  round of fifteen holds eight ``payoff`` calls (four named cases, four
  explicit configurations read from JSON files written at set-up), a
  ``threshold`` for each crossover, two small ``verify``, one
  ``validate-channel``, one small ``sweep --out`` and one invalid input with
  a documented exit code.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle
from oracle import GP_CASES, SE_CASES

GRID_POINTS = 60
GRID_SHAPES = [(n, GRID_POINTS // n) for n in (1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)]
SE_MAX = 4.0
NAMED = tuple(range(1, 8))
NO_CROSSOVER = (2, 3, 4, 5, 7)
PERBENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Request:
    kind: str
    args: tuple
    points: int = 0
    extra: dict = field(default_factory=dict)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_state(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    return v / np.linalg.norm(v)


def _noise_max(channel: str) -> float:
    return SE_MAX if channel == "se" else 1.0


def _channel(case: int) -> str:
    return "gp" if case in GP_CASES else "se"


def _ascending(rnd: random.Random, n: int, lo_max: float, hi_max: float) -> tuple:
    """n ascending values in [0, hi_max]; half the grids start at 0."""
    lo = 0.0 if rnd.random() < 0.5 else rnd.uniform(0.0, lo_max)
    if n == 1:
        return (lo,)
    hi = hi_max if rnd.random() < 0.5 else rnd.uniform(lo + 0.3 * (hi_max - lo), hi_max)
    return tuple(float(v) for v in np.linspace(lo, hi, n))


# ---------------------------------------------------------------- in-process


class InProcess:
    """Shared part of the workloads that call the package in-process."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rnd = random.Random(seed)
        self.rng = np.random.default_rng(seed)
        self.q = None

    def import_package(self):
        import qmontyhall
        import qmontyhall.analysis
        import qmontyhall.channels
        import qmontyhall.game

        self.q = qmontyhall
        return qmontyhall

    def probes(self, i: int) -> list:
        """Fixed threshold/verify calls for the i-th pause in the load; they
        count in no latency or throughput metric."""
        return []

    def run_probe(self, req):
        return tuple(solve_call(self.q.analysis, req) for _ in range(req.extra.get("repeat", 1)))

    def check_probe(self, req, result) -> bool:
        return all(solve_check(req, r) for r in result)

    def first_evaluation(self):
        """One payoff point, which also fills the package's lazy caches."""
        return self.q.analysis.sweep(1, [0.5], [0.25]).rows


@dataclass
class Custom:
    state: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    channel: str
    a1: float
    a2: float

    def reference(self) -> oracle.Reference:
        return oracle.Reference(self.state, self.alice, self.bob, self.channel, self.a1, self.a2)


class GridSweep(InProcess):
    name = "grid-sweep"
    unit = 10
    min_requests = 10
    CUSTOM_CHANNELS = ("se", "se", "gp", "se", "se", "gp")

    def setup(self):
        """Build the seeded configurations and their payoff targets."""
        q = self.import_package()
        self.customs = []
        for channel in self.CUSTOM_CHANNELS:
            a1 = self.rnd.uniform(0.3, 3.0)
            a2 = a1 * self.rnd.choice((0.4, 0.6, 1.7, 2.5))
            self.customs.append(Custom(random_state(self.rng), random_unitary(self.rng),
                                       random_unitary(self.rng), channel, a1, a2))
        self.targets = {("case", k): k for k in NAMED}
        for i, c in enumerate(self.customs):
            self.targets[("custom", i)] = self._play_target(q, c)
        self.references = {i: c.reference() for i, c in enumerate(self.customs)}

    @staticmethod
    def _play_target(q, c: Custom):
        game, channels = q.game, q.channels
        alice = game.StrategyUnitary(c.alice, name="alice")
        bob = game.StrategyUnitary(c.bob, name="bob")
        state = c.state
        if c.channel == "se":
            noise = lambda x: channels.NoiseSpec.spontaneous_emission(x, c.a1, c.a2)
        else:
            noise = channels.NoiseSpec.generalized_pauli

        def payoff(x, g):
            cfg = game.GameConfig(initial=state, alice=alice, bob=bob, noise=noise(x), gamma=g)
            return game.play(cfg).payoff

        return payoff

    def requests(self):
        rnd = self.rnd
        block_index = 0
        while True:
            picks = [(3 * block_index + j) % len(self.customs) for j in range(3)]
            block = [("case", k) for k in NAMED] + [("custom", i) for i in picks]
            rnd.shuffle(block)
            for key in block:
                channel = (self.customs[key[1]].channel if key[0] == "custom"
                           else _channel(key[1]))
                n, m = rnd.choice(GRID_SHAPES)
                top = _noise_max(channel)
                noise = _ascending(rnd, n, 0.4 * top, top)
                gamma = _ascending(rnd, m, 0.5, math.pi / 2)
                yield Request("sweep", (key, noise, gamma), points=n * m)
            block_index += 1

    def run(self, req):
        key, noise, gamma = req.args
        return self.q.analysis.sweep(self.targets[key], noise, gamma).rows

    def check(self, req, rows) -> bool:
        key, noise, gamma = req.args
        expected = [(x, g) for x in noise for g in gamma]
        if len(rows) != len(expected):
            return False
        for (x, g), (rx, rg, value) in zip(expected, rows):
            if rx != x or rg != g:
                return False
            if key[0] == "case":
                ok = oracle.check_named(key[1], x, g, value)
            else:
                ok = abs(value - self.references[key[1]].payoff(x, g)) <= oracle.FORMULA_TOL
            if not ok:
                return False
        return True

    def probes(self, i: int) -> list:
        """Operations the grid does not issue, so threshold_s and verify_s
        are defined on this workload too: both crossovers on the CLI's
        default brackets, each located three times in a row so one sample
        spans more than a momentary speed of the machine, and a verify of
        case 1 or 6 in turn."""
        return [Request("threshold", (1, 0.01, 3.0), extra={"repeat": 3}),
                Request("threshold", (6, 0.01, 0.99), extra={"repeat": 3}),
                Request("verify", (6 if i % 2 else 1,), points=441)]


class Solve(InProcess):
    """A request is one threshold call followed by one verify_case call, so
    the two kinds alternate. Each block of seven requests verifies cases 1..7
    once; SE cases are paired with three case-6 brackets and one case-1
    bracket, GP cases with one case-1 bracket and two without a crossover.
    Pairing slow verifies with fast thresholds keeps request latencies in a
    few tight groups, so their median does not fall in a gap between them."""

    name = "solve"
    unit = 7
    min_requests = 7
    SE_THRESHOLDS = ("c6", "c6", "c6", "c1")
    GP_THRESHOLDS = ("c1", "none", "none")

    def setup(self):
        self.import_package()

    def _bracket(self, kind: str) -> tuple:
        rnd = self.rnd
        # a crossover bracket has a fixed width, so bisection always takes
        # the same number of steps; the seed places the root inside it
        if kind == "c1":
            lo = oracle.LN2 - 2.0 * rnd.uniform(0.05, 0.33)
            return 1, lo, lo + 2.0
        if kind == "c6":
            lo = oracle.GP_CROSSOVER - 0.6 * rnd.uniform(0.45, 0.95)
            return 6, lo, lo + 0.6
        case = rnd.choice(NO_CROSSOVER + (1, 6))
        if case == 1:  # both ends above ln 2
            return 1, rnd.uniform(0.75, 1.5), rnd.uniform(2.0, 3.0)
        if case == 6:  # both ends below the GP crossover
            return 6, rnd.uniform(0.02, 0.2), rnd.uniform(0.3, 0.6)
        if case in GP_CASES:
            return case, rnd.uniform(0.01, 0.3), rnd.uniform(0.6, 0.99)
        return case, rnd.uniform(0.01, 1.0), rnd.uniform(1.5, 3.0)

    def requests(self):
        rnd = self.rnd
        while True:
            pairs = []
            for cases, kinds in ((SE_CASES, self.SE_THRESHOLDS), (GP_CASES, self.GP_THRESHOLDS)):
                kinds = list(kinds)
                rnd.shuffle(kinds)
                pairs += list(zip(kinds, cases))
            rnd.shuffle(pairs)
            for kind, case in pairs:
                calls = (Request("threshold", self._bracket(kind)),
                         Request("verify", (case,), points=441))
                yield Request("solve", calls, points=441)

    def run(self, req):
        results, times = [], []
        for call in req.args:
            t0 = perf_counter()
            results.append(solve_call(self.q.analysis, call))
            times.append(perf_counter() - t0)
        req.extra["times"] = times
        return tuple(results)

    def check(self, req, result) -> bool:
        return all(solve_check(call, r) for call, r in zip(req.args, result))


def solve_call(analysis, req):
    """One threshold or verify request; its result as plain values."""
    if req.kind == "verify":
        r = analysis.verify_case(req.args[0])
        return (r.case, r.max_abs_error, r.passed, r.points)
    try:
        return analysis.threshold(*req.args)
    except analysis.NoSignChangeError:
        return "no-crossover"


def solve_check(req, result) -> bool:
    if req.kind == "verify":
        case, err, passed, points = result
        return (case == req.args[0] and bool(passed) and points == 441
                and 0.0 <= err <= oracle.FORMULA_TOL)
    case, lo, hi = req.args
    root = oracle.CROSSOVERS.get(case)
    if root is not None and lo < root < hi:
        return isinstance(result, float) and abs(result - root) <= oracle.FORMULA_TOL
    return result == "no-crossover"


# ---------------------------------------------------------------- subprocess


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _decimal(x: float) -> str:
    return f"{x:.10g}"


def child_env(src: str) -> dict:
    """The environment of a child process that imports qmontyhall from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class CliOneshot:
    """Requests are argv lists for a fresh ``python -m qmontyhall``."""

    name = "cli-oneshot"
    unit = 15  # whole rounds, so every run has the same mix
    min_requests = 15

    def __init__(self, seed: int, src: str, workdir: str):
        self.seed = seed
        self.rnd = random.Random(seed)
        self.workdir = workdir
        self.env = child_env(src)
        self.counter = 0

    # -- set-up: seeded input files -----------------------------------------
    def write_inputs(self, directory: str) -> None:
        """Write the seeded strategy and state files; later requests name the
        files of the last call."""
        rng = np.random.default_rng(self.seed)
        os.makedirs(directory, exist_ok=True)

        def dump(name, array):
            pairs = np.stack([array.real, array.imag], axis=-1).tolist()
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(pairs, fh)
            return path

        self.strategies = {}
        for i in range(4):
            u = random_unitary(rng)
            self.strategies[dump(f"strategy{i}.json", u)] = u
        self.states = {}
        for i in range(2):
            v = random_state(rng)
            self.states[dump(f"state{i}.json", v)] = v
        self.nonunitary = dump("nonunitary.json", random_unitary(rng) * 1.25)
        self.unnormalised = dump("unnormalised.json", random_state(rng) * 1.1)
        self.malformed = os.path.join(directory, "malformed.json")
        with open(self.malformed, "w", encoding="utf-8") as fh:
            fh.write("[[1, 0], [0,")

    # -- request generation -------------------------------------------------
    def _gamma(self):
        rnd = self.rnd
        r = rnd.random()
        if r < 0.15:
            return "pi/2", math.pi / 2
        if r < 0.3:
            return "0", 0.0
        g = rnd.uniform(0.0, math.pi / 2)
        return repr(g), g

    def _named_noise(self, case: int) -> float:
        if self.rnd.random() < 0.25:
            return 0.0
        return self.rnd.uniform(0.0, _noise_max(_channel(case)))

    def _explicit(self):
        rnd = self.rnd
        state = rnd.choice(["psi1", "psi2"] + sorted(self.states))
        alice = rnd.choice(sorted(self.strategies))
        bob = rnd.choice(sorted(self.strategies) + ["id", "m1", "m2"])
        channel = rnd.choice(("se", "gp"))
        argv = ["--state", state, "--alice", alice, "--bob", bob, "--channel", channel]
        a1 = a2 = 1.0
        if channel == "se":
            a1 = rnd.uniform(0.3, 3.0)
            a2 = a1 * rnd.choice((0.5, 1.5, 2.0))
            argv += ["--a1", repr(a1), "--a2", repr(a2)]
        vector = oracle.STATES.get(state)
        ref = oracle.Reference(
            self.states[state] if vector is None else vector,
            self.strategies[alice],
            self.strategies.get(bob, oracle.STRATEGIES.get(bob)),
            channel, a1, a2,
        )
        return argv, channel, ref

    def _range(self, channel: str, count: int):
        """A LO:HI:STEP string whose grid has ``count`` values, and the grid
        the CLI builds from it."""
        rnd = self.rnd
        if channel == "se":
            step = rnd.choice((0.25, 0.5, 0.75, 1.0))
            lo = rnd.choice((0, 1)) * step
        elif channel == "gp":
            step = rnd.choice((0.1, 0.2, 0.25, 0.3))
            lo = rnd.choice((0.0, 0.1))
        else:  # gamma
            step = rnd.choice((0.3, 0.4, 0.5))
            lo = 0.0
        hi = float(_decimal(lo + (count - 1) * step))
        text = f"{_decimal(lo)}:{_decimal(hi)}:{_decimal(step)}"
        lo, step = float(_decimal(lo)), float(_decimal(step))
        values = [lo + i * step for i in range(count)]
        values[-1] = hi
        return text, values

    def payoff_named(self):
        case = self.rnd.choice(NAMED)
        x = self._named_noise(case)
        gtext, g = self._gamma()
        argv = ["payoff", "--case", str(case), "--noise", repr(x), "--gamma", gtext]
        want = (oracle.closed_form(case, x, 0.0), oracle.closed_form(case, x, math.pi / 2))
        classical = x == 0.0 and case in oracle.PSI1_CASES
        return Request("payoff", tuple(argv), points=1,
                       extra={"branches": want, "gamma": g, "classical": classical})

    def _payoff_explicit(self):
        argv, channel, ref = self._explicit()
        x = self.rnd.uniform(0.0, _noise_max(channel))
        gtext, g = self._gamma()
        argv = ["payoff"] + argv + ["--noise", repr(x), "--gamma", gtext]
        return Request("payoff", tuple(argv), points=1,
                       extra={"branches": ref.branches(x), "gamma": g, "classical": False})

    def _threshold(self, case: int):
        root = oracle.CROSSOVERS[case]
        argv = ["threshold", "--case", str(case)]
        if self.rnd.random() < 0.5:
            lo = self.rnd.uniform(0.02, root - 0.05)
            hi = self.rnd.uniform(root + 0.05, 3.0 if case == 1 else 0.99)
            argv += ["--lo", repr(lo), "--hi", repr(hi)]
        return Request("threshold", tuple(argv), extra={"case": case})

    def _verify(self):
        case = self.rnd.choice(NAMED)
        ntext, noise = self._range(_channel(case), 4)
        gtext, gamma = self._range("gamma", 4)
        argv = ("verify", "--case", str(case), "--noise-range", ntext, "--gamma-range", gtext)
        return Request("verify", argv, points=len(noise) * len(gamma), extra={"case": case})

    def _validate(self, channel: str):
        rnd = self.rnd
        if channel == "gp":
            argv = ("validate-channel", "--channel", "gp", "--noise", repr(rnd.uniform(0.0, 1.0)))
        else:
            argv = ("validate-channel", "--channel", "se",
                    "--noise", repr(rnd.uniform(0.0, SE_MAX)),
                    "--a1", repr(rnd.uniform(0.3, 3.0)), "--a2", repr(rnd.uniform(0.3, 3.0)))
        return Request("validate", argv)

    def _sweep(self):
        self.counter += 1
        out = os.path.join(self.workdir, f"sweep{self.counter}.csv")
        if self.rnd.random() < 0.5:
            case = self.rnd.choice(NAMED)
            head = ["sweep", "--case", str(case)]
            channel, payoff = _channel(case), None
        else:
            argv, channel, ref = self._explicit()
            head, case, payoff = ["sweep"] + argv, None, ref.payoff
        ntext, noise = self._range(channel, 4)
        gtext, gamma = self._range("gamma", 4)
        argv = head + ["--noise-range", ntext, "--gamma-range", gtext, "--out", out]
        return Request("sweep", tuple(argv), points=len(noise) * len(gamma),
                       extra={"out": out, "case": case, "payoff": payoff,
                              "grid": [(x, g) for x in noise for g in gamma]})

    def _invalid(self):
        rnd = self.rnd
        se_case, gp_case = rnd.choice(SE_CASES), rnd.choice(GP_CASES)
        choices = [
            (("payoff", "--case", "9", "--noise", "0.1"), 4),
            (("payoff", "--case", str(se_case), "--noise", "-0.5"), 4),
            (("payoff", "--case", str(gp_case), "--noise", "1.5"), 4),
            (("payoff", "--case", str(se_case)), 2),
            (("sweep", "--case", "1", "--noise-range", "2:1:0.1", "--gamma-range", "0:1:0.5"), 2),
            (("payoff", "--state", "psi1", "--alice", self.nonunitary, "--channel", "gp",
              "--noise", "0.1"), 3),
            (("payoff", "--state", self.unnormalised, "--channel", "se", "--noise", "0.1"), 3),
            (("payoff", "--state", "psi2", "--bob", self.malformed, "--channel", "se",
              "--noise", "0.1"), 2),
            (("threshold", "--case", str(rnd.choice(NO_CROSSOVER))), 5),
            (("payoff", "--case", str(se_case), "--noise", "0.2", "--gamma", "2"), 4),
            (("validate-channel", "--channel", "gp", "--noise", "1.2"), 4),
        ]
        argv, code = rnd.choice(choices)
        return Request("invalid", argv, extra={"code": code})

    def requests(self):
        # the GP channel check is the largest child, so the first round has
        # it and every run's peak RSS includes it
        for channel in itertools.cycle(("gp", "se")):
            round_ = [self.payoff_named() for _ in range(4)]
            round_ += [self._payoff_explicit() for _ in range(4)]
            round_ += [self._threshold(1), self._threshold(6), self._verify(), self._verify(),
                       self._validate(channel), self._sweep(), self._invalid()]
            self.rnd.shuffle(round_)
            yield from round_

    def defect_inputs(self):
        """Inputs that crash or print NaN at the seed commit (ROADMAP item 4).
        Each has a documented exit code; they are run outside the load."""
        missing = os.path.join(self.workdir, "missing", "dir", "x.csv")
        return [
            Request("invalid", ("sweep", "--case", "1", "--noise-range", "0:nan:0.1",
                                "--gamma-range", "0:1:0.5"), extra={"code": 2}),
            Request("invalid", ("sweep", "--case", "1", "--noise-range", "0:1:0.5",
                                "--gamma-range", "0:1:0.5", "--out", missing), extra={"code": 2}),
            Request("invalid", ("payoff", "--channel", "se", "--a1", "inf", "--noise", "0",
                                "--state", "psi1"), extra={"code": 4}),
        ]

    # -- execution ------------------------------------------------------------
    def command(self, req, stats_path: str | None = None) -> list[str]:
        if stats_path is None:
            return [sys.executable, "-m", "qmontyhall", *req.args]
        return [sys.executable, os.path.join(PERBENCH_DIR, "child.py"), "cli", stats_path,
                *req.args]

    def run(self, req, stats_path: str | None = None, python_flags=()):
        cmd = self.command(req, stats_path)
        cmd[1:1] = list(python_flags)
        p = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                           text=True, timeout=170)
        return p.returncode, p.stdout, p.stderr

    def finish(self, req, raw):
        """Attach the --out file's contents and remove it."""
        if req.kind != "sweep":
            return raw
        path = req.extra["out"]
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(path)
        except OSError:
            text = None
        return raw + (text,)

    # -- checks ---------------------------------------------------------------
    def check(self, req, result) -> bool:
        code, out, err = result[:3]
        if "Traceback" in err:
            return False
        try:
            return getattr(self, "_check_" + req.kind)(req, code, out, result)
        except (ValueError, KeyError, TypeError, IndexError):
            return False

    def _check_payoff(self, req, code, out, result):
        doc = strict_json(out)
        p_switch, p_stay = req.extra["branches"]
        g = req.extra["gamma"]
        want = math.cos(g) ** 2 * p_switch + math.sin(g) ** 2 * p_stay
        tol = oracle.FORMULA_TOL
        ok = (code == 0 and abs(doc["payoff"] - want) <= tol
              and abs(doc["p_switch"] - p_switch) <= tol
              and abs(doc["p_not_switch"] - p_stay) <= tol)
        if req.extra["classical"]:
            ok = ok and abs(doc["payoff"] - oracle.classical_payoff(g)) <= tol
        c1 = (p_switch - p_stay) / 2
        if c1 > tol:
            ok = ok and doc["optimal_label"] == "switch" and doc["optimal_gamma"] == 0.0
        elif c1 < -tol:
            ok = ok and doc["optimal_label"] == "not_switch" and abs(
                doc["optimal_gamma"] - math.pi / 2) <= tol
        return ok

    def _check_threshold(self, req, code, out, result):
        doc = strict_json(out)
        case = req.extra["case"]
        return (code == 0 and doc["case"] == case
                and abs(doc["threshold"] - oracle.CROSSOVERS[case]) <= oracle.FORMULA_TOL)

    def _check_verify(self, req, code, out, result):
        m = re.fullmatch(r"case (\d): max_err=(\S+) pass\n", out)
        return (code == 0 and m is not None and int(m.group(1)) == req.extra["case"]
                and float(m.group(2)) <= oracle.FORMULA_TOL)

    def _check_validate(self, req, code, out, result):
        lines = out.splitlines()
        if code != 0 or len(lines) != 2:
            return False
        for line in lines:
            m = re.search(r"max_deviation=(\S+) pass$", line)
            if m is None or not float(m.group(1)) <= 1e-10:
                return False
        return True

    def _check_sweep(self, req, code, out, result):
        text = result[3]
        if code != 0 or out != "" or text is None:
            return False
        rows = list(csv.reader(io.StringIO(text)))
        grid = req.extra["grid"]
        if rows[0] != ["noise", "gamma", "payoff"] or len(rows) != len(grid) + 1:
            return False
        for (x, g), row in zip(grid, rows[1:]):
            rx, rg, value = (float(v) for v in row)
            if not (math.isfinite(value) and abs(rx - x) <= 1e-9 and abs(rg - g) <= 1e-9):
                return False
            if req.extra["case"] is not None:
                ok = oracle.check_named(req.extra["case"], x, g, value)
            else:
                ok = abs(value - req.extra["payoff"](x, g)) <= oracle.FORMULA_TOL
            if not ok:
                return False
        return True

    def _check_invalid(self, req, code, out, result):
        return code == req.extra["code"] and out == ""


WORKLOADS = {"grid-sweep": GridSweep, "solve": Solve, "cli-oneshot": CliOneshot}
