"""qmontyhall benchmark.

    python3 perfbench/run.py --workload {grid-sweep,solve,cli-oneshot} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. One client sends one request at a time (closed loop). With
``--trace 0`` the run is untraced and reports the end-to-end metrics; with
``--trace 1`` it runs the requests once traced and once untraced, checks the
two agree bit for bit, and reports the per-layer metrics. Every result is
checked against `oracle` outside the timed region. The last line of stdout is
the result object; the line before it holds the details (percentiles, sample
counts, failures and provenance). See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5  # fresh processes per run for setup_s and cold_start_s
IMPORTTIME_REPEATS = 3
# Layers that run on every workload. cli (never called in-process) and scipy
# (no thresholds in grid-sweep) report calls and shares only, so no time
# metric is a constant zero.
SELF_S_LAYERS = ("analysis", "game", "channels", "linalg")
TRACED_SHARE = 0.4  # of --seconds spent on the traced pass; the rest replays untraced
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ statistics


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def mean_of_medians(groups: dict) -> float:
    """Mean over groups (cases) of each group's median time."""
    return statistics.fmean(statistics.median(v) for v in groups.values())


def grouped(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------------ load loop


def crashed(raw) -> bool:
    """Whether a recorded result is the traceback of a request that raised."""
    return isinstance(raw, tuple) and raw[:1] == ("exception",)


class Load:
    """Requests run back to back for ``seconds`` of load time, then until the
    count run by this call is a multiple of ``unit`` and at least
    ``min_requests``. ``extras`` are callables run between requests, spread
    evenly over the load; their time is not load time. Repeated calls append
    to the same record."""

    def __init__(self):
        self.requests, self.raw, self.latency = [], [], []
        self.wall = 0.0

    def run(self, source, seconds, call, unit=1, min_requests=1, finish=None, on_each=None,
            extras=()):
        pending = list(extras)
        busy = 0.0
        first = len(self.requests)
        for req in source:
            if pending and busy >= (len(extras) - len(pending) + 0.5) * seconds / len(extras):
                pending.pop(0)()
            t0 = perf_counter()
            try:
                raw = call(req)
            except Exception:  # a failed operation; keep the loop running
                raw = ("exception", traceback.format_exc(limit=3))
            t1 = perf_counter()
            if finish is not None and not crashed(raw):
                raw = finish(req, raw)
            if on_each is not None:
                on_each(req)
            self.requests.append(req)
            self.raw.append(raw)
            self.latency.append(t1 - t0)
            busy += perf_counter() - t0
            n = len(self.requests) - first
            if busy >= seconds and n % unit == 0 and n >= min_requests:
                break
        for extra in pending:
            extra()
        self.wall += busy
        return self


def check_all(check, requests, results):
    """Indices of the results the oracle rejects (an exception is a failure)."""
    failed = []
    for i, (req, raw) in enumerate(zip(requests, results)):
        if crashed(raw):
            failed.append(i)
            continue
        try:
            ok = check(req, raw)
        except Exception:  # a malformed result is a failed operation
            ok = False
        if not ok:
            failed.append(i)
    return failed


def describe_failures(requests, results, failed):
    return [{"kind": requests[i].kind, "args": repr(requests[i].args)[:300],
             "result": repr(results[i])[:300]} for i in failed[:10]]


# ------------------------------------------------------------------ children


def setup_child(name, seed, workdir, importtime=False):
    """One fresh-process set-up: (in-child setup_s, parent-measured wall, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(HERE, "child.py"), "setup", name, str(seed)]
    t0 = perf_counter()
    p = subprocess.run(cmd, cwd=workdir, env=workloads.child_env(SRC), capture_output=True,
                       text=True, timeout=120)
    wall = perf_counter() - t0
    if p.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{p.stderr[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])["setup_s"], wall, p.stderr


def parse_importtime(stderr: str) -> dict:
    """Cumulative import time (s) of numpy, scipy and qmontyhall from
    ``-X importtime`` output, summed over each package's outermost lines."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    out = {}
    for prefix in ("numpy", "scipy", "qmontyhall"):
        hits = [(depth, us) for us, depth, name in rows
                if name == prefix or name.startswith(prefix + ".")]
        top = min((d for d, _ in hits), default=None)
        out[prefix] = sum(us for d, us in hits if d == top) / 1e6
    return out


def import_metrics(stderrs) -> dict:
    parsed = [parse_importtime(s) for s in stderrs]
    return {f"import.{k}_s": metric(statistics.median(p[k] for p in parsed), "s")
            for k in ("numpy", "scipy", "qmontyhall")}


# ------------------------------------------------------------------ provenance


def provenance(seed: int) -> dict:
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    blas = None
    with contextlib.suppress(Exception):  # show_config's layout varies by numpy version
        import numpy

        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
    }


def git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


# ------------------------------------------------------------------ per layer


def layer_metrics(stats: dict, request_wall: float) -> dict:
    """Per-layer calls, self time and share of request wall time, plus the
    counters named in NOTES.md, from merged `Tracer.stats`."""
    self_s, calls, counts = stats["self_s"], stats["calls"], stats["counts"]
    out = {}
    covered = 0.0
    for layer in tracing.LAYER_GROUPS:
        covered += self_s.get(layer, 0.0)
        share = self_s.get(layer, 0.0) / request_wall
        if layer == "other":
            out["other.self_share"] = metric(share, "ratio")
            continue
        out[f"{layer}.calls"] = metric(calls.get(layer, 0), "count")
        if layer in SELF_S_LAYERS:
            out[f"{layer}.self_s"] = metric(self_s.get(layer, 0.0), "s")
        out[f"{layer}.self_share"] = metric(share, "ratio")
    out["untraced_share"] = metric(1.0 - covered / request_wall, "ratio")

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    plays = counts.get("plays", 0)
    play_s = stats["play_s"]
    out["game.play.calls"] = metric(plays, "count")
    out["game.play_us_p50"] = metric(statistics.median(play_s) * 1e6 if play_s else 0.0, "us")
    out["game.plays_per_distinct_noise"] = metric(ratio("plays", "play_distinct_noise"), "ratio")
    out["channels.builds"] = metric(counts.get("builds", 0), "count")
    out["channels.builds_per_distinct_noise"] = metric(
        ratio("builds", "build_distinct_noise"), "ratio")
    out["analysis.plays_per_c1"] = metric(ratio("plays_in_c1", "c1"), "ratio")
    out["analysis.threshold_evals"] = metric(ratio("threshold_c1", "thresholds"), "count")
    out["linalg.kron.calls_per_play"] = metric(ratio("kron", "plays"), "count")
    return out


def load_metrics(load, detail) -> dict:
    """The end-to-end metrics every workload derives from its load."""
    value, pct, n = tail(load.latency)
    detail.update(latency_tail_percentile=pct, latency_samples=n)
    return {
        "requests_per_s": metric(len(load.requests) / load.wall, "1/s"),
        "latency_p50_s": metric(statistics.median(load.latency), "s"),
        "latency_tail_s": metric(value, "s"),
        "points_per_s": metric(sum(r.points for r in load.requests) / load.wall, "1/s"),
    }


def crossover_times(timed) -> dict:
    """Threshold times by case, for brackets that hold a crossover."""
    return grouped((r.args[0], t) for r, t in timed if r.kind == "threshold"
                   and r.args[0] in oracle.CROSSOVERS
                   and r.args[1] < oracle.CROSSOVERS[r.args[0]] < r.args[2])


def traced_and_replayed(w, traced_call, seconds, same, finish=None, on_each=None,
                        stop_tracing=None):
    """Run the load traced, replay the same requests untraced, and return
    both records with the indices whose results differ."""
    traced = Load().run(w.requests(), seconds * TRACED_SHARE, traced_call, w.unit,
                        w.min_requests, finish=finish, on_each=on_each)
    if stop_tracing is not None:
        stop_tracing()
    plain = Load().run(iter(traced.requests), 0, w.run, min_requests=len(traced.requests),
                       finish=finish)
    mismatched = [i for i, (a, b) in enumerate(zip(traced.raw, plain.raw)) if not same(a, b)]
    return traced, plain, mismatched


def trace_failures(w, traced, mismatched, detail) -> int:
    failed = sorted(set(check_all(w.check, traced.requests, traced.raw)) | set(mismatched))
    detail["failures"] = describe_failures(traced.requests, traced.raw, failed)
    detail["trace_mismatches"] = len(mismatched)
    detail["traced_requests"] = len(traced.requests)
    return len(failed)


# ------------------------------------------------------------------ in-process


def run_in_process(name, seed, seconds, trace, workdir, detail):
    w = workloads.WORKLOADS[name](seed)
    w.setup()
    w.first_evaluation()  # lazy set-up finishes before timing

    if trace:
        children = [setup_child(name, seed, workdir, importtime=True)
                    for _ in range(IMPORTTIME_REPEATS)]
        t = tracing.Tracer()

        def traced_call(req):
            t.begin_request()
            return w.run(req)

        t.install()
        try:
            traced, plain, mismatched = traced_and_replayed(
                w, traced_call, seconds, lambda a, b: repr(a) == repr(b),
                on_each=lambda req: t.end_request(), stop_tracing=t.uninstall)
        finally:
            t.uninstall()
        failed = trace_failures(w, traced, mismatched, detail)
        metrics = layer_metrics(tracing.merge([t.stats()]), sum(traced.latency))
        metrics.update(import_metrics(c[2] for c in children))
        cli = workloads.CliOneshot(seed, SRC, workdir)
        payoffs = [cli.payoff_named() for _ in range(IMPORTTIME_REPEATS)]
        walls = Load().run(iter(payoffs), 0, cli.run, min_requests=len(payoffs)).latency
        metrics["cli.startup_s"] = metric(cli_startup(payoffs, walls), "s")
        metrics["cli.defect_inputs_failed"] = metric(0, "count")
        metrics["trace_overhead_ratio"] = metric(
            sum(traced.latency) / sum(plain.latency), "ratio")
        return metrics, 2 * len(traced.requests), failed

    # Set-up processes and probes run between requests, spread over the
    # load, so slow phases of a shared machine fall on every metric alike.
    children, probes = [], Load()

    def slot(i):
        children.append(setup_child(name, seed, workdir))
        probes.run(w.probes(i), 0, w.run_probe, min_requests=len(w.probes(i)))

    load = Load().run(w.requests(), seconds, w.run, w.unit, w.min_requests,
                      extras=[lambda i=i: slot(i) for i in range(SETUP_REPEATS)])
    failed = check_all(w.check, load.requests, load.raw)
    failed_probes = check_all(w.check_probe, probes.requests, probes.raw)
    detail["failures"] = (describe_failures(load.requests, load.raw, failed)
                          + describe_failures(probes.requests, probes.raw, failed_probes))
    timed = [(r, t / r.extra.get("repeat", 1)) for r, t in zip(probes.requests, probes.latency)]
    for r, t in zip(load.requests, load.latency):
        timed += list(zip(r.args, r.extra["times"])) if r.kind == "solve" else [(r, t)]
    thresholds = crossover_times(timed)
    verifies = grouped((r.args[0], t) for r, t in timed if r.kind == "verify")
    detail.update(probes=len(probes.requests), threshold_cases=sorted(thresholds),
                  verify_cases=sorted(verifies))
    metrics = {
        "setup_s": metric(statistics.median(c[0] for c in children), "s"),
        **load_metrics(load, detail),
        "cold_start_s": metric(statistics.median(c[1] for c in children), "s"),
        "threshold_s": metric(mean_of_medians(thresholds), "s"),
        "verify_s": metric(mean_of_medians(verifies), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    attempted = len(load.requests) + len(probes.requests)
    return metrics, attempted, len(failed) + len(failed_probes)


# ------------------------------------------------------------------ cli-oneshot


def run_cli(seed, seconds, trace, workdir, detail):
    w = workloads.CliOneshot(seed, SRC, workdir)
    warm_up = workloads.Request("payoff", ("payoff", "--case", "1", "--noise", "0"))
    setup_times = []

    def set_up(i):
        """Write the input files and make one warm-up run."""
        t0 = perf_counter()
        w.write_inputs(os.path.join(workdir, f"inputs{i}"))
        code, _, err = w.run(warm_up)
        setup_times.append(perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"warm-up run failed:\n{err[-2000:]}")

    set_up(0)
    if trace:
        return trace_cli(w, seconds, workdir, detail)

    # the other set-ups are spread over the load, as for the in-process workloads
    load = Load().run(w.requests(), seconds, w.run, w.unit, w.min_requests, finish=w.finish,
                      extras=[lambda i=i: set_up(i) for i in range(1, SETUP_REPEATS)])
    failed = check_all(w.check, load.requests, load.raw)
    detail["failures"] = describe_failures(load.requests, load.raw, failed)
    timed = list(zip(load.requests, load.latency))
    payoffs = [t for r, t in timed if r.kind == "payoff"]
    thresholds = grouped((r.extra["case"], t) for r, t in timed if r.kind == "threshold")
    verifies = [t for r, t in timed if r.kind == "verify"]
    detail.update(payoff_samples=len(payoffs), threshold_cases=sorted(thresholds),
                  verify_samples=len(verifies))
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        **load_metrics(load, detail),
        "cold_start_s": metric(statistics.median(payoffs), "s"),
        "threshold_s": metric(mean_of_medians(thresholds), "s"),
        "verify_s": metric(statistics.median(verifies), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
    }
    return metrics, len(load.requests), len(failed)


def trace_cli(w, seconds, workdir, detail):
    stats = []
    stats_path = os.path.join(workdir, "stats.json")

    def collect(req):
        with contextlib.suppress(OSError):  # a child that crashed wrote none
            with open(stats_path, encoding="utf-8") as fh:
                stats.append(json.load(fh))
            os.remove(stats_path)

    def same(a, b):  # stdout, exit code and --out file; stderr is diagnostics
        return (a[0], a[1]) + a[3:] == (b[0], b[1]) + b[3:]

    traced, plain, mismatched = traced_and_replayed(
        w, lambda req: w.run(req, stats_path=stats_path), seconds, same,
        finish=w.finish, on_each=collect)
    failed = trace_failures(w, traced, mismatched, detail)

    payoffs = [i for i, r in enumerate(traced.requests) if r.kind == "payoff"]
    stderrs = [w.run(traced.requests[i], python_flags=("-X", "importtime"))[2]
               for i in payoffs[:IMPORTTIME_REPEATS]]
    startup = cli_startup([traced.requests[i] for i in payoffs],
                          [plain.latency[i] for i in payoffs])
    defects = w.defect_inputs()
    defect_results = [w.run(req) for req in defects]
    defects_failed = check_all(w.check, defects, defect_results)
    detail["defect_inputs"] = [{"args": " ".join(r.args), "exit": raw[0],
                                "passed": i not in defects_failed}
                               for i, (r, raw) in enumerate(zip(defects, defect_results))]

    metrics = layer_metrics(tracing.merge(stats), sum(traced.latency))
    metrics.update(import_metrics(stderrs))
    metrics["cli.startup_s"] = metric(startup, "s")
    metrics["cli.defect_inputs_failed"] = metric(len(defects_failed), "count")
    metrics["trace_overhead_ratio"] = metric(sum(traced.latency) / sum(plain.latency), "ratio")
    return metrics, 2 * len(traced.requests), failed


def cli_startup(requests, walls) -> float:
    """Median of subprocess wall time minus in-process ``cli.main`` time for
    the same argv."""
    import qmontyhall.cli

    def in_process(req):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            qmontyhall.cli.main(list(req.args))
            return perf_counter() - t0

    in_process(requests[0])  # lazy set-up
    return statistics.median(wall - in_process(req) for req, wall in zip(requests, walls))


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qmontyhall", "__init__.py")):
        print(f"error: no qmontyhall sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import qmontyhall

    if not os.path.abspath(qmontyhall.__file__).startswith(SRC + os.sep):
        print(f"error: imported qmontyhall from {qmontyhall.__file__}", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    detail = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    try:
        if args.workload == "cli-oneshot":
            metrics, attempted, failed = run_cli(args.seed, args.seconds, args.trace,
                                                 workdir, detail)
        else:
            metrics, attempted, failed = run_in_process(args.workload, args.seed, args.seconds,
                                                        args.trace, workdir, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    detail["provenance"] = provenance(args.seed)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
