"""Child processes of the benchmark.

``child.py setup <workload> <seed>``
    From a fresh interpreter: import qmontyhall, build the workload's
    configurations and make the first evaluation. Prints {"setup_s": ...}.

``child.py cli <stats.json> <argv>...``
    Run ``qmontyhall.cli.main(argv)`` with the tracer installed, write the
    tracer's statistics to <stats.json> and exit with main's code. Stdout
    and the exit code are those of ``python -m qmontyhall <argv>``.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def setup(name: str, seed: int) -> None:
    import qmontyhall  # noqa: F401  first, so its import time includes numpy and scipy
    import workloads

    w = workloads.WORKLOADS[name](seed)
    w.setup()
    w.first_evaluation()
    print(json.dumps({"setup_s": perf_counter() - START}))


def traced_cli(stats_path: str, argv: list[str]) -> int:
    import qmontyhall.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_request()
    try:
        return qmontyhall.cli.main(argv)
    finally:
        tracer.end_request()
        tracer.uninstall()
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    else:
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
