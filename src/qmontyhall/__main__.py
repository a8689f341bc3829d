"""Process entry point of ``python -m qmontyhall`` and the ``qmontyhall`` script.

One process runs one command and exits, so it is set up for that: BLAS runs
on one thread unless ``OPENBLAS_NUM_THREADS`` is set (every product is
27×27 or smaller, which a thread pool does not speed up, and starting one
took about 9 ms on a 2-vCPU VM), and the objects that importing leaves
behind are frozen out of the garbage collector, since they live until the
process exits.  A stdout closed before the output is written (``... | head``),
or missing from the start (``>&-``), ends in exit 2 with no traceback when the
command writes output; a process started without a stderr keeps its exit
code and writes no diagnostic to stdout.  In-process callers of
``qmontyhall.cli.main`` get none of this.
"""

import gc
import os
import sys

# numpy reads this when it loads, below; the package root loads no numpy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cli  # noqa: E402


def main() -> int:
    # neither the command's collections nor the one at exit walk the import heap
    gc.freeze()
    if sys.stderr is None:  # no descriptor 2: argparse would print usage to stdout
        sys.stderr = open(os.devnull, "w")
    if sys.stdout is None:  # no descriptor 1: output meets a pipe that nobody reads
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w")
    try:
        code = cli.main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: stdout now writes to /dev/null, so the flush at
        # exit stays quiet, and stderr (maybe the same pipe) gets nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return cli.EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
