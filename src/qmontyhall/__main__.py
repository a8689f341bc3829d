"""Process entry point of ``python -m qmontyhall`` and the ``qmontyhall`` script.

One process runs one command and exits, so it is set up for that: BLAS runs
on one thread unless ``OPENBLAS_NUM_THREADS`` is set (every product is
27×27 or smaller, which a thread pool does not speed up, and starting one
took about 9 ms on a 2-vCPU VM), and the objects that importing leaves
behind are frozen out of the garbage collector, since they live until the
process exits.  In-process callers of ``qmontyhall.cli.main`` get neither.
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
    return cli.main()


if __name__ == "__main__":
    sys.exit(main())
