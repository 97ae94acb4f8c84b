"""One set-up measurement in a fresh interpreter.

Usage: setup_child.py SRC_DIR JSON
JSON is a list of [problem path, instantiate overrides].  Prints the
seconds taken to import degenpde and then load and instantiate every
listed problem: the cost every CLI invocation pays before it solves.
The parent passes the pinned BLAS thread variables in the environment;
they are checked before numpy is imported.
"""

import json
import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(src, jobs):
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        sys.exit(f"setup_child: thread variables not pinned to 1: {unpinned}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import degenpde
    for path, overrides in jobs:
        degenpde.instantiate(degenpde.load_problem(path), **overrides)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1], json.loads(sys.argv[2]))
