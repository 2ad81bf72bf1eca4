"""Entry point of the roadcost benchmark; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload annotate-grid40 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The BLAS and OpenMP thread pools are capped at the number of CPUs this
process may run on. The caps are set here, before anything imports numpy,
because the pools read them once when the library loads.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)


if __name__ == "__main__":
    cap_threads()
    import bench

    sys.exit(bench.main(sys.argv[1:]))
