"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is what a user pays once: importing numpy and rpqcalc, building the
contexts a workload reuses, and writing its input files.  The clock starts
before any of those imports.

Usage: python3 bench/setup_time.py WORKLOAD SEED WORKDIR
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    state = workloads.WORKLOADS[name].setup(seed, workdir)
    elapsed = time.perf_counter() - _T0
    workloads.teardown(state)
    print(repr(elapsed))


if __name__ == "__main__":
    main()
