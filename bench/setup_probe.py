"""Time the benchmark's set-up in a fresh interpreter and print seconds.

    python3 bench/setup_probe.py SRC_DIR

Set-up is importing ssro, loading the shipped config and building the
protocols, exactly as bench/run.py does before its timed iterations.
"""
import time

_start = time.perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import workloads  # noqa: E402

workloads.configure()
print(time.perf_counter() - _start)
