"""A fixed reference kernel that gauges how fast the machine runs right now.

On a shared virtual machine the same single-threaded code runs in slow and
fast periods that differ by about 40 % and last tens of seconds, longer
than a benchmark run.  The benchmark therefore times this kernel right
before and after every operation, and scales the operation's time by
``REFERENCE_S`` over the kernel's mean time: the result is the operation's
time at the speed where the kernel takes ``REFERENCE_S``.  Raw times are
kept in the report.

The kernel mixes the three kinds of work ssro does: interpreted Python,
many numpy calls on tiny arrays, and numpy passes over large arrays.  It
uses no ssro code, so a change to the program never changes the kernel.
"""
from __future__ import annotations

import time

import numpy as np

# nominal time of one kernel pass: about its time in a fast period on the
# 2.1 GHz Xeon the benchmark was built on
REFERENCE_S = 0.007
PASSES = 3

_SMALL = np.eye(5) * 0.5 + 0.1
_LARGE = np.linspace(0.0, 1.0, 70_000)
# preallocated so the kernel leaves the heap, and peak RSS, as it was
_BUF1 = np.empty_like(_LARGE)
_BUF2 = np.empty_like(_LARGE)


def _one_pass() -> float:
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(8_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    x = np.ones(5)
    for _ in range(500):
        x = _SMALL @ x
        x = x / x.sum()
    np.negative(_LARGE, out=_BUF1)
    for _ in range(4):
        np.exp(_BUF1, out=_BUF1)
        np.cumsum(_BUF1, out=_BUF2)
        np.remainder(_BUF2, 1.0, out=_BUF1)
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Median time of a few kernel passes; the median ignores a pass hit by
    a momentary interruption."""
    return sorted(_one_pass() for _ in range(PASSES))[PASSES // 2]


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
