"""A fixed reference kernel that measures how fast the machine runs right now.

The cores of a shared host change speed by up to half in phases of seconds
to minutes, and a phase slows everything a run measures alike.  The
benchmark therefore times this kernel just before and just after every
check and every set-up, and reports each of those times scaled to the
speed at which the kernel takes ``REFERENCE_S``: a check measured while
the kernel took 1.2 times ``REFERENCE_S`` is reported at its time divided
by 1.2.  The kernel is a subset construction over frozensets and dicts,
the same kind of work as the program's deciders, and it lives in the
benchmark, so no change to the program changes it.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's typical time in seconds on the machine the baseline was
#: taken on (2 vCPUs, Intel Xeon, Python 3.11.7).  Reported times are in
#: seconds at that speed.
REFERENCE_S = 0.0031

#: Kernel runs per sample.
_RUNS = 3


def _kernel() -> int:
    """Determinize the NFA of ``(a|b)* a (a|b)^8``: 512 subsets."""
    n = 9
    delta = {(q, e): frozenset((q + 1,)) if q < n else frozenset() for q in range(n + 1) for e in "ab"}
    delta[(0, "a")] = frozenset((0, 1))
    delta[(0, "b")] = frozenset((0,))
    start = frozenset((0,))
    seen = {start}
    todo = [start]
    while todo:
        subset = todo.pop()
        for e in "ab":
            target = frozenset().union(*(delta[(q, e)] for q in subset))
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return len(seen)


def sample() -> list[float]:
    """The kernel's time, ``_RUNS`` times in a row."""
    out = []
    for _ in range(_RUNS):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def scale(before: list[float], after: list[float]) -> float:
    """The factor that brings a time measured between the samples
    ``before`` and ``after`` to the reference speed."""
    return REFERENCE_S / statistics.median(before + after)
