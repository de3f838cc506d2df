"""Host-speed calibration of the benchmark's timings.

The reference machine, a 2-vCPU VM on a shared host, runs the same code up to
twice as fast at one moment as at another, in phases of ten seconds or more.
Raw timings of ten runs then spread by more than any useful bound, because a
run of tens of seconds sees only a few phases.

So the benchmark times a fixed reference loop, its own code and never
graphent's, before the first operation and after each one.  An operation's
calibrated time is its raw time multiplied by REFERENCE_S over the mean of
the two reference times around it: the time the operation would take on the
host at the speed where the loop takes REFERENCE_S.  A change to graphent
moves the raw time and leaves the reference time alone, so it moves the
calibrated time by the same factor.

A pure-Python loop tracked the host best: on the reference machine it cut the
spread of 20-second run medians from 0.14 to 0.03 (share of the mean) for the
pure-Python `closed` operation and from 0.09 to 0.04 for the numpy-bound
`oracle` operation, where a numpy reference loop cut them only to 0.08.
"""

from __future__ import annotations

import time

LOOP = 1_500_000
# Seconds the reference loop takes on the reference machine at its middle
# speed (it measured 0.056 to 0.130 s there).
REFERENCE_S = 0.08


def reference() -> float:
    """Wall time of one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i & 7
    return time.perf_counter() - start


def scales(refs: list[float]) -> list[float]:
    """Scale factor of each operation from the reference times around it:
    refs[k] is measured before operation k and refs[k + 1] after it."""
    return [2.0 * REFERENCE_S / (before + after) for before, after in zip(refs, refs[1:])]
