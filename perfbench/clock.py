"""Times scaled to a reference machine speed.

The machines this benchmark runs on are shared, and their speed for plain
Python code swings by up to a factor of two: each CPU switches between a
fast and a slow state several times a second, and the share of time spent
slow drifts over tens of seconds.  So every timed
step is bracketed by a fixed calibration task, and a time t is reported as
``t * REF_S / c``: the time the step would take on a machine where the
calibration takes exactly REF_S, with c the calibration time measured next
to the step.  The calibration does the same kind of work as the package
(tuples, sets, dicts and bit masks in pure Python).
"""

from __future__ import annotations

from itertools import combinations
from time import perf_counter, sleep

REF_S = 0.002
# calibrations taken around a step too long to bracket closely, and the
# pause between two of them
SPREAD_SAMPLES = 30
SPREAD_GAP_S = 0.005


def calibrate() -> float:
    """Seconds taken by the fixed calibration task."""
    t0 = perf_counter()
    seen: dict[tuple[int, ...], int] = {}
    acc = 0
    for f in combinations(range(1, 18), 4):
        key = f[1:]
        seen[key] = seen.get(key, 0) + 1
        acc ^= (1 << f[0]) | (1 << f[3])
        if set(f) <= {1, 2, 3, 4, 5, 6, 7}:
            acc += 1
    return perf_counter() - t0


def calibrate_spread() -> list[float]:
    """Calibrations spread over time, for a step too long to bracket closely.

    The speed switches state many times a second, so samples taken back to
    back would all see one state.
    """
    out = []
    for _ in range(SPREAD_SAMPLES):
        out.append(calibrate())
        sleep(SPREAD_GAP_S)
    return out


def scaled(seconds: float, calibration: float) -> float:
    return seconds * REF_S / calibration
