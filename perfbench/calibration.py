"""Machine-speed calibration.

On the 2-vCPU VM this benchmark was built on, one request ran up to 1.8x
slower for seconds to minutes at a time, in CPU time as much as in wall
time: neighbours share the cores. In three sets of ten runs the unscaled
plan_s_p50 spread 11-39% (quartile distance over median), too much for any
bound worth having. So a fixed piece of work, independent of tspn and shaped like its
hot loops (Python loops over small numpy operations, array builds from
lists of thousands of rows, and whole-array passes), is timed before and
after every timed section (a set-up repetition, or a stage of a request),
and the section is reported at reference speed:

    reported = measured * REFERENCE_S / mean(calibration before, after)

In the last set that brought the spreads to 2-8%. Raw wall times stay in
the run record, next to the scaled ones.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

# Median calibration time over 40 runs of this benchmark on a 2-vCPU 2.1 GHz
# Xeon VM; the scale is arbitrary but fixed, and makes scaled times read as
# typical wall seconds on that machine.
REFERENCE_S = 0.125

_RNG = np.random.default_rng(0)
_POINTS = _RNG.uniform(0.0, 100.0, (200, 3))
_CLOUD = _RNG.uniform(0.0, 100.0, (2000, 3))
_SAMPLES = _RNG.uniform(0.0, 100.0, (30000, 3))


def _work() -> float:
    # Interpreter-bound half: Python loops over small arrays and tuples.
    pts = _POINTS
    rows = [tuple(p) for p in pts]
    total = 0.0
    for i in range(len(pts)):
        d = pts - pts[i]
        total += float(np.sqrt((d * d).sum(axis=1)).min())
        a = rows[i]
        for b in rows[:100]:
            total += math.dist(a, b)
        if i % 8 == 0:
            arr = np.array([list(p) for p in _CLOUD])
            total += float(np.linalg.norm(arr - pts[i], axis=1).min())
    # Vector-bound half: whole-array passes like the baseline's masking loop.
    best = np.full(len(_SAMPLES), np.inf)
    for i in range(16):
        best = np.minimum(best, np.linalg.norm(_SAMPLES - _SAMPLES[i * 7], axis=1))
        masked = best.copy()
        masked[: i * 1800] = np.inf
        total += float(np.argmin(masked))
        d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2))
        total += float(d.max())
    return total


def calibrate() -> float:
    """Seconds one pass of the fixed calibration work takes right now."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0


class SpeedScale:
    """Brackets consecutive timed sections with calibrations."""

    def __init__(self):
        calibrate()  # the first pass warms caches and is discarded
        self.samples = [calibrate()]

    def after_section(self) -> float:
        """Factor to scale the section that just ended to reference speed."""
        self.samples.append(calibrate())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2.0)


class Stopwatch:
    """Times one request made of sections, calibrating between them.

    Long requests span several speed episodes, so a request is timed in
    sections of a second or two, each scaled by its own bracket.
    """

    def __init__(self, speed: SpeedScale):
        self.speed = speed
        self.wall = 0.0
        self.scaled = 0.0
        self._t0 = perf_counter()

    def lap(self) -> None:
        """End the running section, calibrate, and start the next section."""
        elapsed = perf_counter() - self._t0
        scale = self.speed.after_section()
        self.wall += elapsed
        self.scaled += elapsed * scale
        self._t0 = perf_counter()
