"""A fixed unit of work that measures the machine's speed between operations.

The benchmark's host is shared, and its speed drifts by up to a third over
seconds to minutes: a fixed loop of interpreter and numpy work takes 6 ms
in one minute and 9 ms in the next, and every kglab operation moves with
it.  ``run.py`` therefore times this unit just before and just after each
timed step and reports the step's time scaled to ``REFERENCE_S``:

    scaled = seconds * REFERENCE_S / mean(unit before, unit after)

The unit mixes what kglab spends its time on: float ``repr`` formatting
(the CSV writer), complex FFTs (the spectral layer) and dictionary-heavy
interpreter work.  Its arrays stay at 64 KiB, below glibc's mmap
threshold, so timing it does not change how the allocator serves the
program's large arrays.
"""

from __future__ import annotations

import time

import numpy as np

#: seconds one unit takes at the reference speed, about the median on the
#: machine described in NOTES.md; a scaled time is the time at that speed
REFERENCE_S = 0.010

_rng = np.random.default_rng(0)
_FIELD = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_VALUES = [float(v) for v in _rng.standard_normal(2000)]


def _unit() -> tuple[int, float, int]:
    text = ",".join(repr(v) for v in _VALUES)
    total = 0.0
    for _ in range(20):
        total += float(np.abs(np.fft.ifft(np.fft.fft(_FIELD) * 0.5)).sum())
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    return len(text), total, len(counts)


def unit_seconds(repeats: int) -> float:
    """Mean seconds per unit over ``repeats`` units run back to back."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _unit()
    return (time.perf_counter() - t0) / repeats


class Speed:
    """Scales timed steps to the reference speed, calibrating after each."""

    def __init__(self, repeats: int):
        self.repeats = repeats
        self.units = [unit_seconds(repeats)]

    def scale(self, seconds: float) -> float:
        """Scale a step that ended just now; call it before any other work."""
        self.units.append(unit_seconds(self.repeats))
        return seconds * REFERENCE_S * 2 / (self.units[-2] + self.units[-1])
