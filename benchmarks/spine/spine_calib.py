"""Speed calibration: a fixed piece of work timed beside every unit.

The reference box is a shared 2-core VM whose effective speed flips
between a quiet and a contended state, some 20 - 30 % apart, every few
tens of seconds.  Raw wall times measured in different states do not
compare.  So the spine times one small fixed job (interpreter loop,
sort, float math -- nothing of ``repro``) just before and just after
every unit of work, and reports each unit's wall time scaled to the
speed the calibration job has on the quiet reference box:

    seconds_at_reference_speed = wall * REFERENCE_S / calibration_wall

A commit cannot move the calibration job, so the scaling cancels between
any two commits measured by the same benchmark; what it removes is the
state of the machine.  The raw median and the calibration reading are
reported per layer (``bench.unit_wall_raw_p50_s``, ``bench.calibration_s``).
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

from spine_spans import median

#: wall seconds of one :func:`sample` on the reference box, quiet state
REFERENCE_S = 0.0135

_rng = np.random.default_rng(20260930)
_FLOATS = _rng.random(150_000)
_KEYS = _rng.integers(0, 1 << 40, 150_000)


def sample() -> float:
    """Wall seconds of the fixed calibration job (about 14 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i & 7
    np.sort(_FLOATS)
    np.argsort(_KEYS)
    float((_FLOATS * _FLOATS + 1.0).sum() + np.sqrt(_FLOATS).sum())
    return time.perf_counter() - t0


def samples(n: int = 3) -> List[float]:
    return [sample() for _ in range(n)]


def speed(before: Sequence[float], after: Sequence[float]) -> float:
    """The factor that scales a wall time measured between the two
    calibration readings to reference speed (below 1 on a slow box)."""
    return REFERENCE_S / median(list(before) + list(after))
