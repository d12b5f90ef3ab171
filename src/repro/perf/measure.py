"""Live measurement helpers behind the benchmark harness.

These wrap the repeated measurement patterns of the evaluation --
group-size sweeps, force-error measurement against the direct
reference, original-vs-modified comparisons -- so that benchmarks,
examples and user scripts share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.direct import direct_accelerations
from ..core.treecode import TreeCode
from .model import FittedListLength

__all__ = ["GroupSweepPoint", "group_size_sweep", "fit_list_length",
           "force_error"]


@dataclass(frozen=True)
class GroupSweepPoint:
    """One n_crit setting's measured statistics."""

    n_crit: int
    mean_group_size: float
    mean_list_length: float
    host_terms: int
    total_interactions: int


def group_size_sweep(pos: np.ndarray, mass: np.ndarray, eps: float,
                     n_crits: Sequence[int], *, theta: float = 0.75
                     ) -> Tuple[GroupSweepPoint, ...]:
    """Measure list statistics across group sizes on one snapshot."""
    out = []
    for ncrit in n_crits:
        tc = TreeCode(theta=theta, n_crit=int(ncrit))
        tc.accelerations(pos, mass, eps)
        s = tc.last_stats
        out.append(GroupSweepPoint(
            n_crit=int(ncrit),
            mean_group_size=s.mean_group_size,
            mean_list_length=s.interactions_per_particle,
            host_terms=s.cell_terms + s.part_terms,
            total_interactions=s.total_interactions))
    return tuple(out)


def fit_list_length(points: Sequence[GroupSweepPoint]
                    ) -> FittedListLength:
    """Fit the Makino-1991 list-length law to a sweep."""
    ng = [p.mean_group_size for p in points]
    ll = [p.mean_list_length for p in points]
    return FittedListLength.fit(ng, ll)


def force_error(pos: np.ndarray, mass: np.ndarray, eps: float,
                solver, *, reference: Optional[Tuple] = None,
                ) -> dict:
    """RMS/median/99th-percentile relative force error of ``solver``
    against direct summation.

    ``solver`` is anything with ``accelerations(pos, mass, eps)``;
    ``reference`` optionally supplies a precomputed ``(acc, pot)`` to
    amortise the O(N^2) baseline across several measurements.

    Particles whose reference acceleration has exactly zero norm (a
    sink at a field null, e.g. the center of a symmetric pair) have no
    defined relative error; they are excluded from the statistics and
    counted in ``n_zero_reference`` instead of leaking NaN/inf into
    the RMS.
    """
    if reference is None:
        reference = direct_accelerations(pos, mass, eps)
    acc_ref, pot_ref = reference
    acc, pot = solver.accelerations(pos, mass, eps)
    ref_norm = np.linalg.norm(acc_ref, axis=1)
    ok = ref_norm > 0.0
    n_zero = int(np.size(ok) - np.count_nonzero(ok))
    if not np.any(ok):
        rel = np.zeros(0, dtype=np.float64)
    else:
        rel = (np.linalg.norm(acc[ok] - acc_ref[ok], axis=1)
               / ref_norm[ok])
    with np.errstate(divide="ignore", invalid="ignore"):
        prel = np.abs((pot - pot_ref) / pot_ref)
    if rel.size == 0:
        stats = {"rms": 0.0, "median": 0.0, "p99": 0.0, "max": 0.0}
    else:
        stats = {
            "rms": float(np.sqrt(np.mean(rel**2))),
            "median": float(np.median(rel)),
            "p99": float(np.percentile(rel, 99)),
            "max": float(rel.max()),
        }
    finite = np.isfinite(prel)
    stats["pot_rms"] = (float(np.sqrt(np.mean(prel[finite] ** 2)))
                        if np.any(finite) else 0.0)
    stats["n_zero_reference"] = n_zero
    return stats
