"""Analytic host + GRAPE performance model (paper section 3).

The modified tree algorithm trades host work for pipeline work through
the group size ``n_g``:

* host cost per step ~ tree build O(N) + traversal O((N/n_g) L(n_g))
  -- the grouping divides the per-sink walk count by n_g;
* GRAPE cost per step ~ (N/n_g) force calls of (n_g sinks x L(n_g)
  sources) each.

``L(n_g)``, the mean interaction-list length, grows with n_g (a bigger
sink needs more opened cells and contains more direct neighbours), so
the total has a minimum -- "there is, therefore, an optimal n_g at
which the total computing time is minimum.  The optimal n_g strongly
depends on the ratio of the speed of the host computer and GRAPE.  For
the present configuration, the optimal n_g is around 2000."

:class:`FittedListLength` captures L(n_g) from live measurements on a
scaled snapshot (the form ``c0 + c1 n_g + c2 n_g^{2/3}`` follows Makino
1991: a direct part growing ~linearly and a cell part growing with the
group's surface), optionally *anchored* so that the paper-scale value
matches the measured headline figure (L(2000) = 13,431 at N = 2.1 M).
:class:`PerformanceModel` combines it with the host and GRAPE machine
models to predict step times, the optimal n_g, and full-run wall
clocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from ..grape.timing import GrapeTimingModel, OPS_PER_INTERACTION
from ..host.machine import ALPHASERVER_DS10, HostMachine

__all__ = ["FittedListLength", "PerformanceModel", "PAPER_N",
           "PAPER_STEPS", "PAPER_LIST_LENGTH", "PAPER_NG"]

#: Paper headline-run constants (section 5).
PAPER_N = 2_159_038
PAPER_STEPS = 999
PAPER_LIST_LENGTH = 13_431.0
PAPER_NG = 2000.0


@dataclass(frozen=True)
class FittedListLength:
    """Mean interaction-list length as a function of group size.

    ``L(n_g) = c0 + c1 * n_g + c2 * n_g^{2/3}``
    """

    c0: float
    c1: float
    c2: float

    def __call__(self, ng) -> np.ndarray:
        ng = np.asarray(ng, dtype=np.float64)
        return self.c0 + self.c1 * ng + self.c2 * ng ** (2.0 / 3.0)

    @classmethod
    def fit(cls, ng: Sequence[float], lengths: Sequence[float]
            ) -> "FittedListLength":
        """Non-negative least squares fit to measured (n_g, L) pairs.

        Physical constraints: every coefficient is non-negative, and
        ``c1 >= 1`` -- each group member always interacts with its own
        group, so the list is at least n_g long.  Duplicate n_g samples
        (grouping saturates once n_crit exceeds the top-level cell
        populations of a small snapshot) are collapsed.
        """
        from scipy.optimize import nnls
        ng = np.asarray(ng, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.float64)
        if ng.shape != lengths.shape or ng.ndim != 1 or len(ng) < 3:
            raise ValueError("need >= 3 matching (ng, L) samples")
        ng, keep = np.unique(ng, return_index=True)
        lengths = lengths[keep]
        if len(ng) < 3:
            raise ValueError("need >= 3 distinct n_g samples")
        a = np.stack([np.ones_like(ng), ng, ng ** (2.0 / 3.0)], axis=1)
        # fit the excess over the guaranteed n_g direct part
        coef, _ = nnls(a, np.maximum(lengths - ng, 0.0))
        return cls(c0=float(coef[0]), c1=1.0 + float(coef[1]),
                   c2=float(coef[2]))

    def anchored(self, ng_ref: float, l_ref: float) -> "FittedListLength":
        """Rescale the fit so ``L(ng_ref) = l_ref``.

        Preferred mode: scale only the *cell* part (c0, c2), which
        carries the log N growth -- the direct part (the ``c1 n_g``
        term: a group's own and neighbouring particles) is
        size-intensive and does not grow with N.  When the small-N fit
        has a direct part too steep for that (``c1 * ng_ref`` already
        exceeds the target, as happens for strongly concentrated
        snapshots), fall back to scaling the whole curve while pinning
        the direct slope at its physical floor of 1.
        """
        if l_ref <= 0 or ng_ref <= 0:
            raise ValueError("cannot anchor: degenerate target")
        cell_part = self.c0 + self.c2 * ng_ref ** (2.0 / 3.0)
        target = l_ref - self.c1 * ng_ref
        if cell_part > 0 and target > 0:
            s = target / cell_part
            return replace(self, c0=self.c0 * s, c2=self.c2 * s)
        # fallback: keep the shape above the L >= n_g floor, scale it
        excess = float(self(np.float64(ng_ref))) - ng_ref
        target = l_ref - ng_ref
        if excess <= 0 or target <= 0:
            raise ValueError("cannot anchor: degenerate fit or target")
        s = target / excess
        return FittedListLength(c0=self.c0 * s,
                                c1=1.0 + (self.c1 - 1.0) * s,
                                c2=self.c2 * s)


@dataclass
class PerformanceModel:
    """Predict step and run times of the treecode-on-GRAPE pipeline."""

    host: HostMachine = field(default_factory=lambda: ALPHASERVER_DS10)
    grape: GrapeTimingModel = field(default_factory=GrapeTimingModel)
    list_length: Callable[[float], float] = field(
        default_factory=lambda: FittedListLength(
            # Default: anchored to the paper's headline measurement
            # (L(2000) = 13,431) with a small-N-fit shape; see
            # benchmarks/bench_e3_optimal_ng.py for the live refit.
            c0=250.0, c1=1.20, c2=68.0).anchored(PAPER_NG,
                                                 PAPER_LIST_LENGTH))

    # ------------------------------------------------------------------
    def grape_step_time(self, n: int, ng: float) -> float:
        """Modelled GRAPE seconds per simulation step."""
        n_groups = max(1.0, n / ng)
        l = float(self.list_length(ng))
        return n_groups * self.grape.force_call_time(int(round(ng)),
                                                     int(round(l)))

    def host_step_time(self, n: int, ng: float) -> float:
        """Modelled host seconds per simulation step."""
        n_groups = max(1.0, n / ng)
        l = float(self.list_length(ng))
        return self.host.step_time(n, int(round(n_groups)), l)

    def step_time(self, n: int, ng: float) -> float:
        """Total modelled seconds per step (GRAPE plus host)."""
        return self.grape_step_time(n, ng) + self.host_step_time(n, ng)

    # ------------------------------------------------------------------
    def optimal_ng(self, n: int, *, ng_min: float = 50.0,
                   ng_max: float = 50_000.0, points: int = 400
                   ) -> Tuple[float, float]:
        """(n_g, seconds/step) minimising the modelled step time.

        Golden-section would do, but the curve is cheap: scan a log
        grid and refine around the minimum (robust to the mild
        non-smoothness of the ceil() in the pipeline model).
        """
        grid = np.geomspace(ng_min, ng_max, points)
        times = np.array([self.step_time(n, g) for g in grid])
        k = int(np.argmin(times))
        lo = grid[max(0, k - 1)]
        hi = grid[min(points - 1, k + 1)]
        fine = np.linspace(lo, hi, 200)
        ft = np.array([self.step_time(n, g) for g in fine])
        j = int(np.argmin(ft))
        return float(fine[j]), float(ft[j])

    # ------------------------------------------------------------------
    def run_prediction(self, n: int = PAPER_N, steps: int = PAPER_STEPS,
                       ng: float = PAPER_NG) -> Dict[str, float]:
        """Full-run wall-clock prediction at a given operating point.

        Returns the section-5 style numbers: total seconds, total
        (modified) interactions, raw Gflops.
        """
        l = float(self.list_length(ng))
        per_step = self.step_time(n, ng)
        total_s = steps * per_step
        inter = steps * n * l
        return {
            "N": float(n),
            "steps": float(steps),
            "ng": float(ng),
            "list_length": l,
            "host_s_per_step": self.host_step_time(n, ng),
            "grape_s_per_step": self.grape_step_time(n, ng),
            "total_seconds": total_s,
            "total_hours": total_s / 3600.0,
            "total_interactions": inter,
            "raw_gflops": OPS_PER_INTERACTION * inter / total_s / 1e9,
        }
