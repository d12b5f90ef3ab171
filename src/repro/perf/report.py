"""The section-5 performance report.

:class:`HeadlineReport` assembles, from measured or modelled inputs,
exactly the sequence of numbers the paper walks through in section 5:

    N, steps, total interactions, average list length, wall-clock
    seconds, raw Gflops (38-op count), original-algorithm interactions,
    effective Gflops, system price, $/Mflops.

:data:`PAPER_HEADLINE` is the paper's own row, used by the benchmark
harness for side-by-side tables and by the tests as a consistency
oracle (the paper's published numbers must be mutually consistent under
our formulas -- and they are, to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..host.cost import PAPER_SYSTEM_COST, SystemCost
from ..obs.export import format_table
from .opcount import gflops

__all__ = ["HeadlineReport", "PAPER_HEADLINE", "format_table"]


@dataclass(frozen=True)
class HeadlineReport:
    """Price/performance accounting for one run (measured or modelled)."""

    n_particles: int
    n_steps: int
    modified_interactions: float
    original_interactions: float
    wall_seconds: float
    cost: SystemCost = PAPER_SYSTEM_COST

    def __post_init__(self):
        if self.modified_interactions < 0 or self.original_interactions < 0:
            raise ValueError("interaction counts must be non-negative")
        if self.wall_seconds <= 0:
            raise ValueError("wall_seconds must be positive")
        if self.n_particles <= 0 or self.n_steps <= 0:
            raise ValueError("particle and step counts must be positive")

    # ------------------------------------------------------------------
    @property
    def overhead_ratio(self) -> float:
        """Modified / original count -- the work inflation the grouped
        algorithm accepts to offload the host (6.2x in the paper)."""
        if self.original_interactions == 0:
            return float("inf")
        return self.modified_interactions / self.original_interactions

    @property
    def mean_list_length(self) -> float:
        """Average interaction-list length per particle per step."""
        return (self.modified_interactions
                / (self.n_particles * self.n_steps))

    @property
    def raw_gflops(self) -> float:
        """Sustained Gflops over all interactions actually executed."""
        return gflops(self.modified_interactions, self.wall_seconds)

    @property
    def effective_gflops(self) -> float:
        """Sustained Gflops over the useful (original) interactions."""
        return gflops(self.original_interactions, self.wall_seconds)

    @property
    def price_per_mflops(self) -> float:
        """Dollars per effective Mflops -- the Gordon Bell metric."""
        return self.cost.price_per_mflops(self.effective_gflops * 1e9)

    # ------------------------------------------------------------------
    def as_row(self, label: str = "measured") -> Dict[str, object]:
        """One table row of the headline numbers (for format_table)."""
        return {
            "run": label,
            "N": self.n_particles,
            "steps": self.n_steps,
            "interactions": f"{self.modified_interactions:.3g}",
            "list_len": round(self.mean_list_length, 0),
            "wall_s": round(self.wall_seconds, 0),
            "hours": round(self.wall_seconds / 3600.0, 2),
            "raw_Gflops": round(self.raw_gflops, 2),
            "orig_interactions": f"{self.original_interactions:.3g}",
            "ratio": round(self.overhead_ratio, 2),
            "eff_Gflops": round(self.effective_gflops, 2),
            "usd": round(self.cost.total_usd, 0),
            "usd_per_Mflops": round(self.price_per_mflops, 2),
        }


#: The paper's own section-5 numbers, assembled through our formulas.
PAPER_HEADLINE = HeadlineReport(
    n_particles=2_159_038,
    n_steps=999,
    modified_interactions=2.90e13,
    original_interactions=4.69e12,
    wall_seconds=30_141.0,
)
