"""Operation counting, the paper's way.

Two conventions meet in section 5 of the paper and both are modelled
here:

* **Raw count** -- 38 flop-equivalents per pairwise interaction (the
  Warren--Salmon treecode convention, shared with the SC'97/'98 Gordon
  Bell entries).  The headline run evaluated 2.90e13 interactions in
  30,141 s: 36.4 Gflops raw.
* **Effective (corrected) count** -- the modified algorithm deliberately
  evaluates *more* interactions than the original treecode would (the
  price of sharing lists across a group).  To avoid crediting that
  extra work, the paper re-measures the interaction count the
  *original* per-particle algorithm would need on the same snapshots
  with the same accuracy parameter (4.69e12) and reports the speed
  based on that: 5.92 Gflops effective.

:func:`original_interaction_count` performs the same re-measurement on
our snapshots (per-particle sinks, counting mode -- the lists are never
materialised); :class:`~repro.perf.report.HeadlineReport` puts both
numbers side by side.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.mac import MAC, BarnesHutMAC
from ..core.multipole import compute_moments
from ..core.octree import build_octree
from ..core.traversal import count_interactions
from ..grape.timing import OPS_PER_INTERACTION

__all__ = ["OPS_PER_INTERACTION", "flops", "gflops",
           "original_interaction_count"]


def flops(interactions: float) -> float:
    """Flop-equivalents of an interaction count (38-op convention)."""
    return OPS_PER_INTERACTION * interactions


def gflops(interactions: float, seconds: float) -> float:
    """Sustained Gflops of ``interactions`` done in ``seconds``."""
    if seconds <= 0:
        raise ValueError("seconds must be positive")
    return flops(interactions) / seconds / 1e9


def original_interaction_count(pos: np.ndarray, mass: np.ndarray, *,
                               mac: Optional[MAC] = None,
                               theta: float = 0.75,
                               leaf_size: int = 8,
                               sample: Optional[int] = None,
                               rng: Optional[np.random.Generator] = None
                               ) -> float:
    """Interactions the *original* (per-particle) algorithm would do.

    Counting-only traversal with every particle as its own sink.  With
    ``sample`` set, a random subset of sinks is walked and the total is
    scaled up -- the estimation shortcut the paper's own measurement
    implies (it processed five snapshots out of a thousand).
    """
    tree = build_octree(pos, mass, leaf_size=leaf_size)
    compute_moments(tree)
    if mac is None:
        mac = BarnesHutMAC(theta=theta)
    n = tree.n_particles
    if sample is not None and sample < n:
        if rng is None:
            rng = np.random.default_rng(0)
        pick = rng.choice(n, size=sample, replace=False)
        centers = tree.pos_sorted[pick]
        scale = n / sample
    else:
        centers = tree.pos_sorted
        scale = 1.0
    radii = np.zeros(centers.shape[0], dtype=np.float64)
    cells, parts = count_interactions(tree, centers, radii, mac)
    return float((cells.sum() + parts.sum()) * scale)

