"""Force-evaluation sweep descriptions.

One *sweep* is the eval phase of one tree force evaluation: a set of
sinks (Barnes groups, or single particles for the original algorithm),
each owning an interaction list over the tree's source arrays (cell
monopoles + Morton-sorted particles).  :class:`SweepSpec` carries the
tree plus one callback so an engine can *stream* the sweep:
``build_lists(a, b)`` traverses sinks ``[a, b)`` on the host while
earlier sinks are already being evaluated -- the software analogue of
the paper's host/GRAPE overlap (host walks the tree for group *k+1*
while the GRAPE integrates the shared list of group *k*).  Every range
is evaluated by one
:meth:`~repro.core.kernels.ForceBackend.eval_lists` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from ..core.octree import Octree
from ..core.traversal import InteractionLists

__all__ = ["SweepSpec"]


@dataclass
class SweepSpec:
    """Everything an engine needs to evaluate one force sweep.

    Arrays are in the tree's Morton-sorted frame; ``acc``/``pot``
    results come back in the same frame (the caller scatters to the
    original order).
    """

    #: the octree with its moments: sources are ``tree.com``/``mass``
    #: (cells) and ``tree.pos_sorted``/``mass_sorted`` (particles)
    tree: Octree
    #: (S, 3) sink centers (what a cluster decomposes the sinks by)
    sink_center: np.ndarray
    #: (S,)/(S,) slice of each sink into the sorted particle arrays
    sink_start: np.ndarray
    sink_count: np.ndarray
    #: Plummer softening of this sweep
    eps: float
    #: coordinate window to announce to device backends (lo, hi)
    domain: Tuple[float, float]
    #: lists for the sink range [a, b) -- engines may call this in
    #: shards, interleaved with evaluation
    build_lists: Callable[[int, int], InteractionLists]

    @property
    def n_sinks(self) -> int:
        return int(self.sink_start.shape[0])

    @property
    def n_particles(self) -> int:
        return self.tree.n_particles
