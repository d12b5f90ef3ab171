"""Force-evaluation sweep descriptions.

One *sweep* is the eval phase of one tree force evaluation: a set of
sinks (Barnes groups, or single particles for the original algorithm),
each owning an interaction list over the tree's source arrays (cell
monopoles + Morton-sorted particles).  :class:`SweepSpec` carries the
tree plus one callback so an engine can *stream* the sweep:
``build_lists(a, b)`` walks the tree for sinks ``[a, b)`` on whichever
thread then evaluates them, while other threads walk and evaluate
other ranges -- the software analogue of the paper's host/GRAPE
overlap (host walks the tree for group *k+1* while the GRAPE
integrates the shared list of group *k*).  Every range is evaluated by
one :meth:`~repro.core.kernels.ForceBackend.eval_lists` call, and
:class:`EvalResult` keeps of its lists only their lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.octree import Octree
from ..core.traversal import InteractionLists

__all__ = ["EvalResult", "SweepSpec"]


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
    #: lists for the sink range [a, b) -- engines call this per shard,
    #: on the thread that evaluates the shard
    build_lists: Callable[[int, int], InteractionLists]

    @property
    def n_sinks(self) -> int:
        return int(self.sink_start.shape[0])

    @property
    def n_particles(self) -> int:
        return self.tree.n_particles


@dataclass
class EvalResult:
    """Outcome of one sweep, in the tree's Morton-sorted frame."""

    acc: np.ndarray
    pot: np.ndarray
    #: (S,) interaction-list length of every sink (cells + particles)
    lengths: np.ndarray
    #: cell (monopole) and direct particle terms summed over all sinks
    cell_terms: int
    part_terms: int
    #: seconds the submitting thread spent inside ``spec.build_lists``
    #: (zero when every shard was walked on the pool)
    traverse_seconds: float
    #: seconds the same thread spent waiting on, or running, the rest
    #: of the shards (the un-overlapped device time: T_grape as the
    #: paper's host sees it)
    kernel_seconds: float
