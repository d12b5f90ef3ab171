"""Force-evaluation sweep descriptions.

One *sweep* is the eval phase of one tree force evaluation: a set of
sinks (Barnes groups, or single particles for the original algorithm),
each owning an interaction list over the shared source arrays (cell
monopoles + Morton-sorted particles).  :class:`SweepSpec` carries the
arrays plus a ``build_lists(a, b)`` callback so an engine can *stream*
the traversal: lists for sinks ``[a, b)`` are built on the host while
earlier sinks are already being evaluated -- the software analogue of
the paper's host/GRAPE overlap (host walks the tree for group *k+1*
while the GRAPE integrates the shared list of group *k*).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ..core.traversal import InteractionLists

__all__ = ["SweepSpec"]


@dataclass
class SweepSpec:
    """Everything an engine needs to evaluate one force sweep.

    Arrays are in the tree's Morton-sorted frame; ``acc``/``pot``
    results come back in the same frame (the caller scatters to the
    original order).
    """

    #: (N, 3) sorted particle positions / (N,) masses (G-scaled)
    pos: np.ndarray
    pmass: np.ndarray
    #: (C, 3) cell centers of mass / (C,) cell masses
    com: np.ndarray
    cmass: np.ndarray
    #: (S,)/(S,) slice of each sink into the sorted particle arrays
    sink_start: np.ndarray
    sink_count: np.ndarray
    #: Plummer softening of this sweep
    eps: float
    #: coordinate window to announce to device backends (lo, hi); None
    #: when the driver has not announced one
    domain: Optional[Tuple[float, float]]
    #: lists for the sink range [a, b) -- engines may call this in
    #: shards, interleaved with evaluation
    build_lists: Callable[[int, int], InteractionLists]

    @property
    def n_sinks(self) -> int:
        return int(self.sink_start.shape[0])

    @property
    def n_particles(self) -> int:
        return int(self.pos.shape[0])
