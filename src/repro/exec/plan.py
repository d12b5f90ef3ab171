"""Force-evaluation sweep descriptions and batch planning.

One *sweep* is the eval phase of one tree force evaluation: a set of
sinks (Barnes groups, or single particles for the original algorithm),
each owning an interaction list over the shared source arrays (cell
monopoles + Morton-sorted particles).  :class:`SweepSpec` carries the
arrays plus a ``build_lists(a, b)`` callback so an engine can *stream*
the traversal: lists for sinks ``[a, b)`` are built on the host while
earlier sinks are already being evaluated -- the software analogue of
the paper's host/GRAPE overlap (host walks the tree for group *k+1*
while the GRAPE integrates the shared list of group *k*).

:func:`plan_batches` packs consecutive sinks into batches bounded by the
backend's j-memory capacity (``BackendCaps.max_nj``), mirroring how the
host chunks j-particle streaming into ``g5_set_xmj`` loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.traversal import InteractionLists

__all__ = ["SweepSpec", "plan_batches", "batch_message",
           "DEFAULT_BATCH_NJ"]

#: j-terms per batch for unbounded backends: big enough to amortise the
#: per-task IPC, small enough that a handful of batches per worker keeps
#: the queue balanced.
DEFAULT_BATCH_NJ = 1 << 16


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


def batch_message(batch_id: int, sweep_id: int, sweep_meta, shard_meta,
                  a0: int, g0: int, g1: int, ctx=None) -> tuple:
    """The pipeline task message for one batch (sans trailing attempt).

    One place owns the wire shape shared by
    :class:`~repro.exec.engine.PipelineEngine` (producer) and
    :func:`~repro.exec.workers.worker_main` (consumer): evaluate sinks
    ``[g0, g1)`` whose shard lists start at sink ``a0``, reading and
    writing the named shared-memory blocks.  ``ctx`` is the optional
    :class:`~repro.obs.context.SpanContext` of the submitting trace --
    ``None`` when tracing is off, so the disabled path ships no extra
    bytes and workers skip all span bookkeeping.  The engine appends the
    attempt number at submit time.
    """
    return ("batch", batch_id, sweep_id, sweep_meta, shard_meta,
            a0, g0, g1, ctx)


def plan_batches(lengths: np.ndarray, max_nj: Optional[int]
                 ) -> List[Tuple[int, int]]:
    """Pack consecutive sinks into ``[a, b)`` batches of bounded j-load.

    ``lengths`` are per-sink list lengths; a batch closes once its total
    would exceed ``max_nj`` (a single over-long sink still gets its own
    batch -- the backend's own pass-splitting handles it, exactly as
    libg5 splits an oversized j-set into sequential loads).
    """
    cap = int(max_nj) if max_nj else DEFAULT_BATCH_NJ
    out: List[Tuple[int, int]] = []
    a = 0
    load = 0
    for i, ln in enumerate(np.asarray(lengths, dtype=np.int64)):
        if i > a and load + int(ln) > cap:
            out.append((a, i))
            a, load = i, 0
        load += int(ln)
    if a < len(lengths):
        out.append((a, len(lengths)))
    return out
