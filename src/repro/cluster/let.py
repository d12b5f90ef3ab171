"""Locally-essential-tree (LET) exchange accounting.

In a real PC-GRAPE cluster every host stores only its own domain's
particles; before a force evaluation it *imports* the remote tree
cells (and, near domain boundaries, remote particles) that its sinks'
MAC-accepted interaction lists reference -- the locally-essential tree
of Salmon & Warren, the exchange step of the GRAPE-6A cluster
(astro-ph/0504407).

The emulation evaluates against the shared global tree (which is what
keeps cluster forces equal to the single-host path's), so the LET here
is an **accounting layer**: given the owner of every sink, it determines,
per host, exactly which referenced cells/particles are *not* locally
owned -- the data a real cluster would have shipped -- and prices the
exchange in bytes (:attr:`~repro.grape.timing.GrapeTimingModel.bytes_per_j`
per imported point mass, the same 16-byte j-format the boards use).
A cell is local to a host iff every particle in its Morton slice is
owned by that host; anything else a sink list touches is an import.

At K=1 every cell and particle is local, so the exchange is exactly
zero -- which is what pins the cluster timing model to the single-host
model at K=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..core.octree import Octree, ragged_arange
from ..core.traversal import InteractionLists

__all__ = ["HostExchange", "ExchangeStats", "particle_owners",
           "let_exchange"]

#: bytes per imported point mass (3 coords + mass in the 16-byte
#: j-particle format of :class:`~repro.grape.timing.GrapeTimingModel`)
BYTES_PER_IMPORT = 16.0


@dataclass(frozen=True)
class HostExchange:
    """One host's share of a force evaluation's LET exchange."""

    host: int
    #: sinks (groups) this host evaluates
    n_sinks: int
    #: particles this host owns (sum of its groups' populations)
    owned_particles: int
    #: distinct remote cells its lists reference (monopole imports)
    import_cells: int
    #: distinct remote particles its lists reference (direct imports)
    import_particles: int
    #: priced exchange volume, bytes
    import_bytes: float


@dataclass(frozen=True)
class ExchangeStats:
    """Whole-cluster LET exchange accounting of one force evaluation."""

    hosts: Tuple[HostExchange, ...]

    @property
    def total_import_cells(self) -> int:
        """Imported cells summed over hosts."""
        return sum(h.import_cells for h in self.hosts)

    @property
    def total_import_particles(self) -> int:
        """Imported particles summed over hosts."""
        return sum(h.import_particles for h in self.hosts)

    @property
    def total_bytes(self) -> float:
        """Exchange volume summed over hosts, bytes."""
        return sum(h.import_bytes for h in self.hosts)


def particle_owners(n_particles: int, owner: np.ndarray,
                    sink_start: np.ndarray, sink_count: np.ndarray
                    ) -> np.ndarray:
    """Owner of every Morton-sorted particle, from its sink's owner.

    The sinks' ``[start, start+count)`` slices partition the sorted
    particle array (groups do by construction; per-particle sinks
    trivially), so scattering each sink's owner over its slice covers
    every particle exactly once.
    """
    owner = np.asarray(owner, dtype=np.int64)
    sink_start = np.asarray(sink_start, dtype=np.int64)
    sink_count = np.asarray(sink_count, dtype=np.int64)
    out = np.empty(int(n_particles), dtype=np.int64)
    idx = ragged_arange(sink_start, sink_count)
    out[idx] = np.repeat(owner, sink_count)
    return out


def _rows_cells(lists: InteractionLists, rows: np.ndarray) -> np.ndarray:
    """Distinct cell ids referenced by a set of CSR rows."""
    counts = lists.cell_counts[rows]
    idx = ragged_arange(lists.cell_off[rows], counts)
    return np.unique(lists.cell_idx[idx])


def _rows_parts(lists: InteractionLists, rows: np.ndarray) -> np.ndarray:
    """Distinct direct-source particle ids referenced by CSR rows."""
    counts = lists.part_counts[rows]
    idx = ragged_arange(lists.part_off[rows], counts)
    return np.unique(lists.part_idx[idx])


def let_exchange(tree: Octree, lists: InteractionLists,
                 owner: np.ndarray, sink_start: np.ndarray,
                 sink_count: np.ndarray, hosts: int,
                 *, bytes_per_import: float = BYTES_PER_IMPORT
                 ) -> ExchangeStats:
    """Account the LET imports of one force evaluation.

    ``owner`` assigns each CSR row (sink) of ``lists`` to a host;
    ``sink_start``/``sink_count`` are the sinks' particle slices in
    Morton order.  Returns per-host and total import volumes.
    """
    owner = np.asarray(owner, dtype=np.int64)
    sink_start = np.asarray(sink_start, dtype=np.int64)
    sink_count = np.asarray(sink_count, dtype=np.int64)
    p_owner = particle_owners(tree.n_particles, owner, sink_start,
                              sink_count)
    per_host = []
    for h in range(int(hosts)):
        rows = np.flatnonzero(owner == h)
        if rows.size == 0:
            per_host.append(HostExchange(host=h, n_sinks=0,
                                         owned_particles=0,
                                         import_cells=0,
                                         import_particles=0,
                                         import_bytes=0.0))
            continue
        owned = p_owner == h
        # a cell is local iff its whole Morton slice is owned
        pref = np.zeros(tree.n_particles + 1, dtype=np.int64)
        np.cumsum(owned, out=pref[1:])
        ref_cells = _rows_cells(lists, rows)
        in_slice = (pref[tree.start[ref_cells] + tree.count[ref_cells]]
                    - pref[tree.start[ref_cells]])
        imp_cells = int(np.sum(in_slice != tree.count[ref_cells]))
        ref_parts = _rows_parts(lists, rows)
        imp_parts = int(np.sum(p_owner[ref_parts] != h))
        n_imports = imp_cells + imp_parts
        per_host.append(HostExchange(
            host=h, n_sinks=int(rows.size),
            owned_particles=int(np.sum(sink_count[rows])),
            import_cells=imp_cells, import_particles=imp_parts,
            import_bytes=float(bytes_per_import) * n_imports))
    return ExchangeStats(hosts=tuple(per_host))

