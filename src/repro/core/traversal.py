"""Tree traversal: interaction-list construction.

This module implements both tree walks the paper discusses:

* the **original** Barnes–Hut walk, one interaction list per particle
  (used only to *estimate* the corrected operation count, exactly as the
  paper does in section 5), and
* **Barnes' modified walk**, one interaction list per particle *group*
  (the algorithm actually run on GRAPE-5; section 3).

Both are the same traversal with different sinks: a sink is a center and
a bounding radius (zero for single particles).  The compiled walk
(``repro_walk``, :mod:`repro.core.kernels.cnative`) takes each sink
breadth first from the root.  The NumPy frontier walk -- its oracle,
and the path without a compiler or for a MAC with no per-cell
threshold -- keeps a sink-sorted frontier of (sink, cell) pairs and
takes one tree level per round of array operations: accepted pairs emit
a cell, rejected leaves their particles, rejected internal cells are
replaced by their children.  Both give each sink the same list, in
CSR (offsets + concatenated indices) form -- how the lists are shipped
to the GRAPE: cell monopoles and direct source particles per sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .kernels import batch
from .mac import MAC, BarnesHutMAC
from .octree import Octree, ragged_arange

__all__ = ["InteractionLists", "build_interaction_lists",
           "count_interactions", "list_builder"]

#: NumPy walk's frontier chunk bound, in (sink, cell) pairs per round.
DEFAULT_CHUNK = 1 << 21


@dataclass
class InteractionLists:
    """CSR interaction lists for a set of sinks.

    For sink ``i``:

    * approximated cells: ``cell_idx[cell_off[i]:cell_off[i+1]]``
      (octree cell ids whose monopole stands in for their particles);
    * direct sources: ``part_idx[part_off[i]:part_off[i+1]]``
      (indices into the tree's *Morton-sorted* particle arrays).

    The paper's "interaction list length" for a sink is the sum of both
    counts: on GRAPE the cell monopoles and the direct particles are sent
    to the very same pipeline (a monopole is just another point mass).
    """

    n_sinks: int
    cell_idx: np.ndarray
    cell_off: np.ndarray
    part_idx: np.ndarray
    part_off: np.ndarray

    def cells_of(self, i: int) -> np.ndarray:
        return self.cell_idx[self.cell_off[i]:self.cell_off[i + 1]]

    def parts_of(self, i: int) -> np.ndarray:
        return self.part_idx[self.part_off[i]:self.part_off[i + 1]]

    @property
    def cell_counts(self) -> np.ndarray:
        return np.diff(self.cell_off)

    @property
    def part_counts(self) -> np.ndarray:
        return np.diff(self.part_off)

    @property
    def list_lengths(self) -> np.ndarray:
        """Per-sink total list length (cells + direct particles)."""
        return self.cell_counts + self.part_counts

    @property
    def total_terms(self) -> int:
        """Total number of source terms over all sinks."""
        return int(self.cell_off[-1] + self.part_off[-1])


def _csr_from_pairs(i: np.ndarray, v: np.ndarray, n_sinks: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort (sink, value) pairs into CSR (offsets, values)."""
    order = np.argsort(i, kind="stable")
    counts = np.bincount(i, minlength=n_sinks)
    off = np.zeros(n_sinks + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off, v[order]


def _sink_chunks(I: np.ndarray, C: np.ndarray, chunk: int):
    """Cut a sink-sorted frontier into pieces of about ``chunk`` pairs,
    only at sink boundaries: every sink's pairs stay in one piece, so
    its list comes out in per-sink breadth-first order whatever the
    cut."""
    cuts = np.unique(np.concatenate(
        ([0], np.searchsorted(I, I[chunk::chunk]), [len(I)])))
    return [(I[a:b], C[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


def _frontier_walk(tree: Octree, sink_center: np.ndarray,
                   sink_radius: np.ndarray, mac: MAC, chunk: int,
                   collect: bool):
    """The NumPy frontier walk: the oracle for the compiled walk and
    the path for any MAC without a per-cell threshold.  Returns what
    :func:`_walker`'s walk does."""
    n_sinks = sink_center.shape[0]
    # emitted (sink, cell) pairs: accepted cells, rejected leaves
    acc_i, acc_c, leaf_i, leaf_c = ([np.empty(0, dtype=np.int64)]
                                    for _ in range(4))
    cell_counts = np.zeros(n_sinks, dtype=np.int64)
    part_counts = np.zeros(n_sinks, dtype=np.int64)
    # worklist of (sink ids, cell ids) frontier chunks, each sorted by
    # sink and holding whole sinks
    work = _sink_chunks(np.arange(n_sinks, dtype=np.int64),
                        np.zeros(n_sinks, dtype=np.int64), chunk)
    while work:
        I, C = work.pop()
        # The root rides through the same tests: it never satisfies the
        # MAC for sinks inside it (d_min = 0).  Massless cells exert no
        # force and are dropped (they would only pad lists).
        ok = mac.accept(tree, C, sink_center[I], sink_radius[I])
        zero = tree.mass[C] <= 0.0
        keep, rest = ok & ~zero, ~(ok | zero)
        rI, rC = I[rest], C[rest]
        leaf = tree.is_leaf[rC]
        if collect:
            acc_i.append(I[keep])
            acc_c.append(C[keep])
            leaf_i.append(rI[leaf])
            leaf_c.append(rC[leaf])
        else:
            np.add.at(cell_counts, I[keep], 1)
            np.add.at(part_counts, rI[leaf], tree.count[rC[leaf]])
        kids = tree.child[rC[~leaf]]             # (k, 8)
        mask = kids >= 0
        work.extend(_sink_chunks(np.repeat(rI[~leaf], 8)[mask.ravel()],
                                 kids[mask].astype(np.int64), chunk))

    if not collect:
        return cell_counts, part_counts
    ai, ac, li, lc = map(np.concatenate, (acc_i, acc_c, leaf_i, leaf_c))
    pcount = tree.count[lc]
    cell_off, cell_idx = _csr_from_pairs(ai, ac, n_sinks)
    # expand leaf pairs into (sink, sorted-particle) pairs
    part_off, part_idx = _csr_from_pairs(
        np.repeat(li, pcount), ragged_arange(tree.start[lc], pcount),
        n_sinks)
    return cell_off, cell_idx, part_off, part_idx


def _walker(tree: Octree, mac: MAC, chunk: int, collect: bool):
    """The walk over ``tree``, set up once, as a function of the sinks:
    :func:`repro.core.kernels.batch.tree_walk` for a :class:`BarnesHutMAC`
    that keeps its own ``accept`` (when the library loads), else
    :func:`_frontier_walk`.  It returns the CSR ``(cell_off, cell_idx,
    part_off, part_idx)``, or without ``collect`` per-sink counts."""
    if tree.mass is None or tree.com is None or tree.rmax is None:
        raise ValueError("tree has no multipole moments; call compute_moments")
    native = (batch.walk_inputs(tree, mac)
              if type(mac).accept is BarnesHutMAC.accept else None)

    def walk(sink_center, sink_radius):
        sink_center = np.asarray(sink_center, dtype=np.float64)
        sink_radius = np.asarray(sink_radius, dtype=np.float64)
        if sink_center.ndim != 2 or sink_center.shape[1] != 3:
            raise ValueError("sink_center must have shape (S, 3)")
        if sink_radius.shape != (sink_center.shape[0],):
            raise ValueError("sink_radius must have shape (S,)")
        if native is not None:
            return batch.tree_walk(native, sink_center, sink_radius, collect)
        return _frontier_walk(tree, sink_center, sink_radius, mac, chunk,
                              collect)
    return walk


def list_builder(tree: Octree, mac: MAC, *, chunk: int = DEFAULT_CHUNK
                 ) -> Callable[[np.ndarray, np.ndarray], InteractionLists]:
    """:func:`build_interaction_lists` over ``tree`` and ``mac`` as a
    function of the sinks, its per-tree walk inputs built once, here: a
    sweep makes one and calls it from every shard."""
    walk = _walker(tree, mac, chunk, collect=True)

    def build(sink_center, sink_radius) -> InteractionLists:
        cell_off, cell_idx, part_off, part_idx = walk(sink_center,
                                                      sink_radius)
        return InteractionLists(len(cell_off) - 1, cell_idx, cell_off,
                                part_idx, part_off)
    return build


def build_interaction_lists(tree: Octree, sink_center: np.ndarray,
                            sink_radius: np.ndarray, mac: MAC, *,
                            chunk: int = DEFAULT_CHUNK) -> InteractionLists:
    """Build full CSR interaction lists for the given sinks.

    For the modified algorithm pass group centers/radii
    (:class:`repro.core.groups.GroupSet` fields); for the original
    algorithm pass particle positions and zero radii.  Each sink's list
    is in per-sink breadth-first order (cells, and leaves' particle
    ranges, in the order a FIFO walk from the root meets them), the
    same from either walk and at any ``chunk`` (the NumPy walk's
    frontier bound, in pairs).

    Note: a sink's own particles appear in its direct list (the walk
    opens every cell containing the sink down to its leaves).  This is
    deliberate and matches the hardware: GRAPE-5 computes the force from
    *every* j-particle including i itself, which contributes exactly zero
    under Plummer softening.  Host-side potential evaluation subtracts
    the self term (see :mod:`repro.core.kernels`).
    """
    return list_builder(tree, mac, chunk=chunk)(sink_center, sink_radius)


def count_interactions(tree: Octree, sink_center: np.ndarray,
                       sink_radius: np.ndarray, mac: MAC, *,
                       chunk: int = DEFAULT_CHUNK
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sink (cell, direct-particle) interaction counts, without
    materialising the lists.

    This is how the paper's section-5 correction is measured cheaply: the
    *original* algorithm's operation count only needs list lengths, not
    the lists themselves.
    """
    return _walker(tree, mac, chunk, collect=False)(sink_center, sink_radius)
