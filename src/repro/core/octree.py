"""Linear octree construction from Morton-sorted particles.

The tree is stored as a structure of arrays (one attribute per property,
indexed by cell id) rather than as linked node objects: this is the layout
the vectorised traversal in :mod:`repro.core.traversal` needs, and it is
the Python analogue of the compact tree the paper's host code (Makino's
C++ treecode) builds on the AlphaServer.

Construction is level-synchronous: particles are sorted once by Morton
key, after which every octree cell is a contiguous slice of the sorted
particle arrays.  Each level is refined with a handful of whole-array
NumPy operations; the only Python loop is over tree levels (at most
:data:`repro.core.morton.MAX_LEVEL` = 21 iterations).

Cell ids are assigned in construction order, which is top-down by level:
``parent[c] < c`` for every non-root cell.  A bottom-up pass (e.g. the
multipole computation) is therefore a reverse iteration over cell ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..obs.trace import as_tracer
from . import morton

__all__ = ["Octree", "build_octree", "ragged_arange"]


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each ``(s, c)`` pair.

    This is the standard vectorised "ragged range" trick: it gathers the
    particle indices of many contiguous cell slices in one shot without a
    Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # offsets[i] = position in the output where segment i begins
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    # At each segment boundary jump from the end of the previous segment
    # to the start of the next one; elsewhere step by +1.
    nonempty = counts > 0
    first = np.flatnonzero(nonempty)
    if len(first) > 1:
        seg_starts = offsets[first[1:]]
        prev_end = starts[first[:-1]] + counts[first[:-1]] - 1
        out[seg_starts] = starts[first[1:]] - prev_end
    out[0] = starts[first[0]]
    return np.cumsum(out)


@dataclass
class Octree:
    """A linear octree over a fixed particle set.

    Particle attributes (``pos_sorted``, ``mass_sorted``) are stored in
    Morton order; ``order`` maps sorted index -> original particle index.
    Every cell covers the contiguous slice
    ``pos_sorted[start[c] : start[c] + count[c]]``.

    Multipole arrays (``mass``, ``com``, ``rmax``) are filled by
    :func:`repro.core.multipole.compute_moments`.
    """

    # geometry of the root cube
    corner: np.ndarray
    size: float

    # particles, Morton sorted
    order: np.ndarray          # (N,)  original index of sorted particle
    keys: np.ndarray           # (N,)  sorted Morton keys
    pos_sorted: np.ndarray     # (N,3)
    mass_sorted: np.ndarray    # (N,)

    # per-cell arrays (index = cell id; root = 0)
    level: np.ndarray          # (C,) int8
    prefix: np.ndarray         # (C,) uint64, key prefix at `level`
    start: np.ndarray          # (C,) int64 slice start into sorted arrays
    count: np.ndarray          # (C,) int64 number of particles in cell
    parent: np.ndarray         # (C,) int32, -1 for root
    child: np.ndarray          # (C,8) int32, -1 where absent
    is_leaf: np.ndarray        # (C,) bool
    center: np.ndarray         # (C,3) geometric center of the cell cube
    half: np.ndarray           # (C,) half edge length

    leaf_size: int

    # multipole moments (filled by repro.core.multipole)
    mass: Optional[np.ndarray] = field(default=None)   # (C,)
    com: Optional[np.ndarray] = field(default=None)    # (C,3)
    rmax: Optional[np.ndarray] = field(default=None)   # (C,) com->corner bound

    @property
    def n_particles(self) -> int:
        return int(self.order.shape[0])

    @property
    def n_cells(self) -> int:
        return int(self.level.shape[0])

    @property
    def depth(self) -> int:
        """Deepest level present in the tree (root = 0)."""
        return int(self.level.max())

    def leaves(self) -> np.ndarray:
        """Ids of all leaf cells."""
        return np.flatnonzero(self.is_leaf)


def _cell_geometry(prefix: np.ndarray, level: int, corner: np.ndarray,
                   size: float):
    """Geometric center and half-size of cells from their key prefix."""
    rem = morton.MAX_LEVEL - level
    full = np.asarray(prefix, dtype=np.uint64) << np.uint64(3 * rem)
    ix, iy, iz = morton.decode_grid(full)
    # decode gives finest-grid coordinates of the lower corner
    i = np.stack([ix, iy, iz], axis=-1).astype(np.float64) / float(1 << rem)
    cell = size / float(1 << level)
    center = np.asarray(corner, dtype=np.float64) + (i + 0.5) * cell
    return center, 0.5 * cell


def build_octree(pos: np.ndarray, mass: np.ndarray, *,
                 leaf_size: int = 8,
                 tracer: Optional[object] = None) -> Octree:
    """Build a linear octree over ``pos`` with at most ``leaf_size``
    particles per leaf (except for cells of coincident particles that
    cannot be separated at the finest grid level).  The root cube is
    :func:`repro.core.morton.bounding_cube` of ``pos``.

    Parameters
    ----------
    pos:
        ``(N, 3)`` particle positions.
    mass:
        ``(N,)`` particle masses.
    leaf_size:
        Split cells holding more particles than this.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`; construction then
        opens ``morton_sort`` and ``tree_refine`` sub-spans.
    """
    tr = as_tracer(tracer)
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    mass = np.ascontiguousarray(mass, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"pos must have shape (N, 3), got {pos.shape}")
    if mass.shape != (pos.shape[0],):
        raise ValueError("mass must have shape (N,) matching pos")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    n = pos.shape[0]
    if n == 0:
        raise ValueError("cannot build a tree over zero particles")

    corner, size = morton.bounding_cube(pos)

    with tr.span("morton_sort", n_particles=n):
        keys = morton.morton_keys(pos, corner, size)
        order = np.argsort(keys, kind="stable").astype(np.int64)
        keys = keys[order]
        pos_s = pos[order]
        mass_s = mass[order]

    refine_span = tr.span("tree_refine")
    refine_span.__enter__()

    # growable per-cell lists; chunks are concatenated at the end
    levels = [np.zeros(1, dtype=np.int8)]
    prefixes = [np.zeros(1, dtype=np.uint64)]
    starts = [np.zeros(1, dtype=np.int64)]
    counts = [np.full(1, n, dtype=np.int64)]
    parents = [np.full(1, -1, dtype=np.int32)]

    n_cells = 1
    active_ids = np.zeros(1, dtype=np.int64)
    active_start = np.zeros(1, dtype=np.int64)
    active_count = np.full(1, n, dtype=np.int64)

    child_links = []  # (parent_id, octant, child_id) triplets per level

    for level in range(1, morton.MAX_LEVEL + 1):
        split = active_count > leaf_size
        if not np.any(split):
            break
        sid = active_ids[split]
        sstart = active_start[split]
        scount = active_count[split]

        idx = ragged_arange(sstart, scount)
        pref = morton.cell_prefix(keys[idx], level)
        seg = np.repeat(np.arange(len(sid)), scount)

        boundary = np.empty(len(idx), dtype=bool)
        boundary[0] = True
        boundary[1:] = (pref[1:] != pref[:-1]) | (seg[1:] != seg[:-1])
        bpos = np.flatnonzero(boundary)

        c_start = idx[bpos]
        c_count = np.diff(np.append(bpos, len(idx)))
        c_prefix = pref[bpos]
        c_parent = sid[seg[bpos]].astype(np.int32)
        c_octant = (c_prefix & np.uint64(7)).astype(np.int64)

        # coincident particles (one shared key) make a single-child
        # chain; the level loop ends it at MAX_LEVEL
        k = len(c_start)
        c_ids = np.arange(n_cells, n_cells + k, dtype=np.int64)
        n_cells += k

        levels.append(np.full(k, level, dtype=np.int8))
        prefixes.append(c_prefix)
        starts.append(c_start)
        counts.append(c_count)
        parents.append(c_parent)
        child_links.append((c_parent, c_octant, c_ids))

        active_ids = c_ids
        active_start = c_start
        active_count = c_count

    level_arr = np.concatenate(levels)
    prefix_arr = np.concatenate(prefixes)
    start_arr = np.concatenate(starts)
    count_arr = np.concatenate(counts)
    parent_arr = np.concatenate(parents)

    child_arr = np.full((n_cells, 8), -1, dtype=np.int32)
    for c_parent, c_octant, c_ids in child_links:
        child_arr[c_parent, c_octant] = c_ids
    is_leaf = np.all(child_arr < 0, axis=1)

    # geometry, computed level by level (levels share their half-size)
    center_arr = np.empty((n_cells, 3), dtype=np.float64)
    half_arr = np.empty(n_cells, dtype=np.float64)
    for lv in range(int(level_arr.max()) + 1):
        at = np.flatnonzero(level_arr == lv)
        if len(at) == 0:
            continue
        ctr, hlf = _cell_geometry(prefix_arr[at], lv, corner, size)
        center_arr[at] = ctr
        half_arr[at] = hlf

    refine_span.set(n_cells=n_cells,
                    depth=int(level_arr.max())).__exit__(None, None, None)
    return Octree(
        corner=corner, size=size,
        order=order, keys=keys, pos_sorted=pos_s, mass_sorted=mass_s,
        level=level_arr, prefix=prefix_arr, start=start_arr,
        count=count_arr, parent=parent_arr, child=child_arr,
        is_leaf=is_leaf, center=center_arr, half=half_arr,
        leaf_size=leaf_size,
    )
