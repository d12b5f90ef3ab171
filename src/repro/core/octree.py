"""Linear octree construction from Morton-sorted particles.

The tree is stored as a structure of arrays (one attribute per property,
indexed by cell id) rather than as linked node objects: this is the layout
the vectorised traversal in :mod:`repro.core.traversal` needs, and it is
the Python analogue of the compact tree the paper's host code (Makino's
C++ treecode) builds on the AlphaServer.

Particles are sorted once by Morton key, after which every cell is a
contiguous slice of the sorted arrays.  The compiled ``repro_refine``
(or its NumPy oracle :func:`_refine`, one round per level) finds each
cell's level, slice and parent; every other per-cell array follows
from those four in one vectorised pass, on either path.

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
from .kernels import batch

__all__ = ["Octree", "build_octree", "ragged_arange"]


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` for each ``(s, c)`` pair.

    This is the standard vectorised "ragged range" trick: it gathers the
    particle indices of many contiguous cell slices in one shot without a
    Python loop: output slot ``k`` of a segment from slot ``o`` is
    ``k + s - o``."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    ends = np.cumsum(counts)
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - ends + counts, counts)


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


def _refine(keys: np.ndarray, leaf_size: int):
    """``repro_refine`` in NumPy, its oracle, one round per level.  Cells
    of one level have distinct key prefixes, so a prefix change alone
    marks where a cell of the next level begins."""
    cells = [(np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int64),
              np.full(1, len(keys), dtype=np.int64),
              np.full(1, -1, dtype=np.int32))]
    first = 0  # id of the last level's first cell
    for level in range(1, morton.MAX_LEVEL + 1):
        _, start, count, _ = cells[-1]
        split = np.flatnonzero(count > leaf_size)
        if not len(split):
            break
        idx = ragged_arange(start[split], count[split])
        pref = morton.cell_prefix(keys[idx], level)
        b = np.flatnonzero(np.append(True, pref[1:] != pref[:-1]))
        cells.append((np.full(len(b), level, dtype=np.int8), idx[b],
                      np.diff(np.append(b, len(idx))),
                      (first + np.repeat(split, count[split])[b]
                       ).astype(np.int32)))
        first += len(start)
    return [np.concatenate(a) for a in zip(*cells)]


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

    with tr.span("tree_refine") as sp:
        level, start, count, parent = (batch.refine(keys, leaf_size)
                                       or _refine(keys, leaf_size))
        # everything else per cell follows from those four arrays
        n_cells, lv = len(level), level.astype(np.int64)
        shift = (3 * (morton.MAX_LEVEL - lv)).astype(np.uint64)
        prefix = keys[start] >> shift
        child = np.full((n_cells, 8), -1, dtype=np.int32)
        child[parent[1:], (prefix[1:] & np.uint64(7)).astype(np.int64)] = \
            np.arange(1, n_cells, dtype=np.int32)
        is_leaf = np.bincount(parent[1:], minlength=n_cells) == 0
        # the lower corner on the finest grid, in units of the cell edge
        i = np.stack(morton.decode_grid(prefix << shift), axis=-1).astype(
            np.float64) / np.ldexp(1.0, morton.MAX_LEVEL - lv)[:, None]
        edge = size / np.ldexp(1.0, lv)
        center = corner + (i + 0.5) * edge[:, None]
        sp.set(n_cells=n_cells, depth=int(level.max()))
    return Octree(
        corner=corner, size=size,
        order=order, keys=keys, pos_sorted=pos_s, mass_sorted=mass_s,
        level=level, prefix=prefix, start=start, count=count,
        parent=parent, child=child, is_leaf=is_leaf, center=center,
        half=0.5 * edge,
        leaf_size=leaf_size,
    )
