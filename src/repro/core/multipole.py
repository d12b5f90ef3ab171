"""Multipole moments of octree cells.

The treecode the paper runs (Barnes–Hut with Barnes' 1990 modification,
as implemented for GRAPE in Makino 1991) uses **monopole-only** cell
approximations: the force from a well-separated cell is the force from a
point mass at the cell's center of mass.  This matches the GRAPE-5
hardware, whose pipelines evaluate exactly the softened point-mass
kernel -- a cell expansion beyond the monopole could not be offloaded.

Because every cell is a contiguous slice of the Morton-sorted particle
arrays, all moments are computed with prefix sums: for any per-particle
quantity ``w``, the cell sum is ``W[start+count] - W[start]`` where ``W``
is the exclusive cumulative sum.  This is O(N + C) with no Python loop.
"""

from __future__ import annotations

import numpy as np

from .octree import Octree

__all__ = ["compute_moments", "cell_sums"]

def cell_sums(tree: Octree, values: np.ndarray) -> np.ndarray:
    """Sum an arbitrary per-particle quantity over every cell.

    ``values`` has shape ``(N,)`` or ``(N, k)`` *in Morton-sorted order*;
    the result has shape ``(C,)`` or ``(C, k)``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != tree.n_particles:
        raise ValueError("values must have one row per particle")
    csum = np.zeros((tree.n_particles + 1,) + values.shape[1:], dtype=np.float64)
    np.cumsum(values, axis=0, out=csum[1:])
    s = tree.start
    e = tree.start + tree.count
    return csum[e] - csum[s]


def compute_moments(tree: Octree) -> Octree:
    """Fill ``tree.mass``, ``tree.com`` and ``tree.rmax`` in place and
    return the tree.

    ``rmax`` is an upper bound on the distance from the center of mass to
    any particle in the cell (the distance to the farthest cube corner);
    the traversal uses it for the group acceptance criterion.
    """
    m = tree.mass_sorted
    x = tree.pos_sorted

    cmass = cell_sums(tree, m)
    if np.any(cmass <= 0.0):
        # Zero-mass cells would make the center of mass undefined; fall
        # back to the geometric center for those (they exert no force).
        safe = np.where(cmass > 0.0, cmass, 1.0)
    else:
        safe = cmass
    mom1 = cell_sums(tree, m[:, None] * x)
    com = mom1 / safe[:, None]
    com = np.where((cmass > 0.0)[:, None], com, tree.center)

    # farthest cube corner from the center of mass
    d = np.abs(com - tree.center) + tree.half[:, None]
    rmax = np.sqrt(np.sum(d * d, axis=1))

    tree.mass = cmass
    tree.com = com
    tree.rmax = rmax
    return tree
