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
The compiled ``repro_moments`` sums in particle order as ``np.cumsum``
does, so it gives :func:`cell_sums`' bits; the NumPy body is its
oracle and the path without a compiler.
"""

from __future__ import annotations

import numpy as np

from .kernels import batch
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
    native = batch.moments(tree)
    if native is not None:
        cmass, com = native
    else:
        m = tree.mass_sorted
        cmass = cell_sums(tree, m)
        # a zero-mass cell has no center of mass; it takes the
        # geometric center (it exerts no force)
        safe = np.where(cmass > 0.0, cmass, 1.0)
        com = cell_sums(tree, m[:, None] * tree.pos_sorted) / safe[:, None]
        com = np.where((cmass > 0.0)[:, None], com, tree.center)

    # farthest cube corner from the center of mass
    d = np.abs(com - tree.center) + tree.half[:, None]
    rmax = np.sqrt(np.sum(d * d, axis=1))

    tree.mass = cmass
    tree.com = com
    tree.rmax = rmax
    return tree
