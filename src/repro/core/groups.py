"""Barnes' (1990) particle grouping.

The modified tree algorithm shares one interaction list among all
particles of a *group*.  Groups are tree cells holding at most
``n_crit`` particles, chosen maximal (their parent holds more than
``n_crit``).  The paper tunes the average group population ``n_g`` via
``n_crit``; for the GRAPE-5 / AlphaServer DS10 pairing the optimum is
around ``n_g ~ 2000`` (paper section 3, reproduced by experiment E3).

Because cell populations only shrink going down the tree, the predicate
``count <= n_crit`` is monotone along any root-to-leaf path, so the
groups are exactly the cells where the predicate first becomes true.
That makes the selection a single vectorised mask -- no recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octree import Octree

__all__ = ["GroupSet", "make_groups"]


@dataclass
class GroupSet:
    """The sinks of a modified-tree traversal.

    Groups are stored in ascending ``start`` order, so together they tile
    the Morton-sorted particle range ``[0, N)`` exactly once.

    Attributes
    ----------
    cell:
        ``(G,)`` octree cell id of each group.
    center:
        ``(G, 3)`` bounding-sphere center (the cell's geometric center).
    radius:
        ``(G,)`` bounding-sphere radius, tight over the member particles.
    start, count:
        Slices into the tree's Morton-sorted particle arrays.
    n_crit:
        The threshold the groups were built with.
    """

    cell: np.ndarray
    center: np.ndarray
    radius: np.ndarray
    start: np.ndarray
    count: np.ndarray
    n_crit: int

    @property
    def n_groups(self) -> int:
        return int(self.cell.shape[0])

    @property
    def mean_size(self) -> float:
        """Average particles per group (the paper's ``n_g``)."""
        return float(self.count.mean())

    def members(self, g: int, tree: Octree) -> np.ndarray:
        """Original particle indices of group ``g``."""
        s, n = int(self.start[g]), int(self.count[g])
        return tree.order[s:s + n]


def make_groups(tree: Octree, n_crit: int) -> GroupSet:
    """Partition the tree's particles into Barnes groups.

    Every particle belongs to exactly one group.  A leaf that exceeds
    ``n_crit`` (possible only for particles coincident at the finest grid
    level) becomes a group of its own: it cannot be subdivided further.
    """
    if n_crit < 1:
        raise ValueError(f"n_crit must be >= 1, got {n_crit}")

    small = (tree.count <= n_crit) | tree.is_leaf
    parent = tree.parent
    first = small.copy()
    nonroot = parent >= 0
    first[nonroot] &= ~small[parent[nonroot]]
    # root qualifies iff it is itself small (then it is the only group)
    gcells = np.flatnonzero(first)
    # order groups by their particle slice so they tile [0, N) in order
    gcells = gcells[np.argsort(tree.start[gcells], kind="stable")]

    centers = tree.center[gcells]
    starts = tree.start[gcells]
    counts = tree.count[gcells]

    # Tight bounding radius per group: the groups tile the sorted
    # particles in order, so each is one contiguous segment to reduce
    d = tree.pos_sorted - np.repeat(centers, counts, axis=0)
    radius = np.maximum.reduceat(np.sqrt(np.einsum("ij,ij->i", d, d)),
                                 starts)

    return GroupSet(cell=gcells.astype(np.int64), center=centers,
                    radius=radius, start=starts, count=counts,
                    n_crit=int(n_crit))
