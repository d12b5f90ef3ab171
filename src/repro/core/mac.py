"""Multipole acceptance criteria (MACs).

A MAC decides, during tree traversal, whether the monopole of a cell may
stand in for the individual forces of its particles.  All criteria here
are *vectorised over sink/cell pairs*: :meth:`MAC.accept` receives whole
arrays describing the candidate pairs and returns a boolean mask.

Sinks are described by a center and a radius.  In the **original**
Barnes–Hut algorithm the sink is a single particle (radius 0); in
**Barnes' (1990) modified algorithm** -- the variant the paper runs on
GRAPE-5 -- the sink is a whole particle group, and the criterion must
hold for the worst-placed particle in the group, i.e. at distance
``d_min = |com_cell - center_group| - r_group``.

The classic opening-angle criterion with the center-of-mass offset term
(``delta``) is what Barnes' vectorised treecode and Makino's GRAPE
implementation use; the offset term removes the "detonating galaxy"
pathology of the plain ``l/d < theta`` test when a cell's center of mass
sits far from its geometric center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .octree import Octree

__all__ = ["MAC", "BarnesHutMAC", "AbsoluteErrorMAC"]


class MAC:
    """Interface for acceptance criteria."""

    def accept(self, tree: Octree, cells: np.ndarray,
               sink_center: np.ndarray, sink_radius: np.ndarray) -> np.ndarray:
        """Return a boolean mask: True where the cell's monopole may be used.

        Parameters
        ----------
        tree:
            Octree with multipole moments computed.
        cells:
            ``(P,)`` candidate cell ids.
        sink_center:
            ``(P, 3)`` center of the sink (particle position or group
            bounding-sphere center) for each pair.
        sink_radius:
            ``(P,)`` sink bounding radius (0 for single particles).
        """
        raise NotImplementedError


def _pair_dmin(tree: Octree, cells: np.ndarray, sink_center: np.ndarray,
               sink_radius: np.ndarray) -> np.ndarray:
    """Lower bound on the distance from any sink point to the cell com.

    The squares are summed ``(x + z) + y``, the order ``np.einsum``
    takes, spelled out because the compiled tree walk repeats it."""
    x, y, z = (tree.com[cells] - sink_center).T
    return np.maximum(np.sqrt((x * x + z * z) + y * y) - sink_radius, 0.0)


@dataclass(frozen=True)
class BarnesHutMAC(MAC):
    """Opening-angle criterion ``l / theta + delta < d_min``.

    ``l`` is the cell edge length, ``delta`` the distance between the
    cell's geometric center and its center of mass, and ``d_min`` the
    worst-case sink distance defined above.  ``theta`` is the accuracy
    parameter; smaller values open more cells and reduce the force error.
    The paper's cosmological run corresponds to theta in the 0.5-1.0
    range typical for such simulations (the exact value is not quoted;
    the EXPERIMENTS harness reports sensitivity over this range).
    """

    theta: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.theta:
            raise ValueError(f"theta must be positive, got {self.theta}")

    def threshold(self, tree, cells=slice(None)):
        """The sink-independent half of the test, ``l / theta + delta``
        per cell (every cell by default): the compiled tree walk takes
        it once per sweep and computes only ``d_min`` per sink."""
        delta = tree.com[cells] - tree.center[cells]
        delta = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        return 2.0 * tree.half[cells] / self.theta + delta

    def accept(self, tree, cells, sink_center, sink_radius):
        return self.threshold(tree, cells) < _pair_dmin(
            tree, cells, sink_center, sink_radius)


@dataclass(frozen=True)
class AbsoluteErrorMAC(MAC):
    """Accept when the estimated monopole force error is below ``eps_abs``.

    Extension (Kawai & Makino 1999, the paper's ref. [17]): instead of a
    geometric opening angle, bound the *absolute* acceleration error of
    the monopole approximation by its leading tidal term,

        dF  <~  3 * M_cell * rmax^2 / d_min^4 ,

    and accept when that bound is below the tolerance.  Compared with the
    opening-angle MAC this concentrates work where it buys accuracy and
    produces a flatter error distribution; it is benchmarked as an
    ablation (not used on the paper's headline run).
    """

    eps_abs: float

    def __post_init__(self):
        if self.eps_abs <= 0.0:
            raise ValueError(f"eps_abs must be positive, got {self.eps_abs}")

    def accept(self, tree, cells, sink_center, sink_radius):
        dmin = _pair_dmin(tree, cells, sink_center, sink_radius)
        rmax = tree.rmax[cells]
        mass = tree.mass[cells]
        # guard d=0 (sink inside cell): never accept
        safe = np.where(dmin > 0.0, dmin, 1.0)
        err = 3.0 * mass * rmax**2 / safe**4
        return (dmin > 0.0) & (dmin > rmax) & (err < self.eps_abs)
