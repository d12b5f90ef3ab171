"""O(N^2) direct summation -- the exact reference the treecode is
measured against.

The paper's accuracy statements (section 2: "average error of the force
in our simulation is around 0.1%, ... dominated by the approximation
made in the tree algorithm") are all relative to direct summation, and
the paper's scaling motivation (section 1) is the O(N^2) cost of this
very computation.  Experiments E2, E7 and E8 use this module.

The sink loop is tiled so memory stays bounded while every tile is a
single broadcast kernel call (one fault-sited force call, all of them
charged at the end); any :class:`~repro.core.kernels.ForceBackend`
can supply the kernel, so direct summation can also be run *through the
GRAPE-5 emulator* (which is how the real machine is used for small-N
work, with the whole particle set as every sink's source list).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from .kernels import (DEFAULT_TILE, Float64Backend, ForceBackend,
                      self_potential_correction)

__all__ = ["direct_accelerations", "DirectSummation"]


def direct_accelerations(pos: np.ndarray, mass: np.ndarray, eps: float = 0.0,
                         *, backend: Optional[ForceBackend] = None,
                         tile: int = DEFAULT_TILE
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact (up to backend arithmetic) accelerations and potentials.

    The self-interaction is excluded: it contributes no acceleration
    under Plummer softening and its potential term is subtracted.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("pos must have shape (N, 3)")
    if mass.shape != (pos.shape[0],):
        raise ValueError("mass must have shape (N,)")
    if backend is None:
        backend = Float64Backend(tile=tile)

    n = pos.shape[0]
    acc = np.empty((n, 3), dtype=np.float64)
    pot = np.empty(n, dtype=np.float64)
    step = max(1, int(tile) // max(n, 1))
    starts = np.arange(0, n, step)
    for i0 in starts:
        rows = slice(i0, i0 + step)
        acc[rows], pot[rows] = backend.force_call(
            lambda: backend.kernel(pos[rows], pos, mass, eps))
    # priced like a sweep with one sink per tile, each listing all n
    # sources
    backend.charge(SimpleNamespace(sink_count=np.minimum(step, n - starts)),
                   np.full(starts.size, n))
    pot += self_potential_correction(mass, eps)
    return acc, pot


class DirectSummation:
    """Class-style wrapper matching :class:`repro.core.treecode.TreeCode`.

    Lets the simulation driver and the benchmark harness switch between
    the tree and the O(N^2) baseline through one interface.
    """

    def __init__(self, *, backend: Optional[ForceBackend] = None,
                 tile: int = DEFAULT_TILE) -> None:
        self.backend = backend if backend is not None else Float64Backend(tile=tile)
        self.tile = tile
        self.last_stats = None

    def accelerations(self, pos: np.ndarray, mass: np.ndarray,
                      eps: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
        """Accelerations and potentials by direct summation."""
        n = np.asarray(pos).shape[0]
        acc, pot = direct_accelerations(pos, mass, eps,
                                        backend=self.backend, tile=self.tile)
        # Interactions include the self pair, as on the real hardware.
        self.last_stats = {"n_particles": n, "interactions": n * n,
                           "algorithm": "direct"}
        return acc, pot
