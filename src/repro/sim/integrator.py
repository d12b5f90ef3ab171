"""The time integrator.

The paper's treecode advances particles with a leapfrog -- the standard
choice for collisionless N-body work then and now: second order,
symplectic for constant steps, and requiring exactly **one force
evaluation per step**, which is the quantity the paper's operation
counts are built on (999 steps -> 999 tree builds and force sweeps).

:class:`LeapfrogKDK` is kick-drift-kick in physical coordinates.  The
isolated-sphere workload integrates plain Newtonian motion in physical
coordinates (the expansion lives in the initial Hubble-flow
velocities), so no cosmological kick/drift factors appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

__all__ = ["ForceFunction", "LeapfrogKDK"]

#: Signature of a force provider: positions -> (accelerations, potentials).
ForceFunction = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


@dataclass
class LeapfrogKDK:
    """Kick--drift--kick leapfrog in physical coordinates.

    The object is stateless between calls except for caching the last
    accelerations, so that each :meth:`step` costs a single force
    evaluation (the closing half-kick of step ``n`` reuses the force
    that opens step ``n+1``).  The force provider is an argument of
    every call, not a field: an owner that integrates over one of its
    own bound methods (:class:`~repro.sim.simulation.Simulation` does)
    would otherwise be a reference cycle, and a finished run's arrays
    would outlive it until a gc pass.
    """

    _acc: np.ndarray = None
    _pot: np.ndarray = None

    def prime(self, pos: np.ndarray, force: ForceFunction) -> None:
        """Evaluate the initial force (once, before the first step)."""
        self._acc, self._pot = force(pos)

    @property
    def potentials(self) -> np.ndarray:
        """Per-particle potentials from the most recent evaluation."""
        if self._pot is None:
            raise RuntimeError("no force evaluated yet; call prime()")
        return self._pot

    def step(self, pos: np.ndarray, vel: np.ndarray, dt: float,
             force: ForceFunction) -> Tuple[np.ndarray, np.ndarray]:
        """Advance one step of size ``dt``; returns new (pos, vel).

        Exactly one force evaluation (at the new positions).
        """
        if self._acc is None:
            self.prime(pos, force)
        v_half = vel + 0.5 * dt * self._acc
        x_new = pos + dt * v_half
        self._acc, self._pot = force(x_new)
        v_new = v_half + 0.5 * dt * self._acc
        return x_new, v_new
