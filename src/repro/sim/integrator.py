"""Time integrators.

The paper's treecode advances particles with a leapfrog -- the standard
choice for collisionless N-body work then and now: second order,
symplectic for constant steps, and requiring exactly **one force
evaluation per step**, which is the quantity the paper's operation
counts are built on (999 steps -> 999 tree builds and force sweeps).

Two variants:

* :class:`LeapfrogKDK` -- kick-drift-kick in physical coordinates.
  The isolated-sphere workload integrates plain Newtonian motion in
  physical coordinates (the expansion lives in the initial Hubble-flow
  velocities), so this is the paper-faithful driver.
* :class:`ComovingLeapfrog` -- KDK in comoving coordinates with
  cosmological kick/drift factors, provided for periodic-box workloads
  (extension; exercised by ablation tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
from scipy import integrate

from ..cosmo.cosmology import Cosmology

__all__ = ["ForceFunction", "LeapfrogKDK", "ComovingLeapfrog"]

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


@dataclass
class ComovingLeapfrog:
    """KDK leapfrog in comoving coordinates (periodic-box extension).

    Integrates ``dx/dt = v / a``, ``dv/dt = -grad(phi)/a`` where ``x``
    is comoving, ``v = a^2 dx/dt`` the canonical momentum per mass and
    ``phi`` the comoving-density potential; the kick and drift factors

        K(t1, t2) = Int dt / a,   D(t1, t2) = Int dt / a^2

    are evaluated by quadrature of the background expansion (Quinn et
    al. 1997 operators).  Forces are evaluated with comoving positions;
    as for :class:`LeapfrogKDK`, the provider is passed per call.
    """

    cosmology: Cosmology
    _acc: np.ndarray = None
    _pot: np.ndarray = None

    def _factor(self, t1: float, t2: float, power: int) -> float:
        val, _ = integrate.quad(
            lambda t: self.cosmology.a_of_t(t) ** (-power), t1, t2,
            limit=200)
        return val

    def kick_factor(self, t1: float, t2: float) -> float:
        return self._factor(t1, t2, 1)

    def drift_factor(self, t1: float, t2: float) -> float:
        return self._factor(t1, t2, 2)

    def prime(self, pos: np.ndarray, force: ForceFunction) -> None:
        self._acc, self._pot = force(pos)

    def step(self, pos: np.ndarray, mom: np.ndarray, t: float, dt: float,
             force: ForceFunction) -> Tuple[np.ndarray, np.ndarray]:
        """One comoving KDK step from ``t`` to ``t + dt``."""
        if self._acc is None:
            self.prime(pos, force)
        tm = t + 0.5 * dt
        p_half = mom + self.kick_factor(t, tm) * self._acc
        x_new = pos + self.drift_factor(t, t + dt) * p_half
        self._acc, self._pot = force(x_new)
        p_new = p_half + self.kick_factor(tm, t + dt) * self._acc
        return x_new, p_new
