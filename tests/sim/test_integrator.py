"""Integrator tests: order, energy behaviour, closed-form orbits."""

import numpy as np
import pytest

from repro.sim.integrator import LeapfrogKDK


def _kepler_force(m_central=1.0):
    def force(pos):
        r2 = np.einsum("ij,ij->i", pos, pos)
        rinv3 = r2 ** -1.5
        return -m_central * pos * rinv3[:, None], -m_central / np.sqrt(r2)
    return force


class TestLeapfrogKDK:
    def test_circular_orbit_period(self):
        """Unit circular orbit: after one period 2*pi the particle must
        return to its start (second-order accurate)."""
        lf, force = LeapfrogKDK(), _kepler_force()
        pos = np.array([[1.0, 0.0, 0.0]])
        vel = np.array([[0.0, 1.0, 0.0]])
        n = 2000
        dt = 2.0 * np.pi / n
        for _ in range(n):
            pos, vel = lf.step(pos, vel, dt, force)
        assert np.linalg.norm(pos[0] - [1.0, 0.0, 0.0]) < 2e-3

    def test_energy_conservation_eccentric(self):
        """Energy error stays bounded over many orbits (symplectic)."""
        lf, force = LeapfrogKDK(), _kepler_force()
        pos = np.array([[1.0, 0.0, 0.0]])
        vel = np.array([[0.0, 0.7, 0.0]])  # eccentric

        def energy(p, v):
            return 0.5 * np.sum(v**2) - 1.0 / np.linalg.norm(p)

        e0 = energy(pos, vel)
        errs = []
        for _ in range(4000):
            pos, vel = lf.step(pos, vel, 0.002, force)
            errs.append(abs(energy(pos, vel) - e0) / abs(e0))
        assert max(errs) < 5e-3

    def test_second_order_convergence(self):
        """Halving dt must reduce the position error ~4x."""
        def run(n):
            lf, force = LeapfrogKDK(), _kepler_force()
            pos = np.array([[1.0, 0.0, 0.0]])
            vel = np.array([[0.0, 1.0, 0.0]])
            dt = 1.0 / n
            for _ in range(n):
                pos, vel = lf.step(pos, vel, dt, force)
            return pos[0]

        ref = np.array([np.cos(1.0), np.sin(1.0), 0.0])
        e1 = np.linalg.norm(run(100) - ref)
        e2 = np.linalg.norm(run(200) - ref)
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_one_force_eval_per_step(self):
        calls = []

        def force(pos):
            calls.append(1)
            return np.zeros_like(pos), np.zeros(len(pos))

        lf = LeapfrogKDK()
        pos = np.zeros((3, 3))
        vel = np.zeros((3, 3))
        for _ in range(10):
            pos, vel = lf.step(pos, vel, 0.1, force)
        # 1 priming call + 1 per step
        assert sum(calls) == 11

    def test_free_particle_drifts(self):
        def force(pos):
            return np.zeros_like(pos), np.zeros(len(pos))
        lf = LeapfrogKDK()
        pos = np.zeros((1, 3))
        vel = np.array([[1.0, 2.0, 3.0]])
        pos, vel = lf.step(pos, vel, 0.5, force)
        assert np.allclose(pos, [[0.5, 1.0, 1.5]])

    def test_potentials_exposed(self):
        lf = LeapfrogKDK()
        with pytest.raises(RuntimeError):
            lf.potentials
        lf.prime(np.array([[1.0, 0.0, 0.0]]), _kepler_force())
        assert lf.potentials[0] == pytest.approx(-1.0)

