"""Periodic-box cosmology validation (extension substrates together).

These tests close the loop over three substrates -- the Ewald periodic
force solver, the comoving-coordinate leapfrog, and the Friedmann
background -- with the two canonical checks of any cosmological
N-body code:

1. an unperturbed lattice stays exactly on the lattice in comoving
   coordinates (the expanding universe is an equilibrium), and
2. a small plane-wave perturbation grows with the linear growth
   factor, ``A(a) / A(a_i) = D(a) / D(a_i)`` (= ``a/a_i`` for the
   paper's EdS background).
"""

import numpy as np
import pytest

from repro.cosmo.cosmology import SCDM
from repro.cosmo.ewald import PeriodicDirectSummation
from repro.cosmo.units import G as G_ASTRO
from repro.sim.integrator import ComovingLeapfrog

BOX = 10.0     # comoving Mpc
NGRID = 6      # 216 particles


def _lattice():
    edge = (np.arange(NGRID) + 0.5) * (BOX / NGRID)
    gx, gy, gz = np.meshgrid(edge, edge, edge, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)


@pytest.fixture(scope="module")
def periodic_force():
    solver = PeriodicDirectSummation(box=BOX)
    rho = SCDM.mean_matter_density()
    m_eff = np.full(NGRID**3, G_ASTRO * rho * BOX**3 / NGRID**3)
    eps = 0.05 * BOX / NGRID

    def force(x):
        return solver.accelerations(np.mod(x, BOX), m_eff, eps)

    return force


class TestComovingEquilibrium:
    def test_lattice_is_static_in_comoving_coords(self, periodic_force):
        q = _lattice()
        mom = np.zeros_like(q)
        lf = ComovingLeapfrog(cosmology=SCDM)
        t = SCDM.age(24.0)
        x = q.copy()
        for _ in range(5):
            dt = 0.2 * t
            x, mom = lf.step(x, mom, t, dt, periodic_force)
            t += dt
        # residual motion only from table-interpolation force noise
        assert np.abs(x - q).max() < 1e-3 * (BOX / NGRID)


class TestLinearGrowth:
    def test_plane_wave_grows_with_d(self, periodic_force):
        """Zel'dovich mode: displacement along x with one wavelength
        per box.  From z = 24 to z = 9, EdS growth is a factor 2.5."""
        z_i, z_f = 24.0, 9.0
        a_i = 1.0 / (1.0 + z_i)
        q = _lattice()
        k = 2.0 * np.pi / BOX
        amp0 = 0.01 * BOX / NGRID     # deeply linear
        disp = amp0 * np.sin(k * q[:, 0])
        x = q.copy()
        x[:, 0] += disp
        # EdS growing mode: comoving velocity ddisp/dt = H(a) * disp,
        # canonical momentum p = a^2 dx/dt
        h_i = float(SCDM.H(a_i))
        mom = np.zeros_like(q)
        mom[:, 0] = a_i**2 * h_i * disp

        lf = ComovingLeapfrog(cosmology=SCDM)
        t = SCDM.age(z_i)
        t_end = SCDM.age(z_f)
        n_steps = 40
        dt = (t_end - t) / n_steps
        for _ in range(n_steps):
            x, mom = lf.step(x, mom, t, dt, periodic_force)
            t += dt

        # project the displacement back onto the initial mode
        final = x[:, 0] - q[:, 0]
        basis = np.sin(k * q[:, 0])
        amp1 = final @ basis / (basis @ basis)
        growth = amp1 / amp0
        expect = float(SCDM.growth_factor(z_f)
                       / SCDM.growth_factor(z_i))
        assert growth == pytest.approx(expect, rel=0.05)
        # transverse directions stay clean
        assert np.abs(x[:, 1:] - q[:, 1:]).max() < 0.02 * amp0 * 25 + 1e-4

    def test_decaying_mode_without_velocity(self, periodic_force):
        """Displacement with zero initial velocity mixes growing and
        decaying modes: growth is slower than the pure growing mode
        (3/5 D + 2/5 decaying for EdS)."""
        z_i, z_f = 24.0, 9.0
        q = _lattice()
        k = 2.0 * np.pi / BOX
        amp0 = 0.01 * BOX / NGRID
        x = q.copy()
        x[:, 0] += amp0 * np.sin(k * q[:, 0])
        mom = np.zeros_like(q)

        lf = ComovingLeapfrog(cosmology=SCDM)
        t = SCDM.age(z_i)
        dt = (SCDM.age(z_f) - t) / 40
        for _ in range(40):
            x, mom = lf.step(x, mom, t, dt, periodic_force)
            t += dt
        basis = np.sin(k * q[:, 0])
        amp1 = (x[:, 0] - q[:, 0]) @ basis / (basis @ basis)
        pure = float(SCDM.growth_factor(z_f) / SCDM.growth_factor(z_i))
        # EdS: A(t)/A0 = (3/5) D + (2/5) (a/a_i)^(-3/2)
        a_ratio = (1 + z_i) / (1 + z_f)
        mixed = 0.6 * pure + 0.4 * a_ratio**-1.5
        assert amp1 / amp0 == pytest.approx(mixed, rel=0.08)
        assert amp1 / amp0 < pure
