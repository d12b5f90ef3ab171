"""Density-profile and NFW-fit tests."""

import numpy as np
import pytest

from repro.analysis.profile import (NFWProfile, fit_nfw,
                                    radial_density_profile)
from repro.sim.models import plummer_model, uniform_sphere


def _sample_nfw(n, rs, rng, r_max_factor=20.0):
    """Sample radii from an NFW profile by inverse-CDF interpolation."""
    x_grid = np.geomspace(1e-3, r_max_factor, 4096)
    m_grid = np.log1p(x_grid) - x_grid / (1.0 + x_grid)
    m_grid /= m_grid[-1]
    u = rng.uniform(0, 1, n)
    x = np.interp(u, m_grid, x_grid)
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return (rs * x)[:, None] * v


class TestRadialProfile:
    def test_uniform_sphere_flat(self, rng):
        pos, _, mass = uniform_sphere(40000, rng, radius=1.0)
        r, rho, cnt = radial_density_profile(pos, mass, np.zeros(3),
                                             r_min=0.2, r_max=0.95,
                                             bins=8)
        expect = 1.0 / (4.0 / 3.0 * np.pi)
        ok = cnt > 100
        assert np.allclose(rho[ok], expect, rtol=0.1)

    def test_plummer_core_and_falloff(self, rng):
        pos, _, mass = plummer_model(40000, rng)
        r, rho, cnt = radial_density_profile(pos, mass, np.zeros(3),
                                             r_min=0.05, r_max=10.0,
                                             bins=16)
        # analytic: rho = (3/4pi) (1+r^2)^(-5/2)
        expect = 3.0 / (4.0 * np.pi) * (1.0 + r**2) ** -2.5
        ok = cnt > 200
        assert np.allclose(rho[ok], expect[ok], rtol=0.2)

    def test_counts_sum(self, rng):
        pos, _, mass = uniform_sphere(1000, rng)
        _, _, cnt = radial_density_profile(pos, mass, np.zeros(3),
                                           r_min=1e-3, r_max=1.1)
        assert cnt.sum() <= 1000
        assert cnt.sum() > 900  # nearly all radii inside the range

    def test_validation(self, rng):
        pos, _, mass = uniform_sphere(100, rng)
        with pytest.raises(ValueError):
            radial_density_profile(pos, mass, bins=1)
        with pytest.raises(ValueError):
            radial_density_profile(pos, mass, r_min=1.0, r_max=0.5)
        with pytest.raises(ValueError):
            radial_density_profile(pos[:, :2], mass)


class TestNFW:
    def test_profile_shape(self):
        nfw = NFWProfile(rho_s=1.0, r_s=2.0)
        # inner slope -1: rho(0.02)/rho(0.04) ~ 2
        assert nfw(0.02) / nfw(0.04) == pytest.approx(2.0, rel=0.05)
        # outer slope -3
        assert nfw(200.0) / nfw(400.0) == pytest.approx(8.0, rel=0.05)

    def test_concentration(self):
        nfw = NFWProfile(rho_s=1.0, r_s=0.1)
        assert nfw.concentration(1.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            nfw.concentration(0.0)

    def test_fit_recovers_sampled_halo(self, rng):
        rs_true = 0.5
        pos = _sample_nfw(60000, rs_true, rng)
        mass = np.full(len(pos), 1.0 / len(pos))
        r, rho, cnt = radial_density_profile(pos, mass, np.zeros(3),
                                             r_min=0.02, r_max=5.0,
                                             bins=20)
        fit = fit_nfw(r, rho, weights=cnt)
        assert fit.r_s == pytest.approx(rs_true, rel=0.15)

    def test_fit_exact_profile(self):
        truth = NFWProfile(rho_s=3.0, r_s=0.7)
        r = np.geomspace(0.05, 10, 30)
        fit = fit_nfw(r, truth(r))
        assert fit.rho_s == pytest.approx(3.0, rel=1e-5)
        assert fit.r_s == pytest.approx(0.7, rel=1e-5)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_nfw(np.array([1.0, 2.0]), np.array([1.0, np.nan]))
