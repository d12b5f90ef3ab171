"""Power-spectrum tests: BBKS shape and sigma_8 normalisation."""

import math

import numpy as np
import pytest

from repro.cosmo.cosmology import Cosmology
from repro.cosmo.power import PowerSpectrum, _tophat_window, bbks_transfer


def _reference_sigma_unnormalized(ps, r):
    """The same integral by adaptive quadrature, converged: a purely
    relative tolerance (QUADPACK's default ``epsabs = 1.49e-8`` is 8 %
    of the 1.9e-7 sigma_8 integral and stops the refinement early)."""
    from scipy import integrate

    def integrand(lnk):
        k = math.exp(lnk)
        return (k**3 * float(ps._unnormalized(k))
                * float(_tophat_window(k * r)) ** 2 / (2.0 * math.pi**2))
    val, _ = integrate.quad(integrand, math.log(1e-5), math.log(1e3),
                            epsabs=0.0, epsrel=1e-12, limit=2000)
    return math.sqrt(val)


class TestSigma8Accuracy:
    """The fixed Gauss--Legendre rule against a converged reference."""

    @pytest.mark.parametrize("sigma8", [0.4, 0.6, 1.0])
    def test_amplitude(self, sigma8):
        ps = PowerSpectrum(sigma8=sigma8)
        ref = (sigma8 / _reference_sigma_unnormalized(
            ps, 8.0 / ps.cosmology.h)) ** 2
        assert ps.amplitude == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("r", [2.0, 8.0 / 0.5, 64.0])
    def test_sigma_r(self, r):
        ps = PowerSpectrum()
        ref = ps.sigma8 * (_reference_sigma_unnormalized(ps, r)
                           / _reference_sigma_unnormalized(
                               ps, 8.0 / ps.cosmology.h))
        assert ps.sigma_r(r) == pytest.approx(ref, rel=1e-6)


class TestBBKSTransfer:
    def test_unity_at_large_scales(self):
        assert float(bbks_transfer(np.array([1e-8]))[0]) == pytest.approx(
            1.0, abs=1e-4)

    def test_monotone_decreasing(self):
        q = np.geomspace(1e-4, 1e2, 200)
        t = bbks_transfer(q)
        assert np.all(np.diff(t) < 0)

    def test_small_scale_suppression(self):
        """T ~ ln(q)/q^2 asymptotically: strong suppression."""
        assert float(bbks_transfer(np.array([100.0]))[0]) < 1e-3

    def test_positive_everywhere(self):
        q = np.geomspace(1e-6, 1e4, 100)
        assert np.all(bbks_transfer(q) > 0)


class TestPowerSpectrum:
    def test_sigma8_normalisation(self):
        ps = PowerSpectrum(sigma8=0.6)
        assert ps.sigma_r(8.0 / ps.cosmology.h) == pytest.approx(0.6,
                                                                 rel=1e-6)

    def test_shape_parameter_scdm(self):
        assert PowerSpectrum().gamma == pytest.approx(0.5)

    def test_large_scale_slope(self):
        """P ~ k^n at small k (transfer -> 1)."""
        ps = PowerSpectrum(n=1.0)
        k = np.array([1e-5, 2e-5])
        p = ps(k)
        assert p[1] / p[0] == pytest.approx(2.0, rel=1e-2)

    def test_zero_k_is_zero(self):
        ps = PowerSpectrum()
        assert float(ps(np.array([0.0]))[0]) == 0.0

    def test_sigma_decreases_with_radius(self):
        ps = PowerSpectrum()
        assert ps.sigma_r(4.0) > ps.sigma_r(16.0) > ps.sigma_r(64.0)

    def test_amplitude_scales_with_sigma8_squared(self):
        a1 = PowerSpectrum(sigma8=0.5).amplitude
        a2 = PowerSpectrum(sigma8=1.0).amplitude
        assert a2 / a1 == pytest.approx(4.0, rel=1e-9)

    def test_peak_location_tracks_gamma(self):
        """Lower Gamma pushes the turnover to larger scales (smaller k):
        the classic shape-parameter effect."""
        k = np.geomspace(1e-4, 10, 600)
        scdm = PowerSpectrum()
        lcdm = PowerSpectrum(
            cosmology=Cosmology(h=0.7, omega_m=0.3, omega_l=0.7))
        k_peak_scdm = k[np.argmax(scdm(k))]
        k_peak_lcdm = k[np.argmax(lcdm(k))]
        assert k_peak_lcdm < k_peak_scdm
