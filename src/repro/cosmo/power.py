"""CDM linear power spectrum (BBKS transfer function).

COSMICS -- the package the paper used for initial conditions -- solves
the linearised Boltzmann equations; its "standard CDM" output is, to a
couple of percent, the classic Bardeen, Bond, Kaiser & Szalay (1986)
fitting form implemented here.  That level of fidelity is ample: the
paper's result is a performance number, and what the IC spectrum must
get right is the *shape* of clustering (small-scale power that drives
deep trees and long interaction lists).

Conventions: wavenumbers in Mpc^-1 (not h/Mpc), P(k) in Mpc^3, and the
spectrum is the linear one extrapolated to z = 0 where the growth
factor is 1; amplitude is fixed by sigma_8, the RMS top-hat density
fluctuation in spheres of radius 8/h Mpc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cosmology import Cosmology, SCDM

__all__ = ["bbks_transfer", "PowerSpectrum"]


def bbks_transfer(q: np.ndarray) -> np.ndarray:
    """BBKS CDM transfer function of ``q = k / (Gamma h Mpc^-1)``."""
    q = np.asarray(q, dtype=np.float64)
    q = np.maximum(q, 1e-30)
    return (np.log(1.0 + 2.34 * q) / (2.34 * q)
            * (1.0 + 3.89 * q + (16.1 * q) ** 2 + (5.46 * q) ** 3
               + (6.71 * q) ** 4) ** -0.25)


def _tophat_window(x: np.ndarray) -> np.ndarray:
    """Fourier transform of the spherical top-hat, W(x) = 3 j1(x)/x."""
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    w = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs**3
    return np.where(small, 1.0 - x**2 / 10.0, w)


@dataclass
class PowerSpectrum:
    """Linear CDM spectrum ``P(k) = A k^n T(k)^2`` normalised to sigma_8.

    Parameters
    ----------
    cosmology:
        Background model; sets the shape parameter
        ``Gamma = Omega_m h`` (0.5 for the paper's SCDM).
    n:
        Primordial spectral index (scale-invariant 1 for SCDM).
    sigma8:
        Normalisation; 0.6 is the cluster-abundance value used for
        SCDM simulations of the paper's era.
    """

    cosmology: Cosmology = field(default_factory=lambda: SCDM)
    n: float = 1.0
    sigma8: float = 0.6
    _amplitude: Optional[float] = field(default=None, repr=False)

    @property
    def gamma(self) -> float:
        """Shape parameter Omega_m h."""
        return self.cosmology.omega_m * self.cosmology.h

    # ------------------------------------------------------------------
    def _unnormalized(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=np.float64)
        # q = k[Mpc^-1] / (Gamma h): BBKS q = k / (Gamma h Mpc^-1) with
        # k in h/Mpc; converting k to Mpc^-1 divides by one more h.
        q = k / (self.gamma * self.cosmology.h)
        return np.where(k > 0.0, k**self.n * bbks_transfer(q) ** 2, 0.0)

    def sigma_r_unnormalized(self, r: float) -> float:
        """RMS top-hat fluctuation for amplitude A = 1: a composite
        Gauss--Legendre rule in ln k over [ln 1e-5, ln 1e3], 64 equal
        panels of 16 nodes (many small rules, because ``leggauss(n)`` is
        an n x n eigenproblem), within 2e-7 of a converged reference."""
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(math.log(1e-5), math.log(1e3), 65)
        half = 0.5 * np.diff(edges)[:, None]
        k = np.exp(0.5 * (edges[1:] + edges[:-1])[:, None] + half * x)
        f = k**3 * self._unnormalized(k) * _tophat_window(k * r) ** 2
        return math.sqrt(float(np.sum(half * w * f)) / (2.0 * math.pi**2))

    @property
    def amplitude(self) -> float:
        """Normalisation constant A fixing sigma(8/h Mpc) = sigma8."""
        if self._amplitude is None:
            s8 = self.sigma_r_unnormalized(8.0 / self.cosmology.h)
            self._amplitude = (self.sigma8 / s8) ** 2
        return self._amplitude

    # ------------------------------------------------------------------
    def __call__(self, k: np.ndarray) -> np.ndarray:
        """Linear z = 0 power P(k) [Mpc^3] at k [Mpc^-1]."""
        return self.amplitude * self._unnormalized(k)

    def sigma_r(self, r: float) -> float:
        """RMS top-hat density fluctuation in spheres of radius r [Mpc]."""
        return math.sqrt(self.amplitude) * self.sigma_r_unnormalized(r)
