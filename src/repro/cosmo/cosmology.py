"""Friedmann background cosmology.

The paper's run is a **standard cold dark matter** (SCDM) model -- the
default of the COSMICS package it used for initial conditions:
Omega_m = 1, Omega_Lambda = 0, h = 0.5.  For SCDM (Einstein--de Sitter)
everything is analytic: ``a(t) = (t/t0)^{2/3}``, ``t0 = 2/(3 H0)``, and
the linear growth factor is ``D(a) = a``.

The class below implements the general flat-or-curved
matter + cosmological-constant background so the substrate also covers
modern parameter choices (used in ablations); analytic fast paths kick
in for Einstein--de Sitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Cosmology", "SCDM"]


@dataclass(frozen=True)
class Cosmology:
    """Homogeneous background model.

    Parameters
    ----------
    h:
        Dimensionless Hubble constant, ``H0 = 100 h`` km/s/Mpc.
    omega_m, omega_l:
        Present-day matter and cosmological-constant densities in units
        of critical.  Curvature fills the remainder.
    """

    h: float = 0.5
    omega_m: float = 1.0
    omega_l: float = 0.0

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.omega_m <= 0:
            raise ValueError("omega_m must be positive")

    # ------------------------------------------------------------------
    @property
    def H0(self) -> float:
        """Hubble constant in km/s/Mpc (= inverse code time units)."""
        return 100.0 * self.h

    @property
    def omega_k(self) -> float:
        return 1.0 - self.omega_m - self.omega_l

    @property
    def is_eds(self) -> bool:
        """True for Einstein--de Sitter (the paper's SCDM background)."""
        return (abs(self.omega_m - 1.0) < 1e-12
                and abs(self.omega_l) < 1e-12)

    # ------------------------------------------------------------------
    def E(self, a):
        """Dimensionless expansion rate: ``H(a) = H0 E(a)``."""
        a = np.asarray(a, dtype=np.float64)
        return np.sqrt(self.omega_m / a**3 + self.omega_k / a**2
                       + self.omega_l)

    def H(self, a):
        """Hubble rate at scale factor ``a`` in km/s/Mpc."""
        return self.H0 * self.E(a)

    @staticmethod
    def a_of_z(z):
        return 1.0 / (1.0 + np.asarray(z, dtype=np.float64))

    @staticmethod
    def z_of_a(a):
        return 1.0 / np.asarray(a, dtype=np.float64) - 1.0

    # ------------------------------------------------------------------
    def age(self, z: float = 0.0) -> float:
        """Cosmic time at redshift ``z`` in code units (Mpc/(km/s)).

        EdS: ``t = (2 / 3 H0) a^{3/2}``; otherwise quadrature of
        ``dt = da / (a H)``.
        """
        a = float(self.a_of_z(z))
        if self.is_eds:
            return 2.0 / (3.0 * self.H0) * a**1.5
        from scipy import integrate
        val, _ = integrate.quad(lambda x: 1.0 / (x * self.H0 * float(self.E(x))),
                                0.0, a, limit=200)
        return val

    def a_of_t(self, t: float) -> float:
        """Scale factor at cosmic time ``t`` (code units).

        Analytic for EdS; bisection on :meth:`age` otherwise.
        """
        if t <= 0:
            raise ValueError("t must be positive")
        if self.is_eds:
            t0 = 2.0 / (3.0 * self.H0)
            return (t / t0) ** (2.0 / 3.0)
        lo, hi = 1e-8, 16.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.age(self.z_of_a(mid)) < t:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # ------------------------------------------------------------------
    def growth_factor(self, z) -> np.ndarray:
        """Linear growth factor ``D(z)`` normalised to ``D(0) = 1``.

        EdS: ``D = a``.  General matter+Lambda: the Heath integral
        ``D(a) propto H(a) * Int_0^a da' / (a' H(a'))^3``.
        """
        z = np.asarray(z, dtype=np.float64)
        a = self.a_of_z(z)
        if self.is_eds:
            return a
        from scipy import integrate

        def unnorm(av: float) -> float:
            integrand = lambda x: 1.0 / (x * float(self.E(x))) ** 3
            val, _ = integrate.quad(integrand, 1e-8, av, limit=200)
            return float(self.E(av)) * val

        d1 = unnorm(1.0)
        flat = np.atleast_1d(a)
        out = np.array([unnorm(float(av)) / d1 for av in flat])
        return out.reshape(z.shape) if z.shape else np.float64(out[0])

    def growth_rate(self, z) -> np.ndarray:
        """``f = dlnD/dlna``; exactly 1 for EdS, else Omega_m(a)^0.55."""
        z = np.asarray(z, dtype=np.float64)
        if self.is_eds:
            return np.ones_like(z) if z.shape else np.float64(1.0)
        a = self.a_of_z(z)
        om_a = self.omega_m / (a**3 * self.E(a) ** 2)
        return om_a**0.55

    # ------------------------------------------------------------------
    def mean_matter_density(self) -> float:
        """Comoving mean matter density in M_sun / Mpc^3."""
        from .units import RHO_CRIT_H100
        return self.omega_m * RHO_CRIT_H100 * (self.h) ** 2


#: The paper's background: standard CDM, h = 0.5.
SCDM = Cosmology(h=0.5, omega_m=1.0, omega_l=0.0)
