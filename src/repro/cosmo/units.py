"""Unit system for the cosmological workload.

The paper's simulation is quoted in astronomer's units: the sphere has
a 50 Mpc radius and each particle carries 1.7e10 solar masses.  We keep
those units internally:

* length  -- megaparsec (Mpc)
* velocity -- km/s
* mass    -- solar mass (M_sun)
* time    -- Mpc / (km/s)  (~977.8 Gyr), so H0 in km/s/Mpc is directly
  an inverse time.

In these units Newton's constant is ``G = 4.300917e-9
Mpc (km/s)^2 / M_sun``.  The force kernels assume G = 1, so drivers
multiply source masses by :data:`G` before handing them to a
:class:`~repro.core.treecode.TreeCode` (see
:class:`repro.sim.simulation.Simulation`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["G", "MPC_KM", "SEC_PER_TIME_UNIT", "GYR_PER_TIME_UNIT",
           "RHO_CRIT_H100", "Units"]

#: Newton's constant in Mpc (km/s)^2 / M_sun.
G = 4.300917270e-9

#: Kilometres per megaparsec.
MPC_KM = 3.0856775814913673e19

#: Seconds per code time unit (Mpc / (km/s)).
SEC_PER_TIME_UNIT = MPC_KM  # km / (km/s) = s

#: Gigayears per code time unit.
GYR_PER_TIME_UNIT = SEC_PER_TIME_UNIT / (1e9 * 365.25 * 86400.0)

#: Critical density for H0 = 100 km/s/Mpc, in M_sun / Mpc^3:
#: rho_crit = 3 H0^2 / (8 pi G).
RHO_CRIT_H100 = 3.0 * 100.0**2 / (8.0 * 3.141592653589793 * G)


@dataclass(frozen=True)
class Units:
    """Named bundle of the conversion constants (for discoverability)."""

    length: str = "Mpc"
    velocity: str = "km/s"
    mass: str = "M_sun"
    time: str = "Mpc/(km/s)"
    G: float = G

    def rho_crit(self, h0: float) -> float:
        """Critical density in M_sun/Mpc^3 for H0 in km/s/Mpc."""
        return RHO_CRIT_H100 * (h0 / 100.0) ** 2
