"""Cosmological workload substrate (COSMICS substitute).

Builds the paper's initial conditions from first principles: a BBKS
standard-CDM power spectrum normalised to sigma_8, a Gaussian random
realisation on a periodic mesh, Zel'dovich displacements, and the
selection of a comoving sphere (the paper's 50 Mpc region at z = 24),
which is then evolved as an isolated system.

Typical use::

    from repro.cosmo import PowerSpectrum, ZeldovichIC, carve_sphere

    ic = ZeldovichIC(box=100.0, ngrid=64, seed=7)
    region = carve_sphere(ic, radius=50.0, z_init=24.0)
    # region.pos [Mpc], region.vel [km/s], region.mass [M_sun]
"""

from .correlation import (correlation_function, pair_counts,
                          power_law_fit, sphere_rr)
from .cosmology import Cosmology, SCDM
from .massfunction import DELTA_C, PressSchechter
from .gaussian import (displacement_field, gaussian_density_field,
                       grid_wavenumbers)
from .power import PowerSpectrum, bbks_transfer
from .sphere import SphereRegion, carve_sphere
from .units import G, GYR_PER_TIME_UNIT, RHO_CRIT_H100, Units
from .zeldovich import ZeldovichIC, lattice_positions

__all__ = [
    "correlation_function", "pair_counts", "power_law_fit", "sphere_rr",
    "DELTA_C", "PressSchechter", "Cosmology", "SCDM",
    "displacement_field", "gaussian_density_field", "grid_wavenumbers",
    "PowerSpectrum", "bbks_transfer", "SphereRegion", "carve_sphere",
    "G", "GYR_PER_TIME_UNIT", "RHO_CRIT_H100", "Units",
    "ZeldovichIC", "lattice_positions",
]
