"""Cosmological dynamics on the paper's own path.

The paper evolves an isolated sphere in physical coordinates: the
expansion lives in the initial Hubble-flow velocities and the
integrator is the plain Newtonian leapfrog.  These two checks run that
path end to end -- ``SphereRegion`` -> ``Simulation.from_sphere`` on a
default ``TreeCode`` -> ``run_schedule`` from z = 24 -- with the two
canonical tests of a cosmological N-body code:

1. an unperturbed lattice sphere at the critical density expands with
   the background, ``|x| = a(t) |q|`` (Hubble-flow equilibrium), and
2. a small plane-wave displacement grows with the linear growth
   factor, ``A(a) / A(a_i) = D(a) / D(a_i)`` (= ``a / a_i`` for the
   paper's Einstein--de Sitter background).
"""

import numpy as np
import pytest

from repro.core import TreeCode
from repro.cosmo import SCDM, SphereRegion, lattice_positions
from repro.sim import Simulation
from repro.sim.recipes import run_schedule

BOX, NGRID, RADIUS = 20.0, 16, 10.0     # comoving Mpc; 2,176 particles
SPACING = BOX / NGRID
Z_INIT, Z_FINAL, STEPS = 24.0, 9.0, 24
WAVELENGTH = 8.0                        # comoving Mpc
AMP0 = 0.01 * SPACING                   # deeply linear


def _evolve(with_wave):
    """Lattice sphere ``q`` and its comoving positions at ``Z_FINAL``."""
    q = lattice_positions(NGRID, BOX) - 0.5 * BOX
    q = q[np.einsum("ij,ij->i", q, q) <= RADIUS * RADIUS]
    a_i = float(SCDM.a_of_z(Z_INIT))
    h_i = float(SCDM.H(a_i))
    disp = np.zeros(len(q))
    if with_wave:
        disp = AMP0 * np.sin(2.0 * np.pi / WAVELENGTH * q[:, 0])
    x = q.copy()
    x[:, 0] += disp
    pos = a_i * x
    vel = h_i * pos
    # EdS growing mode: peculiar velocity a H f disp with f = 1
    vel[:, 0] += a_i * h_i * disp
    mass = SCDM.mean_matter_density() * SPACING**3
    region = SphereRegion(pos=pos, vel=vel, mass=np.full(len(q), mass),
                          radius_comoving=RADIUS, z_init=Z_INIT)
    with Simulation.from_sphere(region, force=TreeCode()) as sim:
        sim.t = SCDM.age(Z_INIT)
        sim.run(run_schedule(z_init=Z_INIT, z_final=Z_FINAL,
                             steps=STEPS))
    return q, sim.pos / float(SCDM.a_of_z(Z_FINAL))


@pytest.fixture(scope="module")
def hubble_flow():
    return _evolve(with_wave=False)


def test_unperturbed_sphere_expands_with_the_background(hubble_flow):
    """Every interior particle keeps ``|x| / (a_f |q|)`` within 0.5 %
    of 1 (measured: median 0.9986, worst 0.18 %).  "Interior" skips the
    outer two lattice spacings, where the lattice's ragged edge is not
    a uniform sphere, and the inner half radius, where ``|q|`` is a few
    spacings and the ratio magnifies the tree's force error; there the
    displacement is held to 2 % of a spacing instead (measured 1.2 %).
    """
    q, x = hubble_flow
    r = np.linalg.norm(q, axis=1)
    ratio = np.linalg.norm(x, axis=1) / r
    interior = (r >= 0.5 * RADIUS) & (r <= RADIUS - 2.0 * SPACING)
    assert interior.sum() > 400
    assert np.abs(ratio[interior] - 1.0).max() < 0.005
    core = r < 0.5 * RADIUS
    assert np.linalg.norm(x[core] - q[core], axis=1).max() < 0.02 * SPACING


def test_plane_wave_grows_with_d(hubble_flow):
    """The x wave's amplitude over ``|q| < R/2`` -- measured against
    the unperturbed run, so the background's residual motion cancels
    -- grows by ``D(9) / D(24)`` = 2.5 within 5 % (measured 2.536)."""
    q, x0 = hubble_flow
    q1, x1 = _evolve(with_wave=True)
    assert np.array_equal(q, q1)
    core = np.linalg.norm(q, axis=1) < 0.5 * RADIUS
    basis = np.sin(2.0 * np.pi / WAVELENGTH * q[core, 0])
    amp = (x1[core, 0] - x0[core, 0]) @ basis / (basis @ basis)
    expect = float(SCDM.growth_factor(Z_FINAL)
                   / SCDM.growth_factor(Z_INIT))
    assert expect == pytest.approx(2.5)
    assert amp / AMP0 == pytest.approx(expect, rel=0.05)
