"""Simulation-driver tests."""

import numpy as np
import pytest

from repro.core import DirectSummation, TreeCode
from repro.cosmo.cosmology import SCDM
from repro.cosmo.sphere import carve_sphere
from repro.cosmo.zeldovich import ZeldovichIC
from repro.sim.models import plummer_model
from repro.sim.simulation import Simulation
from repro.sim.timestep import paper_schedule


@pytest.fixture
def small_plummer(rng):
    pos, vel, mass = plummer_model(300, rng)
    # G = 1 code units for the isolated model
    return Simulation(pos=pos, vel=vel, mass=mass, eps=0.02, G=1.0,
                      force=DirectSummation())


class TestBasics:
    def test_energy_conserved_isolated(self, small_plummer):
        sim = small_plummer
        _, _, e0 = sim.energies()
        for _ in range(50):
            sim.step(0.005)
        _, _, e1 = sim.energies()
        assert abs(e1 - e0) / abs(e0) < 5e-3

    def test_virial_plummer(self, small_plummer):
        """A sampled equilibrium Plummer starts near virial: -2K/W ~ 1."""
        k, w, _ = small_plummer.energies()
        assert -2.0 * k / w == pytest.approx(1.0, abs=0.15)

    def test_momentum_drift_small(self, small_plummer):
        sim = small_plummer
        p0 = sim.momentum()
        for _ in range(20):
            sim.step(0.01)
        drift = np.linalg.norm(sim.momentum() - p0)
        scale = np.sum(sim.mass * np.linalg.norm(sim.vel, axis=1))
        assert drift < 1e-8 * scale  # direct forces are antisymmetric

    def test_history_recorded(self, small_plummer):
        sim = small_plummer
        sim.run([0.01] * 5)
        assert len(sim.history) == 5
        assert sim.history[-1].step == 5
        assert sim.t == pytest.approx(0.05)
        assert all(r.interactions == 300 * 300 for r in sim.history)

    def test_callback_invoked(self, small_plummer):
        seen = []
        small_plummer.run([0.01] * 3,
                          callback=lambda s, r: seen.append(r.step))
        assert seen == [1, 2, 3]

    def test_treecode_stats_flow_through(self, rng):
        pos, vel, mass = plummer_model(500, rng)
        sim = Simulation(pos=pos, vel=vel, mass=mass, eps=0.02, G=1.0,
                         force=TreeCode(theta=0.7, n_crit=64))
        sim.run([0.01] * 3)
        assert sim.total_interactions > 0
        assert sim.mean_list_length > 0
        assert sim.history[0].n_groups > 1

    def test_finished_run_is_freed_without_a_gc_pass(self, rng):
        """A Simulation is not a reference cycle (the integrator takes
        the force callable per call instead of holding a bound method),
        so a dead run's arrays go with its last reference."""
        import gc
        import weakref
        pos, vel, mass = plummer_model(64, rng)
        gc.collect()
        gc.disable()
        try:
            sim = Simulation(pos=pos, vel=vel, mass=mass, eps=0.02,
                             G=1.0)
            sim.run([0.01] * 2)
            sim._restore_from(sim)   # the second construction site
            sim.step(0.01)
            ref = weakref.ref(sim)
            del sim
            assert ref() is None
        finally:
            gc.enable()

    def test_validation(self, rng):
        pos, vel, mass = plummer_model(10, rng)
        with pytest.raises(ValueError):
            Simulation(pos=pos, vel=vel[:5], mass=mass, eps=0.1)
        with pytest.raises(ValueError):
            Simulation(pos=pos, vel=vel, mass=mass[:5], eps=0.1)
        with pytest.raises(ValueError):
            Simulation(pos=pos, vel=vel, mass=mass, eps=-1.0)


class TestCosmologicalSphere:
    def test_from_sphere_and_expansion(self):
        """A short scaled paper run: the sphere must expand (Hubble
        flow) and develop structure (interaction lists lengthen)."""
        ic = ZeldovichIC(box=100.0, ngrid=12, seed=3)
        region = carve_sphere(ic, radius=50.0, z_init=24.0)
        sim = Simulation.from_sphere(
            region, force=TreeCode(theta=0.8, n_crit=64))
        sim.t = SCDM.age(24.0)
        r0 = np.median(np.linalg.norm(sim.pos, axis=1))
        sim.run(paper_schedule(SCDM, 24.0, 4.0, 10))
        r1 = np.median(np.linalg.norm(sim.pos, axis=1))
        assert r1 > 2.0 * r0  # a grows 5x from z=24 to z=4

    def test_default_eps_reasonable(self):
        ic = ZeldovichIC(box=100.0, ngrid=10, seed=3)
        region = carve_sphere(ic, radius=50.0, z_init=24.0)
        sim = Simulation.from_sphere(region)
        # a few percent of the interparticle spacing at z=24 (~0.4 Mpc
        # physical for this loading)
        assert 0.001 < sim.eps < 0.2
