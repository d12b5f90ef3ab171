"""End-to-end: a miniature of the paper's whole experiment, from
initial conditions through the GRAPE-backed treecode run to the
price/performance report."""

import numpy as np
import pytest

from repro.core import TreeCode
from repro.cosmo import SCDM, ZeldovichIC, carve_sphere
from repro.grape import GrapeBackend
from repro.perf.opcount import original_interaction_count
from repro.perf.report import HeadlineReport
from repro.sim import Simulation, paper_schedule, slab
from repro.viz import surface_density


@pytest.fixture(scope="module")
def mini_run():
    """A tiny end-to-end paper run: N ~ 900, 8 steps z = 24 -> 4."""
    ic = ZeldovichIC(box=100.0, ngrid=12, seed=17)
    region = carve_sphere(ic, radius=50.0, z_init=24.0)
    backend = GrapeBackend()
    sim = Simulation.from_sphere(
        region, force=TreeCode(theta=0.8, n_crit=64, backend=backend))
    sim.t = SCDM.age(24.0)
    sim.run(paper_schedule(SCDM, 24.0, 4.0, 8))
    return sim, backend


class TestMiniPaperRun:
    def test_run_completes_with_stats(self, mini_run):
        sim, backend = mini_run
        assert len(sim.history) == 8
        assert sim.total_interactions > 0
        assert backend.model_seconds > 0

    def test_positions_remain_finite(self, mini_run):
        sim, _ = mini_run
        assert np.all(np.isfinite(sim.pos))
        assert np.all(np.isfinite(sim.vel))

    def test_headline_report_constructible(self, mini_run):
        """The full section-5 accounting works on a scaled live run."""
        sim, backend = mini_run
        orig_per_step = original_interaction_count(
            sim.pos, sim.mass, theta=0.8)
        report = HeadlineReport(
            n_particles=sim.n_particles,
            n_steps=len(sim.history),
            modified_interactions=float(sim.total_interactions),
            original_interactions=orig_per_step * len(sim.history),
            wall_seconds=max(backend.model_seconds, 1e-9),
        )
        row = report.as_row("mini")
        assert report.overhead_ratio > 1.0
        assert report.raw_gflops > report.effective_gflops
        assert row["usd"] == pytest.approx(40_870, rel=1e-2)

    def test_figure4_pipeline(self, mini_run):
        """Snapshot -> slab -> surface density, the figure-4 chain."""
        sim, _ = mini_run
        extent = float(np.abs(sim.pos).max())
        xy = slab(sim.pos, width=1.8 * extent, thickness=0.1 * extent)
        assert len(xy) > 0
        h = surface_density(xy, width=1.8 * extent, bins=32)
        assert h.sum() == len(xy)


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run():
            ic = ZeldovichIC(box=100.0, ngrid=8, seed=5)
            region = carve_sphere(ic, radius=50.0, z_init=24.0)
            sim = Simulation.from_sphere(
                region, force=TreeCode(theta=0.8, n_crit=32))
            sim.t = SCDM.age(24.0)
            sim.run(paper_schedule(SCDM, 24.0, 9.0, 3))
            return sim.pos

        assert np.array_equal(run(), run())
