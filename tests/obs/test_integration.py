"""End-to-end observability: a short run produces a coherent span tree
and metrics that agree with the simulation's own accounting."""

import numpy as np
import pytest

from repro.core import TreeCode
from repro.grape import GrapeBackend
from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import phase_totals, run_summary
from repro.sim.models import plummer_model
from repro.sim.simulation import Simulation


@pytest.fixture
def traced_run(rng):
    pos, vel, mass = plummer_model(512, rng)
    tracer, registry = Tracer(), MetricsRegistry()
    backend = GrapeBackend().bind_metrics(registry)
    force = TreeCode(theta=0.75, n_crit=64, backend=backend,
                     tracer=tracer, metrics=registry)
    sim = Simulation(pos=pos, vel=vel, mass=mass, eps=0.01, force=force,
                     G=1.0, tracer=tracer, metrics=registry)
    sim.run([1e-3] * 3)
    return sim, tracer, registry


class TestSpanTree:
    def test_one_root_per_step(self, traced_run):
        sim, tracer, _ = traced_run
        steps = [r for r in tracer.roots if r.name == "step"]
        assert len(steps) == len(sim.history) == 3

    def test_phases_nest_under_steps(self, traced_run):
        _, tracer, _ = traced_run
        step = [r for r in tracer.roots if r.name == "step"][-1]
        names = {s.name for s in step.walk()}
        assert {"tree_build", "morton_sort", "tree_refine", "moments",
                "group", "traverse", "eval", "grape_force",
                "host_direct"} <= names

    def test_phase_times_sum_to_step_wall(self, traced_run):
        """The acceptance check: per-phase self times partition each
        step's wall time, and the recorded StepRecord wall agrees with
        the span to within 5%."""
        sim, tracer, _ = traced_run
        steps = [r for r in tracer.roots if r.name == "step"]
        for rec, span in zip(sim.history, steps):
            self_sum = sum(s.self_seconds for s in span.walk())
            assert self_sum == pytest.approx(span.duration, rel=1e-9)
            assert span.duration == pytest.approx(rec.wall_seconds,
                                                  rel=0.05, abs=2e-3)

    def test_step_record_phase_view(self, traced_run):
        sim, _, _ = traced_run
        rec = sim.history[-1]
        assert {"build", "group", "traverse", "eval", "kernel",
                "host_direct"} <= set(rec.phases)
        assert rec.phases["eval"] <= rec.wall_seconds * 1.05
        assert (rec.phases["kernel"] + rec.phases["host_direct"]
                == pytest.approx(rec.phases["eval"], rel=0.2, abs=1e-3))


class TestMetricsAgreement:
    def test_interactions_match_history(self, traced_run):
        sim, _, registry = traced_run
        assert (registry.value("sim.interactions_total")
                == sim.total_interactions)

    def test_tree_counts_include_priming_eval(self, traced_run):
        sim, _, registry = traced_run
        # KDK priming costs one extra force evaluation before step 1
        assert registry.value("tree.force_evals") == len(sim.history) + 1
        assert (registry.value("tree.interactions_total")
                >= registry.value("sim.interactions_total"))

    def test_grape_counters_match_backend(self, traced_run):
        sim, _, registry = traced_run
        system = sim.force.backend.system
        assert registry.value("grape.force_calls") == system.n_calls
        assert (registry.value("grape.interactions_total")
                == system.interactions)
        assert (registry.value("grape.model_seconds")
                == pytest.approx(system.model_seconds))

    def test_list_length_histogram_populated(self, traced_run):
        sim, _, registry = traced_run
        h = registry.get("tree.list_length")
        assert h.count > 0
        assert h.vmax >= h.mean >= 1.0

    def test_run_summary_agrees(self, traced_run):
        sim, tracer, registry = traced_run
        s = run_summary(registry, tracer=tracer)
        assert s["interactions"] == sim.total_interactions
        assert s["steps"] == 3
        assert s["n_particles"] == 512
        assert s["wall_seconds"] == pytest.approx(
            sum(r.wall_seconds for r in sim.history), rel=1e-6)
        assert "step" in s["phases"]


class TestDisabledTracing:
    def test_null_tracer_collects_nothing(self, rng):
        pos, vel, mass = plummer_model(256, rng)
        sim = Simulation(pos=pos, vel=vel, mass=mass, eps=0.01, G=1.0)
        sim.run([1e-3] * 2)
        assert list(sim.tracer.iter_spans()) == []
        assert sim.history[-1].phases  # times still recorded via stats

    def test_phase_totals_empty(self):
        assert phase_totals(Tracer()) == {}
