"""Engine equivalence: pipeline results must match the in-process sweep.

The contract under test: for any worker count the pipeline engine is
*bit-identical* to ``engine=None`` on both bundled backends (every
sink's arithmetic is independent of which ``eval_lists`` call evaluates
it, and every sink owns a disjoint output slice), the backend's
counters are engine-independent, and ``model_seconds`` is the same
number at every worker count (shard boundaries do not depend on
``workers``) -- with the native kernel and with the reference loop.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import TreeCode
from repro.core.kernels import Float64Backend, ForceBackend, cnative
from repro.exec import EngineError, PipelineEngine
from repro.grape import GrapeBackend
from repro.obs import MetricsRegistry
from repro.sim.models import plummer_model

WORKERS = (1, 2, 4)
BACKENDS = {"host": Float64Backend, "grape": GrapeBackend}


@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(42)
    pos, _, mass = plummer_model(1500, rng)
    return pos, mass


def _forces(pos, mass, *, backend=None, engine=None, n_crit=64,
            metrics=None):
    tc = TreeCode(theta=0.75, n_crit=n_crit, backend=backend,
                  engine=engine, metrics=metrics)
    try:
        acc, pot = tc.accelerations(pos, mass, 0.01)
        return acc, pot, tc.last_stats
    finally:
        tc.close()


def _assert_engine_contract(pos, mass, make_backend, workers=WORKERS):
    """acc/pot/counters at each worker count against ``engine=None``."""
    ref = make_backend()
    a0, p0, s0 = _forces(pos, mass, backend=ref)
    assert ref.interactions > 0
    model_seconds = set()
    for w in workers:
        be = make_backend()
        a1, p1, s1 = _forces(pos, mass, backend=be,
                             engine=PipelineEngine(workers=w))
        assert np.array_equal(a0, a1) and np.array_equal(p0, p1), w
        assert s0.total_interactions == s1.total_interactions
        assert s0.n_groups == s1.n_groups
        assert be.interactions == ref.interactions
        if isinstance(be, GrapeBackend):
            assert be.system.n_calls == ref.system.n_calls
            assert be.model_seconds == pytest.approx(ref.model_seconds,
                                                     rel=1e-12, abs=0)
            model_seconds.add(be.model_seconds)
    assert len(model_seconds) <= 1, model_seconds


class TestFloat64Equivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_pipeline_bit_identical(self, cloud, workers):
        _assert_engine_contract(*cloud, Float64Backend, (workers,))

    def test_pipeline_bit_identical_10k(self):
        """The acceptance-criterion scale: >= 10k particles."""
        rng = np.random.default_rng(1999)
        pos, _, mass = plummer_model(10_000, rng)
        a0, p0, s0 = _forces(pos, mass, n_crit=256)
        a1, p1, s1 = _forces(pos, mass, n_crit=256,
                             engine=PipelineEngine(workers=2))
        assert np.array_equal(a0, a1)
        assert np.array_equal(p0, p1)
        assert s0.total_interactions == s1.total_interactions

    def test_interaction_stats_aggregate_exactly(self, cloud):
        pos, mass = cloud
        be0, be1 = Float64Backend(), Float64Backend()
        _forces(pos, mass, backend=be0)
        _forces(pos, mass, backend=be1,
                engine=PipelineEngine(workers=2))
        assert be1.interactions == be0.interactions > 0


class TestGrapeEquivalence:
    def test_pipeline_matches_serial_grape(self, cloud):
        pos, mass = cloud
        a0, p0, _ = _forces(pos, mass, backend=GrapeBackend())
        a1, p1, _ = _forces(pos, mass, backend=GrapeBackend(),
                            engine=PipelineEngine(workers=2))
        # identical call stream through the deterministic emulator
        assert np.array_equal(a0, a1) and np.array_equal(p0, p1)
        # and, a fortiori, inside the paper's error envelope vs float64
        ref = _forces(pos, mass)[0]
        rel = (np.linalg.norm(a1 - ref, axis=1)
               / np.linalg.norm(ref, axis=1))
        assert np.median(rel) < 0.003

    def test_grape_counters_aggregate_exactly(self, cloud):
        """n_calls / interactions exact, model_seconds identical at
        workers 1/2/4 and within 1e-12 of the in-process sweep."""
        _assert_engine_contract(*cloud, GrapeBackend)


class TestReferenceLoop:
    """The same matrix with no native kernel: ``eval_lists`` is then
    the base-class loop, which stages every force call in the board's
    j-memory -- the reason each shard runs on a private backend."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_contract_holds_without_native_kernel(self, backend,
                                                  monkeypatch):
        monkeypatch.setattr(cnative, "load", lambda: None)
        rng = np.random.default_rng(43)
        pos, _, mass = plummer_model(400, rng)
        _assert_engine_contract(pos, mass, BACKENDS[backend])


class TestEngineLifecycle:
    def test_reuse_across_sweeps(self, cloud):
        pos, mass = cloud
        rng = np.random.default_rng(5)
        pos2, _, mass2 = plummer_model(800, rng)
        with PipelineEngine(workers=2) as eng:
            # one engine, two TreeCodes: the pool outlives each solver
            # (closing a TreeCode would close its engine, so don't)
            tc1 = TreeCode(theta=0.75, n_crit=64, engine=eng)
            a1, _ = tc1.accelerations(pos, mass, 0.01)
            tc2 = TreeCode(theta=0.75, n_crit=64, engine=eng)
            a2, _ = tc2.accelerations(pos2, mass2, 0.01)
        r1, _, _ = _forces(pos, mass)
        r2, _, _ = _forces(pos2, mass2)
        assert np.array_equal(a1, r1) and np.array_equal(a2, r2)

    def test_closed_engine_rejects_work(self, cloud):
        pos, mass = cloud
        eng = PipelineEngine(workers=1)
        eng.close()
        with pytest.raises(EngineError):
            _forces(pos, mass, engine=eng)
        with pytest.raises(EngineError):
            eng.prewarm(Float64Backend())

    def test_close_is_idempotent(self):
        eng = PipelineEngine(workers=1)
        eng.close()
        eng.close()

    def test_non_parallel_safe_backend_rejected(self, cloud):
        """A backend with no ``worker_factory()`` cannot give shards
        private instances: refused by ``prewarm`` and ``evaluate``."""
        pos, mass = cloud

        class HostOnly(ForceBackend):
            name = "host-only"

            def compute(self, xi, xj, mj, eps):
                return Float64Backend().compute(xi, xj, mj, eps)

        with PipelineEngine(workers=1) as eng:
            assert eng.prewarm(GrapeBackend()) is eng
            with pytest.raises(EngineError):
                eng.prewarm(HostOnly())
            with pytest.raises(EngineError):
                _forces(pos, mass, backend=HostOnly(), engine=eng)

    def test_workers_validated(self):
        with pytest.raises(EngineError):
            PipelineEngine(workers=0)

    def test_constructor_surface(self):
        """Four knobs; the process-era ones are gone, not ignored."""
        for retired in ("batch_nj", "shards_per_worker", "start_method",
                        "batch_timeout", "retry_backoff", "degrade"):
            with pytest.raises(TypeError):
                PipelineEngine(workers=1, **{retired: 1})

    def test_shard_error_is_an_engine_error(self, cloud):
        """Anything ``eval_lists`` raises surfaces as the typed
        EngineError, and the engine serves the next sweep."""
        pos, mass = cloud

        class Broken(Float64Backend):
            def worker_factory(self):
                return (Broken, (), {})

            def eval_lists(self, *args):
                raise ZeroDivisionError("boom")

        with PipelineEngine(workers=2) as eng:
            tc = TreeCode(theta=0.75, n_crit=64, backend=Broken(),
                          engine=eng)
            with pytest.raises(EngineError, match="ZeroDivisionError"):
                tc.accelerations(pos, mass, 0.01)
            ok = TreeCode(theta=0.75, n_crit=64, engine=eng)
            acc, _ = ok.accelerations(pos, mass, 0.01)
        assert np.array_equal(acc, _forces(pos, mass)[0])


class TestNoLeftovers:
    def test_close_leaves_no_thread_or_process(self, cloud):
        pos, mass = cloud
        before = set(threading.enumerate())
        eng = PipelineEngine(workers=4)
        _forces(pos, mass, engine=eng)   # TreeCode.close() closes it
        assert set(threading.enumerate()) == before
        assert multiprocessing.active_children() == []

    def test_import_pulls_in_no_process_machinery(self):
        """Fresh interpreter: ``repro.exec`` is threads only."""
        code = ("import sys, repro.exec; "
                "bad = [m for m in ('multiprocessing.shared_memory', "
                "'multiprocessing.resource_tracker') if m in sys.modules]; "
                "sys.exit(repr(bad) if bad else 0)")
        env = dict(os.environ, PYTHONPATH=str(
            Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestObservability:
    def test_exec_metrics_recorded(self, cloud):
        pos, mass = cloud
        reg = MetricsRegistry()
        with PipelineEngine(workers=2) as eng:
            _forces(pos, mass, engine=eng, metrics=reg)
        assert reg.value("exec.sweeps") == 1
        assert reg.value("exec.batches") >= 1
        assert reg.value("exec.workers") == 2
        assert reg.value("exec.worker_busy_seconds") > 0

    def test_simulation_context_manager(self, cloud):
        from repro.sim import Simulation
        pos, mass = cloud
        vel = np.zeros_like(pos)
        force = TreeCode(n_crit=64, engine=PipelineEngine(workers=1))
        with Simulation(pos=pos, vel=vel, mass=mass, eps=0.01,
                        force=force) as sim:
            rec = sim.step(1e-4)
            assert rec.interactions > 0
