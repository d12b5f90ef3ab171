"""The sweep contract: the shard cut is invisible.

Every ``TreeCode`` evaluates through the pipeline engine, so there is
no second path in ``src/`` to compare against.  The reference is the
seam itself: the finished sweep's sinks walked again, evaluated by
ONE ``eval_lists`` call on a fresh backend of the same class and
charged as the engine charges, made here.  For any worker count the
sweep must be *bit-identical* to that call on both bundled backends
(every sink's arithmetic is independent of which ``eval_lists`` call
evaluates it, and every sink owns a disjoint output slice), and the
backend's counters, ``model_seconds`` included, must be the very same
numbers: the engine charges the sweep once, with the same per-sink
arrays -- with the native kernel and with the reference loop.
"""

import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import TreeCode
from repro.core.kernels import Float64Backend, ForceBackend, cnative
from repro.exec import EngineError, PipelineEngine
from repro.grape import GrapeBackend
from repro.obs import MetricsRegistry
from repro.sim.models import plummer_model
from tests.conftest import sweep_lists, uncut_sweep

WORKERS = (1, 2, 4)
BACKENDS = {"host": Float64Backend, "grape": GrapeBackend}
EPS = 0.01


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
        acc, pot = tc.accelerations(pos, mass, EPS)
        return acc, pot, tc.last_stats
    finally:
        tc.close()


def _assert_engine_contract(pos, mass, make_backend, workers=WORKERS):
    """acc/pot/counters, ``model_seconds`` included, at each worker
    count equal to the one uncut call's."""
    model_seconds = set()
    for w in workers:
        be, ref = make_backend(), make_backend()
        tc = TreeCode(theta=0.75, n_crit=64, backend=be,
                      engine=PipelineEngine(workers=w))
        try:
            a1, p1 = tc.accelerations(pos, mass, EPS)
            a0, p0 = uncut_sweep(tc, ref, EPS)
        finally:
            tc.close()
        assert np.array_equal(a0, a1) and np.array_equal(p0, p1), w
        assert be.interactions == ref.interactions > 0
        if isinstance(be, GrapeBackend):
            assert be.system.n_calls == ref.system.n_calls
            assert be.model_seconds == ref.model_seconds
            model_seconds.add(be.model_seconds)
    assert len(model_seconds) <= 1, model_seconds


class OracleFloat64(Float64Backend):
    """Float64 arithmetic through the base-class loop only."""
    eval_lists = ForceBackend.eval_lists


class HostOnly(ForceBackend):
    """A third-party backend: the dense ``kernel()`` and nothing else.
    Records which threads called it, and how often."""

    name = "host-only"

    def __init__(self):
        self.threads = []

    def kernel(self, xi, xj, mj, eps):
        self.threads.append(threading.get_ident())
        return Float64Backend().kernel(xi, xj, mj, eps)


class TestFloat64Equivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_pipeline_bit_identical(self, cloud, workers):
        _assert_engine_contract(*cloud, Float64Backend, (workers,))

    def test_pipeline_bit_identical_10k(self):
        """The acceptance-criterion scale: >= 10k particles."""
        rng = np.random.default_rng(1999)
        pos, _, mass = plummer_model(10_000, rng)
        tc = TreeCode(theta=0.75, n_crit=256,
                      engine=PipelineEngine(workers=2))
        try:
            a1, p1 = tc.accelerations(pos, mass, EPS)
        finally:
            tc.close()
        ref = Float64Backend()
        a0, p0 = uncut_sweep(tc, ref, EPS)
        assert np.array_equal(a0, a1)
        assert np.array_equal(p0, p1)
        assert tc.last_stats.total_interactions == ref.interactions

    def test_pool_walks_under_thread_switch_stress(self, cloud):
        """More pool threads than cores walking one tree at once, with
        the interpreter switching threads every microsecond: every
        sweep still matches the uncut walk-and-evaluate bit for bit,
        and so do its per-sink lengths (a shard's walk shares only the
        read-only tree and its own thread's buffer hint)."""
        pos, mass = cloud
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tc = TreeCode(theta=0.75, n_crit=16,
                          engine=PipelineEngine(workers=8))
            try:
                for _ in range(3):
                    a1, p1 = tc.accelerations(pos, mass, EPS)
                    a0, p0 = uncut_sweep(tc, Float64Backend(), EPS)
                    assert np.array_equal(a0, a1)
                    assert np.array_equal(p0, p1)
                    lists, st = sweep_lists(tc), tc.last_stats
                    assert st.total_interactions == int(np.sum(
                        lists.list_lengths * tc.last_groups.count))
                    assert (st.cell_terms, st.part_terms) == (
                        lists.cell_off[-1], lists.part_off[-1])
            finally:
                tc.close()
        finally:
            sys.setswitchinterval(interval)

    def test_interaction_stats_aggregate_exactly(self, cloud):
        """What the backend was handed is what the tree counted, at
        any worker count."""
        pos, mass = cloud
        seen = set()
        for w in WORKERS:
            be = Float64Backend()
            _, _, stats = _forces(pos, mass, backend=be,
                                  engine=PipelineEngine(workers=w))
            assert be.interactions == stats.total_interactions > 0
            seen.add(be.interactions)
        assert len(seen) == 1


class TestGrapeEquivalence:
    def test_pipeline_matches_serial_grape(self, cloud):
        pos, mass = cloud
        a0, p0, _ = _forces(pos, mass, backend=GrapeBackend(),
                            engine=PipelineEngine(workers=1))
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
        """n_calls / interactions / model_seconds at workers 1/2/4
        equal to the one uncut call's."""
        _assert_engine_contract(*cloud, GrapeBackend)


class TestReferenceLoop:
    """The same matrix with no native kernel: ``eval_lists`` is then
    the base-class loop over the unpriced dense ``kernel``, run by
    several pool threads on the one instance."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_contract_holds_without_native_kernel(self, backend,
                                                  monkeypatch):
        monkeypatch.setattr(cnative, "load", lambda: None)
        rng = np.random.default_rng(43)
        pos, _, mass = plummer_model(400, rng)
        _assert_engine_contract(pos, mass, BACKENDS[backend])

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_one_instance_under_thread_switch_stress(self, backend,
                                                     monkeypatch):
        """More pool threads than cores running the reference loop on
        one shared instance, switching threads every microsecond: the
        bits and the counters still equal the one uncut call's."""
        monkeypatch.setattr(cnative, "load", lambda: None)
        pos, _, mass = plummer_model(4100, np.random.default_rng(44))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _assert_engine_contract(pos, mass, BACKENDS[backend], (8,))
        finally:
            sys.setswitchinterval(interval)


class ChargeSpy(GrapeBackend):
    """The GRAPE backend, logging every ``charge`` with its thread."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.charges = []

    def charge(self, spec, lengths):
        self.charges.append((threading.get_ident(),
                             np.array(spec.sink_count), np.array(lengths)))
        super().charge(spec, lengths)


class TestOneCharge:
    """A sweep is counted and priced once: on the submitting thread,
    with every sink's population and list length, after the whole
    sweep succeeded."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_charge_runs_once_per_sweep_on_the_submitting_thread(
            self, cloud, workers):
        pos, mass = cloud
        be, reg = ChargeSpy(), MetricsRegistry()
        tc = TreeCode(theta=0.75, n_crit=64, backend=be, metrics=reg,
                      engine=PipelineEngine(workers=workers))
        try:
            for sweep in (1, 2):
                tc.accelerations(pos, mass, EPS)
                assert len(be.charges) == sweep
                ident, n_i, n_j = be.charges[-1]
                assert ident == threading.get_ident()
                assert np.array_equal(n_i, tc.last_groups.count)
                assert np.array_equal(n_j, sweep_lists(tc).list_lengths)
        finally:
            tc.close()
        assert reg.value("exec.batches") > 2      # the sweeps were cut

    def test_a_retried_shard_is_never_charged(self, cloud):
        """Under ``transient_error@batch=1`` the attempt that raised
        is not charged: one charge, and counters and ``grape.*``
        histograms equal to a fault-free sweep's."""
        pos, mass = cloud
        out = []
        for faults in (None, "transient_error@batch=1"):
            reg = MetricsRegistry()
            be = ChargeSpy().bind_metrics(reg)
            with PipelineEngine(workers=2, faults=faults) as eng:
                _forces(pos, mass, backend=be, engine=eng, metrics=reg)
            assert len(be.charges) == 1
            out.append((be.system, reg))
        (clean, clean_reg), (faulted, faulted_reg) = out
        assert faulted_reg.value("exec.fault.batch_retries") == 1
        assert (faulted.n_calls, faulted.interactions,
                faulted.model_seconds) == (clean.n_calls, clean.interactions,
                                           clean.model_seconds)
        for name in ("grape.call_ni", "grape.call_nj"):
            assert faulted_reg.get(name).snapshot() \
                == clean_reg.get(name).snapshot()


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
        assert np.array_equal(
            a1, uncut_sweep(tc1, Float64Backend(), EPS)[0])
        assert np.array_equal(
            a2, uncut_sweep(tc2, Float64Backend(), EPS)[0])

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

    def test_prewarm_takes_any_backend(self):
        """Every backend rides the pool on its one instance, so an open
        engine's ``prewarm`` refuses none."""
        with PipelineEngine(workers=1) as eng:
            assert eng.prewarm(GrapeBackend()) is eng
            assert eng.prewarm(HostOnly()) is eng

    def test_kernel_only_backend_rides_the_pool(self, cloud):
        """"Any backend works": one that supplies only the dense
        ``kernel`` is evaluated by the pool threads, concurrently on
        its one instance, and gives the same bits at every worker
        count as the float64 reference loop."""
        pos, mass = cloud
        ref, ref_pot, _ = _forces(pos, mass, backend=OracleFloat64())
        for workers in (1, 2):
            be = HostOnly()
            with PipelineEngine(workers=workers) as eng:
                acc, pot, stats = _forces(pos, mass, backend=be,
                                          engine=eng)
            assert np.array_equal(acc, ref) and np.array_equal(pot, ref_pot)
            assert len(be.threads) == stats.n_groups
            assert threading.get_ident() not in be.threads

    def test_owned_engine_sweeps_again_after_close(self, cloud):
        """A treecode that built its own engine replaces it on close;
        an injected one stays closed (the caller owns its lifetime)."""
        pos, mass = cloud
        tc = TreeCode(theta=0.75, n_crit=64)
        a0, _ = tc.accelerations(pos, mass, EPS)
        tc.close()
        tc.close()
        a1, _ = tc.accelerations(pos, mass, EPS)
        tc.close()
        assert np.array_equal(a0, a1)
        injected = TreeCode(theta=0.75, n_crit=64,
                            engine=PipelineEngine(workers=1))
        injected.accelerations(pos, mass, EPS)
        injected.close()
        with pytest.raises(EngineError):
            injected.accelerations(pos, mass, EPS)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("base", sorted(BACKENDS))
    def test_subclass_sees_every_shard(self, cloud, base, workers):
        """Every shard runs on the caller's instance: an
        ``eval_lists`` override is what every shard runs."""
        pos, mass = cloud
        seen = []

        class Spy(BACKENDS[base]):
            def eval_lists(self, pos, pmass, com, cmass, lists, *rest):
                seen.append(lists.n_sinks)
                super().eval_lists(pos, pmass, com, cmass, lists, *rest)

        with PipelineEngine(workers=workers) as eng:
            _, _, stats = _forces(pos, mass, backend=Spy(), engine=eng)
        assert len(seen) > 1 and sum(seen) == stats.n_groups

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

    def test_dropped_default_treecodes_leave_no_thread(self):
        """Nobody closes a default ``TreeCode()``: its pool threads
        must go when it is collected, or a long-lived process that
        builds solvers (the job service, a test session) piles them
        up."""
        rng = np.random.default_rng(6)
        pos, _, mass = plummer_model(1100, rng)     # two shards
        before = threading.active_count()
        for _ in range(200):
            TreeCode(n_crit=64).accelerations(pos, mass, EPS)
        gc.collect()
        deadline = time.monotonic() + 10.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() == before

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


class TestMemory:
    def test_sweep_holds_less_than_its_lists(self):
        """Each shard's lists live only inside the task that walks and
        evaluates them; the sweep keeps per-sink lengths.  So a sweep's
        traced peak stays below the byte size of its whole lists (a
        sweep that kept every shard's lists, let alone a merged copy,
        would hold at least that much)."""
        pos, _, mass = plummer_model(30_000, np.random.default_rng(30))
        tc = TreeCode(theta=0.75, n_crit=32,
                      engine=PipelineEngine(workers=2))
        try:
            tc.accelerations(pos, mass, EPS)     # pool and kernels warm
            tracemalloc.start()
            try:
                tc.accelerations(pos, mass, EPS)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        finally:
            tc.close()
        lists = sweep_lists(tc)
        nbytes = sum(a.nbytes for a in (lists.cell_idx, lists.cell_off,
                                        lists.part_idx, lists.part_off))
        assert lists.total_terms == (tc.last_stats.cell_terms
                                     + tc.last_stats.part_terms)
        assert peak < nbytes, (peak, nbytes)


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
