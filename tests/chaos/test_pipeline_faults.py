"""Chaos tests for the pipeline engine's one recovery rung.

What can fail in a thread-pool engine is ``eval_lists`` raising.  The
contract: a shard hit by an injected transient error is re-run and the
sweep stays *bit-identical* to the in-process path; an exhausted retry
budget is a prompt, typed :class:`EngineError` that leaves the engine
usable; every fault and decision is visible in the ``exec.fault.*``
counters, the trace and the flight recorder.
"""

import time

import numpy as np
import pytest

from repro.core import TreeCode
from repro.core.kernels import Float64Backend
from repro.exec import EngineError, PipelineEngine
from repro.faults import parse_fault_plan
from repro.obs import FlightRecorder, MetricsRegistry, Tracer
from repro.sim.models import plummer_model

pytestmark = pytest.mark.chaos

@pytest.fixture(scope="module")
def cloud():
    rng = np.random.default_rng(42)
    pos, _, mass = plummer_model(1200, rng)
    return pos, mass


@pytest.fixture(scope="module")
def reference(cloud):
    pos, mass = cloud
    tc = TreeCode(theta=0.75, n_crit=64)
    return tc.accelerations(pos, mass, 0.01)


def _forces(pos, mass, engine, metrics=None, tracer=None, backend=None):
    tc = TreeCode(theta=0.75, n_crit=64, engine=engine, backend=backend,
                  metrics=metrics, tracer=tracer)
    return tc.accelerations(pos, mass, 0.01)


class TestRecoveryBitIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_injected_fault_recovers_bit_identical(
            self, cloud, reference, workers):
        pos, mass = cloud
        a0, p0 = reference
        reg = MetricsRegistry()
        with PipelineEngine(workers=workers,
                            faults="transient_error@batch=0") as eng:
            acc, pot = _forces(pos, mass, eng, metrics=reg)
        assert np.array_equal(acc, a0)
        assert np.array_equal(pot, p0)
        assert reg.value("exec.fault.transient_errors") == 1
        assert reg.value("exec.fault.batch_retries") == 1

    def test_fault_counts_exact_for_single_shot_faults(self, cloud,
                                                       reference):
        """A count=1 spec fires exactly once; the failed attempt's
        private backend is dropped, so backend statistics never
        double-count."""
        pos, mass = cloud
        reg = MetricsRegistry()
        clean, faulted = Float64Backend(), Float64Backend()
        _forces(pos, mass, None, backend=clean)
        with PipelineEngine(workers=2,
                            faults="transient_error@batch=1") as eng:
            acc, _ = _forces(pos, mass, eng, metrics=reg,
                             backend=faulted)
        assert np.array_equal(acc, reference[0])
        assert reg.value("exec.fault.transient_errors") == 1
        assert reg.value("exec.fault.batch_retries") == 1
        assert faulted.interactions == clean.interactions > 0


class TestDegradationLadder:
    """What is left of the ladder: one retry rung, then EngineError."""

    def test_healing_disabled_raises_promptly(self, cloud):
        """With ``max_retries=0`` the first transient error is an
        EngineError -- no retry, no hang."""
        pos, mass = cloud
        reg = MetricsRegistry()
        with PipelineEngine(workers=2, max_retries=0,
                            faults="transient_error@batch=1") as eng:
            t0 = time.perf_counter()
            with pytest.raises(EngineError, match="transient_error"):
                _forces(pos, mass, eng, metrics=reg)
            assert time.perf_counter() - t0 < 5.0
        assert reg.value("exec.fault.transient_errors") == 1
        assert reg.value("exec.fault.batch_retries") == 0

    def test_retries_exhausted_without_degrade_raises(self, cloud,
                                                      reference):
        """A persistently failing shard (attempt=any) exhausts the
        budget and raises; the same engine then serves the next sweep
        (the spec selects sweep 0 only)."""
        pos, mass = cloud
        with PipelineEngine(workers=2, max_retries=1,
                            faults="transient_error@sweep=0,batch=1,"
                                   "attempt=any,count=99") as eng:
            t0 = time.perf_counter()
            with pytest.raises(EngineError, match="retries"):
                _forces(pos, mass, eng)
            assert time.perf_counter() - t0 < 5.0
            acc, pot = _forces(pos, mass, eng)
        assert np.array_equal(acc, reference[0])
        assert np.array_equal(pot, reference[1])


class TestObservability:
    def test_fault_events_appear_in_trace_and_stats(self, cloud,
                                                    tmp_path):
        pos, mass = cloud
        tracer = Tracer()
        reg = MetricsRegistry()
        flight = FlightRecorder(path=tmp_path / "fr.jsonl")
        with PipelineEngine(workers=2, flight=flight,
                            faults="transient_error@batch=1") as eng:
            _forces(pos, mass, eng, metrics=reg, tracer=tracer)

        events = [s for s in tracer.iter_spans()
                  if s.name == "exec.fault"]
        assert {s.attrs["kind"] for s in events} == {
            "transient_errors", "batch_retries"}
        assert all(s.attrs["batch"] == 1 for s in events)
        assert reg.value("exec.fault.transient_errors") == 1
        kinds = [ev["kind"] for ev in flight.snapshot()]
        assert "fault.injected" in kinds
        assert "fault.transient_errors" in kinds
        retry = [ev for ev in flight.snapshot()
                 if ev["kind"] == "recovery"]
        assert [ev["decision"] for ev in retry] == ["retry"]
        # a sweep that saw faults flushes the black box
        assert (tmp_path / "fr.jsonl").exists()

    def test_latency_fault_only_slows(self, cloud, reference):
        """The latency kind is a perturbation, not a failure: no
        recovery machinery runs, results stay identical."""
        pos, mass = cloud
        reg = MetricsRegistry()
        with PipelineEngine(workers=2,
                            faults="latency@batch=0,seconds=0.2") as eng:
            t0 = time.perf_counter()
            acc, _ = _forces(pos, mass, eng, metrics=reg)
            assert time.perf_counter() - t0 >= 0.2
        assert np.array_equal(acc, reference[0])
        assert reg.value("exec.fault.batch_retries") == 0
        assert reg.value("exec.fault.transient_errors") == 0


class TestRetiredKinds:
    @pytest.mark.parametrize("plan", ["worker_crash@batch=1",
                                      "worker_hang@batch=1,seconds=30"])
    def test_process_fault_kinds_are_rejected_at_parse(self, plan):
        """Nothing can crash or hang a worker *process* any more; the
        kinds fail like any other unknown kind."""
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault_plan(plan)
        with pytest.raises(ValueError, match="unknown fault kind"):
            PipelineEngine(workers=1, faults=plan)
