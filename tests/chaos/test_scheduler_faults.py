"""Service-level chaos: a fault-injected crash mid-job must neither
wedge the scheduler nor lose the job's progress.

The crashed job recovers in-slot through ``Simulation.run``'s
checkpoint rollback (the injector lives for the whole job, so a
bounded fault cannot re-fire on replay), while other queued jobs keep
flowing through the same slot pool.  Recovery is verified the strong
way: the recovered job's state digest equals a clean run of the same
spec.
"""

import json
from pathlib import Path

import pytest

from repro.serve import JobSpec, Scheduler

pytestmark = pytest.mark.chaos

#: three-step tiny paper run with a rotated checkpoint per step
RUN = {"ngrid": 6, "steps": 3, "z_final": 12.0}

#: ``grape.compute`` is consulted once per backend force call, i.e.
#: once per list sweep: call 0 = initial forces, then one call per
#: step; call=3 crashes the final step, after two checkpoint
#: generations exist
CRASH = "transient_error@site=grape.compute,call=3,count=1"


def _run_spec(**over):
    spec = dict(kind="run", params=dict(RUN), checkpoint_every=1)
    spec.update(over)
    return JobSpec(**spec)


class TestSchedulerUnderFaults:
    def test_crash_mid_job_recovers_and_others_proceed(self, tmp_path):
        clean = Scheduler(slots=1, workdir=tmp_path / "clean").start()
        ref = clean.submit(_run_spec())
        assert clean.wait(ref.id, timeout=120) and ref.state == "done"
        clean.stop()
        assert ref.result["fault_recoveries"] == 0

        s = Scheduler(slots=1, workdir=tmp_path / "chaos").start()
        crashed = s.submit(_run_spec(faults=CRASH, max_retries=0))
        bystander = s.submit(JobSpec(kind="force_eval",
                                     params={"n": 128}))
        assert s.wait(crashed.id, timeout=120)
        assert s.wait(bystander.id, timeout=120)

        # the scheduler kept serving the other queued job
        assert bystander.state == "done"
        assert bystander.result["interactions"] > 0

        # the crashed job resumed from its last checkpoint ...
        assert crashed.state == "done"
        assert crashed.result["fault_recoveries"] >= 1
        # ... and replay reproduced the clean trajectory exactly
        assert crashed.result["digest"] == ref.result["digest"]
        assert crashed.result["steps"] == ref.result["steps"]
        s.stop()

    def test_unrecoverable_job_fails_without_wedging_slot(self, tmp_path):
        """With checkpointing off the same fault is terminal for the
        job -- but never for the scheduler."""
        s = Scheduler(slots=1, workdir=tmp_path).start()
        doomed = s.submit(_run_spec(checkpoint_every=0,
                                    faults="transient_error@"
                                           "site=grape.compute,"
                                           "call=0,count=99",
                                    max_retries=0, max_recoveries=0))
        after = s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        assert s.wait(doomed.id, timeout=120)
        assert s.wait(after.id, timeout=120)
        assert doomed.state == "failed"
        assert "TransientBackendError" in doomed.error
        assert after.state == "done"
        s.stop()


class TestFaultPlansReachEveryKind:
    """``run_job`` builds every kind's solver at one ``build_force``
    call, so ``spec.faults`` and the job's flight recorder ride into
    ``force_eval`` and ``sweep`` exactly as into ``run``."""

    def test_device_fault_fails_a_force_eval_and_is_recorded(
            self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path).start()
        doomed = s.submit(JobSpec(
            kind="force_eval", params={"n": 128}, max_retries=1,
            faults="transient_error@site=grape.compute,count=99"))
        bystander = s.submit(JobSpec(kind="force_eval",
                                     params={"n": 128}))
        assert s.wait(doomed.id, timeout=120)
        assert s.wait(bystander.id, timeout=120)
        s.stop()
        assert doomed.state == "failed"
        assert "TransientBackendError" in doomed.error
        assert bystander.state == "done"
        # the black box holds the force layer's events, not only the
        # scheduler's job.* bookkeeping
        box = (Path(doomed.workdir) / "flightrec.jsonl").read_text()
        kinds = [json.loads(line).get("kind")
                 for line in box.splitlines()]
        assert kinds.count("fault.injected") == 2  # 1 try + 1 retry
        assert "job.failed" in kinds

    def test_batch_fault_is_retried_and_counted_on_a_sweep(
            self, tmp_path):
        """n = 3000 cuts into five shards, so ``batch=1`` exists; the
        counter is the one ``repro sweep --faults`` reports."""
        s = Scheduler(slots=1, workdir=tmp_path).start()
        job = s.submit(JobSpec(kind="sweep", params={"n": 3000},
                               faults="transient_error@batch=1"))
        assert s.wait(job.id, timeout=120)
        s.stop()
        assert job.state == "done"
        assert [r["n_crit"] for r in job.result["rows"]] \
            == [64, 256, 1024, 4096]
        assert s.metrics.value("exec.fault.batch_retries") == 1
        assert s.metrics.value("exec.fault.transient_errors") == 1
