"""Service-level chaos: a fault-injected crash mid-job must neither
wedge the scheduler nor lose the job's progress.

The crashed job recovers in-slot through ``Simulation.run``'s
checkpoint rollback (the injector lives for the whole job, so a
bounded fault cannot re-fire on replay), while other queued jobs keep
flowing through the same slot pool.  Recovery is verified the strong
way: the recovered job's state digest equals a clean run of the same
spec.
"""

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
