"""Flight-recorder postmortems: a faulted job leaves a black box.

The acceptance criterion under test: when a fault-injected job crashes
(or recovers), the scheduler dumps the job's flight-recorder ring as
``flightrec.jsonl`` in the job's workdir, and the dump's final events
include the injected fault's site and the recovery decision -- the
postmortem works from the artifact alone, no rerun needed.
"""

import json

import pytest

from repro.serve import JobSpec, Scheduler

pytestmark = pytest.mark.chaos

RUN = {"ngrid": 6, "steps": 3, "z_final": 12.0}

#: crash the final step's force sweep (the site counts one call per
#: sweep: 0 = initial forces, 1..3 = the steps), after two checkpoint
#: generations exist (same deterministic plan as the scheduler
#: chaos tests)
CRASH = "transient_error@site=grape.compute,call=3,count=1"


def _flightrec(tmp_path, job):
    path = tmp_path / job.id / "flightrec.jsonl"
    assert path.exists(), "faulted job left no flight-recorder dump"
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0]["type"] == "flightrec_meta"
    return lines[0], lines[1:]


class TestFlightRecorderDumps:
    def test_recovered_job_dump_has_fault_and_decision(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path).start()
        job = s.submit(JobSpec(kind="run", params=dict(RUN),
                               checkpoint_every=1, faults=CRASH,
                               max_retries=0))
        assert s.wait(job.id, timeout=120)
        s.stop()
        assert job.state == "done"
        assert job.result["fault_recoveries"] >= 1

        meta, events = _flightrec(tmp_path, job)
        assert meta["events"] == len(events)
        kinds = [ev["kind"] for ev in events]
        # lifecycle breadcrumbs lead in ...
        assert kinds[0] == "job.submitted"
        assert "job.leased" in kinds

        # ... and the incident is in the final events: the injected
        # fault with its site, then the recovery decision
        injected = [ev for ev in events
                    if ev["kind"] == "fault.injected"]
        assert injected and injected[-1]["site"] == "grape.compute"
        assert injected[-1]["fault"] == "transient_error"
        recoveries = [ev for ev in events if ev["kind"] == "recovery"]
        assert recoveries
        last = recoveries[-1]
        assert last["decision"] == "checkpoint_rollback"
        assert last["error"] == "TransientBackendError"
        # the incident comes after the lifecycle lead-in
        assert kinds.index("fault.injected") > kinds.index("job.leased")

    def test_failed_job_dump_ends_with_failure(self, tmp_path):
        """No checkpoints -> the fault is terminal; the dump must
        still land and end with the failure event."""
        s = Scheduler(slots=1, workdir=tmp_path).start()
        job = s.submit(JobSpec(kind="run", params=dict(RUN),
                               checkpoint_every=0,
                               faults="transient_error@"
                                      "site=grape.compute,"
                                      "call=0,count=99",
                               max_retries=0, max_recoveries=0))
        assert s.wait(job.id, timeout=120)
        s.stop()
        assert job.state == "failed"

        _, events = _flightrec(tmp_path, job)
        assert any(ev["kind"] == "fault.injected"
                   and ev["site"] == "grape.compute"
                   for ev in events)
        final = events[-1]
        assert final["kind"] == "job.failed"
        assert "TransientBackendError" in final["error"]

    def test_clean_job_leaves_no_flightrec(self, tmp_path):
        """The black box is an incident artifact: fault-free jobs must
        not scatter dumps over their workdirs."""
        s = Scheduler(slots=1, workdir=tmp_path).start()
        job = s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        assert s.wait(job.id, timeout=120)
        s.stop()
        assert job.state == "done"
        assert not (tmp_path / job.id / "flightrec.jsonl").exists()
