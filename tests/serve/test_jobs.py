"""Job model unit tests: schema validation and the lifecycle graph."""

import json

import pytest

from repro.serve import JOB_SCHEMA, Job, JobError, JobSpec


class TestJobSpec:
    def test_defaults_filled_per_kind(self):
        spec = JobSpec(kind="run")
        assert spec.params["ngrid"] == 16
        assert spec.params["backend"] == "grape"
        assert JobSpec(kind="sweep").params["n"] == 8192
        assert JobSpec(kind="force_eval").params["eps"] == 0.01

    def test_params_coerced_to_schema_types(self):
        spec = JobSpec(kind="run", params={"ngrid": "12",
                                           "z_final": "2"})
        assert spec.params["ngrid"] == 12
        assert spec.params["z_final"] == 2.0

    @pytest.mark.parametrize("bad", [
        dict(kind="telepathy"),
        dict(kind="run", max_retries=-1),
        dict(kind="run", params={"warp": 9}),
        dict(kind="run", params={"ngrid": "lots"}),
        dict(kind="run", max_recoveries=-1),
        dict(kind="run", checkpoint_every=-2),
    ])
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(JobError):
            JobSpec(**bad)

    def test_roundtrip_through_wire_format(self):
        spec = JobSpec(kind="run", params={"ngrid": 8}, priority=3,
                       tenant="alice", checkpoint_every=2)
        doc = {"schema": JOB_SCHEMA, **spec.to_dict()}
        again = JobSpec.from_dict(json.loads(json.dumps(doc)))
        assert again == spec

    def test_from_dict_rejects_wrong_schema_and_fields(self):
        with pytest.raises(JobError, match="schema"):
            JobSpec.from_dict({"schema": "repro.job/v99", "kind": "run"})
        with pytest.raises(JobError, match="missing 'kind'"):
            JobSpec.from_dict({})
        with pytest.raises(JobError, match="unknown job field"):
            JobSpec.from_dict({"kind": "run", "color": "red"})
        # one way to evaluate a sweep: nothing on the wire selects it
        with pytest.raises(JobError,
                           match=r"unknown job field\(s\): engine"):
            JobSpec.from_dict({"kind": "run", "engine": "pipeline"})
        with pytest.raises(JobError):
            JobSpec.from_dict("not an object")


class TestLifecycle:
    def test_happy_path(self):
        job = Job(spec=JobSpec(kind="run"))
        assert job.state == "queued" and not job.terminal
        for state in ("scheduled", "running", "done"):
            job.advance(state)
        assert job.terminal
        assert job.started_at is not None
        assert job.finished_at >= job.started_at

    def test_pause_resume_cycle(self):
        job = Job(spec=JobSpec(kind="run"))
        job.advance("scheduled")
        job.advance("running")
        job.advance("paused")
        job.advance("queued")  # resume re-queues
        job.advance("scheduled")
        job.advance("running")
        job.advance("done")

    @pytest.mark.parametrize("start,bad", [
        ("queued", "running"), ("queued", "done"),
        ("running", "queued"), ("done", "running"),
        ("cancelled", "queued"), ("failed", "done"),
    ])
    def test_illegal_transitions_raise(self, start, bad):
        job = Job(spec=JobSpec(kind="run"))
        job.state = start
        with pytest.raises(JobError, match="illegal transition"):
            job.advance(bad)

    def test_terminal_states_are_sinks(self):
        for terminal in ("done", "failed", "cancelled"):
            job = Job(spec=JobSpec(kind="run"))
            job.state = terminal
            for anywhere in ("queued", "running", "paused"):
                with pytest.raises(JobError):
                    job.advance(anywhere)

    def test_wire_document_shape(self):
        job = Job(spec=JobSpec(kind="force_eval", tenant="bob"))
        doc = json.loads(job.to_json())
        assert doc["schema"] == JOB_SCHEMA
        assert doc["id"] == job.id
        assert doc["state"] == "queued"
        assert doc["tenant"] == "bob"
        assert doc["progress"] == {"steps_done": 0, "steps_total": 0,
                                   "events": 0}

    def test_ids_are_unique_and_ordered(self):
        a, b = Job(spec=JobSpec(kind="run")), Job(spec=JobSpec(kind="run"))
        assert a.id != b.id
        assert b.seq > a.seq
