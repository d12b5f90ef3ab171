"""Job model unit tests: schema validation and the lifecycle graph."""

import json

import pytest

from repro.serve import JOB_SCHEMA, Job, JobError, JobSpec
from repro.serve.jobs import JOB_STATES


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

    @pytest.mark.parametrize("plan", [
        "nonsense_kind@batch=1", "transient_error@site=grape.compte",
        "latency@site=grape.compute", "corrupt_result@batch=1",
        "latency@batch"])
    def test_fault_plan_parsed_at_admission(self, plan):
        with pytest.raises(JobError, match="bad fault plan"):
            JobSpec(kind="force_eval", params={"n": 64}, faults=plan)

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
        doc = json.loads(json.dumps(job.to_dict()))
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


class TestStoreDocument:
    """One document -> ``Job`` mapping: ``from_store_doc``, which
    every scheduler read of a job it does not run goes through."""

    #: a full life, with the fields a worker writes on the way
    PATH = [
        ("scheduled", dict(worker="w1", attempt=1)),
        ("running", dict(lease="L0001", steps_done=1, steps_total=3)),
        ("paused", dict(recoveries=2)),
        ("queued", dict()),
        ("scheduled", dict(worker="w2", attempt=2)),
        ("running", dict(lease="L0002", steps_done=2)),
        ("done", dict(result={"digest": "ab", "steps": 3},
                      steps_done=3, cache_hit=True)),
    ]

    def test_round_trip_at_every_lifecycle_state(self):
        job = Job(spec=JobSpec(kind="run", tenant="bob", priority=2),
                  workdir="/w/j1", trace_id="t-1")
        docs = [job.to_store_doc()]
        for state, written in self.PATH:
            job.advance(state)
            for name, value in written.items():
                setattr(job, name, value)
            docs.append(job.to_store_doc())
        for end, error in (("failed", "Boom: x"), ("cancelled", None)):
            other = Job(spec=JobSpec(kind="sweep"))
            other.state, other.error = "running", error
            other.advance(end)
            docs.append(other.to_store_doc())
        assert {d["state"] for d in docs} == set(JOB_STATES)
        for doc in docs:
            doc = json.loads(json.dumps(doc))  # as a store returns it
            assert Job.from_store_doc(doc).to_store_doc() == doc

    def test_a_foreign_workers_row_reads_back_with_its_identity(self):
        job = Job(spec=JobSpec(kind="run"), workdir="/w/j1")
        before = (job.id, job.seq, job.submitted_at, job.workdir)
        remote = Job.from_store_doc(job.to_store_doc())
        remote.advance("scheduled")
        remote.advance("running")
        remote.worker, remote.lease, remote.steps_done = "w2", "L0007", 5
        job = Job.from_store_doc(remote.to_store_doc())
        assert (job.state, job.worker, job.lease, job.steps_done) \
            == ("running", "w2", "L0007", 5)
        assert job.started_at == remote.started_at
        assert (job.id, job.seq, job.submitted_at, job.workdir) == before
