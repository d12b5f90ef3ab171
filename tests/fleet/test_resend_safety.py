"""A resent store RPC returns its first outcome.

Under ``corrupt_result@site=fleet.rpc`` the server has applied the op
when the client finds the answer damaged and sends the request again.
``enqueue`` and ``claim_next`` carry a caller-chosen token, so the
resend is answered from the row the first request wrote: one row per
submit, and a claimed job is adopted by the worker that won it rather
than orphaned until its lease expires.
"""

from repro.faults import FaultInjector, parse_fault_plan
from repro.fleet import RemoteJobStore
from repro.obs import MetricsRegistry
from repro.serve import JobSpec, Scheduler


def _damage_next_answer():
    return FaultInjector(parse_fault_plan(
        "corrupt_result@site=fleet.rpc,count=1"))


def test_damaged_answers_neither_duplicate_nor_orphan(backing,
                                                      store_server,
                                                      tmp_path):
    metrics = MetricsRegistry()
    remote = RemoteJobStore(store_server.url, retries=2, backoff=0.01,
                            metrics=metrics)
    sched = Scheduler(slots=1, workdir=tmp_path / "w", store=remote,
                      worker_id="W")
    try:
        jobs = []
        for seed in range(3):
            remote.faults = _damage_next_answer()
            jobs.append(sched.submit(JobSpec(
                kind="force_eval", params={"n": 64, "seed": seed})))
        assert [d["id"] for d in backing.list()] == [j.id for j in jobs]
        for job in jobs:
            remote.faults = _damage_next_answer()
            with sched._cv:
                assert sched._claim_next_locked().id == job.id
            row = backing.get(job.id)
            assert (row["state"], row["worker"]) == ("scheduled", "W")
        remote.faults = None
        assert backing.queued() == []
        with sched._cv:
            assert sched._claim_next_locked() is None
        for job in jobs:
            assert [e["event"] for e in backing.events(job.id)] == \
                ["submitted"]
        assert metrics.counter("fleet.rpc_retries", "").value == 6
    finally:
        remote.faults = None
        sched.stop(drain=False)
