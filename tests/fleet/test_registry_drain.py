"""Worker registry + draining: scheduler lifecycle rows, the drain
primitive (checkpoint + requeue + deregister), and the HTTP surface
(``GET /fleet``, ``POST /fleet/drain``, enriched ``/healthz``)."""

import time

import pytest

from repro.serve import JobSpec, Scheduler, SQLiteJobStore
from tests.serve.conftest import live_server


@pytest.fixture
def store(tmp_path):
    s = SQLiteJobStore(tmp_path / "jobs.db")
    yield s
    s.close()


def worker(store, tmp_path, name, **kw):
    kw.setdefault("slots", 1)
    kw.setdefault("poll_interval", 0.02)
    kw.setdefault("cache", False)
    return Scheduler(workdir=tmp_path / "work", store=store,
                     worker_id=name, **kw)


def run_spec(**kw):
    # enough ~5 ms steps that a drain requested once the job is seen
    # running still finds it mid-run
    params = {"ngrid": 6, "steps": 40, "z_final": 12.0}
    params.update(kw.pop("params", {}))
    return JobSpec(kind="run", params=params, checkpoint_every=1,
                   **kw)


def wait_running(sched, job_id, timeout=60.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        if sched.get(job_id).state == "running":
            return
        time.sleep(0.02)
    raise TimeoutError(f"{job_id} never started running")


class TestRegistry:
    def test_start_registers_stop_deregisters(self, store, tmp_path):
        a = worker(store, tmp_path, "A").start()
        rows = store.fleet_workers(now=time.time())
        assert [r["worker"] for r in rows] == ["A"]
        row = rows[0]
        assert row["live"] and row["state"] == "up"
        assert row["slots"] == 1 and row["boards"] == 2
        assert "force_eval" in row["kinds"]
        a.stop(drain=False)
        assert store.fleet_workers(now=time.time()) == []

    def test_housekeeping_keeps_the_row_live(self, store, tmp_path):
        a = worker(store, tmp_path, "A", claim_ttl=0.4,
                   heartbeat_interval=0.05).start()
        try:
            time.sleep(1.2)  # several TTLs: heartbeats must renew
            rows = store.fleet_workers(now=time.time())
            assert rows and rows[0]["live"]
        finally:
            a.stop(drain=False)

    def test_dead_worker_row_goes_stale_not_deleted(self, store,
                                                    tmp_path):
        """A SIGKILLed worker can't deregister; its row flips live=
        False after the TTL so operators still see the corpse."""
        a = worker(store, tmp_path, "A", claim_ttl=1.0)
        store.fleet_register(a._fleet_doc(), now=time.time() - 60.0,
                             ttl=1.0)
        rows = store.fleet_workers(now=time.time())
        assert len(rows) == 1 and not rows[0]["live"]

    def test_fleet_gauges_exported(self, store, tmp_path):
        a = worker(store, tmp_path, "A",
                   heartbeat_interval=0.05).start()
        try:
            time.sleep(0.3)
            snap = a.metrics.snapshot()
            assert snap["fleet.workers_live"]["value"] >= 1
            assert snap["fleet.workers_draining"]["value"] == 0
        finally:
            a.stop(drain=False)


class TestDrain:
    def test_drained_worker_claims_nothing(self, store, tmp_path):
        a = worker(store, tmp_path, "A")
        a.submit(JobSpec(kind="force_eval", params={"n": 64}))
        a.drain()
        with a._cv:
            assert a._claim_next_locked() is None
        assert store.get("j000001")["state"] == "queued"
        a.stop(drain=False)

    def test_drain_requeues_running_job_for_takeover(self, store,
                                                     tmp_path):
        """The headline drain flow: a running job checkpoints out,
        another worker finishes it, digest identical to an
        uninterrupted run."""
        a = worker(store, tmp_path, "A", claim_ttl=10.0).start()
        job = a.submit(run_spec())
        wait_running(a, job.id)
        summary = a.drain(timeout=60.0)
        assert summary["owned"] == [job.id]
        assert summary["requeued"] == [job.id]
        assert store.get(job.id)["state"] == "queued"
        assert a.draining
        assert store.fleet_workers(now=time.time()) == []

        b = worker(store, tmp_path, "B").start()
        try:
            assert b.wait(job.id, timeout=120)
            done = store.get(job.id)
            assert done["state"] == "done"
            assert done["worker"] == "B"
            events = [e["event"] for e in store.events(job.id)]
            assert "paused" in events and "resumed" in events

            ref = b.submit(run_spec())
            assert b.wait(ref.id, timeout=120)
            ref_doc = store.get(ref.id)
            assert ref_doc["state"] == "done"
            assert ref_doc["result"]["digest"] == \
                done["result"]["digest"]
        finally:
            b.stop(drain=False)
            a.stop(drain=False)

    def test_drain_is_idempotent_and_counted(self, store, tmp_path):
        a = worker(store, tmp_path, "A").start()
        try:
            assert a.drain()["draining"]
            assert a.drain()["draining"]
            snap = a.metrics.snapshot()
            assert snap["fleet.drains"]["value"] == 1
        finally:
            a.stop(drain=False)

    def test_restart_after_drain_rejoins(self, store, tmp_path):
        a = worker(store, tmp_path, "A").start()
        a.drain()
        a.stop(drain=False)
        a = worker(store, tmp_path, "A").start()
        try:
            assert not a.draining
            rows = store.fleet_workers(now=time.time())
            assert rows and rows[0]["state"] == "up"
        finally:
            a.stop(drain=False)


class TestFleetHttpSurface:
    def test_fleet_endpoint_and_healthz(self, tmp_path):
        with live_server(workdir=tmp_path / "w",
                         store=tmp_path / "jobs.db") as (server, c):
            h = c.healthz()
            assert h["fleet"]["workers"] == 1
            assert h["fleet"]["live"] == 1
            assert h["draining"] is False
            assert h["store"] == "sqlite"

            doc = c.fleet()
            assert doc["schema"] == "repro.fleet/v1"
            assert doc["worker"] == server.scheduler.worker_id
            assert [w["worker"] for w in doc["workers"]] == \
                [server.scheduler.worker_id]
            assert doc["live"] == 1 and doc["draining_count"] == 0
            assert "cache" in doc

    def test_drain_over_http(self, tmp_path):
        with live_server(workdir=tmp_path / "w",
                         store=tmp_path / "jobs.db") as (server, c):
            summary = c.drain()
            assert summary["draining"] is True
            assert c.healthz()["draining"] is True
            assert c.fleet()["draining"] is True
            # the HTTP surface stays up after a drain
            assert c.jobs() == []

    def test_two_workers_share_one_registry(self, tmp_path):
        db = tmp_path / "jobs.db"
        with live_server(workdir=tmp_path / "a", store=db) as (sa, ca):
            with live_server(workdir=tmp_path / "b",
                             store=db) as (sb, cb):
                doc = ca.fleet()
                assert len(doc["workers"]) == 2
                assert doc["live"] == 2
                cb.drain()
                doc = ca.fleet()
                # B deregistered; A still sees itself
                assert [w["worker"] for w in doc["workers"]] == \
                    [sa.scheduler.worker_id]
