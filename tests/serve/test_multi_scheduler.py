"""Replicated schedulers over one store.

Two (or more) :class:`~repro.serve.scheduler.Scheduler` workers
sharing one :class:`~repro.serve.store.JobStore` must behave like one
bigger scheduler:

* a job is executed by exactly one worker (claim compare-and-swap --
  racing claimants produce one winner, checked both at the store
  primitive under a thread barrier and end-to-end by counting
  ``leased`` events per job);
* a worker that stops heartbeating loses its claim after the TTL and
  a surviving worker takes the job over (``attempt`` bump, the
  ``serve.takeovers`` counter);
* fair share holds *across* workers, because the pick rank is
  computed from store-wide tenant load, not per-worker counters.
"""

import threading
import time

import pytest

from repro.serve import JobSpec, Scheduler, SQLiteJobStore


def tiny_spec(seed=0, tenant="default", priority=0):
    return JobSpec(kind="force_eval", params={"n": 64, "seed": seed},
                   tenant=tenant, priority=priority)


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


class TestClaimRace:
    def test_racing_claims_have_one_winner(self, store):
        """The CAS primitive under a real thread barrier."""
        from tests.serve.test_store_durability import seeded_job
        job = seeded_job(store)
        barrier = threading.Barrier(8)
        wins = []

        def contender(i):
            barrier.wait()
            wins.append(store.claim(job.id, f"w{i}",
                                    now=time.time(), ttl=30.0))

        threads = [threading.Thread(target=contender, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1

    def test_two_workers_never_double_claim(self, store, tmp_path,
                                            monkeypatch):
        """End-to-end: every job is leased exactly once and both
        workers participate.  A fast job could let one worker drain
        the queue before the other polls, so each job is held at the
        start of its run until both workers have claimed one."""
        from repro.serve import scheduler as scheduler_mod
        real_run_job, claimed, both = (scheduler_mod.run_job, set(),
                                       threading.Event())

        def gated_run_job(job, **kw):
            claimed.add(job.worker)
            if len(claimed) == 2:
                both.set()
            both.wait(timeout=30)
            return real_run_job(job, **kw)

        monkeypatch.setattr(scheduler_mod, "run_job", gated_run_job)
        a = worker(store, tmp_path, "A").start()
        b = worker(store, tmp_path, "B").start()
        jobs = [a.submit(tiny_spec(seed=i)) for i in range(8)]
        try:
            for j in jobs:
                assert a.wait(j.id, timeout=60), j.id
            docs = {j.id: store.get(j.id) for j in jobs}
            assert all(d["state"] == "done" for d in docs.values())
            # exactly one 'leased' event per job = exactly one executor
            for j in jobs:
                leased = [e for e in store.events(j.id)
                          if e["event"] == "leased"]
                assert len(leased) == 1, \
                    f"job {j.id} leased {len(leased)} times"
            assert {d["worker"] for d in docs.values()} == {"A", "B"}
        finally:
            a.stop(drain=False)
            b.stop(drain=False)


class TestTakeover:
    def test_expired_claim_is_taken_over(self, store, tmp_path):
        """A job claimed by a dead worker (no heartbeats) is re-queued
        after the TTL and completed by a live worker."""
        from tests.serve.test_store_durability import seeded_job
        job = seeded_job(store)
        store.append_event(job.id, {"event": "submitted"})
        assert store.claim(job.id, "dead", now=time.time() - 60.0,
                           ttl=1.0)
        store.append_event(job.id, {"event": "leased", "lease": "Ldead"})
        b = worker(store, tmp_path, "B", claim_ttl=5.0,
                   heartbeat_interval=0.05).start()
        try:
            assert b.wait(job.id, timeout=60)
            doc = store.get(job.id)
            assert doc["state"] == "done"
            assert doc["worker"] == "B"
            assert doc["attempt"] == 1
            # the new owner tells the whole story, pre-takeover included
            events = b.events(job.id)
            assert [e["event"] for e in events] == \
                ["submitted", "leased", "leased", "done"]
            assert events[1]["lease"] == "Ldead"
        finally:
            b.stop(drain=False)

    def test_takeover_is_counted(self, store, tmp_path):
        from tests.serve.test_store_durability import seeded_job
        job = seeded_job(store)
        assert store.claim(job.id, "dead", now=time.time() - 60.0,
                           ttl=1.0)
        b = worker(store, tmp_path, "B", heartbeat_interval=0.05)
        b.start()
        try:
            assert b.wait(job.id, timeout=60)
            snap = b.metrics.snapshot()
            requeued = (snap.get("serve.takeovers", {}).get("value", 0)
                        + snap.get("serve.jobs_requeued", {})
                        .get("value", 0))
            assert requeued >= 1
        finally:
            b.stop(drain=False)

    def test_live_heartbeats_prevent_takeover(self, store, tmp_path):
        """A healthy worker's claim is never stolen, even with a TTL
        much shorter than the job."""
        a = worker(store, tmp_path, "A", claim_ttl=0.3,
                   heartbeat_interval=0.05).start()
        b = worker(store, tmp_path, "B", claim_ttl=0.3,
                   heartbeat_interval=0.05).start()
        job = a.submit(JobSpec(kind="run",
                               params={"ngrid": 6, "steps": 2,
                                       "z_final": 12.0}))
        try:
            assert a.wait(job.id, timeout=120)
            doc = store.get(job.id)
            assert doc["state"] == "done"
            assert doc["attempt"] == 0, "healthy claim was stolen"
            leased = [e for e in store.events(job.id)
                      if e["event"] == "leased"]
            assert len(leased) == 1
        finally:
            a.stop(drain=False)
            b.stop(drain=False)


class TestCrossWorkerControl:
    def test_submit_on_one_worker_runs_on_another(self, store,
                                                  tmp_path):
        """Only worker B has slots; A is submit-only (slots exist but
        we keep it stopped), so the job must travel via the store."""
        a = worker(store, tmp_path, "A")          # never started
        b = worker(store, tmp_path, "B").start()
        job = a.submit(tiny_spec())
        try:
            assert b.wait(job.id, timeout=60)
            assert store.get(job.id)["worker"] == "B"
            # the submitting worker's view follows the store
            assert a.wait(job.id, timeout=10)
            assert a.get(job.id).state == "done"
            assert a.get(job.id).result is not None
            # one event log: both workers and the store agree
            events = store.events(job.id)
            assert a.events(job.id) == b.events(job.id) == events
            assert [e["event"] for e in events] == \
                ["submitted", "leased", "done"]
        finally:
            b.stop(drain=False)
            a.stop(drain=False)

    def test_a_long_poll_on_one_worker_sees_a_run_on_another(
            self, store, tmp_path, monkeypatch):
        """B runs the job; ``GET /jobs/{id}?wait=`` on A answers within
        A's ``poll_interval`` of the run's end, not at A's next
        heartbeat tick (10 s here)."""
        from repro.serve import scheduler as scheduler_mod
        from tests.serve.conftest import serving
        real_run_job, opened = scheduler_mod.run_job, threading.Event()

        def gated_run_job(job, **kw):
            opened.wait(timeout=30)
            return real_run_job(job, **kw)

        monkeypatch.setattr(scheduler_mod, "run_job", gated_run_job)
        a = worker(store, tmp_path, "A", poll_interval=0.25)
        b = worker(store, tmp_path, "B").start()
        answer = []
        try:
            with serving(a) as (server, client):
                a.drain()                       # A claims nothing
                jid = b.submit(tiny_spec()).id
                deadline = time.monotonic() + 30
                while store.get(jid)["state"] != "running":
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                held = threading.Thread(target=lambda: answer.extend([
                    client._request("GET", f"/jobs/{jid}?wait=30"),
                    time.monotonic()]))
                held.start()
                while not any(j == jid for j, _ in a._watchers):
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                t0 = time.monotonic()
                opened.set()
                held.join(30)
            doc, answered = answer
            assert doc["state"] == "done" and doc["worker"] == "B"
            assert answered - t0 <= a.poll_interval + 0.5
        finally:
            opened.set()
            b.stop(drain=False)

    def test_cancel_travels_between_workers(self, store, tmp_path):
        """Cancelling a queued job on worker A prevents worker B from
        ever executing it."""
        a = worker(store, tmp_path, "A")          # never started
        job = a.submit(tiny_spec())
        assert a.cancel(job.id).state == "cancelled"
        b = worker(store, tmp_path, "B").start()
        try:
            time.sleep(0.3)
            assert store.get(job.id)["state"] == "cancelled"
            assert store.get(job.id)["worker"] is None
        finally:
            b.stop(drain=False)
            a.stop(drain=False)


def ckpt_run(steps=200):
    """A checkpointing paper run of ~5 ms steps: long enough for a
    pause to land mid-run, short enough to finish in about a
    second."""
    return JobSpec(kind="run", params={"ngrid": 6, "steps": steps,
                                       "z_final": 12.0},
                   checkpoint_every=1)


class TestControlThroughTheStore:
    """Pause and resume reach a job from any worker on the store, and
    every worker reads a job it does not run off its store row."""

    def test_pause_on_a_worker_that_does_not_own_the_job(self, store,
                                                         tmp_path):
        a = worker(store, tmp_path, "A")          # control only
        b = worker(store, tmp_path, "B",
                   heartbeat_interval=0.02).start()
        try:
            job = a.submit(ckpt_run())
            deadline = time.monotonic() + 60
            while b.get(job.id).steps_done < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert a.pause(job.id).state == "running"
            assert b.wait(job.id, timeout=60)
            paused = a.get(job.id)
            assert (paused.state, paused.worker) == ("paused", "B")
            assert 2 <= paused.steps_done < 200
            assert a.resume(job.id).state == "queued"
            assert b.wait(job.id, timeout=120)
            done = a.get(job.id)
            assert done.state == "done", (done.state, done.error)
            assert any(e["event"] == "resumed" for e in a.events(job.id))
            ref = b.submit(JobSpec(kind="run",
                                   params=dict(job.spec.params)))
            assert b.wait(ref.id, timeout=120)
            assert ref.result["digest"] == done.result["digest"]
        finally:
            b.stop(drain=False)
            a.stop(drain=False)

    def test_pause_of_a_queued_job_holds_on_any_claimer(self, store,
                                                        tmp_path):
        a = worker(store, tmp_path, "A")          # never started
        job = a.submit(ckpt_run(steps=40))
        assert a.pause(job.id).state == "queued"
        b = worker(store, tmp_path, "B").start()
        try:
            assert b.wait(job.id, timeout=60)
            paused = a.get(job.id)
            assert (paused.state, paused.worker) == ("paused", "B")
            assert paused.steps_done < 40
        finally:
            b.stop(drain=False)
            a.stop(drain=False)

    def test_queue_wait_runs_from_the_stores_queue_entry(self, store,
                                                         tmp_path):
        """The claimer measures the wait, whoever admitted the job."""
        a = worker(store, tmp_path, "A")          # never started
        job = a.submit(tiny_spec())
        time.sleep(0.3)
        b = worker(store, tmp_path, "B").start()
        try:
            assert b.wait(job.id, timeout=60)
            hist = b.metrics.snapshot()["serve.queue_wait_seconds"]
            assert hist["count"] == 1 and hist["min"] >= 0.3
            spans = [s for s in b.get(job.id).span_events()
                     if s["name"] == "serve.queue_wait"]
            assert len(spans) == 1 and spans[0]["duration"] >= 0.3
        finally:
            b.stop(drain=False)
            a.stop(drain=False)

    def test_a_paused_job_finished_elsewhere_reads_done(self, store,
                                                        tmp_path):
        a = worker(store, tmp_path, "A").start()
        job = a.submit(ckpt_run(steps=40))
        a.pause(job.id)
        assert a.wait(job.id, timeout=60)
        assert a.get(job.id).state == "paused"
        a.stop(drain=False)
        b = worker(store, tmp_path, "B").start()
        try:
            b.resume(job.id)
            assert b.wait(job.id, timeout=120)
            assert a.wait(job.id, timeout=10)
            assert (a.get(job.id).state, a.get(job.id).worker) == \
                ("done", "B")
        finally:
            b.stop(drain=False)


class TestFairShareAcrossWorkers:
    def test_pick_rank_uses_store_wide_load(self, store, tmp_path):
        """With tenant `a` hogging the store, the next claim goes to
        tenant `b` even on a worker that never saw `a`'s jobs."""
        a = worker(store, tmp_path, "A")          # submit-only
        hogs = [a.submit(tiny_spec(seed=i, tenant="a"))
                for i in range(3)]
        small = a.submit(tiny_spec(seed=99, tenant="b"))
        # fabricate tenant `a` load: one of its jobs already running
        assert store.claim(hogs[0].id, "elsewhere", now=time.time(),
                           ttl=60.0)
        b = worker(store, tmp_path, "B")          # fresh worker
        with b._cv:
            picked = b._claim_next_locked()
        assert picked is not None
        assert picked.spec.tenant == "b", \
            f"expected tenant b, got {picked.spec.tenant}"
        assert picked.id == small.id
        a.stop(drain=False)
        b.stop(drain=False)

    def test_priority_beats_fair_share_across_workers(self, store,
                                                      tmp_path):
        a = worker(store, tmp_path, "A")
        a.submit(tiny_spec(seed=1, tenant="hog"))
        urgent = a.submit(tiny_spec(seed=2, tenant="hog", priority=5))
        b = worker(store, tmp_path, "B")
        with b._cv:
            picked = b._claim_next_locked()
        assert picked is not None and picked.id == urgent.id
        a.stop(drain=False)
        b.stop(drain=False)
