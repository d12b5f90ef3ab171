"""The scheduler's control path costs O(queued jobs), and finished jobs
live only in the store.

Both properties are pinned without timing: the first by counting the
store rows a submit -> done cycle decodes (every decode goes through
``SQLiteJobStore._row_doc``), the second by the size of the worker's
runtime table after a batch of finished jobs -- each of which must
still answer every read and control route.
"""

import threading

import pytest

from repro.serve import (JobError, JobSpec, JobStore, Scheduler,
                         ServeHTTPError, SQLiteJobStore)

from tests.serve.conftest import serving


def _cycle(sched, spec):
    """One submit -> done cycle driven on the calling thread: the
    scheduler is never started, so no poll or housekeeping tick reads
    the store behind the count's back.  A cache hit is answered by
    the submit itself."""
    admitted = sched.submit(spec)
    if admitted.admitted.state == "done":
        return admitted.admitted
    with sched._cv:
        job = sched._claim_next_locked()
    assert job.id == admitted.id
    if job.cache_hit:
        sched._serve_from_cache(job)
    else:
        sched._execute(job, 0)
    assert job.state == "done", (job.state, job.error)
    return job


def _fe(seed):
    return JobSpec(kind="force_eval", params={"n": 64, "seed": seed})


class TestPerJobCost:
    def test_rows_decoded_per_job_do_not_grow_with_the_store(
            self, tmp_path, monkeypatch):
        """A miss and a hit decode the same rows with 5 finished jobs
        in the store as with 300: admission, the pick and the gauges
        read the queue, not every job ever stored."""
        sched = Scheduler(slots=1, workdir=tmp_path / "work",
                          store=tmp_path / "jobs.db", cache=True)
        decoded = []
        row_doc = SQLiteJobStore._row_doc

        def counting(store, row):
            decoded.append(1)
            return row_doc(store, row)

        monkeypatch.setattr(SQLiteJobStore, "_row_doc", counting)

        def fill(finished):
            while len(sched.store.list()) < finished:
                _cycle(sched, _fe(1))   # one miss, then cache hits

        def cost(seed):
            decoded.clear()
            miss = _cycle(sched, _fe(seed))
            hit = _cycle(sched, _fe(seed))
            assert (miss.cache_hit, hit.cache_hit) == (False, True)
            return len(decoded)

        try:
            fill(5)
            small = cost(2)
            fill(300)
            assert sched.store.counts() == {"done": 300}
            large = cost(3)
        finally:
            sched.stop()
        assert small == large, (small, large)


class CountingStore(JobStore):
    """Forwards every contract op to ``inner`` and logs its name."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    @property
    def kind(self):
        return self.inner.kind


def _logged(op):
    def call(self, *args, **kwargs):
        self.calls.append(op)
        return getattr(self.inner, op)(*args, **kwargs)
    return call


for _op in [n for n, a in vars(JobStore).items()
            if callable(a) and not n.startswith("_")]:
    setattr(CountingStore, _op, _logged(_op))


class TestStoreOpsPerJob:
    def test_each_control_step_is_one_store_op(self, tmp_path):
        """Admission, the pick and each state change are one op each,
        the transition events riding inside them, and the result
        cache rides inside admission, the pick and the terminal
        write: a miss is 4 ops and a cache hit 1, whatever the store
        holds."""
        store = CountingStore(SQLiteJobStore(tmp_path / "jobs.db"))
        sched = Scheduler(slots=1, workdir=tmp_path / "work",
                          store=store, cache=True)
        try:
            for _ in range(2):
                store.calls.clear()
                miss = _cycle(sched, _fe(len(store.inner.list())))
                assert store.calls == ["enqueue", "claim_next",
                                       "update", "update"]
                store.calls.clear()
                hit = _cycle(sched, _fe(miss.spec.params["seed"]))
                assert store.calls == ["enqueue"]
            assert [e["event"] for e in store.inner.events(miss.id)] \
                == ["submitted", "leased", "done"]
            assert [e["event"] for e in store.inner.events(hit.id)] \
                == ["submitted", "cache_hit"]
            assert hit.event_count == 2 and miss.event_count == 3
        finally:
            sched.stop()


class TestFinishedJobsLeaveTheWorker:
    def test_every_outcome_is_answered_from_the_store(self, tmp_path):
        sched = Scheduler(slots=1, workdir=tmp_path / "work", cache=True)
        # cancelled while queued: the scheduler is not started yet
        victim = sched.submit(_fe(5))
        assert sched.cancel(victim.id).state == "cancelled"
        with serving(sched) as (server, client):
            ids = {"cancelled": victim.id}
            for name, body in (
                    ("done", {"kind": "force_eval",
                              "params": {"n": 64, "seed": 1}}),
                    ("hit", {"kind": "force_eval",
                             "params": {"n": 64, "seed": 1}}),
                    ("failed", {"kind": "force_eval",
                                "params": {"n": 64, "seed": 2},
                                "max_retries": 1,
                                "faults": "transient_error@site="
                                          "grape.compute,count=99"})):
                ids[name] = client.submit(body)["id"]
                client.wait(ids[name], timeout=120)
            assert sched._jobs == {}
            expect = {"cancelled": "cancelled", "done": "done",
                      "hit": "done", "failed": "failed"}
            for name, jid in ids.items():
                state = expect[name]
                assert sched.wait(jid, timeout=0)
                assert sched.get(jid).state == state
                assert client.job(jid)["state"] == state
                assert client.job(jid)["cache_hit"] == (name == "hit")
                # cancelling a finished job changes nothing; pausing
                # one is a conflict
                assert client.cancel(jid)["state"] == state
                with pytest.raises(ServeHTTPError) as e:
                    client.pause(jid)
                assert e.value.status == 409
                trace = client.trace(jid)
                assert trace["state"] == state
                assert trace["trace_id"] == client.job(jid)["trace_id"]
                names = {s["name"] for s in trace["spans"]}
                if name == "cancelled":
                    assert names == set()
                elif name == "hit":  # answered at admission
                    assert names == {"serve.admission",
                                     "serve.queue_wait"}
                else:
                    assert {"serve.queue_wait", "serve.job"} <= names
            assert sched._jobs == {}


class TestOwnershipUnderContention:
    def test_a_worker_holds_only_what_its_slots_run(self, tmp_path):
        """More slots than cores and a short switch interval, with
        pause, resume and cancel racing the slots from another thread:
        every job ends at rest, the store and ``get`` agree on it, and
        no job outlives its run in the worker's table."""
        import sys
        import threading
        interval = sys.getswitchinterval()
        sched = Scheduler(slots=4, queue_depth=64,
                          workdir=tmp_path / "work",
                          store=tmp_path / "jobs.db", cache=True,
                          poll_interval=0.01)
        sys.setswitchinterval(1e-5)
        try:
            sched.start()
            run = JobSpec(kind="run", checkpoint_every=1,
                          params={"ngrid": 6, "steps": 8, "z_final": 12})
            ids = [sched.submit(run if i % 4 == 0 else _fe(i % 8)).id
                   for i in range(48)]

            def control():
                for k, jid in enumerate(ids):
                    try:
                        if k % 3 == 0:
                            sched.pause(jid)
                            sched.resume(jid)
                        elif k % 5 == 0:
                            sched.cancel(jid)
                    except JobError:
                        pass        # it finished (or paused) first

            racer = threading.Thread(target=control)
            racer.start()
            racer.join(timeout=60)
            assert not racer.is_alive()
            for jid in ids:
                if not sched.wait(jid, timeout=60):
                    raise AssertionError(f"{jid} never came to rest")
                if sched.get(jid).state == "paused":
                    sched.resume(jid)
                    assert sched.wait(jid, timeout=60)
            rows = {d["id"]: d for d in sched.store.list()}
            for jid in ids:
                assert rows[jid]["state"] in ("done", "cancelled"), \
                    rows[jid]
                assert sched.get(jid).state == rows[jid]["state"]
            with sched._cv:
                assert sched._jobs == {}
            assert sched.metrics.value("serve.jobs_running") == 0
            assert sched.metrics.value("serve.leases_in_use") == 0
        finally:
            sys.setswitchinterval(interval)
            sched.stop(drain=False)


class _BlockingEnqueue(SQLiteJobStore):
    """An in-memory store whose admissions block, once armed, until
    released."""

    def __init__(self):
        super().__init__(":memory:")
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def enqueue(self, doc, **kwargs):
        if self.armed:
            self.entered.set()
            self.release.wait(30)
        return super().enqueue(doc, **kwargs)


class TestSubmitOffTheLock:
    def test_a_parked_enqueue_holds_neither_reads_nor_claims(self,
                                                             tmp_path):
        """``submit`` holds no scheduler lock across its store op:
        while one admission is parked in the store, a read of another
        job and a slot's claim both go through."""
        store = _BlockingEnqueue()
        sched = Scheduler(slots=1, workdir=tmp_path / "work",
                          store=store)
        first = sched.submit(_fe(1))
        store.armed = True
        parked = threading.Thread(target=sched.submit, args=(_fe(2),))
        parked.start()
        seen = {}

        def probe():
            seen["get"] = sched.get(first.id).state
            with sched._cv:
                seen["claim"] = sched._claim_next_locked().id

        try:
            assert store.entered.wait(10)
            prober = threading.Thread(target=probe)
            prober.start()
            prober.join(10)
            assert seen == {"get": "queued", "claim": first.id}
        finally:
            store.release.set()
            parked.join(30)
            sched.stop(drain=False)
        assert [d["state"] for d in store.list()] == ["scheduled",
                                                      "queued"]
