"""Durable job store: contract, crash/reopen, damage detection.

Three layers, mirroring ``tests/chaos/test_checkpoint_faults.py``:

* **contract** -- the :class:`~repro.serve.store.JobStore` semantics
  (claim CAS, heartbeat expiry, takeover, stale-write rejection) hold
  identically for both lifetimes of the store, ``:memory:`` and a
  database file;
* **kill-and-reopen** -- at every lifecycle edge (inserted, claimed,
  running, paused, done) abandoning one store handle and opening a
  fresh one on the same file sees exactly the state that was written,
  and :meth:`~repro.serve.store.JobStore.recover` turns orphaned
  claims back into work;
* **damage sweep** -- property-based (hypothesis, derandomized):
  tampered job and event row payloads and a torn database file are
  always *detected and typed* (:class:`StoreCorrupt` / ``verify()``
  findings / a dropped cache entry) -- never returned as a
  plausible-but-wrong document.

The crash-resume acceptance test fabricates a dead worker's store row
over a real checkpointed workdir and asserts the resumed job reaches
a ``state_digest`` bit-identical to an uninterrupted run.
"""

import io
import sqlite3
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.faults import corrupt_file
from repro.serve import (JobSpec, MemoryJobStore, Scheduler,
                         SQLiteJobStore, StoreCorrupt, StoreError,
                         open_store, spec_hash)
from repro.serve.jobs import Job


def make_store(kind, tmp_path):
    if kind == "memory":
        return MemoryJobStore()
    return SQLiteJobStore(tmp_path / "jobs.db")


def seeded_job(store, *, state="queued", tenant="default",
               priority=0, spec=None):
    """Allocate + insert one job document, returning the Job."""
    spec = spec or JobSpec(kind="force_eval", params={"n": 64})
    jid, seq = store.allocate()
    job = Job(spec=spec, id=jid)
    job.seq = seq
    job.state = state
    doc = job.to_store_doc()
    doc["tenant"] = tenant
    doc["priority"] = priority
    store.insert(doc)
    return job


def new_doc(tenant):
    """A fresh queued document for ``enqueue`` (which names it)."""
    job = Job(spec=JobSpec(kind="force_eval", params={"n": 64},
                           tenant=tenant), id="unnamed")
    return job.to_store_doc()


def assert_id_rules(store):
    """The contract's two rules about ids, on any kind of store: an
    id is inserted once, and an unknown id is a lost claim to a
    guarded ``update`` but an error to an unguarded one."""
    first = seeded_job(store)
    again = dict(store.get(first.id), state="done", tenant="intruder")
    with pytest.raises(StoreError):
        store.insert(again)
    kept = store.get(first.id)
    assert kept["state"] == "queued" and kept["tenant"] == "default"
    assert [d["id"] for d in store.list()] == [first.id]
    ghost = dict(kept, id="j424242")
    assert store.update(ghost, worker="w") is False
    with pytest.raises(StoreError, match="no such job"):
        store.update(ghost)
    assert store.get("j424242") is None


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    s = make_store(request.param, tmp_path)
    yield s
    s.close()


class TestContract:
    """Semantics shared by both lifetimes of the store."""

    def test_allocate_is_unique_and_monotone(self, store):
        pairs = [store.allocate() for _ in range(5)]
        ids = [p[0] for p in pairs]
        seqs = [p[1] for p in pairs]
        assert len(set(ids)) == 5
        assert seqs == sorted(seqs)

    def test_insert_get_list_roundtrip(self, store):
        a = seeded_job(store)
        b = seeded_job(store)
        assert store.get(a.id)["id"] == a.id
        assert store.get("nope") is None
        assert [d["id"] for d in store.list()] == [a.id, b.id]
        assert [d["id"] for d in store.queued()] == [a.id, b.id]

    def test_claim_cas_exactly_one_winner(self, store):
        job = seeded_job(store)
        now = time.time()
        wins = [store.claim(job.id, w, now=now, ttl=30.0)
                for w in ("w1", "w2", "w3")]
        assert wins == [True, False, False]
        doc = store.get(job.id)
        assert doc["state"] == "scheduled"
        assert doc["worker"] == "w1"

    def test_claim_refuses_non_queued(self, store):
        job = seeded_job(store, state="done")
        assert not store.claim(job.id, "w1", now=time.time(), ttl=30.0)

    def test_heartbeat_keeps_claim_alive(self, store):
        job = seeded_job(store)
        assert store.claim(job.id, "w1", now=100.0, ttl=10.0)
        # would expire at 110; heartbeats walk the expiry forward
        for now in (105.0, 112.0, 119.0):
            flags = store.heartbeat(job.id, "w1", now=now, ttl=10.0)
            assert flags == {"cancel_requested": False,
                             "pause_requested": False}
        # claim alive at t=125 -> recover() must not touch it
        assert store.recover(now=125.0) == []

    def test_expired_claim_recovered_with_attempt_bump(self, store):
        job = seeded_job(store)
        assert store.claim(job.id, "w1", now=100.0, ttl=10.0)
        assert store.recover(now=105.0) == []          # still alive
        assert store.recover(now=111.0) == [job.id]    # expired
        doc = store.get(job.id)
        assert doc["state"] == "queued"
        assert doc["attempt"] == 1
        assert doc["worker"] is None
        # the dead worker's next heartbeat reports the lost claim
        assert store.heartbeat(job.id, "w1", now=112.0, ttl=10.0) \
            is None

    def test_recover_reclaims_own_worker_immediately(self, store):
        """A restarted worker (same id) owns nothing: its old claims
        are re-queued without waiting out the TTL."""
        job = seeded_job(store)
        assert store.claim(job.id, "w1", now=100.0, ttl=300.0)
        assert store.recover(now=101.0) == []           # not expired
        assert store.recover(now=101.0, worker="w1") == [job.id]

    def test_stale_write_after_takeover_is_dropped(self, store):
        job = seeded_job(store)
        assert store.claim(job.id, "w1", now=100.0, ttl=10.0)
        store.recover(now=111.0)                        # takeover
        job.state = "done"
        assert store.update(job.to_store_doc(), worker="w1") is False
        assert store.get(job.id)["state"] == "queued"
        # an unguarded write (store-side authority) still lands
        assert store.update(store.get(job.id)) is True

    def test_heartbeat_never_resurrects_terminal_state(self, store):
        job = seeded_job(store)
        assert store.claim(job.id, "w1", now=100.0, ttl=30.0)
        job.state = "done"
        assert store.update(job.to_store_doc(), worker="w1")
        stale = dict(store.get(job.id))
        stale["state"] = "running"
        store.heartbeat(job.id, "w1", now=101.0, ttl=30.0, doc=stale)
        assert store.get(job.id)["state"] == "done"

    def test_request_cancel_semantics(self, store):
        queued = seeded_job(store)
        assert store.request_cancel(queued.id) == "cancelled"
        assert store.get(queued.id)["state"] == "cancelled"
        assert store.request_cancel(queued.id) is None  # terminal
        running = seeded_job(store)
        assert store.claim(running.id, "w1", now=100.0, ttl=30.0)
        assert store.request_cancel(running.id) == "requested"
        flags = store.heartbeat(running.id, "w1", now=101.0, ttl=30.0)
        assert flags == {"cancel_requested": True,
                         "pause_requested": False}
        assert store.request_cancel("nope") is None

    def test_request_pause_semantics(self, store):
        """The flag reaches the owner through the claim (a queued
        job) or the heartbeat (a claimed one); every requeue -- a
        resume or a crash recovery -- clears it."""
        job = seeded_job(store)
        assert store.request_pause(job.id) == "queued"
        won = store.claim_next("w1", token="c1", now=100.0, ttl=30.0)
        assert won["doc"]["pause_requested"] is True
        assert store.heartbeat(job.id, "w1", now=101.0, ttl=30.0) == \
            {"cancel_requested": False, "pause_requested": True}
        assert store.recover(now=200.0) == [job.id]
        won = store.claim_next("w2", token="c2", now=201.0, ttl=30.0)
        assert won["doc"]["pause_requested"] is False
        assert store.request_pause(job.id) == "scheduled"
        assert store.update(dict(store.get(job.id), state="paused"),
                            worker="w2")
        assert store.request_pause(job.id) == "paused"
        assert store.requeue(job.id)
        won = store.claim_next("w1", token="c3", now=300.0, ttl=30.0)
        assert won["doc"]["pause_requested"] is False
        assert store.update(dict(store.get(job.id), state="done"),
                            worker="w1")
        assert store.request_pause(job.id) is None      # terminal
        assert store.request_pause("nope") is None

    def test_each_entry_into_the_queue_is_stamped(self, store):
        """``queued_at`` -- a claimer's queue-wait origin -- is the
        store's wall clock at admission, at a resume and at a crash
        requeue, never an earlier entry's."""
        t0 = time.time()
        out = store.enqueue(new_doc("a"), token="s1", max_queued=9)
        first = store.get(out["id"])["queued_at"]
        assert t0 <= first <= time.time()
        assert store.claim_next("w", token="c1", now=t0,
                                ttl=30.0)["doc"]["queued_at"] == first
        assert store.update(dict(store.get(out["id"]), state="paused"),
                            worker="w")
        time.sleep(0.01)
        assert store.requeue(out["id"])
        resumed = store.get(out["id"])["queued_at"]
        assert resumed > first
        assert store.claim_next("w", token="c2", now=t0, ttl=1.0)
        time.sleep(0.01)
        assert store.recover(now=t0 + 2.0) == [out["id"]]
        assert store.get(out["id"])["queued_at"] > resumed

    def test_requeue_from_paused(self, store):
        job = seeded_job(store, state="paused")
        assert store.requeue(job.id) is True
        assert store.get(job.id)["state"] == "queued"
        assert store.requeue(job.id) is False           # already queued

    def test_event_log_roundtrip(self, store):
        a = seeded_job(store)
        b = seeded_job(store)
        store.append_event(a.id, {"event": "submitted"})
        store.append_event(b.id, {"event": "submitted"})
        store.append_event(a.id, {"event": "leased", "lease": "L1"})
        assert [e["event"] for e in store.events(a.id)] == \
            ["submitted", "leased"]
        assert [e["event"] for e in store.events(b.id)] == ["submitted"]

    def test_cache_roundtrip_and_stats(self, store):
        key = spec_hash(JobSpec(kind="force_eval", params={"n": 64}))
        assert store.cache_get(key) is None
        store.cache_put(key, "d" * 64, {"digest": "d" * 64, "n": 64})
        assert store.cache_get(key) == {"digest": "d" * 64, "n": 64}
        stats = store.cache_stats()
        assert stats["entries"] == 1 and stats["hits"] == 1

    def test_ids_insert_once_and_unknown_ids_are_typed(self, store):
        assert_id_rules(store)

    def test_cache_hits_counter_never_goes_down(self, store):
        """``hits`` counts served reads: evicting or re-putting the
        entry that was hit must not take them back, and a database
        file remembers them across a reopen."""
        store.cache_put("a" * 64, None, {"pad": "x" * 100})
        assert store.cache_get("a" * 64) and store.cache_get("a" * 64)
        store.cache_put("a" * 64, None, {"pad": "y" * 100})   # re-put
        assert store.cache_stats()["hits"] == 2
        store.cache_budget = 150          # room for one entry
        store.cache_put("b" * 64, None, {"pad": "z" * 100})
        stats = store.cache_stats()
        assert stats["evictions"] == 1 and stats["entries"] == 1
        assert stats["hits"] == 2
        if store.kind == "sqlite":
            store.close()
            again = SQLiteJobStore(store.path)
            assert again.cache_stats()["hits"] == 2
            again.close()

    def test_tenant_active_counts_non_terminal(self, store):
        """``enqueue``'s quota counts a tenant's queued, claimed and
        paused jobs, never its finished ones, and the queue bound
        counts queued jobs store-wide; a refusal writes nothing."""
        seeded_job(store, tenant="a")
        seeded_job(store, tenant="a", state="running")
        seeded_job(store, tenant="a", state="done")
        seeded_job(store, tenant="b")
        assert store.enqueue(new_doc("a"), token="t1", max_queued=9,
                             max_active=2) == \
            {"refused": "quota", "queued": 2, "active": 2}
        assert store.enqueue(new_doc("b"), token="t2", max_queued=9,
                             max_active=2) == \
            {"id": "j000005", "seq": 5, "queued": 3}
        assert store.enqueue(new_doc("b"), token="t3", max_queued=9,
                             max_active=2)["refused"] == "quota"
        assert store.enqueue(new_doc("c"), token="t4",
                             max_queued=3) == \
            {"refused": "queue", "queued": 3}
        assert [d["id"] for d in store.list()][-1] == "j000005"
        assert store.allocate() == ("j000006", 6)

    def test_tenant_load_counts_jobs_past_the_queue(self, store):
        """``claim_next``'s fair share: among equal priorities the
        tenant with the fewest claimed, paused or finished jobs goes
        first, then the lowest seq."""
        seeded_job(store, tenant="a")
        seeded_job(store, tenant="a", state="running")
        seeded_job(store, tenant="a", state="done")
        seeded_job(store, tenant="b", state="paused")
        seeded_job(store, tenant="c")
        assert store.counts() == {"queued": 2, "running": 1,
                                  "done": 1, "paused": 1}
        first = store.claim_next("w", token="c1", now=100.0, ttl=30.0)
        assert (first["doc"]["id"], first["queued"]) == ("j000005", 1)
        assert (first["doc"]["state"], first["doc"]["worker"]) == \
            ("scheduled", "w")
        assert store.claim_next("w", token="c2", now=100.0,
                                ttl=30.0)["doc"]["id"] == "j000001"
        assert store.claim_next("w", token="c3", now=100.0, ttl=30.0) \
            == {"doc": None, "queued": 0, "hit": None}
        assert store.get("j000001")["worker"] == "w"

    def test_resent_compound_ops_return_their_first_outcome(self, store):
        """A resent ``enqueue`` (same token) queues no twin; a resent
        ``claim_next`` returns the job it won while the claim holds."""
        first = store.enqueue(new_doc("a"), token="s1", max_queued=9)
        assert store.enqueue(new_doc("a"), token="s1",
                             max_queued=9) == first
        other = store.enqueue(new_doc("a"), token="s2", max_queued=9)
        assert [d["id"] for d in store.queued()] == \
            [first["id"], other["id"]]
        won = store.claim_next("w", token="c1", now=100.0, ttl=30.0)
        again = store.claim_next("w", token="c1", now=100.0, ttl=30.0)
        assert won["doc"] == again["doc"] and won["doc"]["id"] == \
            first["id"]
        assert again["queued"] == 1
        # another worker's token, or a claim lost since, wins nothing
        assert store.claim_next("v", token="c1", now=100.0,
                                ttl=30.0)["doc"]["id"] == other["id"]
        assert store.recover(now=100.0, worker="w") == [first["id"]]
        assert store.claim_next("w", token="c1", now=100.0,
                                ttl=30.0)["doc"]["id"] == first["id"]
        assert store.get(first["id"])["attempt"] == 1

    def test_events_ride_with_their_state_write(self, store):
        done = {"event": "done", "t_wall": 1.0}
        out = store.enqueue(new_doc("a"), token="e1", max_queued=9,
                            events=[{"event": "submitted"}])
        jid = out["id"]
        assert store.claim_next("w", token="c", now=1.0,
                                ttl=30.0)["doc"]["id"] == jid
        doc = dict(store.get(jid), state="done")
        assert store.update(doc, worker="intruder",
                            events=[done]) is False
        assert store.update(doc, worker="w", events=[done]) is True
        assert store.events(jid) == [{"event": "submitted"}, done]

    def test_verify_clean_store(self, store):
        seeded_job(store)
        assert store.verify() == []


class TestOpenStore:
    def test_coercions(self, tmp_path, monkeypatch):
        assert open_store(None).kind == "memory"
        # ":memory:" is one store however it is spelled: nothing on
        # disk, and verify() is the real sweep, not a constant
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for m in (open_store(None), open_store(":memory:"),
                  SQLiteJobStore(":memory:"), MemoryJobStore()):
            assert m.kind == "memory"
            job = seeded_job(m)
            m.append_event(job.id, {"event": "submitted"})
            assert m.verify() == []
            m._db.execute("UPDATE jobs SET doc = doc || ' '")
            m._db.execute("UPDATE events SET doc = doc || ' '")
            findings = m.verify()
            assert any("jobs" in f and "SHA-256" in f for f in findings)
            assert any("events" in f and "SHA-256" in f
                       for f in findings)
            with pytest.raises(StoreCorrupt):
                m.events(job.id)
            m.close()
        assert list(cwd.iterdir()) == []
        s = SQLiteJobStore(tmp_path / "a.db")
        assert open_store(s) is s
        s.close()
        t = open_store(tmp_path / "sub" / "b.db")
        assert t.kind == "sqlite" and (tmp_path / "sub" / "b.db").exists()
        t.close()


#: lifecycle edges the reopen sweep kills at: (state, claimed)
_EDGES = [("queued", False), ("scheduled", True), ("running", True),
          ("paused", False), ("done", False)]


class TestKillAndReopen:
    """Abandon the handle (simulated crash) at every lifecycle edge;
    a fresh store on the same file sees exactly what was written."""

    @pytest.mark.parametrize("state,claimed", _EDGES)
    def test_reopen_sees_the_edge(self, tmp_path, state, claimed):
        s1 = SQLiteJobStore(tmp_path / "jobs.db")
        job = seeded_job(s1)
        store_claims = claimed or state in ("running",)
        if store_claims:
            assert s1.claim(job.id, "w1", now=time.time(), ttl=0.2)
        if state != "queued" and not (state == "scheduled"):
            job.state = state
            s1.update(job.to_store_doc(),
                      worker="w1" if store_claims else None)
        s1.append_event(job.id, {"event": "edge", "state": state})
        # crash: no close(); the WAL handles the abandoned handle
        s2 = SQLiteJobStore(tmp_path / "jobs.db")
        doc = s2.get(job.id)
        assert doc["state"] == state
        assert [e["state"] for e in s2.events(job.id)] == [state]
        assert s2.verify() == []
        # scheduled/running edges: the orphaned claim expires and the
        # job becomes claimable work again
        requeued = s2.recover(now=time.time() + 1.0)
        if state in ("scheduled", "running"):
            assert requeued == [job.id]
            assert s2.get(job.id)["attempt"] == 1
        else:
            assert requeued == []
        s1.close()
        s2.close()

    def test_seq_allocation_survives_reopen(self, tmp_path):
        s1 = SQLiteJobStore(tmp_path / "jobs.db")
        id1, seq1 = s1.allocate()
        s2 = SQLiteJobStore(tmp_path / "jobs.db")
        id2, seq2 = s2.allocate()
        assert seq2 == seq1 + 1 and id2 != id1
        s1.close()
        s2.close()

    def test_cache_survives_reopen(self, tmp_path):
        s1 = SQLiteJobStore(tmp_path / "jobs.db")
        s1.cache_put("k" * 64, "dig", {"digest": "dig", "x": 1})
        s2 = SQLiteJobStore(tmp_path / "jobs.db")
        assert s2.cache_get("k" * 64) == {"digest": "dig", "x": 1}
        s1.close()
        s2.close()

    def test_handles_share_one_event_order(self, tmp_path):
        """Handles on one file append into one sequence: a fresh
        handle reads every event in append order, a crashed handle's
        included, and its own next append reaches the others."""
        path = tmp_path / "jobs.db"
        s1, s2 = SQLiteJobStore(path), SQLiteJobStore(path)
        job = seeded_job(s1)
        for i in range(6):
            (s1, s2)[i % 2].append_event(job.id,
                                         {"event": "step", "step": i})
        crashed = SQLiteJobStore(path)
        crashed.append_event(job.id, {"event": "step", "step": 6})
        # crash: no close() on ``crashed`` before the fresh handle reads
        fresh = SQLiteJobStore(path)
        assert [e["step"] for e in fresh.events(job.id)] == \
            list(range(7))
        fresh.append_event(job.id, {"event": "resumed"})
        for s in (s1, s2, crashed, fresh):
            got = s.events(job.id)
            assert len(got) == 8 and got[-1] == {"event": "resumed"}
        assert fresh.verify() == []
        for s in (s1, s2, crashed, fresh):
            s.close()


class TestDamageDetection:
    """Damage is always detected and typed, never served."""

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_job_row_tamper_is_typed(self, tmp_path_factory, seed):
        """A torn row payload (byte flipped under SQLite's nose) in
        the jobs or the events table raises StoreCorrupt on read and
        shows in verify() under that table's name."""
        for table in ("jobs", "events"):
            tmp_path = tmp_path_factory.mktemp("row")
            s = SQLiteJobStore(tmp_path / "jobs.db")
            job = seeded_job(s)
            s.append_event(job.id, {"event": "submitted",
                                    "tenant": "default"})
            s.close()
            db = sqlite3.connect(tmp_path / "jobs.db")
            text = db.execute(f"SELECT doc FROM {table}").fetchone()[0]
            i = seed % len(text)
            tampered = text[:i] + chr((ord(text[i]) + 1) % 128) + \
                text[i + 1:]
            db.execute(f"UPDATE {table} SET doc = ?", (tampered,))
            db.commit()
            db.close()
            s = SQLiteJobStore(tmp_path / "jobs.db")
            if table == "jobs":
                with pytest.raises(StoreCorrupt):
                    s.get(job.id)
                with pytest.raises(StoreCorrupt):
                    s.list()
            else:
                with pytest.raises(StoreCorrupt):
                    s.events(job.id)
                assert s.get(job.id)["id"] == job.id
            findings = s.verify()
            assert findings and all(
                f.startswith(f"{table}: ") and "SHA-256" in f
                for f in findings), findings
            s.close()

    def test_cache_row_tamper_is_a_miss_never_wrong(self, tmp_path):
        s = SQLiteJobStore(tmp_path / "jobs.db")
        s.cache_put("k" * 64, "dig", {"digest": "dig", "value": 42})
        s.close()
        db = sqlite3.connect(tmp_path / "jobs.db")
        db.execute("UPDATE cache SET result = replace(result,"
                   " '42', '43')")
        db.commit()
        db.close()
        s = SQLiteJobStore(tmp_path / "jobs.db")
        assert s.cache_get("k" * 64) is None
        assert s.cache_stats()["dropped"] == 1
        assert s.cache_stats()["entries"] == 0
        s.close()

    def test_truncated_database_is_typed(self, tmp_path):
        s = SQLiteJobStore(tmp_path / "jobs.db")
        for _ in range(8):
            seeded_job(s)
        s.close()
        corrupt_file(tmp_path / "jobs.db", mode="truncate", offset=40)
        with pytest.raises(StoreError):
            SQLiteJobStore(tmp_path / "jobs.db")

    def test_flipped_header_is_typed(self, tmp_path):
        s = SQLiteJobStore(tmp_path / "jobs.db")
        seeded_job(s)
        s.close()
        corrupt_file(tmp_path / "jobs.db", mode="flip", offset=0)
        with pytest.raises(StoreCorrupt):
            SQLiteJobStore(tmp_path / "jobs.db")


class TestTransactionBracket:
    """Whatever is raised inside ``_txn()`` rolls the whole op back,
    releases the lock and leaves the connection usable."""

    def _still_serves(self, s):
        healthy = seeded_job(s)
        assert s.claim(healthy.id, "w2", now=time.time(), ttl=30.0)
        assert s.get(healthy.id)["worker"] == "w2"

    def test_corrupt_doc_inside_claim_rolls_the_cas_back(self, tmp_path):
        s = SQLiteJobStore(tmp_path / "jobs.db")
        job = seeded_job(s)
        side = sqlite3.connect(tmp_path / "jobs.db")
        side.execute("UPDATE jobs SET doc = doc || ' '")
        side.commit()
        # the state CAS lands, then _patch_doc meets the bad digest
        with pytest.raises(StoreCorrupt):
            s.claim(job.id, "w1", now=time.time(), ttl=30.0)
        assert side.execute(
            "SELECT state, claimed_by, claim_expires FROM jobs"
            " WHERE id = ?", (job.id,)).fetchone() == \
            ("queued", None, None)
        side.close()
        self._still_serves(s)
        s.close()

    def test_error_inside_cache_put_eviction_rolls_the_put_back(
            self, tmp_path, monkeypatch):
        s = SQLiteJobStore(tmp_path / "jobs.db", cache_budget=150)
        s.cache_put("a" * 64, None, {"pad": "x" * 100})

        def boom(key):
            raise RuntimeError("mid-eviction")
        with monkeypatch.context() as m:
            m.setattr(s, "_bump_meta_counter", boom)
            with pytest.raises(RuntimeError, match="mid-eviction"):
                s.cache_put("b" * 64, None, {"pad": "y" * 100})
        side = sqlite3.connect(tmp_path / "jobs.db")
        assert side.execute("SELECT key FROM cache").fetchall() == \
            [("a" * 64,)]
        side.close()
        assert s.cache_stats()["evictions"] == 0
        s.cache_put("b" * 64, None, {"pad": "y" * 100})
        assert s.cache_stats()["evictions"] == 1
        assert s.cache_get("b" * 64) == {"pad": "y" * 100}
        self._still_serves(s)
        s.close()


class TestLegacyDocuments:
    """Stores written before the ``kernels`` and ``engine`` spec
    fields were retired carry them in every job row; those rows must
    still load, run and be persisted again without them."""

    @pytest.mark.parametrize("key,value", [
        ("kernels", None), ("kernels", "numpy"), ("engine", "serial"),
    ], ids=["None", "numpy", "engine-serial"])
    def test_stored_kernels_key_loads_and_finishes(self, tmp_path, key,
                                                   value):
        store = SQLiteJobStore(tmp_path / "jobs.db")
        jid, seq = store.allocate()
        job = Job(spec=JobSpec(kind="force_eval", params={"n": 64}),
                  id=jid)
        job.seq = seq
        store.insert({**job.to_store_doc(), key: value})
        assert store.get(jid)[key] == value
        assert Job.from_store_doc(store.get(jid)).spec == job.spec
        s = Scheduler(slots=1, workdir=tmp_path / "work", store=store,
                      poll_interval=0.02).start()
        try:
            assert s.wait(jid, timeout=120)
            done = s.get(jid)
            assert done.state == "done", (done.state, done.error)
            assert key not in done.to_dict()
            assert key not in store.get(jid)
            assert store.get(jid)["state"] == "done"
        finally:
            s.stop(drain=False)
            store.close()

    def test_file_without_the_state_index_gains_it(self, tmp_path):
        """A file written before the ``jobs(state, tenant)`` index
        gains it on open, and the queue read uses it."""
        path = tmp_path / "jobs.db"
        old = SQLiteJobStore(path)
        jid = seeded_job(old).id
        old._db.execute("DROP INDEX jobs_by_state")
        old.close()
        store = SQLiteJobStore(path)
        try:
            plan = store._db.execute(
                "EXPLAIN QUERY PLAN SELECT doc FROM jobs"
                " WHERE state = 'queued'").fetchall()
            assert "jobs_by_state" in str(plan)
            assert [d["id"] for d in store.queued()] == [jid]
            assert store.verify() == []
        finally:
            store.close()

    def test_file_without_the_pause_flag_gains_it(self, tmp_path):
        """A file written before pause requests were store rows (no
        ``pause_requested`` column) gains the column on open; its
        queued job takes a pause request and runs to ``paused``."""
        path = tmp_path / "jobs.db"
        old = SQLiteJobStore(path)
        jid = old.enqueue(
            Job(spec=JobSpec(kind="run", params={"ngrid": 6, "steps": 3,
                                                 "z_final": 12.0},
                             checkpoint_every=1),
                id="unnamed").to_store_doc(),
            token="t", max_queued=9)["id"]
        old.close()
        db = sqlite3.connect(path)
        db.execute("ALTER TABLE jobs DROP COLUMN pause_requested")
        db.close()
        store = SQLiteJobStore(path)
        s = Scheduler(slots=1, workdir=tmp_path / "work", store=store,
                      poll_interval=0.02)
        try:
            assert store.verify() == []
            assert s.pause(jid).state == "queued"
            s.start()
            assert s.wait(jid, timeout=120)
            assert s.get(jid).state == "paused"
        finally:
            s.stop(drain=False)
            store.close()

    def test_file_without_events_table_upgrades_in_place(self, tmp_path):
        """A store file from before events were rows (no ``events``
        table; events in a ``jobs.db.events.jsonl`` sidecar) opens,
        gains the table, verifies clean and finishes its queued job.
        The sidecar is neither read nor reported: the history it holds
        is not imported."""
        path = tmp_path / "jobs.db"
        old = SQLiteJobStore(path)
        jid = seeded_job(old).id
        old.close()
        db = sqlite3.connect(path)
        db.execute("DROP TABLE events")
        db.commit()
        db.close()
        sidecar = tmp_path / "jobs.db.events.jsonl"
        sidecar.write_text('{"seq": 1, "job": "%s", "event": {"ev' % jid)
        out = io.StringIO()
        assert cli_main(["store", "verify", str(path)], out=out) == 0, \
            out.getvalue()
        store = SQLiteJobStore(path)
        assert store.verify() == [] and store.events(jid) == []
        s = Scheduler(slots=1, workdir=tmp_path / "work", store=store,
                      poll_interval=0.02).start()
        try:
            assert s.wait(jid, timeout=120)
            assert store.get(jid)["state"] == "done"
            assert [e["event"] for e in s.events(jid)] == \
                ["leased", "done"]
        finally:
            s.stop(drain=False)
            store.close()
        assert sidecar.read_text().endswith('"ev')


class TestCrashResume:
    """The acceptance path: a worker dies mid-run; a fresh scheduler
    on the same store resumes from the last-good checkpoint and
    reaches a bit-identical ``state_digest``."""

    #: enough ~5 ms steps that a pause requested after two of them
    #: still lands mid-run
    RUN = {"ngrid": 6, "steps": 40, "z_final": 12.0}

    def _spec(self):
        return JobSpec(kind="run", params=dict(self.RUN),
                       checkpoint_every=1)

    def test_dead_worker_job_resumes_bit_identical(self, tmp_path):
        store = SQLiteJobStore(tmp_path / "jobs.db")
        # phase 1: run partway on worker A, checkpointing every step;
        # pause produces exactly the on-disk state a crash would leave
        A = Scheduler(slots=1, workdir=tmp_path / "work", store=store,
                      worker_id="A", poll_interval=0.02).start()
        job = A.submit(self._spec())
        deadline = time.monotonic() + 60
        while job.steps_done < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert job.steps_done >= 2, "job never progressed"
        A.pause(job.id)
        assert A.wait(job.id, timeout=60)
        assert job.state == "paused"
        A.stop(drain=False)
        # phase 2: doctor the store row into what a SIGKILLed worker
        # leaves behind -- running, claimed by a dead worker, expired
        doc = store.get(job.id)
        doc["state"] = "running"
        doc["worker"] = "dead"
        assert store.update(doc)
        db = sqlite3.connect(tmp_path / "jobs.db")
        db.execute("UPDATE jobs SET state = 'running',"
                   " claimed_by = 'dead', claim_expires = ?"
                   " WHERE id = ?", (time.time() - 60.0, job.id))
        db.commit()
        db.close()
        # phase 3: a fresh scheduler recovers, re-claims, resumes
        B = Scheduler(slots=1, workdir=tmp_path / "work", store=store,
                      worker_id="B", claim_ttl=10.0,
                      poll_interval=0.02, cache=False).start()
        assert B.wait(job.id, timeout=120)
        resumed = B.get(job.id)
        assert resumed.state == "done"
        assert resumed.worker == "B"
        assert resumed.attempt == 1
        events = store.events(job.id)
        assert any(e["event"] == "resumed" for e in events)
        digest = resumed.result["digest"]
        # reference: the same spec end-to-end with no interruption
        ref = B.submit(JobSpec(kind="run", params=dict(self.RUN)))
        assert B.wait(ref.id, timeout=120)
        assert B.get(ref.id).state == "done"
        assert B.get(ref.id).result["digest"] == digest
        B.stop(drain=False)
        store.close()

    def test_graceful_drain_requeues_via_checkpoint(self, tmp_path):
        """stop() on a durable store checkpoints running jobs and
        re-queues them instead of cancelling."""
        store = SQLiteJobStore(tmp_path / "jobs.db")
        A = Scheduler(slots=1, workdir=tmp_path / "work", store=store,
                      worker_id="A", poll_interval=0.02).start()
        job = A.submit(self._spec())
        deadline = time.monotonic() + 60
        while job.steps_done < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        A.stop()                     # drain=auto -> on for sqlite
        doc = store.get(job.id)
        assert doc["state"] in ("queued", "done")
        if doc["state"] == "queued":
            B = Scheduler(slots=1, workdir=tmp_path / "work",
                          store=store, worker_id="B",
                          poll_interval=0.02, cache=False).start()
            assert B.wait(job.id, timeout=120)
            assert B.get(job.id).state == "done"
            B.stop(drain=False)
        store.close()
