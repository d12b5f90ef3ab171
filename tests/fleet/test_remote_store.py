"""RemoteJobStore against a live StoreServer: the whole JobStore
contract over real TCP, plus URL dispatch, typed server errors and
the shared bounded cache."""

import threading
import time

import pytest

from repro.fleet import (DEFAULT_STORE_PORT, RemoteJobStore,
                         StoreUnavailable)
from repro.serve import JobSpec, SQLiteJobStore, StoreError, open_store
from repro.serve.store import spec_hash


def seeded_doc(remote, **kw):
    """Allocate + insert one queued job document *through the wire*;
    returns it."""
    from repro.serve import Job
    jid, seq = remote.allocate()
    job = Job(spec=JobSpec(kind="force_eval",
                           params={"n": 64, "seed": 1}, **kw), id=jid)
    job.seq = seq
    doc = job.to_store_doc()
    remote.insert(doc)
    return doc


class TestOpenStoreDispatch:
    def test_url_opens_a_remote_store(self, store_server):
        st = open_store(store_server.url)
        assert isinstance(st, RemoteJobStore)
        assert st.kind == "remote"
        assert st.url == store_server.url

    def test_default_port_applies(self):
        st = open_store("http://stores.example")
        assert st.port == DEFAULT_STORE_PORT

    def test_https_is_refused(self):
        with pytest.raises(StoreError, match="http"):
            open_store("https://host:1234")

    def test_url_with_path_is_refused(self):
        with pytest.raises(StoreError):
            RemoteJobStore("http://host:1234/rpc/v1")

    def test_path_still_opens_sqlite(self, tmp_path):
        st = open_store(tmp_path / "x.db")
        try:
            assert st.kind == "sqlite"
        finally:
            st.close()


class TestContractOverTcp:
    def test_allocate_insert_get_list(self, remote):
        doc = seeded_doc(remote)
        got = remote.get(doc["id"])
        assert got["id"] == doc["id"]
        assert got["state"] == "queued"
        assert [d["id"] for d in remote.list()] == [doc["id"]]
        assert remote.get("j999999") is None

    def test_claim_cas_over_the_wire(self, remote, store_server):
        """Two clients racing the same claim: exactly one winner --
        the CAS lives in the backing store, not the client."""
        doc = seeded_doc(remote)
        other = RemoteJobStore(store_server.url, retries=0)
        barrier = threading.Barrier(2)
        wins = []

        def contend(st, name):
            barrier.wait()
            wins.append(st.claim(doc["id"], name, now=time.time(),
                                 ttl=30.0))

        threads = [threading.Thread(target=contend, args=a)
                   for a in ((remote, "a"), (other, "b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(wins) == 1

    def test_heartbeat_and_guarded_update(self, remote):
        doc = seeded_doc(remote)
        assert remote.claim(doc["id"], "w1", now=time.time(), ttl=5.0)
        row = remote.heartbeat(doc["id"], "w1", now=time.time(),
                               ttl=5.0)
        assert row == {"cancel_requested": False,
                       "pause_requested": False}
        assert remote.heartbeat(doc["id"], "intruder",
                                now=time.time(), ttl=5.0) is None
        claimed = remote.get(doc["id"])
        claimed["state"] = "running"
        assert remote.update(claimed, worker="w1")
        assert not remote.update(claimed, worker="intruder")

    def test_recover_requeues_expired_claims(self, remote):
        doc = seeded_doc(remote)
        assert remote.claim(doc["id"], "dead", now=time.time() - 60.0,
                            ttl=1.0)
        requeued = remote.recover(now=time.time())
        assert requeued == [doc["id"]]
        fresh = remote.get(doc["id"])
        assert fresh["state"] == "queued"
        assert fresh["attempt"] == 1

    def test_events_round_trip(self, remote):
        doc = seeded_doc(remote)
        remote.append_event(doc["id"], {"event": "submitted",
                                        "t_wall": 1.0})
        remote.append_event(doc["id"], {"event": "leased",
                                        "t_wall": 2.0})
        events = remote.events(doc["id"])
        assert [e["event"] for e in events] == ["submitted", "leased"]

    def test_events_after_reads_only_the_rest(self, remote,
                                              store_server):
        """``events(after=k)`` ships the rows past the first k; an
        envelope with no ``after``, as a client from before the
        argument sends it, is answered with the whole log."""
        from repro.fleet.protocol import pack_request, unpack_response
        from repro.serve.transport import exchange
        doc = seeded_doc(remote)
        log = [{"event": "step", "step": k} for k in range(4)]
        for event in log:
            remote.append_event(doc["id"], event)
        assert remote.events(doc["id"], after=3) == log[3:]
        assert remote.events(doc["id"], after=9) == []
        with exchange("127.0.0.1", store_server.port, "POST", "/rpc/v1",
                      pack_request("events", {"job_id": doc["id"]}),
                      timeout=10.0) as resp:
            assert unpack_response(resp.read()) == log

    def test_cancel_and_requeue(self, remote):
        doc = seeded_doc(remote)
        assert remote.request_cancel(doc["id"]) == "cancelled"
        assert not remote.requeue(doc["id"])

    def test_indexed_queries_answer_as_the_backing_store(self, remote,
                                                         backing):
        """The scheduler's indexed queries are RPC ops: through the
        wire they give exactly the backing store's answers."""
        docs = [seeded_doc(remote, tenant=t)
                for t in ("a", "a", "b", "b", "c")]
        assert remote.claim(docs[0]["id"], "w", now=time.time(),
                            ttl=30.0)
        assert remote.claim(docs[2]["id"], "w", now=time.time(),
                            ttl=30.0)
        assert remote.request_cancel(docs[2]["id"]) == "requested"
        assert remote.request_cancel(docs[3]["id"]) == "cancelled"
        assert remote.queued() == backing.queued()
        assert [d["id"] for d in remote.queued()] == \
            [docs[1]["id"], docs[4]["id"]]
        assert remote.counts() == backing.counts() == \
            {"queued": 2, "scheduled": 2, "cancelled": 1}
        # the compound ops bound and rank on the backing store's rows:
        # active a 2, b 1, c 1; past the queue a 1, b 2, c 0
        for tenant, active in (("a", 2), ("b", 1), ("c", 1)):
            assert remote.enqueue(
                dict(docs[0], tenant=tenant), token=f"q-{tenant}",
                max_queued=9, max_active=active) == \
                {"refused": "quota", "queued": 2, "active": active}
        out = remote.claim_next("w", token="c1", now=time.time(),
                                ttl=30.0)
        assert (out["doc"]["id"], out["queued"]) == (docs[4]["id"], 1)
        assert out["doc"] == backing.get(docs[4]["id"])
        assert remote.claim_next("w", token="c2", now=time.time(),
                                 ttl=30.0)["doc"]["id"] == docs[1]["id"]
        assert backing.queued() == []

    def test_id_rules_hold_over_the_wire(self, remote):
        from tests.serve.test_store_durability import assert_id_rules
        assert_id_rules(remote)

    def test_typed_errors_propagate_without_retry(self, remote):
        """A server-side StoreError is an answer: it raises the same
        class client-side on the first trip (no retry storm)."""
        ghost = seeded_doc(remote)
        ghost["id"] = "j424242"
        t0 = time.monotonic()
        with pytest.raises(StoreError, match="no such job"):
            remote.update(ghost)
        # retries=2 with backoff 0.01 would add >= 0.03s; the typed
        # answer must come back in one round trip
        assert time.monotonic() - t0 < 1.0

    def test_oversize_request_is_refused_typed_with_no_retry(
            self, store_server):
        """A body above the server's cap is a 413 carrying a sealed
        ProtocolError -- an answer, so it is sent once, not re-sent as
        if the wire had damaged it."""
        from repro.fleet import ProtocolError
        from repro.fleet.netstore import MAX_BODY
        from repro.obs import MetricsRegistry
        metrics = MetricsRegistry()
        st = RemoteJobStore(store_server.url, retries=2, backoff=0.01,
                            metrics=metrics)
        with pytest.raises(ProtocolError, match="exceeds"):
            st.cache_put("k", None, {"blob": "x" * (MAX_BODY + 1)})
        assert metrics.counter("fleet.rpc_retries", "").value == 0
        assert st.cache_get("k") is None

    def test_verify_runs_server_side(self, remote):
        seeded_doc(remote)
        assert remote.verify() == []

    def test_unreachable_server_is_store_unavailable(self):
        st = RemoteJobStore("http://127.0.0.1:1", timeout=0.2,
                            retries=1, backoff=0.01)
        with pytest.raises(StoreUnavailable):
            st.list()


class TestSharedCache:
    def test_cache_round_trip_and_hit_count(self, remote):
        spec = JobSpec(kind="force_eval", params={"n": 64, "seed": 2})
        key = spec_hash(spec)
        result = {"digest": "d" * 64, "n": 64}
        remote.cache_put(key, result["digest"], result)
        assert remote.cache_get(key) == result
        assert remote.cache_get("nope" * 16) is None
        stats = remote.cache_stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1

    def test_budget_is_enforced_through_the_wire(self, tmp_path,
                                                 store_server_factory):
        """Puts from a remote client respect the *server's* byte
        budget: LRU eviction, counted, never over budget."""
        backing = SQLiteJobStore(tmp_path / "b.db", cache_budget=600)
        with store_server_factory(backing) as server:
            st = RemoteJobStore(server.url)
            for i in range(10):
                st.cache_put(f"k{i:02d}", None,
                             {"i": i, "pad": "x" * 100})
            stats = st.cache_stats()
            assert stats["budget"] == 600
            assert stats["bytes"] <= 600
            assert stats["evictions"] >= 5
            # newest entries survived, oldest were evicted
            assert st.cache_get("k09") is not None
            assert st.cache_get("k00") is None
        backing.close()

    def test_lru_recency_protects_hot_entries(self, tmp_path,
                                              store_server_factory):
        backing = SQLiteJobStore(tmp_path / "b.db", cache_budget=400)
        with store_server_factory(backing) as server:
            st = RemoteJobStore(server.url)
            st.cache_put("hot", None, {"pad": "h" * 80})
            st.cache_put("cold", None, {"pad": "c" * 80})
            assert st.cache_get("hot") is not None  # refresh recency
            for i in range(3):  # forces exactly one eviction
                st.cache_put(f"f{i}", None, {"pad": "f" * 80})
            assert st.cache_get("hot") is not None
            assert st.cache_get("cold") is None
        backing.close()


class TestRegistryOverTcp:
    def test_register_heartbeat_expire_deregister(self, remote):
        now = time.time()
        remote.fleet_register({"worker": "w1", "host": "h",
                               "state": "up"}, now=now, ttl=5.0)
        rows = remote.fleet_workers(now=now)
        assert [r["worker"] for r in rows] == ["w1"]
        assert rows[0]["live"]
        # TTL lapse flips live off without deleting the row
        stale = remote.fleet_workers(now=now + 60.0)
        assert not stale[0]["live"]
        assert remote.fleet_heartbeat("w1", now=now + 60.0, ttl=5.0,
                                      state="draining")
        rows = remote.fleet_workers(now=now + 60.0)
        assert rows[0]["live"] and rows[0]["state"] == "draining"
        assert remote.fleet_deregister("w1")
        assert not remote.fleet_deregister("w1")
        assert remote.fleet_workers(now=now) == []

    def test_fleet_summary_is_derived_client_side(self, remote):
        now = time.time()
        remote.fleet_register({"worker": "a", "state": "up"},
                              now=now, ttl=30.0)
        remote.fleet_register({"worker": "b", "state": "draining"},
                              now=now, ttl=30.0)
        remote.fleet_register({"worker": "dead", "state": "up"},
                              now=now - 100.0, ttl=1.0)
        summary = remote.fleet_summary(now=now)
        assert summary == {"workers": 3, "live": 2, "draining": 1}


class TestSchedulerOverTcp:
    def test_a_trace_over_the_body_cap_never_keeps_a_job_unfinished(
            self, backing, store_server, tmp_path):
        """A finished job's spans ride in its terminal row.  When that
        row is too large for the store server's body cap, the trace is
        dropped and the terminal state still lands (a long served run
        writes ~7 KB of spans per step; the real cap is 4 MiB)."""
        from repro.serve import Scheduler
        store_server.max_body = 4000  # a miss's traced row is ~6 KB
        sched = Scheduler(slots=1, workdir=tmp_path / "work",
                          store=store_server.url, cache=True,
                          poll_interval=0.02).start()
        try:
            spec = {"kind": "force_eval", "params": {"n": 64, "seed": 1}}
            miss, hit = (sched.submit(JobSpec(**spec)) for _ in "ab")
            assert sched.wait(miss.id, timeout=60)
            assert sched.wait(hit.id, timeout=60)
        finally:
            sched.stop(drain=False)
        assert backing.get(miss.id)["state"] == "done"
        assert "spans" not in backing.get(miss.id)
        assert backing.get(hit.id)["cache_hit"] is True
        assert {s["name"] for s in backing.get(hit.id)["spans"]} >= \
            {"serve.queue_wait", "serve.store.cache"}
