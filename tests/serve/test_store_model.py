"""``JobStore`` against a dict oracle: a hypothesis state machine.

Every rule makes one or a few store calls and the same move on a
plain-dict model of the contract (the method docstrings in
``repro.serve.store``); every step then reads the whole store back --
``list()``, ``queued()``, ``counts()`` -- and compares it with the
model.  The machine runs unedited against the three ways a scheduler
meets a store: ``:memory:``, a database file, and a
``RemoteJobStore`` over real TCP to a ``StoreServer``.

Time is the machine's own clock (``now`` arguments), so claim expiry
and worker liveness are enumerated, never slept for.
"""

import contextlib
import itertools
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule,
                                 run_state_machine_as_test)

from repro.fleet import RemoteJobStore
from repro.serve import JobSpec, MemoryJobStore, SQLiteJobStore
from repro.serve.jobs import Job

from tests.fleet.conftest import live_store_server

TENANTS = ("a", "b", "c")
WORKERS = ("w1", "w2")
CLAIMED = ("scheduled", "running")
TTL = 10.0
KEYS = ("k0", "k1", "k2")

SETTINGS = settings(derandomize=True, max_examples=30,
                    stateful_step_count=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

picks = st.integers(min_value=0, max_value=10 ** 6)

#: caller tokens of the compound ops, unique for the whole run
tokens = itertools.count()


def open_kind(kind, stack):
    """A fresh store of ``kind``, its teardown registered on
    ``stack``."""
    if kind == "memory":
        return MemoryJobStore()
    if kind == "file":
        root = tempfile.mkdtemp(prefix="repro-store-model-")
        stack.callback(shutil.rmtree, root, True)
        return SQLiteJobStore(Path(root) / "jobs.db")
    backing = MemoryJobStore()
    stack.callback(backing.close)
    server = stack.enter_context(live_store_server(backing))
    return RemoteJobStore(server.url, retries=0)


def canon_len(doc):
    return len(json.dumps(doc, separators=(",", ":")))


class StoreMachine(RuleBasedStateMachine):
    kind = "memory"

    def __init__(self):
        super().__init__()
        self.stack = contextlib.ExitStack()
        self.store = open_kind(self.kind, self.stack)
        self.now = 1000.0
        self.seq = 0
        #: job id -> the row as the contract describes it
        self.jobs = {}
        self.events = {}
        self.cache = {}
        self.hits = 0
        self.workers = {}

    def teardown(self):
        try:
            assert self.store.verify() == []
        finally:
            self.store.close()
            self.stack.close()

    # -- helpers -------------------------------------------------------
    def pick(self, n, states=None):
        ids = sorted(j for j, r in self.jobs.items()
                     if states is None or r["state"] in states)
        return ids[n % len(ids)] if ids else None

    def has(self, *states):
        return any(r["state"] in states for r in self.jobs.values())

    def new_row(self, jid, seq, tenant, priority, key=None):
        self.jobs[jid] = {"state": "queued", "tenant": tenant,
                          "priority": priority, "seq": seq,
                          "owner": None, "worker": None,
                          "expires": None, "cancel": False,
                          "pause": False, "attempt": 0, "key": key}
        self.events[jid] = []

    def lookup(self, key):
        """A counted cache read: the entry under ``key`` or None."""
        self.hits += key in self.cache
        return self.cache.get(key)

    def spec(self, tenant, priority):
        return JobSpec(kind="force_eval", params={"n": 64},
                       tenant=tenant, priority=priority)

    def release(self, row, state):
        row.update(state=state, owner=None, worker=None)

    # -- jobs ----------------------------------------------------------
    @initialize(tenants=st.lists(st.sampled_from(TENANTS), min_size=1,
                                 max_size=4))
    def seed(self, tenants):
        for i, tenant in enumerate(tenants):
            self.submit(tenant, i % 3)

    @rule(tenant=st.sampled_from(TENANTS),
          priority=st.integers(min_value=0, max_value=2))
    def submit(self, tenant, priority):
        jid, seq = self.store.allocate()
        self.seq += 1
        assert (jid, seq) == (f"j{self.seq:06d}", self.seq)
        job = Job(spec=self.spec(tenant, priority), id=jid)
        job.seq = seq
        self.store.insert(job.to_store_doc())
        self.new_row(jid, seq, tenant, priority)

    @precondition(lambda self: self.jobs)
    @rule(n=picks, worker=st.sampled_from(WORKERS),
          queued=st.booleans())
    def claim(self, n, worker, queued):
        """Claim a queued job, or (``queued`` false) any job."""
        jid = self.pick(n, ("queued",) if queued else None) \
            or self.pick(n)
        row = self.jobs[jid]
        won = self.store.claim(jid, worker, now=self.now, ttl=TTL)
        assert won == (row["state"] == "queued")
        if won:
            row.update(state="scheduled", owner=worker, worker=worker,
                       expires=self.now + TTL)

    @precondition(lambda self: self.jobs)
    @rule(n=picks, worker=st.none() | st.sampled_from(WORKERS),
          progress=st.booleans())
    def heartbeat(self, n, worker, progress):
        """A heartbeat by ``worker``, or (``None``) by a claimed job's
        owner."""
        jid = self.pick(n, CLAIMED if worker is None else None) \
            or self.pick(n)
        row = self.jobs[jid]
        worker = worker or row["owner"] or WORKERS[0]
        doc = None
        if progress:
            doc = dict(self.store.get(jid), state="running")
        flags = self.store.heartbeat(jid, worker, now=self.now, ttl=TTL,
                                     doc=doc)
        if row["owner"] != worker:
            assert flags is None
            return
        assert flags == {"cancel_requested": row["cancel"],
                         "pause_requested": row["pause"]}
        row["expires"] = self.now + TTL
        if doc is not None and row["state"] in CLAIMED:
            row["state"] = "running"

    @rule(dt=st.sampled_from([1.0, 6.0, 10.0, 11.0]))
    def tick(self, dt):
        self.now += dt

    @rule(worker=st.none() | st.sampled_from(WORKERS))
    def recover(self, worker):
        """Expire lapsed claims -- and, with ``worker``, every claim a
        restarted worker held."""
        got = self.store.recover(now=self.now, worker=worker)
        want = sorted(
            j for j, r in self.jobs.items() if r["state"] in CLAIMED
            and (r["expires"] is None or r["expires"] < self.now
                 or (worker is not None and r["owner"] == worker)))
        assert sorted(got) == want
        for jid in want:
            row = self.jobs[jid]
            self.release(row, "queued")
            row.update(expires=None, pause=False)
            row["attempt"] += 1

    @precondition(lambda self: self.has(*CLAIMED))
    @rule(n=picks, state=st.sampled_from(
        ["done", "failed", "cancelled", "paused"]),
          key=st.none() | st.sampled_from(KEYS),
          value=st.integers(0, 99))
    def finish(self, n, state, key, value):
        """The owner's guarded write of an outcome lands; a ``done``
        one made with a ``key`` caches its result minus the lease."""
        jid = self.pick(n, CLAIMED)
        row = self.jobs[jid]
        doc = dict(self.store.get(jid), state=state,
                   result={"v": value, "lease": "L0001"})
        assert self.store.update(doc, worker=row["owner"],
                                 cache_key=key) is True
        row["state"] = state
        if state == "done" and key is not None:
            self.cache[key] = {"v": value}

    @precondition(lambda self: self.jobs)
    @rule(n=picks, worker=st.sampled_from(WORKERS))
    def stale_write(self, n, worker):
        """A guarded write lands only for the claim holder."""
        jid = self.pick(n)
        row = self.jobs[jid]
        doc = self.store.get(jid)
        assert self.store.update(doc, worker=worker) == \
            (row["owner"] == worker)

    @precondition(lambda self: self.jobs)
    @rule(n=picks)
    def requeue(self, n):
        jid = self.pick(n)
        row = self.jobs[jid]
        won = self.store.requeue(jid)
        assert won == (row["state"] == "paused")
        if won:
            self.release(row, "queued")
            row.update(expires=None, pause=False)

    @rule(n=picks, whom=st.sampled_from(["any", "claimed", "ghost"]))
    def cancel(self, n, whom):
        jid = {"any": self.pick(n), "ghost": None,
               "claimed": self.pick(n, CLAIMED)}[whom] or "j999999"
        row = self.jobs.get(jid)
        got = self.store.request_cancel(jid)
        if row is None or row["state"] in ("done", "failed",
                                           "cancelled"):
            assert got is None
        elif row["state"] in ("queued", "paused"):
            assert got == "cancelled"
            self.release(row, "cancelled")
        else:
            assert got == "requested"
            row["cancel"] = True

    @rule(n=picks, ghost=st.booleans())
    def pause(self, n, ghost):
        """Flag a job to pause: any unfinished one, for its owner's
        heartbeat or its next claim; a requeue clears the flag."""
        jid = (None if ghost else self.pick(n)) or "j999999"
        row = self.jobs.get(jid)
        got = self.store.request_pause(jid)
        if row is None or row["state"] in ("done", "failed",
                                           "cancelled"):
            assert got is None
        else:
            assert got == row["state"]
            row["pause"] = True

    # -- event log -----------------------------------------------------
    @rule(n=picks, step=st.none() | st.integers(min_value=0, max_value=9))
    def event_log(self, n, step):
        """Append one event (``step``), or read a log back."""
        jid = self.pick(n) or "j999999"
        if step is None or jid not in self.jobs:
            assert self.store.events(jid) == self.events.get(jid, [])
            return
        event = {"event": "step", "step": step}
        self.store.append_event(jid, event)
        self.events[jid].append(event)

    @rule(n=picks, back=st.integers(min_value=-1, max_value=3))
    def event_suffix(self, n, back):
        """Read a log's last ``back`` events (none past its end) by
        skipping the ones before them."""
        jid = self.pick(n) or "j999999"
        log = self.events.get(jid, [])
        after = max(0, len(log) - back)
        assert self.store.events(jid, after=after) == log[after:]

    # -- result cache --------------------------------------------------
    @rule(key=st.sampled_from(KEYS), put=st.none() | st.integers(0, 99),
          digest=st.none() | st.just("d" * 64))
    def cache(self, key, put, digest):
        """Put (``put`` is the value) or get one entry, then read the
        figures."""
        if put is None:
            assert self.store.cache_get(key) == self.lookup(key)
        else:
            self.store.cache_put(key, digest, {"v": put})
            self.cache[key] = {"v": put}
        assert self.store.cache_stats() == {
            "entries": len(self.cache), "hits": self.hits,
            "dropped": 0, "evictions": 0, "budget": None,
            "bytes": sum(canon_len(v) for v in self.cache.values())}

    # -- worker registry -----------------------------------------------
    @rule(worker=st.sampled_from(WORKERS),
          op=st.sampled_from(["register", "up", "drain", "renew",
                              "deregister"]))
    def registry(self, worker, op):
        """Register, heartbeat (``up``/``drain`` move the state,
        ``renew`` keeps it) or deregister one worker, then read the
        registry."""
        if op == "register":
            self.store.fleet_register({"worker": worker, "host": "h",
                                       "slots": 1}, now=self.now,
                                      ttl=TTL)
            self.workers[worker] = {"state": "up",
                                    "expires": self.now + TTL}
        elif op == "deregister":
            assert self.store.fleet_deregister(worker) == \
                (worker in self.workers)
            self.workers.pop(worker, None)
        else:
            state = {"up": "up", "drain": "draining"}.get(op)
            known = self.store.fleet_heartbeat(worker, now=self.now,
                                               ttl=TTL, state=state)
            assert known == (worker in self.workers)
            if known:
                row = self.workers[worker]
                row["expires"] = self.now + TTL
                row["state"] = state or row["state"]
        got = [(w["worker"], w["state"], w["expires"], w["live"])
               for w in self.store.fleet_workers(now=self.now)]
        assert got == [(w, r["state"], r["expires"],
                        r["expires"] >= self.now)
                       for w, r in sorted(self.workers.items())]
        live = [r for r in self.workers.values()
                if r["expires"] >= self.now]
        assert self.store.fleet_summary(now=self.now) == {
            "workers": len(self.workers), "live": len(live),
            "draining": sum(r["state"] == "draining" for r in live)}

    # -- the compound ops ----------------------------------------------
    @rule(tenant=st.sampled_from(TENANTS),
          priority=st.integers(min_value=0, max_value=2),
          queue_room=st.integers(min_value=0, max_value=2),
          quota_room=st.none() | st.integers(min_value=0, max_value=1),
          key=st.none() | st.sampled_from(KEYS), resend=st.booleans())
    def enqueue(self, tenant, priority, queue_room, quota_room, key,
                resend):
        """Admission in one op: the queue bound, then the tenant's
        quota, then the insert -- ``done`` from the cache when its
        ``key`` holds a result, else queued with the key; a resend
        returns the first outcome.  The bounds sit at, just above or
        (``None``) far from the model's counts."""
        queued = sum(r["state"] == "queued" for r in self.jobs.values())
        active = sum(r["tenant"] == tenant and r["state"] in (
            "queued", "scheduled", "running", "paused")
            for r in self.jobs.values())
        max_queued = max(1, queued + queue_room)
        max_active = None if quota_room is None else \
            max(1, active + quota_room)
        token = f"s{next(tokens)}"
        doc = Job(spec=self.spec(tenant, priority),
                  id="unnamed").to_store_doc()
        spans = [{"name": "serve.admission"}]
        args = dict(token=token, max_queued=max_queued,
                    max_active=max_active, cache_key=key, now=self.now,
                    events=[{"event": "submitted"}])
        out = self.store.enqueue(dict(doc, spans=spans), **args)
        if queued >= max_queued:
            assert out == {"refused": "queue", "queued": queued}
        elif max_active is not None and active >= max_active:
            assert out == {"refused": "quota", "queued": queued,
                           "active": active}
        else:
            self.seq += 1
            jid = f"j{self.seq:06d}"
            self.new_row(jid, self.seq, tenant, priority, key)
            self.events[jid].append({"event": "submitted"})
            hit = self.lookup(key)
            assert {k: out[k] for k in ("id", "seq", "queued")} == {
                "id": jid, "seq": self.seq, "queued": queued + (not hit)}
            row = self.store.get(jid)
            if hit is None:
                assert "doc" not in out and "spans" not in row
            else:
                assert out["doc"] == row
                assert (row["state"], row["cache_hit"], row["result"],
                        row["started_at"], row["finished_at"],
                        row["spans"]) == ("done", True, hit, self.now,
                                          self.now, spans)
                self.jobs[jid]["state"] = "done"
                self.events[jid].append({
                    "event": "cache_hit", "t_wall": self.now,
                    "key": key[:12], "digest": None})
            assert self.store.events(jid) == self.events[jid]
        if resend:
            assert self.store.enqueue(dict(doc, spans=spans),
                                      **args) == out

    @rule(worker=st.sampled_from(WORKERS), resend=st.booleans())
    def claim_next(self, worker, resend):
        """The pick in one op: priority, then the tenant with the
        fewest jobs past the queue, then seq; a resend returns the
        job the first call won."""
        token = f"c{next(tokens)}"
        out = self.store.claim_next(worker, token=token, now=self.now,
                                    ttl=TTL)
        queued = [j for j, r in self.jobs.items()
                  if r["state"] == "queued"]
        if not queued:
            assert out == {"doc": None, "queued": 0, "hit": None}
            return
        load = {}
        for row in self.jobs.values():
            if row["state"] != "queued":
                load[row["tenant"]] = load.get(row["tenant"], 0) + 1
        want = min(queued, key=lambda j: (-self.jobs[j]["priority"],
                                          load.get(self.jobs[j]["tenant"],
                                                   0),
                                          self.jobs[j]["seq"]))
        assert (out["doc"]["id"], out["queued"]) == (want,
                                                    len(queued) - 1)
        assert out["doc"]["pause_requested"] == self.jobs[want]["pause"]
        assert out["hit"] == self.lookup(self.jobs[want]["key"])
        self.jobs[want].update(state="scheduled", owner=worker,
                               worker=worker, expires=self.now + TTL)
        if resend:
            assert self.store.claim_next(worker, token=token,
                                         now=self.now, ttl=TTL) == out

    # -- the whole store, every step -----------------------------------
    @invariant()
    def rows_match_the_model(self):
        docs = self.store.list()
        assert [d["id"] for d in docs] == sorted(
            self.jobs, key=lambda j: self.jobs[j]["seq"])
        for doc in docs:
            row = self.jobs[doc["id"]]
            assert (doc["state"], doc["worker"], doc["attempt"],
                    doc["tenant"], doc["priority"]) == \
                (row["state"], row["worker"], row["attempt"],
                 row["tenant"], row["priority"]), doc["id"]

    @invariant()
    def indexed_queries_match_the_model(self):
        assert [d["id"] for d in self.store.queued()] == sorted(
            (j for j, r in self.jobs.items() if r["state"] == "queued"),
            key=lambda j: self.jobs[j]["seq"])
        want = {}
        for row in self.jobs.values():
            want[row["state"]] = want.get(row["state"], 0) + 1
        assert self.store.counts() == want


@pytest.mark.parametrize("kind", ["memory", "file", "remote"])
def test_store_follows_its_contract(kind):
    machine = type(f"StoreMachine_{kind}", (StoreMachine,),
                   {"kind": kind})
    run_state_machine_as_test(machine, settings=SETTINGS)
