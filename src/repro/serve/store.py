"""Durable job store: the shared state replicated schedulers run over.

The paper's economics only hold while the host keeps the GRAPE busy;
a scheduler restart that forgets every queued and running job breaks
that promise.  This module makes the scheduler *stateless*: all
durable job state -- the ``repro.job/v1`` document, the lifecycle
state, claim ownership, heartbeats, the append-only event log and the
content-addressed result cache -- lives in a :class:`JobStore`, and
any number of :class:`~repro.serve.scheduler.Scheduler` workers can
share one store file, claim jobs with atomic compare-and-swap leases,
and take over each other's work when a heartbeat expires.

Two implementations share one contract:

:class:`MemoryJobStore`
    The in-process reference implementation (dicts under one lock).
    Semantically identical to the SQLite store minus durability; the
    contract tests in ``tests/serve/test_store_durability.py`` run
    against both.

:class:`SQLiteJobStore`
    SQLite in WAL mode (one writer, many readers, safe across
    processes) plus an append-only JSONL event log next to the
    database.  Every job row and cache row carries the SHA-256 of its
    JSON payload, and every event-log line carries its own digest, so
    torn writes and byte flips are *detected and typed* -- reads
    either return exactly what was written or raise
    :class:`StoreCorrupt`, never a plausible-but-wrong document
    (the same discipline as ``sim.checkpoint``'s last-good pointer).

Claim protocol
--------------
A queued job is claimed with :meth:`JobStore.claim` -- an atomic
compare-and-swap of ``state: queued -> scheduled`` that records the
claiming worker and a lease expiry (``now + ttl``).  The owner must
:meth:`~JobStore.heartbeat` while the job runs; :meth:`~JobStore.recover`
re-queues any scheduled/running job whose claim expired (crashed or
partitioned worker), bumping its ``attempt`` counter.  A worker whose
heartbeat comes back ``None`` has lost its claim and must stop.  The
re-queued job resumes from its last-good checkpoint generation, which
PR 3 made bit-identical to an uninterrupted run.

Result cache
------------
:func:`spec_hash` canonicalises the result-determining part of a
:class:`~repro.serve.jobs.JobSpec` (kind, params) into a
SHA-256 key.  A finished job's result document is stored under that
key together with its ``state_digest``; an identical later submission
is served from the cache without acquiring a GRAPE lease.  Entries
are content-addressed: a cached row whose payload no longer matches
its recorded digest is dropped and counted, never served.  With a
``cache_budget`` (bytes) the cache is LRU-bounded: inserts evict the
least-recently-used entries until the canonical-JSON payload bytes
fit the budget, and evictions are counted in :meth:`~JobStore.cache_stats`.
Because the store is shared fleet-wide (directly, or through
:class:`repro.fleet.RemoteJobStore`), a result computed on any worker
is a byte-identical cache hit on every other worker.

Worker registry
---------------
The fleet's membership lives next to the jobs: every worker registers a
``fleet_register`` document (worker id, host, capabilities) with a
heartbeat TTL, re-arms it via ``fleet_heartbeat`` (optionally flipping
its ``state`` to ``draining``), and removes it with
``fleet_deregister``.  ``fleet_workers`` lists every row with a
computed ``live`` flag; rows whose TTL lapsed stay visible (a crashed
worker is observable evidence) but count as dead.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = ["StoreError", "StoreCorrupt", "JobStore", "MemoryJobStore",
           "SQLiteJobStore", "open_store", "spec_hash",
           "CLAIMABLE_STATES"]

logger = logging.getLogger(__name__)

#: store schema identifier (the ``meta`` table / doc marker)
STORE_SCHEMA = "repro.store/v1"

#: states :meth:`JobStore.recover` may re-queue when the claim expired
CLAIMABLE_STATES = frozenset({"scheduled", "running"})

#: spec fields that determine a job's result bit-for-bit (everything
#: else -- priority, tenant, budgets -- is scheduling policy)
_CACHE_KEY_FIELDS = ("kind", "params")


class StoreError(RuntimeError):
    """Store misuse or an unavailable backing file."""


class StoreCorrupt(StoreError):
    """The backing file exists but cannot be read back faithfully:
    torn write, truncation, byte flip, digest mismatch."""


def spec_hash(spec) -> str:
    """Canonical SHA-256 over the result-determining spec fields.

    Accepts a :class:`~repro.serve.jobs.JobSpec` or a plain job
    document.  Two submissions share a hash iff their results are
    bit-identical by construction (kind + validated params).  The
    version tag changes whenever the arithmetic behind a spec does:
    ``v2`` retired the per-sink evaluation path, whose forces differ
    from the current ones at the 1e-15 level, so rows cached under
    ``v1`` keys are never served again.
    """
    doc = spec if isinstance(spec, dict) else spec.to_dict()
    key = {f: doc.get(f) for f in _CACHE_KEY_FIELDS}
    blob = json.dumps(["repro.cachekey/v2", key], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _doc_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canon(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class JobStore:
    """The store contract (also the docstring-bearing base class).

    All methods are thread-safe.  Documents are plain dicts -- the
    ``repro.job/v1`` wire document plus the durable runtime fields
    (``workdir``, ``attempt``, ``worker``, ``cache_hit``, ``seq``).
    Subclasses implement the primitive operations; the base supplies
    shared derived queries (:meth:`queued`, :meth:`counts`,
    :meth:`tenant_active`).
    """

    kind = "abstract"

    # -- identity ------------------------------------------------------
    def allocate(self) -> Tuple[str, int]:
        """Reserve a unique (job id, sequence) pair."""
        raise NotImplementedError

    # -- documents -----------------------------------------------------
    def insert(self, doc: Dict[str, Any]) -> None:
        raise NotImplementedError

    def update(self, doc: Dict[str, Any], *,
               worker: Optional[str] = None) -> bool:
        """Persist ``doc`` (by id).  With ``worker`` the write only
        lands while that worker still holds the claim -- a write
        racing a takeover (claim expired, job re-queued) is dropped;
        returns whether it landed."""
        raise NotImplementedError

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def list(self) -> List[Dict[str, Any]]:
        """All job documents, submission (seq) order."""
        raise NotImplementedError

    # -- claims --------------------------------------------------------
    def claim(self, job_id: str, worker: str, *, now: float,
              ttl: float) -> bool:
        """Atomically move ``queued -> scheduled`` for ``worker``.
        Exactly one of any number of racing claimants wins."""
        raise NotImplementedError

    def heartbeat(self, job_id: str, worker: str, *, now: float,
                  ttl: float,
                  doc: Optional[Dict[str, Any]] = None
                  ) -> Optional[Dict[str, Any]]:
        """Extend the claim and optionally persist progress.  Returns
        the row's control flags (``{"cancel_requested": bool}``) or
        ``None`` when the claim was lost (expired + taken over)."""
        raise NotImplementedError

    def recover(self, *, now: float,
                worker: Optional[str] = None) -> List[str]:
        """Re-queue scheduled/running jobs whose claim expired --
        and, with ``worker``, every claim held by that worker
        regardless of expiry (a freshly started worker owns nothing).
        Bumps ``attempt``; returns the re-queued job ids."""
        raise NotImplementedError

    def request_cancel(self, job_id: str) -> Optional[str]:
        """Cancel a queued job directly (returns ``"cancelled"``) or
        flag a claimed one for its owner's next heartbeat
        (``"requested"``); ``None`` for unknown/terminal jobs."""
        raise NotImplementedError

    def requeue(self, job_id: str, *, from_state: str = "paused") -> bool:
        """CAS ``from_state -> queued`` (resume path)."""
        raise NotImplementedError

    # -- event log -----------------------------------------------------
    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        raise NotImplementedError

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        raise NotImplementedError

    # -- result cache --------------------------------------------------
    def cache_put(self, key: str, digest: Optional[str],
                  result: Dict[str, Any]) -> None:
        raise NotImplementedError

    def cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def cache_stats(self) -> Dict[str, Any]:
        """Cache counters: ``entries``, ``hits``, ``dropped`` (damaged
        rows), ``bytes`` (canonical payload bytes held), ``evictions``
        (LRU removals) and ``budget`` (byte bound, ``None`` =
        unbounded)."""
        raise NotImplementedError

    # -- worker registry -----------------------------------------------
    def fleet_register(self, doc: Dict[str, Any], *, now: float,
                       ttl: float) -> None:
        """Upsert a worker-registry row.  ``doc`` must carry
        ``worker`` (the registry key) and conventionally ``host``,
        ``pid`` and capability fields (``slots``, ``boards``,
        ``kinds``); ``state`` defaults to ``"up"``.  The row is live
        until ``now + ttl``."""
        raise NotImplementedError

    def fleet_heartbeat(self, worker: str, *, now: float, ttl: float,
                        state: Optional[str] = None) -> bool:
        """Re-arm a worker's liveness TTL (and, with ``state``, move
        it between ``"up"`` and ``"draining"``).  Returns whether the
        worker is registered."""
        raise NotImplementedError

    def fleet_deregister(self, worker: str) -> bool:
        """Remove a worker's registry row; returns whether it
        existed."""
        raise NotImplementedError

    def fleet_workers(self, *, now: float) -> List[Dict[str, Any]]:
        """Every registry row (worker order), each with its stored
        document plus ``expires`` and a computed ``live`` flag."""
        raise NotImplementedError

    # -- integrity / lifecycle -----------------------------------------
    def verify(self) -> List[str]:
        """Scan for damage; returns human-readable findings (empty =
        clean).  Durable stores type their damage; the memory store is
        trivially clean."""
        return []

    def close(self) -> None:
        pass

    # -- shared derived queries ----------------------------------------
    def queued(self) -> List[Dict[str, Any]]:
        """Queued documents, seq order (the scheduler's pick input)."""
        return [d for d in self.list() if d.get("state") == "queued"]

    def counts(self) -> Dict[str, int]:
        """Job counts by state."""
        out: Dict[str, int] = {}
        for d in self.list():
            out[d.get("state", "?")] = out.get(d.get("state", "?"), 0) + 1
        return out

    def tenant_active(self, tenant: str) -> int:
        """Queued + claimed (scheduled/running/paused) jobs of a
        tenant -- the quota denominator."""
        return sum(1 for d in self.list()
                   if d.get("tenant") == tenant
                   and d.get("state") in ("queued", "scheduled",
                                          "running", "paused"))

    def fleet_summary(self, *, now: Optional[float] = None
                      ) -> Dict[str, int]:
        """Registry membership counts: registered ``workers``,
        ``live`` (TTL not lapsed) and ``draining`` (live and
        drain-flagged) -- the ``/healthz`` fleet block."""
        workers = self.fleet_workers(now=time.time()
                                     if now is None else now)
        live = [w for w in workers if w.get("live")]
        return {"workers": len(workers), "live": len(live),
                "draining": sum(1 for w in live
                                if w.get("state") == "draining")}


class MemoryJobStore(JobStore):
    """Reference implementation: plain dicts under one lock.

    Exactly the SQLite store's semantics minus durability -- restarts
    of the *process* lose it, restarts of a scheduler object over the
    same store instance do not.  ``cache_budget`` bounds the result
    cache to that many canonical-JSON payload bytes (LRU eviction);
    ``None`` keeps it unbounded.
    """

    kind = "memory"

    def __init__(self, *, cache_budget: Optional[int] = None) -> None:
        self._lock = threading.Lock()
        self._docs: Dict[str, Dict[str, Any]] = {}
        self._claims: Dict[str, Tuple[str, float]] = {}
        self._cancel: Dict[str, bool] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._cache: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._cache_hits = 0
        self._cache_bytes = 0
        self._cache_evictions = 0
        self.cache_budget = (int(cache_budget)
                             if cache_budget is not None else None)
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._counter = itertools.count(1)

    def allocate(self) -> Tuple[str, int]:
        with self._lock:
            n = next(self._counter)
            return f"j{n:06d}", n

    def insert(self, doc: Dict[str, Any]) -> None:
        with self._lock:
            self._docs[doc["id"]] = json.loads(_canon(doc))

    def update(self, doc: Dict[str, Any], *,
               worker: Optional[str] = None) -> bool:
        with self._lock:
            jid = doc["id"]
            if jid not in self._docs:
                raise StoreError(f"no such job {jid!r}")
            if worker is not None:
                held = self._claims.get(jid)
                if held is None or held[0] != worker:
                    return False
            self._docs[jid] = json.loads(_canon(doc))
            return True

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            d = self._docs.get(job_id)
            return json.loads(_canon(d)) if d is not None else None

    def list(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [json.loads(_canon(d)) for d in
                    sorted(self._docs.values(),
                           key=lambda d: d.get("seq", 0))]

    def claim(self, job_id: str, worker: str, *, now: float,
              ttl: float) -> bool:
        with self._lock:
            d = self._docs.get(job_id)
            if d is None or d.get("state") != "queued":
                return False
            d["state"] = "scheduled"
            d["worker"] = worker
            self._claims[job_id] = (worker, now + ttl)
            return True

    def heartbeat(self, job_id: str, worker: str, *, now: float,
                  ttl: float,
                  doc: Optional[Dict[str, Any]] = None
                  ) -> Optional[Dict[str, Any]]:
        with self._lock:
            held = self._claims.get(job_id)
            if held is None or held[0] != worker:
                return None
            self._claims[job_id] = (worker, now + ttl)
            # progress only lands on a still-claimable row: the owning
            # worker may have concurrently written a terminal state and
            # a heartbeat must never resurrect it
            d = self._docs.get(job_id)
            if doc is not None and d is not None \
                    and d.get("state") in CLAIMABLE_STATES:
                self._docs[job_id] = json.loads(_canon(doc))
            return {"cancel_requested":
                    bool(self._cancel.get(job_id, False))}

    def recover(self, *, now: float,
                worker: Optional[str] = None) -> List[str]:
        requeued = []
        with self._lock:
            for jid, d in self._docs.items():
                if d.get("state") not in CLAIMABLE_STATES:
                    continue
                held = self._claims.get(jid)
                expired = held is None or held[1] < now
                owned = worker is not None and held is not None \
                    and held[0] == worker
                if expired or owned:
                    d["state"] = "queued"
                    d["worker"] = None
                    d["attempt"] = int(d.get("attempt", 0)) + 1
                    self._claims.pop(jid, None)
                    requeued.append(jid)
        return requeued

    def request_cancel(self, job_id: str) -> Optional[str]:
        with self._lock:
            d = self._docs.get(job_id)
            if d is None or d.get("state") in ("done", "failed",
                                               "cancelled"):
                return None
            if d.get("state") in ("queued", "paused"):
                d["state"] = "cancelled"
                self._claims.pop(job_id, None)
                return "cancelled"
            self._cancel[job_id] = True
            return "requested"

    def requeue(self, job_id: str, *, from_state: str = "paused") -> bool:
        with self._lock:
            d = self._docs.get(job_id)
            if d is None or d.get("state") != from_state:
                return False
            d["state"] = "queued"
            d["worker"] = None
            self._claims.pop(job_id, None)
            return True

    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.setdefault(job_id, []).append(
                json.loads(_canon(event)))

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(e) for e in self._events.get(job_id, [])]

    def cache_put(self, key: str, digest: Optional[str],
                  result: Dict[str, Any]) -> None:
        text = _canon(result)
        with self._lock:
            old = self._cache.pop(key, None)
            if old is not None:
                self._cache_bytes -= old["size"]
            self._cache[key] = {"digest": digest,
                                "result": json.loads(text),
                                "size": len(text)}
            self._cache_bytes += len(text)
            while self.cache_budget is not None and self._cache \
                    and self._cache_bytes > self.cache_budget:
                _, evicted = self._cache.popitem(last=False)
                self._cache_bytes -= evicted["size"]
                self._cache_evictions += 1

    def cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            e = self._cache.get(key)
            if e is None:
                return None
            self._cache.move_to_end(key)
            self._cache_hits += 1
            return json.loads(_canon(e["result"]))

    def cache_stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"entries": len(self._cache),
                    "hits": self._cache_hits, "dropped": 0,
                    "bytes": self._cache_bytes,
                    "evictions": self._cache_evictions,
                    "budget": self.cache_budget}

    # -- worker registry -----------------------------------------------
    def fleet_register(self, doc: Dict[str, Any], *, now: float,
                       ttl: float) -> None:
        worker = doc.get("worker")
        if not worker:
            raise StoreError("fleet_register: doc must carry 'worker'")
        row = json.loads(_canon(doc))
        row.setdefault("state", "up")
        with self._lock:
            self._workers[worker] = {"doc": row,
                                     "expires": now + float(ttl)}

    def fleet_heartbeat(self, worker: str, *, now: float, ttl: float,
                        state: Optional[str] = None) -> bool:
        with self._lock:
            entry = self._workers.get(worker)
            if entry is None:
                return False
            entry["expires"] = now + float(ttl)
            entry["doc"]["last_seen"] = now
            if state is not None:
                entry["doc"]["state"] = state
            return True

    def fleet_deregister(self, worker: str) -> bool:
        with self._lock:
            return self._workers.pop(worker, None) is not None

    def fleet_workers(self, *, now: float) -> List[Dict[str, Any]]:
        with self._lock:
            out = []
            for worker in sorted(self._workers):
                entry = self._workers[worker]
                doc = json.loads(_canon(entry["doc"]))
                doc["expires"] = entry["expires"]
                doc["live"] = entry["expires"] >= now
                out.append(doc)
            return out


class SQLiteJobStore(JobStore):
    """SQLite-WAL job store + append-only JSONL event log.

    One database file holds the ``jobs`` and ``cache`` tables (each
    row storing its document as canonical JSON plus that JSON's
    SHA-256); progress events append to ``<db>.events.jsonl``, one
    self-digesting JSON line each, so a crash can at worst tear the
    final line -- which the tail scan detects, types and drops.

    Cross-process safety comes from SQLite itself: WAL journal mode,
    ``BEGIN IMMEDIATE`` transactions around every compare-and-swap,
    and a busy timeout instead of failing fast.  Two scheduler
    processes (or two store instances in one process) can point at the
    same path.
    """

    kind = "sqlite"

    #: corruption markers in sqlite error text
    _CORRUPT_MARKS = ("malformed", "not a database", "disk image",
                      "corrupt")

    def __init__(self, path: Union[str, Path], *,
                 timeout: float = 10.0,
                 cache_budget: Optional[int] = None) -> None:
        self.path = Path(path)
        self.cache_budget = (int(cache_budget)
                             if cache_budget is not None else None)
        self.events_path = self.path.with_name(self.path.name
                                               + ".events.jsonl")
        self._lock = threading.RLock()
        self._event_seq = 0
        self.event_damage: List[str] = []
        try:
            self._db = sqlite3.connect(self.path, timeout=timeout,
                                       check_same_thread=False,
                                       isolation_level=None)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(f"PRAGMA busy_timeout={int(timeout * 1e3)}")
            self._check_integrity()
            self._create_schema()
        except sqlite3.Error as e:
            raise self._wrap(e) from e
        # prime the event sequence from the existing log's intact
        # prefix; damage found here is remembered for verify()
        events, self.event_damage = self._scan_event_log()
        self._event_seq = events[-1]["seq"] if events else 0
        if self.event_damage:
            logger.warning("event log %s: %d damaged line(s) ignored",
                           self.events_path, len(self.event_damage))

    # -- plumbing ------------------------------------------------------
    def _wrap(self, e: Exception) -> StoreError:
        msg = str(e)
        corrupt = any(m in msg.lower() for m in self._CORRUPT_MARKS)
        if corrupt or (isinstance(e, sqlite3.DatabaseError)
                       and not isinstance(e, (sqlite3.OperationalError,
                                              sqlite3.ProgrammingError,
                                              sqlite3.IntegrityError))):
            return StoreCorrupt(f"store {self.path}: {msg}")
        return StoreError(f"store {self.path}: {msg}")

    def _check_integrity(self) -> None:
        row = self._db.execute("PRAGMA quick_check").fetchone()
        if row is None or row[0] != "ok":
            raise StoreCorrupt(
                f"store {self.path}: integrity check failed: "
                f"{row[0] if row else 'no result'}")

    def _create_schema(self) -> None:
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS meta("
                    " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
                self._db.execute(
                    "INSERT OR IGNORE INTO meta VALUES"
                    " ('schema', ?), ('job_seq', '0')",
                    (STORE_SCHEMA,))
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS jobs("
                    " seq INTEGER PRIMARY KEY,"
                    " id TEXT UNIQUE NOT NULL,"
                    " state TEXT NOT NULL,"
                    " tenant TEXT NOT NULL DEFAULT 'default',"
                    " claimed_by TEXT,"
                    " claim_expires REAL,"
                    " cancel_requested INTEGER NOT NULL DEFAULT 0,"
                    " attempt INTEGER NOT NULL DEFAULT 0,"
                    " doc TEXT NOT NULL,"
                    " sha256 TEXT NOT NULL)")
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS cache("
                    " key TEXT PRIMARY KEY,"
                    " digest TEXT,"
                    " result TEXT NOT NULL,"
                    " sha256 TEXT NOT NULL,"
                    " hits INTEGER NOT NULL DEFAULT 0,"
                    " created_at REAL,"
                    " size INTEGER NOT NULL DEFAULT 0,"
                    " last_used REAL)")
                # PR-8 stores predate the LRU columns; migrate in place
                cols = {r[1] for r in self._db.execute(
                    "PRAGMA table_info(cache)").fetchall()}
                if "size" not in cols:
                    self._db.execute(
                        "ALTER TABLE cache ADD COLUMN size INTEGER"
                        " NOT NULL DEFAULT 0")
                    self._db.execute(
                        "UPDATE cache SET size = LENGTH("
                        "CAST(result AS BLOB))")
                if "last_used" not in cols:
                    self._db.execute(
                        "ALTER TABLE cache ADD COLUMN last_used REAL")
                self._db.execute(
                    "CREATE TABLE IF NOT EXISTS workers("
                    " worker TEXT PRIMARY KEY,"
                    " state TEXT NOT NULL DEFAULT 'up',"
                    " expires REAL NOT NULL,"
                    " doc TEXT NOT NULL,"
                    " sha256 TEXT NOT NULL)")
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def _row_doc(self, row) -> Dict[str, Any]:
        """Decode one jobs/cache payload, verifying its digest."""
        text, sha = row
        if _doc_sha(text) != sha:
            raise StoreCorrupt(
                f"store {self.path}: row payload does not match its "
                "recorded SHA-256 (torn write?)")
        try:
            return json.loads(text)
        except ValueError as e:  # pragma: no cover - sha catches first
            raise StoreCorrupt(
                f"store {self.path}: undecodable row payload: {e}") from e

    # -- identity ------------------------------------------------------
    def allocate(self) -> Tuple[str, int]:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    row = self._db.execute(
                        "UPDATE meta SET value = CAST(value AS INTEGER)"
                        " + 1 WHERE key = 'job_seq'"
                        " RETURNING CAST(value AS INTEGER)").fetchone()
                    self._db.execute("COMMIT")
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        n = int(row[0])
        return f"j{n:06d}", n

    # -- documents -----------------------------------------------------
    def insert(self, doc: Dict[str, Any]) -> None:
        text = _canon(doc)
        with self._lock:
            try:
                self._db.execute(
                    "INSERT INTO jobs(seq, id, state, tenant, attempt,"
                    " doc, sha256) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (int(doc.get("seq", 0)), doc["id"], doc["state"],
                     doc.get("tenant", "default"),
                     int(doc.get("attempt", 0)), text, _doc_sha(text)))
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def update(self, doc: Dict[str, Any], *,
               worker: Optional[str] = None) -> bool:
        text = _canon(doc)
        where = "id = ?"
        args: List[Any] = [doc["state"], doc.get("tenant", "default"),
                           int(doc.get("attempt", 0)), text,
                           _doc_sha(text), doc["id"]]
        if worker is not None:
            where += " AND claimed_by = ?"
            args.append(worker)
        with self._lock:
            try:
                cur = self._db.execute(
                    f"UPDATE jobs SET state = ?, tenant = ?,"
                    f" attempt = ?, doc = ?, sha256 = ? WHERE {where}",
                    args)
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        if cur.rowcount == 0 and worker is None:
            raise StoreError(f"no such job {doc['id']!r}")
        return cur.rowcount > 0

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            try:
                row = self._db.execute(
                    "SELECT doc, sha256 FROM jobs WHERE id = ?",
                    (job_id,)).fetchone()
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        return self._row_doc(row) if row is not None else None

    def list(self) -> List[Dict[str, Any]]:
        with self._lock:
            try:
                rows = self._db.execute(
                    "SELECT doc, sha256 FROM jobs ORDER BY seq"
                    ).fetchall()
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        return [self._row_doc(r) for r in rows]

    # -- claims --------------------------------------------------------
    def _cas(self, sql: str, args: tuple) -> int:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    cur = self._db.execute(sql, args)
                    self._db.execute("COMMIT")
                    return cur.rowcount
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def _patch_doc(self, job_id: str, **fields: Any) -> None:
        """Re-serialise a row's doc with ``fields`` folded in (called
        inside a transaction by the CAS helpers)."""
        row = self._db.execute(
            "SELECT doc, sha256 FROM jobs WHERE id = ?",
            (job_id,)).fetchone()
        if row is None:
            return
        doc = self._row_doc(row)
        doc.update(fields)
        text = _canon(doc)
        self._db.execute(
            "UPDATE jobs SET doc = ?, sha256 = ? WHERE id = ?",
            (text, _doc_sha(text), job_id))

    def claim(self, job_id: str, worker: str, *, now: float,
              ttl: float) -> bool:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    cur = self._db.execute(
                        "UPDATE jobs SET state = 'scheduled',"
                        " claimed_by = ?, claim_expires = ?"
                        " WHERE id = ? AND state = 'queued'",
                        (worker, now + ttl, job_id))
                    won = cur.rowcount > 0
                    if won:
                        self._patch_doc(job_id, state="scheduled",
                                        worker=worker)
                    self._db.execute("COMMIT")
                    return won
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def heartbeat(self, job_id: str, worker: str, *, now: float,
                  ttl: float,
                  doc: Optional[Dict[str, Any]] = None
                  ) -> Optional[Dict[str, Any]]:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    cur = self._db.execute(
                        "UPDATE jobs SET claim_expires = ?"
                        " WHERE id = ? AND claimed_by = ?",
                        (now + ttl, job_id, worker))
                    if cur.rowcount == 0:
                        self._db.execute("COMMIT")
                        return None
                    if doc is not None:
                        # progress only lands on a still-claimable
                        # row: a racing terminal write by the owner
                        # must never be resurrected by a heartbeat
                        text = _canon(doc)
                        self._db.execute(
                            "UPDATE jobs SET state = ?, attempt = ?,"
                            " doc = ?, sha256 = ? WHERE id = ? AND"
                            " state IN ('scheduled', 'running')",
                            (doc["state"], int(doc.get("attempt", 0)),
                             text, _doc_sha(text), job_id))
                    row = self._db.execute(
                        "SELECT cancel_requested FROM jobs WHERE id = ?",
                        (job_id,)).fetchone()
                    self._db.execute("COMMIT")
                    return {"cancel_requested": bool(row and row[0])}
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def recover(self, *, now: float,
                worker: Optional[str] = None) -> List[str]:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    cond = ("claim_expires IS NULL"
                            " OR claim_expires < ?")
                    args: List[Any] = [now]
                    if worker is not None:
                        cond += " OR claimed_by = ?"
                        args.append(worker)
                    rows = self._db.execute(
                        "SELECT id FROM jobs WHERE state IN"
                        f" ('scheduled', 'running') AND ({cond})",
                        args).fetchall()
                    requeued = [r[0] for r in rows]
                    for jid in requeued:
                        self._db.execute(
                            "UPDATE jobs SET state = 'queued',"
                            " claimed_by = NULL, claim_expires = NULL,"
                            " attempt = attempt + 1 WHERE id = ?",
                            (jid,))
                        row = self._db.execute(
                            "SELECT attempt FROM jobs WHERE id = ?",
                            (jid,)).fetchone()
                        self._patch_doc(jid, state="queued",
                                        worker=None,
                                        attempt=int(row[0]))
                    self._db.execute("COMMIT")
                    return requeued
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def request_cancel(self, job_id: str) -> Optional[str]:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    row = self._db.execute(
                        "SELECT state FROM jobs WHERE id = ?",
                        (job_id,)).fetchone()
                    if row is None or row[0] in ("done", "failed",
                                                 "cancelled"):
                        self._db.execute("COMMIT")
                        return None
                    if row[0] in ("queued", "paused"):
                        self._db.execute(
                            "UPDATE jobs SET state = 'cancelled',"
                            " claimed_by = NULL WHERE id = ?",
                            (job_id,))
                        self._patch_doc(job_id, state="cancelled",
                                        worker=None)
                        outcome = "cancelled"
                    else:
                        self._db.execute(
                            "UPDATE jobs SET cancel_requested = 1"
                            " WHERE id = ?", (job_id,))
                        outcome = "requested"
                    self._db.execute("COMMIT")
                    return outcome
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def requeue(self, job_id: str, *, from_state: str = "paused") -> bool:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    cur = self._db.execute(
                        "UPDATE jobs SET state = 'queued',"
                        " claimed_by = NULL, claim_expires = NULL"
                        " WHERE id = ? AND state = ?",
                        (job_id, from_state))
                    won = cur.rowcount > 0
                    if won:
                        self._patch_doc(job_id, state="queued",
                                        worker=None)
                    self._db.execute("COMMIT")
                    return won
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    # -- event log -----------------------------------------------------
    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        with self._lock:
            self._event_seq += 1
            record = {"seq": self._event_seq, "job": job_id,
                      "event": json.loads(_canon(event))}
            record["sha256"] = _doc_sha(_canon(record))
            line = json.dumps(record, sort_keys=True,
                              separators=(",", ":")) + "\n"
            try:
                with open(self.events_path, "a",
                          encoding="utf-8") as fh:
                    fh.write(line)
                    fh.flush()
            except OSError as e:
                raise StoreError(
                    f"event log {self.events_path}: {e}") from e

    def _scan_event_log(self) -> Tuple[List[Dict[str, Any]], List[str]]:
        """Read the log; returns (intact prefix, typed damage).  The
        scan stops at the first damaged line -- everything after a
        torn write is untrusted."""
        events: List[Dict[str, Any]] = []
        damage: List[str] = []
        try:
            with open(self.events_path, encoding="utf-8",
                      errors="replace") as fh:
                for lineno, line in enumerate(fh, 1):
                    stripped = line.strip()
                    if not stripped:
                        continue
                    try:
                        rec = json.loads(stripped)
                        sha = rec.pop("sha256")
                        if _doc_sha(_canon(rec)) != sha:
                            raise ValueError("digest mismatch")
                    except (ValueError, KeyError, TypeError) as e:
                        damage.append(
                            f"event log line {lineno}: {e} "
                            "(torn write?)")
                        break
                    events.append(rec)
        except FileNotFoundError:
            pass
        except OSError as e:  # pragma: no cover - permission etc.
            damage.append(f"event log unreadable: {e}")
        return events, damage

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        with self._lock:
            scanned, _ = self._scan_event_log()
        return [r["event"] for r in scanned if r["job"] == job_id]

    # -- result cache --------------------------------------------------
    def _bump_meta_counter(self, key: str) -> None:
        """Increment a persistent counter row in ``meta`` (called
        inside a transaction)."""
        self._db.execute(
            "INSERT OR IGNORE INTO meta VALUES (?, '0')", (key,))
        self._db.execute(
            "UPDATE meta SET value = CAST(value AS INTEGER) + 1"
            " WHERE key = ?", (key,))

    def _evict_over_budget(self) -> None:
        """Drop least-recently-used cache rows until the summed
        payload bytes fit ``cache_budget`` (called inside a
        transaction; no-op when unbounded)."""
        if self.cache_budget is None:
            return
        while True:
            total = self._db.execute(
                "SELECT COALESCE(SUM(size), 0) FROM cache"
                ).fetchone()[0]
            if int(total) <= self.cache_budget:
                return
            row = self._db.execute(
                "SELECT key FROM cache ORDER BY"
                " COALESCE(last_used, created_at, 0) ASC, key ASC"
                " LIMIT 1").fetchone()
            if row is None:  # pragma: no cover - SUM>0 implies a row
                return
            self._db.execute("DELETE FROM cache WHERE key = ?",
                             (row[0],))
            self._bump_meta_counter("cache_evicted")
            logger.info("cache entry %s… evicted (budget %d bytes)",
                        row[0][:12], self.cache_budget)

    def cache_put(self, key: str, digest: Optional[str],
                  result: Dict[str, Any]) -> None:
        text = _canon(result)
        now = time.time()
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    self._db.execute(
                        "INSERT OR REPLACE INTO cache"
                        " (key, digest, result, sha256, hits,"
                        " created_at, size, last_used)"
                        " VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                        (key, digest, text, _doc_sha(text), now,
                         len(text), now))
                    self._evict_over_budget()
                    self._db.execute("COMMIT")
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            try:
                row = self._db.execute(
                    "SELECT result, sha256 FROM cache WHERE key = ?",
                    (key,)).fetchone()
                if row is None:
                    return None
                try:
                    doc = self._row_doc(row)
                except StoreCorrupt:
                    # content-addressing: a damaged entry is a miss,
                    # never a wrong answer
                    self._db.execute(
                        "DELETE FROM cache WHERE key = ?", (key,))
                    self._bump_meta_counter("cache_dropped")
                    logger.warning("cache entry %s… dropped: payload "
                                   "digest mismatch", key[:12])
                    return None
                self._db.execute(
                    "UPDATE cache SET hits = hits + 1, last_used = ?"
                    " WHERE key = ?", (time.time(), key))
                return doc
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def _meta_counter(self, key: str) -> int:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return int(row[0]) if row else 0

    def cache_stats(self) -> Dict[str, Any]:
        with self._lock:
            try:
                entries, hits, size = self._db.execute(
                    "SELECT COUNT(*), COALESCE(SUM(hits), 0),"
                    " COALESCE(SUM(size), 0) FROM cache").fetchone()
                dropped = self._meta_counter("cache_dropped")
                evicted = self._meta_counter("cache_evicted")
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        return {"entries": int(entries), "hits": int(hits),
                "dropped": dropped, "bytes": int(size),
                "evictions": evicted, "budget": self.cache_budget}

    # -- worker registry -----------------------------------------------
    def fleet_register(self, doc: Dict[str, Any], *, now: float,
                       ttl: float) -> None:
        worker = doc.get("worker")
        if not worker:
            raise StoreError("fleet_register: doc must carry 'worker'")
        row = json.loads(_canon(doc))
        row.setdefault("state", "up")
        text = _canon(row)
        with self._lock:
            try:
                self._db.execute(
                    "INSERT OR REPLACE INTO workers"
                    " (worker, state, expires, doc, sha256)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (worker, row["state"], now + float(ttl), text,
                     _doc_sha(text)))
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def fleet_heartbeat(self, worker: str, *, now: float, ttl: float,
                        state: Optional[str] = None) -> bool:
        with self._lock:
            try:
                self._db.execute("BEGIN IMMEDIATE")
                try:
                    row = self._db.execute(
                        "SELECT doc, sha256 FROM workers"
                        " WHERE worker = ?", (worker,)).fetchone()
                    if row is None:
                        self._db.execute("COMMIT")
                        return False
                    doc = self._row_doc(row)
                    doc["last_seen"] = now
                    if state is not None:
                        doc["state"] = state
                    text = _canon(doc)
                    self._db.execute(
                        "UPDATE workers SET state = ?, expires = ?,"
                        " doc = ?, sha256 = ? WHERE worker = ?",
                        (doc.get("state", "up"), now + float(ttl),
                         text, _doc_sha(text), worker))
                    self._db.execute("COMMIT")
                    return True
                except BaseException:
                    self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def fleet_deregister(self, worker: str) -> bool:
        with self._lock:
            try:
                cur = self._db.execute(
                    "DELETE FROM workers WHERE worker = ?", (worker,))
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        return cur.rowcount > 0

    def fleet_workers(self, *, now: float) -> List[Dict[str, Any]]:
        with self._lock:
            try:
                rows = self._db.execute(
                    "SELECT doc, sha256, expires FROM workers"
                    " ORDER BY worker").fetchall()
            except sqlite3.Error as e:
                raise self._wrap(e) from e
        out = []
        for text, sha, expires in rows:
            doc = self._row_doc((text, sha))
            doc["expires"] = float(expires)
            doc["live"] = float(expires) >= now
            out.append(doc)
        return out

    # -- integrity / lifecycle -----------------------------------------
    def verify(self) -> List[str]:
        """Full damage scan: SQLite integrity check, per-row payload
        digests, the event-log tail.  Every finding is the message of
        the :class:`StoreCorrupt` that reads of that datum raise."""
        findings: List[str] = []
        with self._lock:
            try:
                self._check_integrity()
            except StoreCorrupt as e:
                findings.append(str(e))
            except sqlite3.Error as e:
                findings.append(str(self._wrap(e)))
            for table in ("jobs", "cache", "workers"):
                col = "result" if table == "cache" else "doc"
                try:
                    rows = self._db.execute(
                        f"SELECT {col}, sha256 FROM {table}").fetchall()
                except sqlite3.Error as e:
                    findings.append(str(self._wrap(e)))
                    continue
                for row in rows:
                    try:
                        self._row_doc(row)
                    except StoreCorrupt as e:
                        findings.append(f"{table}: {e}")
            _, event_damage = self._scan_event_log()
            findings.extend(self.event_damage)
            findings.extend(d for d in event_damage
                            if d not in self.event_damage)
        return findings

    def close(self) -> None:
        with self._lock:
            try:
                self._db.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass


def open_store(store: Union[None, str, Path, JobStore], *,
               cache_budget: Optional[int] = None) -> JobStore:
    """Coerce a store argument: ``None`` -> fresh in-memory store, an
    ``http://host:port`` URL -> :class:`repro.fleet.RemoteJobStore`
    (the fleet network store), any other path ->
    :class:`SQLiteJobStore` (parent directory created), an existing
    :class:`JobStore` -> itself.  ``cache_budget`` (bytes) bounds the
    result cache of locally-opened stores; a remote store's budget is
    the *server's* policy and the argument is ignored."""
    if store is None:
        return MemoryJobStore(cache_budget=cache_budget)
    if isinstance(store, JobStore):
        return store
    text = str(store)
    if text.startswith(("http://", "https://")):
        from ..fleet.remote import RemoteJobStore
        return RemoteJobStore(text)
    path = Path(store)
    path.parent.mkdir(parents=True, exist_ok=True)
    return SQLiteJobStore(path, cache_budget=cache_budget)
