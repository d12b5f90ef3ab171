"""Durable job store: the shared state replicated schedulers run over.

The paper's economics only hold while the host keeps the GRAPE busy;
a scheduler restart that forgets every queued and running job breaks
that promise.  This module makes the scheduler *stateless*: all
durable job state -- the ``repro.job/v1`` document, the lifecycle
state, claim ownership, heartbeats, the progress events and the
content-addressed result cache -- lives in a :class:`JobStore`, and
any number of :class:`~repro.serve.scheduler.Scheduler` workers can
share one store file, claim jobs with atomic compare-and-swap leases,
and take over each other's work when a heartbeat expires.  One
implementation, :class:`SQLiteJobStore`, on a database file or on
``":memory:"``.

Every job, event, cache and worker row carries the SHA-256 of its
JSON payload, so torn writes and byte flips are *detected and
typed* -- reads either return exactly what was written or raise
:class:`StoreCorrupt`, never a plausible-but-wrong document.

Each control step of a job is one op and one transaction (inside
:meth:`SQLiteJobStore._txn`): admission (:meth:`JobStore.enqueue`),
the pick (:meth:`JobStore.claim_next`) and each state write with its
transition's events.  The result cache (content-addressed by
:func:`spec_hash`, optionally LRU-bounded in bytes) rides in the same
ops: admission answers a cached spec, the pick returns the claimed
job's cached result, and the terminal write puts a computed one.
Their counts are lookups on the ``jobs(state, tenant)`` index, so a
job costs O(queued jobs) however many finished rows the store holds.
The compound ops take a caller's token, so a resent request returns
its first outcome.  The method docstrings state each contract;
``docs/service.md`` and ``docs/fleet.md`` describe them in use.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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
    version tag changes whenever the arithmetic behind a spec does, so
    rows cached under an older tag are never served again: ``v2``
    retired the per-sink evaluation path (forces 1e-15 apart), ``v3``
    the early-stopping sigma_8 integral (ICs 6.4e-5 apart).
    """
    doc = spec if isinstance(spec, dict) else spec.to_dict()
    key = {f: doc.get(f) for f in _CACHE_KEY_FIELDS}
    blob = json.dumps(["repro.cachekey/v3", key], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _doc_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canon(doc: Dict[str, Any]) -> str:
    # key order is kept: a result's column order is part of the result
    return json.dumps(doc, separators=(",", ":"))


class JobStore:
    """The store contract (also the docstring-bearing base class).

    All methods are thread-safe.  Documents are plain dicts -- the
    ``repro.job/v1`` wire document plus the durable runtime fields
    (``workdir``, ``attempt``, ``worker``, ``cache_hit``, ``seq``).
    Each entry into ``queued`` (:meth:`enqueue`, :meth:`requeue`,
    :meth:`recover`) stamps the doc's ``queued_at`` with the store's
    wall clock, which a claimer reads as the job's queue wait.
    Subclasses implement every operation; only :meth:`fleet_summary`
    is derived here.  A finished job's only copy is its row, its spans
    included.
    """

    kind = "abstract"

    # -- identity ------------------------------------------------------
    def allocate(self) -> Tuple[str, int]:
        """Reserve a unique (job id, sequence) pair."""
        raise NotImplementedError

    # -- documents -----------------------------------------------------
    def insert(self, doc: Dict[str, Any]) -> None:
        """Add a new job document.  Ids are unique: inserting an id
        the store already holds raises :class:`StoreError` and leaves
        the first row intact."""
        raise NotImplementedError

    def enqueue(self, doc: Dict[str, Any], *, token: str,
                max_queued: int, max_active: Optional[int] = None,
                events: Optional[List[Dict[str, Any]]] = None,
                cache_key: Optional[str] = None,
                now: Optional[float] = None) -> Dict[str, Any]:
        """Admit and insert a job in one transaction.  Refuses,
        writing nothing, when ``max_queued`` jobs are queued
        (``{"refused": "queue", "queued": n}``) or the doc's tenant
        has ``max_active`` queued, claimed or paused jobs (``{"refused":
        "quota", "queued": n, "active": m}``); else names the job (id
        and seq), inserts it with ``events`` in its log and returns
        ``{"id", "seq", "queued"}``.  A result cached under
        ``cache_key`` (a hit as :meth:`cache_get` counts it) inserts
        the job ``done`` instead -- ``cache_hit``, that result, started
        and finished at ``now``, a ``cache_hit`` event -- and returns
        it as ``"doc"``; a queued row keeps the key, not the ``spans``.
        A ``token`` the store holds returns that submission's answer."""
        raise NotImplementedError

    def update(self, doc: Dict[str, Any], *,
               worker: Optional[str] = None,
               events: Optional[List[Dict[str, Any]]] = None,
               cache_key: Optional[str] = None) -> bool:
        """Persist ``doc`` (by id) and append ``events`` to its log, in
        one transaction.  With ``worker`` the write only lands while
        that worker still holds the claim -- a write racing a takeover
        is dropped, events included; returns whether it landed.  An
        unknown id is a lost claim (``False``) under ``worker`` and a
        :class:`StoreError` without.  A landed ``done`` write caches
        its ``result`` minus ``lease`` under ``cache_key``."""
        raise NotImplementedError

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        """One job document, or ``None`` for an unknown id."""
        raise NotImplementedError

    def list(self) -> List[Dict[str, Any]]:
        """All job documents, submission (seq) order."""
        raise NotImplementedError

    # -- indexed queries -----------------------------------------------
    def queued(self) -> List[Dict[str, Any]]:
        """Queued documents, seq order; reads no other row."""
        raise NotImplementedError

    def counts(self) -> Dict[str, int]:
        """Job counts by state."""
        raise NotImplementedError

    # -- claims --------------------------------------------------------
    def claim(self, job_id: str, worker: str, *, now: float,
              ttl: float) -> bool:
        """Atomically move ``queued -> scheduled`` for ``worker``.
        Exactly one of any number of racing claimants wins."""
        raise NotImplementedError

    def claim_next(self, worker: str, *, token: str, now: float,
                   ttl: float) -> Dict[str, Any]:
        """Claim the head of the queue for ``worker`` in one
        transaction: highest ``priority``, then the tenant with the
        fewest jobs past the queue (store-wide fair share), then the
        lowest seq.  Returns ``{"doc": claimed doc or None, "queued":
        jobs left, "hit": the result cached under the job's key or
        None}``; a ``token`` still holding a job returns it (its hit
        read again, uncounted)."""
        raise NotImplementedError

    def heartbeat(self, job_id: str, worker: str, *, now: float,
                  ttl: float,
                  doc: Optional[Dict[str, Any]] = None
                  ) -> Optional[Dict[str, Any]]:
        """Extend the claim and optionally persist progress.  Returns
        the row's control flags (``{"cancel_requested": bool,
        "pause_requested": bool}``) or ``None`` when the claim was
        lost (expired + taken over)."""
        raise NotImplementedError

    def recover(self, *, now: float,
                worker: Optional[str] = None) -> List[str]:
        """Re-queue scheduled/running jobs whose claim expired --
        and, with ``worker``, every claim held by that worker
        regardless of expiry (a freshly started worker owns nothing).
        Bumps ``attempt`` and clears any pause request; returns the
        re-queued job ids."""
        raise NotImplementedError

    def request_cancel(self, job_id: str) -> Optional[str]:
        """Cancel a queued job directly (returns ``"cancelled"``) or
        flag a claimed one for its owner's next heartbeat
        (``"requested"``); ``None`` for unknown/terminal jobs."""
        raise NotImplementedError

    def request_pause(self, job_id: str) -> Optional[str]:
        """Flag an unfinished job to checkpoint and vacate its slot:
        its owner sees the flag in its next heartbeat reply, and a
        claim of a flagged queued job carries ``pause_requested:
        true`` in the claimed doc.  Returns the job's state, or
        ``None`` for unknown/terminal jobs."""
        raise NotImplementedError

    def requeue(self, job_id: str, *, from_state: str = "paused") -> bool:
        """CAS ``from_state -> queued`` (resume path), clearing any
        pause request."""
        raise NotImplementedError

    # -- event log -----------------------------------------------------
    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        """Append one progress event to the job's log."""
        raise NotImplementedError

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's events, append order."""
        raise NotImplementedError

    # -- result cache --------------------------------------------------
    def cache_put(self, key: str, digest: Optional[str],
                  result: Dict[str, Any]) -> None:
        """Store ``result`` under ``key`` (a :func:`spec_hash`),
        replacing any earlier entry, then evict least-recently-used
        entries until the cache fits its byte budget."""
        raise NotImplementedError

    def cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        """The result stored under ``key`` (counted as a hit and
        marked most recently used), or ``None``."""
        raise NotImplementedError

    def cache_stats(self) -> Dict[str, Any]:
        """Cache figures: ``entries`` and ``bytes`` (canonical payload
        bytes) held now, ``budget`` (byte bound, ``None`` = unbounded),
        and three counters that only ever grow -- ``hits``, ``dropped``
        (damaged rows) and ``evictions`` (LRU removals)."""
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
        clean)."""
        return []

    def close(self) -> None:
        """Release the store's resources (idempotent)."""

    # -- derived query -------------------------------------------------
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


class SQLiteJobStore(JobStore):
    """The job store: four SQLite tables.

    One database holds the ``jobs``, ``events``, ``cache`` and
    ``workers`` tables, each row storing its document as canonical
    JSON plus that JSON's SHA-256; a progress event is one ``INSERT``,
    numbered by the database.  A file written before the ``events``
    table existed gains it on open (its old history is not imported).

    Cross-process safety comes from SQLite itself: WAL journal mode,
    ``BEGIN IMMEDIATE`` transactions around every compare-and-swap
    (:meth:`_txn`), and a busy timeout, so two scheduler processes can
    share a path.  ``":memory:"`` runs the same code on a database
    private to this instance (``kind == "memory"``).  ``cache_budget``
    bounds the result cache to that many canonical-JSON payload bytes
    (LRU eviction); ``None`` keeps it unbounded.
    """

    kind = "sqlite"

    #: corruption markers in sqlite error text
    _CORRUPT_MARKS = ("malformed", "not a database", "disk image",
                      "corrupt")

    def __init__(self, path: Union[str, Path], *,
                 timeout: float = 10.0,
                 cache_budget: Optional[int] = None) -> None:
        """Open (creating if absent) the store at ``path``; raises
        :class:`StoreCorrupt` when the file fails its integrity
        check."""
        self.path = Path(path)
        self.cache_budget = (int(cache_budget)
                             if cache_budget is not None else None)
        if str(path) == ":memory:":
            self.kind = "memory"
        self._lock = threading.RLock()
        try:
            self._db = sqlite3.connect(self.path, timeout=timeout,
                                       check_same_thread=False,
                                       isolation_level=None)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(f"PRAGMA busy_timeout={int(timeout * 1e3)}")
            self._check_integrity()
        except sqlite3.Error as e:
            raise self._wrap(e) from e
        self._create_schema()

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

    @contextlib.contextmanager
    def _txn(self, *, begin: bool = True) -> Iterator[sqlite3.Connection]:
        """The one bracket every op's database access runs in.

        Takes the store lock and opens ``BEGIN IMMEDIATE`` (the write
        lock up front, so a compare-and-swap cannot lose a race
        between its read and its write); commits when the body
        finishes, an early ``return`` included; rolls back and
        re-raises whatever the body raises; and types any
        ``sqlite3.Error`` as :class:`StoreError` / :class:`StoreCorrupt`.
        ``begin=False`` opens no transaction, for ops whose one
        statement is atomic by itself.
        """
        with self._lock:
            try:
                if begin:
                    self._db.execute("BEGIN IMMEDIATE")
                try:
                    yield self._db
                    if begin:
                        self._db.execute("COMMIT")
                except BaseException:
                    if begin:
                        self._db.execute("ROLLBACK")
                    raise
            except sqlite3.Error as e:
                raise self._wrap(e) from e

    def _check_integrity(self) -> None:
        row = self._db.execute("PRAGMA quick_check").fetchone()
        if row is None or row[0] != "ok":
            raise StoreCorrupt(
                f"store {self.path}: integrity check failed: "
                f"{row[0] if row else 'no result'}")

    def _create_schema(self) -> None:
        with self._txn() as db:
            db.execute(
                "CREATE TABLE IF NOT EXISTS meta("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)")
            db.execute(
                "INSERT OR IGNORE INTO meta VALUES"
                " ('schema', ?), ('job_seq', '0')", (STORE_SCHEMA,))
            db.execute(
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
            # a file written before the resend tokens, the pause flag
            # and the cache key gains their columns
            cols = {r[1] for r in db.execute(
                "PRAGMA table_info(jobs)").fetchall()}
            for col, decl in (("token", "TEXT"), ("claim_token", "TEXT"),
                              ("pause_requested",
                               "INTEGER NOT NULL DEFAULT 0"),
                              ("cache_key", "TEXT")):
                if col not in cols:
                    db.execute(f"ALTER TABLE jobs ADD COLUMN {col} {decl}")
            db.execute(
                "CREATE INDEX IF NOT EXISTS jobs_by_state"
                " ON jobs(state, tenant)")
            db.execute("CREATE UNIQUE INDEX IF NOT EXISTS jobs_by_token"
                       " ON jobs(token)")
            db.execute("CREATE INDEX IF NOT EXISTS jobs_by_claim"
                       " ON jobs(claim_token)")
            db.execute(
                "CREATE TABLE IF NOT EXISTS events("
                " seq INTEGER PRIMARY KEY AUTOINCREMENT,"
                " job TEXT NOT NULL,"
                " doc TEXT NOT NULL,"
                " sha256 TEXT NOT NULL)")
            db.execute(
                "CREATE INDEX IF NOT EXISTS events_by_job"
                " ON events(job, seq)")
            db.execute(
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
            cols = {r[1] for r in db.execute(
                "PRAGMA table_info(cache)").fetchall()}
            if "size" not in cols:
                db.execute(
                    "ALTER TABLE cache ADD COLUMN size INTEGER"
                    " NOT NULL DEFAULT 0")
                db.execute(
                    "UPDATE cache SET size = LENGTH("
                    "CAST(result AS BLOB))")
            if "last_used" not in cols:
                db.execute(
                    "ALTER TABLE cache ADD COLUMN last_used REAL")
            # seeded once from the per-row counts, so a file written
            # before this counter existed keeps its history
            db.execute(
                "INSERT OR IGNORE INTO meta SELECT 'cache_hits',"
                " COALESCE(SUM(hits), 0) FROM cache")
            db.execute(
                "CREATE TABLE IF NOT EXISTS workers("
                " worker TEXT PRIMARY KEY,"
                " state TEXT NOT NULL DEFAULT 'up',"
                " expires REAL NOT NULL,"
                " doc TEXT NOT NULL,"
                " sha256 TEXT NOT NULL)")

    def _row_doc(self, row) -> Dict[str, Any]:
        """Decode one row's payload, verifying its digest."""
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
    def _next_seq(self) -> int:
        """Bump the job sequence (inside a transaction)."""
        return int(self._db.execute(
            "UPDATE meta SET value = CAST(value AS INTEGER)"
            " + 1 WHERE key = 'job_seq'"
            " RETURNING CAST(value AS INTEGER)").fetchone()[0])

    def allocate(self) -> Tuple[str, int]:
        with self._txn():
            n = self._next_seq()
        return f"j{n:06d}", n

    # -- documents -----------------------------------------------------
    def _insert(self, doc: Dict[str, Any], token: Optional[str] = None,
                cache_key: Optional[str] = None) -> None:
        text = _canon(doc)
        self._db.execute(
            "INSERT INTO jobs(seq, id, state, tenant, attempt, token,"
            " cache_key, doc, sha256) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (int(doc.get("seq", 0)), doc["id"], doc["state"],
             doc.get("tenant", "default"), int(doc.get("attempt", 0)),
             token, cache_key, text, _doc_sha(text)))

    def insert(self, doc: Dict[str, Any]) -> None:
        with self._txn(begin=False):
            self._insert(doc)

    def enqueue(self, doc: Dict[str, Any], *, token: str,
                max_queued: int, max_active: Optional[int] = None,
                events: Optional[List[Dict[str, Any]]] = None,
                cache_key: Optional[str] = None,
                now: Optional[float] = None) -> Dict[str, Any]:
        with self._txn() as db:
            queued = db.execute("SELECT COUNT(*) FROM jobs"
                                " WHERE state = 'queued'").fetchone()[0]
            first = db.execute(
                "SELECT id, seq, doc, sha256, state = 'done' AND"
                " claimed_by IS NULL FROM jobs WHERE token = ?",
                (token,)).fetchone()
            if first is not None:  # a resend (of a hit: done, unclaimed)
                out = {"id": first[0], "seq": first[1], "queued": queued}
                return dict(out, doc=self._row_doc(first[2:4])) \
                    if first[4] else out
            if queued >= max_queued:
                return {"refused": "queue", "queued": queued}
            if max_active is not None:
                active = db.execute(
                    "SELECT COUNT(*) FROM jobs WHERE state IN ('queued',"
                    " 'scheduled', 'running', 'paused') AND tenant = ?",
                    (doc.get("tenant", "default"),)).fetchone()[0]
                if active >= max_active:
                    return {"refused": "quota", "queued": queued,
                            "active": active}
            n = self._next_seq()
            doc = dict(doc, id=f"j{n:06d}", seq=n, queued_at=time.time())
            hit = self._cache_lookup(cache_key) if cache_key else None
            if hit is None:
                doc.pop("spans", None)
            else:
                now = time.time() if now is None else now
                events = [*(events or ()), {
                    "event": "cache_hit", "t_wall": now,
                    "key": cache_key[:12], "digest": hit.get("digest")}]
                doc.update(state="done", cache_hit=True, result=hit,
                           started_at=now, finished_at=now, progress=dict(
                               doc["progress"], events=len(events)))
            self._insert(doc, token, cache_key)
            self._append_events(doc["id"], events)
        out = {"id": doc["id"], "seq": n, "queued": queued + (hit is None)}
        return out if hit is None else dict(out, doc=doc)

    def _write(self, doc: Dict[str, Any], where: str, *args: Any) -> bool:
        """Replace ``doc``'s row if ``where`` holds; whether it did."""
        text = _canon(doc)
        return self._db.execute(
            "UPDATE jobs SET state = ?, tenant = ?, attempt = ?, doc = ?,"
            f" sha256 = ? WHERE id = ? {where}",
            (doc["state"], doc.get("tenant", "default"),
             int(doc.get("attempt", 0)), text, _doc_sha(text), doc["id"],
             *args)).rowcount > 0

    def update(self, doc: Dict[str, Any], *,
               worker: Optional[str] = None,
               events: Optional[List[Dict[str, Any]]] = None,
               cache_key: Optional[str] = None) -> bool:
        result = doc.get("result") if doc["state"] == "done" else None
        put = cache_key is not None and result is not None
        with self._txn(begin=bool(events) or put):
            landed = (self._write(doc, "") if worker is None else
                      self._write(doc, "AND claimed_by = ?", worker))
            if landed:
                self._append_events(doc["id"], events)
            if landed and put:
                self._cache_put(cache_key, result.get("digest"), {
                    k: v for k, v in result.items() if k != "lease"})
        if not landed and worker is None:
            raise StoreError(f"no such job {doc['id']!r}")
        return landed

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._txn(begin=False) as db:
            row = db.execute(
                "SELECT doc, sha256 FROM jobs WHERE id = ?",
                (job_id,)).fetchone()
        return self._row_doc(row) if row is not None else None

    def list(self) -> List[Dict[str, Any]]:
        return self._docs("")

    def _docs(self, where: str) -> List[Dict[str, Any]]:
        with self._txn(begin=False) as db:
            rows = db.execute(f"SELECT doc, sha256 FROM jobs {where}"
                              " ORDER BY seq").fetchall()
        return [self._row_doc(r) for r in rows]

    # -- indexed queries: every one a lookup on jobs(state, tenant) ------
    def queued(self) -> List[Dict[str, Any]]:
        """Decodes the queued rows only."""
        return self._docs("WHERE state = 'queued'")

    def counts(self) -> Dict[str, int]:
        """One ``GROUP BY`` over the index (never on a job's path)."""
        with self._txn(begin=False) as db:
            return dict(db.execute(
                "SELECT state, COUNT(*) FROM jobs"
                " GROUP BY state").fetchall())

    # -- claims --------------------------------------------------------
    def _patch_doc(self, job_id: str, **fields: Any
                   ) -> Optional[Dict[str, Any]]:
        """Re-serialise a row's doc with ``fields`` folded in and
        return it (called inside a transaction by the CAS ops)."""
        row = self._db.execute(
            "SELECT doc, sha256 FROM jobs WHERE id = ?",
            (job_id,)).fetchone()
        if row is None:
            return None
        doc = self._row_doc(row)
        doc.update(fields)
        text = _canon(doc)
        self._db.execute(
            "UPDATE jobs SET doc = ?, sha256 = ? WHERE id = ?",
            (text, _doc_sha(text), job_id))
        return doc

    def _claim(self, job_id: str, worker: str, now: float, ttl: float,
               token: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The claim CAS: the claimed doc, or ``None`` if not queued."""
        row = self._db.execute(
            "UPDATE jobs SET state = 'scheduled', claimed_by = ?,"
            " claim_expires = ?, claim_token = ?"
            " WHERE id = ? AND state = 'queued' RETURNING pause_requested",
            (worker, now + ttl, token, job_id)).fetchone()
        if row is None:
            return None
        return self._patch_doc(job_id, state="scheduled", worker=worker,
                               pause_requested=bool(row[0]))

    def claim(self, job_id: str, worker: str, *, now: float,
              ttl: float) -> bool:
        with self._txn():
            return self._claim(job_id, worker, now, ttl) is not None

    def claim_next(self, worker: str, *, token: str, now: float,
                   ttl: float) -> Dict[str, Any]:
        with self._txn() as db:
            queued = db.execute(
                "SELECT id, tenant, seq, json_extract(doc, '$.priority'),"
                " cache_key FROM jobs WHERE state = 'queued'").fetchall()
            first = db.execute(
                "SELECT doc, sha256, cache_key FROM jobs WHERE"
                " claim_token = ? AND claimed_by = ?",
                (token, worker)).fetchone()
            if first is not None or not queued:
                key = first and first[2]
                return {"doc": first and self._row_doc(first[:2]),
                        "queued": len(queued), "hit": self._cache_lookup(
                            key, count=False) if key else None}
            tenants = sorted({r[1] for r in queued})
            marks = ", ".join("?" * len(tenants))
            # one tenant: the load cannot reorder anything
            load = {} if len(tenants) < 2 else dict(db.execute(
                "SELECT tenant, COUNT(*) FROM jobs WHERE state IN"
                " ('scheduled', 'running', 'paused', 'done', 'failed',"
                f" 'cancelled') AND tenant IN ({marks}) GROUP BY tenant",
                tenants).fetchall())
            pick = min(queued, key=lambda r: (-int(r[3] or 0),
                                              load.get(r[1], 0), r[2]))
            doc = self._claim(pick[0], worker, now, ttl, token)
            hit = self._cache_lookup(pick[4]) if pick[4] else None
        return {"doc": doc, "queued": len(queued) - 1, "hit": hit}

    def heartbeat(self, job_id: str, worker: str, *, now: float,
                  ttl: float,
                  doc: Optional[Dict[str, Any]] = None
                  ) -> Optional[Dict[str, Any]]:
        with self._txn() as db:
            flags = db.execute(
                "UPDATE jobs SET claim_expires = ? WHERE id = ? AND"
                " claimed_by = ? RETURNING cancel_requested,"
                " pause_requested", (now + ttl, job_id, worker)).fetchone()
            if flags is None:
                return None
            if doc is not None:
                # progress only lands on a still-claimable row: a
                # racing terminal write by the owner must never be
                # resurrected by a heartbeat
                self._write(dict(doc, id=job_id),
                            "AND state IN ('scheduled', 'running')")
        return {"cancel_requested": bool(flags[0]),
                "pause_requested": bool(flags[1])}

    def recover(self, *, now: float,
                worker: Optional[str] = None) -> List[str]:
        cond = "claim_expires IS NULL OR claim_expires < ?"
        args: List[Any] = [now]
        if worker is not None:
            cond += " OR claimed_by = ?"
            args.append(worker)
        with self._txn() as db:
            requeued = [r[0] for r in db.execute(
                "SELECT id FROM jobs WHERE state IN"
                f" ('scheduled', 'running') AND ({cond})",
                args).fetchall()]
            for jid in requeued:
                attempt = db.execute(
                    "UPDATE jobs SET state = 'queued', pause_requested = 0,"
                    " claimed_by = NULL, claim_expires = NULL,"
                    " attempt = attempt + 1 WHERE id = ?"
                    " RETURNING attempt", (jid,)).fetchone()[0]
                self._patch_doc(jid, state="queued", worker=None,
                                attempt=int(attempt),
                                queued_at=time.time())
        return requeued

    def request_cancel(self, job_id: str) -> Optional[str]:
        with self._txn() as db:
            row = db.execute(
                "SELECT state FROM jobs WHERE id = ?",
                (job_id,)).fetchone()
            if row is None or row[0] in ("done", "failed", "cancelled"):
                return None
            if row[0] in ("queued", "paused"):
                db.execute(
                    "UPDATE jobs SET state = 'cancelled',"
                    " claimed_by = NULL WHERE id = ?", (job_id,))
                self._patch_doc(job_id, state="cancelled", worker=None)
                return "cancelled"
            db.execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE id = ?",
                (job_id,))
            return "requested"

    def request_pause(self, job_id: str) -> Optional[str]:
        with self._txn() as db:
            row = db.execute(
                "UPDATE jobs SET pause_requested = 1 WHERE id = ? AND"
                " state NOT IN ('done', 'failed', 'cancelled')"
                " RETURNING state", (job_id,)).fetchone()
        return row and row[0]

    def requeue(self, job_id: str, *, from_state: str = "paused") -> bool:
        with self._txn() as db:
            won = db.execute(
                "UPDATE jobs SET state = 'queued', pause_requested = 0,"
                " claimed_by = NULL, claim_expires = NULL"
                " WHERE id = ? AND state = ?",
                (job_id, from_state)).rowcount > 0
            if won:
                self._patch_doc(job_id, state="queued", worker=None,
                                queued_at=time.time())
        return won

    # -- event log -----------------------------------------------------
    def _append_events(self, job_id: str,
                       events: Optional[List[Dict[str, Any]]]) -> None:
        for text in map(_canon, events or ()):
            self._db.execute(
                "INSERT INTO events(job, doc, sha256) VALUES (?, ?, ?)",
                (job_id, text, _doc_sha(text)))

    def append_event(self, job_id: str, event: Dict[str, Any]) -> None:
        with self._txn(begin=False):
            self._append_events(job_id, [event])

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        with self._txn(begin=False) as db:
            rows = db.execute(
                "SELECT doc, sha256 FROM events WHERE job = ?"
                " ORDER BY seq", (job_id,)).fetchall()
        return [self._row_doc(r) for r in rows]

    # -- result cache --------------------------------------------------
    def _bump_meta_counter(self, key: str) -> None:
        """Increment a persistent counter row in ``meta`` (one upsert,
        atomic inside a transaction or out of one)."""
        self._db.execute(
            "INSERT INTO meta VALUES (?, '1') ON CONFLICT(key) DO"
            " UPDATE SET value = CAST(value AS INTEGER) + 1", (key,))

    def _meta_counter(self, key: str) -> int:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return int(row[0]) if row else 0

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

    def _cache_put(self, key: str, digest: Optional[str],
                   result: Dict[str, Any]) -> None:
        """The one cache write: replace, then evict to the budget."""
        text, now = _canon(result), time.time()
        self._db.execute(
            "INSERT OR REPLACE INTO cache"
            " (key, digest, result, sha256, hits,"
            " created_at, size, last_used)"
            " VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
            (key, digest, text, _doc_sha(text), now, len(text), now))
        self._evict_over_budget()

    def _cache_lookup(self, key: str, *, count: bool = True
                      ) -> Optional[Dict[str, Any]]:
        """The one cache read: the entry under ``key`` (``count``ed as
        a hit, marked most recently used) or ``None``."""
        row = self._db.execute(
            "SELECT result, sha256 FROM cache WHERE key = ?",
            (key,)).fetchone()
        if row is None:
            return None
        try:
            doc = self._row_doc(row)
        except StoreCorrupt:
            # content-addressing: a damaged entry is a miss, never a
            # wrong answer
            self._db.execute("DELETE FROM cache WHERE key = ?", (key,))
            self._bump_meta_counter("cache_dropped")
            logger.warning("cache entry %s… dropped: payload "
                           "digest mismatch", key[:12])
            return None
        if count:
            self._db.execute(
                "UPDATE cache SET hits = hits + 1, last_used = ?"
                " WHERE key = ?", (time.time(), key))
            self._bump_meta_counter("cache_hits")
        return doc

    def cache_put(self, key: str, digest: Optional[str],
                  result: Dict[str, Any]) -> None:
        with self._txn():
            self._cache_put(key, digest, result)

    def cache_get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._txn(begin=False):
            return self._cache_lookup(key)

    def cache_stats(self) -> Dict[str, Any]:
        with self._txn(begin=False) as db:
            # the counters live in meta, not on the rows, so evicting
            # or re-putting an entry never lowers them
            entries, size = db.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0)"
                " FROM cache").fetchone()
            return {"entries": int(entries),
                    "hits": self._meta_counter("cache_hits"),
                    "dropped": self._meta_counter("cache_dropped"),
                    "bytes": int(size),
                    "evictions": self._meta_counter("cache_evicted"),
                    "budget": self.cache_budget}

    # -- worker registry -----------------------------------------------
    def fleet_register(self, doc: Dict[str, Any], *, now: float,
                       ttl: float) -> None:
        worker = doc.get("worker")
        if not worker:
            raise StoreError("fleet_register: doc must carry 'worker'")
        row = json.loads(_canon(doc))
        row.setdefault("state", "up")
        text = _canon(row)
        with self._txn(begin=False) as db:
            db.execute(
                "INSERT OR REPLACE INTO workers"
                " (worker, state, expires, doc, sha256)"
                " VALUES (?, ?, ?, ?, ?)",
                (worker, row["state"], now + float(ttl), text,
                 _doc_sha(text)))

    def fleet_heartbeat(self, worker: str, *, now: float, ttl: float,
                        state: Optional[str] = None) -> bool:
        with self._txn() as db:
            row = db.execute(
                "SELECT doc, sha256 FROM workers"
                " WHERE worker = ?", (worker,)).fetchone()
            if row is None:
                return False
            doc = self._row_doc(row)
            doc["last_seen"] = now
            if state is not None:
                doc["state"] = state
            text = _canon(doc)
            db.execute(
                "UPDATE workers SET state = ?, expires = ?,"
                " doc = ?, sha256 = ? WHERE worker = ?",
                (doc.get("state", "up"), now + float(ttl),
                 text, _doc_sha(text), worker))
            return True

    def fleet_deregister(self, worker: str) -> bool:
        with self._txn(begin=False) as db:
            return db.execute(
                "DELETE FROM workers WHERE worker = ?",
                (worker,)).rowcount > 0

    def fleet_workers(self, *, now: float) -> List[Dict[str, Any]]:
        with self._txn(begin=False) as db:
            rows = db.execute(
                "SELECT doc, sha256, expires FROM workers"
                " ORDER BY worker").fetchall()
        out = []
        for text, sha, expires in rows:
            doc = self._row_doc((text, sha))
            doc["expires"] = float(expires)
            doc["live"] = float(expires) >= now
            out.append(doc)
        return out

    # -- integrity / lifecycle -----------------------------------------
    def verify(self) -> List[str]:
        """Full damage scan: SQLite integrity check and per-row
        payload digests.  Every finding is the message of the
        :class:`StoreCorrupt` that reads of that datum raise."""
        findings: List[str] = []
        with self._lock:
            try:
                self._check_integrity()
            except StoreCorrupt as e:
                findings.append(str(e))
            except sqlite3.Error as e:
                findings.append(str(self._wrap(e)))
            for table in ("jobs", "events", "cache", "workers"):
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
        return findings

    def close(self) -> None:
        with self._lock:
            try:
                self._db.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass


class MemoryJobStore(SQLiteJobStore):
    """The name of ``SQLiteJobStore(":memory:")``: adds no behaviour;
    restarts of the *process* lose it, of a scheduler object over the
    same store instance do not."""

    kind = "memory"

    def __init__(self, *, cache_budget: Optional[int] = None) -> None:
        """Open a fresh private in-memory store."""
        super().__init__(":memory:", cache_budget=cache_budget)


def open_store(store: Union[None, str, Path, JobStore], *,
               cache_budget: Optional[int] = None) -> JobStore:
    """Coerce a store argument: ``None`` or ``":memory:"`` -> a fresh
    in-memory store, an ``http://host:port`` URL ->
    :class:`repro.fleet.RemoteJobStore` (the fleet network store), any
    other path -> :class:`SQLiteJobStore` on that file (parent
    directory created), an existing :class:`JobStore` -> itself.
    ``cache_budget`` (bytes) bounds the result cache of locally-opened
    stores; a remote store's budget is the *server's* policy and the
    argument is ignored."""
    if isinstance(store, JobStore):
        return store
    if store is None or str(store) == ":memory:":
        return MemoryJobStore(cache_budget=cache_budget)
    if str(store).startswith(("http://", "https://")):
        from ..fleet.remote import RemoteJobStore
        return RemoteJobStore(str(store))
    path = Path(store)
    path.parent.mkdir(parents=True, exist_ok=True)
    return SQLiteJobStore(path, cache_budget=cache_budget)
