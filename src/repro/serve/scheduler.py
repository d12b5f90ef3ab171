"""Stateless scheduler workers over a durable job store.

The paper's host feeds one GRAPE; the service multiplexes many
tenants onto a fixed pool of leased accelerators.  A :class:`Scheduler`
owns no durable state: it is a *worker* over a
:class:`~repro.serve.store.JobStore`, which any number of workers
share, and a restarted worker resumes running jobs from their
last-good checkpoint, reaching a ``state_digest`` bit-identical to an
uninterrupted run.

The pick is ranked store-wide, so fair share holds across workers:
``spec.priority`` (larger first), then the tenant with the fewest
claimed or served jobs in the *store*, then FIFO by store sequence.

Admission answers ``429 + Retry-After`` (:class:`AdmissionError`)
past a tenant's rate limit, kept by this worker, or past the
store-wide queue bound or the tenant's active-job quota, both counted
inside the store transaction that inserts the job, so workers sharing
a store cannot admit past them together.

Each control step of a job is one store op: ``enqueue``, ``claim_next``
and one ``update`` per state change, carrying its transition's event.
A repeated submission (same kind/params, no fault plan) is answered
from the store's result cache inside ``enqueue`` (``done``, no slot,
claim or lease) or, if its twin still ran then, at its claim; the
terminal ``update`` caches a computed result.

The store is the only record of a job a worker does not run: a worker
holds a job in memory from the claim to the write that ends its run,
and answers every other read -- and every cancel, pause and resume --
from the store row.  Cancel and pause requests are flags on that row,
which the owner reads in its heartbeat reply.

A crash inside a running job is recovered *inside its slot* by
``Simulation.run``'s checkpoint rollback; a crash of the *worker
process* by any surviving (or restarted) worker through
:meth:`JobStore.recover`.
"""

from __future__ import annotations

import logging
import os
import itertools
import socket
import tempfile
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..obs import FlightRecorder, Tracer, new_trace_id
from ..obs.export import span_events
from .jobs import JOB_KINDS, TERMINAL_STATES, Job, JobCancelled, \
    JobError, JobPaused, JobSpec
from .leases import LeaseBroker
from .quotas import AdmissionController, AdmissionError, TenantPolicy
from .runner import run_job
from .store import JobStore, StoreError, open_store, spec_hash

__all__ = ["AdmissionError", "Scheduler"]

logger = logging.getLogger(__name__)

_worker_counter = itertools.count(1)


class Scheduler:
    """One stateless worker: claim, lease, run, record -- all durable
    state in the :class:`~repro.serve.store.JobStore`.

    Parameters
    ----------
    slots:
        Worker threads = concurrent jobs = accelerator leases.
    boards:
        GRAPE-5 boards behind each slot; the lease broker reserves the
        slot's physical board *set* exclusively for each lease (see
        :class:`~repro.serve.leases.LeaseBroker`).
    queue_depth:
        Maximum *queued* jobs store-wide before submissions are
        rejected with :class:`AdmissionError`.
    workdir:
        Directory for per-job workdirs (checkpoints).  Pass a real
        path together with a durable store so restarts find the
        checkpoints; a temporary directory is created when omitted.
    store:
        ``None`` (private in-memory store), a path (SQLite-WAL store,
        shareable between workers), an ``http://host:port`` URL (the
        fleet network store of :mod:`repro.fleet`, shareable between
        *hosts*), or a :class:`JobStore` instance.
    cache_budget:
        Byte bound on the store's result cache (LRU eviction); only
        honoured for stores this scheduler opens itself -- a remote
        store's budget is the store server's policy.
    worker_id:
        This worker's claim identity.  Give restarts of the same
        logical worker the same id and :meth:`start` reclaims its
        own orphaned jobs immediately instead of waiting out the TTL.
    claim_ttl / heartbeat_interval / poll_interval:
        Claim lease seconds; heartbeat cadence (default ``ttl/3``);
        how often idle workers poll the store for jobs submitted
        through *other* workers.
    cache:
        Serve repeat submissions from the store's result cache
        (default on).
    quota:
        Admission policy: an :class:`AdmissionController`, a
        :class:`~repro.serve.quotas.TenantPolicy` (applied to every
        tenant), or a ``{tenant: TenantPolicy}`` dict.
    metrics:
        :class:`~repro.obs.MetricsRegistry` for the ``serve.*`` and
        ``fleet.*`` counters, gauges and histograms (and the lease
        broker's); a private registry when omitted.
    tracer:
        Tracer for the spans no single job owns (the housekeeping
        ``serve.store.recover`` scan); every job traces into its own
        :class:`~repro.obs.Tracer`, built at claim.
    system_factory:
        Zero-argument callable building each slot's
        :class:`~repro.grape.system.Grape5System`, passed to the
        :class:`~repro.serve.leases.LeaseBroker`; the paper machine
        with ``boards`` boards when omitted.
    """

    def __init__(self, *, slots: int = 2, boards: int = 2,
                 queue_depth: int = 16,
                 workdir: Optional[object] = None,
                 store: Optional[object] = None,
                 worker_id: Optional[str] = None,
                 claim_ttl: float = 30.0,
                 heartbeat_interval: Optional[float] = None,
                 poll_interval: float = 0.25,
                 cache: bool = True,
                 cache_budget: Optional[int] = None,
                 quota: Optional[object] = None,
                 metrics: Optional[object] = None,
                 tracer: Optional[object] = None,
                 system_factory: Optional[object] = None) -> None:
        from ..obs import MetricsRegistry, NULL_TRACER
        if queue_depth < 1:
            raise JobError("queue_depth must be >= 1")
        if claim_ttl <= 0:
            raise JobError("claim_ttl must be > 0")
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slots = int(slots)
        self.boards = int(boards)
        self.queue_depth = int(queue_depth)
        self.store: JobStore = open_store(store,
                                          cache_budget=cache_budget)
        self.worker_id = worker_id or \
            f"w-{os.getpid()}-{next(_worker_counter)}"
        self.host = socket.gethostname()
        #: whether :meth:`drain` has taken this worker out of claiming
        self.draining = False
        self.claim_ttl = float(claim_ttl)
        self.heartbeat_interval = (float(heartbeat_interval)
                                   if heartbeat_interval is not None
                                   else max(0.05, self.claim_ttl / 3.0))
        self.poll_interval = float(poll_interval)
        self.cache_enabled = bool(cache)
        if isinstance(quota, AdmissionController):
            self.admission = quota
        elif isinstance(quota, TenantPolicy):
            self.admission = AdmissionController(default=quota)
        elif isinstance(quota, dict):
            self.admission = AdmissionController(per_tenant=quota)
        elif quota is None:
            self.admission = AdmissionController()
        else:
            raise JobError(f"unsupported quota {quota!r}")
        self.broker = LeaseBroker(self.slots, boards=int(boards),
                                  system_factory=system_factory,
                                  metrics=self.metrics)
        self._workdir = Path(workdir) if workdir is not None else \
            Path(tempfile.mkdtemp(prefix="repro-serve-"))
        self._workdir.mkdir(parents=True, exist_ok=True)
        #: the jobs this worker's slots run: in from the claim, out at
        #: the write that ends the run; the store answers for the rest
        self._jobs: Dict[str, Job] = {}
        self._done_seconds: List[float] = []
        lock = threading.RLock()
        #: state changes: ``wait()``, ``drain()`` and housekeeping
        self._cv = threading.Condition(lock)
        #: idle slots, apart: a submit wakes one, a finished job none
        self._slot_cv = threading.Condition(lock)
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self.metrics.gauge("serve.queue_limit",
                           "admission-control queue bound").set(
            self.queue_depth)
        self._set_gauges_locked(len(self.store.queued()))

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "Scheduler":
        """Recover orphaned claims, then spawn the worker +
        housekeeping threads (idempotent)."""
        with self._cv:
            if self._threads:
                return self
            self._stopping = False
            try:
                requeued = self.store.recover(now=time.time(),
                                              worker=self.worker_id)
            except StoreError as e:
                logger.warning("startup recovery failed: %s", e)
                requeued = []
            if requeued:
                self.metrics.counter(
                    "serve.jobs_requeued",
                    "jobs re-queued after a lost/expired claim"
                    ).inc(len(requeued))
                logger.info("recovered %d orphaned job(s): %s",
                            len(requeued), ", ".join(requeued))
            self.draining = False
            try:
                self.store.fleet_register(self._fleet_doc(),
                                          now=time.time(),
                                          ttl=self.claim_ttl)
            except StoreError as e:
                logger.warning("fleet registration failed: %s", e)
            loops = [(str(i), self._worker_loop) for i in range(self.slots)]
            for name, loop in loops + [("housekeeping",
                                        self._housekeeping_loop)]:
                t = threading.Thread(target=loop, daemon=True,
                                     name=f"repro-serve-{name}")
                t.start()
                self._threads.append(t)
        logger.info("scheduler %s started: %d slot(s), queue bound %d, "
                    "store %s, workdir %s", self.worker_id, self.slots,
                    self.queue_depth, self.store.kind, self._workdir)
        return self

    def stop(self, *, timeout: float = 30.0,
             drain: Optional[bool] = None) -> None:
        """Shut down this worker.

        ``drain`` (default: on for durable stores, off for in-memory)
        checkpoints running jobs via the pause path and re-queues them
        in the store, so another worker -- or this one after a restart
        -- resumes them bit-identically.  Without drain, running jobs
        are cancelled.  Idempotent.
        """
        with self._cv:
            if self._stopping and not self._threads:
                return
            self._stopping = True
            if drain is None:
                drain = self.store.kind != "memory"
            running = list(self._jobs.values())
            for job in running:
                (job.pause_event if drain else job.cancel_event).set()
            self._cv.notify_all()
            self._slot_cv.notify_all()
            threads, self._threads = self._threads, []
        for t in threads:
            t.join(timeout=timeout)
        if drain:
            self._requeue_paused(running)
        try:
            self.store.fleet_deregister(self.worker_id)
        except StoreError as e:
            logger.warning("fleet deregistration failed: %s", e)
        self.broker.close()
        logger.info("scheduler %s stopped", self.worker_id)

    def drain(self, *, timeout: float = 30.0) -> Dict[str, Any]:
        """Take this worker out of the fleet without stopping it.

        Drain semantics (the fleet's maintenance primitive): the
        worker immediately stops claiming, asks every owned
        scheduled/running job to checkpoint and vacate via the pause
        path, re-queues the paused jobs so any other worker resumes
        them bit-identically, and deregisters from the worker
        registry.  The HTTP surface stays up -- a drained worker still
        answers ``/jobs``, ``/fleet`` and ``/metrics`` -- and
        :meth:`start`-after-:meth:`stop` (or a restart) re-registers
        and resumes claiming.  Idempotent; returns a summary document.
        """
        with self._cv:
            already = self.draining
            self.draining = True
            owned = list(self._jobs.values())
            for job in owned:
                job.pause_event.set()
            self._cv.notify_all()
        try:
            self.store.fleet_heartbeat(self.worker_id,
                                       now=time.time(),
                                       ttl=self.claim_ttl,
                                       state="draining")
        except StoreError as e:
            logger.warning("drain heartbeat failed: %s", e)
        with self._cv:
            self._cv.wait_for(
                lambda: not any(j.id in self._jobs for j in owned),
                timeout=timeout)
        requeued = self._requeue_paused(owned)
        try:
            self.store.fleet_deregister(self.worker_id)
        except StoreError as e:
            logger.warning("drain deregistration failed: %s", e)
        if not already:
            self.metrics.counter(
                "fleet.drains",
                "drain requests this worker has served").inc()
        logger.info("scheduler %s drained: %d owned job(s), %d "
                    "re-queued", self.worker_id, len(owned),
                    len(requeued))
        return {"worker": self.worker_id, "draining": True,
                "owned": [j.id for j in owned], "requeued": requeued}

    def _requeue_paused(self, jobs: List[Job]) -> List[str]:
        """Hand the ``jobs`` whose run here ended paused (no slot
        touches them again) back to the queue, where any worker
        resumes them; returns the ids re-queued."""
        requeued = []
        for job in jobs:
            if job.state == "paused":
                try:
                    if self.store.requeue(job.id):
                        requeued.append(job.id)
                except StoreError as e:
                    logger.warning("drain requeue of %s failed: %s",
                                   job.id, e)
        return requeued

    def _fleet_doc(self) -> Dict[str, Any]:
        """This worker's registry row: identity + capabilities."""
        return {"worker": self.worker_id, "host": self.host,
                "pid": os.getpid(), "slots": self.slots,
                "boards": self.boards,
                "kinds": sorted(JOB_KINDS),
                "state": "draining" if self.draining else "up",
                "registered_at": time.time()}

    def fleet_status(self) -> Dict[str, Any]:
        """The ``GET /fleet`` membership document: this worker's view
        of the registry plus the shared cache counters."""
        now = time.time()
        try:
            workers = self.store.fleet_workers(now=now)
        except StoreError:
            workers = []
        try:
            cache = self.store.cache_stats()
        except StoreError:
            cache = {}
        live = [w for w in workers if w.get("live")]
        return {
            "schema": "repro.fleet/v1",
            "worker": self.worker_id,
            "host": self.host,
            "draining": self.draining,
            "store": {"kind": self.store.kind,
                      "url": getattr(self.store, "url", None)},
            "workers": workers,
            "live": len(live),
            "draining_count": sum(1 for w in live
                                  if w.get("state") == "draining"),
            "cache": cache,
        }

    # -- submission / control ------------------------------------------
    def submit(self, spec: JobSpec) -> "JobHandle":
        """Admit a job or raise :class:`AdmissionError` (429): the
        tenant's rate limit here, then the queue bound and the tenant
        quota in the store op that inserts it -- and answers a cached
        spec ``done``, with no slot, claim or lease.  No lock is held
        across that op: a slot claims and starts waiting under the
        lock, so it sees the new job or gets the notify below."""
        t0 = time.perf_counter()
        with self._cv:
            if self._stopping:
                raise AdmissionError("scheduler is shutting down",
                                     retry_after=5.0)
        # the store names the job; the token names this submission,
        # so a resent enqueue finds it instead of queueing a twin
        token = uuid.uuid4().hex
        job = Job(spec=spec, id=token)
        job.trace_id = new_trace_id()
        job.stage_event("submitted", tenant=spec.tenant)
        key = self._cache_key(spec)
        try:
            self.admission.spend(spec.tenant)
            doc = job.to_store_doc()
            if key is not None:  # kept by the store only on a hit
                tracer = Tracer(trace_id=job.trace_id)
                tracer.record("serve.admission", time.perf_counter() - t0)
                tracer.record("serve.queue_wait", 0.0)
                doc["spans"] = list(span_events(tracer))
            out = self.store.enqueue(
                doc, token=token, max_queued=self.queue_depth,
                max_active=self.admission.policy(spec.tenant).max_active,
                events=job.take_events(), cache_key=key, now=time.time())
            if "refused" in out:
                self.admission.refund(spec.tenant)
                queued = out["queued"]
                raise (self.admission.over_quota(spec.tenant,
                                                 out["active"])
                       if out["refused"] == "quota" else AdmissionError(
                           f"queue full ({queued}/{self.queue_depth}"
                           " jobs waiting)",
                           retry_after=self._retry_after(queued)))
        except AdmissionError as e:
            self.metrics.counter(
                "serve.jobs_rejected",
                "submissions refused by admission control").inc()
            if type(e) is not AdmissionError:  # the tenant's limits
                self.metrics.counter(
                    "serve.quota_rejected",
                    "submissions refused by tenant quota/rate "
                    "limits").inc()
            raise
        job.id, job.seq = out["id"], out["seq"]
        self.metrics.counter("serve.jobs_submitted",
                             "jobs admitted to the queue").inc()
        with self._cv:
            self._set_gauges_locked(out["queued"])
            if "doc" not in out:
                self._slot_cv.notify()
                return JobHandle(job, self.get)
            job = Job.from_store_doc(out["doc"])
            self._count_locked(job)
        return JobHandle(job, self.get)

    def get(self, job_id: str) -> Job:
        """The job as the slot running it holds it, when one of this
        worker's does; else as its store row has it."""
        with self._cv:
            job = self._jobs.get(job_id)
        if job is not None:
            return job
        try:
            doc = self.store.get(job_id)
        except StoreError:
            doc = None
        if doc is None:
            raise KeyError(f"no such job {job_id!r}")
        return Job.from_store_doc(doc)

    def jobs(self) -> List[Job]:
        """All jobs in the store, submission order."""
        return [Job.from_store_doc(doc) for doc in self.store.list()]

    def events(self, job_id: str) -> List[Dict]:
        """A job's progress events, append order, from the store --
        the same answer on every worker, whichever one ran it."""
        return self.store.events(job_id)

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediately for queued/paused (wherever it
        lives), by flag for running -- the owning worker observes the
        flag through its heartbeat and between steps."""
        if self.store.request_cancel(job_id) == "cancelled":
            self.metrics.counter("serve.jobs_cancelled",
                                 "jobs finished cancelled").inc()
        with self._cv:
            self._signal_locked(job_id, "cancel_event")
            self._cv.notify_all()
        return self.get(job_id)

    def pause(self, job_id: str) -> Job:
        """Ask a job to checkpoint and vacate its slot: at once when
        it runs here, at its owner's next heartbeat when it runs
        elsewhere, at its claim when it is still queued."""
        if self.store.request_pause(job_id) is None:
            raise JobError(f"job {job_id} is already "
                           f"{self.get(job_id).state}")
        with self._cv:
            self._signal_locked(job_id, "pause_event")
        return self.get(job_id)

    def resume(self, job_id: str) -> Job:
        """Re-queue a paused job; any worker on the store continues
        it from its checkpoint."""
        if not self.store.requeue(job_id, from_state="paused"):
            raise JobError(f"job {job_id} is {self.get(job_id).state}, "
                           "not paused")
        with self._cv:
            self._slot_cv.notify()
        return self.get(job_id)

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal (or paused); returns
        whether it stopped within ``timeout``.  Works for jobs run by
        other workers too (the housekeeping tick re-reads the
        store)."""
        with self._cv:
            return self._cv.wait_for(
                lambda: self._resting_locked(job_id), timeout=timeout)

    # -- internals -----------------------------------------------------
    def _event_sink(self, job_id: str, event: Dict) -> None:
        try:
            self.store.append_event(job_id, event)
        except StoreError as e:  # pragma: no cover - log must not kill
            logger.warning("event append for %s failed: %s", job_id, e)

    def _signal_locked(self, job_id: str, flag: str) -> None:
        """Set a control flag on the job if a slot here runs it."""
        job = self._jobs.get(job_id)
        if job is not None:
            getattr(job, flag).set()

    def _resting_locked(self, job_id: str) -> bool:
        if job_id in self._jobs:  # a run here ends with its pop
            return False
        try:
            doc = self.store.get(job_id)
        except StoreError:
            return False
        if doc is None:
            raise KeyError(f"no such job {job_id!r}")
        return doc["state"] in TERMINAL_STATES | {"paused"}

    def _retry_after(self, queued: int) -> float:
        """Backoff hint: about one average job duration per queued job
        ahead, across the slot pool (floor 1 s)."""
        avg = (sum(self._done_seconds) / len(self._done_seconds)
               if self._done_seconds else 1.0)
        return max(1.0, avg * queued / max(1, self.slots))

    def _set_gauges_locked(self, queued: Optional[int] = None) -> None:
        """Refresh the gauges with no store read of their own:
        ``queued`` is what admission or the pick (an idle slot's
        included) just read."""
        if queued is not None:
            self.metrics.gauge("serve.queue_depth",
                               "jobs waiting for a slot").set(queued)
        running = sum(1 for j in self._jobs.values()
                      if j.state == "running")
        self.metrics.gauge("serve.jobs_running",
                           "jobs executing in a slot").set(running)

    def _finish_locked(self, job: Job, state: str, event: str = "",
                       **attrs: Any) -> None:
        """End the job's run here: the lifecycle move and the durable
        write carrying its event, the counters, then the job leaves
        this worker -- the store answers for it from here on."""
        job.stage_event(event or state, **attrs)
        job.advance(state)
        self._persist(job)
        self._count_locked(job)
        self._jobs.pop(job.id, None)

    def _count_locked(self, job: Job) -> None:
        """Count a job that ended its run, here or at admission."""
        if job.terminal:
            self.metrics.counter(f"serve.jobs_{job.state}",
                                 f"jobs finished {job.state}").inc()
        if job.state != "done":
            return
        seconds = job.finished_at - job.submitted_at
        self._done_seconds.append(seconds)
        del self._done_seconds[:-32]
        self.metrics.histogram(
            "serve.submit_to_done_seconds",
            "submission-to-completion wall seconds of "
            "successful jobs").observe(seconds)
        if job.cache_hit:
            self.metrics.counter(
                "serve.cache_hits",
                "jobs served from the result cache without a GRAPE "
                "lease").inc()

    def _cache_key(self, spec: JobSpec) -> Optional[str]:
        """The spec's result-cache key; ``None`` with the cache off or
        a fault plan (chaos runs are about the journey, not results)."""
        return (spec_hash(spec) if self.cache_enabled
                and spec.faults is None else None)

    def _persist(self, job: Job) -> bool:
        """Write the job's durable projection with its staged events,
        guarded by this worker's claim; a lost claim is counted, not
        fatal (the taking-over worker owns the story now).  A trace the
        store refuses (too large for its transport) is dropped, never
        the terminal state it rides with.  A computed result is cached
        by its ``done`` write."""
        doc, events = job.to_store_doc(), job.take_events()
        key = (self._cache_key(job.spec)
               if job.state == "done" and not job.cache_hit else None)
        try:
            try:
                ok = self.store.update(doc, worker=self.worker_id,
                                       events=events, cache_key=key)
            except StoreError:
                if doc.pop("spans", None) is None:
                    raise
                ok = self.store.update(doc, worker=self.worker_id,
                                       events=events, cache_key=key)
        except StoreError as e:
            logger.warning("persist of %s failed: %s", job.id, e)
            return False
        if not ok:
            self.metrics.counter(
                "serve.claims_lost",
                "updates dropped because the claim moved on").inc()
        return ok

    # -- claim / pick --------------------------------------------------
    def _claim_next_locked(self) -> Optional[Job]:
        """Claim the head of the store's queue, and its cached result,
        in one ``claim_next`` op.  A draining worker claims nothing."""
        if self.draining:
            return None
        t0 = time.perf_counter()
        try:  # a resend of this pick's token returns the job it won
            out = self.store.claim_next(self.worker_id,
                                        token=uuid.uuid4().hex,
                                        now=time.time(),
                                        ttl=self.claim_ttl)
        except StoreError as e:
            logger.warning("claim failed: %s", e)
            return None
        seconds = time.perf_counter() - t0
        self.metrics.histogram(
            "serve.store.claim_seconds",
            "seconds per claim_next (rank + claim + cache lookup)"
            ).observe(seconds)
        self._set_gauges_locked(out["queued"])
        if not out["doc"]:
            return None
        job = self._adopt_locked(out["doc"], out["hit"])
        job.tracer.record("serve.store.claim", seconds, job=job.id,
                          cache_hit=job.cache_hit)
        if not job.cache_hit and self._cache_key(job.spec) is not None:
            self.metrics.counter(
                "serve.cache_misses",
                "result-cache lookups that had to compute").inc()
        return job

    def _adopt_locked(self, doc: Dict, hit: Optional[Dict]) -> Job:
        """Turn a just-claimed store document (and the claim's cache
        ``hit``, its result) into the runtime job a slot runs: its
        tracer, flight recorder and workdir are built here and nowhere
        else, and its queue wait since the store last queued it is
        recorded.  :meth:`_execute` makes the workdir, off the lock."""
        job = Job.from_store_doc(doc)
        job.result, job.cache_hit = hit, hit is not None
        job.trace_id = job.trace_id or new_trace_id()
        job.tracer = Tracer(trace_id=job.trace_id)
        # a job that never ran gets its first owner's workdir
        job.workdir = job.workdir or str(self._workdir / job.id)
        # the black box opens with the admission, whoever admitted it
        job.flight = FlightRecorder(
            path=Path(job.workdir) / "flightrec.jsonl")
        job.flight.record("job.submitted", job=job.id,
                          tenant=job.spec.tenant, attempt=job.attempt)
        job.event_sink = self._event_sink
        if doc.get("pause_requested"):
            job.pause_event.set()
        # wall clocks: the store's at the entry, this worker's now
        wait = max(0.0, time.time()
                   - doc.get("queued_at", job.submitted_at))
        job.tracer.record("serve.queue_wait", wait, job=job.id,
                          attempt=job.attempt)
        self.metrics.histogram(
            "serve.queue_wait_seconds",
            "seconds jobs waited in the queue for a slot").observe(wait)
        self._jobs[job.id] = job
        return job

    # -- the worker loop -----------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                if self._stopping:
                    return
                job = self._claim_next_locked()
                if job is None:
                    # poll: jobs submitted through *other* workers
                    # arrive without a local notify
                    self._slot_cv.wait(timeout=self.poll_interval)
                    continue
            if job.cache_hit:
                self._serve_from_cache(job)
            else:
                self._execute(job)
            with self._cv:
                self._set_gauges_locked()
                self._cv.notify_all()

    def _housekeeping_loop(self) -> None:
        """Heartbeats for owned jobs *and* this worker's registry
        row, takeover of expired claims, gauge refresh -- the
        store-side metronome of every worker."""
        while True:
            with self._cv:
                if self._cv.wait_for(lambda: self._stopping,
                                     timeout=self.heartbeat_interval):
                    return
                owned = list(self._jobs.values())
            now = time.time()
            for job in owned:
                try:
                    row = self.store.heartbeat(
                        job.id, self.worker_id, now=now,
                        ttl=self.claim_ttl, doc=job.to_store_doc())
                except StoreError as e:
                    logger.warning("heartbeat for %s failed: %s",
                                   job.id, e)
                    continue
                if row is None:
                    # expired claim taken over elsewhere: stop our
                    # copy -- the new owner resumes from checkpoints
                    self.metrics.counter(
                        "serve.claims_lost",
                        "updates dropped because the claim moved "
                        "on").inc()
                    job.cancel_event.set()
                else:
                    if row.get("cancel_requested"):
                        job.cancel_event.set()
                    if row.get("pause_requested"):
                        job.pause_event.set()
            t0 = time.perf_counter()
            try:
                requeued = self.store.recover(now=now)
            except StoreError as e:
                logger.warning("recover scan failed: %s", e)
                requeued = []
            if requeued:
                with self._cv:
                    self._slot_cv.notify_all()
                self.metrics.counter(
                    "serve.takeovers",
                    "expired claims re-queued for takeover"
                    ).inc(len(requeued))
                self.tracer.record("serve.store.recover",
                                   time.perf_counter() - t0,
                                   requeued=len(requeued))
                logger.info("re-queued %d expired claim(s): %s",
                            len(requeued), ", ".join(requeued))
            try:
                if not self.store.fleet_heartbeat(
                        self.worker_id, now=now, ttl=self.claim_ttl,
                        state=("draining" if self.draining
                               else "up")) and not self.draining:
                    # TTL lapsed (or the store was rebuilt): rejoin
                    self.store.fleet_register(self._fleet_doc(),
                                              now=now,
                                              ttl=self.claim_ttl)
                summary = self.store.fleet_summary(now=now)
                self.metrics.gauge(
                    "fleet.workers_live",
                    "registry rows with a fresh heartbeat").set(
                    summary["live"])
                self.metrics.gauge(
                    "fleet.workers_draining",
                    "live workers currently draining").set(
                    summary["draining"])
            except StoreError as e:
                logger.warning("fleet heartbeat failed: %s", e)
            try:
                cstats = self.store.cache_stats()
                for key, help_ in (
                        ("entries", "content-addressed result-cache "
                                    "entries"),
                        ("bytes", "bytes held by the result cache"),
                        ("evictions", "cache entries evicted to stay "
                                      "under the byte budget")):
                    self.metrics.gauge(f"serve.cache_{key}", help_).set(
                        cstats.get(key, 0))
            except StoreError:  # pragma: no cover - damaged store
                pass
            with self._cv:
                self._set_gauges_locked()
                # wake wait()ers so they re-read other workers' jobs
                self._cv.notify_all()

    # -- execution -----------------------------------------------------
    def _serve_from_cache(self, job: Job) -> None:
        """Finish a job whose claim found its result cached: one write,
        no lease; a ``serve.store.cache`` span marks the hit."""
        key = spec_hash(job.spec)[:12]
        job.tracer.record("serve.store.cache", 0.0, job=job.id, key=key,
                          outcome="hit")
        with self._cv:
            job.advance("running")
            self._finish_locked(job, "done", "cache_hit", key=key,
                                digest=job.result.get("digest"))

    def _flight_dump(self, job: Job) -> None:
        """Dump the job's black box when it is worth keeping: the job
        died, recovered from a fault, or ran under an injected fault
        plan.  Clean, fault-free jobs leave no ``flightrec.jsonl``."""
        if (job.state == "failed" or job.recoveries > 0
                or job.spec.faults or job.flight.count("fault") > 0):
            try:
                job.flight.flush()
            except OSError:  # pragma: no cover - workdir gone
                pass

    def _execute(self, job: Job) -> None:
        """One slot occupancy: lease, run, release, record the outcome.

        The lease goes back as soon as ``run_job`` returns or raises,
        *before* any terminal state is published, and the outcome's
        event lands in the same store write as the state: a ``wait()``
        that has returned never finds the slot still counted in
        ``serve.leases_in_use`` nor the event log one entry short.
        """
        Path(job.workdir).mkdir(parents=True, exist_ok=True)
        t_lease = time.perf_counter()
        try:
            lease = self.broker.acquire(timeout=60.0)
        except Exception as e:
            with self._cv:
                job.error = f"lease acquisition failed: {e}"
                self._finish_locked(job, "failed", error=job.error)
            self._flight_dump(job)
            return
        job.tracer.record("serve.lease_acquire",
                          time.perf_counter() - t_lease,
                          job=job.id, lease=lease.id, slot=lease.slot)
        job.lease = lease.id
        job.stage_event("leased", lease=lease.id, slot=lease.slot,
                        attempt=job.attempt)
        try:
            try:
                with self._cv:
                    job.advance("running")
                    self._persist(job)
                    self._set_gauges_locked()
                if job.cancel_event.is_set():
                    raise JobCancelled(job.id)
                result = run_job(job, lease, tracer=job.tracer,
                                 metrics=self.metrics)
            finally:
                try:
                    self.broker.release(lease)
                except Exception:  # pragma: no cover - broker closed
                    pass
            with self._cv:
                job.result = result
                self._finish_locked(job, "done")
        except JobCancelled:
            with self._cv:
                self._finish_locked(job, "cancelled")
        except JobPaused:
            with self._cv:
                self._finish_locked(job, "paused",
                                    steps_done=job.steps_done)
        except Exception as e:
            logger.exception("job %s failed", job.id)
            with self._cv:
                job.error = f"{type(e).__name__}: {e}"
                self._finish_locked(job, "failed", error=job.error)
        finally:
            self._flight_dump(job)


class JobHandle:
    """What :meth:`Scheduler.submit` returns.  ``admitted`` is the job
    document as the store took it in; every other attribute is read
    through :meth:`Scheduler.get` when asked, so the handle follows
    the job wherever it runs and the worker keeps no copy of it."""

    def __init__(self, admitted: Job, get) -> None:
        self.admitted, self.id, self._get = admitted, admitted.id, get

    def __getattr__(self, name: str) -> Any:
        return getattr(self._get(self.id), name)
