"""Force-evaluation engines: serial reference and multiprocess pipeline.

The paper's throughput rests on two overlaps the stock treecode loop
cannot express: the host walks the tree for the *next* Barnes group
while the GRAPE integrates the current group's shared list, and the
j-stream is chunked to the particle data memory's capacity.  An engine
reifies exactly that structure in software:

* :class:`SerialEngine` -- the reference implementation: the whole
  sweep in one :meth:`~repro.core.kernels.ForceBackend.eval_lists`
  call on the calling process, exactly what the treecode does with no
  engine.
* :class:`PipelineEngine` -- a pool of worker processes over shared
  position/mass/list memory.  Sinks are traversed in contiguous
  *shards*; as soon as shard *k*'s interaction lists exist its batches
  are queued, so workers evaluate shard *k* while the host traverses
  shard *k+1*.  Batches are packed to the backend's j-memory capacity
  (:class:`~repro.core.kernels.BackendCaps.max_nj`).  With one worker
  the evaluation order and arithmetic are identical to the serial path,
  so results are bit-identical; with many workers they still are,
  because every sink's computation is independent and written to a
  disjoint output slice.

Engines are backend-agnostic: anything whose
:meth:`~repro.core.kernels.ForceBackend.capabilities` declares
``parallel_safe`` (and provides a ``worker_factory``) can ride the
pipeline; other backends must use the serial engine.

Self-healing
------------
The pipeline is built to finish sweeps despite faults, the host-side
recovery discipline of the PC-GRAPE cluster deployments.  Batches are
idempotent (deterministic values into disjoint slices), which makes
re-execution always safe; on top of that the engine layers a ladder:

1. worker liveness is polled during gather -- a dead worker is
   detected within :data:`POLL_SECONDS` and the pool is rebuilt on
   fresh queues (a process that dies inside a queue operation can
   leave the queue's lock held forever, so the old queues cannot be
   trusted), with every outstanding batch resubmitted;
2. a started batch that exceeds ``batch_timeout`` has its worker
   declared hung (hang containment) and triggers the same rebuild;
3. a batch whose result checksum mismatches, or whose worker reported
   a (transient) error, is resubmitted with backoff;
4. a batch that exhausts ``max_retries`` degrades to serial: the
   parent evaluates it inline through its own backend -- the same
   arithmetic, so results stay bit-identical to :class:`SerialEngine`.

Every rung increments an ``exec.fault.*`` counter and emits an
``exec.fault`` span event, so injected (or real) faults are visible in
metrics and traces; with a :class:`~repro.obs.flightrec.FlightRecorder`
attached (``flight=``), each fault and recovery decision also lands in
the black-box ring, flushed whenever a sweep saw faults or aborted.
With ``max_retries=0`` and ``degrade=False`` the ladder is disabled and
any fault raises :class:`EngineError` promptly.

Tracing crosses the process boundary: when the sweep runs under an
enabled tracer, each batch ships a :class:`~repro.obs.context.
SpanContext` and the worker's phase timings come back on the ``done``
message, stitched under the submitting ``eval`` span as ``exec.batch``
spans -- ``repro run --engine pipeline --trace out.jsonl`` yields one
coherent tree spanning host and workers.
"""

from __future__ import annotations

import logging
import pickle
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.kernels import ForceBackend
from ..core.traversal import InteractionLists, concatenate_lists
from ..faults import as_fault_plan
from ..obs.context import SpanContext, new_span_id
from ..obs.trace import Span, as_tracer
from .plan import (DEFAULT_BATCH_NJ, SweepSpec, batch_message,
                   plan_batches)
from .workers import (STOP, _run_batch, batch_checksum, create_shm,
                      worker_main)

__all__ = ["EngineError", "EvalResult", "ForceEngine", "SerialEngine",
           "PipelineEngine", "make_engine", "ENGINE_NAMES",
           "POLL_SECONDS"]

logger = logging.getLogger(__name__)

ENGINE_NAMES = ("serial", "pipeline")

#: result-queue poll period: the upper bound on how long a dead or hung
#: worker goes unnoticed while the parent is waiting for results
POLL_SECONDS = 0.1

#: one-line help strings for the ``exec.fault.*`` counters
_FAULT_HELP = {
    "worker_deaths": "worker processes found dead during a sweep",
    "respawns": "worker-pool rebuilds after a lost or hung worker",
    "timeouts": "batches exceeding batch_timeout (worker declared hung)",
    "corrupt_batches": "batches failing the result checksum",
    "transient_errors": "transient backend errors reported by workers",
    "batch_errors": "non-transient batch errors reported by workers",
    "batch_retries": "batch resubmissions",
    "serial_fallbacks": "batches degraded to in-process evaluation",
}


class EngineError(RuntimeError):
    """Engine misconfiguration or worker failure."""


@dataclass
class EvalResult:
    """Outcome of one sweep, in the tree's Morton-sorted frame."""

    acc: np.ndarray
    pot: np.ndarray
    #: merged interaction lists of every sink (feeds TreeStats)
    lists: InteractionLists
    #: host seconds spent inside ``spec.build_lists`` calls
    traverse_seconds: float
    #: backend/kernel seconds (worker busy time for the pipeline)
    kernel_seconds: float
    #: engine-specific extras (workers, batches, overlap, ...)
    stats: Dict[str, float] = field(default_factory=dict)


class ForceEngine:
    """Evaluates a :class:`~repro.exec.plan.SweepSpec` over a backend."""

    name: str = "abstract"

    def evaluate(self, backend: ForceBackend, spec: SweepSpec, *,
                 tracer: Optional[object] = None,
                 metrics: Optional[object] = None) -> EvalResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release engine resources (idempotent)."""

    def __enter__(self) -> "ForceEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class SerialEngine(ForceEngine):
    """The whole sweep in one ``eval_lists`` call, on the calling
    process -- the same call the treecode makes with no engine, so
    results (and the backend's statistics) are bit-identical to it.
    """

    name = "serial"

    def evaluate(self, backend, spec, *, tracer=None, metrics=None):
        t0 = time.perf_counter()
        lists = spec.build_lists(0, spec.n_sinks)
        t_traverse = time.perf_counter() - t0

        acc = np.empty((spec.n_particles, 3), dtype=np.float64)
        pot = np.empty(spec.n_particles, dtype=np.float64)
        k0 = time.perf_counter()
        backend.eval_lists(spec.pos, spec.pmass, spec.com, spec.cmass,
                           lists, spec.sink_start, spec.sink_count,
                           spec.eps, acc, pot)
        t_kernel = time.perf_counter() - k0
        return EvalResult(acc=acc, pot=pot, lists=lists,
                          traverse_seconds=t_traverse,
                          kernel_seconds=t_kernel,
                          stats={"workers": 0.0})


class PipelineEngine(ForceEngine):
    """Batched list evaluation over a pool of worker processes.

    Parameters
    ----------
    workers:
        Worker process count (default: ``os.cpu_count()``).
    batch_nj:
        Target j-terms per batch; the effective cap is the smaller of
        this and the backend's ``max_nj``.  Batching amortises the
        per-task IPC without changing any per-sink arithmetic.
    shards_per_worker:
        Traversal granularity: sinks are walked in about
        ``workers * shards_per_worker`` shards, each submitted as soon
        as its lists exist, so evaluation overlaps the remaining
        traversal.
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (cheapest), else ``spawn``.
    faults:
        Optional fault plan (a :class:`~repro.faults.FaultPlan`, a JSON
        document/path, or the compact DSL -- see
        :func:`repro.faults.parse_fault_plan`) shipped to every worker
        for deterministic fault injection.
    max_retries:
        Resubmissions a batch gets before degrading to serial (0
        disables retries).
    batch_timeout:
        Wall seconds a *started* batch may take before its worker is
        declared hung, terminated and replaced.  ``None`` (default)
        disables hang detection -- no healthy batch is ever
        double-evaluated on a slow machine.
    retry_backoff:
        Base sleep before resubmission number *n* (``retry_backoff *
        n`` seconds).
    degrade:
        Evaluate a retry-exhausted batch inline through the parent's
        backend (bit-identical) instead of raising
        :class:`EngineError`.
    flight:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`.  Every
        fault-ladder event (and each recovery decision) is recorded
        into it, and the ring is flushed to its configured path
        whenever a sweep saw faults or aborted -- the engine-level
        black box.
    """

    name = "pipeline"

    def __init__(self, workers: Optional[int] = None, *,
                 batch_nj: Optional[int] = None,
                 shards_per_worker: int = 4,
                 start_method: Optional[str] = None,
                 faults: Optional[object] = None,
                 max_retries: int = 2,
                 batch_timeout: Optional[float] = None,
                 retry_backoff: float = 0.05,
                 degrade: bool = True,
                 flight: Optional[object] = None) -> None:
        import multiprocessing as mp
        import os
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise EngineError("workers must be >= 1")
        self.workers = int(workers)
        self.batch_nj = int(batch_nj) if batch_nj else None
        self.shards_per_worker = max(1, int(shards_per_worker))
        if max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        self.faults = as_fault_plan(faults)
        self.max_retries = int(max_retries)
        self.batch_timeout = (float(batch_timeout)
                              if batch_timeout is not None else None)
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.degrade = bool(degrade)
        self.flight = flight
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self._ctx = mp.get_context(start_method)
        self._workers_map: Dict[int, object] = {}
        self._next_wid = 0
        self._task_q = None
        self._result_q = None
        self._factory_bytes: Optional[bytes] = None
        self._fault_bytes: Optional[bytes] = (
            pickle.dumps(self.faults) if self.faults is not None else None)
        self._sweep_counter = 0
        self._closed = False

    @property
    def self_healing(self) -> bool:
        """Whether any rung of the recovery ladder is enabled."""
        return self.max_retries > 0 or self.degrade

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called (engine unusable)."""
        return self._closed

    def prewarm(self, backend: ForceBackend) -> "PipelineEngine":
        """Start the worker pool for ``backend`` ahead of the first
        sweep.

        Lease brokers call this when constructing a pooled engine so
        the multi-second worker startup is paid at lease-pool build
        time, not inside the first leased job's first force
        evaluation.  Idempotent for an unchanged backend; raises
        :class:`EngineError` for a closed engine or a backend that is
        not parallel-safe (same checks as :meth:`evaluate`).  Returns
        ``self`` for chaining.
        """
        self._ensure_pool(backend)
        return self

    # -- pool management ----------------------------------------------
    def _spawn_worker(self):
        wid = self._next_wid
        self._next_wid += 1
        p = self._ctx.Process(
            target=worker_main,
            args=(wid, self._factory_bytes, self._task_q, self._result_q,
                  self._fault_bytes),
            daemon=True, name=f"repro-exec-{wid}")
        p.start()
        self._workers_map[wid] = p
        return wid, p

    def _ensure_pool(self, backend: ForceBackend) -> None:
        if self._closed:
            raise EngineError("engine is closed")
        caps = backend.capabilities()
        factory = backend.worker_factory()
        if not caps.parallel_safe or factory is None:
            raise EngineError(
                f"backend {backend.name!r} is not parallel-safe; use the "
                "serial engine")
        factory_bytes = pickle.dumps(factory)
        if self._workers_map and factory_bytes != self._factory_bytes:
            # backend changed under us: restart workers with the new spec
            self._stop_workers()
        if not self._workers_map:
            self._factory_bytes = factory_bytes
            self._task_q = self._ctx.Queue()
            self._result_q = self._ctx.Queue()
            for _ in range(self.workers):
                self._spawn_worker()
            logger.debug("pipeline engine: started %d workers (%s)",
                         self.workers, self._ctx.get_start_method())

    def _kill_workers(self) -> None:
        """Forceful teardown: terminate the pool and drop its queues.

        Used when the queues can no longer be trusted (a worker died,
        or the sweep is aborting) -- no STOP sentinel is sent, because
        a worker that died inside a queue operation may have left the
        queue's lock held, wedging any peer that tries to drain it.
        """
        for p in self._workers_map.values():
            if p.is_alive():
                p.terminate()
        for p in self._workers_map.values():
            p.join(timeout=5.0)
        for q in (self._task_q, self._result_q):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._workers_map = {}
        self._task_q = self._result_q = None

    def _rebuild_pool(self) -> None:
        """Restart every worker on fresh queues.

        A worker that died (or was terminated) may have held a queue
        lock -- multiprocessing queues are poisoned by a death mid-get
        or mid-put -- so respawning a replacement onto the old queues
        can deadlock it.  Tearing down the whole pool and its queues is
        the only reliably safe recovery; batches are idempotent, so the
        caller simply resubmits everything still outstanding.
        """
        self._kill_workers()
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        for _ in range(self.workers):
            self._spawn_worker()

    def _stop_workers(self) -> None:
        if not self._workers_map:
            return
        for _ in self._workers_map:
            try:
                self._task_q.put((STOP,))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for p in self._workers_map.values():
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for q in (self._task_q, self._result_q):
            if q is not None:
                q.close()
        self._workers_map = {}
        self._task_q = self._result_q = None

    def close(self) -> None:
        self._stop_workers()
        self._closed = True

    # -- evaluation ----------------------------------------------------
    def evaluate(self, backend, spec, *, tracer=None, metrics=None):
        import queue as _queue
        tr = as_tracer(tracer)
        tracing = bool(getattr(tr, "enabled", False))
        fl = self.flight
        self._ensure_pool(backend)
        caps = backend.capabilities()
        cap_nj = min(c for c in (caps.max_nj,
                                 self.batch_nj or DEFAULT_BATCH_NJ)
                     if c is not None)
        w0 = time.perf_counter()
        sweep_id = self._sweep_counter
        self._sweep_counter += 1

        n = spec.n_particles
        s_count = spec.n_sinks
        domain = spec.domain
        scalars = np.array([spec.eps,
                            1.0 if domain is not None else 0.0,
                            domain[0] if domain is not None else 0.0,
                            domain[1] if domain is not None else 0.0],
                           dtype=np.float64)
        sweep_block = create_shm({
            "pos": spec.pos, "pmass": spec.pmass,
            "com": spec.com, "cmass": spec.cmass,
            "sink_start": np.ascontiguousarray(spec.sink_start,
                                               dtype=np.int64),
            "sink_count": np.ascontiguousarray(spec.sink_count,
                                               dtype=np.int64),
            "out_acc": np.zeros((n, 3), dtype=np.float64),
            "out_pot": np.zeros(n, dtype=np.float64),
            "scalars": scalars,
        })
        sweep_meta = sweep_block.meta

        n_shards = min(s_count, self.workers * self.shards_per_worker)
        shard_size = -(-s_count // n_shards) if n_shards else 0
        shard_blocks = []
        shard_by_name: Dict[str, object] = {}
        lists_parts: List[InteractionLists] = []
        #: batch_id -> base task message (kept until completion so the
        #: batch can be resubmitted or evaluated inline)
        pending_task: Dict[int, tuple] = {}
        attempts: Dict[int, int] = {}
        #: batch_id -> (worker_id, start wall time) from "start" msgs
        started: Dict[int, Tuple[int, float]] = {}
        outstanding: Set[int] = set()
        fault_counts: Dict[str, int] = {}
        next_batch = 0
        n_batches = 0
        t_traverse = 0.0
        t_fallback = 0.0
        busy_by_worker: Dict[int, float] = {}
        tasks_by_worker: Dict[int, int] = {}
        stats_total: Dict[str, float] = {}
        last_check = time.perf_counter()

        def _fault_event(kind: str, **attrs) -> None:
            fault_counts[kind] = fault_counts.get(kind, 0) + 1
            tr.record("exec.fault", 0.0, kind=kind, **attrs)
            if metrics is not None:
                metrics.counter(f"exec.fault.{kind}",
                                _FAULT_HELP.get(kind, "")).inc()
            if fl is not None:
                fl.record(f"fault.{kind}", sweep=sweep_id, **attrs)
            logger.warning("pipeline sweep %d: fault %s %s", sweep_id,
                           kind, attrs)

        def _submit(bid: int) -> None:
            self._task_q.put(pending_task[bid] + (attempts[bid],))

        def _complete(bid: int) -> None:
            outstanding.discard(bid)
            pending_task.pop(bid, None)
            attempts.pop(bid, None)
            started.pop(bid, None)

        def _serial_fallback(bid: int) -> None:
            """Last rung: evaluate the batch in-process through the
            parent's backend (identical arithmetic, so the sweep stays
            bit-identical to the serial engine)."""
            nonlocal t_fallback
            task = pending_task[bid]
            _, _, _, _, shard_meta, a0, g0, g1, _ctx = task
            shard = shard_by_name[shard_meta[0]]
            _fault_event("serial_fallbacks", batch=bid)
            if fl is not None:
                fl.record("recovery", decision="serial_fallback",
                          sweep=sweep_id, batch=bid)
            k0 = time.perf_counter()
            # domain already announced on the parent backend by the
            # driver (TreeCode.set_domain precedes the sweep)
            _run_batch(backend, sweep_block, shard, a0, g0, g1, False)
            t_fallback += time.perf_counter() - k0
            _complete(bid)

        def _retry(bid: int, reason: str, error: str = "",
                   backoff: bool = True) -> None:
            if bid not in outstanding:
                return
            started.pop(bid, None)
            attempts[bid] += 1
            if attempts[bid] > self.max_retries:
                if self.degrade:
                    _serial_fallback(bid)
                    return
                raise EngineError(
                    f"batch {bid} failed after {self.max_retries} "
                    f"retries ({reason})"
                    + (f":\n{error}" if error else ""))
            _fault_event("batch_retries", batch=bid, reason=reason,
                         attempt=attempts[bid])
            if fl is not None:
                fl.record("recovery", decision="retry", sweep=sweep_id,
                          batch=bid, reason=reason,
                          attempt=attempts[bid])
            if backoff and self.retry_backoff:
                time.sleep(self.retry_backoff * attempts[bid])
            _submit(bid)

        def _heal(bad_wids: Set[int], reason: str) -> None:
            """Worker-loss recovery: rebuild the whole pool.

            A worker that died (or was declared hung) may have held a
            queue lock or an unflushed message, so the shared queues
            cannot be trusted -- the pool restarts on fresh queues and
            *every* outstanding batch is resubmitted as a counted
            attempt.  A batch the lost worker consumed without
            announcing is indistinguishable from a queued one, and the
            attempt bump is what keeps a deterministic ``attempt=0``
            fault from re-firing forever in the fresh workers.
            """
            self._rebuild_pool()
            _fault_event("respawns", reason=reason,
                         workers=len(bad_wids))
            if fl is not None:
                fl.record("recovery", decision="rebuild_pool",
                          sweep=sweep_id, reason=reason,
                          workers=sorted(bad_wids),
                          resubmitted=len(outstanding))
            started.clear()
            for bid in sorted(outstanding):
                _retry(bid, reason, backoff=False)

        def _check_liveness() -> None:
            dead = {wid: p for wid, p in self._workers_map.items()
                    if not p.is_alive()}
            if not dead:
                return
            for wid, p in dead.items():
                p.join(timeout=0.1)
                _fault_event("worker_deaths", worker=wid,
                             exitcode=p.exitcode)
            if not self.self_healing:
                p = next(iter(dead.values()))
                raise EngineError(
                    f"worker {p.name} died (exit {p.exitcode}); "
                    "sweep aborted")
            _heal(set(dead), "worker_crash")

        def _check_timeouts() -> None:
            if self.batch_timeout is None:
                return
            now = time.perf_counter()
            hung = {w for bid, (w, t0) in started.items()
                    if now - t0 > self.batch_timeout}
            if not hung:
                return
            for wid in hung:
                _fault_event("timeouts", worker=wid)
            if not self.self_healing:
                raise EngineError(
                    f"batch exceeded batch_timeout="
                    f"{self.batch_timeout}s on worker "
                    f"{sorted(hung)[0]}")
            _heal(hung, "timeout")

        def _checks() -> None:
            nonlocal last_check
            last_check = time.perf_counter()
            _check_liveness()
            _check_timeouts()

        def _handle(msg) -> None:
            kind = msg[0]
            if kind == "start":
                _, bid, wid, sid = msg
                if sid == sweep_id and bid in outstanding:
                    started[bid] = (wid, time.perf_counter())
                return
            if kind == "done":
                _, bid, wid, sid, delta, busy, _ns, crc, wspans = msg
                if sid != sweep_id or bid not in outstanding:
                    return  # stale or duplicate: stats dropped too
                task = pending_task[bid]
                if crc != batch_checksum(sweep_block, task[6], task[7]):
                    _fault_event("corrupt_batches", batch=bid,
                                 worker=wid)
                    if not self.self_healing:
                        raise EngineError(
                            f"batch {bid} failed its result checksum "
                            f"(worker {wid})")
                    _retry(bid, "corrupt_result")
                    return
                ctx = task[8]
                if ctx is not None and wspans:
                    # stitch the worker's phase timings into the parent
                    # trace: one exec.batch span (submit -> last worker
                    # phase, on the shared monotonic clock) whose id was
                    # pre-allocated at submit time, with the worker's
                    # queue-wait/shm-attach/eval spans as children.
                    bsp = Span("exec.batch", span_id=ctx.span_id,
                               attrs={"batch": bid, "worker": wid,
                                      "sweep": sid,
                                      "attempt": attempts.get(bid, 0)})
                    bsp.t_start = ctx.t_origin or wspans[0]["t_start"]
                    bsp.t_end = max(d["t_end"] for d in wspans)
                    for d in wspans:
                        child = Span(d["name"], attrs=d.get("attrs"))
                        child.t_start = d["t_start"]
                        child.t_end = d["t_end"]
                        bsp.children.append(child)
                    tr.attach(bsp)
                _complete(bid)
                busy_by_worker[wid] = busy_by_worker.get(wid, 0.0) \
                    + float(busy)
                tasks_by_worker[wid] = tasks_by_worker.get(wid, 0) + 1
                for k, v in delta.items():
                    stats_total[k] = stats_total.get(k, 0.0) + v
                return
            # "error"
            _, bid, wid, sid, tb, transient = msg
            if sid != sweep_id or bid not in outstanding:
                return
            _fault_event("transient_errors" if transient
                         else "batch_errors", batch=bid, worker=wid)
            if not self.self_healing:
                raise EngineError("worker batch failed:\n" + tb)
            _retry(bid, "transient_error" if transient
                   else "worker_error", error=tb)

        def _pump(block: bool) -> None:
            """Collect results; optionally wait until one arrives.

            Worker liveness and batch timeouts are checked on every
            empty poll and at least every ``2 * POLL_SECONDS`` even
            while results are flowing, so a dead or hung worker is
            noticed promptly instead of the gather loop spinning on the
            queue forever.
            """
            while outstanding:
                if time.perf_counter() - last_check > 2 * POLL_SECONDS:
                    _checks()
                try:
                    msg = self._result_q.get(
                        timeout=POLL_SECONDS if block else 0.0)
                except _queue.Empty:
                    if not block:
                        return
                    _checks()
                    continue
                _handle(msg)
                if not block:
                    return

        try:
            _checks()  # catch workers lost between sweeps up front
            for a in range(0, s_count, max(1, shard_size)):
                b = min(a + shard_size, s_count)
                t0 = time.perf_counter()
                lists = spec.build_lists(a, b)
                t_traverse += time.perf_counter() - t0
                lists_parts.append(lists)
                shard_block = create_shm({
                    "cell_idx": lists.cell_idx, "cell_off": lists.cell_off,
                    "part_idx": lists.part_idx, "part_off": lists.part_off,
                })
                shard_blocks.append(shard_block)
                shard_by_name[shard_block.meta[0]] = shard_block
                for (u, v) in plan_batches(lists.list_lengths, cap_nj):
                    bid = next_batch
                    next_batch += 1
                    n_batches += 1
                    outstanding.add(bid)
                    ctx = (SpanContext(getattr(tr, "trace_id", ""),
                                       new_span_id(),
                                       time.perf_counter())
                           if tracing else None)
                    pending_task[bid] = batch_message(
                        bid, sweep_id, sweep_meta, shard_block.meta,
                        a, a + u, a + v, ctx)
                    attempts[bid] = 0
                    _submit(bid)
                    if metrics is not None:
                        metrics.histogram(
                            "exec.queue_depth",
                            "batches in flight at submit time"
                            ).observe(len(outstanding))
                # opportunistic, non-blocking collection keeps the
                # result queue short while we keep traversing
                _pump(block=False)
            _pump(block=True)
        except Exception as e:
            # workers may still be computing into the shared segments;
            # kill the pool before the memory goes away (the next sweep
            # restarts it).  Forceful on purpose: a graceful STOP drain
            # can hang on queues a dead worker left locked.
            if fl is not None:
                fl.record("sweep_abort", sweep=sweep_id,
                          error=f"{type(e).__name__}: {e}",
                          faults=dict(fault_counts))
                fl.flush()
            self._kill_workers()
            self._release(sweep_block, shard_blocks)
            raise

        acc = np.array(sweep_block["out_acc"])
        pot = np.array(sweep_block["out_pot"])
        self._release(sweep_block, shard_blocks)

        backend.absorb_stats(stats_total)
        wall = time.perf_counter() - w0
        busy_total = sum(busy_by_worker.values())
        overlap = busy_total / wall if wall > 0 else 0.0
        for wid in sorted(busy_by_worker):
            tr.record("exec.worker", busy_by_worker[wid], worker=wid,
                      batches=tasks_by_worker.get(wid, 0))
        if metrics is not None:
            m = metrics
            m.counter("exec.sweeps", "pipeline evaluation sweeps").inc()
            m.counter("exec.batches",
                      "force batches shipped to workers").inc(n_batches)
            m.counter("exec.sinks", "sinks evaluated").inc(s_count)
            m.counter("exec.worker_busy_seconds",
                      "summed worker busy seconds").inc(busy_total)
            m.gauge("exec.workers", "pipeline worker processes"
                    ).set(self.workers)
            m.gauge("exec.overlap",
                    "worker busy seconds per sweep wall second "
                    "(effective concurrency)").set(overlap)
        if fl is not None and fault_counts:
            fl.flush()
        logger.debug("pipeline sweep %d: sinks=%d batches=%d wall=%.3fs "
                     "busy=%.3fs overlap=%.2f faults=%s", sweep_id,
                     s_count, n_batches, wall, busy_total, overlap,
                     fault_counts or "none")
        stats = {"workers": float(self.workers),
                 "batches": float(n_batches),
                 "busy_seconds": busy_total,
                 "wall_seconds": wall,
                 "overlap": overlap}
        for k, v in fault_counts.items():
            stats[f"fault.{k}"] = float(v)
        return EvalResult(
            acc=acc, pot=pot, lists=concatenate_lists(lists_parts),
            traverse_seconds=t_traverse,
            kernel_seconds=busy_total + t_fallback, stats=stats)

    @staticmethod
    def _release(sweep_block, shard_blocks) -> None:
        for block in [sweep_block] + list(shard_blocks):
            try:
                block.close()
                block.unlink()
            except Exception:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self._stop_workers()
        except Exception:
            pass


def make_engine(name: str, *, workers: Optional[int] = None,
                **kwargs) -> Optional[ForceEngine]:
    """CLI/driver factory.

    ``serial`` returns ``None`` -- drivers treat that as "use the
    built-in sequential path", which is the default and exactly
    today's behaviour.  ``pipeline`` returns a started-on-demand
    :class:`PipelineEngine`.
    """
    if name == "serial":
        return None
    if name == "pipeline":
        return PipelineEngine(workers=workers, **kwargs)
    raise EngineError(f"unknown engine {name!r} (choose from "
                      f"{', '.join(ENGINE_NAMES)})")
