"""The pipeline engine: one force sweep, sharded over a thread pool.

The paper's throughput rests on an overlap the stock treecode loop
cannot express: the host walks the tree for the *next* Barnes group
while the GRAPE integrates the current group's shared list.  GRAPE-5's
32 pipelines do that behind one host process in one address space, and
so does :class:`PipelineEngine`, the only way a
:class:`~repro.core.treecode.TreeCode` evaluates: the submitting thread
cuts the sinks into contiguous *shards* and hands each to a pool
thread, which walks the tree for it (``spec.build_lists(a, b)``), makes
one call to the one evaluation seam,
:meth:`~repro.core.kernels.ForceBackend.eval_lists`, writing straight
into the sweep's ``acc``/``pot``, and drops the lists, keeping only
their per-sink lengths.  One thread walks shard *k+1* while another
evaluates shard *k*.

Threads are enough because the compiled walks are loaded with
``ctypes.CDLL`` (the GIL is released for the whole call), their scratch
is allocated per call, and every sink owns a disjoint slice of the
output rows.  Every shard runs on the caller's one backend instance:
``eval_lists`` is pure (the reference loop included, which calls the
unpriced dense ``kernel``), so concurrent calls share nothing but
read-only configuration.  An uncut sweep runs the same
walk-then-evaluate body in place, on the submitting thread.

Pool threads return plain timestamps and per-sink lengths; only the
submitting thread touches the fault injector, the tracer, the metrics
registry and the backend's counters: it charges the sweep once, with
every sink's population and list length, after the whole sweep
succeeded.  Contracts (bit-identity, cut-independent counters, one
retry rung) are stated in ``docs/parallel_engine.md`` and pinned by
``tests/exec`` and ``tests/chaos``.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.kernels import ForceBackend
from ..faults import (FaultInjector, FaultSpec, TransientBackendError,
                      as_fault_plan, strike)
from ..obs.trace import Span, as_tracer
from .plan import EvalResult, SweepSpec

__all__ = ["EngineError", "PipelineEngine", "SHARDS_PER_SWEEP"]

logger = logging.getLogger(__name__)

#: shards one sweep is cut into at most (a small sweep into fewer).  A
#: constant, not a function of ``workers`` or the core count, so a
#: fault plan's ``batch=k`` selects the same sinks on every machine.
#: 16 keeps a handful of shards per thread in flight at any plausible
#: worker count while the per-shard traversal overhead stays in the
#: noise.
SHARDS_PER_SWEEP = 16

#: particles a shard carries at least: a small sweep is cut into fewer
#: shards, a tiny one not at all (it runs on the submitting thread).
#: Sized for the NumPy fallback walk, whose fixed cost per shard (a few
#: NumPy calls per level, ~1 ms) outweighs below it anything a second
#: thread could overlap; the compiled walk's is microseconds.  A
#: function of the sweep alone, like the constant above.
MIN_SHARD_PARTICLES = 512

#: one-line help strings for the ``exec.fault.*`` counters
_FAULT_HELP = {
    "transient_errors": "transient backend errors raised by a shard",
    "batch_retries": "shard re-runs after a transient error",
}


class EngineError(RuntimeError):
    """Engine misconfiguration or a shard that could not be evaluated."""


@dataclass
class _Shard:
    """Sinks ``[a, b)`` of one sweep and their evaluation in flight."""

    a: int
    b: int
    t_submit: float
    future: Future
    attempt: int = 0


def _run_shard(backend: ForceBackend, spec: SweepSpec, a: int, b: int,
               acc: np.ndarray, pot: np.ndarray,
               fault: Optional[FaultSpec]):
    """One shard's task: walk sinks ``[a, b)``, evaluate their lists on
    ``backend`` into their rows of ``acc``/``pot``, and let the lists
    go.  Returns ``((thread ident, t_dequeue, t_walk, t_eval, t_done),
    per-sink list lengths, cell terms, particle terms)``.
    """
    t_dequeue = time.perf_counter()
    if fault is not None:
        strike(fault, f"in sinks [{a}, {b})")
    t_walk = time.perf_counter()
    lists = spec.build_lists(a, b)
    t_eval = time.perf_counter()
    tree = spec.tree
    backend.eval_lists(tree.pos_sorted, tree.mass_sorted, tree.com,
                       tree.mass, lists, spec.sink_start[a:b],
                       spec.sink_count[a:b], spec.eps, acc, pot)
    return ((threading.get_ident(), t_dequeue, t_walk, t_eval,
             time.perf_counter()), lists.list_lengths,
            int(lists.cell_off[-1]), int(lists.part_off[-1]))


def _span(name: str, t_start: float, t_end: float, **attrs) -> Span:
    sp = Span(name, attrs=attrs)
    sp.t_start, sp.t_end = t_start, t_end
    return sp


class PipelineEngine:
    """Sharded list evaluation over a pool of threads.

    Parameters
    ----------
    workers:
        Pool threads (default: ``os.cpu_count()``).
    faults:
        Optional fault plan (a :class:`~repro.faults.FaultPlan`, a JSON
        document/path, or the compact DSL -- see
        :func:`repro.faults.parse_fault_plan`), consulted once per
        shard execution, in shard order (``batch=k`` selects shard
        *k*), for ``latency`` and ``transient_error``.
    max_retries:
        Re-runs a shard gets after raising
        :class:`~repro.faults.TransientBackendError` (rows are
        assigned, never accumulated, so a re-run is idempotent).
        Exhaustion, or any other exception, raises
        :class:`EngineError`, which
        ``Simulation.run(resume_on_fault=True)`` rolls back from.
    flight:
        Optional :class:`~repro.obs.flightrec.FlightRecorder`: every
        injected fault, ``exec.fault`` event and retry decision lands
        in its ring, flushed whenever a sweep saw faults or aborted.
    """

    def __init__(self, workers: Optional[int] = None, *,
                 faults: Optional[object] = None,
                 max_retries: int = 2,
                 flight: Optional[object] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise EngineError("workers must be >= 1")
        if max_retries < 0:
            raise EngineError("max_retries must be >= 0")
        self.workers = int(workers)
        self.max_retries = int(max_retries)
        self.flight = flight
        plan = as_fault_plan(faults)
        #: the run's injector (``None`` without a plan): consulted here
        #: per shard, and the one to hand the backend and
        #: ``Simulation.run`` so every layer draws on the same counts
        self.fault_injector = (FaultInjector(plan, flight=flight)
                               if plan is not None else None)
        # threads start on first submit and are joined by close()
        self._pool = ThreadPoolExecutor(self.workers,
                                        thread_name_prefix="repro-exec")
        self._sweeps = 0
        self._closed = False

    def prewarm(self, backend: ForceBackend) -> "PipelineEngine":
        """Check ahead of the first sweep that the engine takes work:
        raises :class:`EngineError` when it is closed.  Any backend
        rides the pool, and there is nothing to start.  Returns
        ``self`` for chaining.
        """
        if self._closed:
            raise EngineError("engine is closed")
        return self

    def close(self) -> None:
        """Join the pool threads (idempotent)."""
        self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "PipelineEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def evaluate(self, backend: ForceBackend, spec: SweepSpec, *,
                 tracer: Optional[object] = None,
                 metrics: Optional[object] = None) -> EvalResult:
        """Evaluate ``spec`` on ``backend``, and charge it the sweep
        (once, after the whole sweep succeeded)."""
        if self._closed:
            raise EngineError("engine is closed")
        tr = as_tracer(tracer)
        tracing = bool(getattr(tr, "enabled", False))
        fl = self.flight
        sweep = self._sweeps
        self._sweeps += 1
        w0 = time.perf_counter()

        acc = np.empty((spec.n_particles, 3), dtype=np.float64)
        pot = np.empty(spec.n_particles, dtype=np.float64)
        n_shards = max(1, min(SHARDS_PER_SWEEP, spec.n_sinks,
                              spec.n_particles // MIN_SHARD_PARTICLES))
        size = max(1, -(-spec.n_sinks // n_shards))
        # an uncut sweep has nothing to overlap a thread hand-off with:
        # it runs on this thread
        pooled = n_shards > 1
        shards: List[_Shard] = []
        fault_counts: Dict[str, int] = {}
        worker_of: Dict[int, int] = {}
        busy: Dict[int, float] = {}
        batches: Dict[int, int] = {}
        lengths = np.empty(spec.n_sinks, dtype=np.int64)
        cell_terms = part_terms = 0
        t_traverse = t_blocked = 0.0

        def fault_event(kind: str, **attrs) -> None:
            fault_counts[kind] = fault_counts.get(kind, 0) + 1
            tr.record("exec.fault", 0.0, kind=kind, **attrs)
            if metrics is not None:
                metrics.counter(f"exec.fault.{kind}",
                                _FAULT_HELP[kind]).inc()
            if fl is not None:
                fl.record(f"fault.{kind}", sweep=sweep, **attrs)
            logger.warning("pipeline sweep %d: fault %s %s", sweep, kind,
                           attrs)

        def submit(k: int, a: int, b: int, attempt: int):
            nonlocal t_traverse, t_blocked
            fault = (self.fault_injector.fire(
                "batch", sweep=sweep, batch=k, attempt=attempt)
                if self.fault_injector is not None else None)
            t_submit = time.perf_counter()
            if pooled:
                return t_submit, self._pool.submit(
                    _run_shard, backend, spec, a, b, acc, pot, fault)
            # in place: this thread's walk is ``traverse``, the rest of
            # the shard ``kernel`` -- both nested in [t_submit, now]
            future: Future = Future()
            walk = 0.0
            try:
                done = _run_shard(backend, spec, a, b, acc, pot, fault)
                walk = done[0][3] - done[0][2]
                future.set_result(done)
            except Exception as e:
                future.set_exception(e)
            t_traverse += walk
            t_blocked += time.perf_counter() - t_submit - walk
            return t_submit, future

        def submit_sweep() -> None:
            for k, a in enumerate(range(0, spec.n_sinks, size)):
                if metrics is not None:
                    metrics.histogram(
                        "exec.queue_depth",
                        "shards queued or running at submit time"
                    ).observe(1 + sum(not s.future.done() for s in shards))
                b = min(a + size, spec.n_sinks)
                shards.append(_Shard(a, b, *submit(k, a, b, 0)))

        def failure(sh: _Shard) -> Optional[BaseException]:
            nonlocal t_blocked
            t0 = time.perf_counter()
            err = sh.future.exception()
            t_blocked += time.perf_counter() - t0
            return err

        try:
            # the sweep's submission is the backend's one force call:
            # a device's fault site fires (and is retried) before any
            # shard exists, so nothing is ever evaluated twice
            backend.force_call(submit_sweep)

            for k, sh in enumerate(shards):
                while (err := failure(sh)) is not None:
                    if not isinstance(err, TransientBackendError):
                        raise EngineError(
                            f"batch {k} failed: "
                            f"{type(err).__name__}: {err}") from err
                    fault_event("transient_errors", batch=k)
                    sh.attempt += 1
                    if sh.attempt > self.max_retries:
                        raise EngineError(
                            f"batch {k} failed after {self.max_retries} "
                            f"retries (transient_error): {err}") from err
                    fault_event("batch_retries", batch=k,
                                reason="transient_error",
                                attempt=sh.attempt)
                    if fl is not None:
                        fl.record("recovery", decision="retry",
                                  sweep=sweep, batch=k,
                                  reason="transient_error",
                                  attempt=sh.attempt)
                    sh.t_submit, sh.future = submit(k, sh.a, sh.b,
                                                    sh.attempt)
                times, lengths[sh.a:sh.b], cells, parts = sh.future.result()
                ident, t_dequeue, t_walk, t_eval, t_done = times
                cell_terms += cells
                part_terms += parts
                worker = worker_of.setdefault(ident, len(worker_of))
                busy[worker] = busy.get(worker, 0.0) + t_done - t_walk
                batches[worker] = batches.get(worker, 0) + 1
                if tracing:
                    bsp = _span("exec.batch", sh.t_submit, t_done,
                                batch=k, worker=worker, sweep=sweep,
                                attempt=sh.attempt)
                    bsp.children += [
                        _span("exec.queue_wait", sh.t_submit, t_dequeue,
                              worker=worker, attempt=sh.attempt),
                        _span("exec.traverse", t_walk, t_eval,
                              worker=worker, sinks=sh.b - sh.a),
                        _span("exec.eval", t_eval, t_done,
                              worker=worker, sinks=sh.b - sh.a)]
                    tr.attach(bsp)
        except BaseException as e:
            # no pool thread may still be writing when the caller
            # regains control: drop what has not started, wait for
            # what has
            for sh in shards:
                sh.future.cancel()
            wait([sh.future for sh in shards])
            if fl is not None:
                fl.record("sweep_abort", sweep=sweep,
                          error=f"{type(e).__name__}: {e}",
                          faults=dict(fault_counts))
                fl.flush()
            raise

        backend.charge(spec, lengths)
        wall = time.perf_counter() - w0
        busy_total = sum(busy.values())
        overlap = busy_total / wall if wall > 0 else 0.0
        if tracing:
            for worker in sorted(busy):
                tr.attach(_span("exec.worker", w0 + wall - busy[worker],
                                w0 + wall, worker=worker,
                                batches=batches[worker]))
        if metrics is not None:
            m = metrics
            m.counter("exec.sweeps", "pipeline evaluation sweeps").inc()
            m.counter("exec.batches", "shards handed to the thread pool"
                      ).inc(len(shards))
            m.counter("exec.sinks", "sinks evaluated").inc(spec.n_sinks)
            m.counter("exec.worker_busy_seconds",
                      "summed pool-thread shard walk and evaluation "
                      "seconds"
                      ).inc(busy_total)
            m.gauge("exec.workers", "pipeline worker threads"
                    ).set(self.workers)
            m.gauge("exec.overlap",
                    "worker busy seconds per sweep wall second "
                    "(effective concurrency)").set(overlap)
        if fl is not None and fault_counts:
            fl.flush()
        logger.debug("pipeline sweep %d: sinks=%d shards=%d wall=%.3fs "
                     "busy=%.3fs overlap=%.2f faults=%s", sweep,
                     spec.n_sinks, len(shards), wall, busy_total,
                     overlap, fault_counts or "none")
        return EvalResult(acc=acc, pot=pot, lengths=lengths,
                          cell_terms=cell_terms, part_terms=part_terms,
                          traverse_seconds=t_traverse,
                          kernel_seconds=t_blocked)
