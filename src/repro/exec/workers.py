"""Worker-process side of the pipeline engine.

Each worker owns a *private* backend instance (rebuilt from the parent
backend's :meth:`~repro.core.kernels.ForceBackend.worker_factory` spec)
and loops on a shared task queue.  All bulk data -- sorted particle
positions/masses, cell monopoles, the CSR interaction lists, and the
output force arrays -- lives in POSIX shared memory created by the
parent; a task message carries only segment names and a sink range, so
IPC per batch is a few hundred bytes regardless of problem size.

Results are written straight into the shared output arrays (every sink
owns a disjoint slice, so writes never race); the completion message
carries the backend's performance-counter delta, the worker's busy
time, and a CRC of the written output slice -- the parent recomputes
the CRC from shared memory, so corruption on the result path (or a
torn write from a dying worker) is detected and the batch retried.
Because every batch writes deterministic values to a disjoint slice,
*duplicate* execution of a batch is harmless: the parent accepts the
first completion and ignores the rest, which is what makes the
engine's crash/timeout resubmission safe.

A worker may also carry a :class:`~repro.faults.FaultInjector` built
from the engine's fault plan; it is consulted once per batch and can
crash the process, hang it, delay it, raise a transient error, or
scribble on the output slice after its checksum was taken.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import zlib
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.traversal import InteractionLists
from ..faults import FaultInjector, TransientBackendError

__all__ = ["worker_main", "ShmArrays", "create_shm", "open_shm",
           "batch_checksum"]

#: task-queue sentinel telling a worker to exit
STOP = "stop"

#: process exit code of an injected worker crash (visible in the
#: parent's ``exec.fault`` trace events)
CRASH_EXIT_CODE = 23


class ShmArrays:
    """A named set of numpy arrays backed by one shared-memory block.

    One block per *lifetime* (sweep or shard) keeps the segment count --
    and the attach/close traffic -- low: the constituent arrays are
    packed back-to-back at 64-byte alignment inside a single segment.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 layout: Tuple[Tuple[str, tuple, str, int], ...]) -> None:
        self.shm = shm
        self.layout = layout
        self.arrays: Dict[str, np.ndarray] = {}
        for name, shape, dtype, offset in layout:
            n = int(np.prod(shape, dtype=np.int64)) if shape else 1
            arr = np.frombuffer(shm.buf, dtype=np.dtype(dtype),
                                count=n, offset=offset)
            self.arrays[name] = arr.reshape(shape)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    @property
    def meta(self) -> Tuple[str, Tuple[Tuple[str, tuple, str, int], ...]]:
        """Picklable handle: ``(segment name, layout)``."""
        return (self.shm.name, self.layout)

    def close(self) -> None:
        self.arrays.clear()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray view still alive;
            pass             # the mapping goes away at process exit

    def unlink(self) -> None:
        self.shm.unlink()


def _layout(arrays: Dict[str, np.ndarray]):
    """Pack arrays back-to-back; returns (layout, total_bytes)."""
    layout = []
    offset = 0
    for name, a in arrays.items():
        offset = (offset + 63) & ~63
        layout.append((name, tuple(a.shape), a.dtype.str, offset))
        offset += a.nbytes
    return tuple(layout), max(1, offset)


def create_shm(arrays: Dict[str, np.ndarray]) -> ShmArrays:
    """Create one shared block holding copies of ``arrays``."""
    layout, size = _layout(arrays)
    shm = shared_memory.SharedMemory(create=True, size=size)
    block = ShmArrays(shm, layout)
    for name, a in arrays.items():
        block[name][...] = a
    return block


def open_shm(meta) -> ShmArrays:
    """Attach a block created by :func:`create_shm` from its meta."""
    name, layout = meta
    return ShmArrays(shared_memory.SharedMemory(name=name), layout)


def _lists_from(block: ShmArrays) -> InteractionLists:
    return InteractionLists(
        n_sinks=int(block["cell_off"].shape[0]) - 1,
        cell_idx=block["cell_idx"], cell_off=block["cell_off"],
        part_idx=block["part_idx"], part_off=block["part_off"])


def batch_checksum(sweep: ShmArrays, g0: int, g1: int) -> int:
    """CRC32 of the output rows owned by sinks ``[g0, g1)``.

    Sinks are contiguous slices of the sorted particle arrays, so a
    batch owns one contiguous row range; the checksum covers its
    ``out_acc`` and ``out_pot`` bytes.  Computed by the worker after
    writing and recomputed by the parent on completion -- a mismatch
    means the result path corrupted the slice.
    """
    start, count = sweep["sink_start"], sweep["sink_count"]
    r0 = int(start[g0])
    r1 = int(start[g1 - 1]) + int(count[g1 - 1])
    crc = zlib.crc32(sweep["out_acc"][r0:r1].tobytes())
    return zlib.crc32(sweep["out_pot"][r0:r1].tobytes(), crc)


def _scribble(sweep: ShmArrays, g0: int, g1: int) -> None:
    """Corrupt the batch's output slice (the ``corrupt_result`` fault)."""
    start, count = sweep["sink_start"], sweep["sink_count"]
    r0 = int(start[g0])
    r1 = int(start[g1 - 1]) + int(count[g1 - 1])
    sweep["out_acc"][r0:r1] += 1.0
    sweep["out_pot"][r0:r1] -= 1.0


def _run_batch(backend, sweep: ShmArrays, shard: ShmArrays,
               a0: int, g0: int, g1: int, announce: bool) -> None:
    """Evaluate sinks ``[g0, g1)`` of one batch into the output arrays.

    The batch's CSR slice goes through
    :meth:`~repro.core.kernels.ForceBackend.eval_lists` in one call;
    the offsets view is *not* rebased (the kernels index the shard's
    full index arrays directly), so no list data is copied.  The serial
    fallback in the engine calls this same function, so an in-process
    retry evaluates through the identical code path as a worker.
    """
    scalars = sweep["scalars"]
    eps = float(scalars[0])
    if announce and scalars[1] > 0.0:
        backend.set_domain(float(scalars[2]), float(scalars[3]))
    lists = _lists_from(shard)
    start, count = sweep["sink_start"], sweep["sink_count"]
    l0, l1 = g0 - a0, g1 - a0
    view = InteractionLists(
        n_sinks=g1 - g0,
        cell_idx=lists.cell_idx,
        cell_off=lists.cell_off[l0:l1 + 1],
        part_idx=lists.part_idx,
        part_off=lists.part_off[l0:l1 + 1])
    backend.eval_lists(sweep["pos"], sweep["pmass"], sweep["com"],
                       sweep["cmass"], view, start[g0:g1], count[g0:g1],
                       eps, sweep["out_acc"], sweep["out_pot"])


def worker_main(worker_id: int, factory_bytes: bytes,
                task_queue, result_queue,
                fault_bytes: Optional[bytes] = None) -> None:
    """Worker entry point: build the private backend, drain tasks.

    Messages (see :class:`repro.exec.engine.PipelineEngine` for the
    parent side):

    ``("batch", batch_id, sweep_id, sweep_meta, shard_meta, a0, g0, g1,
    ctx, attempt)`` (see :func:`repro.exec.plan.batch_message`)
        Evaluate sinks ``[g0, g1)`` (global ids; the shard's lists start
        at sink ``a0``).  The worker first announces
        ``("start", batch_id, worker_id, sweep_id)`` -- the parent's
        assignment record for timeout and crash accounting -- then
        replies ``("done", batch_id, worker_id, sweep_id, stats_delta,
        busy_s, n_sinks, checksum, spans)`` or ``("error", batch_id,
        worker_id, sweep_id, traceback_text, transient)``.

        ``ctx`` is the submitting trace's
        :class:`~repro.obs.context.SpanContext` or ``None``; when set,
        the worker times its phases -- queue wait (from ``ctx.t_origin``
        to dequeue), shared-memory attach, and the evaluation itself --
        as plain span dicts (``{"name", "t_start", "t_end", "attrs"}``
        on the shared monotonic clock) shipped back on the ``done``
        message, where the parent stitches them under the submitting
        span.  ``spans`` is ``None`` when tracing is off, so the
        disabled path serialises nothing extra.
    ``("stop",)``
        Close cached segments and exit.

    ``fault_bytes`` is an optional pickled
    :class:`~repro.faults.FaultPlan`; when given, the worker consults
    a private :class:`~repro.faults.FaultInjector` once per batch.
    """
    # Workers only *attach* to segments the parent created and will
    # unlink; letting the worker-side resource tracker register them too
    # yields spurious "leaked shared_memory" warnings at exit and
    # double-unlink attempts (CPython bpo-38119).  Ownership is strictly
    # parental, so registration here is disabled.
    from multiprocessing import resource_tracker
    resource_tracker.register = lambda *a, **k: None
    fn, args, kwargs = pickle.loads(factory_bytes)
    backend = fn(*args, **kwargs)
    injector: Optional[FaultInjector] = None
    if fault_bytes is not None:
        injector = FaultInjector(pickle.loads(fault_bytes),
                                 worker=worker_id)
    sweep_cache: Dict[int, ShmArrays] = {}
    shard_cache: Dict[str, ShmArrays] = {}
    domain_announced: set = set()

    def _drop_sweeps() -> None:
        for b in sweep_cache.values():
            b.close()
        for b in shard_cache.values():
            b.close()
        sweep_cache.clear()
        shard_cache.clear()

    try:
        while True:
            msg = task_queue.get()
            t_recv = time.perf_counter()
            if msg[0] == STOP:
                break
            (_, batch_id, sweep_id, sweep_meta, shard_meta,
             a0, g0, g1, ctx, attempt) = msg
            spans: Optional[list] = [] if ctx is not None else None
            if spans is not None and ctx.t_origin:
                spans.append({"name": "exec.queue_wait",
                              "t_start": ctx.t_origin, "t_end": t_recv,
                              "attrs": {"worker": worker_id,
                                        "attempt": attempt}})
            result_queue.put(("start", batch_id, worker_id, sweep_id))
            try:
                fault = (injector.batch_fault(sweep=sweep_id,
                                              batch=batch_id,
                                              attempt=attempt)
                         if injector is not None else None)
                if fault is not None and fault.kind == "worker_crash":
                    os._exit(CRASH_EXIT_CODE)
                if fault is not None and fault.kind == "worker_hang":
                    time.sleep(fault.seconds
                               if fault.seconds is not None else 30.0)
                if fault is not None and fault.kind == "latency":
                    time.sleep(fault.seconds
                               if fault.seconds is not None else 0.05)
                if fault is not None and fault.kind == "transient_error":
                    raise TransientBackendError(
                        f"injected transient error in batch {batch_id}")

                t_shm = time.perf_counter()
                fresh_shm = (sweep_id not in sweep_cache
                             or shard_meta[0] not in shard_cache)
                if sweep_id not in sweep_cache:
                    # a new sweep supersedes everything cached
                    _drop_sweeps()
                    sweep_cache[sweep_id] = open_shm(sweep_meta)
                sweep = sweep_cache[sweep_id]
                if shard_meta[0] not in shard_cache:
                    shard_cache[shard_meta[0]] = open_shm(shard_meta)
                shard = shard_cache[shard_meta[0]]
                if spans is not None and fresh_shm:
                    spans.append({"name": "exec.shm_attach",
                                  "t_start": t_shm,
                                  "t_end": time.perf_counter(),
                                  "attrs": {"worker": worker_id}})

                t0 = time.perf_counter()
                stats0 = backend.snapshot_stats()
                announce = sweep_id not in domain_announced
                if announce:
                    domain_announced.add(sweep_id)
                # scoped helper: no shared-memory view survives the call,
                # so cached segments can be closed cleanly later
                _run_batch(backend, sweep, shard, a0, g0, g1, announce)
                stats1 = backend.snapshot_stats()
                delta = {k: stats1[k] - stats0.get(k, 0.0)
                         for k in stats1}
                busy = time.perf_counter() - t0
                crc = batch_checksum(sweep, g0, g1)
                if spans is not None:
                    spans.append({"name": "exec.eval",
                                  "t_start": t0, "t_end": t0 + busy,
                                  "attrs": {"worker": worker_id,
                                            "sinks": g1 - g0}})
                if fault is not None and fault.kind == "corrupt_result":
                    _scribble(sweep, g0, g1)
                result_queue.put(("done", batch_id, worker_id, sweep_id,
                                  delta, busy, g1 - g0, crc, spans))
            except TransientBackendError:
                result_queue.put(("error", batch_id, worker_id, sweep_id,
                                  traceback.format_exc(), True))
            except Exception:  # pragma: no cover - exercised via engine
                result_queue.put(("error", batch_id, worker_id, sweep_id,
                                  traceback.format_exc(), False))
    finally:
        _drop_sweeps()
