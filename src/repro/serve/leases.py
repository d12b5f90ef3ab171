"""Resource leases: exclusive accelerator handles per job.

The paper's GRAPE-5 is one shared device fed by one host process; a
service running many jobs at once must give each job the same
illusion -- *my* board set -- without letting two jobs interleave
staging traffic on one device.  The broker models that: it owns a
fixed pool of slots, each slot backed by its own
:class:`~repro.grape.api.G5Context` (wrapping a private
:class:`~repro.grape.system.Grape5System` in the paper configuration,
so arithmetic is identical across slots).  A pipeline job's
:class:`~repro.exec.engine.PipelineEngine` is not leased: a thread
pool starts in microseconds, so the runner builds one per job.

A :class:`Lease` is checked out with :meth:`LeaseBroker.acquire`
(blocking with timeout) and returned with
:meth:`LeaseBroker.release`; the context is latched to the leasing
thread via :meth:`G5Context.acquire`, so a second job touching a
leased context fails loudly instead of corrupting j-memory.
Double-releasing a lease raises :class:`LeaseError`, mirroring the
context's own double-release guard.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["LeaseError", "Lease", "LeaseBroker"]


class LeaseError(RuntimeError):
    """Lease protocol misuse or exhaustion."""


@dataclass
class Lease:
    """One checked-out slot and the accelerator context behind it.

    ``context.system`` is the :class:`Grape5System` the leased job
    must compute on -- the runner passes it to
    :func:`repro.sim.recipes.build_force` so the force solver adopts
    the leased boards instead of building private ones.
    """

    id: str
    slot: int
    context: object
    #: ident of the thread the context latch belongs to
    holder: int = 0
    #: physical board ids reserved for this lease, exclusively, for its
    #: whole lifetime (see :class:`repro.cluster.BoardSetRegistry`)
    board_set: tuple = ()
    active: bool = field(default=True, repr=False)


class LeaseBroker:
    """Fixed pool of accelerator slots handed out one job at a time.

    Parameters
    ----------
    slots:
        Concurrent leases (= concurrently running jobs).  Each slot
        wraps an independent emulated GRAPE in the same configuration,
        so a job computes identically whichever slot it lands on.
    boards:
        GRAPE-5 boards behind each slot.  The broker owns a rack of
        ``slots * boards`` physical board ids tracked by a
        :class:`~repro.cluster.BoardSetRegistry`; each lease checks out
        its slot's *set* (ids ``[slot*boards, (slot+1)*boards)``)
        exclusively, so overlapping reservations fail loudly.  The
        default 2 is the paper machine; other counts rebuild each
        slot's timing model accordingly.
    system_factory:
        Zero-argument callable building one slot's
        :class:`Grape5System`; defaults to the paper configuration
        (honouring ``boards``).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the
        broker keeps ``serve.leases_in_use`` / ``serve.lease_slots``
        gauges and a ``serve.lease_waits`` counter current.
    """

    def __init__(self, slots: int = 2, *, boards: int = 2,
                 system_factory: Optional[object] = None,
                 metrics: Optional[object] = None) -> None:
        from ..cluster import BoardSetRegistry
        from ..grape import G5Context, Grape5System
        from ..grape.timing import GrapeTimingModel
        if slots < 1:
            raise LeaseError("broker needs at least one slot")
        if boards < 1:
            raise LeaseError("broker needs at least one board per slot")
        self.slots = int(slots)
        self.boards = int(boards)
        self._metrics = metrics
        if system_factory is not None:
            factory = system_factory
        elif self.boards == 2:
            factory = Grape5System   # paper configuration, bit-for-bit
        else:
            def factory():
                return Grape5System(
                    timing=GrapeTimingModel(n_boards=self.boards))
        self.board_registry = BoardSetRegistry(self.slots * self.boards)
        self._contexts: List[object] = []
        for _ in range(self.slots):
            ctx = G5Context()
            ctx.open(factory())
            self._contexts.append(ctx)
        self._free: List[int] = list(range(self.slots))
        self._by_id: Dict[str, Lease] = {}
        self._next = 0
        self._cv = threading.Condition()
        self._closed = False
        if metrics is not None:
            metrics.gauge("serve.lease_slots",
                          "accelerator lease slots").set(self.slots)
            metrics.gauge("serve.leases_in_use",
                          "accelerator leases checked out").set(0)

    # -- introspection -------------------------------------------------
    @property
    def in_use(self) -> int:
        with self._cv:
            return self.slots - len(self._free)

    @property
    def available(self) -> int:
        with self._cv:
            return len(self._free)

    # -- checkout ------------------------------------------------------
    def acquire(self, *, timeout: Optional[float] = None) -> Lease:
        """Check out a slot, blocking up to ``timeout`` seconds.

        The slot's :class:`G5Context` is latched to the *calling*
        thread (jobs lease from their own worker thread), so staging
        calls from anywhere else fail.
        """
        with self._cv:
            if self._closed:
                raise LeaseError("broker is closed")
            if timeout is not None and not self._free:
                if self._metrics is not None:
                    self._metrics.counter(
                        "serve.lease_waits",
                        "lease acquisitions that had to wait").inc()
            if not self._cv.wait_for(lambda: bool(self._free)
                                     or self._closed, timeout=timeout):
                raise LeaseError(
                    f"no lease available within {timeout}s "
                    f"({self.slots} slots, all busy)")
            if self._closed:
                raise LeaseError("broker is closed")
            slot = self._free.pop(0)
            self._next += 1
            lease = Lease(id=f"L{self._next:04d}", slot=slot,
                          context=self._contexts[slot],
                          holder=threading.get_ident())
            self._by_id[lease.id] = lease
            self._set_gauge()
        # Latch outside the broker lock: the latch belongs to the
        # leasing thread, and a G5Error here must not wedge the broker.
        try:
            lease.context.acquire()
            try:
                lease.board_set = self.board_registry.reserve(
                    range(slot * self.boards, (slot + 1) * self.boards),
                    owner=lease.id)
            except Exception:
                lease.context.release()
                raise
        except Exception:
            with self._cv:
                self._by_id.pop(lease.id, None)
                self._free.append(slot)
                self._free.sort()
                self._set_gauge()
                self._cv.notify()
            raise
        return lease

    def release(self, lease: Lease) -> None:
        """Return a lease; the slot becomes available to other jobs.

        Must be called by the thread that acquired the lease (the
        context latch enforces this); releasing a lease twice raises
        :class:`LeaseError`.
        """
        with self._cv:
            if not lease.active or lease.id not in self._by_id:
                raise LeaseError(
                    f"lease {lease.id} is not checked out "
                    "(double release?)")
            lease.active = False
            del self._by_id[lease.id]
        lease.context.release()
        if lease.board_set:
            self.board_registry.release(lease.board_set)
            lease.board_set = ()
        with self._cv:
            self._free.append(lease.slot)
            self._free.sort()
            self._set_gauge()
            self._cv.notify()

    # -- internals -----------------------------------------------------
    def _set_gauge(self) -> None:
        if self._metrics is not None:
            self._metrics.gauge(
                "serve.leases_in_use",
                "accelerator leases checked out"
                ).set(self.slots - len(self._free))

    def close(self) -> None:
        """Tear down every slot (idempotent).  Outstanding leases are
        invalidated; their release becomes a no-op failure."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._by_id.clear()
            self._cv.notify_all()
        for ctx in self._contexts:
            # administrative teardown: the holder thread may be gone,
            # so drop any latch directly rather than via release()
            ctx._holder = None
            if ctx.system is not None:
                ctx.close()
