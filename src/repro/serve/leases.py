"""Resource leases: exclusive accelerator handles per job.

The paper's GRAPE-5 is one shared device fed by one host process; a
service running many jobs at once must give each job the same
illusion -- *my* board set -- without letting two jobs compute on one
device.  The broker models that: it owns a fixed pool of slots, each
slot a private :class:`~repro.grape.system.Grape5System` in the same
configuration (so arithmetic is identical across slots), wired to
physical boards ``[slot*B, (slot+1)*B)``.  A pipeline job's
:class:`~repro.exec.engine.PipelineEngine` is not leased: a thread
pool starts in microseconds, so the runner builds one per job.

A :class:`Lease` is checked out with :meth:`LeaseBroker.acquire`
(blocking with timeout) and returned with
:meth:`LeaseBroker.release`.  Exclusivity is the free-slot list under
the broker's condition variable and nothing else: a slot is out of the
list exactly while one lease holds it.  Exhaustion, double release and
use of a closed broker raise :class:`LeaseError`.
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
    """One checked-out slot and the accelerator behind it.

    ``system`` is the :class:`Grape5System` the leased job must compute
    on -- the runner passes it to :func:`repro.sim.recipes.build_force`
    so the force solver adopts the leased boards instead of building
    private ones.
    """

    id: str
    slot: int
    system: object
    #: physical board ids behind the slot: ``[slot*B, (slot+1)*B)``
    board_set: tuple
    active: bool = field(default=True, repr=False)


class LeaseBroker:
    """Fixed pool of accelerator slots handed out one job at a time.

    Parameters
    ----------
    slots:
        Concurrent leases (= concurrently running jobs).  Each slot
        is an independent emulated GRAPE in the same configuration,
        so a job computes identically whichever slot it lands on.
    boards:
        GRAPE-5 boards behind each slot.  The broker owns a rack of
        ``slots * boards`` physical board ids; slot ``k`` is wired to
        ids ``[k*boards, (k+1)*boards)``, disjoint between slots by
        arithmetic.  The default 2 is the paper machine; other counts
        rebuild each slot's timing model accordingly.
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
        from ..grape import Grape5System, GrapeTimingModel
        if slots < 1:
            raise LeaseError("broker needs at least one slot")
        if boards < 1:
            raise LeaseError("broker needs at least one board per slot")
        self.slots = int(slots)
        self.boards = int(boards)
        self._metrics = metrics
        if system_factory is None:
            def system_factory():   # boards=2 is the paper machine
                return Grape5System(
                    timing=GrapeTimingModel(n_boards=self.boards))
        self._systems: List[object] = [system_factory()
                                       for _ in range(self.slots)]
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

    # -- checkout ------------------------------------------------------
    def acquire(self, *, timeout: Optional[float] = None) -> Lease:
        """Check out a slot, blocking up to ``timeout`` seconds
        (forever when ``None``)."""
        with self._cv:
            if self._closed:
                raise LeaseError("broker is closed")
            if not self._free and self._metrics is not None:
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
            lease = Lease(
                id=f"L{self._next:04d}", slot=slot,
                system=self._systems[slot],
                board_set=tuple(range(slot * self.boards,
                                      (slot + 1) * self.boards)))
            self._by_id[lease.id] = lease
            self._set_gauge()
        return lease

    def release(self, lease: Lease) -> None:
        """Return a lease; the slot becomes available to other jobs.
        Releasing a lease twice raises :class:`LeaseError`."""
        with self._cv:
            if not lease.active or lease.id not in self._by_id:
                raise LeaseError(
                    f"lease {lease.id} is not checked out "
                    "(double release?)")
            lease.active = False
            del self._by_id[lease.id]
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
        """Close the broker (idempotent).  Waiters wake with
        :class:`LeaseError`; outstanding leases are invalidated, so
        their release fails as a double release."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._by_id.clear()
            self._cv.notify_all()
