"""The live emulated cluster: per-host backends, sharded evaluation.

:class:`ClusterContext` is the opened, stateful object built from a
:class:`~repro.cluster.spec.ClusterSpec` -- and the object a cluster
:class:`~repro.core.treecode.TreeCode` holds as its ``backend``.  Per
host it owns one :class:`~repro.grape.system.Grape5System`, whose
timing model splits the j-stream over that host's B boards, and one
:class:`~repro.grape.system.GrapeBackend` driving it.  Host ``h`` is
wired to physical boards ``[h*B, (h+1)*B)``
(:attr:`ClusterContext.board_sets`), disjoint by arithmetic.

One force evaluation (:meth:`ClusterContext.evaluate`, called where a
plain treecode calls its :class:`~repro.exec.PipelineEngine`):

1. :func:`~repro.cluster.decompose.orb_partition` assigns every sink
   (Barnes group) to a host, weighted by group population;
2. each host evaluates exactly its own rows of the *global* CSR lists
   on its own emulated boards (j-sharding inside
   :meth:`~repro.grape.system.Grape5System._compute_resident`), writing
   its sinks' force rows -- the cross-board force reduction the real
   host performs in double precision;
3. :func:`~repro.cluster.let.let_exchange` accounts the
   locally-essential-tree imports each host would have received, and
   the network term (latency + bytes/bandwidth) joins that host's
   timeline.

Because every host reads the same global tree and the same global
lists, forces match the single-host sweep: bit-identical at K=1 (same
rows, same order, same datapath) and within summation-order tolerance
for K>1.  The cluster's predicted wall-clock is the *slowest host's*
timeline (compute + DMA from its own timing model, plus its exchange
term), so K=1 reproduces the single-host model: its one host is
charged the very arrays a plain sweep is.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ..exec.plan import EvalResult
from ..grape.system import Grape5System, GrapeBackend
from ..grape.timing import GrapeTimingModel, OPS_PER_INTERACTION
from .decompose import orb_partition
from .let import ExchangeStats, let_exchange, take_rows
from .spec import ClusterError, ClusterSpec

__all__ = ["ClusterContext"]


class ClusterContext:
    """K emulated hosts evaluating one decomposed force sweep.

    :meth:`open` before use, :meth:`close` to detach, and every
    call-order violation raises :class:`ClusterError`.  A closed
    context can be opened again; the per-host systems -- and so the
    performance counters -- are built on the first :meth:`open` and
    live until :meth:`reset_stats`, whatever the open/close history.
    """

    #: backend name for reports (the ``"grape"`` substring selects the
    #: ``grape_force`` phase attribution)
    name = "grape5-cluster"

    def __init__(self, spec: ClusterSpec, *,
                 metrics: Optional[object] = None,
                 fault_injector: Optional[object] = None,
                 max_retries: int = 2) -> None:
        if not isinstance(spec, ClusterSpec):
            spec = ClusterSpec(**dict(spec))
        self.spec = spec
        self.metrics = metrics
        self.fault_injector = fault_injector
        self.max_retries = int(max_retries)
        #: per-host backends, one per system; non-empty iff open
        self.backends: List[GrapeBackend] = []
        #: per-host systems; survive close() so performance counters
        #: stay readable after teardown (like a detached GrapeBackend)
        self.systems: List[Grape5System] = []
        #: per-host physical board ids, ``[h*B, (h+1)*B)``; set by open()
        self.board_sets: Tuple[Tuple[int, ...], ...] = ()
        #: accumulated per-host LET exchange seconds since last reset
        self.exchange_seconds: List[float] = []
        #: accumulated LET exchange volume since last reset
        self.let_import_cells: int = 0
        self.let_import_particles: int = 0
        self.let_bytes: float = 0.0
        self.last_exchange: Optional[ExchangeStats] = None

    # -- lifecycle -----------------------------------------------------
    def open(self) -> "ClusterContext":
        """Attach every host's backend to its board set; returns the
        context, so calls chain."""
        if self.backends:
            raise ClusterError("cluster already open; call close() first")
        spec = self.spec
        self.board_sets = tuple(
            tuple(range(h * spec.boards, (h + 1) * spec.boards))
            for h in range(spec.hosts))
        if not self.systems:
            self.systems = [
                Grape5System(timing=GrapeTimingModel(n_boards=spec.boards))
                for _ in range(spec.hosts)]
            self.exchange_seconds = [0.0] * spec.hosts
        for system in self.systems:
            if self.metrics is not None:
                system.metrics = self.metrics
            self.backends.append(GrapeBackend(
                system=system, fault_injector=self.fault_injector,
                max_retries=self.max_retries))
        if self.metrics is not None:
            m = self.metrics
            m.gauge("cluster.hosts", "emulated cluster hosts (K)"
                    ).set(spec.hosts)
            m.gauge("cluster.boards_per_host",
                    "GRAPE-5 boards per host (B)").set(spec.boards)
        return self

    def _require_open(self) -> None:
        if not self.backends:
            raise ClusterError("cluster open() has not been called")

    def close(self) -> None:
        """Detach every host backend; the systems and the exchange
        accumulators survive, so the run's performance numbers stay
        readable and a re-open carries on from them."""
        self._require_open()
        self.backends = []

    def __enter__(self) -> "ClusterContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.backends:
            self.close()
        return False

    # -- configuration passthrough -------------------------------------
    def set_domain(self, lo: float, hi: float) -> None:
        """Announce the coordinate window to every host's boards."""
        self._require_open()
        for system in self.systems:
            system.set_range(lo, hi)

    def reset_stats(self) -> None:
        """Zero every host's performance counters and the exchange
        accumulators (counterpart of ``Grape5System.reset_stats``)."""
        self._require_open()
        for system in self.systems:
            system.reset_stats()
        self.exchange_seconds = [0.0] * self.spec.hosts
        self.let_import_cells = 0
        self.let_import_particles = 0
        self.let_bytes = 0.0
        self.last_exchange = None

    # -- evaluation ----------------------------------------------------
    def evaluate(self, backend, spec, *, tracer=None,
                 metrics=None) -> EvalResult:
        """One decomposed force sweep, in the engine's place and with
        its signature (``backend`` is this context).

        The ORB partition and the LET accounting are defined on the
        *global* CSR lists, so the whole sweep is traversed first; each
        host then evaluates its rows through its backend's
        ``eval_lists`` -- the call every shard of the plain path makes,
        so K=1 is bit-identical to it -- as one of that host's force
        calls (its ``grape.compute`` fault site).  Once every host
        succeeded, each host's timing model is charged its rows.
        """
        self._require_open()
        hosts, tree = self.spec.hosts, spec.tree
        t0 = time.perf_counter()
        lists = spec.build_lists(0, spec.n_sinks)
        t1 = time.perf_counter()
        acc = np.empty((spec.n_particles, 3), dtype=np.float64)
        pot = np.empty(spec.n_particles, dtype=np.float64)
        weights = np.asarray(spec.sink_count, dtype=np.float64)
        owner = orb_partition(spec.sink_center, weights, hosts)
        rows = [np.flatnonzero(owner == h) for h in range(hosts)]
        for be, r in zip(self.backends, rows):
            if r.size:
                be.force_call(lambda: be.eval_lists(
                    tree.pos_sorted, tree.mass_sorted, tree.com,
                    tree.mass, take_rows(lists, r), spec.sink_start[r],
                    spec.sink_count[r], spec.eps, acc, pot))
        lengths = lists.list_lengths
        for be, r in zip(self.backends, rows):
            be.charge(spec.sink_count[r], lengths[r])
        self._account_exchange(tree, lists, owner, spec.sink_start,
                               spec.sink_count)
        return EvalResult(acc=acc, pot=pot, lengths=lengths,
                          cell_terms=int(lists.cell_off[-1]),
                          part_terms=int(lists.part_off[-1]),
                          traverse_seconds=t1 - t0,
                          kernel_seconds=time.perf_counter() - t1)

    def _account_exchange(self, tree, lists, owner, sink_start,
                          sink_count) -> None:
        """Fold one evaluation's LET imports into the timelines."""
        ex = let_exchange(tree, lists, owner, sink_start, sink_count,
                         self.spec.hosts)
        self.last_exchange = ex
        t_total = 0.0
        for h in ex.hosts:
            n_imports = h.import_cells + h.import_particles
            if n_imports == 0:
                continue
            t = (self.spec.exchange_latency
                 + h.import_bytes / self.spec.exchange_bandwidth)
            self.exchange_seconds[h.host] += t
            t_total += t
        self.let_import_cells += ex.total_import_cells
        self.let_import_particles += ex.total_import_particles
        self.let_bytes += ex.total_bytes
        if self.metrics is not None:
            m = self.metrics
            m.counter("cluster.let_import_cells",
                      "LET cells imported across all hosts"
                      ).inc(ex.total_import_cells)
            m.counter("cluster.let_import_particles",
                      "LET particles imported across all hosts"
                      ).inc(ex.total_import_particles)
            m.counter("cluster.let_bytes",
                      "LET exchange volume, bytes").inc(ex.total_bytes)
            m.counter("cluster.exchange_seconds",
                      "modelled LET exchange seconds").inc(t_total)

    # -- performance model ---------------------------------------------
    def _require_opened_once(self) -> None:
        if not self.systems:
            raise ClusterError("cluster open() has not been called")

    @property
    def host_seconds(self) -> Tuple[float, ...]:
        """Each host's modelled timeline: board compute + DMA from its
        own timing model, plus its accumulated LET exchange term.
        Readable after :meth:`close` (counters survive teardown)."""
        self._require_opened_once()
        return tuple(sys_.model_seconds + self.exchange_seconds[h]
                     for h, sys_ in enumerate(self.systems))

    @property
    def model_seconds(self) -> float:
        """Cluster predicted wall-clock: the slowest host's timeline
        (hosts run concurrently).  Exactly the single-host model at
        K=1, where the exchange term is zero."""
        return max(self.host_seconds)

    @property
    def interactions(self) -> int:
        """Pairwise interactions evaluated across all hosts."""
        self._require_opened_once()
        return sum(sys_.interactions for sys_ in self.systems)

    @property
    def predicted_gflops(self) -> float:
        """Modelled cluster speed under the 38-op convention."""
        t = self.model_seconds
        if t <= 0.0:
            return 0.0
        return OPS_PER_INTERACTION * self.interactions / t / 1e9

    def summary(self) -> dict:
        """Flat cluster block for ``--json-summary`` and reports."""
        self._require_opened_once()
        return {"hosts": self.spec.hosts, "boards": self.spec.boards,
                "board_sets": [list(s) for s in self.board_sets],
                "let_import_cells": int(self.let_import_cells),
                "let_import_particles": int(self.let_import_particles),
                "let_exchange_bytes": float(self.let_bytes),
                "exchange_seconds": float(sum(self.exchange_seconds)),
                "predicted_seconds": float(self.model_seconds),
                "predicted_gflops": float(self.predicted_gflops)}
