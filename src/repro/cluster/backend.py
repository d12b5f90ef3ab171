"""The emulated cluster as a force backend the one engine drives.

:class:`ClusterBackend` is a :class:`~repro.grape.system.GrapeBackend`
built from a :class:`~repro.cluster.spec.ClusterSpec`: a cluster
treecode is ``TreeCode(backend=ClusterBackend(spec))``, and its sweeps
go through :class:`~repro.exec.PipelineEngine` like any other, fault
sites and retry budgets included.  Per host it owns one
:class:`~repro.grape.system.Grape5System`, whose timing model splits
the j-stream over that host's B boards; host ``h`` is wired to
physical boards ``[h*B, (h+1)*B)`` (:attr:`ClusterBackend.board_sets`),
disjoint by arithmetic.

All K hosts share one datapath and one announced coordinate window,
so the forces are evaluated on host 0's system: they are the plain
GRAPE path's bits at every K by construction.  What the cluster adds
is the cost, charged once per sweep by :meth:`ClusterBackend.charge`:

1. :func:`~repro.cluster.decompose.orb_partition` assigns every sink
   (Barnes group) to a host, weighted by group population;
2. each host's timing model is charged its own sinks' force calls;
3. :func:`~repro.cluster.let.let_exchange` accounts the
   locally-essential-tree imports each host would have received, and
   the network term (latency + bytes/bandwidth) joins that host's
   timeline.

The cluster's predicted wall-clock is the *slowest host's* timeline
(compute + DMA from its own timing model, plus its exchange term), so
K=1 reproduces the single-host model: its one host is charged the very
arrays a plain sweep is.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..grape.system import Grape5System, GrapeBackend
from ..grape.timing import GrapeTimingModel, OPS_PER_INTERACTION
from .decompose import orb_partition
from .let import ExchangeStats, let_exchange
from .spec import ClusterSpec

__all__ = ["ClusterBackend"]


class ClusterBackend(GrapeBackend):
    """K emulated hosts x B boards behind one GRAPE backend.

    Counters accumulate until :meth:`reset_stats`; there is nothing to
    open or close.  Keyword arguments (``fault_injector``,
    ``max_retries``) are :class:`~repro.grape.system.GrapeBackend`'s.
    """

    #: backend name for reports (the ``"grape"`` substring selects the
    #: ``grape_force`` phase attribution)
    name = "grape5-cluster"

    def __init__(self, spec: ClusterSpec, **backend) -> None:
        #: per-host systems; forces are evaluated on ``systems[0]``
        self.systems = [
            Grape5System(timing=GrapeTimingModel(n_boards=spec.boards))
            for _ in range(spec.hosts)]
        super().__init__(system=self.systems[0], **backend)
        self.spec = spec
        self.metrics = None
        #: per-host physical board ids, ``[h*B, (h+1)*B)``
        self.board_sets: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(range(h * spec.boards, (h + 1) * spec.boards))
            for h in range(spec.hosts))
        self.reset_stats()

    def bind_metrics(self, registry) -> "ClusterBackend":
        """Route every host's ``grape.*`` counters and the
        ``cluster.*`` metrics into ``registry``."""
        for system in self.systems:
            system.metrics = registry
        self.metrics = registry
        registry.gauge("cluster.hosts", "emulated cluster hosts (K)"
                       ).set(self.spec.hosts)
        registry.gauge("cluster.boards_per_host",
                       "GRAPE-5 boards per host (B)").set(self.spec.boards)
        return self

    def reset_stats(self) -> None:
        """Zero every host's performance counters and the exchange
        accumulators."""
        for system in self.systems:
            system.reset_stats()
        #: accumulated per-host LET exchange seconds since last reset
        self.exchange_seconds = [0.0] * self.spec.hosts
        #: accumulated LET exchange volume since last reset
        self.let_import_cells = 0
        self.let_import_particles = 0
        self.let_bytes = 0.0
        self.last_exchange: Optional[ExchangeStats] = None

    # -- the sweep's cost ----------------------------------------------
    def charge(self, spec, lengths) -> None:
        """Charge one sweep to the cluster: each host's timing model its
        ORB share of the sinks' force calls, and each host's timeline
        its LET imports, accounted on one walk of the whole sweep."""
        hosts = self.spec.hosts
        owner = orb_partition(spec.sink_center,
                              np.asarray(spec.sink_count, dtype=np.float64),
                              hosts)
        for h, system in enumerate(self.systems):
            rows = np.flatnonzero(owner == h)
            system.charge_batch(spec.sink_count[rows], lengths[rows])
        ex = let_exchange(spec.tree, spec.build_lists(0, spec.n_sinks),
                          owner, spec.sink_start, spec.sink_count, hosts)
        self.last_exchange = ex
        t_total = 0.0
        for h in ex.hosts:
            if h.import_cells + h.import_particles == 0:
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
    @property
    def host_seconds(self) -> Tuple[float, ...]:
        """Each host's modelled timeline: board compute + DMA from its
        own timing model, plus its accumulated LET exchange term."""
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
        """Pairwise interactions charged across all hosts."""
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
        return {"hosts": self.spec.hosts, "boards": self.spec.boards,
                "board_sets": [list(s) for s in self.board_sets],
                "let_import_cells": int(self.let_import_cells),
                "let_import_particles": int(self.let_import_particles),
                "let_exchange_bytes": float(self.let_bytes),
                "exchange_seconds": float(sum(self.exchange_seconds)),
                "predicted_seconds": float(self.model_seconds),
                "predicted_gflops": float(self.predicted_gflops)}
