"""The GRAPE-5 system: the emulated device.

The paper's machine (figure 1, section 2) is two processor boards of
eight G5 chips of two *identical* pipelines, every pipeline of a board
reading one broadcast j-stream from the board's particle data memory.
Which physical pipeline computed an interaction is unobservable in the
results, so the emulator holds the machine as two things:
:class:`~repro.grape.timing.GrapeTimingModel` -- the only description
of the geometry and the clocks -- and :class:`Grape5System`, the
device: one :class:`~repro.grape.pipeline.G5Pipeline` (the datapath and
the coordinate format), the per-board j-memory size, and the counters.
It exposes:

* the **functional** path -- :meth:`Grape5System.compute` evaluates a
  force call in the hardware's reduced precision, splitting the j-set
  over the boards and summing partial forces on the host, exactly as
  the real library does;
* the **performance** path -- every call is charged to the
  :class:`~repro.grape.timing.GrapeTimingModel`, accumulating the
  *modelled* wall-clock seconds the physical machine would have spent
  (:attr:`Grape5System.model_seconds`), plus interaction and byte
  counters;
* :class:`GrapeBackend` -- the :class:`~repro.core.kernels.ForceBackend`
  adapter that lets :class:`~repro.core.treecode.TreeCode` offload its
  kernel to the emulator, mirroring how the paper's host code drives
  the hardware through libg5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.kernels import ForceBackend
from ..faults import TransientBackendError
from .numerics import G5Numerics, G5_NUMERICS
from .pipeline import G5Pipeline
from .timing import GrapeTimingModel, OPS_PER_INTERACTION

__all__ = ["Grape5System", "GrapeBackend"]


@dataclass
class Grape5System:
    """An emulated GRAPE-5 installation.

    The default configuration is the paper's: 2 boards x 8 chips x 2
    pipelines, 109.44 Gflops peak.  Geometry and clocks are read from
    :attr:`timing` and nowhere else.
    """

    numerics: G5Numerics = G5_NUMERICS
    timing: GrapeTimingModel = field(default_factory=GrapeTimingModel)
    #: particle data memory of one board, in j-particles.  The real
    #: board stores 2^18 -- comfortably larger than any interaction
    #: list the treecode produces (the paper's average is ~13,000).
    jmem_capacity: int = 1 << 18
    #: when True, every force call's (n_i, n_j) shape is appended to
    #: :attr:`call_log` -- the raw material for validating the timing
    #: model against a real run's call-size distribution
    record_calls: bool = False

    #: optional :class:`repro.obs.metrics.MetricsRegistry`; every force
    #: call is then charged to ``grape.*`` counters/histograms so
    #: host-vs-GRAPE time attribution is first-class run data
    metrics: Optional[object] = field(default=None, repr=False)

    # accumulated performance counters
    n_calls: int = field(default=0, init=False, repr=False)
    interactions: int = field(default=0, init=False, repr=False)
    model_seconds: float = field(default=0.0, init=False, repr=False)
    call_log: List[Tuple[int, int]] = field(default_factory=list,
                                            init=False, repr=False)

    #: the datapath.  All 32 physical pipelines are this one function,
    #: and its ``coord_format`` is *the* coordinate format: the one
    #: :meth:`compute` and the compiled list walk both read.
    pipeline: G5Pipeline = field(init=False, repr=False)

    def __post_init__(self):
        self.pipeline = G5Pipeline(numerics=self.numerics)

    # ------------------------------------------------------------------
    @property
    def n_pipelines(self) -> int:
        return self.timing.n_pipelines

    @property
    def peak_flops(self) -> float:
        """Theoretical peak under the 38-op convention."""
        return self.timing.peak_flops

    @property
    def jmem_total(self) -> int:
        """j-particles one resident pass holds across all boards."""
        return self.timing.n_boards * self.jmem_capacity

    def describe(self) -> Dict[str, object]:
        """Configuration summary -- the block-diagram data of figure 1."""
        t = self.timing
        return {
            "boards": t.n_boards,
            "chips_per_board": t.chips_per_board,
            "pipelines_per_chip": t.pipes_per_chip,
            "pipelines_total": t.n_pipelines,
            "pipeline_clock_MHz": t.pipeline_clock_hz / 1e6,
            "memory_clock_MHz": t.memory_clock_hz / 1e6,
            "virtual_multiplexing": t.vmp,
            "i_particles_per_pass": t.i_per_pass,
            "ops_per_interaction": OPS_PER_INTERACTION,
            "peak_Gflops": t.peak_flops / 1e9,
            "pairwise_rel_error_target": 3e-3,
            "jmem_capacity_per_board": self.jmem_capacity,
        }

    # ------------------------------------------------------------------
    def set_range(self, xmin: float, xmax: float) -> None:
        """Announce the coordinate window (the ``g5_set_range`` call of
        libg5).  The only writer of the window: with none announced,
        :meth:`compute` covers each call on its own and stores
        nothing."""
        self.pipeline.set_range(xmin, xmax)

    def reset_stats(self) -> None:
        self.n_calls = 0
        self.interactions = 0
        self.model_seconds = 0.0
        self.call_log.clear()

    # ------------------------------------------------------------------
    def compute(self, xi: np.ndarray, xj: np.ndarray, mj: np.ndarray,
                eps: float) -> Tuple[np.ndarray, np.ndarray]:
        """One force call: forces on ``xi`` from sources ``(xj, mj)``.

        The j-set is split into contiguous blocks over the boards (the
        library's multi-board scatter); each board computes a partial
        force against its block, and the host sums the partials in
        double precision.  The call is charged to the timing model.
        """
        xi = np.asarray(xi, dtype=np.float64)
        xj = np.asarray(xj, dtype=np.float64)
        mj = np.asarray(mj, dtype=np.float64)
        n_i, n_j = xi.shape[0], xj.shape[0]

        acc = np.zeros((n_i, 3), dtype=np.float64)
        pot = np.zeros(n_i, dtype=np.float64)
        if n_i == 0 or n_j == 0:
            return acc, pot

        pipe = self.pipeline
        if pipe.coord_format is None:
            # Hosts normally announce the simulation box; absent that,
            # emulate a cautious library default covering *this* call.
            lo = min(xi.min(), xj.min())
            hi = max(xi.max(), xj.max())
            pad = 0.5 * (hi - lo) + 1e-12
            pipe = G5Pipeline(numerics=self.numerics)
            pipe.set_range(lo - pad, hi + pad)

        # A j-set larger than the combined particle memory is split
        # into sequential passes, exactly as the library does: each
        # pass loads, runs and accumulates, and each is charged to the
        # timing model as a separate call.
        capacity = self.jmem_total
        for c0 in range(0, n_j, capacity):
            c1 = min(c0 + capacity, n_j)
            self._compute_resident(pipe, xi, xj[c0:c1], mj[c0:c1], eps,
                                   acc, pot)
        return acc, pot

    def _compute_resident(self, pipe, xi, xj, mj, eps, acc, pot) -> None:
        """One memory-resident pass: scatter j over boards, sum.

        Every pipeline of every board is the same deterministic
        datapath, so each board's block is one vectorised call on
        ``pipe``; the pipeline *count* matters only to the timing
        model."""
        n_i, n_j = xi.shape[0], xj.shape[0]
        nb = self.timing.n_boards
        bounds = np.linspace(0, n_j, nb + 1).astype(np.int64)
        for b in range(nb):
            j0, j1 = int(bounds[b]), int(bounds[b + 1])
            if j1 <= j0:
                continue
            a, p = pipe.compute(xi, xj[j0:j1], mj[j0:j1], eps)
            acc += a
            pot += p

        self.charge_batch([n_i], [n_j])

    def charge_batch(self, n_i: np.ndarray, n_j: np.ndarray) -> None:
        """Charge a batch of force calls to the performance model.

        The one place a force call is priced.  The batched kernel path
        evaluates whole CSR blocks of calls in one native sweep and
        charges them here vectorised; :meth:`_compute_resident` charges
        its single pass through the same code.  Empty calls are dropped
        (the functional path returns before charging them) and calls
        whose j-set exceeds the combined particle memory are expanded
        into the same sequential passes :meth:`compute` would have
        issued.
        """
        n_i = np.asarray(n_i, dtype=np.int64)
        n_j = np.asarray(n_j, dtype=np.int64)
        live = (n_i > 0) & (n_j > 0)
        n_i, n_j = n_i[live], n_j[live]
        if n_i.size == 0:
            return
        capacity = self.jmem_total
        over = n_j > capacity
        if np.any(over):
            extra_i, extra_j = [], []
            for ni, nj in zip(n_i[over], n_j[over]):
                for c0 in range(0, int(nj), capacity):
                    extra_i.append(int(ni))
                    extra_j.append(min(int(nj) - c0, capacity))
            n_i = np.concatenate([n_i[~over], np.asarray(extra_i)])
            n_j = np.concatenate([n_j[~over], np.asarray(extra_j)])

        t = self.timing.force_call_time_batch(n_i, n_j)
        self._record(int(np.sum(n_i * n_j)), float(np.sum(t)), n_i, n_j)

    def _record(self, inter: int, seconds: float, n_i, n_j) -> None:
        """Add priced force calls of shapes ``n_i`` x ``n_j`` to the
        counters, the call log and, when a registry is bound, the
        ``grape.*`` metrics -- the only place any of them is written,
        whether the calls were priced here or on an engine's private
        backend."""
        calls = len(n_i)
        self.n_calls += calls
        self.interactions += inter
        self.model_seconds += seconds
        if self.record_calls:
            self.call_log.extend(zip(n_i.tolist(), n_j.tolist()))
        m = self.metrics
        if m is None or not calls:
            return
        m.counter("grape.force_calls",
                  "force calls shipped to the boards").inc(calls)
        m.counter("grape.interactions_total",
                  "pairwise interactions on the pipelines").inc(inter)
        m.counter("grape.model_seconds",
                  "modelled GRAPE-5 wall seconds").inc(seconds)
        m.histogram("grape.call_ni", "i-particles (sinks) per force call"
                    ).observe_many(n_i)
        m.histogram("grape.call_nj",
                    "j-particles (list length) per force call"
                    ).observe_many(n_j)

    # ------------------------------------------------------------------
    @property
    def model_flops(self) -> float:
        """Average modelled speed since the last reset (38-op count)."""
        if self.model_seconds <= 0.0:
            return 0.0
        return OPS_PER_INTERACTION * self.interactions / self.model_seconds


@dataclass
class GrapeBackend(ForceBackend):
    """Adapter: drive a :class:`Grape5System` through the generic
    :class:`~repro.core.kernels.ForceBackend` interface.

    Construct one around a system (or let it build the default paper
    configuration) and hand it to :class:`~repro.core.treecode.TreeCode`
    -- the treecode then behaves like the paper's host code, shipping
    every group's interaction list to the emulated hardware.
    """

    system: Grape5System = field(default_factory=Grape5System)
    #: optional :class:`repro.faults.FaultInjector` consulted at the
    #: ``grape.compute`` site before every call (chaos testing)
    fault_injector: Optional[object] = field(default=None, repr=False)
    #: transparent re-issues of a force call after a
    #: :class:`~repro.faults.TransientBackendError` -- the host-side
    #: discipline for a flaky board or dropped bus transfer
    max_retries: int = 2
    #: calls that needed at least one retry to succeed (cumulative)
    transient_retries: int = field(default=0, repr=False)

    name = "grape5"

    def force_call(self, fn):
        """One backend force call: ``fn`` under the ``grape.compute``
        fault site and the transient-retry budget: after a
        :class:`~repro.faults.TransientBackendError` the call is
        re-issued, up to :attr:`max_retries` times.  The site precedes
        ``fn``, so a retried call is never charged twice."""
        attempt = 0
        while True:
            try:
                if self.fault_injector is not None:
                    self.fault_injector.maybe_raise("grape.compute")
                return fn()
            except TransientBackendError:
                attempt += 1
                self.transient_retries += 1
                m = self.system.metrics
                if m is not None:
                    m.counter("exec.fault.backend_retries",
                              "force calls re-issued after a transient "
                              "backend error").inc()
                if attempt > self.max_retries:
                    raise

    def compute(self, xi, xj, mj, eps):
        return self.force_call(
            lambda: self.system.compute(xi, xj, mj, eps))

    def eval_lists(self, pos, pmass, com, cmass, lists, sink_start,
                   sink_count, eps, out_acc, out_pot):
        """Batched CSR evaluation on the emulated datapath: the compiled
        walk -- bit-identical to adding one
        :class:`~repro.grape.pipeline.G5Pipeline` pair at a time in
        list order -- when it models the numerics and an announced
        coordinate window (the treecode always announces one), else
        the reference loop, where the per-call auto-range of
        :meth:`Grape5System.compute` is authoritative.
        """
        from ..core.kernels import batch as _batch
        done = self.force_call(lambda: _batch.g5_eval_lists(
            pos, pmass, com, cmass, lists, sink_start, sink_count,
            eps, out_acc, out_pot, numerics=self.system.numerics,
            fixed=self.system.pipeline.coord_format))
        if not done:
            super().eval_lists(pos, pmass, com, cmass, lists, sink_start,
                               sink_count, eps, out_acc, out_pot)
            return
        self.system.charge_batch(np.asarray(sink_count),
                                 lists.list_lengths)

    def worker_factory(self):
        """Configuration-only spec: the caller's class around a fresh
        system from the numerics, the timing constants and the j-memory
        size (no state is shared); private systems reproduce the
        deterministic reduced-precision datapath, and price it,
        exactly -- and log every priced call's shape for
        :meth:`merge_stats`."""
        cls, s = type(self), self.system
        config = dict(numerics=s.numerics, timing=s.timing,
                      jmem_capacity=s.jmem_capacity, record_calls=True)
        return lambda: cls(system=Grape5System(**config))

    def merge_stats(self, private):
        """Fold a private instance's priced calls back in, keeping run
        totals, the call log and the ``grape.*`` metrics (when bound)
        what a single instance would have recorded."""
        p = private.system
        n_i, n_j = np.array(p.call_log, dtype=np.int64).reshape(-1, 2).T
        self.system._record(p.interactions, p.model_seconds, n_i, n_j)

    def bind_metrics(self, registry) -> "GrapeBackend":
        """Route per-force-call counters into ``registry``
        (a :class:`repro.obs.metrics.MetricsRegistry`)."""
        self.system.metrics = registry
        return self

    def reset_stats(self):
        self.system.reset_stats()

    def set_domain(self, lo: float, hi: float) -> None:
        """Re-announce the coordinate window (forwarded to
        ``g5_set_range``); called by the treecode per tree build."""
        self.system.set_range(lo, hi)

    @property
    def interactions(self) -> int:
        return self.system.interactions

    @property
    def model_seconds(self) -> float:
        """Modelled GRAPE wall-clock seconds since the last reset."""
        return self.system.model_seconds
