"""High-level treecode API.

:class:`TreeCode` packages the whole force pipeline the paper's host
code runs each step -- tree construction, multipole computation, Barnes
grouping, interaction-list traversal, and kernel evaluation -- behind a
single ``accelerations(pos, mass, eps)`` call.  The kernel evaluation is
delegated to a :class:`~repro.core.kernels.ForceBackend`, so the same
object drives either the host float64 path or the GRAPE-5 emulator.

Both algorithm variants are exposed:

* ``algorithm="modified"`` (default) -- Barnes' (1990) grouped lists,
  the variant run on GRAPE-5.  Work on the host shrinks by ~n_g while
  the pipelined interaction count grows (longer shared lists); the
  trade is the subject of experiment E3.
* ``algorithm="original"`` -- one list per particle, used by the paper
  only to *correct* the operation count (section 5) and by us for
  accuracy/count ablations (E2, E7).

After every call, :attr:`TreeCode.last_stats` holds the interaction
statistics the paper reports: total interaction count, average list
length, group population, and phase wall-clock times.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs.trace import as_tracer
from .groups import GroupSet, make_groups
from .kernels import (Float64Backend, ForceBackend,
                      self_potential_correction)
from .mac import MAC, BarnesHutMAC
from .multipole import compute_moments
from .quadkernel import quadrupole_accpot
from .octree import Octree, build_octree
from .traversal import InteractionLists, build_interaction_lists

__all__ = ["TreeCode", "TreeStats"]

logger = logging.getLogger(__name__)

@dataclass
class TreeStats:
    """Per-call statistics of one force evaluation.

    ``total_interactions`` counts every (sink particle, source term)
    pair, i.e. for the modified algorithm each group's list length times
    its population -- the quantity whose total over a run the paper
    reports as 2.90e13.  ``interactions_per_particle`` is the paper's
    "average length of the interaction list" (13,431 for the headline
    run).
    """

    algorithm: str
    n_particles: int
    n_cells: int
    depth: int
    n_groups: int
    mean_group_size: float
    cell_terms: int
    part_terms: int
    total_interactions: int
    interactions_per_particle: float
    mean_list_length: float
    max_list_length: int
    times: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flat dict for report tables."""
        row = {
            "algorithm": self.algorithm,
            "N": self.n_particles,
            "cells": self.n_cells,
            "depth": self.depth,
            "groups": self.n_groups,
            "n_g": round(self.mean_group_size, 1),
            "interactions": self.total_interactions,
            "list_len": round(self.interactions_per_particle, 1),
        }
        row.update({f"t_{k}": round(v, 4) for k, v in self.times.items()})
        return row


class TreeCode:
    """Barnes--Hut treecode with Barnes' modified (grouped) traversal.

    Parameters
    ----------
    theta:
        Opening-angle accuracy parameter of the default
        :class:`~repro.core.mac.BarnesHutMAC`.
    n_crit:
        Maximum particles per group; sets the paper's ``n_g`` knob.
    leaf_size:
        Maximum particles per tree leaf.
    backend:
        Force backend; host float64 when omitted.
    mac:
        Custom acceptance criterion (overrides ``theta``).
    quadrupole:
        Evaluate cell terms with monopole + traceless quadrupole on
        the host (extension; the GRAPE pipeline is monopole-only, so
        with this enabled only the *direct* particle terms go through
        the backend -- exactly what a hybrid host/GRAPE quadrupole
        scheme would do).
    engine:
        A :class:`repro.exec.PipelineEngine` driving the eval sweep.
        ``None`` (the default) evaluates the sweep in-process.  The
        engine hands shards of the list sweep to a thread pool and
        overlaps traversal of later sink shards with evaluation of
        earlier ones (the paper's host/GRAPE overlap).  Ignored (with
        the in-process sweep used instead) in quadrupole mode -- the
        host-side cell terms do not go through ``eval_lists``.
        :meth:`close` closes it.
    tracer:
        A :class:`repro.obs.trace.Tracer`; every force evaluation then
        opens ``tree_build`` / ``group`` / ``traverse`` / ``eval``
        spans (with ``grape_force``/``host_kernel`` and ``host_direct``
        attribution children under ``eval``).  ``None`` installs the
        shared no-op tracer -- the instrumented path then costs a few
        dict lookups per *phase*, not per interaction.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry`; per-call
        counters (``tree.force_evals``, ``tree.interactions_total``)
        and histograms (``tree.list_length``, ``tree.group_size``) are
        recorded when present.
    cluster:
        A :class:`~repro.cluster.ClusterSpec` (opened into a fresh
        :class:`~repro.cluster.ClusterContext`) or an already-built
        context, opened here if it is not: the eval sweep is then
        decomposed across K emulated hosts x B boards, each evaluating
        its own sinks' rows of the shared global lists, and the
        context is what the treecode holds as ``backend``.  Mutually
        exclusive with ``backend``, ``engine`` and ``quadrupole`` (the
        cluster owns its GRAPE backends and its own parallel
        structure).  ``hosts=1, boards=2`` is bit-identical to the
        plain GRAPE path.  :meth:`close` closes it.
    """

    def __init__(self, *, theta: float = 0.75, n_crit: int = 2000,
                 leaf_size: int = 8,
                 backend: Optional[ForceBackend] = None,
                 mac: Optional[MAC] = None,
                 quadrupole: bool = False,
                 engine: Optional[object] = None,
                 tracer: Optional[object] = None,
                 metrics: Optional[object] = None,
                 cluster: Optional[object] = None) -> None:
        if n_crit < 1:
            raise ValueError("n_crit must be >= 1")
        self.theta = float(theta)
        self.n_crit = int(n_crit)
        self.leaf_size = int(leaf_size)
        self.cluster = None
        if cluster is not None:
            from ..cluster import ClusterContext, ClusterSpec
            if backend is not None:
                raise ValueError("cluster= and backend= are mutually "
                                 "exclusive; the cluster owns its backends")
            if engine is not None:
                raise ValueError("cluster= and engine= are mutually "
                                 "exclusive; the cluster is its own "
                                 "parallel structure")
            if quadrupole:
                raise ValueError("cluster mode is monopole-only (the "
                                 "GRAPE pipelines are)")
            if isinstance(cluster, ClusterSpec):
                cluster = ClusterContext(cluster, metrics=metrics)
            if not cluster.backends:
                cluster.open()
            self.cluster = backend = cluster
        self.backend = backend if backend is not None else Float64Backend()
        self.mac = mac if mac is not None else BarnesHutMAC(theta=theta)
        self.quadrupole = bool(quadrupole)
        self.engine = engine
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.last_stats: Optional[TreeStats] = None
        self.last_tree: Optional[Octree] = None
        self.last_groups: Optional[GroupSet] = None
        self.last_lists: Optional[InteractionLists] = None
        self._kernel_seconds = 0.0
        self._last_domain: Optional[Tuple[float, float]] = None

    def close(self) -> None:
        """Close what this treecode holds: the engine's thread pool and
        the cluster context, whoever built them.  Both can be used
        again afterwards (a context re-opens with its counters intact);
        safe to call repeatedly."""
        if self.engine is not None:
            self.engine.close()
        if self.cluster is not None and self.cluster.backends:
            self.cluster.close()

    # ------------------------------------------------------------------
    def build(self, pos: np.ndarray, mass: np.ndarray) -> Octree:
        """Build the octree and its monopole moments.

        Also re-announces the root cube to the backend (the GRAPE's
        fixed-point coordinate window must track the particle extent).
        """
        tree = build_octree(pos, mass, leaf_size=self.leaf_size,
                            tracer=self.tracer)
        with self.tracer.span("moments", quadrupole=self.quadrupole):
            compute_moments(tree, quadrupole=self.quadrupole)
        lo = float(np.min(tree.corner))
        hi = float(np.max(tree.corner + tree.size))
        self._last_domain = (lo, hi)
        self.backend.set_domain(lo, hi)
        return tree

    # ------------------------------------------------------------------
    def accelerations(self, pos: np.ndarray, mass: np.ndarray,
                      eps: float = 0.0, *, algorithm: str = "modified",
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Accelerations and potentials on every particle.

        Returns ``(acc, pot)`` in the *original* particle order.
        """
        if algorithm not in ("modified", "original"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        tr = self.tracer
        t0 = time.perf_counter()
        with tr.span("tree_build", n_particles=int(pos.shape[0])):
            tree = self.build(pos, mass)
        t_build = time.perf_counter() - t0

        if algorithm == "modified":
            t0 = time.perf_counter()
            with tr.span("group", n_crit=self.n_crit):
                groups = make_groups(tree, self.n_crit)
            t_group = time.perf_counter() - t0
            sink_center, sink_radius = groups.center, groups.radius
        else:
            t_group = 0.0
            groups = None
            sink_center = tree.pos_sorted
            sink_radius = np.zeros(tree.n_particles, dtype=np.float64)

        if algorithm == "modified":
            sink_weights = groups.count
        else:
            sink_weights = np.ones(tree.n_particles, dtype=np.int64)
        n_sinks = (groups.n_groups if groups is not None
                   else tree.n_particles)
        kernel_phase = ("grape_force" if "grape" in self.backend.name
                        else "host_kernel")

        if self.engine is not None and not self.quadrupole:
            # Engine path: traversal and evaluation are interleaved (the
            # engine builds lists shard-by-shard and evaluates earlier
            # shards meanwhile), so traverse time is accumulated inside
            # and attributed afterwards.
            spec = self._sweep_spec(tree, groups, sink_center, sink_radius,
                                    eps)
            t0 = time.perf_counter()
            with tr.span("eval", algorithm=algorithm,
                         engine=self.engine.name):
                res = self.engine.evaluate(self.backend, spec, tracer=tr,
                                           metrics=self.metrics)
                acc_s, pot_s = res.acc, res.pot
                pot_s += self_potential_correction(tree.mass_sorted, eps)
                t_kernel = res.kernel_seconds
                tr.record(kernel_phase, t_kernel, calls=int(n_sinks),
                          backend=self.backend.name)
            lists = res.lists
            t_traverse = res.traverse_seconds
            t_eval = max(0.0, time.perf_counter() - t0 - t_traverse)
            tr.record("traverse", t_traverse,
                      n_sinks=int(sink_center.shape[0]))
            tr.record("host_direct", max(0.0, t_eval - t_kernel))
        else:
            t0 = time.perf_counter()
            with tr.span("traverse", n_sinks=int(sink_center.shape[0])):
                lists = build_interaction_lists(tree, sink_center,
                                                sink_radius, self.mac)
            t_traverse = time.perf_counter() - t0

            self._kernel_seconds = 0.0
            with tr.span("eval", algorithm=algorithm):
                # timed from inside the span, so the attribution
                # children recorded below can never outlast it
                t0 = time.perf_counter()
                acc_s = np.empty((tree.n_particles, 3), dtype=np.float64)
                pot_s = np.empty(tree.n_particles, dtype=np.float64)
                if algorithm == "modified":
                    sink_start, sink_count = groups.start, groups.count
                else:
                    sink_start = np.arange(tree.n_particles, dtype=np.int64)
                    sink_count = np.ones(tree.n_particles, dtype=np.int64)
                if self.cluster is not None:
                    k0 = time.perf_counter()
                    self.cluster.evaluate(tree, lists, sink_center,
                                          sink_start, sink_count, eps,
                                          acc_s, pot_s)
                    self._kernel_seconds += time.perf_counter() - k0
                else:
                    self._eval_sweep(tree, lists, sink_start, sink_count,
                                     eps, acc_s, pot_s)
                # remove the Plummer self term picked up from the direct
                # list
                pot_s += self_potential_correction(tree.mass_sorted, eps)
                t_eval = time.perf_counter() - t0
                t_kernel = self._kernel_seconds
                # attribute the eval sweep: backend kernel wall time vs
                # the host-side remainder (list assembly, scatter,
                # bookkeeping)
                tr.record(kernel_phase, t_kernel, calls=int(n_sinks),
                          backend=self.backend.name)
                tr.record("host_direct", max(0.0, t_eval - t_kernel))

        acc = np.empty_like(acc_s)
        pot = np.empty_like(pot_s)
        acc[tree.order] = acc_s
        pot[tree.order] = pot_s

        lengths = lists.list_lengths
        total = int(np.sum(lengths * sink_weights))
        if self.metrics is not None:
            m = self.metrics
            m.counter("tree.force_evals",
                      "force evaluations (tree builds)").inc()
            m.counter("tree.interactions_total",
                      "particle-particle interactions "
                      "(the paper's 2.90e13 analogue)").inc(total)
            m.counter("tree.cell_terms_total",
                      "cell (monopole) terms").inc(int(lists.cell_off[-1]))
            m.counter("tree.part_terms_total",
                      "direct particle terms").inc(int(lists.part_off[-1]))
            m.histogram("tree.list_length",
                        "interaction-list length per sink"
                        ).observe_many(lengths.tolist())
            if groups is not None:
                m.histogram("tree.group_size",
                            "particles per Barnes group (n_g)"
                            ).observe_many(groups.count.tolist())
            m.gauge("tree.depth", "octree depth").set(tree.depth)
            m.gauge("tree.n_cells", "octree cells").set(tree.n_cells)
            for phase, secs in (("build", t_build), ("group", t_group),
                                ("traverse", t_traverse), ("eval", t_eval),
                                ("kernel", t_kernel)):
                m.counter(f"tree.seconds.{phase}",
                          f"host wall seconds in {phase}").inc(secs)
        logger.debug("force eval: N=%d algo=%s interactions=%d "
                     "build=%.4fs traverse=%.4fs eval=%.4fs",
                     tree.n_particles, algorithm, total, t_build,
                     t_traverse, t_eval)
        self.last_tree = tree
        self.last_groups = groups
        self.last_lists = lists
        self.last_stats = TreeStats(
            algorithm=algorithm,
            n_particles=tree.n_particles,
            n_cells=tree.n_cells,
            depth=tree.depth,
            n_groups=(groups.n_groups if groups is not None
                      else tree.n_particles),
            mean_group_size=(groups.mean_size if groups is not None else 1.0),
            cell_terms=int(lists.cell_off[-1]),
            part_terms=int(lists.part_off[-1]),
            total_interactions=total,
            interactions_per_particle=total / tree.n_particles,
            mean_list_length=float(lengths.mean()),
            max_list_length=int(lengths.max()) if len(lengths) else 0,
            times={"build": t_build, "group": t_group,
                   "traverse": t_traverse, "eval": t_eval,
                   "kernel": t_kernel,
                   "host_direct": max(0.0, t_eval - t_kernel)},
        )
        return acc, pot

    # ------------------------------------------------------------------
    def _sweep_spec(self, tree: Octree, groups: Optional[GroupSet],
                    sink_center: np.ndarray, sink_radius: np.ndarray,
                    eps: float):
        """Package this evaluation as a :class:`repro.exec.SweepSpec`.

        The ``build_lists`` closure traverses an arbitrary contiguous
        sink range, letting the engine stream traversal against
        evaluation.
        """
        from ..exec.plan import SweepSpec
        if groups is not None:
            sink_start, sink_count = groups.start, groups.count
        else:
            sink_start = np.arange(tree.n_particles, dtype=np.int64)
            sink_count = np.ones(tree.n_particles, dtype=np.int64)

        def build_lists(a: int, b: int) -> InteractionLists:
            return build_interaction_lists(tree, sink_center[a:b],
                                           sink_radius[a:b], self.mac)

        return SweepSpec(pos=tree.pos_sorted, pmass=tree.mass_sorted,
                         com=tree.com, cmass=tree.mass,
                         sink_start=sink_start, sink_count=sink_count,
                         eps=float(eps), domain=self._last_domain,
                         build_lists=build_lists)

    # ------------------------------------------------------------------
    def _eval_sweep(self, tree: Octree, lists: InteractionLists,
                    sink_start: np.ndarray, sink_count: np.ndarray,
                    eps: float, acc_s: np.ndarray, pot_s: np.ndarray
                    ) -> None:
        """Evaluate every sink's list into ``acc_s``/``pot_s``.

        Monopole mode ships the whole CSR block (cells + direct
        particles, one point-mass list per sink, as on the hardware)
        through :meth:`ForceBackend.eval_lists`.  Quadrupole mode sends
        only the direct-particle terms that way and adds the
        monopole+quadrupole cell terms on the host per sink group --
        what a hybrid host/GRAPE quadrupole scheme would do.

        Subclasses whose source lists depend on the sink (the periodic
        treecode's anchored images) override this one hook.
        """
        sent = lists
        if self.quadrupole:
            sent = InteractionLists(
                n_sinks=lists.n_sinks,
                cell_idx=np.empty(0, dtype=np.int64),
                cell_off=np.zeros(lists.n_sinks + 1, dtype=np.int64),
                part_idx=lists.part_idx, part_off=lists.part_off)
        k0 = time.perf_counter()
        self.backend.eval_lists(tree.pos_sorted, tree.mass_sorted,
                                tree.com, tree.mass, sent,
                                sink_start, sink_count, eps, acc_s, pot_s)
        self._kernel_seconds += time.perf_counter() - k0
        if not self.quadrupole:
            return
        for g in range(int(sink_start.shape[0])):
            s, n = int(sink_start[g]), int(sink_count[g])
            cells = lists.cells_of(g)
            a_c, p_c = quadrupole_accpot(tree.pos_sorted[s:s + n],
                                         tree.com[cells],
                                         tree.mass[cells],
                                         tree.quad[cells], eps)
            acc_s[s:s + n] += a_c
            pot_s[s:s + n] += p_c
