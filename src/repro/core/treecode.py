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

from ..exec.plan import SweepSpec
from ..obs.trace import as_tracer
from .groups import GroupSet, make_groups
from .kernels import (Float64Backend, ForceBackend,
                      self_potential_correction)
from .mac import MAC, BarnesHutMAC
from .multipole import compute_moments
from .octree import Octree, build_octree
from .traversal import InteractionLists, list_builder

__all__ = ["TreeCode", "TreeStats"]

logger = logging.getLogger(__name__)


def _default_engine():
    """The engine a treecode builds for itself: one pool thread per
    core, none started before the first sweep.  (Imported here: the
    engine module imports ``repro.core``.)"""
    from ..exec.engine import PipelineEngine
    return PipelineEngine()


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
    engine:
        The :class:`repro.exec.PipelineEngine` that evaluates every
        sweep: it cuts the sinks into shards, each walked and
        evaluated on one pool thread, so one shard's walk overlaps
        another's evaluation (the paper's host/GRAPE overlap).
        ``None`` (the default) builds one owned by this treecode; pass
        one to share a pool across solvers or to carry a fault plan /
        flight recorder.
        :meth:`close` closes it (and replaces an owned one).
    tracer:
        A :class:`repro.obs.trace.Tracer`; every force evaluation then
        opens ``tree_build`` / ``group`` / ``traverse`` / ``eval``
        spans (``traverse``, ``grape_force``/``host_kernel`` and
        ``host_direct`` partition ``eval`` on the calling thread's
        clock: its own list building, waiting on the shards, the
        rest; a pool thread's walk is an ``exec.traverse`` span).
        ``None`` installs the shared no-op tracer -- the instrumented
        path then costs a few dict lookups per *phase*, not per
        interaction.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry`; per-call
        counters (``tree.force_evals``, ``tree.interactions_total``)
        and histograms (``tree.list_length``, ``tree.group_size``) are
        recorded when present.
    """

    def __init__(self, *, theta: float = 0.75, n_crit: int = 2000,
                 leaf_size: int = 8,
                 backend: Optional[ForceBackend] = None,
                 mac: Optional[MAC] = None,
                 engine: Optional[object] = None,
                 tracer: Optional[object] = None,
                 metrics: Optional[object] = None) -> None:
        if n_crit < 1:
            raise ValueError("n_crit must be >= 1")
        self.theta = float(theta)
        self.n_crit = int(n_crit)
        self.leaf_size = int(leaf_size)
        self.backend = backend if backend is not None else Float64Backend()
        self.mac = mac if mac is not None else BarnesHutMAC(theta=theta)
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else _default_engine()
        self.tracer = as_tracer(tracer)
        self.metrics = metrics
        self.last_stats: Optional[TreeStats] = None
        self.last_tree: Optional[Octree] = None
        self.last_groups: Optional[GroupSet] = None

    def close(self) -> None:
        """Close the engine's thread pool.  An owned engine is replaced
        by a fresh one, so the treecode can be used again afterwards;
        safe to call repeatedly."""
        self.engine.close()
        if self._owns_engine:
            self.engine = _default_engine()

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
            tree = build_octree(pos, mass, leaf_size=self.leaf_size,
                                tracer=tr)
            with tr.span("moments"):
                compute_moments(tree)
            # the GRAPE's fixed-point window tracks the particle extent
            self.backend.set_domain(float(np.min(tree.corner)),
                                    float(np.max(tree.corner + tree.size)))
        t_build = time.perf_counter() - t0

        if algorithm == "modified":
            t0 = time.perf_counter()
            with tr.span("group", n_crit=self.n_crit):
                groups = make_groups(tree, self.n_crit)
            t_group = time.perf_counter() - t0
            sink_center, sink_radius = groups.center, groups.radius
            sink_start, sink_count = groups.start, groups.count
        else:
            t_group = 0.0
            groups = None
            sink_center = tree.pos_sorted
            sink_radius = np.zeros(tree.n_particles, dtype=np.float64)
            sink_start = np.arange(tree.n_particles, dtype=np.int64)
            sink_count = np.ones(tree.n_particles, dtype=np.int64)
        n_sinks = int(sink_start.shape[0])
        kernel_phase = ("grape_force" if "grape" in self.backend.name
                        else "host_kernel")

        # the walk's per-tree inputs, once per sweep on this thread
        lists_of = list_builder(tree, self.mac)

        def build_lists(a: int, b: int) -> InteractionLists:
            # any contiguous sink range: the engine walks each shard
            # on the thread that evaluates it
            return lists_of(sink_center[a:b], sink_radius[a:b])

        spec = SweepSpec(tree=tree, sink_center=sink_center,
                         sink_start=sink_start, sink_count=sink_count,
                         eps=float(eps), build_lists=build_lists)
        with tr.span("eval", algorithm=algorithm):
            # timed from inside the span, so the attribution children
            # recorded below can never outlast it
            t0 = time.perf_counter()
            res = self.engine.evaluate(self.backend, spec, tracer=tr,
                                       metrics=self.metrics)
            acc_s, pot_s = res.acc, res.pot
            # remove the Plummer self term picked up from the direct
            # list
            pot_s += self_potential_correction(tree.mass_sorted, eps)
            # attribute the sweep on this thread's clock: its own tree
            # walks, waiting on (or running) the shards, and the
            # host-side remainder (shard bookkeeping); the pool's walks
            # are the stitched exec.traverse spans
            t_traverse, t_kernel = res.traverse_seconds, res.kernel_seconds
            t_eval = time.perf_counter() - t0 - t_traverse
            tr.record("traverse", t_traverse, n_sinks=n_sinks)
            tr.record(kernel_phase, t_kernel, calls=n_sinks,
                      backend=self.backend.name)
            tr.record("host_direct", max(0.0, t_eval - t_kernel))

        acc = np.empty_like(acc_s)
        pot = np.empty_like(pot_s)
        acc[tree.order] = acc_s
        pot[tree.order] = pot_s

        lengths = res.lengths
        total = int(np.sum(lengths * sink_count))
        if self.metrics is not None:
            m = self.metrics
            m.counter("tree.force_evals",
                      "force evaluations (tree builds)").inc()
            m.counter("tree.interactions_total",
                      "particle-particle interactions "
                      "(the paper's 2.90e13 analogue)").inc(total)
            m.counter("tree.cell_terms_total",
                      "cell (monopole) terms").inc(res.cell_terms)
            m.counter("tree.part_terms_total",
                      "direct particle terms").inc(res.part_terms)
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
        self.last_stats = TreeStats(
            algorithm=algorithm,
            n_particles=tree.n_particles,
            n_cells=tree.n_cells,
            depth=tree.depth,
            n_groups=n_sinks,
            mean_group_size=(groups.mean_size if groups is not None else 1.0),
            cell_terms=res.cell_terms,
            part_terms=res.part_terms,
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
