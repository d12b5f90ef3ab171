"""The two force workloads: the same treecode step driven at two
operating points that stress opposite layers.

``force_paper_ng`` -- few fat sinks on the emulated G5 datapath, so list
evaluation is nearly the whole step and tree work predicts no change.
``force_small_groups`` -- thousands of small sinks on the host float64
backend, so the tree walk dominates and the GRAPE emulator is bypassed.
"""

from __future__ import annotations

import gc
import shutil
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cosmo import SCDM
from repro.sim import Simulation
from repro.sim.recipes import carve_run_region, run_schedule

from spine_config import FIXED_CONFIG, build_solver, scratch_dir
from spine_spans import SpanRecorder, median, probe, span, timed
from spine_workload import Workload


class ForceProbe:
    """The force solver a ``Simulation`` is handed: forwards to the
    real ``TreeCode`` and keeps, from outside, each call's wall time and
    the first call's result (the initial force, for the error check)."""

    def __init__(self, treecode: Any) -> None:
        self.treecode = treecode
        self.rec: Optional[SpanRecorder] = None
        self.walls: List[float] = []
        self.first: Optional[tuple] = None

    def accelerations(self, pos, mass, eps=0.0):
        with span(self.rec, "core.accelerations"):
            wall, out = timed(self.treecode.accelerations, pos, mass, eps)
        self.walls.append(wall)
        if self.first is None:
            self.first = (np.array(pos), np.array(mass), float(eps),
                          np.array(out[0]))
        return out

    @property
    def last_stats(self):
        return self.treecode.last_stats

    def close(self) -> None:
        self.treecode.close()


def rel_err_rms(pos, mass, eps, acc, idx) -> float:
    """rms relative acceleration error on particles ``idx`` against a
    float64 direct sum over the full system."""
    from repro.core.kernels import pairwise_accpot
    ref, _ = pairwise_accpot(pos[idx], pos, mass, eps)
    num = np.einsum("ij,ij->i", acc[idx] - ref, acc[idx] - ref)
    den = np.einsum("ij,ij->i", ref, ref)
    return float(np.sqrt(np.mean(num / den)))


class ForceWorkload(Workload):
    """One force workload; ``sizes`` fixes N, n_crit and the backend.
    A unit is one ``Simulation.step``."""

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        super().__init__(name, sizes, seed)
        self.region = None
        self.other_region = None      # an independently generated copy
        self.ic_walls: List[float] = []
        self.sim: Optional[Simulation] = None
        self.force: Optional[ForceProbe] = None
        self.backend = None
        self.schedule = run_schedule(z_init=FIXED_CONFIG["z_init"],
                                     z_final=0.0, steps=999)
        self.model_seconds_at_min: Optional[float] = None
        self._error: Optional[float] = None

    # -- set-up --------------------------------------------------------
    def _build(self, region) -> tuple:
        tc, gb = build_solver(ncrit=self.sizes["ncrit"],
                              backend=self.sizes["backend"])
        force = ForceProbe(tc)
        sim = Simulation.from_sphere(region, force=force)
        sim.t = SCDM.age(FIXED_CONFIG["z_init"])
        return sim, force, gb

    def setup(self, rec: Optional[SpanRecorder]) -> None:
        """Generate the inputs from the seed and build the solver."""
        self.teardown()
        with span(rec, "cosmo.ic"):
            wall, region = timed(carve_run_region,
                                 ngrid=self.sizes["ngrid"], seed=self.seed,
                                 z_init=FIXED_CONFIG["z_init"])
        self.ic_walls.append(wall)
        self.other_region, self.region = self.region, region
        self.sim, self.force, self.backend = self._build(region)

    def teardown(self) -> None:
        if self.sim is not None:
            self.sim.close()
        self.sim = self.force = self.backend = None
        # a Simulation and its integrator refer to each other: without a
        # collection the repeated set-ups pile up in ``peak_rss_mb``
        gc.collect()

    # -- the measured region -------------------------------------------
    def measure(self, seconds: float, rec: Optional[SpanRecorder]) -> None:
        """Step until ``seconds`` of step time are sampled.  The first
        ``Simulation.step`` also makes the initial force call; that
        call's wall time is taken off the first sample."""
        self.force.rec = rec
        begin, spent = len(self.units), 0.0
        before = self.calibrate()
        while True:
            i = len(self.units)
            with span(rec, "sim.step", unit=i):
                record = self.sim.step(self.schedule[i])
            wall = record.wall_seconds
            if i == 0:
                wall -= self.force.walls[0]
            after = self.calibrate()
            self.record({"wall": wall, "ok": True, "traced": rec is not None,
                         "interactions": record.interactions}, before, after)
            before = after
            spent += wall
            if (len(self.units) == self.sizes["min_units"]
                    and self.backend is not None):
                self.model_seconds_at_min = self.backend.model_seconds
            if ((len(self.units) - begin >= self.sizes["min_units"]
                 and spent >= seconds) or i + 2 > len(self.schedule)):
                break
        self.force.rec = None

    # -- correctness ---------------------------------------------------
    def force_error(self) -> float:
        if self._error is None:
            pos, mass, eps, acc = self.force.first
            rng = np.random.default_rng(self.seed)
            idx = rng.choice(pos.shape[0],
                             size=min(FIXED_CONFIG["error_sample"],
                                      pos.shape[0]), replace=False)
            self._error = rel_err_rms(pos, mass, eps, acc, np.sort(idx))
        return self._error

    def exact(self) -> Dict[str, Any]:
        k = self.sizes["min_units"]
        return {"interactions": [u["interactions"] for u in self.units[:k]],
                "grape_model_seconds": self.model_seconds_at_min,
                "force_rel_err_rms": self.force_error()}

    def check(self) -> List[str]:
        bad = []
        err = self.force_error()
        if not err < self.sizes["err_ceiling"]:
            bad.append(f"force_rel_err_rms {err:.3e} is not under the "
                       f"ceiling {self.sizes['err_ceiling']}")
        if any(u["interactions"] <= 0 for u in self.units):
            bad.append("a step recorded no interactions")
        if self.sizes["backend"] == "host" and self.other_region is not None:
            # an independent second Simulation from the same seed must
            # reproduce the first step's interaction count exactly
            sim, _, _ = self._build(self.other_region)
            try:
                again = sim.step(self.schedule[0])
            finally:
                sim.close()
            if again.interactions != self.units[0]["interactions"]:
                bad.append(
                    f"first-step interactions differ between two "
                    f"simulations of seed {self.seed}: "
                    f"{self.units[0]['interactions']} vs "
                    f"{again.interactions}")
        return bad

    # -- per-layer probes (traced run) ---------------------------------
    def layers(self, rec: SpanRecorder) -> Dict[str, float]:
        from repro.core.groups import make_groups
        from repro.core.kernels import Float64Backend
        from repro.core.mac import BarnesHutMAC
        from repro.core.morton import bounding_cube, morton_keys
        from repro.core.multipole import compute_moments
        from repro.core.octree import build_octree
        from repro.core.traversal import build_interaction_lists
        from repro.grape import GrapeBackend
        from repro.sim.checkpoint import load_checkpoint, save_checkpoint

        pos, mass, eps, _ = self.force.first
        mac = BarnesHutMAC(theta=FIXED_CONFIG["theta"])
        out: Dict[str, float] = {}

        def keys():
            corner, size = bounding_cube(pos)
            return morton_keys(pos, corner, size)

        out["core.morton_s"], _ = probe(rec, "core.morton", keys)
        build_s, tree = probe(rec, "core.tree_build",
                              lambda: build_octree(pos, mass, leaf_size=8))
        # build_octree computes the Morton keys itself: report its self
        out["core.tree_build_s"] = max(0.0, build_s - out["core.morton_s"])
        out["core.moments_s"], _ = probe(
            rec, "core.moments", lambda: compute_moments(tree))
        out["core.group_s"], groups = probe(
            rec, "core.group",
            lambda: make_groups(tree, self.sizes["ncrit"]))
        out["core.traverse_s"], lists = probe(
            rec, "core.traverse",
            lambda: build_interaction_lists(tree, groups.center,
                                            groups.radius, mac))

        sub = np.sort(np.random.default_rng(self.seed).choice(
            pos.shape[0], size=min(8192, pos.shape[0]), replace=False))
        subtree = compute_moments(build_octree(pos[sub], mass[sub],
                                               leaf_size=8))
        out["core.traverse_original_s"], _ = probe(
            rec, "core.traverse_original",
            lambda: build_interaction_lists(
                subtree, subtree.pos_sorted,
                np.zeros(subtree.n_particles), mac))

        lengths = lists.list_lengths
        inter = int(np.sum(lengths * groups.count))
        out["core.n_cells"] = tree.n_cells
        out["core.n_groups"] = groups.n_groups
        out["core.list_len_mean"] = inter / tree.n_particles
        out["core.cell_terms"] = int(lists.cell_off[-1])
        out["core.part_terms"] = int(lists.part_off[-1])
        out["core.interactions"] = inter
        out["core.force_rel_err_rms"] = self.force_error()
        out["core.accelerations_s"] = median(
            rec.durations("core.accelerations"))

        acc = np.empty((tree.n_particles, 3))
        pot = np.empty(tree.n_particles)
        args = (tree.pos_sorted, tree.mass_sorted, tree.com, tree.mass,
                lists, groups.start, groups.count, eps, acc, pot)
        out["kernels.eval_lists_s"], _ = probe(
            rec, "kernels.eval_lists",
            lambda: Float64Backend().eval_lists(*args))
        gb = GrapeBackend()
        gb.set_domain(float(np.min(tree.corner)),
                      float(np.max(tree.corner + tree.size)))

        def grape_eval():
            gb.reset_stats()
            gb.eval_lists(*args)

        out["grape.eval_lists_s"], _ = probe(rec, "grape.eval_lists",
                                             grape_eval)
        # ratio base: the float64 evaluation of the same lists
        out["grape.emulation_overhead_ratio"] = (
            out["grape.eval_lists_s"] / out["kernels.eval_lists_s"])
        # what one force call spends outside the layers above: the
        # scatter back to input order and the statistics
        on_path = ("grape.eval_lists_s" if self.sizes["backend"] == "grape"
                   else "kernels.eval_lists_s")
        out["core.residual_s"] = max(0.0, out["core.accelerations_s"] - sum(
            out[k] for k in ("core.morton_s", "core.tree_build_s",
                             "core.moments_s", "core.group_s",
                             "core.traverse_s", on_path)))
        out["grape.model_seconds"] = gb.model_seconds
        out["grape.interactions"] = gb.interactions
        out["grape.model_gflops"] = gb.system.model_flops / 1e9

        # self time of the step spans = the integrator around the force
        out["sim.integrator_s"] = median(rec.self_by_name("sim.step"))
        tmp = scratch_dir("spine-ckpt-")
        try:
            out["sim.checkpoint_write_s"], path = probe(
                rec, "sim.checkpoint_write",
                lambda: save_checkpoint(tmp / "final.npz", self.sim))
            out["sim.checkpoint_bytes"] = path.stat().st_size
            out["sim.checkpoint_read_s"], _ = probe(
                rec, "sim.checkpoint_read",
                lambda: load_checkpoint(path))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        out["cosmo.ic_s"] = median(self.ic_walls)
        if self.sizes["backend"] == "host":
            out.update(self._advisory(rec, pos, mass, eps))
        return out

    def _advisory(self, rec: SpanRecorder, pos, mass, eps
                  ) -> Dict[str, float]:
        """Pipeline-engine and 2-host cluster sweeps of this snapshot on
        the GRAPE backend.  No end-to-end workload takes these paths;
        the numbers exist so shm/queue and LET work has a reading."""
        from repro.cluster import ClusterSpec
        from repro.exec import PipelineEngine
        from repro.grape import GrapeBackend

        common = dict(ncrit=self.sizes["ncrit"], backend="grape")
        out: Dict[str, float] = {}
        tc, _ = build_solver(**common)
        serial_s, _ = probe(rec, "exec.serial_step",
                            lambda: tc.accelerations(pos, mass, eps))
        engine = PipelineEngine(workers=FIXED_CONFIG["pipeline_workers"])
        try:
            with span(rec, "exec.prewarm"):
                out["exec.prewarm_s"], _ = timed(engine.prewarm,
                                                 GrapeBackend())
            tc, _ = build_solver(engine=engine, **common)
            out["exec.pipeline_step_s"], _ = probe(
                rec, "exec.pipeline_step",
                lambda: tc.accelerations(pos, mass, eps))
        finally:
            engine.close()
        # ratio base: the serial-engine step on the same snapshot
        out["exec.pipeline_speedup"] = serial_s / out["exec.pipeline_step_s"]

        tc, cluster = build_solver(cluster=ClusterSpec(hosts=2), **common)
        try:
            with span(rec, "cluster.k2_step"):
                out["cluster.k2_step_s"], _ = timed(tc.accelerations, pos,
                                                    mass, eps)
            summary = cluster.summary()
        finally:
            tc.close()
        out["cluster.k2_let_bytes"] = summary["let_exchange_bytes"]
        out["cluster.k2_predicted_s"] = summary["predicted_seconds"]
        return out
