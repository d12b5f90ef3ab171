"""The one GRAPE: system + timing-model geometry, and the backend adapter."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.kernels import pairwise_accpot
from repro.grape.system import Grape5System, GrapeBackend
from repro.grape.timing import GrapeTimingModel
from tests.conftest import uncut_sweep


class TestChip:
    """Chip-level figures, read off the only geometry there is."""

    def test_two_pipelines(self):
        assert GrapeTimingModel().pipes_per_chip == 2
        assert Grape5System().describe()["pipelines_per_chip"] == 2

    def test_peak(self):
        # 2 pipes x 90 MHz x 38 ops = 6.84 Gflops
        one_chip = GrapeTimingModel(n_boards=1, chips_per_board=1)
        assert one_chip.peak_flops == pytest.approx(6.84e9)
        assert Grape5System(timing=one_chip).peak_flops == pytest.approx(
            6.84e9)


class TestBoard:
    """One-board behaviour: a single-board system is the board."""

    @staticmethod
    def _board():
        s = Grape5System(timing=GrapeTimingModel(n_boards=1))
        s.set_range(-6, 6)  # must cover the data: out-of-range saturates
        return s

    def test_board_peak(self):
        # 8 chips x 6.84 = 54.72 Gflops
        assert self._board().peak_flops == pytest.approx(54.72e9)

    def test_load_and_compute(self, rng):
        b = self._board()
        xj = rng.standard_normal((100, 3))
        mj = rng.uniform(0.5, 1.0, 100)
        xi = rng.standard_normal((10, 3))
        # generous softening keeps any single near pair from dominating
        # the total force, so the summed error tracks the pairwise one
        a, p = b.compute(xi, xj, mj, 0.25)
        assert b.interactions == 1000
        r, q = pairwise_accpot(xi, xj, mj, 0.25)
        rel = np.linalg.norm(a - r, axis=1) / np.linalg.norm(r, axis=1)
        assert np.sqrt(np.mean(rel**2)) < 0.02

    def test_empty_board_zero_force(self):
        a, p = self._board().compute(np.zeros((3, 3)), np.zeros((0, 3)),
                                     np.zeros(0), 0.1)
        assert a.shape == (3, 3) and p.shape == (3,)
        assert np.allclose(a, 0) and np.allclose(p, 0)


#: the paper machine and three that are not it
GEOMETRIES = [
    GrapeTimingModel(),
    GrapeTimingModel(pipes_per_chip=4),
    GrapeTimingModel(chips_per_board=4),
    GrapeTimingModel(n_boards=3, pipeline_clock_hz=60.0e6),
]


class TestOneGeometry:
    """``GrapeTimingModel`` is the only description of the machine:
    whatever it says, the system reports."""

    @pytest.mark.parametrize("timing", GEOMETRIES)
    def test_system_reports_the_timing_models_machine(self, timing):
        s = Grape5System(timing=timing)
        assert s.n_pipelines == timing.n_pipelines
        assert s.peak_flops == timing.peak_flops
        d = s.describe()
        assert d["pipelines_total"] == (
            d["boards"] * d["chips_per_board"] * d["pipelines_per_chip"])
        assert d["pipelines_total"] == timing.n_pipelines
        assert d["i_particles_per_pass"] == (
            d["chips_per_board"] * d["pipelines_per_chip"]
            * d["virtual_multiplexing"])
        assert d["peak_Gflops"] == timing.peak_flops / 1e9
        assert d["pipeline_clock_MHz"] == timing.pipeline_clock_hz / 1e6


class TestOneCoordinateFormat:
    """After ``set_range`` the reference ``compute()`` and the compiled
    list walk quantise with one format object, the pipeline's."""

    @pytest.mark.parametrize("native", [True, False])
    def test_reannouncing_changes_both(self, rng, monkeypatch, native):
        from repro.core import TreeCode
        from repro.core.kernels import batch, cnative
        from repro.grape.pipeline import G5Pipeline
        if not native:  # what REPRO_KERNELS_NO_CNATIVE=1 does at load()
            monkeypatch.setattr(cnative, "load", lambda: None)
        walk, ref = [], []  # formats the list walk / the datapath read
        real_walk, real_ref = batch.g5_eval_lists, G5Pipeline.compute

        def spy_walk(*args, **kw):
            walk.append(kw["fixed"])
            return real_walk(*args, **kw)

        def spy_ref(self, *args):
            ref.append(self.coord_format)
            return real_ref(self, *args)

        monkeypatch.setattr(batch, "g5_eval_lists", spy_walk)
        monkeypatch.setattr(G5Pipeline, "compute", spy_ref)
        backend = GrapeBackend()
        tc = TreeCode(theta=0.75, n_crit=64, backend=backend)
        pos = rng.standard_normal((300, 3))
        mass = np.full(300, 1.0 / 300)
        formats = []
        for scale in (1.0, 3.0):  # each tree build announces its domain
            del walk[:], ref[:]
            # every shard of the sweep runs on this one system
            tc.accelerations(scale * pos, mass, 0.01)
            backend.kernel(scale * pos[:4], scale * pos, mass, 0.01)
            fmt = backend.system.pipeline.coord_format
            assert walk and ref
            assert all(f is fmt for f in walk + ref)
            # the announced window covers the tree's domain
            assert fmt.xmin <= scale * pos.min() < scale * pos.max() \
                <= fmt.xmax
            formats.append(fmt)
        assert formats[1] is not formats[0]
        assert formats[1].xmax > formats[0].xmax


class TestSystem:
    def test_paper_configuration(self):
        s = Grape5System()
        assert s.timing.n_boards == 2
        assert s.n_pipelines == 32
        assert s.peak_flops == pytest.approx(109.44e9)

    def test_describe_matches_paper(self):
        d = Grape5System().describe()
        assert d["boards"] == 2
        assert d["chips_per_board"] == 8
        assert d["pipelines_per_chip"] == 2
        assert d["pipelines_total"] == 32
        assert d["pipeline_clock_MHz"] == 90.0
        assert d["peak_Gflops"] == pytest.approx(109.44)
        # all twelve rows of `repro info`, in order
        assert list(d.values()) == [2, 8, 2, 32, 90.0, 15.0, 6, 96, 38,
                                    109.44, 3e-3, 262_144]

    def test_board_split_matches_single_board_sum(self, rng):
        """j split across boards + host sum == one-board computation."""
        xi = rng.standard_normal((8, 3))
        xj = rng.standard_normal((64, 3))
        mj = rng.uniform(0.5, 1.0, 64)
        s2 = Grape5System()
        s2.set_range(-3, 3)
        a2, p2 = s2.compute(xi, xj, mj, 0.05)
        s1 = Grape5System(timing=GrapeTimingModel(n_boards=1))
        s1.set_range(-3, 3)
        a1, p1 = s1.compute(xi, xj, mj, 0.05)
        assert np.allclose(a1, a2, rtol=1e-12)
        assert np.allclose(p1, p2, rtol=1e-12)

    def test_counters_accumulate(self, rng):
        s = Grape5System()
        s.set_range(-3, 3)
        s.compute(rng.standard_normal((5, 3)), rng.standard_normal((7, 3)),
                  np.ones(7), 0.1)
        assert s.n_calls == 1
        assert s.interactions == 35
        assert s.model_seconds > 0
        s.compute(rng.standard_normal((2, 3)), rng.standard_normal((3, 3)),
                  np.ones(3), 0.1)
        assert s.n_calls == 2
        assert s.interactions == 41
        s.reset_stats()
        assert s.n_calls == 0 and s.interactions == 0
        assert s.model_seconds == 0.0

    def test_auto_range_on_first_call(self, rng):
        """With no window announced a call is covered on its own, the
        first like every later one; ``set_range`` is the only writer."""
        s = Grape5System()
        assert s.pipeline.coord_format is None
        xi, xj = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        a, _ = s.compute(xi, xj, np.ones(4), 0.1)
        assert s.pipeline.coord_format is None
        r, _ = pairwise_accpot(xi, xj, np.ones(4), 0.1)
        assert np.allclose(a, r, rtol=0.02)
        s.set_range(-5, 5)
        fmt = s.pipeline.coord_format
        assert (fmt.xmin, fmt.xmax) == (-5.0, 5.0)

    def test_model_flops_below_peak(self, rng):
        s = Grape5System()
        s.set_range(-3, 3)
        s.compute(rng.standard_normal((200, 3)),
                  rng.standard_normal((5000, 3)), np.ones(5000), 0.1)
        assert 0 < s.model_flops < s.peak_flops

    def test_empty_call(self):
        s = Grape5System()
        a, p = s.compute(np.zeros((0, 3)), np.zeros((5, 3)), np.ones(5), 0.1)
        assert a.shape == (0, 3)
        assert s.n_calls == 0


class TestGrapeBackend:
    def test_forcebackend_interface(self, rng):
        b = GrapeBackend()
        xi = rng.standard_normal((6, 3))
        xj = rng.standard_normal((9, 3))
        a, p = b.kernel(xi, xj, np.ones(9), 0.1)
        assert a.shape == (6, 3) and p.shape == (6,)
        assert b.interactions == 0          # the kernel counts nothing
        b.charge(SimpleNamespace(sink_count=[6]), [9])
        assert b.interactions == 54
        assert b.model_seconds > 0
        b.reset_stats()
        assert b.interactions == 0

    def test_name(self):
        assert GrapeBackend().name == "grape5"


class TestJMemoryChunking:
    def test_oversized_jset_split_into_passes(self, rng):
        """A j-set beyond the particle memory is processed in
        sequential resident passes with identical results."""
        small = Grape5System(jmem_capacity=32)
        small.set_range(-4, 4)
        big = Grape5System()
        big.set_range(-4, 4)
        xi = rng.standard_normal((5, 3))
        xj = rng.standard_normal((200, 3))  # > 64 resident slots
        mj = rng.uniform(0.5, 1.0, 200)
        a1, p1 = small.compute(xi, xj, mj, 0.05)
        a2, p2 = big.compute(xi, xj, mj, 0.05)
        assert np.allclose(a1, a2, rtol=1e-12)
        assert np.allclose(p1, p2, rtol=1e-12)
        # the chunked system charged several calls
        assert small.n_calls == 4  # ceil(200/64)
        assert big.n_calls == 1
        assert small.interactions == big.interactions == 5 * 200

    def test_chunked_costs_more_model_time(self, rng):
        small = Grape5System(jmem_capacity=16)
        small.set_range(-4, 4)
        big = Grape5System()
        big.set_range(-4, 4)
        xi = rng.standard_normal((4, 3))
        xj = rng.standard_normal((320, 3))
        mj = np.ones(320)
        small.compute(xi, xj, mj, 0.05)
        big.compute(xi, xj, mj, 0.05)
        # per-pass latency makes many small calls slower
        assert small.model_seconds > big.model_seconds


class TestCallRecording:
    def test_histograms_record_shapes(self, rng):
        """Each priced call's (n_i, n_j) shape reaches the
        ``grape.call_ni`` / ``grape.call_nj`` histograms: the raw
        material for checking the timing model against a run's
        call-size distribution."""
        from repro.obs import MetricsRegistry
        reg = MetricsRegistry()
        s = Grape5System(metrics=reg)
        s.set_range(-3, 3)
        s.compute(rng.standard_normal((5, 3)), rng.standard_normal((7, 3)),
                  np.ones(7), 0.1)
        s.compute(rng.standard_normal((2, 3)), rng.standard_normal((9, 3)),
                  np.ones(9), 0.1)
        for name, shape in (("grape.call_ni", (5, 2)),
                            ("grape.call_nj", (7, 9))):
            h = reg.get(name)
            assert (h.count, h.total, h.vmin, h.vmax) == (
                2, sum(shape), min(shape), max(shape))


class TestOneChargeSite:
    """The reference loop, one uncut ``eval_lists`` call and a sharded
    sweep of the same force calls are charged the same per-sink arrays
    by the same code (``Grape5System._record`` behind
    ``charge_batch``), so the counters and the ``grape.*`` metrics do
    not depend on the route, to the last bit."""

    @staticmethod
    def _sweep(pos, mass, *, dense=False, engine=None):
        from repro.core import TreeCode
        from repro.core.kernels import ForceBackend
        from repro.obs import MetricsRegistry

        class Dense(GrapeBackend):
            # one kernel() per sink: the base-class reference loop
            eval_lists = ForceBackend.eval_lists

        reg = MetricsRegistry()
        backend = (Dense if dense else GrapeBackend)().bind_metrics(reg)
        tc = TreeCode(theta=0.75, n_crit=64, backend=backend, engine=engine)
        tc.accelerations(pos, mass, 0.01)
        return backend.system, reg, tc

    def test_three_routes_charge_alike(self, rng):
        from repro.exec import PipelineEngine
        from repro.obs import MetricsRegistry
        pos = rng.standard_normal((600, 3))
        mass = np.full(600, 1.0 / 600)
        dense_sys, dense_reg, _ = self._sweep(pos, mass, dense=True)
        with PipelineEngine(workers=2) as engine:
            pipe_sys, pipe_reg, tc = self._sweep(pos, mass, engine=engine)
        lists_reg = MetricsRegistry()
        lists_sys = Grape5System(metrics=lists_reg)
        uncut_sweep(tc, GrapeBackend(system=lists_sys), 0.01)

        assert lists_sys.n_calls > 1
        for system in (dense_sys, pipe_sys):
            assert system.n_calls == lists_sys.n_calls
            assert system.interactions == lists_sys.interactions
            assert system.model_seconds == lists_sys.model_seconds
        for system, reg in ((lists_sys, lists_reg), (dense_sys, dense_reg),
                            (pipe_sys, pipe_reg)):
            assert reg.value("grape.force_calls") == system.n_calls
            assert reg.value("grape.interactions_total") \
                == system.interactions
            assert reg.value("grape.model_seconds") == system.model_seconds
        # per-call shapes reach the histograms on every route
        for reg in (lists_reg, dense_reg, pipe_reg):
            assert reg.get("grape.call_ni").count == lists_sys.n_calls
            assert reg.value("grape.call_nj") == lists_reg.value(
                "grape.call_nj")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_engine_matches_serial_on_a_small_memory_system(self, rng,
                                                            workers):
        """A system that must multi-pass is priced the same sharded as
        in one uncut call."""
        from repro.core import TreeCode
        from repro.exec import PipelineEngine
        pos = rng.standard_normal((600, 3))
        mass = np.full(600, 1.0 / 600)

        def small():
            return GrapeBackend(system=Grape5System(jmem_capacity=32))

        backend = small()
        with PipelineEngine(workers=workers) as engine:
            tc = TreeCode(theta=0.75, n_crit=64, backend=backend,
                          engine=engine)
            a1, p1 = tc.accelerations(pos, mass, 0.01)
        uncut, piped = small(), backend.system
        a0, p0 = uncut_sweep(tc, uncut, 0.01)
        serial = uncut.system
        assert serial.n_calls > 64  # lists over 2 x 32 slots: multi-pass
        assert piped.n_calls == serial.n_calls
        assert piped.interactions == serial.interactions
        assert piped.model_seconds == serial.model_seconds
        assert np.array_equal(a0, a1) and np.array_equal(p0, p1)

    def test_each_metric_is_registered_once(self):
        import re
        from pathlib import Path
        import repro
        src = "".join(p.read_text()
                      for p in Path(repro.__file__).parent.rglob("*.py"))
        sites = re.findall(r'(?:counter|histogram)\(\s*"(grape\.\w+)"', src)
        assert sorted(sites) == ["grape.call_ni", "grape.call_nj",
                                 "grape.force_calls",
                                 "grape.interactions_total",
                                 "grape.model_seconds"]
