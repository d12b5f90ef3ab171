"""Performance-model tests: the section-3 optimum and section-5 totals."""

import numpy as np
import pytest

from repro.perf.model import (FittedListLength, PAPER_LIST_LENGTH, PAPER_N,
                              PAPER_NG, PAPER_STEPS, PerformanceModel)


class TestFittedListLength:
    def test_fit_recovers_exact_form(self):
        truth = FittedListLength(c0=100.0, c1=1.5, c2=40.0)
        ng = np.array([50.0, 100, 300, 700, 1500, 3000])
        fit = FittedListLength.fit(ng, truth(ng))
        assert fit.c0 == pytest.approx(100.0, rel=1e-6)
        assert fit.c1 == pytest.approx(1.5, rel=1e-6)
        assert fit.c2 == pytest.approx(40.0, rel=1e-6)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            FittedListLength.fit([1.0, 2.0], [3.0, 4.0])

    def test_monotone_increasing(self):
        f = FittedListLength(c0=100.0, c1=1.0, c2=40.0)
        ng = np.geomspace(10, 10000, 50)
        assert np.all(np.diff(f(ng)) > 0)

    def test_anchoring_hits_target(self):
        f = FittedListLength(c0=100.0, c1=1.2, c2=40.0)
        anchored = f.anchored(PAPER_NG, PAPER_LIST_LENGTH)
        assert float(anchored(PAPER_NG)) == pytest.approx(PAPER_LIST_LENGTH)
        # the direct part is untouched
        assert anchored.c1 == f.c1

    def test_anchoring_rejects_degenerate(self):
        f = FittedListLength(c0=0.0, c1=1.0, c2=0.0)
        with pytest.raises(ValueError):
            f.anchored(100.0, 1000.0)


class TestPerformanceModel:
    @pytest.fixture
    def pm(self):
        return PerformanceModel()

    def test_default_anchored_to_paper(self, pm):
        assert float(pm.list_length(PAPER_NG)) == pytest.approx(
            PAPER_LIST_LENGTH, rel=1e-9)

    def test_host_time_decreases_with_ng(self, pm):
        """The modified algorithm's whole point: bigger groups, less
        host work (paper: 'reduces the calculation cost of the host
        computer by roughly a factor of n_g')."""
        assert (pm.host_step_time(PAPER_N, 4000)
                < pm.host_step_time(PAPER_N, 500))

    def test_grape_work_increases_with_ng(self, pm):
        """...while 'the amount of work on GRAPE-5 increases' --
        in interactions; time per step grows once lists lengthen."""
        l_small = float(pm.list_length(200)) * PAPER_N
        l_big = float(pm.list_length(5000)) * PAPER_N
        assert l_big > l_small

    def test_optimal_ng_in_paper_band(self, pm):
        """'For the present configuration, the optimal n_g is around
        2000': the modelled optimum must land in the same broad basin
        (a factor ~2), and n_g = 2000 must be within 10 % of optimal."""
        ng_opt, t_opt = pm.optimal_ng(PAPER_N)
        assert 700 <= ng_opt <= 4000
        assert pm.step_time(PAPER_N, PAPER_NG) < 1.10 * t_opt

    def test_optimum_total_time(self, pm):
        ng_opt, t_opt = pm.optimal_ng(PAPER_N)
        # the minimum is a true minimum of the scanned curve
        for ng in (ng_opt / 4, ng_opt * 4):
            assert pm.step_time(PAPER_N, ng) > t_opt

    def test_run_prediction_matches_paper_wall_clock(self, pm):
        """At the paper's operating point (N, 999 steps, n_g = 2000)
        the modelled run must land near the measured 30,141 s /
        8.37 h / 36.4 Gflops raw."""
        pred = pm.run_prediction()
        assert pred["total_seconds"] == pytest.approx(30_141.0, rel=5e-3)
        assert pred["total_hours"] == pytest.approx(8.37, rel=5e-3)
        assert pred["raw_gflops"] == pytest.approx(36.4, rel=5e-3)
        assert pred["total_interactions"] == pytest.approx(2.90e13,
                                                           rel=0.02)

    def test_optimum_moves_with_host_speed(self):
        """A faster host shifts the optimum to smaller groups -- the
        paper: 'the optimal n_g strongly depends on the ratio of the
        speed of the host computer and GRAPE'."""
        from repro.host.machine import HostMachine
        slow = PerformanceModel(host=HostMachine(t_tree_build=9e-6,
                                                 t_walk_term=1.5e-6))
        fast = PerformanceModel(host=HostMachine(t_tree_build=3e-7,
                                                 t_walk_term=5e-8))
        ng_slow, _ = slow.optimal_ng(PAPER_N)
        ng_fast, _ = fast.optimal_ng(PAPER_N)
        assert ng_fast < ng_slow
