"""Cross-checks of every number the paper states, computed from our
models -- the reproduction's 'do the published figures cohere' audit.

Each test quotes the paper line it verifies.
"""

import numpy as np
import pytest

from repro.grape import Grape5System, GrapeTimingModel, OPS_PER_INTERACTION
from repro.host.cost import PAPER_SYSTEM_COST
from repro.perf.model import PerformanceModel
from repro.perf.report import PAPER_HEADLINE


class TestSection2:
    def test_peak_composition(self):
        """'theoretical peak speed ... 109.44 Gflops. Total number of
        pipeline processors is 32. Each processor pipeline operates 38
        operations in a clock cycle' [at 90 MHz]."""
        assert 32 * 90e6 * 38 == pytest.approx(109.44e9)
        assert Grape5System().peak_flops == pytest.approx(109.44e9)

    def test_system_composition(self):
        """'2 processor boards ... 8 processor chips ... 2 pipelines'."""
        d = Grape5System().describe()
        assert d["boards"] == 2
        assert d["chips_per_board"] == 8
        assert d["pipelines_per_chip"] == 2
        assert Grape5System().n_pipelines == 2 * 8 * 2 == 32


class TestSection4:
    def test_cost_breakdown(self):
        """'1.65 M JYE per board ... 1.4 M JYE ... host ... total
        ... 4.7 M JYE ... about 40,900 dollars' at 115 JYE/$."""
        assert PAPER_SYSTEM_COST.total_jpy == pytest.approx(
            2 * 1.65e6 + 1.4e6)
        assert PAPER_SYSTEM_COST.total_jpy == pytest.approx(4.7e6)
        assert PAPER_SYSTEM_COST.total_usd == pytest.approx(40_900,
                                                            rel=2e-3)


class TestSection5:
    def test_interactions_imply_list_length(self):
        """'total number of the particle-particle interactions is
        2.90e13. This implies that the average length of the
        interaction list is 13,431' (over N = 2,159,038 and 999
        steps)."""
        implied = 2.90e13 / (2_159_038 * 999)
        assert implied == pytest.approx(13_431, rel=2e-3)

    def test_raw_speed(self):
        """'30,141 seconds (8.37 hours) ... average computing speed of
        36.4 Gflops. Here we use the operation count of 38 per
        interaction.'"""
        assert 30_141 / 3600 == pytest.approx(8.37, abs=5e-3)
        raw = OPS_PER_INTERACTION * 2.90e13 / 30_141 / 1e9
        assert raw == pytest.approx(36.4, rel=5e-3)

    def test_effective_speed_and_price(self):
        """'estimated number of the interaction is 4.69e12. The
        effective sustained speed is 5.92 Gflops and the
        price/performance is $7.0/Mflops.'"""
        eff = OPS_PER_INTERACTION * 4.69e12 / 30_141 / 1e9
        assert eff == pytest.approx(5.92, rel=5e-3)
        price = PAPER_SYSTEM_COST.total_usd / (eff * 1e3)
        assert price == pytest.approx(7.0, abs=0.15)

    def test_particle_represents_17e9_solar_masses(self):
        """'A particle represents 1.7e10 solar masses' -- implied by
        SCDM mean density over the 50 Mpc sphere."""
        from repro.cosmo import SCDM
        rho = SCDM.mean_matter_density()
        m = rho * 4.0 / 3.0 * np.pi * 50.0**3 / 2_159_038
        assert m == pytest.approx(1.7e10, rel=0.02)

    def test_headline_object_reproduces_everything(self):
        r = PAPER_HEADLINE
        assert r.mean_list_length == pytest.approx(13_431, rel=2e-3)
        assert r.raw_gflops == pytest.approx(36.4, rel=5e-3)
        assert r.effective_gflops == pytest.approx(5.92, rel=5e-3)
        assert round(r.price_per_mflops) == 7


class TestModelReproducesRun:
    def test_wall_clock_prediction(self):
        """Our host+GRAPE model, evaluated at the paper's operating
        point, must land on the measured wall clock within 10 %."""
        pred = PerformanceModel().run_prediction()
        assert pred["total_seconds"] == pytest.approx(30_141, rel=0.10)

    def test_grape_time_is_large_minority_share(self):
        """The balance the paper engineered: GRAPE does the O(N log N)
        flops in a minority of the wall clock, host ops dominate
        slightly -- both shares must be O(10 s) per step."""
        pm = PerformanceModel()
        th = pm.host_step_time(2_159_038, 2000.0)
        tg = pm.grape_step_time(2_159_038, 2000.0)
        assert 5.0 < tg < 25.0
        assert 5.0 < th < 25.0
