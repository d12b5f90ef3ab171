"""Step-schedule tests."""

import numpy as np
import pytest

from repro.cosmo.cosmology import SCDM
from repro.sim.timestep import paper_schedule


class TestPaperSchedule:
    def test_999_steps_span_z24_to_0(self):
        dts = paper_schedule(SCDM, 24.0, 0.0, 999)
        assert len(dts) == 999
        assert dts.sum() == pytest.approx(SCDM.age(0.0) - SCDM.age(24.0))

    def test_step_size_about_13_myr(self):
        """The paper's plan: ~13.0 Gyr / ~1000 steps ~ 13 Myr each."""
        from repro.cosmo.units import GYR_PER_TIME_UNIT
        dts = paper_schedule(SCDM, 24.0, 0.0, 999)
        myr = float(dts[0]) * GYR_PER_TIME_UNIT * 1000.0
        assert myr == pytest.approx(13.0, rel=0.05)

    def test_equal_steps(self):
        dts = paper_schedule(SCDM, 24.0, 0.0, 10)
        assert np.allclose(dts, dts[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            paper_schedule(SCDM, 24.0, 0.0, 0)
        with pytest.raises(ValueError):
            paper_schedule(SCDM, 0.0, 24.0, 10)


class TestScheduleSpacing:
    def test_loga_sums_to_span(self):
        dts = paper_schedule(SCDM, 24.0, 0.0, 40, spacing="loga")
        assert len(dts) == 40
        assert dts.sum() == pytest.approx(SCDM.age(0.0) - SCDM.age(24.0))

    def test_loga_early_steps_resolve_initial_expansion(self):
        """The whole point of log-a spacing: the first step is a small
        fraction of the initial age even with few total steps (the
        uniform-in-t plan's first step is ~4x the initial age at
        n=30, which blows up scaled collapse runs)."""
        t_i = SCDM.age(24.0)
        loga = paper_schedule(SCDM, 24.0, 0.0, 30, spacing="loga")
        uniform = paper_schedule(SCDM, 24.0, 0.0, 30, spacing="t")
        assert loga[0] < 0.5 * t_i
        assert uniform[0] > 2.0 * t_i

    def test_steps_increase_with_time(self):
        dts = paper_schedule(SCDM, 24.0, 0.0, 20, spacing="loga")
        assert np.all(np.diff(dts) > 0)

    def test_a_spacing(self):
        dts = paper_schedule(SCDM, 24.0, 0.0, 25, spacing="a")
        assert dts.sum() == pytest.approx(SCDM.age(0.0) - SCDM.age(24.0))
        assert dts[0] < dts[-1]

    def test_unknown_spacing(self):
        with pytest.raises(ValueError):
            paper_schedule(SCDM, 24.0, 0.0, 10, spacing="weird")
