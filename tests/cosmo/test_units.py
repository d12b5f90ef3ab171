"""Unit-system sanity: the constants our unit choices rest on."""

import pytest

from repro.cosmo.units import (G, GYR_PER_TIME_UNIT, RHO_CRIT_H100,
                               SEC_PER_TIME_UNIT, Units)


class TestConstants:
    def test_g_in_astronomer_units(self):
        # canonical value: 4.30e-9 Mpc (km/s)^2 / M_sun
        assert G == pytest.approx(4.301e-9, rel=1e-3)

    def test_time_unit_gyr(self):
        # Mpc / (km/s) ~ 977.8 Gyr
        assert GYR_PER_TIME_UNIT == pytest.approx(977.8, rel=1e-3)

    def test_rho_crit(self):
        # 2.775e11 M_sun/Mpc^3 for H0 = 100
        assert RHO_CRIT_H100 == pytest.approx(2.775e11, rel=1e-3)

    def test_seconds_per_time_unit(self):
        assert SEC_PER_TIME_UNIT == pytest.approx(3.086e19, rel=1e-3)


class TestUnits:
    def test_rho_crit_scales_h_squared(self):
        u = Units()
        assert u.rho_crit(50.0) == pytest.approx(RHO_CRIT_H100 / 4.0)

    def test_kepler_consistency(self):
        """A circular orbit at 1 Mpc around 1e12 M_sun: v = sqrt(GM/r)
        must come out in km/s (~65.6)."""
        v = (G * 1e12 / 1.0) ** 0.5
        assert v == pytest.approx(65.6, rel=1e-2)
