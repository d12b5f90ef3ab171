"""Host-machine model tests."""

import pytest

from repro.host.machine import ALPHASERVER_DS10, HostMachine


class TestHostMachine:
    def test_identity(self):
        assert "DS10" in ALPHASERVER_DS10.name
        assert ALPHASERVER_DS10.clock_hz == pytest.approx(466e6)
        assert ALPHASERVER_DS10.memory_bytes == 512 * 1024 * 1024

    def test_costs_scale_linearly(self):
        h = ALPHASERVER_DS10
        assert h.tree_build_time(2_000_000) == pytest.approx(
            2.0 * h.tree_build_time(1_000_000))
        assert h.traverse_time(10**7) == pytest.approx(
            10.0 * h.traverse_time(10**6))
        assert h.integrate_time(100) == pytest.approx(
            100 * h.t_integrate)

    def test_step_time_composition(self):
        h = HostMachine()
        n, groups, mll = 10_000, 20, 500.0
        t = h.step_time(n, groups, mll)
        parts = (h.tree_build_time(n) + h.traverse_time(int(groups * mll))
                 + h.integrate_time(n))
        assert t >= parts  # marshalling adds on top
        assert t < 2.0 * parts + 1.0

    def test_paper_scale_step_is_order_10s(self):
        """At the headline operating point the host share of a step
        must be O(10 s) -- about half the 30 s/step wall clock."""
        h = ALPHASERVER_DS10
        n = 2_159_038
        t = h.step_time(n, int(n / 2000), 13_431.0)
        assert 8.0 < t < 25.0
