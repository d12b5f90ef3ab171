"""Transient-error retry budgets in the GRAPE backend layers.

A flaky board drops a transfer; the host re-issues the call.  The
:class:`~repro.grape.system.GrapeBackend` adapter (site
``grape.compute``) holds a bounded retry budget and surfaces the retry
count; the computed forces are unaffected because the retried call is
identical.
"""

import numpy as np
import pytest

from repro.core.direct import direct_accelerations
from repro.faults import (FaultInjector, FaultPlan, FaultSpec,
                          TransientBackendError)
from repro.grape import GrapeBackend
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.chaos


@pytest.fixture
def cloud():
    rng = np.random.default_rng(7)
    return rng.normal(size=(64, 3)), np.full(64, 1.0 / 64)


def _injector(n_failures, site):
    plan = FaultPlan([FaultSpec("transient_error", site=site,
                                count=n_failures)])
    return FaultInjector(plan)


class TestGrapeBackendRetry:
    """Direct summation makes one ``force_call`` per tile (one here)
    and charges after the last, like a sweep."""

    def test_transient_errors_are_retried(self, cloud):
        pos, mass = cloud
        clean = direct_accelerations(pos, mass, 0.01,
                                     backend=GrapeBackend())
        be = GrapeBackend(fault_injector=_injector(2, "grape.compute"),
                          max_retries=2)
        reg = MetricsRegistry()
        be.bind_metrics(reg)
        acc, pot = direct_accelerations(pos, mass, 0.01, backend=be)
        assert np.array_equal(acc, clean[0])
        assert np.array_equal(pot, clean[1])
        assert be.transient_retries == 2
        assert reg.value("exec.fault.backend_retries") == 2

    def test_budget_exhaustion_raises(self, cloud):
        pos, mass = cloud
        be = GrapeBackend(fault_injector=_injector(99, "grape.compute"),
                          max_retries=2)
        with pytest.raises(TransientBackendError):
            direct_accelerations(pos, mass, 0.01, backend=be)
        assert be.transient_retries == 3  # initial try + 2 retries
        assert be.system.n_calls == 0     # a failed call is not charged

    def test_stats_not_double_counted_across_retries(self, cloud):
        """The injection site precedes the device call, so a retried
        call charges the timing model exactly once."""
        pos, mass = cloud
        be = GrapeBackend(fault_injector=_injector(1, "grape.compute"),
                          max_retries=2)
        direct_accelerations(pos, mass, 0.01, backend=be)
        ref = GrapeBackend()
        direct_accelerations(pos, mass, 0.01, backend=ref)
        assert be.transient_retries == 1
        assert be.system.n_calls == ref.system.n_calls == 1
        assert be.system.interactions == ref.system.interactions
        assert be.system.model_seconds == ref.system.model_seconds

    def test_site_counts_one_call_per_sweep(self):
        """The unit of ``call=`` at ``grape.compute`` is one backend
        force call, and a treecode sweep is one such call however many
        Barnes groups it holds -- so ``call=1`` hits the second force
        evaluation, not the second group of the first."""
        from repro.core import TreeCode
        rng = np.random.default_rng(11)
        pos = rng.normal(size=(400, 3))
        mass = np.full(400, 1.0 / 400)
        plan = FaultPlan([FaultSpec("transient_error", call=1, count=1,
                                    site="grape.compute")])
        be = GrapeBackend(fault_injector=FaultInjector(plan),
                          max_retries=2)
        tc = TreeCode(n_crit=16, backend=be)
        tc.accelerations(pos, mass, 0.01)
        assert tc.last_stats.n_groups > 2
        assert be.transient_retries == 0
        tc.accelerations(pos, mass, 0.01)
        assert be.transient_retries == 1
