"""Operation-counting tests, anchored on the paper's section 5."""

import numpy as np
import pytest

from repro.core import TreeCode
from repro.perf.opcount import (OPS_PER_INTERACTION, flops, gflops,
                                original_interaction_count)
from repro.perf.report import HeadlineReport


class TestConventions:
    def test_38_ops(self):
        assert OPS_PER_INTERACTION == 38

    def test_flops(self):
        assert flops(10) == 380

    def test_gflops(self):
        assert gflops(1e9, 38.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            gflops(1.0, 0.0)

    def test_paper_raw_speed(self):
        """2.90e13 interactions in 30,141 s -> 36.4 Gflops (paper)."""
        assert gflops(2.90e13, 30_141.0) == pytest.approx(36.4, rel=5e-3)

    def test_paper_effective_speed(self):
        """4.69e12 interactions in 30,141 s -> 5.92 Gflops (paper)."""
        assert gflops(4.69e12, 30_141.0) == pytest.approx(5.92, rel=5e-3)


def _counts(modified, original, seconds=1.0):
    """A one-particle, one-step report of the two interaction counts."""
    return HeadlineReport(1, 1, modified, original, wall_seconds=seconds)


class TestOperationCounter:
    """Raw vs corrected operation accounting, as ``HeadlineReport``
    keeps it."""

    def test_paper_ratio(self):
        """Modified/original = 2.90e13/4.69e12 ~ 6.18."""
        assert _counts(2.90e13, 4.69e12).overhead_ratio == pytest.approx(
            6.18, abs=0.02)

    def test_speeds(self):
        c = _counts(2.90e13, 4.69e12, seconds=30_141.0)
        assert c.raw_gflops == pytest.approx(36.4, rel=5e-3)
        assert c.effective_gflops == pytest.approx(5.92, rel=5e-3)

    def test_validation(self):
        for modified, original in ((-1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError):
                _counts(modified, original)

    def test_zero_original_infinite_ratio(self):
        assert _counts(10.0, 0.0).overhead_ratio == np.inf


class TestOriginalCount:
    def test_matches_treecode_original(self, plummer_pos_mass):
        """The counting shortcut equals a full original-algorithm run."""
        pos, mass = plummer_pos_mass
        est = original_interaction_count(pos, mass, theta=0.75)
        tc = TreeCode(theta=0.75)
        tc.accelerations(pos, mass, 0.01, algorithm="original")
        assert est == tc.last_stats.total_interactions

    def test_sampling_close_to_full(self, clustered_2k):
        pos, mass = clustered_2k
        full = original_interaction_count(pos, mass, theta=0.75)
        sampled = original_interaction_count(
            pos, mass, theta=0.75, sample=500,
            rng=np.random.default_rng(7))
        assert sampled == pytest.approx(full, rel=0.15)

    def test_modified_exceeds_original(self, plummer_pos_mass):
        """The defining trade-off of Barnes' modification."""
        pos, mass = plummer_pos_mass
        orig = original_interaction_count(pos, mass, theta=0.75)
        tc = TreeCode(theta=0.75, n_crit=128)
        tc.accelerations(pos, mass, 0.01)
        assert tc.last_stats.total_interactions > orig
