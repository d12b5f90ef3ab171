"""Pairwise-kernel tests: closed forms, symmetry, tiling, backends."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (Float64Backend, pairwise_accpot,
                                self_potential_correction)


class TestClosedForms:
    def test_two_body_unsoftened(self):
        xi = np.array([[0.0, 0.0, 0.0]])
        xj = np.array([[2.0, 0.0, 0.0]])
        mj = np.array([3.0])
        acc, pot = pairwise_accpot(xi, xj, mj, eps=0.0)
        assert acc[0, 0] == pytest.approx(3.0 / 4.0)  # m/r^2 toward +x
        assert acc[0, 1] == acc[0, 2] == 0.0
        assert pot[0] == pytest.approx(-1.5)  # -m/r

    def test_two_body_softened(self):
        xi = np.zeros((1, 3))
        xj = np.array([[1.0, 0.0, 0.0]])
        mj = np.array([1.0])
        eps = 0.5
        acc, pot = pairwise_accpot(xi, xj, mj, eps=eps)
        r2 = 1.0 + eps**2
        assert acc[0, 0] == pytest.approx(1.0 / r2**1.5)
        assert pot[0] == pytest.approx(-1.0 / np.sqrt(r2))

    def test_coincident_source_no_force(self):
        xi = np.zeros((1, 3))
        acc, pot = pairwise_accpot(xi, np.zeros((1, 3)), np.ones(1), eps=0.1)
        assert np.allclose(acc, 0.0)
        assert pot[0] == pytest.approx(-1.0 / 0.1)

    def test_coincident_unsoftened_skipped(self):
        xi = np.zeros((1, 3))
        acc, pot = pairwise_accpot(xi, np.zeros((1, 3)), np.ones(1), eps=0.0)
        assert np.allclose(acc, 0.0)
        assert pot[0] == 0.0

    def test_superposition(self, rng):
        """Force from the union equals the sum of forces from parts."""
        xi = rng.standard_normal((5, 3))
        xj = rng.standard_normal((40, 3))
        mj = rng.uniform(0.5, 1.5, 40)
        a_all, p_all = pairwise_accpot(xi, xj, mj, 0.05)
        a1, p1 = pairwise_accpot(xi, xj[:17], mj[:17], 0.05)
        a2, p2 = pairwise_accpot(xi, xj[17:], mj[17:], 0.05)
        assert np.allclose(a_all, a1 + a2)
        assert np.allclose(p_all, p1 + p2)


class TestSymmetry:
    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.5))
    def test_newtons_third_law(self, seed, eps):
        """m_i a_ij = -m_j a_ji for every pair (hypothesis property)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3))
        if np.linalg.norm(x[0] - x[1]) < 1e-3:
            return
        m = rng.uniform(0.5, 2.0, 2)
        a01, _ = pairwise_accpot(x[:1], x[1:], m[1:], eps)
        a10, _ = pairwise_accpot(x[1:], x[:1], m[:1], eps)
        assert np.allclose(m[0] * a01[0], -m[1] * a10[0], rtol=1e-12)

    def test_total_momentum_rate_zero(self, rng):
        """Sum_i m_i a_i = 0 for a closed system."""
        pos = rng.standard_normal((64, 3))
        mass = rng.uniform(0.5, 1.5, 64)
        acc = np.zeros_like(pos)
        for i in range(64):
            others = np.arange(64) != i
            a, _ = pairwise_accpot(pos[i:i + 1], pos[others], mass[others],
                                   0.01)
            acc[i] = a[0]
        assert np.allclose((mass[:, None] * acc).sum(axis=0), 0.0,
                           atol=1e-10)


class TestTiling:
    def test_tile_size_invariance(self, rng):
        xi = rng.standard_normal((37, 3))
        xj = rng.standard_normal((211, 3))
        mj = rng.uniform(0.1, 1.0, 211)
        a_big, p_big = pairwise_accpot(xi, xj, mj, 0.01, tile=1 << 22)
        a_small, p_small = pairwise_accpot(xi, xj, mj, 0.01, tile=64)
        assert np.allclose(a_big, a_small, rtol=1e-13)
        assert np.allclose(p_big, p_small, rtol=1e-13)

    def test_empty_inputs(self):
        a, p = pairwise_accpot(np.zeros((0, 3)), np.zeros((5, 3)),
                               np.ones(5), 0.1)
        assert a.shape == (0, 3) and p.shape == (0,)
        a, p = pairwise_accpot(np.zeros((3, 3)), np.zeros((0, 3)),
                               np.ones(0), 0.1)
        assert np.allclose(a, 0.0) and np.allclose(p, 0.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pairwise_accpot(np.zeros((2, 2)), np.zeros((2, 3)), np.ones(2), 0)
        with pytest.raises(ValueError):
            pairwise_accpot(np.zeros((2, 3)), np.zeros((2, 2)), np.ones(2), 0)
        with pytest.raises(ValueError):
            pairwise_accpot(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3), 0)
        with pytest.raises(ValueError):
            pairwise_accpot(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(2),
                            eps=-0.1)


class TestSelfPotential:
    def test_correction_value(self):
        m = np.array([2.0, 4.0])
        corr = self_potential_correction(m, eps=0.5)
        assert np.allclose(corr, [4.0, 8.0])

    def test_zero_eps_correction_zero(self):
        assert np.allclose(self_potential_correction(np.ones(3), 0.0), 0.0)

    def test_correction_cancels_self_term(self, rng):
        pos = rng.standard_normal((10, 3))
        mass = rng.uniform(0.5, 1.0, 10)
        eps = 0.2
        # potential including self, then corrected
        _, pot = pairwise_accpot(pos, pos, mass, eps)
        pot_corr = pot + self_potential_correction(mass, eps)
        # reference: potential excluding self
        ref = np.zeros(10)
        for i in range(10):
            others = np.arange(10) != i
            _, p = pairwise_accpot(pos[i:i + 1], pos[others], mass[others],
                                   eps)
            ref[i] = p[0]
        assert np.allclose(pot_corr, ref, rtol=1e-12)


class TestFloat64Backend:
    def test_counts_interactions(self, rng):
        b = Float64Backend()
        b.kernel(rng.standard_normal((7, 3)), rng.standard_normal((11, 3)),
                 np.ones(11), 0.1)
        assert b.interactions == 0          # the kernel counts nothing
        b.charge(SimpleNamespace(sink_count=[7]), [11])
        assert b.interactions == 77
        b.charge(SimpleNamespace(sink_count=[2, 1]), [3, 6])
        assert b.interactions == 89
        b.reset_stats()
        assert b.interactions == 0

    def test_matches_plain_kernel(self, rng):
        xi = rng.standard_normal((9, 3))
        xj = rng.standard_normal((13, 3))
        mj = rng.uniform(0.1, 1.0, 13)
        a1, p1 = Float64Backend().kernel(xi, xj, mj, 0.05)
        a2, p2 = pairwise_accpot(xi, xj, mj, 0.05)
        assert np.array_equal(a1, a2) and np.array_equal(p1, p2)
