"""Direct-summation baseline tests."""

import numpy as np
import pytest

from repro.core.direct import DirectSummation, direct_accelerations
from repro.core.kernels import pairwise_accpot


class TestDirectAccelerations:
    def test_matches_naive_loop(self, rng):
        pos = rng.standard_normal((30, 3))
        mass = rng.uniform(0.5, 1.5, 30)
        eps = 0.05
        acc, pot = direct_accelerations(pos, mass, eps)
        for i in range(30):
            others = np.arange(30) != i
            a, p = pairwise_accpot(pos[i:i + 1], pos[others], mass[others],
                                   eps)
            assert np.allclose(acc[i], a[0], rtol=1e-12)
            assert pot[i] == pytest.approx(p[0], rel=1e-12)

    def test_two_body_analytic(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        mass = np.array([2.0, 3.0])
        acc, pot = direct_accelerations(pos, mass, 0.0)
        assert acc[0, 0] == pytest.approx(3.0)
        assert acc[1, 0] == pytest.approx(-2.0)
        assert pot[0] == pytest.approx(-3.0)
        assert pot[1] == pytest.approx(-2.0)

    def test_momentum_conservation(self, rng):
        pos = rng.standard_normal((100, 3))
        mass = rng.uniform(0.1, 2.0, 100)
        acc, _ = direct_accelerations(pos, mass, 0.02)
        assert np.allclose((mass[:, None] * acc).sum(axis=0), 0.0,
                           atol=1e-9)

    def test_energy_pairwise_identity(self, rng):
        """Sum_i m_i phi_i = 2 * Sum_{i<j} pair energy."""
        pos = rng.standard_normal((20, 3))
        mass = rng.uniform(0.5, 1.0, 20)
        eps = 0.1
        _, pot = direct_accelerations(pos, mass, eps)
        w = 0.0
        for i in range(20):
            for j in range(i + 1, 20):
                r2 = np.sum((pos[i] - pos[j]) ** 2) + eps**2
                w -= mass[i] * mass[j] / np.sqrt(r2)
        assert 0.5 * np.sum(mass * pot) == pytest.approx(w, rel=1e-12)

    def test_tile_invariance(self, rng):
        pos = rng.standard_normal((73, 3))
        mass = rng.uniform(0.1, 1.0, 73)
        a1, p1 = direct_accelerations(pos, mass, 0.01, tile=1 << 22)
        a2, p2 = direct_accelerations(pos, mass, 0.01, tile=128)
        assert np.allclose(a1, a2, rtol=1e-13)
        assert np.allclose(p1, p2, rtol=1e-13)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            direct_accelerations(np.zeros((3, 2)), np.ones(3), 0.1)
        with pytest.raises(ValueError):
            direct_accelerations(np.zeros((3, 3)), np.ones(4), 0.1)


    def test_one_grape_backend_two_extents(self, rng):
        """Direct summation never announces a coordinate window, so the
        emulator covers each call on its own: a second, ten times
        larger system on the same backend is as accurate as the first
        (a first-call-forever window saturated it to ~1000 % error)."""
        from repro.grape import GrapeBackend
        pos = rng.standard_normal((300, 3))
        mass = np.full(300, 1.0 / 300)
        backend = GrapeBackend()
        for scale in (1.0, 10.0):
            a, _ = direct_accelerations(scale * pos, mass, 0.05 * scale,
                                        backend=backend)
            r, _ = direct_accelerations(scale * pos, mass, 0.05 * scale)
            err = np.linalg.norm(a - r, axis=1) / np.linalg.norm(r, axis=1)
            assert np.sqrt(np.mean(err**2)) < 3e-3
        assert backend.system.pipeline.coord_format is None


class TestDirectSummation:
    def test_interface_matches_function(self, rng):
        pos = rng.standard_normal((40, 3))
        mass = rng.uniform(0.5, 1.0, 40)
        ds = DirectSummation()
        a1, p1 = ds.accelerations(pos, mass, 0.05)
        a2, p2 = direct_accelerations(pos, mass, 0.05)
        assert np.array_equal(a1, a2) and np.array_equal(p1, p2)

    def test_stats_record_n_squared(self, rng):
        ds = DirectSummation()
        ds.accelerations(rng.standard_normal((17, 3)), np.ones(17), 0.1)
        assert ds.last_stats["interactions"] == 17 * 17
        assert ds.last_stats["algorithm"] == "direct"

    def test_grape_backend_pluggable(self, rng):
        from repro.grape import GrapeBackend
        pos = rng.standard_normal((50, 3))
        mass = np.full(50, 1.0 / 50)
        ds = DirectSummation(backend=GrapeBackend())
        a_g, _ = ds.accelerations(pos, mass, 0.05)
        a_r, _ = direct_accelerations(pos, mass, 0.05)
        err = (np.linalg.norm(a_g - a_r, axis=1)
               / np.linalg.norm(a_r, axis=1))
        assert np.sqrt(np.mean(err**2)) < 0.02  # reduced precision, close
        assert ds.backend.model_seconds > 0.0
