"""libg5-style API tests: protocol order, results, error handling."""

import numpy as np
import pytest

from repro.core.kernels import pairwise_accpot
from repro.grape.api import G5Context, G5Error
from repro.grape.system import Grape5System
from repro.grape.timing import GrapeTimingModel


@pytest.fixture
def g5():
    """A closed context; whatever the test leaves open is closed."""
    ctx = G5Context()
    yield ctx
    if ctx.system is not None:
        ctx.close()


def _full_sequence(g5, rng, n_i=16, n_j=64):
    xj = rng.standard_normal((n_j, 3))
    mj = rng.uniform(0.5, 1.0, n_j)
    xi = rng.standard_normal((n_i, 3))
    g5.open()
    g5.set_range(-4.0, 4.0)
    g5.set_eps_to_all(0.05)
    g5.set_xmj(0, n_j, xj, mj)
    g5.set_xi(n_i, xi)
    g5.run()
    acc, pot = g5.get_force(n_i)
    g5.close()
    return xi, xj, mj, acc, pot


def test_module_level_shims_are_gone():
    """One handle API: there is no default context behind ``g5_*``
    module functions any more."""
    from repro.grape import api
    assert api.__all__ == ["G5Error", "G5Context"]
    with pytest.raises(ImportError):
        from repro.grape.api import g5_open  # noqa: F401


class TestProtocol:
    def test_canonical_sequence(self, g5, rng):
        xi, xj, mj, acc, pot = _full_sequence(g5, rng)
        ref_a, ref_p = pairwise_accpot(xi, xj, mj, 0.05)
        rel = np.linalg.norm(acc - ref_a, axis=1) / np.linalg.norm(ref_a,
                                                                   axis=1)
        assert np.max(rel) < 0.05

    def test_double_open_rejected(self, g5):
        g5.open()
        with pytest.raises(G5Error):
            g5.open()

    def test_calls_require_open(self, g5):
        with pytest.raises(G5Error):
            g5.set_range(0, 1)
        with pytest.raises(G5Error):
            g5.run()
        with pytest.raises(G5Error):
            g5.close()

    def test_run_requires_xi(self, g5, rng):
        g5.open()
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        with pytest.raises(G5Error):
            g5.run()

    def test_run_requires_j(self, g5, rng):
        g5.open()
        g5.set_xi(4, rng.standard_normal((4, 3)))
        with pytest.raises(G5Error):
            g5.run()

    def test_get_force_requires_run(self, g5, rng):
        g5.open()
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        g5.set_xi(4, rng.standard_normal((4, 3)))
        with pytest.raises(G5Error):
            g5.get_force(4)

    def test_get_more_forces_than_computed(self, g5, rng):
        g5.open()
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        g5.set_xi(2, rng.standard_normal((2, 3)))
        g5.run()
        with pytest.raises(G5Error):
            g5.get_force(3)

    def test_negative_eps_rejected(self, g5):
        g5.open()
        with pytest.raises(G5Error):
            g5.set_eps_to_all(-0.1)

    def test_bad_shapes_rejected(self, g5, rng):
        g5.open()
        with pytest.raises(G5Error):
            g5.set_xmj(0, 4, rng.standard_normal((5, 3)), np.ones(4))
        with pytest.raises(G5Error):
            g5.set_xi(4, rng.standard_normal((4, 2)))

    def test_memory_bounds(self, g5, rng):
        g5.open()
        cap = g5.xj.shape[0]
        with pytest.raises(G5Error):
            g5.set_n(cap + 1)
        with pytest.raises(G5Error):
            g5.set_xmj(cap - 1, 2, rng.standard_normal((2, 3)),
                       np.ones(2))


class TestBehaviour:
    def test_partial_j_update(self, g5, rng):
        """Address-offset writes compose, like the hardware memory."""
        xj = rng.standard_normal((8, 3))
        mj = rng.uniform(0.5, 1.0, 8)
        xi = rng.standard_normal((3, 3))
        g5.open()
        g5.set_range(-4, 4)
        g5.set_eps_to_all(0.05)
        g5.set_xmj(0, 5, xj[:5], mj[:5])
        g5.set_xmj(5, 3, xj[5:], mj[5:])
        g5.set_xi(3, xi)
        g5.run()
        acc, _ = g5.get_force(3)
        ref, _ = pairwise_accpot(xi, xj, mj, 0.05)
        assert np.max(np.abs(acc - ref) / np.abs(ref).max()) < 0.05

    def test_introspection(self, g5):
        g5.open()
        assert g5.get_number_of_pipelines() == 32
        assert g5.get_peak_flops() == pytest.approx(109.44e9)

    def test_custom_system(self, g5):
        sys1 = Grape5System(timing=GrapeTimingModel(n_boards=1))
        g5.open(sys1)
        assert g5.system is sys1
        assert g5.get_number_of_pipelines() == 16

    def test_forces_are_copies(self, g5, rng):
        """Mutating returned arrays must not corrupt staged state."""
        g5.open()
        g5.set_range(-4, 4)
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        g5.set_xi(2, rng.standard_normal((2, 3)))
        g5.run()
        a1, p1 = g5.get_force(2)
        a1[:] = 0.0
        a2, _ = g5.get_force(2)
        assert not np.allclose(a2, 0.0)
