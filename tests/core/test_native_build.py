"""The compiled tree build gives the NumPy build's bits.

``repro_refine`` finds each cell's ``(level, start, count, parent)``
and ``repro_moments`` its mass and center of mass
(``repro.core.kernels.cnative``); the NumPy level loop and prefix sums
stay as their oracles and as the path without a compiler.  Every
``Octree`` array, with its dtype, the moments and the Barnes groups'
radii must come out bit for bit the same from both, on every kind of
particle set the treecode meets -- and a sweep sets the tree walk up
once, whatever it is cut into.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.groups import make_groups
from repro.core.kernels import batch, cnative
from repro.core.mac import BarnesHutMAC
from repro.core.morton import MAX_LEVEL
from repro.core.multipole import compute_moments
from repro.core.octree import build_octree
from repro.core.treecode import TreeCode
from repro.exec.engine import SHARDS_PER_SWEEP
from repro.obs import MetricsRegistry
from repro.sim.models import plummer_model
from repro.sim.recipes import carve_run_region

native = pytest.mark.skipif(not cnative.available(),
                            reason="no C compiler: only the NumPy build")


def built(pos, mass, leaf_size=8, n_crit=16):
    """The tree with its moments, and its groups, as one build makes
    them (on whichever path ``cnative.load`` gives)."""
    tree = compute_moments(build_octree(pos, mass, leaf_size=leaf_size))
    return tree, make_groups(tree, n_crit)


def assert_same_build(a, b):
    """Every field of two ``(Octree, GroupSet)`` pairs equal, arrays
    bit for bit (signed zeros included) and of one dtype."""
    for x, y in zip(a, b):
        for f in dataclasses.fields(x):
            u, v = getattr(x, f.name), getattr(y, f.name)
            if isinstance(u, np.ndarray):
                assert u.dtype == v.dtype and u.shape == v.shape, f.name
                assert u.tobytes() == v.tobytes(), f.name
            else:
                assert type(u) is type(v) and u == v, f.name


def both_paths(monkeypatch, *args, **kw):
    """``built(*args, **kw)`` with the compiled kernels, then with the
    NumPy oracles (what ``REPRO_KERNELS_NO_CNATIVE=1`` does)."""
    out = built(*args, **kw)
    with monkeypatch.context() as m:
        m.setattr(cnative, "load", lambda: None)
        return out, built(*args, **kw)


def clustered_plummer(rng):
    """A Plummer sphere around a clump four decades tighter: a tree at
    least 14 levels deep."""
    pos, _, mass = plummer_model(4000, rng)
    pos[:300] = 1e-4 * plummer_model(300, rng)[0]
    return pos, mass


@native
class TestSameBits:
    def test_carved_ics(self, monkeypatch):
        region = carve_run_region(ngrid=16, seed=1999, z_init=24.0)
        assert_same_build(*both_paths(monkeypatch, region.pos, region.mass,
                                      n_crit=32))

    def test_clustered_plummer(self, monkeypatch, rng):
        pos, mass = clustered_plummer(rng)
        native_build, numpy_build = both_paths(monkeypatch, pos, mass)
        assert native_build[0].depth >= 14
        assert_same_build(native_build, numpy_build)

    def test_coincident_chain_to_the_last_level(self, monkeypatch, rng):
        pos = np.concatenate([np.full((20, 3), 0.123),
                              rng.uniform(-1, 1, (300, 3))])
        native_build, numpy_build = both_paths(monkeypatch, pos,
                                               np.full(320, 1.0 / 320))
        assert native_build[0].depth == MAX_LEVEL
        assert_same_build(native_build, numpy_build)

    def test_all_particles_coincident(self, monkeypatch):
        native_build, numpy_build = both_paths(
            monkeypatch, np.full((50, 3), -2.5), np.full(50, 0.02))
        assert native_build[0].depth == MAX_LEVEL
        assert native_build[0].n_cells == MAX_LEVEL + 1
        assert_same_build(native_build, numpy_build)

    def test_one_particle(self, monkeypatch):
        native_build, numpy_build = both_paths(
            monkeypatch, np.array([[0.5, -1.0, 2.0]]), np.array([3.0]))
        assert native_build[0].n_cells == 1
        assert_same_build(native_build, numpy_build)

    def test_leaf_size_one(self, monkeypatch, rng):
        assert_same_build(*both_paths(monkeypatch, rng.normal(size=(700, 3)),
                                      rng.uniform(size=700), leaf_size=1))

    def test_zero_mass_particles(self, monkeypatch, rng):
        """Massless cells take their geometric center as com.  The
        first sorted particle's mass is -0.0: a running sum starts at
        its first term, as ``np.cumsum``'s does, so the cells from it
        weigh -0.0, not +0.0."""
        pos = rng.normal(size=(700, 3))
        mass = rng.uniform(size=700)
        mass[::3] = 0.0
        mass[:100] = 0.0
        mass[build_octree(pos, mass, leaf_size=4).order[:3]] = -0.0
        native_build, numpy_build = both_paths(monkeypatch, pos, mass,
                                               leaf_size=4)
        tree = native_build[0]
        empty = tree.mass == 0.0
        assert np.signbit(tree.mass[empty]).any()
        assert np.array_equal(tree.com[empty], tree.center[empty])
        assert_same_build(native_build, numpy_build)

    def test_regrown_cell_buffers(self, monkeypatch, rng):
        """A first ``repro_refine`` with room for one cell stops, and
        the buffers double until the tree fits."""
        pos, mass = clustered_plummer(rng)
        native_build, numpy_build = both_paths(monkeypatch, pos, mass)
        monkeypatch.setattr(batch, "_CELLS_PER_PARTICLE", 0.0)
        regrown = built(pos, mass)
        assert regrown[0].n_cells > 1
        assert_same_build(regrown, numpy_build)
        assert_same_build(regrown, native_build)


@native
def test_a_sharded_sweep_takes_the_threshold_once(monkeypatch):
    """The walk's per-tree inputs are built once per sweep, on the
    submitting thread, not once per shard."""
    pos, _, mass = plummer_model(12000, np.random.default_rng(16))
    calls = []
    real = BarnesHutMAC.threshold

    def counted(self, tree, cells=slice(None)):
        calls.append(cells)
        return real(self, tree, cells)

    monkeypatch.setattr(BarnesHutMAC, "threshold", counted)
    registry = MetricsRegistry()
    tc = TreeCode(n_crit=64, metrics=registry)
    try:
        tc.accelerations(pos, mass, eps=0.01)
    finally:
        tc.close()
    assert registry.value("exec.batches") == SHARDS_PER_SWEEP
    assert len(calls) == 1
