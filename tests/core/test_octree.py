"""Octree construction unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.octree import build_octree, ragged_arange


def validate(tree) -> None:
    """Check an octree's structural invariants; raises
    ``AssertionError`` on failure (cheap enough for any test tree)."""
    C = tree.n_cells
    assert tree.parent[0] == -1 and tree.level[0] == 0
    assert tree.start[0] == 0 and tree.count[0] == tree.n_particles
    nonroot = np.arange(1, C)
    if C > 1:
        p = tree.parent[nonroot]
        assert np.all(p >= 0) and np.all(p < nonroot), "parents precede children"
        assert np.all(tree.level[nonroot] == tree.level[p] + 1)
        # each child slice inside parent slice
        assert np.all(tree.start[nonroot] >= tree.start[p])
        assert np.all(tree.start[nonroot] + tree.count[nonroot]
                      <= tree.start[p] + tree.count[p])
    # children of a split cell partition it exactly
    internal = np.flatnonzero(~tree.is_leaf)
    for c in internal:
        kids = tree.child[c][tree.child[c] >= 0]
        assert len(kids) >= 1
        assert tree.count[kids].sum() == tree.count[c]
        ks = np.sort(tree.start[kids])
        assert ks[0] == tree.start[c]
        widths = tree.count[kids][np.argsort(tree.start[kids])]
        assert np.all(ks[1:] == ks[:-1] + widths[:-1])
    # particles geometrically inside their cells (within grid rounding)
    tol = 1e-9 * tree.size
    for c in np.flatnonzero(tree.is_leaf):
        s, n = int(tree.start[c]), int(tree.count[c])
        d = np.abs(tree.pos_sorted[s:s + n] - tree.center[c])
        assert np.all(d <= tree.half[c] + tol)


class TestRaggedArange:
    def test_basic(self):
        out = ragged_arange(np.array([0, 10]), np.array([3, 2]))
        assert np.array_equal(out, [0, 1, 2, 10, 11])

    def test_empty_total(self):
        assert len(ragged_arange(np.array([5]), np.array([0]))) == 0

    def test_empty_segments_mixed(self):
        out = ragged_arange(np.array([0, 7, 100, 4]),
                            np.array([0, 2, 0, 3]))
        assert np.array_equal(out, [7, 8, 4, 5, 6])

    def test_single_segment(self):
        out = ragged_arange(np.array([42]), np.array([4]))
        assert np.array_equal(out, [42, 43, 44, 45])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ragged_arange(np.array([0]), np.array([-1]))

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 20)),
                    min_size=1, max_size=30))
    def test_matches_python_loop(self, pairs):
        starts = np.array([p[0] for p in pairs])
        counts = np.array([p[1] for p in pairs])
        expect = np.concatenate(
            [np.arange(s, s + c) for s, c in pairs]) if counts.sum() else \
            np.empty(0, dtype=np.int64)
        assert np.array_equal(ragged_arange(starts, counts), expect)


class TestBuildOctree:
    def test_root_covers_everything(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        assert tree.count[0] == len(pos)
        assert tree.start[0] == 0

    def test_structural_invariants(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        validate(build_octree(pos, mass, leaf_size=8))

    def test_invariants_clustered(self, clustered_2k):
        pos, mass = clustered_2k
        validate(build_octree(pos, mass, leaf_size=4))

    def test_leaves_partition_particles(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        leaf_total = tree.count[tree.leaves()].sum()
        assert leaf_total == len(pos)

    def test_leaf_size_respected(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        for ls in (1, 4, 16):
            tree = build_octree(pos, mass, leaf_size=ls)
            # leaves can exceed leaf_size only at MAX_LEVEL (coincident)
            big = tree.count[tree.leaves()] > ls
            assert not np.any(big & (tree.level[tree.leaves()] < 21))

    def test_order_is_permutation(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        assert np.array_equal(np.sort(tree.order), np.arange(len(pos)))

    def test_sorted_arrays_match_order(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        assert np.allclose(tree.pos_sorted, pos[tree.order])
        assert np.allclose(tree.mass_sorted, mass[tree.order])

    def test_keys_sorted(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        assert np.all(np.diff(tree.keys.astype(np.int64)) >= 0)

    def test_single_particle(self):
        tree = build_octree(np.zeros((1, 3)), np.ones(1))
        assert tree.n_cells == 1
        assert tree.is_leaf[0]

    def test_two_coincident_particles_terminate(self):
        pos = np.zeros((2, 3))
        tree = build_octree(pos, np.ones(2), leaf_size=1)
        # construction terminates; the degenerate pair shares a deep leaf
        assert tree.count[0] == 2
        validate(tree)

    def test_mixed_coincident_and_spread(self, rng):
        pos = np.concatenate([np.zeros((5, 3)), rng.uniform(0, 1, (50, 3))])
        mass = np.ones(55)
        tree = build_octree(pos, mass, leaf_size=2)
        validate(tree)

    def test_parents_precede_children(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        nonroot = np.arange(1, tree.n_cells)
        assert np.all(tree.parent[nonroot] < nonroot)

    def test_children_level_is_parent_plus_one(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        c = np.flatnonzero(tree.child >= 0)
        parents = np.repeat(np.arange(tree.n_cells), 8)[c]
        kids = tree.child.ravel()[c]
        assert np.all(tree.level[kids] == tree.level[parents] + 1)

    def test_half_size_halves_per_level(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        expect = 0.5 * tree.size / (2.0 ** tree.level.astype(float))
        assert np.allclose(tree.half, expect)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_octree(np.zeros((4, 2)), np.ones(4))
        with pytest.raises(ValueError):
            build_octree(np.zeros((4, 3)), np.ones(5))
        with pytest.raises(ValueError):
            build_octree(np.zeros((4, 3)), np.ones(4), leaf_size=0)
        with pytest.raises(ValueError):
            build_octree(np.zeros((0, 3)), np.ones(0))

    def test_input_arrays_not_mutated(self, rng):
        pos = rng.uniform(0, 1, (100, 3))
        mass = rng.uniform(0.5, 1.0, 100)
        pc, mc = pos.copy(), mass.copy()
        build_octree(pos, mass)
        assert np.array_equal(pos, pc) and np.array_equal(mass, mc)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 10), st.integers(0, 2**31 - 1))
    def test_property_partition(self, n, leaf_size, seed):
        """Any random set: leaves partition particles; counts consistent."""
        rng = np.random.default_rng(seed)
        pos = rng.standard_normal((n, 3))
        mass = rng.uniform(0.1, 1.0, n)
        tree = build_octree(pos, mass, leaf_size=leaf_size)
        validate(tree)
        assert tree.count[tree.leaves()].sum() == n
