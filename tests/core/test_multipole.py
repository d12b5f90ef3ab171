"""Multipole moment tests: mass conservation, com containment, rmax."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multipole import cell_sums, compute_moments
from repro.core.octree import build_octree


def _tree(pos, mass, **kw):
    return compute_moments(build_octree(pos, mass, **kw))


class TestCellSums:
    def test_scalar_sums_match_slices(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        sums = cell_sums(tree, tree.mass_sorted)
        for c in (0, tree.n_cells // 2, tree.n_cells - 1):
            s, n = int(tree.start[c]), int(tree.count[c])
            assert sums[c] == pytest.approx(tree.mass_sorted[s:s + n].sum())

    def test_vector_sums(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        sums = cell_sums(tree, tree.pos_sorted)
        assert sums.shape == (tree.n_cells, 3)
        assert np.allclose(sums[0], tree.pos_sorted.sum(axis=0))

    def test_shape_validation(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)
        with pytest.raises(ValueError):
            cell_sums(tree, np.ones(tree.n_particles + 1))


class TestMonopole:
    def test_root_mass_is_total(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        assert tree.mass[0] == pytest.approx(mass.sum())

    def test_children_mass_sums_to_parent(self, clustered_2k):
        pos, mass = clustered_2k
        tree = _tree(pos, mass)
        internal = np.flatnonzero(~tree.is_leaf)
        for c in internal[:50]:
            kids = tree.child[c][tree.child[c] >= 0]
            assert tree.mass[kids].sum() == pytest.approx(tree.mass[c])

    def test_root_com_matches_direct(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        com = (mass[:, None] * pos).sum(axis=0) / mass.sum()
        assert np.allclose(tree.com[0], com)

    def test_com_inside_cell(self, clustered_2k):
        """Center of mass cannot leave the cell cube."""
        pos, mass = clustered_2k
        tree = _tree(pos, mass)
        d = np.abs(tree.com - tree.center)
        tol = 1e-9 * tree.size
        assert np.all(d <= tree.half[:, None] + tol)

    def test_rmax_bounds_particles(self, clustered_2k):
        """Every particle of a cell is within rmax of its com."""
        pos, mass = clustered_2k
        tree = _tree(pos, mass)
        for c in range(0, tree.n_cells, max(1, tree.n_cells // 40)):
            s, n = int(tree.start[c]), int(tree.count[c])
            d = tree.pos_sorted[s:s + n] - tree.com[c]
            r = np.sqrt(np.einsum("ij,ij->i", d, d))
            assert np.all(r <= tree.rmax[c] + 1e-12)

    def test_equal_masses_com_is_mean(self, rng):
        pos = rng.uniform(0, 1, (256, 3))
        tree = _tree(pos, np.ones(256))
        assert np.allclose(tree.com[0], pos.mean(axis=0))

    def test_zero_mass_cells_fall_back_to_center(self, rng):
        pos = rng.uniform(0, 1, (64, 3))
        mass = np.zeros(64)
        tree = _tree(pos, mass)
        assert np.allclose(tree.com, tree.center)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 200), st.integers(0, 2**31 - 1))
    def test_property_mass_conservation(self, n, seed):
        rng = np.random.default_rng(seed)
        pos = rng.standard_normal((n, 3))
        mass = rng.uniform(0.1, 2.0, n)
        tree = _tree(pos, mass)
        # every level's cells jointly account for <= total mass; the
        # root accounts for all of it
        assert tree.mass[0] == pytest.approx(mass.sum(), rel=1e-12)
        leaves = tree.leaves()
        assert tree.mass[leaves].sum() == pytest.approx(mass.sum(),
                                                        rel=1e-12)
