"""Traversal tests: completeness, counting mode, CSR structure.

The load-bearing invariant: for any sink, the union of the accepted
cells' particle sets and the direct particles must cover every particle
exactly once (mass completeness) -- that is what makes the monopole sum
a valid approximation of the total force.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import make_groups
from repro.core.mac import BarnesHutMAC
from repro.core.multipole import compute_moments
from repro.core.octree import build_octree
from repro.core.traversal import build_interaction_lists, count_interactions


def _tree(pos, mass, leaf_size=8):
    return compute_moments(build_octree(pos, mass, leaf_size=leaf_size))


def _mass_covered(tree, lists, i):
    cells = lists.cells_of(i)
    parts = lists.parts_of(i)
    return tree.mass[cells].sum() + tree.mass_sorted[parts].sum()


class TestCompleteness:
    def test_total_mass_per_particle_sink(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        lists = build_interaction_lists(
            tree, tree.pos_sorted[:32], np.zeros(32), BarnesHutMAC(0.75))
        for i in range(32):
            assert _mass_covered(tree, lists, i) == pytest.approx(
                mass.sum(), rel=1e-12)

    def test_total_mass_per_group_sink(self, clustered_2k):
        pos, mass = clustered_2k
        tree = _tree(pos, mass)
        g = make_groups(tree, 100)
        lists = build_interaction_lists(tree, g.center, g.radius,
                                        BarnesHutMAC(0.75))
        for i in range(g.n_groups):
            assert _mass_covered(tree, lists, i) == pytest.approx(
                mass.sum(), rel=1e-12)

    def test_no_double_counting(self, plummer_pos_mass):
        """No accepted cell may be an ancestor/descendant of another,
        nor contain a direct particle of the same sink."""
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        lists = build_interaction_lists(
            tree, tree.pos_sorted[:8], np.zeros(8), BarnesHutMAC(0.75))
        for i in range(8):
            cells = lists.cells_of(i)
            parts = set(lists.parts_of(i).tolist())
            spans = [(int(tree.start[c]), int(tree.start[c] + tree.count[c]))
                     for c in cells]
            spans.sort()
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2  # disjoint slices
            for s, e in spans:
                assert not any(s <= p < e for p in parts)

    def test_own_particles_in_direct_list(self, plummer_pos_mass):
        """A group's own members appear in its direct list (the GRAPE
        convention: self force is zero under softening)."""
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        g = make_groups(tree, 64)
        lists = build_interaction_lists(tree, g.center, g.radius,
                                        BarnesHutMAC(0.75))
        for i in (0, g.n_groups // 2):
            s, n = int(g.start[i]), int(g.count[i])
            own = set(range(s, s + n))
            assert own.issubset(set(lists.parts_of(i).tolist()))


class TestCountingMode:
    def test_counts_match_lists(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        sinks = tree.pos_sorted[:64]
        radii = np.zeros(64)
        mac = BarnesHutMAC(0.75)
        lists = build_interaction_lists(tree, sinks, radii, mac)
        cells, parts = count_interactions(tree, sinks, radii, mac)
        assert np.array_equal(cells, lists.cell_counts)
        assert np.array_equal(parts, lists.part_counts)

    def test_group_counts_match_lists(self, clustered_2k):
        pos, mass = clustered_2k
        tree = _tree(pos, mass)
        g = make_groups(tree, 150)
        mac = BarnesHutMAC(0.6)
        lists = build_interaction_lists(tree, g.center, g.radius, mac)
        cells, parts = count_interactions(tree, g.center, g.radius, mac)
        assert np.array_equal(cells, lists.cell_counts)
        assert np.array_equal(parts, lists.part_counts)


class TestListStructure:
    def test_csr_offsets_monotone(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        lists = build_interaction_lists(
            tree, tree.pos_sorted[:16], np.zeros(16), BarnesHutMAC(0.75))
        assert np.all(np.diff(lists.cell_off) >= 0)
        assert np.all(np.diff(lists.part_off) >= 0)
        assert lists.cell_off[-1] == len(lists.cell_idx)
        assert lists.part_off[-1] == len(lists.part_idx)

    def test_list_lengths_property(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        lists = build_interaction_lists(
            tree, tree.pos_sorted[:16], np.zeros(16), BarnesHutMAC(0.75))
        assert np.array_equal(lists.list_lengths,
                              lists.cell_counts + lists.part_counts)
        assert lists.total_terms == lists.list_lengths.sum()

    def test_chunked_traversal_equivalent(self, clustered_2k):
        """Tiny frontier chunks must give identical lists, in identical
        order: the NumPy walk cuts its frontier only at sink
        boundaries.  A MAC that overrides ``accept`` takes that walk."""

        class OwnAccept(BarnesHutMAC):
            def accept(self, *args):
                return super().accept(*args)

        pos, mass = clustered_2k
        tree = _tree(pos, mass)
        sinks = tree.pos_sorted[:24]
        radii = np.zeros(24)
        mac = OwnAccept(0.75)
        a = build_interaction_lists(tree, sinks, radii, mac)
        b = build_interaction_lists(tree, sinks, radii, mac, chunk=64)
        for f in ("cell_off", "cell_idx", "part_off", "part_idx"):
            assert np.array_equal(getattr(a, f), getattr(b, f))

    def test_requires_moments(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = build_octree(pos, mass)  # no moments
        with pytest.raises(ValueError):
            build_interaction_lists(tree, pos[:1], np.zeros(1),
                                    BarnesHutMAC(0.75))

    def test_sink_shape_validation(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        with pytest.raises(ValueError):
            build_interaction_lists(tree, pos[:4, :2], np.zeros(4),
                                    BarnesHutMAC(0.75))
        with pytest.raises(ValueError):
            build_interaction_lists(tree, pos[:4], np.zeros(5),
                                    BarnesHutMAC(0.75))

    def test_smaller_theta_longer_lists(self, plummer_pos_mass):
        pos, mass = plummer_pos_mass
        tree = _tree(pos, mass)
        sinks, radii = tree.pos_sorted[:32], np.zeros(32)
        loose = build_interaction_lists(tree, sinks, radii,
                                        BarnesHutMAC(1.0))
        tight = build_interaction_lists(tree, sinks, radii,
                                        BarnesHutMAC(0.3))
        assert tight.total_terms > loose.total_terms

    @settings(max_examples=15, deadline=None)
    @given(st.integers(10, 200), st.integers(0, 2**31 - 1),
           st.floats(0.3, 1.5))
    def test_property_mass_completeness(self, n, seed, theta):
        rng = np.random.default_rng(seed)
        pos = rng.standard_normal((n, 3))
        mass = rng.uniform(0.1, 1.0, n)
        tree = _tree(pos, mass, leaf_size=4)
        g = make_groups(tree, max(1, n // 5))
        lists = build_interaction_lists(tree, g.center, g.radius,
                                        BarnesHutMAC(theta))
        for i in range(g.n_groups):
            assert _mass_covered(tree, lists, i) == pytest.approx(
                mass.sum(), rel=1e-9)
