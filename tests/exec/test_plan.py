"""Unit tests of source assembly and shard-list concatenation."""

import numpy as np

from repro.core.traversal import InteractionLists, concatenate_lists
from repro.core.kernels import ForceBackend


class TestAssembleSources:
    def test_order_is_cells_then_particles(self):
        """The reference loop ships one point-mass list per sink: cell
        monopoles first, then direct particles, in list order."""
        seen = []

        class Recording(ForceBackend):
            def compute(self, xi, xj, mj, eps):
                seen.append((xi.copy(), xj, mj))
                return np.zeros((len(xi), 3)), np.zeros(len(xi))

        pos = np.arange(12, dtype=np.float64).reshape(4, 3)
        pmass = np.array([1.0, 2.0, 3.0, 4.0])
        com = 100.0 + np.arange(6, dtype=np.float64).reshape(2, 3)
        cmass = np.array([10.0, 20.0])
        lists = InteractionLists(
            n_sinks=1,
            cell_idx=np.array([1, 0], dtype=np.int64),
            cell_off=np.array([0, 2], dtype=np.int64),
            part_idx=np.array([3], dtype=np.int64),
            part_off=np.array([0, 1], dtype=np.int64))
        Recording().eval_lists(pos, pmass, com, cmass, lists,
                               np.array([1]), np.array([2]), 0.0,
                               np.empty((4, 3)), np.empty(4))
        ((xi, xj, mj),) = seen
        assert np.array_equal(xi, pos[1:3])
        assert np.array_equal(xj, np.vstack([com[1], com[0], pos[3]]))
        assert np.array_equal(mj, np.array([20.0, 10.0, 4.0]))


class TestConcatenateLists:
    def test_round_trip_matches_full_build(self):
        rng = np.random.default_rng(3)

        def _rand_lists(n_sinks, base):
            cl = rng.integers(1, 5, size=n_sinks)
            pl = rng.integers(0, 4, size=n_sinks)
            return InteractionLists(
                n_sinks=n_sinks,
                cell_idx=base + np.arange(cl.sum(), dtype=np.int64),
                cell_off=np.concatenate(
                    [[0], np.cumsum(cl)]).astype(np.int64),
                part_idx=base + np.arange(pl.sum(), dtype=np.int64),
                part_off=np.concatenate(
                    [[0], np.cumsum(pl)]).astype(np.int64))

        a = _rand_lists(3, 0)
        b = _rand_lists(5, 1000)
        merged = concatenate_lists([a, b])
        assert merged.n_sinks == 8
        for g in range(3):
            assert np.array_equal(merged.cells_of(g), a.cells_of(g))
            assert np.array_equal(merged.parts_of(g), a.parts_of(g))
        for g in range(5):
            assert np.array_equal(merged.cells_of(3 + g), b.cells_of(g))
            assert np.array_equal(merged.parts_of(3 + g), b.parts_of(g))

    def test_single_part_identity(self):
        lists = InteractionLists(
            n_sinks=1,
            cell_idx=np.array([0], dtype=np.int64),
            cell_off=np.array([0, 1], dtype=np.int64),
            part_idx=np.array([], dtype=np.int64),
            part_off=np.array([0, 0], dtype=np.int64))
        merged = concatenate_lists([lists])
        assert np.array_equal(merged.cell_idx, lists.cell_idx)

    def test_empty_gives_empty_lists(self):
        merged = concatenate_lists([])
        assert merged.n_sinks == 0
        assert merged.cell_off.shape == (1,)
