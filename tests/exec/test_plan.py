"""Unit tests of the batch planner and source assembly."""

import numpy as np
import pytest

from repro.core.traversal import InteractionLists, concatenate_lists
from repro.core.kernels import ForceBackend
from repro.exec.plan import plan_batches


class TestPlanBatches:
    def test_empty(self):
        assert plan_batches(np.array([], dtype=np.int64), 100) == []

    def test_single_batch_when_under_cap(self):
        assert plan_batches(np.array([10, 20, 30]), 100) == [(0, 3)]

    def test_splits_at_cap(self):
        batches = plan_batches(np.array([60, 60, 60]), 100)
        assert batches == [(0, 1), (1, 2), (2, 3)]

    def test_packs_consecutively_and_covers_all(self):
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 50, size=200)
        batches = plan_batches(lengths, 128)
        # contiguous, gap-free cover of [0, 200)
        assert batches[0][0] == 0 and batches[-1][1] == 200
        for (a0, b0), (a1, _) in zip(batches, batches[1:]):
            assert b0 == a1
        # every batch except possibly singletons respects the cap
        for a, b in batches:
            if b - a > 1:
                assert int(lengths[a:b].sum()) <= 128

    def test_oversize_list_gets_own_batch(self):
        batches = plan_batches(np.array([5, 500, 5]), 100)
        assert (1, 2) in batches

    def test_no_cap(self):
        assert plan_batches(np.array([10, 20]), None) == [(0, 2)]


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
