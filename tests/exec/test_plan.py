"""Unit tests of source assembly."""

import numpy as np

from repro.core.traversal import InteractionLists
from repro.core.kernels import ForceBackend


class TestAssembleSources:
    def test_order_is_cells_then_particles(self):
        """The reference loop ships one point-mass list per sink: cell
        monopoles first, then direct particles, in list order."""
        seen = []

        class Recording(ForceBackend):
            def kernel(self, xi, xj, mj, eps):
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
