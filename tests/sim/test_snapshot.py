"""Figure-4 slab-extraction tests."""

import numpy as np
import pytest

from repro.sim.snapshot import slab


class TestSlab:
    def test_selection_geometry(self):
        pos = np.array([
            [0.0, 0.0, 0.0],     # in
            [10.0, 0.0, 0.0],    # out: x beyond width/2
            [0.0, 0.0, 2.0],     # out: beyond thickness
            [5.0, -5.0, 0.5],    # in (on the edge)
        ])
        xy = slab(pos, width=10.0, thickness=2.5, axis=2)
        # only particles 0 and 3 fit the 10-wide, 2.5-thick slab
        assert xy.shape == (2, 2)

    def test_paper_selection(self, rng):
        """Figure 4: a 45 x 45 x 2.5 Mpc slab keeps ~thickness/extent of
        a uniform cube's particles."""
        pos = rng.uniform(-25, 25, (20000, 3))
        xy = slab(pos, width=45.0, thickness=2.5)
        frac = len(xy) / 20000
        expect = (45.0 / 50.0) ** 2 * (2.5 / 50.0)
        assert frac == pytest.approx(expect, rel=0.1)

    def test_axis_selection(self):
        pos = np.array([[0.0, 0.0, 9.0]])
        assert len(slab(pos, width=1.0, thickness=0.5, axis=2)) == 0
        assert len(slab(pos, width=20.0, thickness=0.5, axis=0)) == 1

    def test_center_offset(self):
        pos = np.array([[5.0, 5.0, 5.0]])
        assert len(slab(pos, width=1.0, thickness=1.0)) == 0
        xy = slab(pos, width=1.0, thickness=1.0,
                  center=np.array([5.0, 5.0, 5.0]))
        assert len(xy) == 1
        assert np.allclose(xy[0], [0.0, 0.0])
