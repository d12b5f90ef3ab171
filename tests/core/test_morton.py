"""Morton-key unit and property tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import morton


class TestSpreadCompact:
    def test_spread_zero(self):
        assert morton.spread_bits(np.array([0]))[0] == 0

    def test_spread_one(self):
        assert morton.spread_bits(np.array([1]))[0] == 1

    def test_spread_two_moves_to_bit3(self):
        assert morton.spread_bits(np.array([2]))[0] == 8

    def test_spread_all_21_bits(self):
        v = np.array([(1 << 21) - 1], dtype=np.uint64)
        spread = morton.spread_bits(v)[0]
        # every third bit set, 21 of them
        assert bin(int(spread)).count("1") == 21

    def test_compact_inverts_spread_exhaustive_small(self):
        v = np.arange(4096, dtype=np.uint64)
        assert np.array_equal(morton.compact_bits(morton.spread_bits(v)), v)

    @given(hnp.arrays(np.uint64, st.integers(1, 64),
                      elements=st.integers(0, (1 << 21) - 1)))
    def test_compact_inverts_spread(self, v):
        assert np.array_equal(morton.compact_bits(morton.spread_bits(v)), v)


class TestEncodeDecode:
    @given(st.integers(0, (1 << 21) - 1), st.integers(0, (1 << 21) - 1),
           st.integers(0, (1 << 21) - 1))
    def test_roundtrip(self, x, y, z):
        ix = np.array([x], dtype=np.uint64)
        iy = np.array([y], dtype=np.uint64)
        iz = np.array([z], dtype=np.uint64)
        k = morton.encode_grid(ix, iy, iz)
        rx, ry, rz = morton.decode_grid(k)
        assert (rx[0], ry[0], rz[0]) == (x, y, z)

    def test_x_is_most_significant(self):
        k_x = morton.encode_grid(np.array([1]), np.array([0]), np.array([0]))
        k_y = morton.encode_grid(np.array([0]), np.array([1]), np.array([0]))
        k_z = morton.encode_grid(np.array([0]), np.array([0]), np.array([1]))
        assert k_x[0] == 4 and k_y[0] == 2 and k_z[0] == 1

    def test_keys_fit_63_bits(self):
        m = np.array([(1 << 21) - 1], dtype=np.uint64)
        k = morton.encode_grid(m, m, m)
        assert k[0] == (np.uint64(1) << np.uint64(63)) - np.uint64(1)


class TestBoundingCube:
    def test_contains_all_points(self, rng):
        pos = rng.standard_normal((200, 3)) * 3.0
        corner, size = morton.bounding_cube(pos)
        assert np.all(pos >= corner)
        assert np.all(pos <= corner + size)

    def test_cube_is_cubic_and_padded(self, rng):
        pos = rng.uniform(0, 1, (50, 3)) * np.array([10.0, 1.0, 0.1])
        corner, size = morton.bounding_cube(pos)
        assert size > 10.0 * (pos[:, 0].max() - pos[:, 0].min()) / 10.0

    def test_single_point(self):
        corner, size = morton.bounding_cube(np.zeros((1, 3)))
        assert size > 0

    def test_coincident_points(self):
        pos = np.ones((5, 3)) * 2.5
        corner, size = morton.bounding_cube(pos)
        assert size > 0
        assert np.all(pos >= corner) and np.all(pos <= corner + size)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            morton.bounding_cube(np.zeros((3, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            morton.bounding_cube(np.zeros((0, 3)))

    def test_rejects_nan(self):
        pos = np.zeros((4, 3))
        pos[2, 1] = np.nan
        with pytest.raises(ValueError):
            morton.bounding_cube(pos)


def _row_reduced_cube(pos, pad=1e-4):
    """``bounding_cube`` as it was written before it reduced columns:
    the strided ``min(axis=0)`` / ``max(axis=0)`` over the rows."""
    lo, hi = pos.min(axis=0), pos.max(axis=0)
    size = float((hi - lo).max()) or 1.0
    size *= 1.0 + pad
    return 0.5 * (lo + hi) - 0.5 * size, size


class TestBoundingCubeBits:
    """The column-contiguous reduction gives the row-wise one's
    ``(corner, size)`` bit for bit.  Min/max are exact, so only the
    sign of a zero can differ between the two loops -- and it never
    reaches the corner or the size."""

    @staticmethod
    def _assert_same_bits(pos):
        corner, size = morton.bounding_cube(pos)
        corner0, size0 = _row_reduced_cube(pos)
        assert corner.tobytes() == corner0.tobytes()
        assert np.float64(size).tobytes() == np.float64(size0).tobytes()

    def test_random_sets(self, rng):
        for n in (1, 2, 3, 17, 1000, 33_552):
            self._assert_same_bits(rng.standard_normal((n, 3)) * 7.0)

    def test_single_particle(self):
        for p in ([0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [1.5, -2.0, 3e-300]):
            self._assert_same_bits(np.array([p]))

    def test_coincident_particles(self):
        for p in ([2.5, 2.5, 2.5], [-0.0, 0.0, -1.0], [0.0, 0.0, 0.0]):
            self._assert_same_bits(np.tile(p, (64, 1)))

    def test_signed_zero_columns(self):
        """Columns of mixed +0/-0 (where the two loops may pick zeros
        of different signs), alone and beside columns with extent."""
        rng = np.random.default_rng(11)
        for trial in range(600):
            n = int(rng.integers(1, 260))
            pos = np.where(rng.random((n, 3)) < 0.5, 0.0, -0.0)
            if trial % 3 == 1:
                pos[:, trial % 3] = rng.standard_normal(n)
            elif trial % 3 == 2:
                pos += rng.standard_normal((n, 3)) * (rng.random((n, 3))
                                                      < 0.2)
            self._assert_same_bits(pos)


class TestMortonKeys:
    def test_locality_order_on_axis(self):
        """Points along x at fixed (y, z) = (0, 0) must be key-ordered."""
        x = np.linspace(0.01, 0.99, 17)
        pos = np.stack([x, np.zeros_like(x), np.zeros_like(x)], axis=1)
        keys = morton.morton_keys(pos, np.zeros(3), 1.0)
        assert np.all(np.diff(keys.astype(np.int64)) > 0)

    def test_keys_deterministic(self, rng):
        pos = rng.uniform(-5, 5, (100, 3))
        corner, size = morton.bounding_cube(pos)
        k1 = morton.morton_keys(pos, corner, size)
        k2 = morton.morton_keys(pos, corner, size)
        assert np.array_equal(k1, k2)

    def test_upper_face_clamped(self):
        pos = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        keys = morton.morton_keys(pos, np.zeros(3), 1.0)
        ix, iy, iz = morton.decode_grid(keys)
        top = (1 << morton.MAX_LEVEL) - 1
        assert ix[0] == iy[0] == iz[0] == top
        assert ix[1] == iy[1] == iz[1] == 0


class TestPrefixOctant:
    def test_prefix_level_zero_is_zero(self, rng):
        keys = rng.integers(0, 1 << 63, 32, dtype=np.uint64)
        assert np.all(morton.cell_prefix(keys, 0) == 0)

    def test_prefix_full_level_is_key(self, rng):
        keys = rng.integers(0, 1 << 63, 32, dtype=np.uint64)
        assert np.array_equal(morton.cell_prefix(keys, morton.MAX_LEVEL),
                              keys)

    def test_prefix_nested(self, rng):
        """Parent prefix is child prefix >> 3."""
        keys = rng.integers(0, 1 << 63, 64, dtype=np.uint64)
        for lv in (1, 5, 12):
            child = morton.cell_prefix(keys, lv)
            parent = morton.cell_prefix(keys, lv - 1)
            assert np.array_equal(child >> np.uint64(3), parent)

    def test_octant_of_first_level_matches_halfspace(self):
        pos = np.array([[0.9, 0.1, 0.1]])  # x high, y low, z low
        keys = morton.morton_keys(pos, np.zeros(3), 1.0)
        assert morton.cell_prefix(keys, 1)[0] == 4  # x bit is MSB

    def test_level_validation(self):
        keys = np.zeros(1, dtype=np.uint64)
        with pytest.raises(ValueError):
            morton.cell_prefix(keys, -1)
        with pytest.raises(ValueError):
            morton.cell_prefix(keys, morton.MAX_LEVEL + 1)
