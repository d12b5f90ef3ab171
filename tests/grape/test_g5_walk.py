"""The compiled G5 list walk against the Python datapath, bit for bit.

The walk streams a group's j-list past eight sink lanes and reads the
r^-1/2, r^-3/2 stage from a 2^fb-entry table.  Neither may move a bit:

* one source per sink leaves no summation order to choose, so the walk
  equals :meth:`G5Pipeline.compute` exactly for every (exponent parity,
  fraction) r^2 the table holds, at both ends of the exponent range;
* with many sources each lane adds them in list order, so the walk
  equals a loop that applies the pipeline per pair and adds one source
  at a time, whatever the block/tail split of the sinks;
* numerics or windows the table does not reproduce take the oracle.
"""

import numpy as np
import pytest

from repro.core.kernels import ForceBackend, batch, cnative
from repro.core.traversal import InteractionLists
from repro.grape import GrapeBackend
from repro.grape.numerics import (FixedPointFormat, G5Numerics, G5_NUMERICS,
                                  round_mantissa)
from repro.grape.pipeline import G5Pipeline
from repro.grape.system import Grape5System
from tests.conftest import uncut_sweep


@pytest.fixture
def native():
    if cnative.load() is None:
        pytest.skip("no compiled walk here: eval_lists is the oracle")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _walk(pos, pmass, com, cmass, lists, start, count, eps, numerics,
          fixed):
    acc, pot = np.zeros((len(pos), 3)), np.zeros(len(pos))
    done = batch.g5_eval_lists(pos, pmass, com, cmass, lists, start, count,
                               eps, acc, pot, numerics=numerics,
                               fixed=fixed)
    return done, acc, pot


def _csr(lists_per_sink):
    off = np.zeros(len(lists_per_sink) + 1, dtype=np.int64)
    np.cumsum([len(x) for x in lists_per_sink], out=off[1:])
    idx = np.concatenate(lists_per_sink).astype(np.int64)
    return idx, off


class TestStageTable:
    """Every entry of the table, at the smallest and the largest r^2
    exponent where the 24-bit grid reaches all of them, in windows at
    both ends of the admitted exponent range and one around unit r^2."""

    @pytest.mark.parametrize("log2_res", [-337, -13, 313])
    @pytest.mark.parametrize("fb", range(1, 12))
    def test_one_source_walk_is_the_pipeline(self, native, fb, log2_res):
        numerics = G5Numerics(position_bits=24, force_fraction_bits=fb)
        res = 2.0 ** log2_res
        fixed = FixedPointFormat(bits=24, xmin=0.0, xmax=res * 2.0 ** 24)
        # r^2 = (n res)^2 must round to mantissa (1 + f/2^(fb-1)) 2^p
        # at grid offsets n ~ 2^13 and ~ 2^23, for every parity p and
        # stored fraction f
        half = 1 << (fb - 1)
        want, n = [], []
        for shift in (13, 23):
            for p in (0, 1):
                for f in range(half):
                    m = (half + f) / half * 2.0 ** p
                    want.append(m * 2.0 ** (2 * shift + 2 * log2_res))
                    n.append(round(np.sqrt(m) * 2.0 ** shift))
        dx = np.array(n, dtype=np.float64) * res
        assert np.array_equal(round_mantissa(dx * dx, fb), want)
        # one more sink on the source itself: r^2 == 0 at eps = 0
        sinks = np.zeros((len(dx) + 1, 3))
        sinks[:-1, 0] = dx
        source, m_j = np.zeros((1, 3)), np.array([0.7])

        n_i = len(sinks)
        lists = InteractionLists(
            n_sinks=1, cell_idx=np.zeros(0, np.int64),
            cell_off=np.zeros(2, np.int64),
            part_idx=np.array([n_i]), part_off=np.array([0, 1]))
        done, acc, pot = _walk(
            np.vstack([sinks, source]), np.append(np.zeros(n_i), m_j),
            np.zeros((0, 3)), np.zeros(0), lists, np.array([0]),
            np.array([n_i]), 0.0, numerics, fixed)
        assert done
        ref_acc, ref_pot = G5Pipeline(numerics, fixed).compute(
            sinks, source, m_j, 0.0)
        np.testing.assert_array_equal(_bits(acc[:n_i]), _bits(ref_acc))
        np.testing.assert_array_equal(_bits(pot[:n_i]), _bits(ref_pot))
        assert acc[-2, 0] == 0.0 and pot[-2] == 0.0  # the coincident sink


class TestLaneTails:
    """Each lane adds its sources in list order, so no block or tail
    split of the sinks can move a bit against a one-source-at-a-time
    loop over the pipeline."""

    SINK_COUNTS = list(range(1, 18)) + [31, 33]

    @pytest.mark.parametrize("eps", [0.01, 0.0])
    def test_walk_is_the_list_order_loop(self, native, rng, eps):
        counts = np.array(self.SINK_COUNTS)
        start = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pos = rng.uniform(-1.0, 1.0, (int(counts.sum()) + 200, 3))
        pmass = rng.uniform(0.5, 1.5, len(pos)) / len(pos)
        com = rng.uniform(-1.2, 1.2, (80, 3))
        cmass = rng.uniform(0.01, 0.05, len(com))
        # a few hundred sources per group: cells, then particles that
        # include the group's own sinks (r^2 == 0 at eps == 0)
        cells = [rng.choice(len(com), 60, replace=False) for _ in counts]
        parts = [np.concatenate([np.arange(s, s + n),
                                 rng.choice(len(pos), 200, replace=False)])
                 for s, n in zip(start, counts)]
        cell_idx, cell_off = _csr(cells)
        part_idx, part_off = _csr(parts)
        lists = InteractionLists(len(counts), cell_idx, cell_off, part_idx,
                                 part_off)
        pipe = G5Pipeline(G5_NUMERICS)
        pipe.set_range(-1.5, 1.5)
        done, acc, pot = _walk(pos, pmass, com, cmass, lists, start,
                               counts, eps, G5_NUMERICS, pipe.coord_format)
        assert done

        ref_acc, ref_pot = np.zeros_like(acc), np.zeros_like(pot)
        for g, (s, n) in enumerate(zip(start, counts)):
            xj = np.concatenate([com[cells[g]], pos[parts[g]]])
            mj = np.concatenate([cmass[cells[g]], pmass[parts[g]]])
            for j in range(len(xj)):
                a, p = pipe.compute(pos[s:s + n], xj[j:j + 1],
                                    mj[j:j + 1], eps)
                ref_acc[s:s + n] += a
                ref_pot[s:s + n] += p
        rows = slice(0, int(counts.sum()))
        np.testing.assert_array_equal(_bits(acc[rows]), _bits(ref_acc[rows]))
        np.testing.assert_array_equal(_bits(pot[rows]), _bits(ref_pot[rows]))
        # spare lanes of a short block are never stored
        assert not acc[rows.stop:].any() and not pot[rows.stop:].any()


class OracleGrape(GrapeBackend):
    eval_lists = ForceBackend.eval_lists


class TestOutOfTable:
    """Numerics and windows the table does not reproduce exactly are
    not the compiled walk's: ``GrapeBackend.eval_lists`` returns the
    oracle's result and charges its calls."""

    @pytest.mark.parametrize("numerics,scale", [
        (G5Numerics(force_fraction_bits=16), 1.0),
        (G5Numerics(position_bits=0), 1.0),
        (G5_NUMERICS, 2.0 ** 345),  # r^2 exponents past +-680
    ], ids=["fb16", "unquantised", "huge_window"])
    def test_routes_to_the_oracle(self, rng, numerics, scale):
        from repro.core import TreeCode
        pos = scale * rng.standard_normal((600, 3))
        mass = np.full(600, 1.0 / 600)
        eps = 0.01 * scale
        tc = TreeCode(theta=0.75, n_crit=64)
        tc.accelerations(pos, mass, eps)
        out = {}
        for cls in (GrapeBackend, OracleGrape):
            backend = cls(system=Grape5System(numerics=numerics))
            out[cls] = (*uncut_sweep(tc, backend, eps), backend.system)
        (a1, p1, s1), (a0, p0, s0) = out[GrapeBackend], out[OracleGrape]
        np.testing.assert_array_equal(_bits(a1), _bits(a0))
        np.testing.assert_array_equal(_bits(p1), _bits(p0))
        assert s0.n_calls > 1
        assert (s1.n_calls, s1.interactions, s1.model_seconds) \
            == (s0.n_calls, s0.interactions, s0.model_seconds)
