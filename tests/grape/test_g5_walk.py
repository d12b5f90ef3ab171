"""The compiled G5 list walk against the Python datapath, bit for bit.

The walk streams a group's j-list past eight sink lanes and reads the
r^-1/2, r^-3/2 stage from a 2^fb-entry table.  Neither may move a bit:

* one source per sink leaves no summation order to choose, so the walk
  equals :meth:`G5Pipeline.compute` exactly for every (exponent parity,
  fraction) r^2 the table holds, at both ends of the exponent range;
* with many sources each lane adds them in list order, so the walk
  equals a loop that applies the pipeline per pair and adds one source
  at a time, whatever the block/tail split of the sinks;
* numerics or windows the table does not reproduce take the oracle;
* the walk rounds without a subnormal/inf guard, so inputs that would
  need one -- a NaN coordinate, a non-finite mass, a nonzero mass
  outside the window's range -- are refused once per source or sink and
  take the oracle too, while masses at the range's edges stay on the
  walk bit for bit;
* the paper's run (fb = 9, 24-bit coordinates) never leaves the walk.
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


class TestInputCheck:
    """The guard-free walk's preconditions, checked once per staged
    source and quantised sink: one source, sinks from one grid step to
    the far corner of a 24-bit window of spacing ``2**log2_res``."""

    @staticmethod
    def _window(log2_res):
        return FixedPointFormat(bits=24, xmin=0.0,
                                xmax=2.0 ** (log2_res + 24))

    def _case(self, log2_res, m_j, source=(0.0, 0.0, 0.0), sink=None):
        fixed, res = self._window(log2_res), 2.0 ** log2_res
        n = [1, 2, 3, 5, 2 ** 12 + 1, 2 ** 23]
        sinks = np.zeros((len(n) + 1, 3))
        sinks[:-1, 0] = np.array(n, dtype=np.float64) * res
        sinks[-1] = (2 ** 24 - 1) * res
        if sink is not None:
            sinks[2] = sink
        n_i = len(sinks)
        pos = np.vstack([sinks, source])
        pmass = np.append(np.zeros(n_i), m_j)
        lists = InteractionLists(
            n_sinks=1, cell_idx=np.zeros(0, np.int64),
            cell_off=np.zeros(2, np.int64),
            part_idx=np.array([n_i]), part_off=np.array([0, 1]))
        args = (pos, pmass, np.zeros((0, 3)), np.zeros(0), lists,
                np.array([0]), np.array([n_i]), 0.0)
        return fixed, args

    @staticmethod
    def _backend_bits(cls, fixed, args):
        backend = cls(system=Grape5System(numerics=G5_NUMERICS))
        backend.set_domain(fixed.xmin, fixed.xmax)
        assert backend.system.pipeline.coord_format == fixed
        acc, pot = np.zeros((len(args[0]), 3)), np.zeros(len(args[0]))
        backend.eval_lists(*args, acc, pot)
        return _bits(acc), _bits(pot)

    @pytest.mark.parametrize("log2_res,m_j,source,sink", [
        (313, 2.0 ** -100, (0.0, 0.0, 0.0), None),
        (-13, 0.5, (np.nan, 0.0, 0.0), None),
        (-13, 0.5, (0.0, 0.0, 0.0), (0.0, np.nan, 0.0)),
        (-13, np.inf, (0.0, 0.0, 0.0), None),
        (-13, np.nan, (0.0, 0.0, 0.0), None),
    ], ids=["tiny_mass", "nan_source", "nan_sink", "inf_mass", "nan_mass"])
    def test_refused_inputs_take_the_oracle(self, native, log2_res, m_j,
                                            source, sink):
        fixed, args = self._case(log2_res, m_j, source, sink)
        done, _, _ = _walk(*args, G5_NUMERICS, fixed)
        assert done is False
        got = self._backend_bits(GrapeBackend, fixed, args)
        want = self._backend_bits(OracleGrape, fixed, args)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("log2_res", [-337, -13, 313])
    @pytest.mark.parametrize("edge", ["mlo", "mhi"])
    def test_range_edges_stay_on_the_walk(self, native, log2_res, edge):
        mlo, mhi = batch._g5_params(0.0, G5_NUMERICS,
                                    self._window(log2_res))[-2:]
        m_j = mlo if edge == "mlo" else np.nextafter(mhi, 0.0)
        fixed, args = self._case(log2_res, m_j)
        done, acc, pot = _walk(*args, G5_NUMERICS, fixed)
        assert done is True
        n_i = len(args[0]) - 1
        ref_acc, ref_pot = G5Pipeline(G5_NUMERICS, fixed).compute(
            args[0][:n_i], args[0][n_i:], args[1][n_i:], 0.0)
        np.testing.assert_array_equal(_bits(acc[:n_i]), _bits(ref_acc))
        np.testing.assert_array_equal(_bits(pot[:n_i]), _bits(ref_pot))


def test_paper_run_never_leaves_the_walk(native, monkeypatch):
    """A ``repro run``-shaped run on the default GRAPE backend: every
    shard's call is the compiled walk's, none the oracle's."""
    from repro.sim.recipes import build_force, new_simulation, paper_run
    from repro.sim.recipes import run_schedule
    done, real = [], batch.g5_eval_lists

    def spy(*args, **kw):
        done.append(real(*args, **kw))
        return done[-1]

    monkeypatch.setattr(batch, "g5_eval_lists", spy)
    tc, gb = build_force(theta=0.75, ncrit=256, backend="grape")
    assert gb.system.numerics == G5_NUMERICS
    sim = new_simulation(tc, ngrid=16, seed=1999, z_init=24.0)
    paper_run(sim, run_schedule(z_init=24.0, z_final=20.0, steps=2))
    assert len(done) > 2 and all(d is True for d in done)
