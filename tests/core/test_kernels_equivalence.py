"""Differential harness for the one evaluation path (docs/kernels.md).

Every driver evaluates interaction lists through
``ForceBackend.eval_lists``.  The bundled backends override it with the
compiled CSR walk over the NumPy arrays; the base-class body -- a plain
Python loop, one ``compute()`` per sink -- is the oracle, and the path
that runs when no C compiler is available.  The contract between them:

* **tree structure and interaction lists are bit-identical** -- both
  are built by the same functions before evaluation starts, and this
  suite pins that as an observable property;
* **forces and potentials agree to tight float tolerance** -- the
  native walk re-associates sums, so exact equality is not required,
  but the error budget is a few ULPs per interaction;
* on the GRAPE emulator the **model** (call count, interactions,
  modelled seconds) does not notice which body ran;
* the pipeline engine and its crash recovery are bit-identical to the
  in-process sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import TreeCode
from repro.core.kernels import Float64Backend, ForceBackend, cnative
from repro.core.traversal import InteractionLists
from repro.exec import PipelineEngine
from repro.grape import GrapeBackend
from repro.obs import MetricsRegistry
from repro.sim.models import plummer_model
from tests.conftest import sweep_lists

#: relative tolerance of the native-vs-oracle force comparison; the
#: observed error is ~1e-15 (re-association of per-interaction sums),
#: so 1e-12 is two-plus decades of headroom without masking a real
#: kernel bug
RTOL = 1e-12

EPS = 0.01

#: (n, geometry, theta) sweep; the large-N points run one theta to
#: keep the suite inside tier-1 budgets
CASES = [
    (64, "open", 0.75),
    (1000, "open", 0.5),
    (1000, "open", 0.75),
    (10000, "open", 0.75),
]


class OracleFloat64(Float64Backend):
    """Float64 arithmetic through the base-class bodies only."""
    eval_lists = ForceBackend.eval_lists


class OracleGrape(GrapeBackend):
    """The emulator through the base-class bodies only."""
    eval_lists = ForceBackend.eval_lists


@pytest.fixture(scope="module")
def snapshots():
    """Deterministic particle sets per (n, geometry)."""
    cache = {}
    for n in sorted({c[0] for c in CASES}):
        rng = np.random.default_rng(1000 + n)
        pos, _, mass = plummer_model(n, rng)
        cache[(n, "open")] = (pos, mass)
    return cache


def _assert_close(acc1, pot1, acc0, pot0):
    np.testing.assert_allclose(acc1, acc0, rtol=RTOL,
                               atol=RTOL * np.max(np.abs(acc0)))
    np.testing.assert_allclose(pot1, pot0, rtol=RTOL,
                               atol=RTOL * np.max(np.abs(pot0)))


class TestTreeBitIdentity:
    @pytest.mark.parametrize("n", [64, 1000])
    def test_morton_and_structure_identical(self, snapshots, n):
        """Which body evaluates the lists cannot reach back into the
        tree or the lists it was handed."""
        pos, mass = snapshots[(n, "open")]
        tp = TreeCode(theta=0.75, n_crit=256, backend=OracleFloat64())
        tn = TreeCode(theta=0.75, n_crit=256)
        tp.accelerations(pos, mass, EPS)
        tn.accelerations(pos, mass, EPS)
        for name in ("keys", "order", "prefix", "start", "count",
                     "child", "is_leaf"):
            assert np.array_equal(getattr(tp.last_tree, name),
                                  getattr(tn.last_tree, name)), name
        assert (tp.last_stats.cell_terms, tp.last_stats.part_terms) \
            == (tn.last_stats.cell_terms, tn.last_stats.part_terms)
        lp, ln = sweep_lists(tp), sweep_lists(tn)
        for name in ("cell_idx", "cell_off", "part_idx", "part_off"):
            assert np.array_equal(getattr(lp, name),
                                  getattr(ln, name)), name


class TestForceEquivalence:
    @pytest.mark.parametrize("n,geometry,theta", CASES)
    def test_numpy_matches_python(self, snapshots, n, geometry, theta):
        """The compiled walk over the NumPy arrays against the Python
        reference loop, through the whole treecode."""
        pos, mass = snapshots[(n, geometry)]
        ref = TreeCode(theta=theta, n_crit=256, backend=OracleFloat64())
        acc0, pot0 = ref.accelerations(pos, mass, EPS)
        tc = TreeCode(theta=theta, n_crit=256, backend=Float64Backend())
        acc1, pot1 = tc.accelerations(pos, mass, EPS)
        _assert_close(acc1, pot1, acc0, pot0)
        # identical lists -> identical interaction counts, both in the
        # tree's statistics and in what the backends were handed
        assert (tc.last_stats.total_interactions
                == ref.last_stats.total_interactions)
        assert tc.backend.interactions == ref.backend.interactions

    def test_override_matches_base_loop_on_same_lists(self, snapshots):
        """The seam itself: the same CSR block through the override and
        through ``ForceBackend.eval_lists`` called unbound."""
        pos, mass = snapshots[(1000, "open")]
        tc = TreeCode(theta=0.75, n_crit=64)
        tc.accelerations(pos, mass, EPS)
        tree, groups, lists = tc.last_tree, tc.last_groups, sweep_lists(tc)
        args = (tree.pos_sorted, tree.mass_sorted, tree.com, tree.mass,
                lists, groups.start, groups.count, EPS)
        out = {}
        for name, call in (("native", Float64Backend.eval_lists),
                           ("oracle", ForceBackend.eval_lists)):
            acc = np.empty((tree.n_particles, 3))
            pot = np.empty(tree.n_particles)
            call(Float64Backend(), *args, acc, pot)
            out[name] = (acc, pot)
        _assert_close(*out["native"], *out["oracle"])

    def test_grape_backend_counters_and_forces(self, snapshots):
        """On the emulator the native walk must preserve the *model*:
        the very same force calls, hence the same call count,
        interaction total, call-shape histograms and modelled seconds
        -- the paper's time accounting must not notice the host-side
        vectorization."""
        pos, mass = snapshots[(1000, "open")]
        refs = {}
        for name, cls in (("oracle", OracleGrape),
                          ("native", GrapeBackend)):
            reg = MetricsRegistry()
            gb = cls().bind_metrics(reg)
            tc = TreeCode(theta=0.5, n_crit=256, backend=gb)
            acc, pot = tc.accelerations(pos, mass, EPS)
            refs[name] = (acc, pot, gb.system, reg)
        a0, p0, sys0, reg0 = refs["oracle"]
        a1, p1, sys1, reg1 = refs["native"]
        np.testing.assert_allclose(a1, a0, rtol=RTOL,
                                   atol=RTOL * np.max(np.abs(a0)))
        np.testing.assert_allclose(p1, p0, rtol=RTOL)
        assert sys1.n_calls == sys0.n_calls
        assert sys1.interactions == sys0.interactions
        # the model is a function of the (n_i, n_j) calls alone
        for name in ("grape.call_ni", "grape.call_nj"):
            assert reg1.get(name).snapshot() == reg0.get(name).snapshot()
        # ... charged once per sweep from the same arrays on both
        assert sys1.model_seconds == sys0.model_seconds


class TestFloat64ListOrder:
    """The compiled float64 walk takes a group's sinks in lanes, and
    each lane adds its sources one at a time in list order: the same
    bits as a NumPy loop over the list, vectorised over the sinks.
    Group sizes 1-9 and 13 leave every lane remainder; at eps = 0 a
    sink meets itself (r^2 = 0, the rinv = 0 branch)."""

    COUNTS = list(range(1, 10)) + [13]

    @staticmethod
    def _list_order(pos, pmass, com, cmass, lists, start, count, eps):
        acc, pot = np.zeros((len(pos), 3)), np.zeros(len(pos))
        for g in range(lists.n_sinks):
            cells = lists.cell_idx[lists.cell_off[g]:lists.cell_off[g + 1]]
            parts = lists.part_idx[lists.part_off[g]:lists.part_off[g + 1]]
            rows = slice(start[g], start[g] + count[g])
            xi = pos[rows]
            a, p = np.zeros_like(xi), np.zeros(len(xi))
            for xj, mj in zip(np.concatenate([com[cells], pos[parts]]),
                              np.concatenate([cmass[cells], pmass[parts]])):
                d = xj - xi
                r2 = ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
                      + d[:, 2] * d[:, 2]) + eps * eps
                with np.errstate(divide="ignore"):
                    rinv = np.where(r2 > 0.0, 1.0 / np.sqrt(r2), 0.0)
                mr = mj * rinv
                mr3 = mr * rinv * rinv
                p -= mr
                a += mr3[:, None] * d
            acc[rows], pot[rows] = a, p
        return acc, pot

    @pytest.fixture
    def case(self, rng):
        if cnative.load() is None:
            pytest.skip("no compiled walk here: eval_lists is the oracle")
        counts = np.array(self.COUNTS)
        start = np.concatenate([[0], np.cumsum(counts)[:-1]])
        pos = rng.uniform(-1.0, 1.0, (int(counts.sum()) + 150, 3))
        pmass = rng.uniform(0.5, 1.5, len(pos)) / len(pos)
        com = rng.uniform(-1.2, 1.2, (60, 3))
        cmass = rng.uniform(0.01, 0.05, len(com))
        cells = [rng.choice(len(com), 40, replace=False) for _ in counts]
        parts = [np.concatenate([np.arange(a, a + n),
                                 rng.choice(len(pos), 120, replace=False)])
                 for a, n in zip(start, counts)]

        def csr(per_group):
            off = np.zeros(len(per_group) + 1, dtype=np.int64)
            np.cumsum([len(x) for x in per_group], out=off[1:])
            return np.concatenate(per_group).astype(np.int64), off

        lists = InteractionLists(len(counts), *csr(cells), *csr(parts))
        return pos, pmass, com, cmass, lists, start, counts

    @staticmethod
    def _native(pos, pmass, com, cmass, lists, start, count, eps):
        acc, pot = np.full((len(pos), 3), np.nan), np.full(len(pos), np.nan)
        Float64Backend().eval_lists(pos, pmass, com, cmass, lists, start,
                                    count, eps, acc, pot)
        return acc, pot

    @pytest.mark.parametrize("eps", [0.01, 0.0])
    def test_lanes_are_the_list_order_loop(self, case, eps):
        acc, pot = self._native(*case, eps)
        ref_acc, ref_pot = self._list_order(*case, eps)
        rows = slice(0, int(case[-1].sum()))
        assert acc[rows].tobytes() == ref_acc[rows].tobytes()
        assert pot[rows].tobytes() == ref_pot[rows].tobytes()
        if eps == 0.0:
            assert np.all(np.isfinite(acc[rows]))

    def test_shard_slice_is_not_rebased(self, case):
        """Sinks ``[g0, g1)`` through offset views into the whole
        block's index arrays: the same bits on those rows, no other row
        written."""
        pos, pmass, com, cmass, lists, start, count = case
        g0, g1 = 3, 8
        view = InteractionLists(g1 - g0, lists.cell_idx,
                                lists.cell_off[g0:g1 + 1], lists.part_idx,
                                lists.part_off[g0:g1 + 1])
        acc, pot = self._native(pos, pmass, com, cmass, view, start[g0:g1],
                                count[g0:g1], EPS)
        ref_acc, ref_pot = self._list_order(*case, EPS)
        rows = slice(start[g0], start[g1])
        assert acc[rows].tobytes() == ref_acc[rows].tobytes()
        assert pot[rows].tobytes() == ref_pot[rows].tobytes()
        outside = np.ones(len(pos), dtype=bool)
        outside[rows] = False
        assert np.isnan(pot[outside]).all()
        assert np.isnan(acc[outside]).all()


class TestEngines:
    def test_pipeline_numpy_bit_identical_to_serial_numpy(self,
                                                          snapshots):
        """Shards see CSR *slices*; the per-sink arithmetic is
        row-independent, so slicing must not change a single bit."""
        pos, mass = snapshots[(1000, "open")]
        tc = TreeCode(theta=0.75, n_crit=64)
        acc0, pot0 = tc.accelerations(pos, mass, EPS)
        with PipelineEngine(workers=2) as eng:
            tcp = TreeCode(theta=0.75, n_crit=64, engine=eng)
            acc1, pot1 = tcp.accelerations(pos, mass, EPS)
        assert np.array_equal(acc1, acc0)
        assert np.array_equal(pot1, pot0)

    def test_pipeline_numpy_matches_python_reference(self, snapshots):
        pos, mass = snapshots[(1000, "open")]
        ref = TreeCode(theta=0.75, n_crit=64, backend=OracleFloat64())
        acc0, pot0 = ref.accelerations(pos, mass, EPS)
        with PipelineEngine(workers=2) as eng:
            tcp = TreeCode(theta=0.75, n_crit=64, engine=eng)
            acc1, pot1 = tcp.accelerations(pos, mass, EPS)
        _assert_close(acc1, pot1, acc0, pot0)


class TestNoCompilerFallback:
    """``REPRO_KERNELS_NO_CNATIVE=1`` is what a machine without a C
    compiler looks like: ``cnative.load()`` returns ``None`` and every
    backend runs the reference loop.  Nothing selects this; the code
    observes it."""

    def _run(self, tmp_path, tag, env_extra):
        summary = tmp_path / f"{tag}.json"
        ck = tmp_path / f"{tag}.npz"
        env = dict(os.environ)
        env.pop("REPRO_KERNELS_NO_CNATIVE", None)
        env.update(env_extra)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2]
                                / "src")
        probe = ("import sys, json; from repro.cli import main; "
                 "from repro.core.kernels import cnative; "
                 "code = main(sys.argv[1:]); "
                 "print(json.dumps({'native': cnative.available()})); "
                 "sys.exit(code)")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "run", "--ngrid", "8",
             "--steps", "2", "--z-final", "16", "--ncrit", "64",
             "--json-summary", str(summary), "--checkpoint", str(ck)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        native = json.loads(proc.stdout.splitlines()[-1])["native"]
        from repro.sim.checkpoint import load_checkpoint
        sim = load_checkpoint(ck)
        return native, json.loads(summary.read_text()), sim

    def test_run_without_cnative_matches_native(self, tmp_path):
        native0, ref, sim0 = self._run(tmp_path, "native", {})
        native1, fb, sim1 = self._run(
            tmp_path, "fallback", {"REPRO_KERNELS_NO_CNATIVE": "1"})
        assert native1 is False
        if not native0:
            pytest.skip("no C compiler here: both runs took the "
                        "fallback, nothing to compare against")
        # every TreeStats-derived counter and the GRAPE call stream agree
        for key in ("n_particles", "steps", "interactions",
                    "mean_list_length", "grape_force_calls"):
            assert fb[key] == ref[key], key
        exact = [k for k in ref["metrics"]
                 if (k.startswith("tree.")
                     and not k.startswith("tree.seconds."))
                 or k in ("grape.force_calls", "grape.call_ni",
                          "grape.call_nj", "grape.interactions_total",
                          "sim.interactions_total")]
        assert len(exact) >= 12
        for key in exact:
            assert fb["metrics"][key] == ref["metrics"][key], key
        assert fb["grape_model_seconds"] == pytest.approx(
            ref["grape_model_seconds"], rel=1e-12)
        # two leapfrog steps of forces within RTOL leave the phase
        # space within the same tolerance
        np.testing.assert_allclose(
            sim1.pos, sim0.pos, rtol=RTOL,
            atol=RTOL * np.max(np.abs(sim0.pos)))
        np.testing.assert_allclose(
            sim1.vel, sim0.vel, rtol=RTOL,
            atol=RTOL * np.max(np.abs(sim0.vel)))
