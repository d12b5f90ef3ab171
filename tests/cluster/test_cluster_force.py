"""Cluster force correctness: K=1 bit-identity, K>1 tolerance, LET
exchange accounting, and the cluster timing model."""

import numpy as np
import pytest

from repro.cluster import (ClusterContext, ClusterSpec, let_exchange,
                           take_rows)
from repro.core.kernels import cnative
from repro.core.treecode import TreeCode
from repro.grape.system import GrapeBackend
from repro.sim.recipes import build_force
from tests.conftest import sweep_lists

THETA, NCRIT, EPS = 0.75, 256, 0.01


@pytest.fixture(scope="module")
def plummerish():
    rng = np.random.default_rng(20260808)
    n = 1500
    pos = rng.standard_normal((n, 3))
    mass = rng.uniform(0.5, 1.5, n) / n
    return pos, mass


def _serial(pos, mass):
    tc = TreeCode(theta=THETA, n_crit=NCRIT, backend=GrapeBackend())
    acc, pot = tc.accelerations(pos, mass, EPS)
    return tc, acc, pot


BOTH_PATHS = pytest.mark.parametrize("eval_path", ["python", "numpy"],
                                     indirect=True)


@pytest.fixture
def eval_path(request, monkeypatch):
    """Both bodies ``eval_lists`` can run: ``numpy`` is the compiled
    CSR walk over the arrays, ``python`` the per-sink reference loop
    the backends fall back to when ``cnative.load()`` finds no
    compiler.  The cluster contracts hold on either."""
    if request.param == "python":
        monkeypatch.setattr(cnative, "load", lambda: None)
    return request.param


@BOTH_PATHS
def test_k1_b2_bit_identical(plummerish, eval_path):
    """hosts=1, boards=2 reproduces the plain path bit for bit, and its
    timing model the single-host predicted seconds exactly: its one host
    is charged the same per-sink arrays the plain sweep is."""
    pos, mass = plummerish
    tc0, acc0, pot0 = _serial(pos, mass)
    tc1 = TreeCode(theta=THETA, n_crit=NCRIT,
                   cluster=ClusterSpec(hosts=1, boards=2))
    acc1, pot1 = tc1.accelerations(pos, mass, EPS)
    np.testing.assert_array_equal(acc1, acc0)
    np.testing.assert_array_equal(pot1, pot0)
    assert tc1.cluster.model_seconds == tc0.backend.model_seconds
    assert tc1.cluster.interactions == tc0.backend.interactions
    assert tc1.backend is tc1.cluster
    s = tc1.cluster.summary()
    assert s["predicted_seconds"] == tc0.backend.model_seconds
    assert s["let_exchange_bytes"] == 0.0
    assert s["let_import_cells"] == 0
    assert s["let_import_particles"] == 0
    tc1.close()


@BOTH_PATHS
def test_device_site_fires_once_per_host(plummerish, eval_path):
    """A cluster sweep is one force call per host: the ``grape.compute``
    site is consulted once per host and sweep, on either body of
    ``eval_lists`` (which consults no site itself)."""

    class Sites:
        def __init__(self):
            self.seen = []

        def maybe_raise(self, site):
            self.seen.append(site)

    pos, mass = plummerish
    sites = Sites()
    ctx = ClusterContext(ClusterSpec(hosts=2), fault_injector=sites)
    tc = TreeCode(theta=THETA, n_crit=NCRIT, cluster=ctx)
    tc.accelerations(pos, mass, EPS)
    assert sites.seen == ["grape.compute"] * 2
    tc.close()


@BOTH_PATHS
@pytest.mark.parametrize("hosts", [2, 3, 4])
def test_multi_host_matches_serial(plummerish, eval_path, hosts):
    """ORB handles the non-power-of-two K=3 like the others."""
    pos, mass = plummerish
    _, acc0, pot0 = _serial(pos, mass)
    tc = TreeCode(theta=THETA, n_crit=NCRIT,
                  cluster=ClusterSpec(hosts=hosts))
    acc, pot = tc.accelerations(pos, mass, EPS)
    np.testing.assert_allclose(acc, acc0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pot, pot0, rtol=1e-12, atol=0)
    s = tc.cluster.summary()
    assert s["let_exchange_bytes"] > 0.0
    assert s["predicted_gflops"] > 0.0
    tc.close()


def test_original_algorithm_under_cluster(plummerish):
    """Per-particle sinks decompose too (the paper's 'original' lists)."""
    pos, mass = plummerish
    tc0 = TreeCode(theta=THETA, n_crit=NCRIT, backend=GrapeBackend())
    acc0, _ = tc0.accelerations(pos, mass, EPS, algorithm="original")
    tc = TreeCode(theta=THETA, n_crit=NCRIT,
                  cluster=ClusterSpec(hosts=2))
    acc, _ = tc.accelerations(pos, mass, EPS, algorithm="original")
    np.testing.assert_allclose(acc, acc0, rtol=1e-12, atol=0)
    tc.close()


def test_more_hosts_shrink_predicted_seconds(plummerish):
    pos, mass = plummerish
    pred = {}
    for hosts in (1, 2, 4):
        tc = TreeCode(theta=THETA, n_crit=NCRIT,
                      cluster=ClusterSpec(hosts=hosts))
        tc.accelerations(pos, mass, EPS)
        pred[hosts] = tc.cluster.model_seconds
        tc.close()
    assert pred[2] < pred[1]
    assert pred[4] < pred[2]


def test_exchange_grows_with_hosts(plummerish):
    pos, mass = plummerish
    vol = {}
    for hosts in (2, 4):
        tc = TreeCode(theta=THETA, n_crit=NCRIT,
                      cluster=ClusterSpec(hosts=hosts))
        tc.accelerations(pos, mass, EPS)
        vol[hosts] = tc.cluster.summary()["let_exchange_bytes"]
        tc.close()
    assert vol[4] > vol[2] > 0


def test_take_rows_full_selection_is_identity(plummerish):
    pos, mass = plummerish
    tc, _, _ = _serial(pos, mass)
    lists = sweep_lists(tc)
    sub = take_rows(lists, np.arange(lists.n_sinks, dtype=np.int64))
    np.testing.assert_array_equal(sub.cell_idx, lists.cell_idx)
    np.testing.assert_array_equal(sub.cell_off, lists.cell_off)
    np.testing.assert_array_equal(sub.part_idx, lists.part_idx)
    np.testing.assert_array_equal(sub.part_off, lists.part_off)


def test_take_rows_subset(plummerish):
    pos, mass = plummerish
    tc, _, _ = _serial(pos, mass)
    lists = sweep_lists(tc)
    rows = np.array([3, 0, 7], dtype=np.int64)
    sub = take_rows(lists, rows)
    assert sub.n_sinks == 3
    for i, g in enumerate(rows):
        np.testing.assert_array_equal(sub.cells_of(i),
                                      lists.cells_of(int(g)))
        np.testing.assert_array_equal(sub.parts_of(i),
                                      lists.parts_of(int(g)))


def test_let_exchange_single_host_is_zero(plummerish):
    pos, mass = plummerish
    tc, _, _ = _serial(pos, mass)
    tree, groups, lists = tc.last_tree, tc.last_groups, sweep_lists(tc)
    owner = np.zeros(lists.n_sinks, dtype=np.int64)
    ex = let_exchange(tree, lists, owner, groups.start, groups.count, 1)
    assert ex.total_import_cells == 0
    assert ex.total_import_particles == 0
    assert ex.total_bytes == 0.0


def test_build_force_cluster_path(plummerish):
    pos, mass = plummerish
    tc, backend = build_force(theta=THETA, ncrit=NCRIT,
                              cluster=ClusterSpec(hosts=2))
    assert backend is tc.backend is tc.cluster
    assert "grape" in backend.name
    acc, _ = tc.accelerations(pos, mass, EPS)
    assert backend.model_seconds > 0
    assert backend.summary()["hosts"] == 2
    tc.close()
    assert not backend.backends         # the treecode closed it
    # counters survive close
    assert backend.model_seconds > 0


def test_build_force_cluster_rejects_conflicts():
    with pytest.raises(ValueError):
        build_force(theta=THETA, ncrit=NCRIT, backend="host",
                    cluster=ClusterSpec(hosts=2))
    with pytest.raises(ValueError):
        build_force(theta=THETA, ncrit=NCRIT, engine=object(),
                    cluster=ClusterSpec(hosts=2))
    with pytest.raises(ValueError):
        build_force(theta=THETA, ncrit=NCRIT, workers=2,
                    cluster=ClusterSpec(hosts=2))
    with pytest.raises(ValueError):
        build_force(theta=THETA, ncrit=NCRIT, system=object(),
                    cluster=ClusterSpec(hosts=2))


def test_treecode_cluster_rejects_conflicts():
    with pytest.raises(ValueError):
        TreeCode(cluster=ClusterSpec(), backend=GrapeBackend())
    with pytest.raises(ValueError):
        TreeCode(cluster=ClusterSpec(), engine=object())


def test_treecode_close_closes_a_handed_context(plummerish):
    """One ownership rule: ``TreeCode.close()`` closes the context it
    holds, whoever built it; the context re-opens with its counters
    intact and keeps counting."""
    pos, mass = plummerish
    ctx = ClusterContext(ClusterSpec(hosts=2)).open()
    tc = TreeCode(theta=THETA, n_crit=NCRIT, cluster=ctx)
    assert tc.cluster is ctx
    tc.accelerations(pos, mass, EPS)
    tc.close()
    assert ctx.backends == []
    tc.close()                          # idempotent
    before = ctx.summary()
    assert before["predicted_seconds"] > 0

    ctx.open()
    assert ctx.summary() == before
    tc.accelerations(pos, mass, EPS)
    after = ctx.summary()
    assert after["predicted_seconds"] == pytest.approx(
        2 * before["predicted_seconds"], rel=1e-12)
    assert after["let_exchange_bytes"] == 2 * before["let_exchange_bytes"]
    ctx.reset_stats()
    assert ctx.interactions == 0 and ctx.model_seconds == 0.0
    tc.close()


def test_cluster_metrics_have_one_owner():
    """``cluster.*`` metric names are registered by exactly one module,
    the model that measures what it reports."""
    import re
    from pathlib import Path
    import repro
    root = Path(repro.__file__).parent
    pat = re.compile(r'(?:counter|gauge|histogram)\(\s*"cluster\.')
    owners = sorted(str(p.relative_to(root)) for p in root.rglob("*.py")
                    if pat.search(p.read_text()))
    assert owners == ["cluster/context.py"]
