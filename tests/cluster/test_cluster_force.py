"""Cluster force correctness: the plain GRAPE path's bits at every K,
the engine's fault hooks, LET exchange accounting, and the cluster
timing model."""

import numpy as np
import pytest

from repro.cluster import ClusterBackend, ClusterSpec, let_exchange
from repro.core.kernels import cnative
from repro.core.treecode import TreeCode
from repro.exec import EngineError
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


def _cluster(hosts, **kw):
    return TreeCode(theta=THETA, n_crit=NCRIT, backend=ClusterBackend(
        ClusterSpec(hosts=hosts, **kw)))


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
    tc1 = _cluster(1, boards=2)
    acc1, pot1 = tc1.accelerations(pos, mass, EPS)
    np.testing.assert_array_equal(acc1, acc0)
    np.testing.assert_array_equal(pot1, pot0)
    assert tc1.backend.model_seconds == tc0.backend.model_seconds
    assert tc1.backend.interactions == tc0.backend.interactions
    s = tc1.backend.summary()
    assert s["predicted_seconds"] == tc0.backend.model_seconds
    assert s["let_exchange_bytes"] == 0.0
    assert s["let_import_cells"] == 0
    assert s["let_import_particles"] == 0
    tc1.close()


@BOTH_PATHS
@pytest.mark.parametrize("hosts", [1, 2])
def test_device_site_fires_once_per_sweep(plummerish, eval_path, hosts):
    """A cluster sweep is one force call, whatever K: the engine
    consults the ``grape.compute`` site once per sweep, on either body
    of ``eval_lists`` (which consults no site itself)."""

    class Sites:
        def __init__(self):
            self.seen = []

        def fire(self, hook, *, site=None, **where):
            self.seen.append(site)

    pos, mass = plummerish
    sites = Sites()
    tc = TreeCode(theta=THETA, n_crit=NCRIT, backend=ClusterBackend(
        ClusterSpec(hosts=hosts), fault_injector=sites))
    for sweep in (1, 2):
        tc.accelerations(pos, mass, EPS)
        assert sites.seen == ["grape.compute"] * sweep
    tc.close()


@BOTH_PATHS
@pytest.mark.parametrize("hosts", [2, 3, 4])
def test_multi_host_matches_serial(plummerish, eval_path, hosts):
    """Every K evaluates on the plain path's datapath and window, so
    the forces are its bits; ORB handles the non-power-of-two K=3 like
    the others."""
    pos, mass = plummerish
    _, acc0, pot0 = _serial(pos, mass)
    tc = _cluster(hosts)
    acc, pot = tc.accelerations(pos, mass, EPS)
    np.testing.assert_array_equal(acc, acc0)
    np.testing.assert_array_equal(pot, pot0)
    s = tc.backend.summary()
    assert s["let_exchange_bytes"] > 0.0
    assert s["predicted_gflops"] > 0.0
    tc.close()


def test_original_algorithm_under_cluster(plummerish):
    """Per-particle sinks decompose too (the paper's 'original' lists)."""
    pos, mass = plummerish
    tc0 = TreeCode(theta=THETA, n_crit=NCRIT, backend=GrapeBackend())
    acc0, pot0 = tc0.accelerations(pos, mass, EPS, algorithm="original")
    tc = _cluster(2)
    acc, pot = tc.accelerations(pos, mass, EPS, algorithm="original")
    np.testing.assert_array_equal(acc, acc0)
    np.testing.assert_array_equal(pot, pot0)
    tc.close()


def test_more_hosts_shrink_predicted_seconds(plummerish):
    pos, mass = plummerish
    pred = {}
    for hosts in (1, 2, 4):
        tc = _cluster(hosts)
        tc.accelerations(pos, mass, EPS)
        pred[hosts] = tc.backend.model_seconds
        tc.close()
    assert pred[2] < pred[1]
    assert pred[4] < pred[2]


def test_exchange_grows_with_hosts(plummerish):
    pos, mass = plummerish
    vol = {}
    for hosts in (2, 4):
        tc = _cluster(hosts)
        tc.accelerations(pos, mass, EPS)
        vol[hosts] = tc.backend.summary()["let_exchange_bytes"]
        tc.close()
    assert vol[4] > vol[2] > 0


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
    assert backend is tc.backend
    assert isinstance(backend, ClusterBackend)
    assert "grape" in backend.name
    acc, _ = tc.accelerations(pos, mass, EPS)
    assert backend.model_seconds > 0
    assert backend.summary()["hosts"] == 2
    tc.close()
    # counters survive close
    assert backend.model_seconds > 0


def test_build_force_cluster_rejects_conflicts():
    with pytest.raises(ValueError):
        build_force(theta=THETA, ncrit=NCRIT, backend="host",
                    cluster=ClusterSpec(hosts=2))
    with pytest.raises(ValueError):
        build_force(theta=THETA, ncrit=NCRIT, system=object(),
                    cluster=ClusterSpec(hosts=2))


class TestFaultsUnderACluster:
    """A cluster sweep goes through the engine, so a fault plan fires
    and is retried as on the plain path."""

    def test_exhausted_batch_fault_raises(self, plummerish):
        pos, mass = plummerish
        tc, _ = build_force(theta=THETA, ncrit=NCRIT,
                            cluster=ClusterSpec(hosts=2),
                            faults="transient_error@batch=0",
                            max_retries=0)
        try:
            with pytest.raises(EngineError, match="batch 0"):
                tc.accelerations(pos, mass, EPS)
        finally:
            tc.close()

    def test_retried_batch_fault_ends_on_the_plain_bits(self, plummerish):
        pos, mass = plummerish
        _, acc0, pot0 = _serial(pos, mass)
        tc, backend = build_force(theta=THETA, ncrit=NCRIT,
                                  cluster=ClusterSpec(hosts=2),
                                  faults="transient_error@batch=0")
        try:
            acc, pot = tc.accelerations(pos, mass, EPS)
        finally:
            tc.close()
        np.testing.assert_array_equal(acc, acc0)
        np.testing.assert_array_equal(pot, pot0)
        clean = _cluster(2)
        clean.accelerations(pos, mass, EPS)
        assert backend.summary() == clean.backend.summary()
        clean.close()


def test_cluster_run_digest_is_the_same_at_any_workers():
    """A 2-host run is one trajectory at every pool size, and it is the
    plain GRAPE path's."""
    from repro.sim.recipes import (new_simulation, paper_run,
                                   run_schedule)
    schedule = run_schedule(z_init=24.0, z_final=20.0, steps=2)
    digests, model_seconds = [], []
    for workers, cluster in ((1, ClusterSpec(hosts=2)),
                             (2, ClusterSpec(hosts=2)), (2, None)):
        force, backend = build_force(theta=THETA, ncrit=64,
                                     workers=workers, cluster=cluster)
        sim = new_simulation(force, ngrid=16, seed=1999, z_init=24.0)
        digests.append(paper_run(sim, schedule)["digest"])
        model_seconds.append(backend.model_seconds)
    assert digests[0] == digests[1] == digests[2]
    assert model_seconds[0] == model_seconds[1]


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
    assert owners == ["cluster/backend.py"]
