"""ClusterContext protocol misuse, mirroring tests/grape/test_api_protocol.py:
call-order violations, K=0; and the board-set arithmetic (host k is
wired to boards [k*B, (k+1)*B))."""

import numpy as np
import pytest

from repro.cluster import ClusterContext, ClusterError, ClusterSpec


@pytest.fixture
def ctx():
    c = ClusterContext(ClusterSpec(hosts=2, boards=2))
    yield c
    if c.backends:
        c.close()


class TestSpecValidation:
    def test_zero_hosts_rejected(self):
        with pytest.raises(ValueError, match="hosts"):
            ClusterSpec(hosts=0)

    def test_zero_boards_rejected(self):
        with pytest.raises(ValueError, match="boards"):
            ClusterSpec(boards=0)

    def test_negative_hosts_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(hosts=-3)

    def test_bad_network_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(exchange_bandwidth=0.0)
        with pytest.raises(ValueError):
            ClusterSpec(exchange_latency=-1.0)

    def test_total_boards(self):
        assert ClusterSpec(hosts=3, boards=4).total_boards == 12

    def test_cost_ledger(self):
        """hosts=1, boards=2 prices the paper's machine; every host of
        a real cluster also buys its share of the network."""
        from repro.host.cost import PAPER_SYSTEM_COST
        paper = PAPER_SYSTEM_COST.total_jpy
        assert ClusterSpec().cost().total_jpy == paper
        assert ClusterSpec(hosts=4).cost().total_jpy == 4 * (paper + 0.1e6)
        assert (ClusterSpec(boards=8).cost().total_jpy
                == paper + 6 * 1.65e6)


class TestCallOrder:
    def test_use_before_open(self, ctx):
        with pytest.raises(ClusterError, match="open"):
            ctx.set_domain(-1.0, 1.0)
        with pytest.raises(ClusterError, match="open"):
            ctx.close()
        with pytest.raises(ClusterError, match="open"):
            ctx.evaluate(ctx, None)
        with pytest.raises(ClusterError, match="open"):
            ctx.reset_stats()
        with pytest.raises(ClusterError, match="open"):
            ctx.summary()
        with pytest.raises(ClusterError, match="open"):
            ctx.model_seconds

    def test_double_open(self, ctx):
        ctx.open()
        with pytest.raises(ClusterError, match="already open"):
            ctx.open()

    def test_close_reopen_no_residue(self, ctx):
        ctx.open()
        first_sets = ctx.board_sets
        ctx.close()
        assert ctx.backends == []
        ctx.open()
        assert ctx.board_sets == first_sets
        assert len(ctx.backends) == 2
        assert [b.system for b in ctx.backends] == ctx.systems

    def test_context_manager_closes(self):
        with ClusterContext(ClusterSpec(hosts=1)).open() as c:
            assert len(c.backends) == 1
        assert c.backends == []


class TestBoardSets:
    def test_hosts_get_disjoint_sets(self, ctx):
        ctx.open()
        assert ctx.board_sets == ((0, 1), (2, 3))
        assert ctx.summary()["board_sets"] == [[0, 1], [2, 3]]
        wide = ClusterContext(ClusterSpec(hosts=3, boards=3)).open()
        assert wide.board_sets == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        wide.close()


class TestBrokerBoardLeases:
    def test_nonpaper_board_count_reshapes_slots(self, tmp_path,
                                                 monkeypatch):
        """A served job computes on a GRAPE of the scheduler's board
        count, also off the paper's two boards per host."""
        from repro.serve import JobSpec, Scheduler
        from repro.sim import recipes
        systems = []
        build_force = recipes.build_force

        def spy(**kw):
            systems.append(kw["system"])
            return build_force(**kw)

        monkeypatch.setattr(recipes, "build_force", spy)
        s = Scheduler(slots=1, boards=4, workdir=tmp_path,
                      cache=False).start()
        try:
            job = s.submit(JobSpec(kind="force_eval", params={"n": 64}))
            assert s.wait(job.id, timeout=60) and job.state == "done"
        finally:
            s.stop()
        (system,) = systems
        assert system.timing.n_boards == 4
        assert system.describe()["boards"] == 4


def test_evaluate_after_close_fails():
    c = ClusterContext(ClusterSpec(hosts=1)).open()
    c.close()
    with pytest.raises(ClusterError, match="open"):
        c.evaluate(c, None)


def test_stats_survive_close():
    rng = np.random.default_rng(7)
    pos = rng.standard_normal((300, 3))
    mass = np.full(300, 1.0 / 300)
    from repro.core.treecode import TreeCode
    tc = TreeCode(theta=0.75, n_crit=64, cluster=ClusterSpec(hosts=2))
    tc.accelerations(pos, mass, 0.01)
    c = tc.cluster
    tc.close()
    assert c.backends == []
    assert c.model_seconds > 0.0
    assert c.summary()["hosts"] == 2
