"""Cluster configuration: spec validation (K=0, B=0, the network),
the price ledger, the board-set arithmetic (host k is wired to boards
[k*B, (k+1)*B)) and counters that outlive the solver's close."""

import numpy as np
import pytest

from repro.cluster import ClusterBackend, ClusterSpec


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


class TestBoardSets:
    def test_hosts_get_disjoint_sets(self):
        be = ClusterBackend(ClusterSpec(hosts=2, boards=2))
        assert be.board_sets == ((0, 1), (2, 3))
        assert be.summary()["board_sets"] == [[0, 1], [2, 3]]
        wide = ClusterBackend(ClusterSpec(hosts=3, boards=3))
        assert wide.board_sets == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
        assert [s.timing.n_boards for s in wide.systems] == [3, 3, 3]


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


def test_stats_survive_close():
    """Closing the treecode closes its engine, not the cluster's
    counters: they stay readable, the solver keeps counting on, and
    only ``reset_stats`` zeroes them."""
    rng = np.random.default_rng(7)
    pos = rng.standard_normal((300, 3))
    mass = np.full(300, 1.0 / 300)
    from repro.core.treecode import TreeCode
    c = ClusterBackend(ClusterSpec(hosts=2))
    tc = TreeCode(theta=0.75, n_crit=64, backend=c)
    tc.accelerations(pos, mass, 0.01)
    tc.close()
    before = c.summary()
    assert c.model_seconds > 0.0
    assert before["hosts"] == 2
    tc.accelerations(pos, mass, 0.01)
    after = c.summary()
    assert after["predicted_seconds"] == pytest.approx(
        2 * before["predicted_seconds"], rel=1e-12)
    assert after["let_exchange_bytes"] == 2 * before["let_exchange_bytes"]
    c.reset_stats()
    assert c.interactions == 0 and c.model_seconds == 0.0
    tc.close()
