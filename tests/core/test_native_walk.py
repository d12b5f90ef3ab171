"""The compiled tree walk emits the NumPy frontier walk's lists bit for bit.

``repro_walk`` (``repro.core.kernels.cnative``) walks each sink's tree
breadth first from the root; the NumPy frontier walk, which stays as the
oracle and the fallback, cuts its frontier only at sink boundaries, so
it produces the same per-sink order at any chunk size.  These tests
compare the two walks' raw CSR arrays -- unsorted -- on every kind of
tree and sink the treecode builds, and pin which MACs may take the
compiled walk at all.  The compiled walk fills its lists in one pass
into buffers sized from the thread's last walk and doubles a buffer
that fills; ``TestRegrowth`` reruns every bit-identity case from a
one-entry first buffer on every walk, so the walk stops, regrows and
resumes at least log2(list total) times, several times on one sink.
"""

import numpy as np
import pytest

from repro.core import traversal
from repro.core.groups import make_groups
from repro.core.kernels import batch, cnative
from repro.core.mac import AbsoluteErrorMAC, BarnesHutMAC
from repro.core.morton import MAX_LEVEL
from repro.core.multipole import compute_moments
from repro.core.octree import build_octree
from repro.core.traversal import build_interaction_lists, count_interactions
from repro.core.treecode import TreeCode
from repro.sim.models import plummer_model

native = pytest.mark.skipif(not cnative.available(),
                            reason="no C compiler: the NumPy walk runs")


class OwnAccept(BarnesHutMAC):
    """Overrides ``accept``: the compiled walk cannot know what it
    does, so this MAC must take the NumPy walk."""

    def accept(self, tree, cells, sink_center, sink_radius):
        return super().accept(tree, cells, sink_center, sink_radius)


def _tree(pos, mass, leaf_size=8):
    return compute_moments(build_octree(pos, mass, leaf_size=leaf_size))


def _oracle(tree, sc, sr, mac, chunk=traversal.DEFAULT_CHUNK, collect=True):
    return traversal._frontier_walk(tree, np.asarray(sc, dtype=float),
                                    np.asarray(sr, dtype=float), mac,
                                    chunk, collect)


def _compiled(tree, sc, sr, mac, collect=True):
    out = batch.tree_walk(batch.walk_inputs(tree, mac),
                          np.asarray(sc, dtype=float),
                          np.asarray(sr, dtype=float), collect)
    assert out is not None
    return out


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype == np.int64
        assert np.array_equal(x, y)


class _Forgetful:
    """A per-thread hint that keeps nothing: every walk starts from
    the first capacity."""

    def __setattr__(self, name, value):
        pass


@pytest.fixture
def buffers():
    """The walk's buffers as the program sizes them: ``(mode, the
    regrowths seen)``; ``TestRegrowth`` overrides it."""
    return "hinted", []


def _check_buffers(buffers, n_grows, out):
    """The index arrays hold no slack past their lists; from a
    one-entry buffer, the cell buffer alone doubled to its total."""
    cell_off, cell_idx, part_off, part_idx = out
    for off, idx in ((cell_off, cell_idx), (part_off, part_idx)):
        assert idx.flags.owndata and idx.shape == (off[-1],)
    mode, grows = buffers
    if mode == "regrow" and len(cell_off) > 1:
        # sinks whose own lists are longer than the first buffer
        assert np.diff(cell_off).max() > 1 and np.diff(part_off).max() > 1
        assert len(grows) - n_grows >= np.log2(cell_off[-1])


def _sink_sets(tree, n_crit=32):
    g = make_groups(tree, n_crit)
    yield g.center, g.radius
    yield tree.pos_sorted, np.zeros(tree.n_particles)


@pytest.fixture
def clustered_tree(clustered_2k):
    return _tree(*clustered_2k)


@pytest.fixture
def plummer_tree(plummer_pos_mass):
    return _tree(*plummer_pos_mass)


@native
class TestBitIdentical:
    @pytest.mark.parametrize("theta", [0.3, 0.75, 1.2])
    @pytest.mark.parametrize("which", ["plummer_tree", "clustered_tree"])
    def test_group_and_particle_sinks(self, request, which, theta,
                                      buffers):
        tree = request.getfixturevalue(which)
        mac = BarnesHutMAC(theta)
        for sc, sr in _sink_sets(tree):
            n_grows = len(buffers[1])
            out = _compiled(tree, sc, sr, mac)
            _assert_same(out, _oracle(tree, sc, sr, mac))
            _check_buffers(buffers, n_grows, out)

    def test_single_sink(self, clustered_tree):
        mac = BarnesHutMAC(0.75)
        for k in (0, clustered_tree.n_particles - 1):
            sc = clustered_tree.pos_sorted[k:k + 1]
            _assert_same(_compiled(clustered_tree, sc, [0.0], mac),
                         _oracle(clustered_tree, sc, [0.0], mac))

    def test_no_sinks(self, plummer_tree):
        out = _compiled(plummer_tree, np.empty((0, 3)), np.empty(0),
                        BarnesHutMAC(0.75))
        _assert_same(out, _oracle(plummer_tree, np.empty((0, 3)),
                                  np.empty(0), BarnesHutMAC(0.75)))
        assert [len(a) for a in out] == [1, 0, 1, 0]

    def test_zero_mass_cells(self, rng):
        pos = rng.standard_normal((1500, 3))
        mass = np.where(pos[:, 0] > 0.3, 0.0, 1.0 / 1500)
        tree = _tree(pos, mass)
        assert np.any(tree.mass[1:] == 0.0)
        mac = BarnesHutMAC(0.6)
        for sc, sr in _sink_sets(tree):
            a = _compiled(tree, sc, sr, mac)
            _assert_same(a, _oracle(tree, sc, sr, mac))
            assert not np.any(tree.mass[a[1]] == 0.0)

    def test_coincident_particles(self, rng):
        """Twenty particles on one point make a single-child chain
        down to MAX_LEVEL; the walk must follow it like the oracle."""
        pos = np.concatenate([np.full((20, 3), 0.123),
                              rng.uniform(-1, 1, (300, 3))])
        tree = _tree(pos, np.full(320, 1.0 / 320))
        assert tree.depth == MAX_LEVEL
        mac = BarnesHutMAC(0.75)
        for sc, sr in _sink_sets(tree, n_crit=16):
            _assert_same(_compiled(tree, sc, sr, mac),
                         _oracle(tree, sc, sr, mac))

    @pytest.mark.parametrize("chunk", [1, 64, 1000])
    def test_forced_small_chunk(self, clustered_tree, chunk):
        mac = BarnesHutMAC(0.75)
        for sc, sr in _sink_sets(clustered_tree):
            _assert_same(_compiled(clustered_tree, sc, sr, mac),
                         _oracle(clustered_tree, sc, sr, mac, chunk=chunk))

    @pytest.mark.parametrize("algorithm", ["modified", "original"])
    def test_every_engine_shard(self, monkeypatch, algorithm, buffers):
        """Each shard the engine cuts a sweep into is walked by the
        compiled walk, and gets the oracle's lists for its sink range."""
        pos, _, mass = plummer_model(4096, np.random.default_rng(7))
        seen = []

        def checked_builder(tree, mac, **kw):
            build = traversal.list_builder(tree, mac, **kw)

            def checked(sc, sr):
                n_grows = len(buffers[1])
                lists = build(sc, sr)
                out = (lists.cell_off, lists.cell_idx, lists.part_off,
                       lists.part_idx)
                _assert_same(out, _oracle(tree, sc, sr, mac))
                _check_buffers(buffers, n_grows, out)
                seen.append(len(sr))
                return lists
            return checked

        monkeypatch.setattr("repro.core.treecode.list_builder",
                            checked_builder)
        tc = TreeCode(n_crit=64)
        try:
            tc.accelerations(pos, mass, eps=0.01, algorithm=algorithm)
        finally:
            tc.close()
        assert len(seen) == 8 and sum(seen) == tc.last_stats.n_groups


class TestRegrowth(TestBitIdentical):
    """Every case above again with the first capacity at its minimum
    (one entry per buffer) on every walk."""

    @pytest.fixture(autouse=True)
    def buffers(self, monkeypatch):
        grows, grown = [], batch._grown
        monkeypatch.setattr(batch, "_FIRST_PER_SINK", (0.0, 0.0))
        monkeypatch.setattr(batch, "_per_sink", _Forgetful())
        monkeypatch.setattr(batch, "_grown",
                            lambda *a: grows.append(a) or grown(*a))
        return "regrow", grows


@native
class TestCountsPass:
    def test_counts_pass_is_count_interactions(self, clustered_tree):
        mac = BarnesHutMAC(0.75)
        for sc, sr in _sink_sets(clustered_tree):
            cells, parts = _compiled(clustered_tree, sc, sr, mac,
                                     collect=False)
            _assert_same((cells, parts), _oracle(clustered_tree, sc, sr,
                                                 mac, collect=False))
            _assert_same((cells, parts),
                         count_interactions(clustered_tree, sc, sr, mac))
            lists = build_interaction_lists(clustered_tree, sc, sr, mac)
            _assert_same((cells, parts),
                         (lists.cell_counts, lists.part_counts))

    def test_barnes_hut_takes_the_compiled_walk(self, monkeypatch,
                                                plummer_tree):
        def no_frontier(*args):
            raise AssertionError("NumPy walk taken")

        monkeypatch.setattr(traversal, "_frontier_walk", no_frontier)
        sc = plummer_tree.pos_sorted[:16]
        build_interaction_lists(plummer_tree, sc, np.zeros(16),
                                BarnesHutMAC(0.75))
        count_interactions(plummer_tree, sc, np.zeros(16), BarnesHutMAC(0.75))


class TestFallbackRouting:
    @pytest.mark.parametrize("mac", [AbsoluteErrorMAC(1e-3), OwnAccept(0.75)],
                             ids=["absolute_error", "own_accept"])
    def test_mac_without_threshold_takes_numpy_walk(self, monkeypatch,
                                                    plummer_tree, mac):
        def no_compiled(*args):
            raise AssertionError("compiled walk taken")

        monkeypatch.setattr(batch, "tree_walk", no_compiled)
        sc, sr = plummer_tree.pos_sorted[:16], np.zeros(16)
        lists = build_interaction_lists(plummer_tree, sc, sr, mac)
        _assert_same((lists.cell_off, lists.cell_idx, lists.part_off,
                      lists.part_idx), _oracle(plummer_tree, sc, sr, mac))
        count_interactions(plummer_tree, sc, sr, mac)

    def test_own_accept_lists_equal_the_compiled_ones(self, clustered_tree):
        """Overriding ``accept`` changes the route, not the lists."""
        for sc, sr in _sink_sets(clustered_tree):
            a = build_interaction_lists(clustered_tree, sc, sr,
                                        BarnesHutMAC(0.75))
            b = build_interaction_lists(clustered_tree, sc, sr,
                                        OwnAccept(0.75))
            _assert_same((a.cell_off, a.cell_idx, a.part_off, a.part_idx),
                         (b.cell_off, b.cell_idx, b.part_off, b.part_idx))
