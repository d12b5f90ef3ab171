"""Protocol-misuse matrix for the G5Context API and context isolation.

Complements tests/grape/test_api.py: that file checks the canonical
sequence and results; this one sweeps every call against wrong-state
invocation (before open, after close), checks that a close/reopen
cycle leaves no residue, and that independent contexts never clobber
each other's staged state.
"""

import numpy as np
import pytest

from repro.grape.api import G5Context, G5Error
from repro.grape.system import Grape5System
from repro.grape.timing import GrapeTimingModel


@pytest.fixture
def g5():
    """A closed context; whatever the test leaves open is closed."""
    ctx = G5Context()
    yield ctx
    if ctx.system is not None:
        ctx.close()


def _stage_and_run(ctx, rng, n_i=4, n_j=16):
    xj = rng.standard_normal((n_j, 3))
    mj = np.ones(n_j)
    ctx.set_range(-4.0, 4.0)
    ctx.set_eps_to_all(0.05)
    ctx.set_xmj(0, n_j, xj, mj)
    ctx.set_xi(n_i, xj[:n_i])
    ctx.run()


# every call that requires an open device, under its libg5 name, with
# minimal valid-looking arguments
_CALLS = [
    ("g5_close", lambda g5: g5.close()),
    ("g5_set_range", lambda g5: g5.set_range(0.0, 1.0)),
    ("g5_set_eps_to_all", lambda g5: g5.set_eps_to_all(0.01)),
    ("g5_set_n", lambda g5: g5.set_n(1)),
    ("g5_set_xmj", lambda g5: g5.set_xmj(0, 1, np.zeros((1, 3)),
                                         np.ones(1))),
    ("g5_set_xi", lambda g5: g5.set_xi(1, np.zeros((1, 3)))),
    ("g5_run", lambda g5: g5.run()),
    ("g5_get_force", lambda g5: g5.get_force(1)),
    ("g5_get_number_of_pipelines",
     lambda g5: g5.get_number_of_pipelines()),
    ("g5_get_peak_flops", lambda g5: g5.get_peak_flops()),
]


class TestCallOrderMatrix:
    @pytest.mark.parametrize("name,call", _CALLS,
                             ids=[c[0] for c in _CALLS])
    def test_before_open_raises(self, name, call, g5):
        with pytest.raises(G5Error):
            call(g5)

    @pytest.mark.parametrize("name,call", _CALLS,
                             ids=[c[0] for c in _CALLS])
    def test_use_after_close_raises(self, name, call, g5, rng):
        g5.open()
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        g5.set_xi(2, rng.standard_normal((2, 3)))
        g5.run()
        g5.close()
        with pytest.raises(G5Error):
            call(g5)

    def test_double_open_rejected_and_state_kept(self, g5):
        sys1 = g5.open().system
        with pytest.raises(G5Error):
            g5.open()
        # the failed second open must not have replaced the system
        assert g5.system is sys1

    def test_set_xi_invalidates_previous_run(self, g5, rng):
        g5.open()
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        g5.set_xi(2, rng.standard_normal((2, 3)))
        g5.run()
        g5.get_force(2)
        g5.set_xi(2, rng.standard_normal((2, 3)))
        with pytest.raises(G5Error):
            g5.get_force(2)


class TestCloseReopen:
    def test_reopen_starts_clean(self, g5, rng):
        g5.open()
        g5.set_eps_to_all(0.5)
        g5.set_xmj(0, 8, rng.standard_normal((8, 3)), np.ones(8))
        g5.set_xi(2, rng.standard_normal((2, 3)))
        g5.run()
        g5.close()

        g5.open()
        assert g5.nj == 0 and g5.xi is None and not g5.ran
        assert g5.acc is None and g5.pot is None
        assert np.all(g5.xj == 0.0) and np.all(g5.mj == 0.0)
        # j-memory was cleared, so running again needs a fresh j-set
        g5.set_xi(1, np.zeros((1, 3)))
        with pytest.raises(G5Error):
            g5.run()

    def test_many_cycles(self, g5):
        for _ in range(3):
            g5.open()
            g5.close()
        assert g5.system is None


class TestMemoryBounds:
    def test_staging_capacity_is_the_systems_total(self, g5):
        """The paper machine holds 2 x 262,144 j-particles, and
        ``compute()`` takes that many in one pass -- so does staging."""
        g5.open()
        assert g5.xj.shape[0] == g5.system.jmem_total == 2 * 262_144
        g5.set_n(300_000)
        assert g5.nj == 300_000
        with pytest.raises(G5Error, match="exceeds particle memory"):
            g5.set_n(2 * 262_144 + 1)

    def test_set_n_beyond_capacity(self, g5):
        g5.open()
        cap = g5.xj.shape[0]
        with pytest.raises(G5Error):
            g5.set_n(cap + 1)
        with pytest.raises(G5Error):
            g5.set_n(-1)

    def test_set_xmj_beyond_capacity(self, g5, rng):
        g5.open()
        cap = g5.xj.shape[0]
        with pytest.raises(G5Error):
            g5.set_xmj(cap, 1, rng.standard_normal((1, 3)), np.ones(1))
        with pytest.raises(G5Error):
            g5.set_xmj(-1, 1, rng.standard_normal((1, 3)), np.ones(1))


class TestContextIsolation:
    def test_two_contexts_do_not_clobber(self, rng):
        small = Grape5System(timing=GrapeTimingModel(n_boards=1))
        with G5Context().open() as c1, G5Context().open(small) as c2:
            _stage_and_run(c1, rng, n_i=4, n_j=16)
            _stage_and_run(c2, rng, n_i=2, n_j=8)
            # c2's staging must not have disturbed c1's results
            a1, p1 = c1.get_force(4)
            assert c1.nj == 16 and c2.nj == 8
            assert c1.get_number_of_pipelines() == 32
            assert c2.get_number_of_pipelines() == 16
            a1b, _ = c1.get_force(4)
            assert np.array_equal(a1, a1b)

    def test_context_manager_closes(self):
        ctx = G5Context()
        with ctx.open():
            assert ctx.system is not None
        assert ctx.system is None
        ctx.open()  # reusable afterwards
        ctx.close()


class TestGetForceOutParams:
    def test_out_parameter_overload(self, g5, rng):
        g5.open()
        g5.set_range(-4, 4)
        g5.set_eps_to_all(0.05)
        g5.set_xmj(0, 8, rng.standard_normal((8, 3)), np.ones(8))
        g5.set_xi(3, rng.standard_normal((3, 3)))
        g5.run()
        ref_a, ref_p = g5.get_force(3)
        a = np.empty((3, 3))
        p = np.empty(3)
        ra, rp = g5.get_force(3, a, p)
        assert ra is a and rp is p
        assert np.array_equal(a, ref_a) and np.array_equal(p, ref_p)

    def test_out_parameter_validation(self, g5, rng):
        g5.open()
        g5.set_xmj(0, 4, rng.standard_normal((4, 3)), np.ones(4))
        g5.set_xi(2, rng.standard_normal((2, 3)))
        g5.run()
        with pytest.raises(G5Error):
            g5.get_force(2, np.empty((2, 3)), None)
        with pytest.raises(G5Error):
            g5.get_force(2, np.empty((3, 3)), np.empty(2))


class TestConcurrencyLatch:
    """A context takes no latch: exclusivity is decided where systems
    are handed out (``repro.serve.LeaseBroker``'s slot pool), not in
    the call-sequence handle."""

    def test_unheld_context_is_open_to_any_thread(self, rng):
        import threading
        ctx = G5Context().open()
        ok = []

        def worker():
            _stage_and_run(ctx, rng)
            ok.append(True)

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert ok  # no latch, no restriction
        for gone in ("acquire", "release", "held"):
            assert not hasattr(ctx, gone)
