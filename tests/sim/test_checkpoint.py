"""Checkpoint/restart tests: a resumed run equals an uninterrupted one."""

import numpy as np
import pytest

from repro.core import DirectSummation, TreeCode
from repro.sim.checkpoint import load_checkpoint, save_checkpoint
from repro.sim.models import plummer_model
from repro.sim.simulation import Simulation


def _fresh(rng_seed=11, force=None):
    rng = np.random.default_rng(rng_seed)
    pos, vel, mass = plummer_model(200, rng)
    return Simulation(pos=pos, vel=vel, mass=mass, eps=0.02, G=1.0,
                      force=force if force is not None
                      else DirectSummation())


class TestRoundTrip:
    def test_state_preserved(self, tmp_path):
        sim = _fresh()
        sim.run([0.01] * 5)
        path = save_checkpoint(tmp_path / "ck.npz", sim)
        back = load_checkpoint(path, force=DirectSummation())
        assert np.array_equal(back.pos, sim.pos)
        assert np.array_equal(back.vel, sim.vel)
        assert np.array_equal(back.mass, sim.mass)
        assert back.t == sim.t
        assert back.eps == sim.eps
        assert back.G == sim.G

    def test_history_preserved(self, tmp_path):
        sim = _fresh()
        sim.run([0.01] * 4)
        path = save_checkpoint(tmp_path / "ck.npz", sim)
        back = load_checkpoint(path, force=DirectSummation())
        assert len(back.history) == 4
        assert back.total_interactions == sim.total_interactions
        assert [r.step for r in back.history] == [1, 2, 3, 4]

    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        """10 straight steps == 5 steps + checkpoint + 5 steps."""
        full = _fresh()
        full.run([0.01] * 10)

        half = _fresh()
        half.run([0.01] * 5)
        path = save_checkpoint(tmp_path / "ck.npz", half)
        resumed = load_checkpoint(path, force=DirectSummation())
        resumed.run([0.01] * 5)

        assert np.allclose(resumed.pos, full.pos, rtol=1e-12, atol=1e-14)
        assert np.allclose(resumed.vel, full.vel, rtol=1e-12, atol=1e-14)
        assert resumed.total_interactions == full.total_interactions
        assert resumed.history[-1].step == 10

    def test_resume_with_different_backend(self, tmp_path):
        """A host run can resume on the emulated GRAPE (and vice
        versa) -- the checkpoint carries no solver state."""
        from repro.grape import GrapeBackend
        sim = _fresh()
        sim.run([0.01] * 2)
        path = save_checkpoint(tmp_path / "ck.npz", sim)
        resumed = load_checkpoint(
            path, force=TreeCode(theta=0.7, n_crit=64,
                                 backend=GrapeBackend()))
        resumed.run([0.01] * 2)
        assert len(resumed.history) == 4
        assert np.all(np.isfinite(resumed.pos))

    def test_compressed_checkpoint_loads_to_the_same_state(self,
                                                          tmp_path):
        """Checkpoints are plain ``np.savez`` archives (stored, not
        deflated); one written by ``np.savez_compressed``, the earlier
        format, loads to the same state digest and history."""
        import zipfile
        from repro.sim.recipes import state_digest
        sim = _fresh()
        sim.run([0.01] * 3)
        path = save_checkpoint(tmp_path / "ck.npz", sim)
        with zipfile.ZipFile(path) as z:
            assert {i.compress_type for i in z.infolist()} \
                == {zipfile.ZIP_STORED}
        old = tmp_path / "old.npz"
        with np.load(path) as f:
            np.savez_compressed(old, **f)
        digests = []
        for p in (path, old):
            back = load_checkpoint(p, force=DirectSummation())
            assert back.history == sim.history
            digests.append(state_digest(back.pos, back.vel, back.t))
        assert digests == [state_digest(sim.pos, sim.vel, sim.t)] * 2

    def test_version_rejected(self, tmp_path):
        sim = _fresh()
        path = save_checkpoint(tmp_path / "ck.npz", sim)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path)
