"""Checkpoint crash-safety and corruption handling.

Two properties under test:

* **atomicity** -- a crash at any point during a save leaves either
  the previous complete checkpoint or the new complete one on disk,
  never a torn file;
* **typed corruption** -- a checkpoint damaged at *any* byte offset
  either loads exactly or raises :class:`CheckpointCorrupt` (never a
  wrong-but-plausible state, never an untyped crash), which is what
  makes the last-good-pointer fallback safe to automate.

The offset sweep is property-based (hypothesis, derandomized for
seeded reproducibility).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import corrupt_file
from repro.sim import Simulation, StepRecord
from repro.sim.checkpoint import (CheckpointCorrupt, KEEP_GENERATIONS,
                                  load_checkpoint, load_latest,
                                  save_checkpoint)

pytestmark = pytest.mark.chaos


def _small_sim(n=24, steps=3, seed=9):
    rng = np.random.default_rng(seed)
    sim = Simulation(pos=rng.normal(size=(n, 3)),
                     vel=rng.normal(size=(n, 3)),
                     mass=np.full(n, 1.0 / n), eps=0.05,
                     force=object(), G=1.0, t=0.25)
    sim.history = [StepRecord(step=i + 1, t=0.1 * (i + 1), dt=0.1,
                              interactions=100 + i,
                              mean_list_length=8.5, n_groups=4,
                              wall_seconds=0.01)
                   for i in range(steps)]
    return sim


def _assert_equal(a: Simulation, b: Simulation) -> None:
    assert np.array_equal(a.pos, b.pos)
    assert np.array_equal(a.vel, b.vel)
    assert np.array_equal(a.mass, b.mass)
    assert a.t == b.t and a.eps == b.eps and a.G == b.G
    assert a.history == b.history


class TestAtomicSave:
    def test_failed_write_preserves_previous_checkpoint(self, tmp_path,
                                                        monkeypatch):
        path = tmp_path / "ck.npz"
        sim = _small_sim(steps=2)
        save_checkpoint(path, sim)
        before = path.read_bytes()

        import repro.sim.checkpoint as ckpt

        def explode(fh, **arrays):
            fh.write(b"partial garbage")
            raise OSError("disk on fire")

        monkeypatch.setattr(ckpt.np, "savez", explode)
        with pytest.raises(OSError):
            save_checkpoint(path, _small_sim(steps=3))
        assert path.read_bytes() == before          # old file intact
        assert not list(tmp_path.glob("*.tmp"))     # tmp cleaned up
        _assert_equal(load_checkpoint(path, force=object()), sim)

    def test_rotation_keeps_bounded_generations(self, tmp_path):
        path = tmp_path / "ck.npz"
        for steps in (1, 2, 3, 4):
            save_checkpoint(path, _small_sim(steps=steps), rotate=True)
        ptr = json.loads((tmp_path / "ck.npz.last_good").read_text())
        names = [e["path"] for e in ptr["entries"]]
        assert names == ["ck.s000004.npz", "ck.s000003.npz"]
        assert len(names) == KEEP_GENERATIONS
        on_disk = sorted(p.name for p in tmp_path.glob("ck.s*.npz"))
        assert on_disk == sorted(names)  # older generations pruned

    def test_load_latest_prefers_newest(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, _small_sim(steps=1), rotate=True)
        save_checkpoint(path, _small_sim(steps=5), rotate=True)
        sim = load_latest(path, force=object())
        assert len(sim.history) == 5

    def test_load_latest_without_pointer_falls_back_to_path(self,
                                                            tmp_path):
        path = tmp_path / "ck.npz"
        sim = _small_sim()
        save_checkpoint(path, sim)
        (tmp_path / "ck.npz.last_good").unlink()
        _assert_equal(load_latest(path, force=object()), sim)


class TestPointerFallback:
    def test_corrupt_newest_generation_falls_back(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, _small_sim(steps=2), rotate=True)
        save_checkpoint(path, _small_sim(steps=6), rotate=True)
        corrupt_file(tmp_path / "ck.s000006.npz", mode="truncate")
        sim = load_latest(path, force=object())
        assert len(sim.history) == 2

    def test_digest_mismatch_is_detected(self, tmp_path):
        """A single flipped byte that still yields a readable zip is
        caught by the pointer's SHA-256, not trusted."""
        path = tmp_path / "ck.npz"
        save_checkpoint(path, _small_sim(steps=2), rotate=True)
        save_checkpoint(path, _small_sim(steps=6), rotate=True)
        corrupt_file(tmp_path / "ck.s000006.npz", mode="flip",
                     offset=40)
        sim = load_latest(path, force=object())
        assert len(sim.history) == 2

    def test_all_generations_corrupt_raises(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, _small_sim(steps=2), rotate=True)
        save_checkpoint(path, _small_sim(steps=6), rotate=True)
        for p in tmp_path.glob("ck.s*.npz"):
            corrupt_file(p, mode="truncate", offset=30)
        with pytest.raises(CheckpointCorrupt):
            load_latest(path, force=object())

    def test_missing_file_raises_typed(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_latest(tmp_path / "never_written.npz")


class TestCorruptionProperties:
    """Damage at a random offset: load either succeeds exactly or
    raises CheckpointCorrupt.  Seeded (derandomize) so CI is stable."""

    @staticmethod
    def _baseline(tmp_path):
        path = tmp_path / "ck.npz"
        sim = _small_sim()
        save_checkpoint(path, sim)
        return path, path.read_bytes(), sim

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0),
           mode=st.sampled_from(["truncate", "flip"]))
    def test_damage_anywhere_is_typed(self, tmp_path_factory, frac,
                                      mode):
        tmp_path = tmp_path_factory.mktemp("chaos")
        path, blob, sim = self._baseline(tmp_path)
        offset = min(int(frac * len(blob)), len(blob) - 1)
        corrupt_file(path, mode=mode, offset=offset)
        try:
            loaded = load_checkpoint(path, force=object())
        except CheckpointCorrupt:
            return  # typed failure: the contract holds
        _assert_equal(loaded, sim)  # or the load is exact

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_seeded_truncation_reproducible(self, tmp_path_factory,
                                            seed):
        tmp_path = tmp_path_factory.mktemp("chaos")
        path, blob, _ = self._baseline(tmp_path)
        off1 = corrupt_file(path, mode="truncate", seed=seed)
        path.write_bytes(blob)
        off2 = corrupt_file(path, mode="truncate", seed=seed)
        assert off1 == off2
