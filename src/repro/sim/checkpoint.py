"""Checkpoint / restart.

The paper's run took 8.37 hours on dedicated hardware; the real code
checkpoints.  A checkpoint stores the full phase-space state, the time,
the unit constants, and the accumulated per-step statistics (the
interaction counts feeding the section-5 accounting), so a restarted
run reports the same totals as an uninterrupted one -- which is
verified in ``tests/sim/test_checkpoint.py``.

Force solvers are *not* pickled: a restart constructs its own solver
(possibly a different backend -- e.g. resume a host-only run on the
emulated GRAPE), which matches how the real code treats the hardware.

Crash safety
------------
:func:`save_checkpoint` is atomic: the archive is written to a
temporary file in the same directory, flushed and fsynced, then moved
over the destination with ``os.replace`` -- a crash mid-write can
never leave a half-written file under the checkpoint's name.  Every
successful write also updates a *last-good pointer* (a small JSON
sidecar, ``<name>.npz.last_good``) recording the newest generations
and their SHA-256 digests.  With ``rotate=True`` each save goes to a
new per-step file (``<name>.s000123.npz``) instead of overwriting, the
pointer keeps the newest :data:`KEEP_GENERATIONS`, and older rotated
files are pruned -- so one corrupted generation never strands a run.

:func:`load_checkpoint` raises :class:`CheckpointCorrupt` for anything
unreadable -- truncation, flipped bytes, missing arrays, inconsistent
history lengths -- and a plain :class:`ValueError` for a well-formed
archive of an unsupported format version.  :func:`load_latest` walks
the pointer newest-first, verifying digests, and returns the first
generation that loads; the simulation loop's auto-recovery
(``Simulation.run(..., resume_on_fault=True)``) is built on it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .simulation import Simulation, StepRecord

__all__ = ["save_checkpoint", "load_checkpoint", "load_latest",
           "last_good_entries", "CheckpointCorrupt", "KEEP_GENERATIONS"]

logger = logging.getLogger(__name__)

_FORMAT_VERSION = 1

#: generations retained by the last-good pointer in ``rotate`` mode
KEEP_GENERATIONS = 2

_REQUIRED_KEYS = (
    "version", "pos", "vel", "mass", "eps", "G", "t",
    "hist_step", "hist_t", "hist_dt", "hist_interactions",
    "hist_mll", "hist_groups", "hist_wall",
)


class CheckpointCorrupt(RuntimeError):
    """The checkpoint file exists but cannot be read back faithfully."""


def _final_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")


def _pointer_path(final: Path) -> Path:
    return final.with_name(final.name + ".last_good")


def _rotated_name(final: Path, step: int) -> Path:
    return final.with_name(f"{final.stem}.s{step:06d}.npz")


def _is_rotated(final: Path, name: str) -> bool:
    return re.fullmatch(re.escape(final.stem) + r"\.s\d{6}\.npz",
                        name) is not None


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _fsync_dir(directory: Path) -> None:
    # Persist the rename itself, not just the file data; some
    # filesystems (or none at all, on exotic platforms) refuse O_RDONLY
    # directory fds, which is a durability loss, not a correctness one.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform quirk
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform quirk
        pass
    finally:
        os.close(fd)


def _atomic_write(target: Path, writer) -> None:
    """Write via tmp + fsync + ``os.replace``: all-or-nothing."""
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            writer(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(target.parent)


def _read_pointer(final: Path) -> List[dict]:
    ptr = _pointer_path(final)
    try:
        doc = json.loads(ptr.read_text())
        entries = doc.get("entries", [])
        return entries if isinstance(entries, list) else []
    except (OSError, ValueError):
        return []


def _update_pointer(final: Path, written: Path, sim: Simulation) -> None:
    entries = [e for e in _read_pointer(final)
               if isinstance(e, dict) and e.get("path") != written.name]
    entries.insert(0, {"path": written.name, "sha256": _sha256(written),
                       "step": len(sim.history), "t": float(sim.t)})
    keep, dropped = entries[:KEEP_GENERATIONS], entries[KEEP_GENERATIONS:]
    doc = json.dumps({"version": _FORMAT_VERSION, "entries": keep},
                     indent=2)
    _atomic_write(_pointer_path(final),
                  lambda fh: fh.write(doc.encode()))
    # prune rotated generations the pointer no longer references; the
    # primary file is never a pruning candidate
    for e in dropped:
        name = str(e.get("path", ""))
        if _is_rotated(final, name):
            (final.parent / name).unlink(missing_ok=True)


def save_checkpoint(path: Union[str, Path], sim: Simulation, *,
                    rotate: bool = False) -> Path:
    """Atomically write the simulation state and history as ``.npz``.

    With ``rotate=True`` the archive goes to a fresh per-step file
    (``<name>.s000123.npz``) next to ``path`` instead of overwriting
    it, and the last-good pointer keeps the newest
    :data:`KEEP_GENERATIONS` generations (older rotated files are
    pruned).  Returns the path actually written.
    """
    final = _final_path(path)
    target = _rotated_name(final, len(sim.history)) if rotate else final
    h = sim.history
    payload = dict(
        version=_FORMAT_VERSION,
        pos=sim.pos, vel=sim.vel, mass=sim.mass,
        eps=sim.eps, G=sim.G, t=sim.t,
        hist_step=np.array([r.step for r in h], dtype=np.int64),
        hist_t=np.array([r.t for r in h]),
        hist_dt=np.array([r.dt for r in h]),
        hist_interactions=np.array([r.interactions for r in h],
                                   dtype=np.int64),
        hist_mll=np.array([r.mean_list_length for r in h]),
        hist_groups=np.array([r.n_groups for r in h], dtype=np.int64),
        hist_wall=np.array([r.wall_seconds for r in h]),
    )
    _atomic_write(target, lambda fh: np.savez(fh, **payload))
    _update_pointer(final, target, sim)
    logger.debug("checkpoint written: %s (step %d, t=%.6g)", target,
                 len(sim.history), sim.t)
    return target


def load_checkpoint(path: Union[str, Path], *,
                    force: Optional[object] = None) -> Simulation:
    """Rebuild a :class:`Simulation` from a checkpoint.

    ``force`` supplies the force solver for the resumed run (default:
    the Simulation's standard treecode default).  Raises
    :class:`CheckpointCorrupt` when the file cannot be read back
    faithfully and :class:`ValueError` for an unsupported (but intact)
    format version.
    """
    p = Path(path)
    try:
        f = np.load(p)
    except Exception as e:
        raise CheckpointCorrupt(
            f"cannot open checkpoint {p}: {e}") from e
    with f:
        missing = [k for k in _REQUIRED_KEYS if k not in f.files]
        if missing:
            raise CheckpointCorrupt(
                f"checkpoint {p} is missing arrays: "
                f"{', '.join(missing)}")
        try:
            version = int(f["version"])
        except Exception as e:
            raise CheckpointCorrupt(
                f"checkpoint {p}: unreadable version field: {e}") from e
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version}")
        try:
            sim = Simulation(pos=f["pos"].copy(), vel=f["vel"].copy(),
                             mass=f["mass"].copy(), eps=float(f["eps"]),
                             force=force, G=float(f["G"]),
                             t=float(f["t"]))
            hist = [np.asarray(f[k]) for k in
                    ("hist_step", "hist_t", "hist_dt",
                     "hist_interactions", "hist_mll", "hist_groups",
                     "hist_wall")]
            lengths = {a.shape[0] for a in hist}
            if len(lengths) > 1:
                raise CheckpointCorrupt(
                    f"checkpoint {p}: history arrays have inconsistent "
                    f"lengths {sorted(lengths)}")
            sim.history = [
                StepRecord(step=int(s), t=float(t), dt=float(dt),
                           interactions=int(i), mean_list_length=float(m),
                           n_groups=int(g), wall_seconds=float(w))
                for s, t, dt, i, m, g, w in zip(*hist)
            ]
        except CheckpointCorrupt:
            raise
        except Exception as e:
            # torn zip members, zlib errors, bad shapes: all corruption
            raise CheckpointCorrupt(
                f"cannot read checkpoint {p}: {e}") from e
    return sim


def last_good_entries(path: Union[str, Path]) -> List[dict]:
    """The last-good pointer's generation records, newest first.

    Each entry is ``{"path", "sha256", "step", "t"}`` exactly as the
    pointer sidecar stores it -- the SHA-256 is of the *checkpoint
    archive*, so callers (e.g. the serve layer's durable job store)
    can record which bit-exact generation a resumed job continued
    from.  Returns ``[]`` when no pointer exists.
    """
    return [e for e in _read_pointer(_final_path(path))
            if isinstance(e, dict)]


def load_latest(path: Union[str, Path], *,
                force: Optional[object] = None) -> Simulation:
    """Load the newest *intact* generation recorded by the last-good
    pointer of ``path`` (falling back to ``path`` itself when no
    pointer exists).

    Each candidate's SHA-256 is verified against the pointer before
    loading; a generation that is missing, corrupt or digest-mismatched
    is skipped with a warning.  Raises :class:`CheckpointCorrupt` when
    no generation loads.
    """
    final = _final_path(path)
    candidates: List[Tuple[Path, Optional[str]]] = [
        (final.parent / str(e.get("path", "")), e.get("sha256"))
        for e in _read_pointer(final) if isinstance(e, dict)]
    if not candidates:
        candidates = [(final, None)]
    errors = []
    for p, sha in candidates:
        try:
            if not p.is_file():
                raise CheckpointCorrupt(f"{p} does not exist")
            if sha is not None and _sha256(p) != sha:
                raise CheckpointCorrupt(
                    f"{p} does not match its recorded digest")
            return load_checkpoint(p, force=force)
        except (CheckpointCorrupt, ValueError) as e:
            logger.warning("checkpoint generation unusable: %s", e)
            errors.append(f"{p.name}: {e}")
    raise CheckpointCorrupt(
        "no loadable checkpoint generation:\n  " + "\n  ".join(errors))
