"""Snapshot I/O and the figure-4 slab extraction.

The paper's only visual of the simulation is figure 4: "Particles in a
45 Mpc x 45 Mpc x 2.5 Mpc box are plotted" at z = 0.  :func:`slab`
performs that extraction; :func:`save_snapshot`/:func:`load_snapshot`
round-trip full phase-space states through ``.npz`` files (compressed,
portable, numpy-native -- the emulated analogue of the run's snapshot
files, five of which the paper re-reads to estimate the original
algorithm's operation count).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np


__all__ = ["Snapshot", "save_snapshot", "load_snapshot", "slab"]


@dataclass(frozen=True)
class Snapshot:
    """An immutable phase-space state with metadata."""

    pos: np.ndarray
    vel: np.ndarray
    mass: np.ndarray
    t: float
    z: float = np.nan
    eps: float = 0.0

    @property
    def n_particles(self) -> int:
        return int(self.pos.shape[0])


def save_snapshot(path: Union[str, Path], sim_or_snap, *,
                  z: float = np.nan) -> Path:
    """Write a :class:`Simulation` or :class:`Snapshot` to ``path``."""
    path = Path(path)
    s = sim_or_snap
    eps = float(getattr(s, "eps", 0.0))
    t = float(getattr(s, "t", 0.0))
    zval = z if not np.isnan(z) else float(getattr(s, "z", np.nan))
    np.savez_compressed(path, pos=s.pos, vel=s.vel, mass=s.mass,
                        t=t, z=zval, eps=eps)
    # np.savez appends .npz when missing
    return path if path.suffix == ".npz" else path.with_suffix(
        path.suffix + ".npz")


def load_snapshot(path: Union[str, Path]) -> Snapshot:
    """Read a snapshot written by :func:`save_snapshot`."""
    with np.load(Path(path)) as f:
        return Snapshot(pos=f["pos"].copy(), vel=f["vel"].copy(),
                        mass=f["mass"].copy(), t=float(f["t"]),
                        z=float(f["z"]), eps=float(f["eps"]))


def slab(pos: np.ndarray, *, width: float, thickness: float,
         center: Optional[np.ndarray] = None, axis: int = 2) -> np.ndarray:
    """Particles inside a ``width x width x thickness`` box.

    Reproduces the figure-4 selection: a thin slab through the volume,
    projected along ``axis``.  Returns the ``(M, 2)`` in-plane
    coordinates of the selected particles relative to the slab center.
    """
    pos = np.asarray(pos, dtype=np.float64)
    if center is None:
        center = np.zeros(3)
    center = np.asarray(center, dtype=np.float64)
    rel = pos - center
    inplane = [i for i in range(3) if i != axis]
    sel = ((np.abs(rel[:, axis]) <= 0.5 * thickness)
           & (np.abs(rel[:, inplane[0]]) <= 0.5 * width)
           & (np.abs(rel[:, inplane[1]]) <= 0.5 * width))
    return rel[np.ix_(sel.nonzero()[0], inplane)]
