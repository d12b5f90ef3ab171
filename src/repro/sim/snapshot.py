"""The figure-4 slab extraction.

The paper's only visual of the simulation is figure 4: "Particles in a
45 Mpc x 45 Mpc x 2.5 Mpc box are plotted" at z = 0.  :func:`slab`
performs that extraction on any position array.  The run's one
on-disk state format is the checkpoint (:mod:`repro.sim.checkpoint`):
where the paper re-read five snapshot files to estimate the original
algorithm's operation count, this code re-reads checkpoints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


__all__ = ["slab"]


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
