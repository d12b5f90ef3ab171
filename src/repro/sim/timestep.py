"""Step-size policies.

The paper advances its run with a shared (global) timestep for 999
steps from z = 24 to z = 0.  :func:`paper_schedule` reproduces that
plan for any cosmology and step count.
"""

from __future__ import annotations

import numpy as np

from ..cosmo.cosmology import Cosmology

__all__ = ["paper_schedule"]


def paper_schedule(cosmology: Cosmology, z_init: float, z_final: float,
                   n_steps: int, *, spacing: str = "t") -> np.ndarray:
    """Step schedule between two redshifts.

    Returns the ``(n_steps,)`` array of step sizes in code time units;
    their sum is exactly ``age(z_final) - age(z_init)``.

    ``spacing`` selects how the steps are distributed:

    * ``"t"`` -- equal in cosmic time, the paper's plan (999 equal
      steps of ~13 Myr).  Safe *only* when ``n_steps`` is large
      compared with ``age(z_final)/age(z_init)`` (125 for z 24 -> 0):
      the first steps must resolve the short early expansion time.
    * ``"loga"`` -- equal in ln(a): early steps shrink with the
      expansion time scale, so heavily *scaled-down* step counts
      (tens instead of the paper's 999) still integrate the early
      Hubble flow accurately.
    * ``"a"`` -- equal in scale factor (intermediate).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if z_final >= z_init:
        raise ValueError("z_final must be smaller than z_init")
    a0 = float(cosmology.a_of_z(z_init))
    a1 = float(cosmology.a_of_z(z_final))
    if spacing == "t":
        t0 = cosmology.age(z_init)
        t1 = cosmology.age(z_final)
        return np.full(n_steps, (t1 - t0) / n_steps, dtype=np.float64)
    if spacing == "loga":
        a_grid = np.geomspace(a0, a1, n_steps + 1)
    elif spacing == "a":
        a_grid = np.linspace(a0, a1, n_steps + 1)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")
    times = np.array([cosmology.age(cosmology.z_of_a(a))
                      for a in a_grid])
    return np.diff(times)
