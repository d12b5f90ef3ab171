"""Radial density profiles and NFW fits.

The standard follow-up to finding a halo (``repro.analysis.fof``) is
measuring its density profile; CDM haloes famously follow the
Navarro--Frenk--White form

    rho(r) = rho_s / [ (r/r_s) (1 + r/r_s)^2 ],

cuspy as r^-1 inside the scale radius and falling as r^-3 outside.
:func:`radial_density_profile` bins particles in log-spaced shells and
:func:`fit_nfw` performs the log-space least-squares fit, giving the
scale radius, characteristic density and concentration of a halo --
the quantitative face of the knots in the paper's figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

__all__ = ["radial_density_profile", "NFWProfile", "fit_nfw"]


def radial_density_profile(pos: np.ndarray, mass: np.ndarray,
                           center: Optional[np.ndarray] = None, *,
                           r_min: Optional[float] = None,
                           r_max: Optional[float] = None,
                           bins: int = 24
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spherically-averaged density in log-spaced shells.

    Returns ``(r_centers, rho, counts)``; empty shells carry
    ``rho = nan``.  ``center`` defaults to the center of mass.
    """
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("pos must have shape (N, 3)")
    if mass.shape != (pos.shape[0],):
        raise ValueError("mass must have shape (N,)")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    if center is None:
        center = (mass[:, None] * pos).sum(axis=0) / mass.sum()
    r = np.sqrt(np.einsum("ij,ij->i", pos - center, pos - center))
    r = np.maximum(r, 1e-300)
    if r_min is None:
        r_min = float(np.percentile(r, 1.0))
    if r_max is None:
        r_max = float(r.max()) * (1.0 + 1e-12)
    if not 0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")

    edges = np.geomspace(r_min, r_max, bins + 1)
    idx = np.searchsorted(edges, r, side="right") - 1
    ok = (idx >= 0) & (idx < bins)
    msum = np.zeros(bins)
    csum = np.zeros(bins, dtype=np.int64)
    np.add.at(msum, idx[ok], mass[ok])
    np.add.at(csum, idx[ok], 1)
    vol = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    with np.errstate(invalid="ignore"):
        rho = np.where(csum > 0, msum / vol, np.nan)
    centers = np.sqrt(edges[:-1] * edges[1:])
    return centers, rho, csum


@dataclass(frozen=True)
class NFWProfile:
    """A fitted NFW halo."""

    rho_s: float
    r_s: float

    def __call__(self, r: np.ndarray) -> np.ndarray:
        x = np.asarray(r, dtype=np.float64) / self.r_s
        x = np.maximum(x, 1e-12)
        return self.rho_s / (x * (1.0 + x) ** 2)

    def concentration(self, r_vir: float) -> float:
        """c = r_vir / r_s."""
        if r_vir <= 0:
            raise ValueError("r_vir must be positive")
        return r_vir / self.r_s


def fit_nfw(r: np.ndarray, rho: np.ndarray, *,
            weights: Optional[np.ndarray] = None) -> NFWProfile:
    """Least-squares NFW fit in log space.

    NaN or non-positive density bins are ignored; ``weights``
    (e.g. shell particle counts) weight the residuals.
    """
    r = np.asarray(r, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    ok = np.isfinite(rho) & (rho > 0) & (r > 0)
    if ok.sum() < 3:
        raise ValueError("need >= 3 usable profile bins")
    rr, dd = r[ok], rho[ok]
    w = (np.sqrt(np.asarray(weights, dtype=np.float64)[ok])
         if weights is not None else None)

    def model(logr, log_rho_s, log_rs):
        x = np.exp(logr) / np.exp(log_rs)
        return log_rho_s - np.log(x) - 2.0 * np.log1p(x)

    # initial guess: rs at the profile's half-way log radius
    p0 = (float(np.log(dd.max())), float(np.log(np.median(rr))))
    sigma = None if w is None else 1.0 / np.maximum(w, 1e-12)
    popt, _ = optimize.curve_fit(model, np.log(rr), np.log(dd), p0=p0,
                                 sigma=sigma, maxfev=10_000)
    return NFWProfile(rho_s=float(np.exp(popt[0])),
                      r_s=float(np.exp(popt[1])))
