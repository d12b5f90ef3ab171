"""Gaussian random realisations of a density field on a periodic grid.

This is the discrete-realisation step of an initial-condition generator
(COSMICS's GRAFIC component): draw a Gaussian random field whose power
spectrum is a prescribed P(k), on an ``ngrid^3`` mesh in a periodic box
of side ``box`` Mpc.

The construction uses the white-noise route, which keeps Hermitian
symmetry trivially exact: draw unit white noise per cell, FFT, multiply
each mode by ``sqrt(P(k) * ngrid^3 / V)``, inverse FFT.  With the NumPy
DFT convention this yields ``<|delta_k|^2> = P(k) * ngrid^6 / V``, the
discretisation of ``<delta_k delta_k'*> = (2 pi)^3 delta_D P(k)``, so
the real-space field has the correct two-point statistics (verified in
``tests/cosmo/test_gaussian.py`` against sigma(R)).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

__all__ = ["grid_wavenumbers", "gaussian_density_field", "displacement_field"]


def grid_wavenumbers(ngrid: int, box: float) -> Tuple[np.ndarray, ...]:
    """Angular wavenumber component arrays for an ``ngrid^3`` FFT mesh.

    Returns broadcastable ``(kx, ky, kz)`` in Mpc^-1 for the full
    (complex) FFT layout.
    """
    if ngrid < 2:
        raise ValueError("ngrid must be >= 2")
    if box <= 0:
        raise ValueError("box must be positive")
    k1 = 2.0 * np.pi * np.fft.fftfreq(ngrid, d=box / ngrid)
    kx = k1[:, None, None]
    ky = k1[None, :, None]
    kz = k1[None, None, :]
    return kx, ky, kz


def _mode_amplitudes(power: Callable[[np.ndarray], np.ndarray],
                     ngrid: int, box: float) -> np.ndarray:
    kx, ky, kz = grid_wavenumbers(ngrid, box)
    kk = np.sqrt(kx**2 + ky**2 + kz**2)
    amp = np.sqrt(np.maximum(power(kk), 0.0) * ngrid**3 / box**3)
    amp[0, 0, 0] = 0.0  # no DC mode: the box has the mean density
    # Zero the Nyquist planes: a real field's Nyquist modes must be
    # real, which the displacement relation psi_k = i k delta_k / k^2
    # cannot honour (i * real is imaginary).  Dropping them keeps the
    # density and displacement fields exactly consistent -- the
    # standard initial-condition-generator convention.
    if ngrid % 2 == 0:
        half = ngrid // 2
        amp[half, :, :] = 0.0
        amp[:, half, :] = 0.0
        amp[:, :, half] = 0.0
    return amp


def gaussian_density_field(power: Callable[[np.ndarray], np.ndarray],
                           ngrid: int, box: float,
                           rng: np.random.Generator) -> np.ndarray:
    """A real Gaussian field with spectrum ``power`` on the mesh.

    Returns the density contrast ``delta`` with shape
    ``(ngrid, ngrid, ngrid)`` and zero mean.
    """
    white = rng.standard_normal((ngrid, ngrid, ngrid))
    wk = np.fft.fftn(white)
    dk = wk * _mode_amplitudes(power, ngrid, box)
    return np.fft.ifftn(dk).real


def displacement_field(power: Callable[[np.ndarray], np.ndarray],
                       ngrid: int, box: float,
                       rng: np.random.Generator
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Density contrast *and* its Zel'dovich displacement potential
    gradient, from one consistent random draw.

    The displacement field solves ``div psi = -delta`` (linear
    continuity), i.e. ``psi_k = i k delta_k / k^2``.  Returns
    ``(delta, psi)`` with ``psi`` shaped ``(ngrid, ngrid, ngrid, 3)``;
    both are the z = 0 linear fields (growth factor 1), to be scaled by
    ``D(z)`` by the caller.
    """
    white = rng.standard_normal((ngrid, ngrid, ngrid))
    wk = np.fft.fftn(white)
    dk = wk * _mode_amplitudes(power, ngrid, box)
    delta = np.fft.ifftn(dk).real

    kx, ky, kz = grid_wavenumbers(ngrid, box)
    k2 = kx**2 + ky**2 + kz**2
    k2[0, 0, 0] = 1.0  # avoid 0/0; dk there is zero anyway
    psi = np.empty((ngrid, ngrid, ngrid, 3), dtype=np.float64)
    for axis, kc in enumerate((kx, ky, kz)):
        psi_k = 1j * kc * dk / k2
        psi[..., axis] = np.fft.ifftn(psi_k).real
    return delta, psi
