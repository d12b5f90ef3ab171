"""The G5 force pipeline datapath.

One pipeline evaluates, per clock cycle, one softened point-mass
interaction

    f_i += m_j * dx / (dx.dx + eps^2)^{3/2},
    p_i -= m_j / (dx.dx + eps^2)^{1/2}

in the reduced-precision arithmetic described in
:mod:`repro.grape.numerics`.  Under the Warren--Salmon counting
convention the paper uses, this datapath is worth **38 floating-point
operations per interaction** (the inverse square root and the divides
are counted at their polynomial-evaluation cost); see
:mod:`repro.perf.opcount`.

The emulation is vectorised: a call processes an (n_i, n_j) tile at
once, applying the same rounding the serial hardware would apply to
each interaction independently, then accumulating per-component sums in
a wide accumulator (float64 here, 64-bit fixed point on the chip).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .numerics import FixedPointFormat, G5Numerics, G5_NUMERICS, round_mantissa

__all__ = ["G5Pipeline"]

#: Tile bound for the (n_i, n_j_chunk) broadcast temporaries.
_TILE = 1 << 21


@dataclass
class G5Pipeline:
    """Functional model of one G5 force pipeline.

    Parameters
    ----------
    numerics:
        Precision parameters; defaults to the calibrated GRAPE-5 values.
    coord_format:
        Fixed-point coordinate format, installed by ``g5_set_range``.
        When ``None`` (or when ``numerics.position_bits <= 0``) the
        coordinates pass through unquantised.
    """

    numerics: G5Numerics = G5_NUMERICS
    coord_format: Optional[FixedPointFormat] = None

    def set_range(self, xmin: float, xmax: float) -> None:
        """Install the coordinate window (the ``g5_set_range`` call)."""
        if self.numerics.position_bits > 0:
            self.coord_format = FixedPointFormat(
                bits=self.numerics.position_bits, xmin=xmin, xmax=xmax)
        else:
            self.coord_format = None

    # ------------------------------------------------------------------
    def _quantize(self, x: np.ndarray) -> np.ndarray:
        if self.coord_format is None or self.numerics.position_bits <= 0:
            return np.asarray(x, dtype=np.float64)
        return self.coord_format.roundtrip(x)

    def compute(self, xi: np.ndarray, xj: np.ndarray, mj: np.ndarray,
                eps: float) -> Tuple[np.ndarray, np.ndarray]:
        """Force and potential on sinks ``xi`` from sources ``(xj, mj)``.

        All stage roundings follow the hardware datapath:

        1. coordinates quantised to the fixed-point grid; dx exact;
        2. component squares rounded to the log-format fraction;
        3. r^2 = sum + eps^2 rounded;
        4. r^-1/2 and r^-3/2 (log-domain shift-and-halve) rounded: a
           function of r^2's fb-bit mantissa and exponent parity times
           an exact power of two (the compiled walk's 2^fb table);
        5. m_j multiply rounded;
        6. per-component products accumulated wide (exact here).
        """
        xi = np.asarray(xi, dtype=np.float64)
        xj = np.asarray(xj, dtype=np.float64)
        mj = np.asarray(mj, dtype=np.float64)
        fb = self.numerics.force_fraction_bits

        qi = self._quantize(xi)
        qj = self._quantize(xj)
        mq = round_mantissa(mj, fb)

        n_i, n_j = qi.shape[0], qj.shape[0]
        acc = np.zeros((n_i, 3), dtype=np.float64)
        pot = np.zeros(n_i, dtype=np.float64)
        if n_i == 0 or n_j == 0:
            return acc, pot
        eps2 = round_mantissa(np.float64(eps) ** 2, fb)

        step = max(1, _TILE // max(n_i, 1))
        tiny = np.finfo(np.float64).tiny
        for j0 in range(0, n_j, step):
            j1 = min(j0 + step, n_j)
            d = qj[None, j0:j1, :] - qi[:, None, :]
            d2 = round_mantissa(d * d, fb)
            r2 = round_mantissa(d2.sum(axis=2) + eps2, fb)
            rinv = 1.0 / np.sqrt(np.maximum(r2, tiny))
            if eps2 == 0.0:
                rinv = np.where(r2 > 0.0, rinv, 0.0)
            rinv = round_mantissa(rinv, fb)
            rinv3 = round_mantissa(rinv * rinv * rinv, fb)
            mr = round_mantissa(mq[None, j0:j1] * rinv, fb)
            mr3 = round_mantissa(mq[None, j0:j1] * rinv3, fb)
            pot -= mr.sum(axis=1)
            acc += np.einsum("ij,ijk->ik", mr3, d)
        return acc, pot
