"""The GRAPE-5 processor board: 8 G5 chips + particle data memory.

A processor board (paper section 2, figures 1 and 3) carries 8 G5 chips
and a **particle data memory** that stores the j-particles and streams
them, one per 15 MHz memory clock, broadcast to every pipeline on the
board.  Since the pipelines run at 90 MHz, each physical pipeline
multiplexes 6 *virtual* pipelines, so one pass of the j-stream computes
forces on 8 x 2 x 6 = 96 i-particles.

The board emulator owns the j-particle store (libg5's ``g5_set_xmj``
/ ``g5_set_n`` state) and evaluates force calls against it with the
reduced-precision pipeline, charging the timing model per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .chip import G5Chip
from .numerics import G5Numerics, G5_NUMERICS
from .pipeline import G5Pipeline
from .timing import GrapeTimingModel

__all__ = ["ProcessorBoard", "BoardMemoryError"]


class BoardMemoryError(RuntimeError):
    """Raised when a j-set exceeds the board's particle data memory."""


@dataclass
class ProcessorBoard:
    """One GRAPE-5 processor board.

    Parameters
    ----------
    numerics:
        Pipeline precision parameters.
    jmem_capacity:
        Particle data memory capacity in particles.  The real board
        stores 2^18 j-particles -- comfortably larger than any
        interaction list the treecode produces (the paper's average list
        is ~13,000 entries).
    """

    numerics: G5Numerics = G5_NUMERICS
    n_chips: int = 8
    jmem_capacity: int = 1 << 18
    chips: List[G5Chip] = field(default_factory=list)

    # j-particle store (the particle data memory content)
    _jx: Optional[np.ndarray] = field(default=None, repr=False)
    _jm: Optional[np.ndarray] = field(default=None, repr=False)
    _nj: int = field(default=0, repr=False)

    def __post_init__(self):
        if not self.chips:
            self.chips = [G5Chip(numerics=self.numerics)
                          for _ in range(self.n_chips)]
        self._jx = np.empty((self.jmem_capacity, 3), dtype=np.float64)
        self._jm = np.empty(self.jmem_capacity, dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def n_pipelines(self) -> int:
        return sum(c.n_pipelines for c in self.chips)

    @property
    def peak_flops(self) -> float:
        return sum(c.peak_flops for c in self.chips)

    @property
    def nj(self) -> int:
        """Number of j-particles currently loaded."""
        return self._nj

    def set_range(self, xmin: float, xmax: float) -> None:
        for c in self.chips:
            c.set_range(xmin, xmax)

    # ------------------------------------------------------------------
    def load_j(self, xj: np.ndarray, mj: np.ndarray, adr: int = 0) -> None:
        """Write j-particles into the particle data memory at ``adr``.

        Mirrors libg5's ``g5_set_xmj(adr, nj, x, m)``: partial updates at an
        offset are allowed (the treecode reuses resident prefixes when
        lists share cells).
        """
        xj = np.asarray(xj, dtype=np.float64)
        mj = np.asarray(mj, dtype=np.float64)
        n = xj.shape[0]
        if xj.shape != (n, 3) or mj.shape != (n,):
            raise ValueError("xj must be (n, 3) and mj (n,)")
        if adr < 0 or adr + n > self.jmem_capacity:
            raise BoardMemoryError(
                f"j-set [{adr}, {adr + n}) exceeds board memory "
                f"({self.jmem_capacity} particles)")
        self._jx[adr:adr + n] = xj
        self._jm[adr:adr + n] = mj
        self._nj = max(self._nj, adr + n)

    def set_n(self, nj: int) -> None:
        """Declare how many resident j-particles force calls use."""
        if nj < 0 or nj > self.jmem_capacity:
            raise BoardMemoryError(f"nj={nj} out of range")
        self._nj = nj

    # ------------------------------------------------------------------
    def _reference_pipeline(self) -> G5Pipeline:
        return self.chips[0].pipelines[0]

    def compute(self, xi: np.ndarray, eps: float
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Force and potential on ``xi`` from the resident j-set.

        All pipelines implement the identical datapath, so the tile is
        evaluated with one vectorised pipeline call; the distribution of
        interactions over chips affects only timing, which the system
        model accounts for separately.
        """
        if self._nj == 0:
            xi = np.asarray(xi, dtype=np.float64)
            return (np.zeros((xi.shape[0], 3)), np.zeros(xi.shape[0]))
        pipe = self._reference_pipeline()
        return pipe.compute(xi, self._jx[:self._nj], self._jm[:self._nj],
                            eps)
