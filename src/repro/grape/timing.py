"""Cycle-level timing model of the GRAPE-5 system.

The paper's performance numbers are wall-clock seconds on the host; the
GRAPE's contribution to that wall clock is fully determined by a few
machine constants, which this model captures:

* each **pipeline** evaluates one interaction per 90 MHz clock;
* the **particle data memory** streams one j-particle per 15 MHz clock,
  broadcast to all pipelines of the board -- so each physical pipeline
  time-multiplexes ``90/15 = 6`` *virtual* pipelines (the VMP scheme of
  Makino 1991), and one memory pass serves
  ``8 chips x 2 pipes x 6 VMP = 96`` i-particles;
* a force call with ``n_i`` sinks therefore needs
  ``ceil(n_i / 96)`` passes of ``n_j`` memory cycles per board;
* the host interface (PCI-era) moves j-particles in, i-particles in and
  forces out at a finite bandwidth, plus a fixed per-call latency.

With the defaults below the theoretical peak is exactly the paper's
figure: ``2 boards x 16 pipes x 90 MHz x 38 ops = 109.44 Gflops``.

The model is used two ways: charged call-by-call by the emulator (so a
scaled run yields a *predicted* GRAPE time), and evaluated analytically
at the paper's full scale (N = 2.1 M) by :mod:`repro.perf.model` for
experiments E3 and E5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["GrapeTimingModel", "OPS_PER_INTERACTION"]

#: Warren--Salmon flop-equivalent count per pairwise interaction, the
#: convention the paper states it shares with refs. [3] and [4].
OPS_PER_INTERACTION = 38


@dataclass
class GrapeTimingModel:
    """Machine constants and derived per-call times.

    Attributes mirror the hardware described in paper section 2; the
    host-interface figures model the PCI host interface board (shared by
    both processor boards through two interface boards, i.e. transfers
    to the two boards proceed in parallel in the default configuration).
    """

    n_boards: int = 2
    chips_per_board: int = 8
    pipes_per_chip: int = 2
    pipeline_clock_hz: float = 90.0e6
    memory_clock_hz: float = 15.0e6
    #: bytes per j-particle write (3 coords + mass, fixed/log format)
    bytes_per_j: float = 16.0
    #: bytes per i-particle write
    bytes_per_i: float = 16.0
    #: bytes per force readback (3 components + potential)
    bytes_per_f: float = 32.0
    #: sustained host-interface bandwidth per board, bytes/s (PCI era)
    interface_bandwidth: float = 60.0e6
    #: fixed software + DMA setup latency per force call, seconds
    call_latency: float = 150.0e-6

    # ------------------------------------------------------------------
    @property
    def vmp(self) -> int:
        """Virtual pipelines per physical pipeline (clock ratio)."""
        return int(round(self.pipeline_clock_hz / self.memory_clock_hz))

    @property
    def pipes_per_board(self) -> int:
        return self.chips_per_board * self.pipes_per_chip

    @property
    def n_pipelines(self) -> int:
        """Total physical pipelines (32 in the paper's system)."""
        return self.n_boards * self.pipes_per_board

    @property
    def i_per_pass(self) -> int:
        """i-particles served by one memory pass of a board (96)."""
        return self.pipes_per_board * self.vmp

    @property
    def peak_flops(self) -> float:
        """Theoretical peak under the 38-op convention (109.44 Gflops)."""
        return (self.n_pipelines * self.pipeline_clock_hz
                * OPS_PER_INTERACTION)

    # ------------------------------------------------------------------
    def pipeline_time(self, n_i: int, n_j_board: int) -> float:
        """Compute time of one board's pipelines for a force call.

        ``n_j_board`` j-particles stream from the board memory once per
        pass of up to :attr:`i_per_pass` i-particles.
        """
        if n_i <= 0 or n_j_board <= 0:
            return 0.0
        passes = math.ceil(n_i / self.i_per_pass)
        return passes * n_j_board / self.memory_clock_hz

    def transfer_time(self, n_i: int, n_j_board: int) -> float:
        """Host-interface time of one board's share of a force call."""
        nbytes = (n_j_board * self.bytes_per_j + n_i * self.bytes_per_i
                  + n_i * self.bytes_per_f)
        return nbytes / self.interface_bandwidth

    def force_call_time(self, n_i: int, n_j: int) -> float:
        """Wall-clock seconds for one force call on the full system.

        The j-set is split evenly over the boards; boards run
        concurrently, so the call costs the slowest board's pipeline
        time plus its transfer time plus the fixed latency.
        """
        if n_i <= 0 or n_j <= 0:
            return 0.0
        n_j_board = math.ceil(n_j / self.n_boards)
        return (self.call_latency
                + self.transfer_time(n_i, n_j_board)
                + self.pipeline_time(n_i, n_j_board))

    def force_call_time_batch(self, n_i, n_j):
        """Vectorised :meth:`force_call_time` over call arrays.

        Used by the batched kernel path to charge a whole CSR block of
        calls in one shot; term-for-term identical to the scalar method
        (same ceil splits, same operation order) so batched and
        per-call charging produce the same ``model_seconds``.
        """
        import numpy as np
        n_i = np.asarray(n_i, dtype=np.float64)
        n_j = np.asarray(n_j, dtype=np.float64)
        n_j_board = np.ceil(n_j / self.n_boards)
        nbytes = (n_j_board * self.bytes_per_j + n_i * self.bytes_per_i
                  + n_i * self.bytes_per_f)
        passes = np.ceil(n_i / self.i_per_pass)
        t = (self.call_latency
             + nbytes / self.interface_bandwidth
             + passes * n_j_board / self.memory_clock_hz)
        return np.where((n_i > 0) & (n_j > 0), t, 0.0)

    def sustained_flops(self, n_i: int, n_j: int) -> float:
        """Effective speed of a single force call (38-op convention)."""
        t = self.force_call_time(n_i, n_j)
        if t <= 0.0:
            return 0.0
        return OPS_PER_INTERACTION * n_i * n_j / t
