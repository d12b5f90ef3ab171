"""Pairwise gravity kernels and the force-backend interface.

The innermost operation of the whole system is the softened point-mass
interaction

    a_i += m_j * (x_j - x_i) / (|x_j - x_i|^2 + eps^2)^{3/2}
    phi_i -= m_j / (|x_j - x_i|^2 + eps^2)^{1/2}

(Plummer softening; G = 1 in code units).  This is exactly the datapath
the G5 pipeline implements in hardware -- 38 floating-point-equivalent
operations per interaction under the counting convention of the paper
and of Warren & Salmon (see :mod:`repro.perf.opcount`).

Two *backends* evaluate this kernel:

* :class:`Float64Backend` -- IEEE double precision on the host, used for
  reference forces and for the paper's "practically the same accuracy
  with 64-bit arithmetic" check (section 2);
* :class:`repro.grape.system.GrapeBackend` -- the GRAPE-5 emulator,
  which applies the hardware's reduced-precision number formats and
  charges the call to the cycle-level timing model.

Backends receive the full (sinks x sources) problem and are free to tile
it; :func:`pairwise_accpot` provides the shared tiled float64 kernel.
Tiles are sized to keep the (n_i, n_j_chunk) temporaries inside the CPU
cache region where NumPy broadcasting is efficient (guide: "beware of
cache effects"; do not materialise the full N x M matrix).

Drivers hand a backend whole CSR interaction-list sweeps through
:meth:`ForceBackend.eval_lists` (reference loop in the base class,
compiled CSR walk of :mod:`repro.core.kernels.batch` in the bundled
backends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

__all__ = ["ForceBackend", "Float64Backend", "pairwise_accpot",
           "self_potential_correction"]

#: Upper bound on elements of one broadcast tile (n_i * n_j_chunk).
DEFAULT_TILE = 1 << 22


def pairwise_accpot(xi: np.ndarray, xj: np.ndarray, mj: np.ndarray,
                    eps: float, *, tile: int = DEFAULT_TILE
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Accelerations and potentials on ``xi`` from sources ``(xj, mj)``.

    Fully vectorised and tiled over sources.  Returns ``(acc, pot)`` with
    shapes ``(n_i, 3)`` and ``(n_i,)``.  A source coincident with a sink
    (r = 0) contributes zero acceleration and ``-m/eps`` potential, which
    the caller removes via :func:`self_potential_correction` when sinks
    are included in their own source list.
    """
    xi = np.asarray(xi, dtype=np.float64)
    xj = np.asarray(xj, dtype=np.float64)
    mj = np.asarray(mj, dtype=np.float64)
    if xi.ndim != 2 or xi.shape[1] != 3:
        raise ValueError("xi must have shape (n_i, 3)")
    if xj.ndim != 2 or xj.shape[1] != 3:
        raise ValueError("xj must have shape (n_j, 3)")
    if mj.shape != (xj.shape[0],):
        raise ValueError("mj must have shape (n_j,)")
    if eps < 0.0:
        raise ValueError("softening eps must be non-negative")

    n_i = xi.shape[0]
    n_j = xj.shape[0]
    acc = np.zeros((n_i, 3), dtype=np.float64)
    pot = np.zeros(n_i, dtype=np.float64)
    if n_i == 0 or n_j == 0:
        return acc, pot

    step = max(1, int(tile) // max(n_i, 1))
    eps2 = float(eps) * float(eps)
    for j0 in range(0, n_j, step):
        j1 = min(j0 + step, n_j)
        d = xj[None, j0:j1, :] - xi[:, None, :]         # (n_i, c, 3)
        r2 = np.einsum("ijk,ijk->ij", d, d) + eps2
        rinv = 1.0 / np.sqrt(np.maximum(r2, np.finfo(np.float64).tiny))
        if eps2 == 0.0:
            # unsoftened: zero-distance pairs contribute nothing
            rinv[r2 == 0.0] = 0.0
        mrinv = mj[None, j0:j1] * rinv
        pot -= mrinv.sum(axis=1)
        mrinv3 = mrinv * rinv * rinv
        acc += np.einsum("ij,ijk->ik", mrinv3, d)
    return acc, pot


def self_potential_correction(m: np.ndarray, eps: float) -> np.ndarray:
    """Potential contributed by a particle onto itself under Plummer
    softening; add this to remove the self term from ``pot``."""
    if eps <= 0.0:
        return np.zeros_like(np.asarray(m, dtype=np.float64))
    return np.asarray(m, dtype=np.float64) / float(eps)


class ForceBackend:
    """Something that evaluates the softened point-mass kernel.

    The contract: :meth:`kernel` is the one method an implementation
    must provide -- a dense sinks-x-sources evaluation (as libg5's
    ``g5_set_xmj``/``g5_run`` pair is on the hardware), unpriced and
    free of side effects.  :meth:`eval_lists` evaluates a CSR list block
    and is just as pure (no counters, metrics or fault site), so the
    engine runs it concurrently on the caller's one instance; its base
    body loops :meth:`kernel` over the sinks, and backends with a
    native walk override it.  Work is counted and priced only by
    :meth:`charge`, once per sweep, on the submitting thread, after the
    whole sweep succeeded; :meth:`force_call` puts a device's fault site
    around one force call.
    """

    #: human-readable backend name for reports
    name: str = "abstract"

    def kernel(self, xi: np.ndarray, xj: np.ndarray, mj: np.ndarray,
               eps: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(acc, pot)`` on sinks ``xi`` from sources ``xj, mj``,
        counting nothing."""
        raise NotImplementedError

    # -- list sweeps ---------------------------------------------------
    def eval_lists(self, pos: np.ndarray, pmass: np.ndarray,
                   com: np.ndarray, cmass: np.ndarray, lists,
                   sink_start: np.ndarray, sink_count: np.ndarray,
                   eps: float, out_acc: np.ndarray, out_pot: np.ndarray
                   ) -> None:
        """Evaluate one whole CSR list sweep into ``out_acc``/``out_pot``.

        ``lists`` is a :class:`~repro.core.traversal.InteractionLists`
        whose sink ``g`` corresponds to rows
        ``sink_start[g]:sink_start[g]+sink_count[g]`` of ``pos`` (and of
        the output arrays).  Sources are cell monopoles then direct
        particles, concatenated into one point-mass list -- the array
        the host ships to the GRAPE's particle data memory.

        The base implementation is the reference loop -- one
        :meth:`kernel` per sink, so any backend works; it is the oracle
        the equivalence tests compare against.  The bundled backends
        override it with a vectorised CSR walk (the C fast path of
        :mod:`repro.core.kernels.cnative`) and call back into this body
        when no compiler is available.  Output rows are *assigned*,
        never accumulated, so re-evaluating a sink range is idempotent
        (the pipeline engine's shard retry depends on this).
        """
        for g in range(int(sink_start.shape[0])):
            s, n = int(sink_start[g]), int(sink_count[g])
            cells = lists.cells_of(g)
            parts = lists.parts_of(g)
            xj = np.concatenate([com[cells], pos[parts]])
            mj = np.concatenate([cmass[cells], pmass[parts]])
            out_acc[s:s + n], out_pot[s:s + n] = self.kernel(
                pos[s:s + n], xj, mj, eps)

    # -- the sweep engine's seams --------------------------------------
    def force_call(self, fn: Callable[[], object]):
        """Run ``fn`` as one backend force call.  A device backend puts
        its fault site and transient-retry budget around it; the engine
        passes every sweep's submission through here exactly once."""
        return fn()

    def charge(self, spec, lengths) -> None:
        """Count one sweep's force calls: ``spec.sink_count[k]`` sinks
        by ``lengths[k]`` sources each (a device also prices them).
        The engine calls this once per sweep with its
        :class:`~repro.exec.plan.SweepSpec` and every sink's list
        length, after the whole sweep succeeded, so counters depend
        neither on the shard cut nor on a retried shard."""

    def reset_stats(self) -> None:
        """Clear accumulated performance counters (optional)."""

    def set_domain(self, lo: float, hi: float) -> None:
        """Announce the coordinate window of upcoming calls.

        No-op for full-precision backends.  The GRAPE backend forwards
        this to ``g5_set_range``: its fixed-point coordinate format
        saturates outside the window, so drivers (the treecode, the
        simulation loop) re-announce the domain whenever the particle
        extent changes -- exactly as the paper's host code must.
        """

    @property
    def interactions(self) -> int:
        """Pairwise interactions evaluated since the last reset."""
        return 0


@dataclass
class Float64Backend(ForceBackend):
    """Reference backend: IEEE double precision on the host."""

    tile: int = DEFAULT_TILE
    _interactions: int = field(default=0, repr=False)

    name = "float64"

    def kernel(self, xi, xj, mj, eps):
        return pairwise_accpot(xi, xj, mj, eps, tile=self.tile)

    def eval_lists(self, pos, pmass, com, cmass, lists, sink_start,
                   sink_count, eps, out_acc, out_pot):
        from .batch import f64_eval_lists
        if not f64_eval_lists(pos, pmass, com, cmass, lists, sink_start,
                              sink_count, eps, out_acc, out_pot):
            super().eval_lists(pos, pmass, com, cmass, lists, sink_start,
                               sink_count, eps, out_acc, out_pot)

    def charge(self, spec, lengths):
        self._interactions += int(np.sum(
            np.asarray(spec.sink_count, dtype=np.int64)
            * np.asarray(lengths, dtype=np.int64)))

    def reset_stats(self):
        self._interactions = 0

    @property
    def interactions(self) -> int:
        return self._interactions
