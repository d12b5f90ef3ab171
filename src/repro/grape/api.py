"""libg5-style procedural API.

The real GRAPE-5 is driven through a small C library whose call
sequence, for one force evaluation, is::

    g5_open();
    g5_set_range(xmin, xmax, mmin);
    g5_set_eps_to_all(eps);
    g5_set_n(nj);  g5_set_xmj(0, nj, xj, mj);
    g5_set_xi(ni, xi);
    g5_run();
    g5_get_force(ni, a, p);
    g5_close();

This module reproduces that interface over the emulator, one method
per call (``g5_set_xmj`` is :meth:`G5Context.set_xmj`, and so on), so
that code written against libg5 (and the paper's treecode driver,
which calls it per interaction list) ports line-for-line.

State lives in a :class:`G5Context` -- a handle owning one attached
:class:`~repro.grape.system.Grape5System` plus its staged i/j sets.
libg5 keeps that state in the process (one GRAPE per process); here
every user opens its own context, so several installations --
multi-board experiments, say -- never clobber each other::

    ctx = G5Context()
    ctx.open(Grape5System(timing=GrapeTimingModel(n_boards=1)))
    ctx.set_n(nj); ctx.set_xmj(0, nj, xj, mj)
    ...
    ctx.close()

All calls raise :class:`G5Error` when made out of order, mirroring the
library's hard failure on protocol misuse.

.. note:: **Pythonic deviation of g5_get_force.**  The C call is
   ``g5_get_force(ni, a, p)`` writing into caller-owned arrays.  The
   Python binding *returns* ``(acc, pot)`` instead -- out-parameters
   are unidiomatic here -- but accepts optional preallocated ``a``/
   ``p`` arrays for line-for-line ports: when given, results are
   written into them (and they are also the returned pair).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..faults import retry_transient
from .system import Grape5System

__all__ = ["G5Error", "G5Context"]


class G5Error(RuntimeError):
    """Protocol misuse of the g5 API (call sequence violation)."""


class G5Context:
    """One attached GRAPE-5 plus its staged i/j state.

    Each context is fully independent: opening, loading, and running
    one never affects another, so a process may drive several board
    sets concurrently.  The context starts *closed*; :meth:`open` attaches
    a system and :meth:`close` detaches it, after which the context is
    reusable (open/close cycles leave no residue).

    Also usable as a context manager::

        with G5Context().open() as g5:
            g5.set_eps_to_all(eps)
            ...

    A context is the call-sequence handle and nothing more: it takes
    no lock and names no owner.  Who may drive an installation is
    decided where installations are handed out (one per job from
    :class:`repro.serve.leases.LeaseBroker`'s slot pool, one per host
    in :class:`repro.cluster.ClusterContext`).
    """

    def __init__(self, *, fault_injector: Optional[object] = None,
                 max_retries: int = 2) -> None:
        #: optional :class:`repro.faults.FaultInjector` consulted at the
        #: ``g5.run`` site before every run (chaos testing)
        self.fault_injector = fault_injector
        #: transparent re-issues of a run after a
        #: :class:`~repro.faults.TransientBackendError`
        self.max_retries = int(max_retries)
        #: runs that needed at least one retry to succeed (cumulative)
        self.transient_retries: int = 0
        self.system: Optional[Grape5System] = None
        self.eps: float = 0.0
        self.nj: int = 0
        self.xj: Optional[np.ndarray] = None
        self.mj: Optional[np.ndarray] = None
        self.xi: Optional[np.ndarray] = None
        self.acc: Optional[np.ndarray] = None
        self.pot: Optional[np.ndarray] = None
        self.ran: bool = False

    # -- lifecycle -----------------------------------------------------
    def _require_open(self) -> "G5Context":
        if self.system is None:
            raise G5Error("g5_open() has not been called")
        return self

    def open(self, system: Optional[Grape5System] = None) -> "G5Context":
        """Attach an (emulated) GRAPE-5; returns ``self`` for chaining.

        The attached system is available as the ``system`` attribute.
        """
        if self.system is not None:
            raise G5Error("GRAPE-5 already open; call g5_close() first")
        self.system = system if system is not None else Grape5System()
        cap = self.system.jmem_total
        self.xj = np.zeros((cap, 3), dtype=np.float64)
        self.mj = np.zeros(cap, dtype=np.float64)
        self.nj = 0
        self.ran = False
        return self

    def close(self) -> None:
        """Detach the GRAPE-5 and clear all staged state.

        The context may be re-opened afterwards; no staged data
        survives the cycle."""
        self._require_open()
        self.system = None
        self.xj = self.mj = self.xi = None
        self.acc = self.pot = None
        self.nj = 0
        self.ran = False

    def __enter__(self) -> "G5Context":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.system is not None:
            self.close()
        return False

    # -- staging -------------------------------------------------------
    def set_range(self, xmin: float, xmax: float,
                  mmin: float = 0.0) -> None:
        """Announce coordinate window (and minimum mass, accepted for
        API fidelity; the emulator's mass format needs no floor)."""
        self._require_open()
        self.system.set_range(xmin, xmax)

    def set_eps_to_all(self, eps: float) -> None:
        """Set the Plummer softening used by every pipeline."""
        self._require_open()
        if eps < 0.0:
            raise G5Error("eps must be non-negative")
        self.eps = float(eps)

    def set_n(self, nj: int) -> None:
        """Declare the number of resident j-particles."""
        self._require_open()
        if nj < 0 or nj > self.xj.shape[0]:
            raise G5Error(f"nj={nj} exceeds particle memory")
        self.nj = int(nj)

    def set_xmj(self, adr: int, nj: int, xj: np.ndarray,
                mj: np.ndarray) -> None:
        """Write ``nj`` j-particles at address ``adr`` of j-memory."""
        self._require_open()
        xj = np.asarray(xj, dtype=np.float64)
        mj = np.asarray(mj, dtype=np.float64)
        if xj.shape != (nj, 3) or mj.shape != (nj,):
            raise G5Error("xj must be (nj, 3) and mj (nj,)")
        if adr < 0 or adr + nj > self.xj.shape[0]:
            raise G5Error("j-set exceeds particle memory")
        self.xj[adr:adr + nj] = xj
        self.mj[adr:adr + nj] = mj
        if adr + nj > self.nj:
            self.nj = adr + nj

    def set_xi(self, ni: int, xi: np.ndarray) -> None:
        """Stage ``ni`` i-particles for the next run."""
        self._require_open()
        xi = np.asarray(xi, dtype=np.float64)
        if xi.shape != (ni, 3):
            raise G5Error("xi must have shape (ni, 3)")
        self.xi = xi.copy()
        self.ran = False

    # -- execution -----------------------------------------------------
    def run(self) -> None:
        """Fire the pipelines on the staged i-set against j-memory."""
        self._require_open()
        if self.xi is None:
            raise G5Error("g5_set_xi() must precede g5_run()")
        if self.nj == 0:
            raise G5Error("no j-particles loaded (g5_set_xmj/g5_set_n)")
        self.acc, self.pot = retry_transient(
            self, "g5.run", lambda: self.system.compute(
                self.xi, self.xj[:self.nj], self.mj[:self.nj], self.eps))
        self.ran = True

    def get_force(self, ni: int, a: Optional[np.ndarray] = None,
                  p: Optional[np.ndarray] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Read back ``(acc, pot)`` of the last run's first ``ni``
        sinks.

        Pythonic deviation from libg5's ``g5_get_force(ni, a, p)``:
        results are *returned*; optionally pass preallocated ``a``
        (shape ``(ni, 3)``) and ``p`` (shape ``(ni,)``) to also have
        them written C-style into caller-owned storage -- the returned
        pair is then those same arrays.
        """
        self._require_open()
        if not self.ran or self.acc is None:
            raise G5Error("g5_run() must precede g5_get_force()")
        if ni > self.acc.shape[0]:
            raise G5Error(f"only {self.acc.shape[0]} forces available")
        if (a is None) != (p is None):
            raise G5Error("pass both a and p, or neither")
        if a is not None:
            if a.shape != (ni, 3) or p.shape != (ni,):
                raise G5Error("a must be (ni, 3) and p (ni,)")
            a[...] = self.acc[:ni]
            p[...] = self.pot[:ni]
            return a, p
        return self.acc[:ni].copy(), self.pot[:ni].copy()

    def get_number_of_pipelines(self) -> int:
        return self._require_open().system.n_pipelines

    def get_peak_flops(self) -> float:
        return self._require_open().system.peak_flops
