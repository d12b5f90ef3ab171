"""Process-local fault injection state and the injected error types.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
with per-process consumption state: each spec fires at most ``count``
times in this process, and probabilistic specs draw deterministically
from a hash of ``(plan seed, spec index, site key)`` so the same plan
fires at the same sites on every run -- across processes, machines and
reorderings.

Every layer asks :meth:`FaultInjector.fire` whether a fault fires at
its hook (the :data:`~repro.faults.plan.FAULT_HOOKS` value): ``batch``
(the pipeline engine, once per shard execution), ``call`` (a backend
call site, ``grape.compute``), ``transport`` (the fleet RPC client,
:class:`repro.fleet.RemoteJobStore`, once per request at
``fleet.rpc``) and ``checkpoint`` (the simulation loop, after each
periodic write).  :func:`strike` applies the two kinds every layer
shares -- ``latency`` sleeps, ``transient_error`` raises
:class:`TransientBackendError`; the others are their layer's own.

:func:`corrupt_file` is the shared deterministic file-damage helper
used by the checkpoint chaos tests and the ``checkpoint_truncate``
fault kind.
"""

from __future__ import annotations

import hashlib
import os
import time
import zlib
from pathlib import Path
from typing import Optional, Union

from .plan import FAULT_HOOKS, FaultPlan, FaultSpec

__all__ = ["TransientBackendError", "FaultInjector", "corrupt_file",
           "strike"]


class TransientBackendError(RuntimeError):
    """A retryable backend failure (flaky board, dropped transfer).

    Raised by fault injection and, in principle, by any backend whose
    device can fail transiently; callers holding a retry budget treat
    it as "try again", everything else as fatal.
    """


def strike(spec: FaultSpec, where: str) -> None:
    """Apply a fired ``latency`` (sleep ``seconds``, default 0.05) or
    ``transient_error`` (raise :class:`TransientBackendError` "injected
    transient error ``where``"); other kinds are left to the caller."""
    if spec.kind == "latency":
        time.sleep(0.05 if spec.seconds is None else spec.seconds)
    elif spec.kind == "transient_error":
        raise TransientBackendError(f"injected transient error {where}")


def _matches(spec: FaultSpec, where: dict) -> bool:
    """A selector set in ``spec`` must equal the visit's value, except
    ``call``, a threshold; an unset one (``None``) matches anything."""
    for name, got in where.items():
        want = getattr(spec, name)
        if want is not None and (got < want if name == "call"
                                 else got != want):
            return False
    return True


class FaultInjector:
    """Consumable, per-process view over a fault plan.

    ``flight`` is an optional
    :class:`~repro.obs.flightrec.FlightRecorder`: every fault that
    fires is recorded into it (kind, site, selectors), so a postmortem
    dump names the exact injection point.
    """

    def __init__(self, plan: FaultPlan, *,
                 flight: Optional[object] = None) -> None:
        self.plan = plan
        self.flight = flight
        self._remaining = [s.count for s in plan.specs]
        self._visits: dict = {}

    def _draw(self, index: int, spec: FaultSpec, key: tuple) -> bool:
        # a non-linear digest: neighbouring keys draw independently
        h = hashlib.blake2b(repr((self.plan.seed, index, key)).encode(),
                            digest_size=8).digest()
        return int.from_bytes(h, "big") / 2.0 ** 64 < spec.prob

    def fire(self, hook: str, *, site: Optional[str] = None,
             **where: int) -> Optional[FaultSpec]:
        """The first spec of ``hook`` (and ``site``) that fires at this
        visit, consumed and recorded, or ``None``.

        A site-named hook counts its visits: the visit index is the
        ``call`` selector and ``(site, index)`` the draw key.  Any other
        hook is keyed by itself and its selectors in the order given
        (``sweep, batch, attempt``; ``step``).  A ``call`` hook's fault
        strikes here, at the visit; the other hooks' callers strike it
        where it takes effect.
        """
        if site is not None:
            where["call"] = n = self._visits.get(site, 0)
            self._visits[site] = n + 1
            key = (site, n)
        else:
            key = (hook, *where.values())
        for i, s in enumerate(self.plan.specs):
            if (FAULT_HOOKS[s.kind, s.site] != hook or s.site != site
                    or self._remaining[i] <= 0 or not _matches(s, where)
                    or s.prob is not None and not self._draw(i, s, key)):
                continue
            self._remaining[i] -= 1
            if self.flight is not None:
                self.flight.record("fault.injected", fault=s.kind,
                                   site=site or hook, **where)
            if hook == "call":
                strike(s, f"at {site} (call {n})")
            return s
        return None


def corrupt_file(path: Union[str, Path], *, mode: str = "truncate",
                 offset: Optional[int] = None, seed: int = 0,
                 xor: int = 0xFF) -> int:
    """Deterministically damage ``path``; returns the affected offset.

    ``truncate`` cuts the file at ``offset``; ``flip`` XORs the byte
    there with ``xor``.  When ``offset`` is ``None`` it is derived from
    ``seed`` and the file size, so a given (file, seed) pair always
    breaks the same way.
    """
    p = Path(path)
    size = p.stat().st_size
    if size == 0:
        return 0
    if offset is None:
        offset = zlib.crc32(repr((seed, size)).encode()) % size
    offset = max(0, min(int(offset), size - 1))
    if mode == "truncate":
        os.truncate(p, offset)
    elif mode == "flip":
        with open(p, "r+b") as fh:
            fh.seek(offset)
            b = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([b[0] ^ (xor & 0xFF)]))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return offset
