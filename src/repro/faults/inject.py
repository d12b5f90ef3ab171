"""Process-local fault injection state and the injected error types.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
with per-process consumption state: each spec fires at most ``count``
times in this process, and probabilistic specs draw deterministically
from a hash of ``(plan seed, spec index, site key)`` so the same plan
fires at the same sites on every run -- across processes, machines and
reorderings.

Four hook surfaces, one per layer of the stack:

* :meth:`FaultInjector.batch_fault` -- consulted by the pipeline
  engine once per shard execution (latency / transient error);
* :meth:`FaultInjector.maybe_raise` -- consulted by backends at named
  call site (``grape.compute``), raising
  :class:`TransientBackendError` when a transient spec matches;
* :meth:`FaultInjector.checkpoint_fault` -- consulted by the
  simulation loop after each periodic checkpoint write;
* :meth:`FaultInjector.transport_fault` -- consulted by the fleet
  network-store client (:class:`repro.fleet.RemoteJobStore`) once per
  RPC at site ``fleet.rpc`` (latency / transient error / response
  truncation).

:func:`corrupt_file` is the shared deterministic file-damage helper
used by the checkpoint chaos tests and the ``checkpoint_truncate``
fault kind.
"""

from __future__ import annotations

import os
import zlib
from pathlib import Path
from typing import Optional, Union

from .plan import FAULT_HOOKS, FaultPlan, FaultSpec

__all__ = ["TransientBackendError", "FaultInjector", "corrupt_file"]


def _hook(spec: FaultSpec) -> str:
    """The injector surface that fires ``spec``."""
    return FAULT_HOOKS[(spec.kind, spec.site)]


class TransientBackendError(RuntimeError):
    """A retryable backend failure (flaky board, dropped transfer).

    Raised by fault injection and, in principle, by any backend whose
    device can fail transiently; callers holding a retry budget treat
    it as "try again", everything else as fatal.
    """


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
        self._site_calls: dict = {}

    def _note(self, spec: FaultSpec, site: str, **attrs) -> None:
        if self.flight is not None:
            self.flight.record("fault.injected", fault=spec.kind,
                               site=site, **attrs)

    # -- matching ------------------------------------------------------
    @staticmethod
    def _sel(spec_val: Optional[int], actual: Optional[int]) -> bool:
        """Exact-match selector: ``None`` in the spec is a wildcard;
        ``None`` at the site only matches wildcards."""
        if spec_val is None:
            return True
        return actual is not None and spec_val == actual

    def _fire(self, index: int, spec: FaultSpec, key: tuple) -> bool:
        if self._remaining[index] <= 0:
            return False
        if spec.prob is not None and not self._draw(index, spec, key):
            return False
        self._remaining[index] -= 1
        return True

    def _draw(self, index: int, spec: FaultSpec, key: tuple) -> bool:
        h = zlib.crc32(repr((self.plan.seed, index, key)).encode())
        return h / 0xFFFFFFFF < spec.prob

    # -- hook surfaces -------------------------------------------------
    def batch_fault(self, *, sweep: int, batch: int,
                    attempt: int = 0) -> Optional[FaultSpec]:
        """The fault (if any) to inject into this batch execution."""
        for i, s in enumerate(self.plan.specs):
            if _hook(s) != "batch":
                continue
            if not (self._sel(s.sweep, sweep)
                    and self._sel(s.batch, batch)
                    and self._sel(s.attempt, attempt)):
                continue
            if self._fire(i, s, ("batch", sweep, batch, attempt)):
                self._note(s, "batch", sweep=sweep, batch=batch,
                           attempt=attempt)
                return s
        return None

    def maybe_raise(self, site: str) -> None:
        """Backend call-site hook; raises :class:`TransientBackendError`
        when a matching ``transient_error`` spec fires."""
        n = self._site_calls.get(site, 0)
        self._site_calls[site] = n + 1
        for i, s in enumerate(self.plan.specs):
            if s.site != site or _hook(s) != "call":
                continue
            if s.call is not None and n < s.call:
                continue
            if self._fire(i, s, (site, n)):
                self._note(s, site, call=n)
                raise TransientBackendError(
                    f"injected transient error at {site} (call {n})")

    def transport_fault(self, site: str) -> Optional[FaultSpec]:
        """Transport call-site hook (fleet RPC client): returns the
        matching spec, if any, for this request.  Unlike
        :meth:`maybe_raise` the *caller* applies the semantics --
        sleep for ``latency``, raise
        :class:`TransientBackendError` for ``transient_error``,
        damage the received bytes for ``corrupt_result`` -- because
        only the transport knows its own buffers.  Call indices share
        the per-site counter with :meth:`maybe_raise`."""
        n = self._site_calls.get(site, 0)
        self._site_calls[site] = n + 1
        for i, s in enumerate(self.plan.specs):
            if s.site != site or _hook(s) != "transport":
                continue
            if s.call is not None and n < s.call:
                continue
            if self._fire(i, s, (site, n)):
                self._note(s, site, call=n)
                return s
        return None

    def checkpoint_fault(self, *, step: int) -> Optional[FaultSpec]:
        """The checkpoint fault (if any) to apply after writing the
        checkpoint that closes ``step``."""
        for i, s in enumerate(self.plan.specs):
            if _hook(s) != "checkpoint":
                continue
            if not self._sel(s.step, step):
                continue
            if self._fire(i, s, ("checkpoint", step)):
                self._note(s, "checkpoint", step=step)
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
