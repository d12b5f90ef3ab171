"""RemoteJobStore: the ``JobStore`` contract over TCP.

``open_store("http://host:port")`` returns one of these -- a store
*driver*, not a cache: every call is one ``repro.fleet-rpc/v1``
request to a :class:`~repro.fleet.netstore.StoreServer`, on the
calling thread's pooled connection, so claims, heartbeats and cache
hits have exactly the cross-worker semantics of the backing SQLite
store, just across hosts.  The methods are one forwarding proxy per
name in :data:`~repro.fleet.protocol.RPC_OPS`, generated from the
:class:`~repro.serve.store.JobStore` signature it overrides.

Transport trouble -- connection errors, timeouts, an answer the
transport cannot frame (:class:`~repro.serve.transport.WireError`), a
payload failing its own SHA-256 (:class:`PayloadCorrupt`), injected
:class:`~repro.faults.TransientBackendError` -- is retried with
bounded exponential backoff, then raised as
:class:`~repro.fleet.protocol.StoreUnavailable` (or the persistent
:class:`PayloadCorrupt`).  Typed server-side errors are answers: they
propagate at once.  Fault site ``fleet.rpc`` is this client's own
injector's (``fault_injector=``), fired once per request: ``latency``
sleeps, ``transient_error`` raises retryably and ``corrupt_result``
truncates the received bytes so the digest check fires.  A run never
reaches it, so a run's plan naming it is refused.
"""

from __future__ import annotations

import functools
import inspect
import logging
import time
from typing import Any, Callable, Dict, Optional
from urllib.parse import urlsplit

from ..faults import TransientBackendError, strike
from ..obs import MetricsRegistry
from ..serve.store import JobStore, StoreError
from ..serve.transport import exchange, hang_up
from .netstore import DEFAULT_STORE_PORT
from .protocol import (PayloadCorrupt, RPC_OPS, StoreUnavailable,
                       pack_request, unpack_response)

__all__ = ["RemoteJobStore", "RPC_SITE"]

logger = logging.getLogger(__name__)

#: the fault-plan ``site`` selector of the RPC transport hook
#: (``latency@site=fleet.rpc`` etc.)
RPC_SITE = "fleet.rpc"


class RemoteJobStore(JobStore):
    """Client driver for a fleet store server.

    Parameters
    ----------
    url:
        ``http://host:port`` of a running ``repro store serve``
        (https is refused: the stdlib server speaks plain HTTP and a
        silently-unencrypted ``https://`` would lie).
    timeout:
        Per-request socket timeout seconds.
    retries / backoff:
        Transport retry budget: up to ``retries`` re-sends after the
        first attempt, sleeping ``backoff * 2**k`` before retry ``k``.
    fault_injector:
        Optional :class:`~repro.faults.FaultInjector` fired at site
        ``fleet.rpc`` (chaos tests).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; retries and
        trips count under ``fleet.rpc_*``.
    """

    kind = "remote"

    def __init__(self, url: str, *, timeout: float = 10.0,
                 retries: int = 3, backoff: float = 0.05,
                 fault_injector: Optional[object] = None,
                 metrics: Optional[object] = None) -> None:
        parts = urlsplit(url)
        if (parts.scheme != "http" or not parts.hostname
                or parts.path not in ("", "/")):
            raise StoreError(
                f"remote store URL must be http://host:port, got "
                f"{url!r} (the fleet store speaks plain HTTP)")
        self.host = parts.hostname
        self.port = int(parts.port or DEFAULT_STORE_PORT)
        self.url = f"http://{self.host}:{self.port}"
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.faults = fault_injector
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry()

    # -- transport -----------------------------------------------------
    def _call_once(self, op: str, args: Dict[str, Any]) -> Any:
        spec = (self.faults.fire("transport", site=RPC_SITE)
                if self.faults is not None else None)
        if spec is not None:
            strike(spec, f"at {RPC_SITE} ({op})")
        with exchange(self.host, self.port, "POST", "/rpc/v1",
                      pack_request(op, args),
                      timeout=self.timeout) as resp:
            raw = resp.read()
        if spec is not None and spec.kind == "corrupt_result":
            raw = raw[:len(raw) // 2]
        return unpack_response(raw)

    def close(self) -> None:
        """Close the idle pooled connections to the server."""
        hang_up(self.host, self.port)

    def _call(self, op: str, **args: Any) -> Any:
        """One logical store call: bounded retry with exponential
        backoff over the transport failure modes; typed server-side
        errors propagate untouched on the first trip."""
        delay = self.backoff
        last: Optional[BaseException] = None
        for attempt in range(self.retries + 1):
            if attempt:
                self.metrics.counter(
                    "fleet.rpc_retries",
                    "fleet RPC attempts re-sent after transport "
                    "trouble").inc()
                time.sleep(delay)
                delay *= 2.0
            try:  # any other StoreError is the server's typed answer
                return self._call_once(op, args)
            except (PayloadCorrupt, TransientBackendError, OSError) as e:
                last = e  # transport trouble; the store is fine, retry
            logger.warning("fleet rpc %s to %s failed "
                           "(attempt %d/%d): %s", op, self.url,
                           attempt + 1, self.retries + 1, last)
        self.metrics.counter(
            "fleet.rpc_failures",
            "fleet RPC calls that exhausted their retry budget").inc()
        if isinstance(last, PayloadCorrupt):
            raise last
        raise StoreUnavailable(
            f"store {self.url}: {op} failed after "
            f"{self.retries + 1} attempt(s): {last}") from last


def _proxy(op: str) -> Callable:
    """The forwarding method for one RPC op: binds the call against
    the base-class signature, so every parameter -- defaults included
    -- crosses the wire under its declared name."""
    base = getattr(JobStore, op)
    sig = inspect.signature(base)

    @functools.wraps(base)
    def call(self, *args: Any, **kwargs: Any) -> Any:
        bound = sig.bind(self, *args, **kwargs)
        bound.apply_defaults()
        del bound.arguments["self"]
        result = self._call(op, **bound.arguments)
        # JSON has no tuple; allocate's contract type is one
        return tuple(result) if op == "allocate" else result
    return call


for _op in RPC_OPS:
    setattr(RemoteJobStore, _op, _proxy(_op))
