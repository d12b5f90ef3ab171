"""The fleet's network store: one JobStore behind a TCP socket.

A :class:`StoreServer` wraps any local
:class:`~repro.serve.store.JobStore` (SQLite-WAL in production, the
in-memory store in tests) and exposes the whole store contract over
the ``repro.fleet-rpc/v1`` envelope of :mod:`repro.fleet.protocol`,
on the wire layer of :mod:`repro.serve.transport`.  Any number of
:class:`~repro.serve.scheduler.Scheduler` workers on any number of
hosts point their ``store`` at ``http://host:port`` (via
:func:`~repro.serve.store.open_store`) and share claims, heartbeats,
events, the worker registry and the bounded result cache exactly as
if they shared the store file.  Each op runs on the server's event
loop: the store serialises its ops under one lock anyway, each in tens
of microseconds, so a thread hop would buy no concurrency.

Its two routes are listed in ``docs/fleet.md``: ``POST /rpc/v1``, one
sealed envelope in and one out (HTTP 200 even for a typed store
error: the envelope carries the type), and ``GET /healthz``.  A
request the transport refuses (400/413/431) or fails on (500) is
answered with a sealed error envelope, so an RPC client raises it
typed instead of retrying it as wire damage.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional

from ..serve.store import JobStore, StoreError
from ..serve.transport import (HTTPServer, json_response, response,
                               serve_until_signal)
from .protocol import (ProtocolError, RPC_SCHEMA, pack_error,
                       pack_result, unpack_request)

__all__ = ["DEFAULT_STORE_PORT", "StoreServer", "run_store_server"]

#: default listening port of ``repro store serve`` (the job API's
#: 8014 plus a fleet offset)
DEFAULT_STORE_PORT = 8024

#: cap on request bodies (an RPC envelope is small; a job document
#: with its result is the largest payload)
MAX_BODY = 1 << 22


class StoreServer(HTTPServer):
    """One :class:`~repro.serve.store.JobStore` behind one listening
    socket.

    The server owns no store policy -- budgets, TTLs and CAS semantics
    are all the wrapped store's; it only seals/unseals envelopes and
    keeps counters.  Stopping it leaves the wrapped store open (the
    caller's).
    """

    prog = "repro store"
    max_body = MAX_BODY

    def __init__(self, store: JobStore, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        super().__init__(host, port)
        self.store = store
        self.requests = 0
        self.errors = 0

    def error_response(self, status: int, message: str) -> bytes:
        """A sealed error envelope: the peer's bug below 500, ours at
        500."""
        cls = ProtocolError if status < 500 else StoreError
        return response(status, pack_error(cls(message)))

    def banner(self) -> str:
        """The ``repro store serve`` listening line."""
        return (f"serving {self.store.kind} store "
                f"{getattr(self.store, 'path', '')} on {self.url}/")

    async def respond(self, method: str, path: str,
                      body: bytes) -> bytes:
        """Route one request: the RPC endpoint or the liveness doc."""
        path = path.split("?")[0]
        self.requests += 1
        if method == "POST" and path == "/rpc/v1":
            return self._rpc(body)
        if method == "GET" and path == "/healthz":
            return self._healthz()
        return json_response(404, {"error": f"no route {method} {path}"})

    def _rpc(self, body: bytes) -> bytes:
        """One envelope in, one envelope out.  Typed store errors ride
        *inside* a 200 response -- they are answers, not transport
        failures; only an unreachable server looks like one."""
        try:
            op, kwargs = unpack_request(body)
            try:
                result = getattr(self.store, op)(**kwargs)
            except TypeError as e:
                # bad argument shape for a known op: the caller's bug
                raise ProtocolError(f"op {op!r}: {e}") from e
            payload = pack_result(result)
        except StoreError as e:
            self.errors += 1
            payload = pack_error(e)
        return response(200, payload)

    def _healthz(self) -> bytes:
        """Liveness document: store identity, job counts, counters."""
        doc = {
            "status": "ok",
            "schema": RPC_SCHEMA,
            "kind": self.store.kind,
            "path": str(getattr(self.store, "path", "")) or None,
            "jobs": self.store.counts(),
            "workers": len(self.store.fleet_workers(now=time.time())),
            "requests": self.requests,
            "errors": self.errors,
            "uptime_seconds": (time.time() - self.started_at
                               if self.started_at else 0.0),
        }
        return json_response(200, doc)


def run_store_server(*, store, host: str = "127.0.0.1",
                     port: int = DEFAULT_STORE_PORT,
                     cache_budget: Optional[int] = None) -> int:
    """Blocking entry point behind ``repro store serve``.

    Opens the store (a path or an existing :class:`JobStore`), binds,
    serves until a termination signal, and returns the process exit
    code.  Serving a *remote* URL is refused -- chaining store
    servers adds a hop with no owner."""
    from ..serve.store import open_store
    st = open_store(store, cache_budget=cache_budget)
    if st.kind == "remote":
        raise StoreError("repro store serve needs a local store, "
                         f"not another store server ({store})")
    server = StoreServer(st, host=host, port=port)
    try:
        asyncio.run(serve_until_signal(server))
    except KeyboardInterrupt:
        pass
    finally:
        st.close()
    return 0
