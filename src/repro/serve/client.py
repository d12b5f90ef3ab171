"""Stdlib client for the simulation service.

The ``repro.job/v1`` API of :mod:`repro.serve.server` as methods, over
:func:`repro.serve.transport.exchange`: the one client behind ``repro
submit`` / ``repro jobs``, the acceptance tests and the service
benchmark.  HTTP 4xx/5xx raise :class:`ServeHTTPError`; a 429 raises
the :class:`Backpressure` subclass carrying ``Retry-After``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .transport import Connection, exchange

__all__ = ["ServeHTTPError", "Backpressure", "ServeClient"]

_TERMINAL = ("done", "failed", "cancelled")


class ServeHTTPError(RuntimeError):
    """Non-2xx response from the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.message = message


class Backpressure(ServeHTTPError):
    """429: admission control rejected the submission; retry after
    ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(429, message)
        self.retry_after = float(retry_after)


class ServeClient:
    """Client for one service endpoint (``host:port``).

    Connections live in the transport's pool, one per calling thread,
    so a client object is cheap and thread-safe and its calls from one
    thread reuse one connection.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8014, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        # each thread's last POST /jobs answer, when it was already
        # final (a cache hit is admitted ``done``): wait() returns it
        self._answered = threading.local()

    # -- plumbing ------------------------------------------------------
    @contextmanager
    def _exchange(self, method: str, path: str,
                  body: Optional[dict] = None
                  ) -> Iterator[Connection]:
        """One request; yields the 2xx response, raises the rest."""
        payload = (json.dumps(body).encode("utf-8")
                   if body is not None else None)
        with exchange(self.host, self.port, method, path, payload,
                      timeout=self.timeout) as resp:
            if resp.status >= 400:
                raw = resp.read()
                try:
                    message = json.loads(raw).get("error", raw)
                except ValueError:
                    message = raw.decode("utf-8", "replace")
                if resp.status == 429:
                    raise Backpressure(
                        message,
                        float(resp.headers.get("retry-after", 1)))
                raise ServeHTTPError(resp.status, message)
            yield resp

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> Dict[str, Any]:
        with self._exchange(method, path, body) as resp:
            raw = resp.read()
        return json.loads(raw) if raw.strip() else {}

    # -- API -----------------------------------------------------------
    def submit(self, spec: Dict[str, Any]) -> Dict[str, Any]:
        """POST a ``repro.job/v1`` document; returns the job document.
        Raises :class:`Backpressure` on 429 (queue bound hit)."""
        doc = self._request("POST", "/jobs", body=spec)
        self._answered.doc = doc if doc.get("state") in _TERMINAL else None
        return doc

    def submit_wait(self, spec: Dict[str, Any], *,
                    deadline: float = 120.0) -> Dict[str, Any]:
        """Submit with polite backpressure retries up to ``deadline``
        seconds, honouring each 429's Retry-After hint."""
        t_end = time.monotonic() + deadline
        while True:
            try:
                return self.submit(spec)
            except Backpressure as e:
                wait = min(e.retry_after, max(0.0,
                                              t_end - time.monotonic()))
                if time.monotonic() + wait >= t_end:
                    raise
                time.sleep(wait)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def pause(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/pause")

    def resume(self, job_id: str) -> Dict[str, Any]:
        return self._request("POST", f"/jobs/{job_id}/resume")

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll: float = 0.1) -> Dict[str, Any]:
        """Long-poll ``GET /jobs/{id}?wait=`` (each hold at most half
        the socket timeout) until the job is terminal and return it --
        with no request when this thread's last :meth:`submit` was
        answered with it; ``poll`` only paces a server that answers at
        once.  Raises :class:`TimeoutError` past ``timeout``."""
        answered = getattr(self._answered, "doc", None)
        self._answered.doc = None
        if answered is not None and answered["id"] == job_id:
            return answered
        t_end = time.monotonic() + timeout
        while True:
            hold = min(t_end - time.monotonic(), self.timeout / 2)
            doc = self._request("GET", f"/jobs/{job_id}?wait="
                                       f"{max(0.0, hold):.3f}")
            if doc["state"] in _TERMINAL:
                return doc
            if time.monotonic() >= t_end:
                raise TimeoutError(
                    f"job {job_id} still {doc['state']} after "
                    f"{timeout}s")
            time.sleep(poll)

    def trace(self, job_id: str) -> Dict[str, Any]:
        """The job's ``repro.trace/v1`` document: its ``trace_id`` and
        flat span events (pre-order ``span_id``/``parent_id``/``path``,
        suitable for ``repro obs tree`` / ``critical-path``)."""
        return self._request("GET", f"/jobs/{job_id}/trace")

    def events(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Follow the NDJSON progress stream of a job: event dicts
        until the server closes it at a resting state."""
        with self._exchange("GET", f"/jobs/{job_id}/events") as resp:
            yield from (json.loads(line) for line in resp if line.strip())

    def healthz(self) -> Dict[str, Any]:
        """The liveness snapshot of ``GET /healthz`` (its fields are
        listed under "HTTP API" in ``docs/service.md``)."""
        return self._request("GET", "/healthz")

    def fleet(self) -> Dict[str, Any]:
        """The ``repro.fleet/v1`` membership document: registry rows,
        live/draining counts, store identity, shared-cache stats."""
        return self._request("GET", "/fleet")

    def drain(self) -> Dict[str, Any]:
        """Drain this worker: it stops claiming, checkpoints +
        re-queues its owned jobs and deregisters; returns the drain
        summary (``owned``/``requeued`` job ids)."""
        return self._request("POST", "/fleet/drain")

    def store(self) -> Dict[str, Any]:
        """The durable-store snapshot (``repro.store/v1``): job counts
        by state, result-cache stats, integrity findings."""
        return self._request("GET", "/store")

    def metrics(self) -> str:
        """The Prometheus exposition text of /metrics."""
        with self._exchange("GET", "/metrics") as resp:
            return resp.read().decode("utf-8")
