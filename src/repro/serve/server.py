"""HTTP front door for the simulation service: the job API's routes.

Framing, body caps, the socket lifecycle and the 400/413/431/500
paths are :mod:`repro.serve.transport`'s; this module maps the routes
listed under "HTTP API" in ``docs/service.md`` to
:class:`~repro.serve.scheduler.Scheduler` calls and status codes.  The
server owns no policy: every decision is the scheduler's.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import AsyncIterator, Dict, Optional

from .jobs import JobError
from .scheduler import AdmissionError, Scheduler
from .transport import (HTTPServer, json_response, response,
                        serve_until_signal)

__all__ = ["ServeError", "Server", "run_server"]

#: cap on request bodies (a job spec is tiny; anything bigger is abuse)
MAX_BODY = 1 << 20

#: poll period of the live event stream
_EVENT_POLL = 0.05


class ServeError(RuntimeError):
    """Service configuration/usage error (CLI exit 2)."""


def _error(status: int, message: str,
           extra: Optional[Dict[str, str]] = None) -> bytes:
    return json_response(status, {"error": message}, extra)


class Server(HTTPServer):
    """One scheduler behind one listening socket; starting and
    stopping the server starts and stops the scheduler."""

    prog = "repro serve"
    max_body = MAX_BODY

    def __init__(self, scheduler: Scheduler, *,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host, port)
        self.scheduler = scheduler

    async def start(self) -> "Server":
        self.scheduler.start()
        return await super().start()

    async def stop(self) -> None:
        await super().stop()
        # scheduler.stop joins worker threads; keep the loop responsive
        await asyncio.to_thread(self.scheduler.stop)

    error_response = staticmethod(_error)

    def banner(self) -> str:
        sched = self.scheduler
        return (f"listening on {self.url}/ ({sched.slots} slot(s), "
                f"queue bound {sched.queue_depth}, store "
                f"{sched.store.kind}, worker {sched.worker_id})")

    async def respond(self, method: str, path: str, body: bytes):
        # nearly every route calls the store -- an RPC on a fleet -- so
        # routing runs on a thread: a slow call stalls no other
        # connection (and ``drain`` may join slot threads mid-job)
        return await asyncio.to_thread(self._route, method, path, body)

    def _route(self, method: str, path: str, body: bytes):
        sched = self.scheduler
        route = (method, *[p for p in path.split("?")[0].split("/")
                           if p])

        if route == ("GET", "healthz"):
            counts = sched.store.counts()
            try:
                fleet = sched.store.fleet_summary()
                cache = sched.store.cache_stats()
            except Exception:  # registry trouble is not fatal here
                fleet, cache = {}, {}
            queued = counts.get("queued", 0)
            return json_response(200, {
                "status": "ok",
                "jobs": sum(counts.values()),
                "queued": queued,
                "running": counts.get("running", 0),
                "slots": sched.slots,
                "leases_in_use": sched.broker.in_use,
                "queue_depth": queued,
                "queue_limit": sched.queue_depth,
                "store": sched.store.kind,
                "store_url": getattr(sched.store, "url", None),
                "worker": sched.worker_id,
                "draining": sched.draining,
                "fleet": fleet,
                "cache": cache,
                "uptime_seconds": (time.time() - self.started_at
                                   if self.started_at else 0.0),
            })
        if route == ("GET", "fleet"):
            return json_response(200, sched.fleet_status())
        if route == ("POST", "fleet", "drain"):
            return json_response(200, sched.drain())
        if route == ("GET", "store"):
            store = sched.store
            return json_response(200, {
                "schema": "repro.store/v1",
                "kind": store.kind,
                "worker": sched.worker_id,
                "jobs": store.counts(),
                "cache": store.cache_stats(),
                "findings": store.verify(),
            })
        if route == ("GET", "metrics"):
            from ..obs.export import format_prometheus
            return response(
                200, format_prometheus(sched.metrics).encode("utf-8"),
                content_type="text/plain; version=0.0.4")
        if route == ("POST", "jobs"):
            return self._submit(body)
        if route == ("GET", "jobs"):
            return json_response(
                200, {"jobs": [j.to_dict() for j in sched.jobs()]})
        if len(route) >= 3 and route[1] == "jobs":
            return self._job_route(route)
        return _error(404, f"no route {method} {path}")

    def _submit(self, body: bytes) -> bytes:
        from .jobs import JobSpec
        try:
            doc = json.loads(body.decode("utf-8") or "null")
            spec = JobSpec.from_dict(doc)
        except (ValueError, JobError) as e:
            return _error(400, str(e))
        try:
            job = self.scheduler.submit(spec)
        except AdmissionError as e:
            return _error(
                429, str(e), extra={"Retry-After":
                                    str(max(1, round(e.retry_after)))})
        return json_response(201, job.admitted.to_dict())

    def _job_route(self, route):
        sched = self.scheduler
        method, _, job_id, *rest = route
        try:
            job = sched.get(job_id)
        except KeyError as e:
            return _error(404, str(e))
        try:
            if method == "GET" and not rest:
                return json_response(200, job.to_dict())
            if method == "GET" and rest == ["events"]:
                return self._stream_events(job_id)
            if method == "GET" and rest == ["trace"]:
                return json_response(200, {
                    "schema": "repro.trace/v1",
                    "job": job.id,
                    "state": job.state,
                    "trace_id": job.trace_id,
                    "spans": job.span_events(),
                })
            if method == "DELETE" and not rest:
                return json_response(200, sched.cancel(job_id).to_dict())
            if method == "POST" and rest == ["pause"]:
                return json_response(200, sched.pause(job_id).to_dict())
            if method == "POST" and rest == ["resume"]:
                return json_response(200, sched.resume(job_id).to_dict())
            return _error(404, "no such job operation")
        except JobError as e:
            return _error(409, str(e))

    async def _stream_events(self, job_id: str) -> AsyncIterator[bytes]:
        """NDJSON event stream: recorded events first, then live ones
        until the job reaches a resting state.  Events come from the
        store's event log, so every worker streams the same events
        whichever one runs the job.  The body is EOF-terminated (no
        Content-Length), so plain ``http.client`` readers just read
        lines until the connection closes."""
        sched = self.scheduler
        yield response(200, None, content_type="application/x-ndjson")
        sent = 0
        while True:
            job, events = await asyncio.to_thread(
                lambda: (sched.get(job_id), sched.events(job_id)))
            batch = events[sent:]
            sent = len(events)
            resting = job.terminal or job.state == "paused"
            if resting:
                batch.append({"event": "state", "state": job.state})
            yield "".join(json.dumps(e) + "\n"
                          for e in batch).encode("utf-8")
            if resting:
                return
            await asyncio.sleep(_EVENT_POLL)


def run_server(*, host: str = "127.0.0.1", port: int = 8014,
               slots: int = 2, boards: int = 2, queue_depth: int = 16,
               workdir: Optional[object] = None,
               store: Optional[object] = None,
               worker_id: Optional[str] = None,
               claim_ttl: float = 30.0,
               quota: Optional[object] = None,
               cache: bool = True,
               cache_budget: Optional[int] = None,
               metrics: Optional[object] = None,
               tracer: Optional[object] = None) -> int:
    """Blocking entry point behind ``repro serve``.

    Builds the scheduler + server, runs the asyncio loop until a
    termination signal, and returns the process exit code.  The
    default ``worker_id`` is stable across restarts (``host:port``),
    so a restarted server reclaims its own orphaned jobs immediately
    instead of waiting out the claim TTL.
    """
    sched = Scheduler(slots=slots, boards=boards,
                      queue_depth=queue_depth,
                      workdir=workdir, store=store,
                      worker_id=worker_id or f"{host}:{port}",
                      claim_ttl=claim_ttl, quota=quota, cache=cache,
                      cache_budget=cache_budget,
                      metrics=metrics, tracer=tracer)
    server = Server(sched, host=host, port=port)
    try:
        asyncio.run(serve_until_signal(server))
    except KeyboardInterrupt:
        sched.stop()
    return 0
