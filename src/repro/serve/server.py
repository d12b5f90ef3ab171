"""HTTP front door for the simulation service: the job API's routes.

Framing, body caps, the socket lifecycle and the 400/413/431/500
paths are :mod:`repro.serve.transport`'s; this module maps the routes
listed under "HTTP API" in ``docs/service.md`` to
:class:`~repro.serve.scheduler.Scheduler` calls and status codes.  The
server owns no policy: every decision is the scheduler's.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import time
from typing import AsyncIterator, Dict, Optional
from urllib.parse import parse_qs

from .jobs import TERMINAL_STATES, Job, JobError
from .scheduler import AdmissionError, Scheduler
from .transport import HTTPServer, json_response, response

__all__ = ["ServeError", "Server"]

#: cap on request bodies (a job spec is tiny; anything bigger is abuse)
MAX_BODY = 1 << 20

#: cap on a long-poll's hold, ``GET /jobs/{id}?wait=S`` (S is clamped)
MAX_WAIT = 60.0


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
        target, _, query = path.partition("?")
        route = (method, *[p for p in target.split("/") if p])
        wait = parse_qs(query).get("wait")
        if wait and route[:2] == ("GET", "jobs") and len(route) == 3:
            return await self._long_poll(route[2], wait[-1])
        return await asyncio.to_thread(self._route, route, body)

    async def _changes(self, job_id: str, hold: float = float("inf"),
                       until=TERMINAL_STATES) -> AsyncIterator[Job]:
        """The job now, then at each change :meth:`Scheduler.watch`
        signals (or its poll), until its state is in ``until`` or
        ``hold`` seconds have passed; a run's end is yielded as it hands
        the job over, with no read.  ``KeyError`` for an unknown job."""
        sched, loop = self.scheduler, asyncio.get_running_loop()
        t_end, job = loop.time() + hold, None
        while job is None or job.state not in until:
            job, changed, poll = await asyncio.to_thread(sched.watch, job_id)
            try:
                yield job
                left = t_end - loop.time()
                if job.state in until or left <= 0:
                    return
                with contextlib.suppress(asyncio.TimeoutError):
                    job = await asyncio.wait_for(
                        asyncio.wrap_future(changed), min(left, poll))
            finally:
                changed.cancel()
        yield job

    async def _long_poll(self, job_id: str, raw: str) -> bytes:
        """``GET /jobs/{id}?wait=S``: the job's document once terminal,
        else a plain GET's after S (at most :data:`MAX_WAIT`) seconds."""
        if not re.fullmatch(r"\d+\.?\d*|\.\d+", raw):
            return _error(400, f"wait={raw!r} is not a number of seconds")
        try:
            async for job in self._changes(job_id, min(float(raw), MAX_WAIT)):
                pass
        except KeyError as e:
            return _error(404, str(e))
        return json_response(200, job.to_dict())

    def _route(self, route: tuple, body: bytes):
        sched = self.scheduler
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
                "leases_in_use": int(sched.metrics.value(
                    "serve.leases_in_use")),
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
        return _error(404, f"no route {route[0]} /{'/'.join(route[1:])}")

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
        until the job reaches a resting state, read at each change
        (:meth:`_changes`) from the store's event log, past the rows
        already sent (every worker streams the same events).  The body
        has no Content-Length: it ends at EOF."""
        yield response(200, None, content_type="application/x-ndjson")
        sent, resting = 0, TERMINAL_STATES | {"paused"}
        async for job in self._changes(job_id, until=resting):
            batch = await asyncio.to_thread(self.scheduler.events, job_id,
                                            sent)
            sent += len(batch)
            if job.state in resting:
                batch.append({"event": "state", "state": job.state})
            yield "".join(json.dumps(e) + "\n"
                          for e in batch).encode("utf-8")
