"""Shared serve-test plumbing: a live server on an ephemeral port.

The asyncio server runs on a private event loop in a daemon thread
(the same shape as production ``repro serve``, minus signals); tests
talk to it through the stdlib :class:`~repro.serve.client.ServeClient`
over real TCP, so the full wire format is exercised.
"""

import asyncio
import threading
from contextlib import contextmanager

import pytest

from repro.serve import Scheduler, ServeClient, Server

#: tiny but non-trivial paper run: finishes in a couple of seconds
TINY_RUN = {"ngrid": 6, "steps": 2, "z_final": 12.0}


@contextmanager
def live_server(*, slots=2, queue_depth=16, workdir=None, **sched_kw):
    """Start a service, yield ``(server, client)``, tear down.

    The result cache defaults *off* here (tests that race identical
    specs rely on both actually computing); cache tests pass
    ``cache=True`` explicitly.
    """
    sched_kw.setdefault("cache", False)
    with serving(Scheduler(slots=slots, queue_depth=queue_depth,
                           workdir=workdir, **sched_kw)) as pair:
        yield pair


@contextmanager
def serving(sched):
    """Put an already-built scheduler behind a live server (starting
    it), yield ``(server, client)``, tear both down."""
    server = Server(sched, port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(),
                                         loop).result(timeout=10)
        yield server, ServeClient(port=server.port)
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(),
                                         loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


@pytest.fixture
def server_pair(tmp_path):
    with live_server(workdir=tmp_path / "serve") as pair:
        yield pair


@pytest.fixture
def serve_factory():
    """The :func:`live_server` context manager, for tests that need
    non-default slots / queue depth."""
    return live_server


@pytest.fixture
def tiny_run():
    return dict(TINY_RUN)
