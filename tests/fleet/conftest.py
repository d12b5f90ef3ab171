"""Shared fleet-test plumbing: a live store server on an ephemeral
port.

The asyncio :class:`~repro.fleet.netstore.StoreServer` runs on a
private event loop in a daemon thread (the same shape as production
``repro store serve``, minus signals); tests talk to it through
:class:`~repro.fleet.remote.RemoteJobStore` over real TCP, so every
test exercises the full ``repro.fleet-rpc/v1`` wire format.
"""

import asyncio
import threading
from contextlib import contextmanager

import pytest

from repro.fleet import RemoteJobStore, StoreServer
from repro.serve import SQLiteJobStore


@contextmanager
def live_store_server(backing, port=0):
    """Start a store server over ``backing`` (on ``port``; 0 binds an
    ephemeral one), yield it, tear down."""
    server = StoreServer(backing, port=port)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(),
                                         loop).result(timeout=10)
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(),
                                         loop).result(timeout=30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


@pytest.fixture
def backing(tmp_path):
    s = SQLiteJobStore(tmp_path / "jobs.db", cache_budget=None)
    yield s
    s.close()


@pytest.fixture
def store_server(backing):
    with live_store_server(backing) as server:
        yield server


@pytest.fixture
def remote(store_server):
    """A RemoteJobStore client wired to the live server (fast retry
    settings so failure tests stay quick)."""
    return RemoteJobStore(store_server.url, timeout=10.0,
                          retries=2, backoff=0.01)


@pytest.fixture
def store_server_factory():
    return live_store_server
