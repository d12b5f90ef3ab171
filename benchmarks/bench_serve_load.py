"""Serve load -- concurrent clients on the durable store (ISSUE 8),
and on a three-worker fleet over the network store (ISSUE 10).

E14 measures one client bursting jobs through the in-memory service;
``serve_load`` measures the PR-8 configuration under *load*: many
concurrent clients hammering one server backed by the SQLite-WAL
:class:`~repro.serve.store.SQLiteJobStore` with the content-addressed
result cache on.  The client population repeats a small set of
distinct specs, so most submissions are cache hits -- the measured
path is admission + store CAS + cache lookup + HTTP, which is exactly
the overhead the durable refactor added over PR 5's in-memory
scheduler.

``serve_fleet_load`` is the PR-10 configuration: the same 96 clients
spread round-robin across *three* workers that share one
``repro store serve`` process over real TCP -- every claim,
heartbeat, cache lookup and result write crosses the
``repro.fleet-rpc/v1`` wire.  The delta against ``serve_load`` is the
price of cross-host operation.

Gates: hard in-test ceilings on the submit-to-done latency
distribution (p50/p95/p99).  ``jobs_per_second`` is reported, not
gated here -- service wall clock is gated by the spine's
``serve_local`` / ``serve_fleet`` workloads (``BENCHMARK.json``).
"""

import asyncio
import tempfile
import threading
import time
from pathlib import Path

from conftest import emit
from repro.fleet import StoreServer
from repro.perf.report import format_table
from repro.serve import (JOB_SCHEMA, Scheduler, ServeClient, Server,
                         SQLiteJobStore)

CLIENTS = 96       #: concurrent client threads, one job each
DISTINCT = 12      #: distinct specs -> DISTINCT computes, rest cached
SLOTS = 2
QUEUE_DEPTH = 32
FLEET_WORKERS = 3  #: serve_fleet_load: workers sharing one net store

# generous ceilings -- CI boxes are slow; throughput regressions are
# the spine's to catch (serve_local / serve_fleet)
P50_CEILING_S = 30.0
P95_CEILING_S = 60.0
P99_CEILING_S = 90.0


def _spec(i):
    return {"schema": JOB_SCHEMA, "kind": "force_eval",
            "params": {"n": 256, "seed": i % DISTINCT}}


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    i = max(0, min(len(sorted_vals) - 1,
                   round(q * (len(sorted_vals) - 1))))
    return sorted_vals[i]


def _load_round():
    """CLIENTS threads submit-and-wait against one durable server;
    returns (jobs_per_second, sorted latencies, cache stats)."""
    tmp = tempfile.TemporaryDirectory(prefix="repro-serve-load-")
    root = Path(tmp.name)
    sched = Scheduler(slots=SLOTS, queue_depth=QUEUE_DEPTH,
                      workdir=root / "work", store=root / "jobs.db",
                      cache=True, poll_interval=0.02)
    server = Server(sched, port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(),
                                         loop).result(timeout=10)
        client = ServeClient(port=server.port, timeout=30.0)
        latencies = [None] * CLIENTS
        states = [None] * CLIENTS

        def one_client(i):
            t0 = time.perf_counter()
            doc = client.submit_wait(_spec(i), deadline=300.0)
            done = client.wait(doc["id"], timeout=300.0)
            latencies[i] = time.perf_counter() - t0
            states[i] = done["state"]

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        assert all(s == "done" for s in states), states
        stats = sched.store.cache_stats()
        return CLIENTS / max(wall, 1e-9), sorted(latencies), stats
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(),
                                         loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        tmp.cleanup()


def _fleet_round():
    """CLIENTS threads spread over FLEET_WORKERS workers sharing one
    network store; returns (jobs_per_second, sorted latencies,
    fleet-wide cache stats, executing worker ids)."""
    tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-load-")
    root = Path(tmp.name)
    backing = SQLiteJobStore(root / "jobs.db")
    store_server = StoreServer(backing)
    # the store server needs its own loop: worker schedulers make
    # *blocking* RPC calls from coroutines on the serve loop, which
    # would deadlock a store server sharing it
    store_loop = asyncio.new_event_loop()
    store_thread = threading.Thread(target=store_loop.run_forever,
                                    daemon=True)
    store_thread.start()
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    servers = []

    def on_loop(coro, timeout=30, lp=None):
        return asyncio.run_coroutine_threadsafe(
            coro, lp or loop).result(timeout=timeout)

    try:
        on_loop(store_server.start(), lp=store_loop)
        for w in range(FLEET_WORKERS):
            sched = Scheduler(slots=SLOTS, queue_depth=QUEUE_DEPTH,
                              workdir=root / f"work{w}",
                              store=store_server.url,
                              worker_id=f"bench-w{w}", cache=True,
                              poll_interval=0.02)
            server = Server(sched, port=0)
            on_loop(server.start())
            servers.append(server)
        clients = [ServeClient(port=s.port, timeout=30.0)
                   for s in servers]
        latencies = [None] * CLIENTS
        docs = [None] * CLIENTS

        def one_client(i):
            client = clients[i % FLEET_WORKERS]
            t0 = time.perf_counter()
            doc = client.submit_wait(_spec(i), deadline=300.0)
            docs[i] = client.wait(doc["id"], timeout=300.0)
            latencies[i] = time.perf_counter() - t0

        threads = [threading.Thread(target=one_client, args=(i,))
                   for i in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        assert all(d["state"] == "done" for d in docs), \
            [d["state"] for d in docs]
        workers = {d["worker"] for d in docs if d.get("worker")}
        stats = backing.cache_stats()
        return (CLIENTS / max(wall, 1e-9), sorted(latencies), stats,
                workers)
    finally:
        for server in servers:
            on_loop(server.stop(), timeout=60)
        on_loop(store_server.stop(), timeout=60, lp=store_loop)
        for lp, th in ((loop, thread), (store_loop, store_thread)):
            lp.call_soon_threadsafe(lp.stop)
            th.join(timeout=10)
            lp.close()
        backing.close()
        tmp.cleanup()


def test_serve_load(benchmark, results_dir):
    jps, lat, cache = benchmark.pedantic(_load_round, rounds=1,
                                         iterations=1)
    p50 = _percentile(lat, 0.50)
    p95 = _percentile(lat, 0.95)
    p99 = _percentile(lat, 0.99)
    benchmark.extra_info.update({
        "jobs_per_second": round(jps, 2),
        "latency_p50_s": round(p50, 4),
        "latency_p95_s": round(p95, 4),
        "latency_p99_s": round(p99, 4),
        "clients": CLIENTS,
        "distinct_specs": DISTINCT,
        "cache_hits": cache["hits"],
    })
    rows = [{"clients": CLIENTS, "distinct": DISTINCT,
             "jobs/s": round(jps, 2),
             "cache hits": cache["hits"],
             "p50 [ms]": round(1e3 * p50, 1),
             "p95 [ms]": round(1e3 * p95, 1),
             "p99 [ms]": round(1e3 * p99, 1)}]
    emit(results_dir, "serve_load",
         f"{CLIENTS} concurrent clients, {DISTINCT} distinct specs, "
         f"SQLite store + result cache\n" + format_table(rows))

    # every repeat submission must have been served from the cache
    assert cache["hits"] == CLIENTS - DISTINCT
    # hard latency gates (see module docstring)
    assert p50 < P50_CEILING_S
    assert p95 < P95_CEILING_S
    assert p99 < P99_CEILING_S


def test_serve_fleet_load(benchmark, results_dir):
    jps, lat, cache, workers = benchmark.pedantic(_fleet_round,
                                                  rounds=1,
                                                  iterations=1)
    p50 = _percentile(lat, 0.50)
    p95 = _percentile(lat, 0.95)
    p99 = _percentile(lat, 0.99)
    benchmark.extra_info.update({
        "jobs_per_second": round(jps, 2),
        "latency_p50_s": round(p50, 4),
        "latency_p95_s": round(p95, 4),
        "latency_p99_s": round(p99, 4),
        "clients": CLIENTS,
        "workers": FLEET_WORKERS,
        "distinct_specs": DISTINCT,
        "cache_hits": cache["hits"],
        "workers_executing": len(workers),
    })
    rows = [{"clients": CLIENTS, "workers": FLEET_WORKERS,
             "distinct": DISTINCT,
             "jobs/s": round(jps, 2),
             "cache hits": cache["hits"],
             "p50 [ms]": round(1e3 * p50, 1),
             "p95 [ms]": round(1e3 * p95, 1),
             "p99 [ms]": round(1e3 * p99, 1)}]
    emit(results_dir, "serve_fleet_load",
         f"{CLIENTS} concurrent clients round-robin over "
         f"{FLEET_WORKERS} workers, one network store "
         f"(repro.fleet-rpc/v1)\n" + format_table(rows))

    # the fleet cache is shared: a spec computed on any worker is a
    # hit on every other.  Concurrent same-spec submissions may race
    # past the admission-time lookup, so the bound is a floor --
    # at worst each worker computes each distinct spec once.
    assert cache["hits"] >= CLIENTS - FLEET_WORKERS * DISTINCT
    assert cache["entries"] <= DISTINCT
    # the load genuinely spread: more than one worker executed jobs
    assert len(workers) > 1, workers
    # hard latency gates (see module docstring)
    assert p50 < P50_CEILING_S
    assert p95 < P95_CEILING_S
    assert p99 < P99_CEILING_S
