"""E14 -- service throughput (ISSUE 5 extension, no paper analogue).

The paper's operating model is one astronomer, one host, one GRAPE-5.
``repro.serve`` generalises that to a shared facility; this benchmark
measures what the generalisation costs: jobs/second through the full
HTTP + scheduler + slot path, and the submit-to-done latency
distribution, for a burst of small force-evaluation jobs at the
admission-control queue bound (depth 16).

The workload is deliberately scheduler-dominated (tiny N = 256 force
evaluations) so the numbers track service overhead, not treecode
speed -- E1/E5 already own the compute story.
"""

import asyncio
import threading

from conftest import emit
from repro.perf.report import format_table
from repro.serve import JOB_SCHEMA, Scheduler, ServeClient, Server

QUEUE_DEPTH = 16
BURST = 16  # one full queue of jobs per measured round
SPEC = {"schema": JOB_SCHEMA, "kind": "force_eval",
        "params": {"n": 256}}


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list."""
    i = max(0, min(len(sorted_vals) - 1,
                   round(q * (len(sorted_vals) - 1))))
    return sorted_vals[i]


def _serve_burst():
    """Run one burst of BURST jobs through a live service; return
    (jobs_per_second, latencies)."""
    sched = Scheduler(slots=2, queue_depth=QUEUE_DEPTH)
    server = Server(sched, port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(),
                                         loop).result(timeout=10)
        client = ServeClient(port=server.port)
        ids = [client.submit(SPEC)["id"] for _ in range(BURST)]
        docs = [client.wait(jid, timeout=300) for jid in ids]
        assert all(d["state"] == "done" for d in docs)
        t0 = min(d["submitted_at"] for d in docs)
        t1 = max(d["finished_at"] for d in docs)
        lat = sorted(d["finished_at"] - d["submitted_at"]
                     for d in docs)
        return BURST / max(t1 - t0, 1e-9), lat
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(),
                                         loop).result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def test_serve_throughput(benchmark, results_dir):
    jps, lat = benchmark.pedantic(_serve_burst, rounds=1,
                                  iterations=1, warmup_rounds=1)
    p50 = _percentile(lat, 0.50)
    p95 = _percentile(lat, 0.95)
    benchmark.extra_info.update({
        "jobs_per_second": round(jps, 2),
        "latency_p50_s": round(p50, 4),
        "latency_p95_s": round(p95, 4),
        "burst": BURST,
        "queue_depth": QUEUE_DEPTH,
    })
    rows = [{"jobs": BURST, "queue depth": QUEUE_DEPTH,
             "jobs/s": round(jps, 2),
             "p50 [ms]": round(1e3 * p50, 1),
             "p95 [ms]": round(1e3 * p95, 1)}]
    emit(results_dir, "serve_throughput",
         "submit-to-done through HTTP + scheduler + GRAPE slot\n"
         + format_table(rows))

    # a burst of tiny jobs must clear the queue at a usable rate and
    # keep tail latency bounded (generous: CI boxes are slow)
    assert jps > 0.5
    assert p95 < 60.0
