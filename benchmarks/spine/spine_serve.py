"""The two serve workloads: one seeded closed-loop job stream pushed
through an in-process ``Scheduler`` + ``Server``.

``serve_local`` keeps the job store in a local SQLite file, so
admission, scheduler, SQLite and HTTP carry the time and no fleet RPC is
made.  ``serve_fleet`` puts the same store behind a ``StoreServer`` on
real TCP, so every store op crosses ``repro.fleet-rpc/v1``: RPC and
transport work shows there and predicts no change on ``serve_local``.

Half the jobs repeat one of a few hot specs inserted during set-up
(cache hits: store reads), half carry a fresh seed (misses: compute
plus store writes), shuffled by the workload seed.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.fleet import StoreServer
from repro.serve import (JOB_SCHEMA, Backpressure, Scheduler, ServeClient,
                         Server, SQLiteJobStore, open_store)

from spine_config import FIXED_CONFIG, scratch_dir
from spine_calib import speed
from spine_spans import SpanRecorder, median, span, timed
from spine_store import CountingStore, store_microbench
from spine_workload import Workload

_JOB_TIMEOUT = 60.0
_SUBMIT_DEADLINE = 30.0


class LoopThread:
    """An asyncio event loop running on its own thread."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name=name, daemon=True)
        self.thread.start()

    def run(self, coro, timeout: float = 60.0):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout=timeout)

    def stop(self) -> None:
        self.run(self.loop.shutdown_default_executor())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


class StoreEndpoint:
    """A ``StoreServer`` over ``backing``, on its own loop (schedulers
    make blocking RPCs from the serve loop; sharing it would deadlock)."""

    def __init__(self, backing) -> None:
        self.backing = backing
        self.loop = LoopThread("spine-store")
        self.server = StoreServer(backing)
        self.loop.run(self.server.start())
        self.url = self.server.url

    def stop(self) -> None:
        self.loop.run(self.server.stop())
        self.loop.stop()
        self.backing.close()


class ServeStack:
    """Scheduler + Server (+ StoreServer for the fleet workload), with
    counting proxies around the stores when ``instrument`` is set."""

    def __init__(self, root: Path, *, fleet: bool, instrument: bool) -> None:
        self.endpoint: Optional[StoreEndpoint] = None
        self.remote_side: Optional[CountingStore] = None
        self.worker_side: Optional[CountingStore] = None
        store: Any = root / "jobs.db"
        if fleet:
            backing: Any = SQLiteJobStore(root / "jobs.db")
            if instrument:
                backing = self.remote_side = CountingStore(backing)
            self.endpoint = StoreEndpoint(backing)
            store = self.endpoint.url
        if instrument:
            store = self.worker_side = CountingStore(open_store(store))
        self.scheduler = Scheduler(
            slots=FIXED_CONFIG["scheduler_slots"],
            boards=FIXED_CONFIG["boards"], store=store, cache=True,
            workdir=root / "work")
        self.loop = LoopThread("spine-serve")
        self.server = Server(self.scheduler, port=0)
        self.loop.run(self.server.start())
        self.port = self.server.port

    def stop(self) -> None:
        self.loop.run(self.server.stop(), timeout=120.0)
        self.loop.stop()
        self.scheduler.store.close()
        if self.endpoint is not None:
            self.endpoint.stop()


def job_stream(seed: int, n: int, hot_seeds: List[int]
               ) -> Iterator[Tuple[bool, Dict[str, Any]]]:
    """The endless seeded job mix: blocks of 20 ``force_eval`` jobs,
    half hot and half fresh, shuffled.  Only ``n`` and ``seed`` are
    set, so the service's own defaults (and kernel path) apply."""
    rng = random.Random(seed)
    fresh = 1_000_000 * (seed % 1000 + 1)
    while True:
        block = [True] * 10 + [False] * 10
        rng.shuffle(block)
        for hot in block:
            if hot:
                s = hot_seeds[rng.randrange(len(hot_seeds))]
            else:
                fresh += 1
                s = fresh
            yield hot, {"schema": JOB_SCHEMA, "kind": "force_eval",
                        "params": {"n": n, "seed": s}}


class ServeWorkload(Workload):
    """A unit is one job, from the submit call to the terminal state the
    client observes."""

    def __init__(self, name: str, sizes: Dict[str, Any], seed: int) -> None:
        super().__init__(name, sizes, seed)
        self.fleet = name == "serve_fleet"
        self.root: Optional[Path] = None
        self.stack: Optional[ServeStack] = None
        self.hot_seeds = [100 * (self.seed % 10_000) + k
                          for k in range(FIXED_CONFIG["hot_specs"])]
        self.hot_digest: Dict[int, str] = {}
        self.stream = job_stream(self.seed, sizes["n"], self.hot_seeds)
        self.probe_marks: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- set-up --------------------------------------------------------
    def setup(self, rec: Optional[SpanRecorder], *,
              instrument: bool = False) -> None:
        """Start the servers on a fresh store and insert the hot specs
        (each is computed once, which fills the result cache)."""
        self.teardown()
        self.root = scratch_dir(f"spine-{self.name}-")
        with span(rec, "serve.start"):
            self.stack = ServeStack(self.root, fleet=self.fleet,
                                    instrument=instrument)
        client = self._client()
        with span(rec, "serve.insert_hot"):
            for s in self.hot_seeds:
                spec = {"schema": JOB_SCHEMA, "kind": "force_eval",
                        "params": {"n": self.sizes["n"], "seed": s}}
                doc = client.wait(client.submit(spec)["id"],
                                  timeout=_JOB_TIMEOUT,
                                  poll=FIXED_CONFIG["client_poll_s"])
                if doc["state"] != "done" or doc["cache_hit"]:
                    raise RuntimeError(f"hot spec {s} was not computed: "
                                       f"{doc['state']}")
                self.hot_digest[s] = doc["result"]["digest"]
            # the result is cached just after the job turns ``done``
            t_end = time.monotonic() + 10.0
            store = self.stack.scheduler.store
            while store.cache_stats()["entries"] < len(self.hot_seeds):
                if time.monotonic() > t_end:
                    raise RuntimeError("hot specs never reached the cache")
                time.sleep(0.005)

    def teardown(self) -> None:
        if self.stack is not None:
            self.stack.stop()
        self.stack = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        self.root = None

    def begin_traced(self, rec: SpanRecorder) -> None:
        """Rebuild the servers with counting proxies around the stores."""
        self.setup(rec, instrument=True)

    def _client(self) -> ServeClient:
        return ServeClient(port=self.stack.port, timeout=30.0)

    # -- the measured region -------------------------------------------
    def _one_job(self, client: ServeClient, idx: int, hot: bool,
                 spec: Dict[str, Any], rec: Optional[SpanRecorder],
                 clock_offset: float) -> Dict[str, Any]:
        job = {"wall": None, "ok": False, "traced": rec is not None,
               "interactions": 0, "hot": hot,
               "seed": spec["params"]["seed"], "doc": None,
               "submit_wall": None, "refused": 0, "error": None}
        t0 = time.perf_counter()
        try:
            with span(rec, "serve.job", unit=idx) as sid:
                while True:
                    try:
                        with span(rec, "serve.submit"):
                            job["submit_wall"], doc = timed(client.submit,
                                                            spec)
                        break
                    except Backpressure as e:
                        job["refused"] += 1
                        if time.perf_counter() - t0 > _SUBMIT_DEADLINE:
                            raise
                        time.sleep(e.retry_after)
                with span(rec, "serve.wait"):
                    doc = client.wait(doc["id"], timeout=_JOB_TIMEOUT,
                                      poll=FIXED_CONFIG["client_poll_s"])
            job["wall"] = time.perf_counter() - t0
            job["doc"] = doc
            job["ok"] = doc["state"] == "done"
            if job["ok"]:
                job["interactions"] = doc["result"]["interactions"]
            else:
                job["error"] = f"job ended {doc['state']}: {doc['error']}"
            if rec is not None and job["ok"]:
                # the server's own timestamps, moved onto this clock
                rec.add("serve.queue_wait",
                        doc["submitted_at"] - clock_offset,
                        doc["started_at"] - clock_offset, parent=sid)
                rec.add("serve.run", doc["started_at"] - clock_offset,
                        doc["finished_at"] - clock_offset, parent=sid)
        except (OSError, RuntimeError, TimeoutError) as e:
            job["error"] = f"{type(e).__name__}: {e}"
        return job

    def measure(self, seconds: float, rec: Optional[SpanRecorder]) -> None:
        """``clients`` closed-loop threads pull jobs off the stream until
        ``seconds`` have passed (and ``min_units`` were issued).  The
        stream runs in slices of ``slice_s`` seconds; between slices the
        clients finish their job and the calibration job runs alone."""
        if rec is not None:
            self.probe_marks = self._marks()
        spent = 0.0
        issued = len(self.units)
        target = issued + self.sizes["min_units"]
        before = self.calibrate()
        while spent < seconds or issued < target:
            budget = min(FIXED_CONFIG["slice_s"], seconds - spent)
            if budget > 0.0:        # a timed slice
                done = lambda n, elapsed: elapsed >= budget
            else:                   # time is up: top up to min_units
                done = lambda n, elapsed: n >= target
            wall, jobs = timed(self._slice, done, issued, rec)
            # the servers still cache and log the last results for a
            # moment after their jobs read ``done``
            time.sleep(FIXED_CONFIG["settle_s"])
            after = self.calibrate()
            factor = speed(before, after)
            for job in jobs:
                job["speed"] = factor
            self.units.extend(jobs)
            if rec is None:
                self.measured_wall += wall * factor
            issued += len(jobs)
            spent += wall
            before = after

    def _slice(self, done, first: int, rec: Optional[SpanRecorder]
               ) -> List[Dict[str, Any]]:
        """One slice of the stream, until ``done(issued, elapsed)``;
        returns its jobs."""
        jobs: List[Dict[str, Any]] = []
        issued = first
        clock_offset = time.time() - time.perf_counter()
        t_start = time.perf_counter()

        def client_loop() -> None:
            nonlocal issued
            client = self._client()
            while True:
                with self._lock:
                    if done(issued, time.perf_counter() - t_start):
                        return
                    idx = issued
                    issued += 1
                    hot, spec = next(self.stream)
                job = self._one_job(client, idx, hot, spec, rec,
                                    clock_offset)
                with self._lock:
                    jobs.append(job)

        threads = [threading.Thread(target=client_loop,
                                    name=f"spine-client-{k}")
                   for k in range(FIXED_CONFIG["clients"])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return jobs

    # -- correctness ---------------------------------------------------
    def check(self) -> List[str]:
        bad = [f"job not done: {u['error']}"
               for u in self.units if not u["ok"]]
        for u in self.units:
            if not u["ok"]:
                continue
            doc = u["doc"]
            if bool(doc["cache_hit"]) != u["hot"]:
                bad.append(f"job {doc['id']} (seed {u['seed']}): cache_hit="
                           f"{doc['cache_hit']} but hot={u['hot']}")
            elif u["hot"] and (doc["result"]["digest"]
                               != self.hot_digest[u["seed"]]):
                bad.append(f"job {doc['id']}: a cache hit's digest differs "
                           f"from the computed result of seed {u['seed']}")
        return bad[:5]

    def exact(self) -> Dict[str, Any]:
        return {"hot_digests": [self.hot_digest[s] for s in self.hot_seeds]}

    # -- per-layer probes (traced run) ---------------------------------
    def _marks(self) -> Dict[str, Any]:
        """Counter readings the per-job ratios are differenced from."""
        st = self.stack
        return {
            "hits": st.scheduler.store.cache_stats()["hits"],
            "worker": (st.worker_side.snapshot() if st.worker_side
                       else None),
            "remote": (st.remote_side.snapshot() if st.remote_side
                       else None),
        }

    def layers(self, rec: SpanRecorder) -> Dict[str, float]:
        out: Dict[str, float] = {}
        end = self._marks()
        start = self.probe_marks
        jobs = [u for u in self.units if u["traced"]]
        done = [u for u in jobs if u["ok"]]
        n = max(1, len(jobs))

        client = self._client()
        walls = []
        for _ in range(30):
            with span(rec, "serve.healthz"):
                walls.append(timed(client.healthz)[0])
        out["serve.http_roundtrip_s"] = median(walls)

        lat = [j["wall"] for j in done]
        docs = [j["doc"] for j in done]
        queue = [d["started_at"] - d["submitted_at"] for d in docs]
        run = [d["finished_at"] - d["started_at"] for d in docs]
        notify = [l - (d["finished_at"] - d["submitted_at"])
                  for l, d in zip(lat, docs)]
        out["serve.submit_s"] = median([j["submit_wall"] for j in done])
        out["serve.queue_wait_s"] = median(queue)
        out["serve.run_s"] = median(run)
        out["serve.notify_s"] = median(notify)
        # ratio base: the median client-observed latency of the same jobs
        out["serve.attributed_ratio"] = (
            (out["serve.queue_wait_s"] + out["serve.run_s"]
             + out["serve.notify_s"]) / median(lat))
        out["serve.latency_hit_p50_s"] = median(
            [j["wall"] for j in done if j["hot"]])
        out["serve.latency_miss_p50_s"] = median(
            [j["wall"] for j in done if not j["hot"]])
        out["serve.cache_hit_ratio"] = (end["hits"] - start["hits"]) / n
        out["serve.backpressure_429"] = sum(j["refused"] for j in jobs)

        def delta(side: str, field: str) -> float:
            return (sum(end[side][field].values())
                    - sum(start[side][field].values()))

        out["store.ops_per_job"] = delta("worker", "calls") / n
        tmp = scratch_dir("spine-store-")
        calls = self.sizes["store_probe_calls"]
        try:
            scratch = SQLiteJobStore(tmp / "probe.db")
            try:
                with span(rec, "store.sqlite.probe"):
                    for op, s in store_microbench(
                            scratch, calls, n=self.sizes["n"]).items():
                        out[f"store.sqlite.{op}_s"] = s
            finally:
                scratch.close()
            if self.fleet:
                ops = delta("worker", "calls")
                out["fleet.rpc_per_job"] = delta("remote", "calls") / n
                out["fleet.transport_self_s"] = (
                    (delta("worker", "seconds")
                     - delta("remote", "seconds")) / max(1, ops))
                endpoint = StoreEndpoint(SQLiteJobStore(tmp / "remote.db"))
                try:
                    remote = open_store(endpoint.url)
                    with span(rec, "store.remote.probe"):
                        for op, s in store_microbench(
                                remote, calls, n=self.sizes["n"]).items():
                            out[f"store.remote.{op}_s"] = s
                    out["fleet.rpc_roundtrip_s"] = median(
                        [timed(remote.get, "spine-no-such-job")[0]
                         for _ in range(calls)])
                finally:
                    endpoint.stop()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return out
