"""Store-side probes: a counting ``JobStore`` proxy and the per-op
micro-benchmark.

The proxy is handed to ``Scheduler(store=...)`` and wrapped around a
``StoreServer``'s backing store, so the benchmark counts (and times)
every store operation a job costs on either side of the fleet RPC
without touching the program.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List

from repro.serve.jobs import Job, JobSpec
from repro.serve.store import JobStore

from spine_spans import median, timed


def store_ops() -> List[str]:
    """Every public method of the ``JobStore`` contract, by
    introspection -- a new op is counted without editing this file."""
    return sorted(name for name, attr in vars(JobStore).items()
                  if callable(attr) and not name.startswith("_"))


def _delegate(op: str) -> Callable:
    def call(self, *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        try:
            return getattr(self.inner, op)(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            with self._lock:
                self.calls[op] = self.calls.get(op, 0) + 1
                self.seconds[op] = self.seconds.get(op, 0.0) + wall
    call.__name__ = op
    return call


class CountingStore(JobStore):
    """A ``JobStore`` that forwards every contract method to ``inner``
    and keeps per-op call counts and wall seconds."""

    def __init__(self, inner: JobStore) -> None:
        self.inner = inner
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self._lock = threading.Lock()

    @property
    def kind(self) -> str:  # the scheduler's drain policy reads it
        return self.inner.kind

    def __getattr__(self, name: str) -> Any:
        # non-contract attributes (``path``, ``url``) of the real store
        return getattr(self.__dict__["inner"], name)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"calls": dict(self.calls),
                    "seconds": dict(self.seconds)}

    @property
    def total_calls(self) -> int:
        with self._lock:
            return sum(self.calls.values())

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds.values())


for _op in store_ops():
    setattr(CountingStore, _op, _delegate(_op))

#: the ops the micro-benchmark times, in the order one job meets them
PROBED_OPS = ("allocate", "insert", "claim", "update", "get",
              "append_event", "cache_put", "cache_get")


def store_microbench(store: JobStore, calls: int, *, n: int
                     ) -> Dict[str, float]:
    """p50 wall seconds of ``calls`` direct calls per op on ``store``
    (a scratch store: the rows it leaves are thrown away with it)."""
    walls: Dict[str, List[float]] = {op: [] for op in PROBED_OPS}

    def call(op: str, *args: Any, **kwargs: Any) -> Any:
        wall, out = timed(getattr(store, op), *args, **kwargs)
        walls[op].append(wall)
        return out

    worker = "spine-probe"
    for i in range(calls):
        jid, seq = call("allocate")
        job = Job(spec=JobSpec("force_eval", {"n": n, "seed": i}), id=jid)
        job.seq = seq
        doc = job.to_store_doc()
        call("insert", doc)
        call("claim", jid, worker, now=time.time(), ttl=30.0)
        doc = dict(doc, state="running", worker=worker)
        call("update", doc, worker=worker)
        call("get", jid)
        call("append_event", jid, {"event": "probe", "i": i})
        key = f"spine-probe-{i:06d}"
        call("cache_put", key, "0" * 64, {"digest": "0" * 64, "n": n})
        call("cache_get", key)
    return {op: median(w) for op, w in walls.items()}
