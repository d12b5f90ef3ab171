"""The spine's own span recorder and its summary statistics.

Spans are recorded *from outside* the program: the benchmark opens one
around each call it makes into a layer's public function.  They are
held in memory and written as JSON lines when the run ends.  A span's
self time is its duration minus the part of that interval its direct
children cover.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence


class SpanRecorder:
    """In-memory spans: name, start, end, parent, and the unit (step or
    job) they belong to.  Thread-safe; nesting is tracked per thread."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name: str, start: float, unit: Optional[int],
              parent: Optional[int]) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "start": start,
                               "end": None, "parent": parent,
                               "unit": unit})
        return sid

    @contextmanager
    def span(self, name: str, *, unit: Optional[int] = None
             ) -> Iterator[int]:
        """Time the enclosed block; children opened on this thread
        inside it name it as their parent and inherit its unit."""
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if unit is None and parent is not None:
            unit = self.spans[parent]["unit"]
        sid = self._open(name, time.perf_counter(), unit, parent)
        stack.append(sid)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, *,
            parent: Optional[int] = None,
            unit: Optional[int] = None) -> int:
        """Record a span from timestamps taken elsewhere (for example
        a job document's own ``started_at``/``finished_at``)."""
        if unit is None and parent is not None:
            unit = self.spans[parent]["unit"]
        sid = self._open(name, float(start), unit, parent)
        self.spans[sid]["end"] = float(end)
        return sid

    def self_times(self) -> List[float]:
        """Self time of every span, indexed by span id."""
        children: Dict[int, List[Dict[str, Any]]] = {}
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = []
        for s in self.spans:
            if s["end"] is None:
                out.append(0.0)
                continue
            covered, edge = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()),
                            key=lambda c: c["start"]):
                lo = max(c["start"], edge)
                hi = min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(max(0.0, (s["end"] - s["start"]) - covered))
        return out

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def self_by_name(self, name: str) -> List[float]:
        selfs = self.self_times()
        return [selfs[s["id"]] for s in self.spans if s["name"] == name
                and s["end"] is not None]

    def write_jsonl(self, path: Path) -> None:
        """One span per line, with its derived ``self`` time."""
        selfs = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "self": selfs[s["id"]]},
                                    sort_keys=True) + "\n")


def span(rec: Optional[SpanRecorder], name: str, *,
         unit: Optional[int] = None):
    """``rec.span(...)`` when tracing, a no-op context otherwise."""
    return rec.span(name, unit=unit) if rec is not None else nullcontext()


def median(values: Sequence[float]) -> float:
    """The median; 0 for an empty sample (a layer that saw no work)."""
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; the maximum once ``q`` outruns the
    sample (fewer than ``1 / (1 - q)`` values)."""
    vals = sorted(values)
    if not vals:
        return 0.0
    rank = max(1, math.ceil(q * len(vals)))
    return vals[min(len(vals), rank) - 1]


def timed(fn, *args, **kwargs):
    """``(wall seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def probe(rec: Optional[SpanRecorder], name: str, fn, *, budget: float = 1.0,
          max_reps: int = 3):
    """Median wall seconds of ``fn()`` and its last result: up to
    ``max_reps`` calls, stopping early once ``budget`` seconds are
    spent, each under a span named ``name``."""
    walls, spent, result = [], 0.0, None
    while len(walls) < max_reps and (not walls or spent < budget):
        with span(rec, name):
            wall, result = timed(fn)
        walls.append(wall)
        spent += wall
    return median(walls), result
