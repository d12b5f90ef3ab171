"""Run metrics: counters, gauges and histograms with snapshot/reset.

The quantities the paper reports per run -- total particle-particle
interactions, average interaction-list length, group populations,
force-call sizes, modelled GRAPE seconds -- are all either monotone
accumulations (counters), last-value observations (gauges) or
distributions (histograms).  :class:`MetricsRegistry` holds a named set
of them with get-or-create semantics, so instrumentation sites can stay
one-liners::

    registry.counter("tree.interactions_total").inc(total)
    registry.histogram("tree.list_length").observe_many(lengths)

``snapshot()`` returns a plain-dict view (stable input for the JSON
summary and the Prometheus formatter in :mod:`repro.obs.export`) and
``reset()`` zeroes everything in place, mirroring the per-run
``reset_stats`` convention of the GRAPE emulator.

Stdlib-only; histograms accept numpy arrays in ``observe_many`` but do
not require numpy.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: Default histogram bounds: powers of two covering ~0.24 ms .. ~1e6.
#: The top decades fit the list lengths / group sizes / call shapes the
#: stack produces; the sub-unit tail (2^-12 .. 2^-2) keeps *duration*
#: histograms -- queue wait, claim, submit-to-done -- from
#: collapsing into one bucket on fast machines, where those waits are
#: routinely well under a millisecond.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    float(2.0 ** k) for k in range(-12, 21, 2))


class Counter:
    """Monotonically increasing accumulator (int or float)."""

    kind = "counter"

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Gauge:
    """Last-observed value."""

    kind = "gauge"

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {"type": self.kind, "help": self.help, "value": self.value}


class Histogram:
    """Fixed-bucket distribution with count/sum/min/max.

    ``bounds`` are the inclusive upper edges of the buckets; a final
    implicit +inf bucket catches the overflow (Prometheus ``le``
    semantics, cumulative on export only).
    """

    kind = "histogram"

    __slots__ = ("name", "help", "bounds", "bucket_counts", "count",
                 "total", "vmin", "vmax")

    def __init__(self, name: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.help = help
        bounds = tuple(sorted(float(b) for b in
                              (buckets if buckets is not None
                               else DEFAULT_BUCKETS)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def _bucket_index(self, v: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if v <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def observe(self, value: float) -> None:
        v = float(value)
        self.bucket_counts[self._bucket_index(v)] += 1
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "count": self.count,
            "sum": self.total,
            "min": (self.vmin if self.count else None),
            "max": (self.vmax if self.count else None),
            "mean": self.mean,
            "buckets": {("+Inf" if i == len(self.bounds)
                         else repr(self.bounds[i])): n
                        for i, n in enumerate(self.bucket_counts)},
        }


class MetricsRegistry:
    """A named family of metrics with get-or-create access.

    Metric names use dotted paths (``grape.force_calls``); the
    Prometheus formatter maps dots to underscores.  Re-requesting an
    existing name returns the same object; requesting it as a different
    kind raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    # -- get-or-create -------------------------------------------------
    def _get(self, cls, name: str, *args, **kwargs):
        m = self._metrics.get(name)
        if m is None:
            m = cls(name, *args, **kwargs)
            self._metrics[name] = m
            return m
        if not isinstance(m, cls):
            raise TypeError(f"metric {name!r} already registered as "
                            f"{m.kind}, requested {cls.kind}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(Histogram, name, help, buckets)

    # -- inspection ----------------------------------------------------
    def get(self, name: str) -> Optional[object]:
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(sorted(self._metrics))

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar shortcut: counter/gauge value, histogram sum."""
        m = self._metrics.get(name)
        if m is None:
            return default
        if isinstance(m, Histogram):
            return m.total
        return m.value

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Plain-dict view of every metric, keyed by name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def reset(self) -> None:
        for m in self._metrics.values():
            m.reset()
