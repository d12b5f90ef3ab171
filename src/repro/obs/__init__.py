"""repro.obs -- observability for the treecode/GRAPE stack.

A low-overhead, dependency-free layer that turns the paper's section-5
accounting (phase wall times, interaction counts, list-length
statistics, host-vs-GRAPE attribution) into first-class run artefacts:

``repro.obs.trace``
    Nested wall-time spans with attributes; a shared no-op tracer so
    instrumented hot paths cost nothing when tracing is off.
``repro.obs.context``
    Trace/span identity (served jobs stitch into one trace).
``repro.obs.metrics``
    Counters, gauges and histograms in a registry with snapshot/reset.
``repro.obs.flightrec``
    The black-box flight recorder: a bounded ring of recent events
    dumped atomically on fault recovery or job death.
``repro.obs.export``
    JSON-lines events, Prometheus text exposition, the per-phase
    profile table, and the ``repro.run_summary/v1`` JSON schema.
``repro.obs.analyze``
    Trace analysis behind ``repro obs``: span-tree rendering, the
    critical path with host/worker/GRAPE attribution, trace diffs.

Quick use::

    from repro.obs import Tracer, MetricsRegistry
    from repro.obs.export import format_phase_table

    tracer, metrics = Tracer(), MetricsRegistry()
    tc = TreeCode(theta=0.75, tracer=tracer, metrics=metrics)
    tc.accelerations(pos, mass, eps)
    print(format_phase_table(tracer))

or from the CLI: ``python -m repro run --profile --trace out.jsonl
--metrics out.prom --json-summary out.json``.
"""

from .context import new_span_id, new_trace_id
from .flightrec import FlightRecorder
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      DEFAULT_BUCKETS)
from .trace import (NULL_TRACER, NullSpan, NullTracer, Span, Tracer,
                    as_tracer)

__all__ = [
    "Span", "Tracer", "NullSpan", "NullTracer", "NULL_TRACER",
    "as_tracer",
    "new_span_id", "new_trace_id",
    "FlightRecorder",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
]
