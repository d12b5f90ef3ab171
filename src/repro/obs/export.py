"""Exporters: JSONL events, Prometheus text, the per-phase profile table
and the machine-readable run summary.

Three consumers, three formats:

* **JSON lines** (:func:`write_jsonl`) -- one event per span (flat, with
  ``span_id``/``parent_id``/``path``) plus one trailing ``metrics``
  event; the raw material for external trace viewers and ad-hoc
  analysis.
* **Prometheus text exposition** (:func:`format_prometheus`) -- every
  registry metric as ``repro_*`` families, histograms with cumulative
  ``le`` buckets; scrape-ready.
* **Human-readable phase table** (:func:`format_phase_table`) -- wall
  time aggregated by span name, the reproduction of the paper's
  section-5 breakdown (tree construction / traversal / host direct
  forces / GRAPE force time).  Self-time accounting makes the rows sum
  exactly to the traced wall clock: each span's *self* seconds is its
  duration minus its children's, so nothing is double-counted and the
  untraced remainder of a parent phase shows up against the parent.

:func:`run_summary` assembles the stable JSON schema
(``repro.run_summary/v1``) that ``repro run --json-summary`` writes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from .metrics import Histogram, MetricsRegistry
from .trace import Span, Tracer

__all__ = ["span_events", "write_jsonl", "format_prometheus",
           "write_prometheus", "phase_totals", "format_table",
           "format_phase_table", "run_summary", "write_json_summary",
           "RUN_SUMMARY_SCHEMA"]

RUN_SUMMARY_SCHEMA = "repro.run_summary/v1"


def _roots(source: Union[Tracer, Iterable[Span]]) -> List[Span]:
    if isinstance(source, Tracer):
        return list(source.roots)
    roots = getattr(source, "roots", None)
    if roots is not None:
        return list(roots)
    try:
        return list(source)
    except TypeError:  # NULL_TRACER and friends: no spans recorded
        return []


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------

def span_events(source: Union[Tracer, Iterable[Span]]
                ) -> Iterable[Dict[str, Any]]:
    """Flatten span trees into JSON-able event dicts.

    Events carry ``span_id`` (pre-order index), ``parent_id`` (-1 for
    roots) and the slash-joined ``path`` of names from the root.
    """
    next_id = 0
    stack: List[tuple] = []
    for root in _roots(source):
        stack.append((root, -1, ""))
        while stack:
            span, parent_id, prefix = stack.pop()
            sid = next_id
            next_id += 1
            path = f"{prefix}/{span.name}" if prefix else span.name
            ev = span.to_dict()
            ev.update(type="span", span_id=sid, parent_id=parent_id,
                      path=path)
            yield ev
            for child in reversed(span.children):
                stack.append((child, sid, path))


def write_jsonl(path, source: Union[Tracer, Iterable[Span]], *,
                metrics: Optional[MetricsRegistry] = None,
                meta: Optional[Dict[str, Any]] = None) -> int:
    """Write span events (plus optional meta and metrics-snapshot
    events) to ``path``; returns the number of lines written.

    When ``source`` is a tracer carrying a ``trace_id``, the id is
    stamped into the meta event so the trace stays identifiable after
    the file leaves the process that produced it."""
    n = 0
    meta = dict(meta) if meta else {}
    trace_id = getattr(source, "trace_id", "")
    if trace_id and "trace_id" not in meta:
        meta["trace_id"] = trace_id
    with open(path, "w", encoding="utf-8") as fh:
        if meta:
            fh.write(json.dumps({"type": "meta", **meta}) + "\n")
            n += 1
        for ev in span_events(source):
            fh.write(json.dumps(ev) + "\n")
            n += 1
        if metrics is not None:
            fh.write(json.dumps({"type": "metrics",
                                 "metrics": metrics.snapshot()}) + "\n")
            n += 1
    return n


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(name: str, prefix: str) -> str:
    out = prefix + name.replace(".", "_").replace("-", "_")
    return out


def _prom_value(v: float) -> str:
    if isinstance(v, float) and not v.is_integer():
        return repr(v)
    return str(int(v))


def _escape_help(text: str) -> str:
    """HELP-line escaping per the text format: backslash and newline."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    """Label-value escaping: backslash, double quote, newline."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def format_prometheus(registry: MetricsRegistry, *,
                      prefix: str = "repro_") -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    HELP text and label values are escaped per the format grammar
    (``\\`` / newline, plus ``\"`` inside label values), so metric
    help strings may contain arbitrary prose.
    """
    lines: List[str] = []
    snap = registry.snapshot()
    for name in sorted(snap):
        metric = registry.get(name)
        pname = _prom_name(name, prefix)
        entry = snap[name]
        if entry.get("help"):
            lines.append(
                f"# HELP {pname} {_escape_help(entry['help'])}")
        lines.append(f"# TYPE {pname} {entry['type']}")
        if isinstance(metric, Histogram):
            cum = 0
            for bound, cnt in zip(metric.bounds, metric.bucket_counts):
                cum += cnt
                le = _escape_label(f"{bound:g}")
                lines.append(f'{pname}_bucket{{le="{le}"}} {cum}')
            cum += metric.bucket_counts[-1]
            lines.append(f'{pname}_bucket{{le="+Inf"}} {cum}')
            lines.append(f"{pname}_sum {_prom_value(metric.total)}")
            lines.append(f"{pname}_count {metric.count}")
        else:
            lines.append(f"{pname} {_prom_value(entry['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(path, registry: MetricsRegistry, *,
                     prefix: str = "repro_") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_prometheus(registry, prefix=prefix))


# ---------------------------------------------------------------------------
# Phase table
# ---------------------------------------------------------------------------

def phase_totals(source: Union[Tracer, Iterable[Span]]
                 ) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: calls, inclusive seconds, self seconds.

    Self seconds (duration minus children) partition the traced wall
    clock exactly; inclusive seconds answer "how long did phase X take
    end to end".
    """
    out: Dict[str, Dict[str, float]] = {}
    for root in _roots(source):
        for span in root.walk():
            row = out.setdefault(span.name, {"calls": 0, "seconds": 0.0,
                                             "self_seconds": 0.0})
            row["calls"] += 1
            row["seconds"] += span.duration
            row["self_seconds"] += span.self_seconds
    return out


def format_phase_table(source: Union[Tracer, Iterable[Span]], *,
                       wall_seconds: Optional[float] = None) -> str:
    """The section-5-style per-phase breakdown as an aligned table.

    ``wall_seconds`` defaults to the summed duration of the root spans;
    the ``%wall`` column is each phase's *self* time against it, so the
    column sums to 100% (up to rounding) with no double counting.
    """
    totals = phase_totals(source)
    roots = _roots(source)
    if wall_seconds is None:
        wall_seconds = sum(r.duration for r in roots)
    order = sorted(totals.items(), key=lambda kv: -kv[1]["self_seconds"])
    rows = []
    for name, t in order:
        pct = (100.0 * t["self_seconds"] / wall_seconds
               if wall_seconds > 0 else 0.0)
        rows.append({
            "phase": name,
            "calls": int(t["calls"]),
            "seconds": f"{t['seconds']:.4f}",
            "self_s": f"{t['self_seconds']:.4f}",
            "%wall": f"{pct:.1f}",
        })
    rows.append({"phase": "total (wall)", "calls": "",
                 "seconds": f"{wall_seconds:.4f}",
                 "self_s": f"{wall_seconds:.4f}", "%wall": "100.0"})
    return format_table(rows)


def format_table(rows: List[Dict[str, Any]], *, sep: str = "  ") -> str:
    """Plain-text aligned table from a list of dict rows.

    The one table formatter: keys of the first row become the header;
    all values are str()-ed.  It lives here so ``repro.obs`` stays
    importable on its own; ``repro.perf.report.format_table`` is this
    same function.
    """
    if not rows:
        return "(empty table)"
    keys = list(rows[0].keys())
    cells = [[str(k) for k in keys]]
    for r in rows:
        cells.append([str(r.get(k, "")) for k in keys])
    widths = [max(len(row[i]) for row in cells) for i in range(len(keys))]
    lines = []
    for j, row in enumerate(cells):
        lines.append(sep.join(c.rjust(w) for c, w in zip(row, widths)))
        if j == 0:
            lines.append(sep.join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Run summary
# ---------------------------------------------------------------------------

def run_summary(registry: MetricsRegistry, *,
                tracer: Optional[Tracer] = None,
                extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Stable machine-readable summary of one run.

    The top-level keys are the section-5 headline quantities; the full
    metric snapshot and (when a tracer is supplied) per-phase wall
    times ride along under ``metrics`` / ``phases``.
    """
    steps = int(registry.value("sim.steps_total"))
    interactions = int(registry.value("sim.interactions_total")
                       or registry.value("tree.interactions_total"))
    n_particles = int(registry.value("sim.n_particles"))
    wall = float(registry.value("sim.step_seconds"))  # histogram sum
    summary: Dict[str, Any] = {
        "schema": RUN_SUMMARY_SCHEMA,
        "n_particles": n_particles,
        "steps": steps,
        "interactions": interactions,
        "mean_list_length": (interactions / (n_particles * steps)
                             if n_particles and steps else 0.0),
        "wall_seconds": wall,
        "grape_model_seconds": float(
            registry.value("grape.model_seconds")),
        "grape_force_calls": int(registry.value("grape.force_calls")),
        "metrics": registry.snapshot(),
    }
    if tracer is not None:
        summary["phases"] = phase_totals(tracer)
    if extra:
        summary.update(extra)
    return summary


def write_json_summary(path, registry: MetricsRegistry, *,
                       tracer: Optional[Tracer] = None,
                       extra: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """Write :func:`run_summary` to ``path``; returns the summary."""
    summary = run_summary(registry, tracer=tracer, extra=extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return summary
