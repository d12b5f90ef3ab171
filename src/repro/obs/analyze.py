"""Trace analysis behind the ``repro obs`` CLI verbs.

Works on the flat span events of :func:`repro.obs.export.span_events`
-- either in memory or loaded back from a ``--trace`` JSONL file / a
``GET /jobs/{id}/trace`` document -- and answers the three questions a
section-5-style performance postmortem asks:

``tree``
    What happened, nested: the span forest rendered with durations
    and attributes (:func:`format_tree`).
``critical-path``
    Where the wall time went, by *resource*: GRAPE/kernel seconds vs
    pipeline-worker seconds vs host seconds (:func:`critical_path`).
    Attribution is a timeline partition, not a span-duration sum:
    every instant of the traced interval is charged to exactly one
    resource -- the *deepest* resource-mapped span covering it (ties
    broken ``grape`` > ``worker``), everything else to ``host`` -- so
    the three buckets sum to the total wall clock *exactly* even when
    spans overlap (one worker walks shard k+1 while another evaluates
    shard k -- the paper's overlap, which double-counts under naive
    summation).  Deepest-wins also keeps *backdated attribution
    records* honest: the treecode's ``grape_force`` record under a
    pipeline ``eval`` span is a synthetic interval that may blanket
    the stitched ``exec.batch`` spans beside it; the worker spans are
    real measurements nested deeper, so they keep their time.  The dominant chain (each level's longest child) rides
    along -- the path an optimisation has to shorten.
``diff``
    What changed between two traces: per-phase inclusive/self seconds
    side by side with deltas (:func:`diff_traces`).

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = ["load_trace", "build_tree", "format_tree", "critical_path",
           "format_critical_path", "diff_traces", "format_diff",
           "SPAN_RESOURCE"]

#: span name -> resource bucket for critical-path attribution.  Names
#: absent here are ``host`` work (tree build, traversal, integration,
#: scheduling) -- the conservative default, since host time is the
#: remainder bucket.
SPAN_RESOURCE: Dict[str, str] = {
    # device/kernel seconds: the paper's "GRAPE force time" column
    "grape_force": "grape",
    "host_kernel": "grape",
    # pool-thread seconds of the pipeline engine
    "exec.batch": "worker",
    "exec.traverse": "worker",
    "exec.eval": "worker",
    "exec.worker": "worker",
}


# ---------------------------------------------------------------------------
# loading / tree building
# ---------------------------------------------------------------------------

def load_trace(source: Union[str, Path, Dict[str, Any]]
               ) -> Dict[str, Any]:
    """Load a trace into ``{"meta", "spans", "metrics"}``.

    ``source`` is a ``--trace`` JSONL path (one event per line, as
    written by :func:`repro.obs.export.write_jsonl`), a path to a
    saved ``repro.trace/v1`` document (the ``/jobs/{id}/trace``
    response, which carries its spans under ``"spans"``), or such a
    document already parsed.
    """
    if isinstance(source, dict):
        return {"meta": {k: v for k, v in source.items()
                         if k != "spans"},
                "spans": list(source.get("spans", [])),
                "metrics": source.get("metrics", {})}
    text = Path(source).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "spans" in doc:
        return load_trace(doc)
    meta: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    metrics: Dict[str, Any] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        ev = json.loads(line)
        t = ev.get("type")
        if t == "span":
            spans.append(ev)
        elif t == "meta":
            meta = ev
        elif t == "metrics":
            metrics = ev.get("metrics", {})
    return {"meta": meta, "spans": spans, "metrics": metrics}


def build_tree(spans: Iterable[Dict[str, Any]]
               ) -> List[Dict[str, Any]]:
    """Reassemble flat span events into root nodes with ``children``.

    Events carry pre-order ``span_id``/``parent_id`` (see
    :func:`~repro.obs.export.span_events`); orphans whose parent is
    missing are promoted to roots rather than dropped.
    """
    nodes: Dict[int, Dict[str, Any]] = {}
    roots: List[Dict[str, Any]] = []
    for ev in spans:
        node = dict(ev)
        node["children"] = []
        nodes[int(ev["span_id"])] = node
    for node in nodes.values():
        pid = int(node.get("parent_id", -1))
        if pid >= 0 and pid in nodes:
            nodes[pid]["children"].append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda c: c["t_start"])
    roots.sort(key=lambda r: r["t_start"])
    return roots


def _fmt_attrs(attrs: Dict[str, Any], limit: int = 3) -> str:
    if not attrs:
        return ""
    items = list(attrs.items())[:limit]
    body = ", ".join(f"{k}={v}" for k, v in items)
    if len(attrs) > limit:
        body += ", ..."
    return f"  [{body}]"


def format_tree(spans: Iterable[Dict[str, Any]], *,
                max_depth: Optional[int] = None,
                min_seconds: float = 0.0) -> str:
    """Render the span forest as an indented tree.

    ``max_depth`` prunes deep nesting; ``min_seconds`` hides noise
    spans (pruned subtrees are summarised with a count so nothing
    silently disappears).
    """
    lines: List[str] = []

    def _walk(node: Dict[str, Any], depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        dur = float(node.get("duration", 0.0))
        kept = [c for c in node["children"]
                if float(c.get("duration", 0.0)) >= min_seconds]
        hidden = len(node["children"]) - len(kept)
        lines.append(f"{'  ' * depth}{node['name']}  "
                     f"{dur * 1e3:9.3f} ms"
                     f"{_fmt_attrs(node.get('attrs', {}))}")
        if (max_depth is not None and depth == max_depth
                and node["children"]):
            lines.append(f"{'  ' * (depth + 1)}"
                         f"... {len(node['children'])} child span(s)")
            return
        for c in kept:
            _walk(c, depth + 1)
        if hidden:
            lines.append(f"{'  ' * (depth + 1)}"
                         f"... {hidden} span(s) under "
                         f"{min_seconds * 1e3:g} ms")

    for root in build_tree(spans):
        _walk(root, 0)
    return "\n".join(lines) if lines else "(no spans)"


# ---------------------------------------------------------------------------
# critical path / resource attribution
# ---------------------------------------------------------------------------

def _merge(intervals: List[Tuple[float, float]]
           ) -> List[Tuple[float, float]]:
    """Union of intervals as a sorted, disjoint list."""
    out: List[Tuple[float, float]] = []
    for s, e in sorted(i for i in intervals if i[1] > i[0]):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def _length(intervals: List[Tuple[float, float]]) -> float:
    return sum(e - s for s, e in intervals)


def critical_path(spans: Iterable[Dict[str, Any]]
                  ) -> Dict[str, Any]:
    """Resource attribution + dominant chain of one trace.

    Returns ``{"total_seconds", "resources": {host, worker, grape},
    "chain": [...]}``.  The resource seconds are a partition of the
    traced interval (union of root spans): every instant is charged to
    the *deepest* resource-mapped span covering it (ties broken
    ``grape`` > ``worker``), the uncovered remainder to ``host``, so
    ``host + worker + grape == total_seconds`` exactly.  ``chain`` is
    the dominant path: from the longest root, each level's longest
    child, with per-level duration and share of the parent.
    """
    spans = list(spans)
    roots = build_tree(spans)
    base = _merge([(r["t_start"], r["t_end"]) for r in roots])
    total = _length(base)
    prio = {"worker": 0, "grape": 1}
    marked: List[Tuple[float, float, int, int, str]] = []
    for ev in spans:
        res = SPAN_RESOURCE.get(ev["name"])
        if res in prio:
            depth = str(ev.get("path", ev["name"])).count("/")
            marked.append((ev["t_start"], ev["t_end"], depth,
                           prio[res], res))
    # atomic segments between all boundary points; each is covered by
    # a fixed span set, so one midpoint probe decides its whole length
    points = sorted({p for s, e in base for p in (s, e)} |
                    {p for t0, t1, *_ in marked for p in (t0, t1)})
    totals = {"grape": 0.0, "worker": 0.0}
    for a, b in zip(points, points[1:]):
        if b <= a:
            continue
        mid = 0.5 * (a + b)
        if not any(s <= mid < e for s, e in base):
            continue
        best = None
        for t0, t1, depth, pr, res in marked:
            if t0 <= mid < t1 and (best is None
                                   or (depth, pr) > best[0]):
                best = ((depth, pr), res)
        if best is not None:
            totals[best[1]] += b - a
    grape_s = totals["grape"]
    worker_s = totals["worker"]
    host_s = max(0.0, total - grape_s - worker_s)

    chain: List[Dict[str, Any]] = []
    node = max(roots, key=lambda r: float(r.get("duration", 0.0)),
               default=None)
    while node is not None:
        dur = float(node.get("duration", 0.0))
        chain.append({"name": node["name"], "seconds": dur,
                      "path": node.get("path", node["name"])})
        node = max(node["children"],
                   key=lambda c: float(c.get("duration", 0.0)),
                   default=None)

    return {
        "total_seconds": total,
        "resources": {"host": host_s, "worker": worker_s,
                      "grape": grape_s},
        "chain": chain,
    }


def format_critical_path(spans: Iterable[Dict[str, Any]]) -> str:
    """Human-readable :func:`critical_path` report."""
    cp = critical_path(spans)
    total = cp["total_seconds"]
    lines = [f"traced wall time: {total:.4f} s",
             "", "resource attribution (timeline partition):"]
    for res in ("grape", "worker", "host"):
        sec = cp["resources"][res]
        pct = 100.0 * sec / total if total > 0 else 0.0
        lines.append(f"  {res:>6}  {sec:10.4f} s  {pct:5.1f}%")
    lines.append(f"  {'total':>6}  {total:10.4f} s  100.0%")
    if cp["chain"]:
        lines += ["", "dominant chain:"]
        parent = None
        for link in cp["chain"]:
            share = (100.0 * link["seconds"] / parent
                     if parent else 100.0)
            lines.append(f"  {link['path']:<40} "
                         f"{link['seconds'] * 1e3:10.3f} ms "
                         f"({share:5.1f}% of parent)")
            parent = link["seconds"] or None
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def _totals(spans: Iterable[Dict[str, Any]]
            ) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for ev in spans:
        row = out.setdefault(ev["name"],
                             {"calls": 0, "seconds": 0.0})
        row["calls"] += 1
        row["seconds"] += float(ev.get("duration", 0.0))
    return out


def diff_traces(a_spans: Iterable[Dict[str, Any]],
                b_spans: Iterable[Dict[str, Any]]
                ) -> List[Dict[str, Any]]:
    """Per-phase comparison of two traces, sorted by |delta| descending.

    Rows carry inclusive seconds and call counts from both sides plus
    the absolute and relative change (``None`` ratio for phases absent
    on one side).
    """
    ta, tb = _totals(a_spans), _totals(b_spans)
    rows: List[Dict[str, Any]] = []
    for name in sorted(set(ta) | set(tb)):
        a = ta.get(name, {"calls": 0, "seconds": 0.0})
        b = tb.get(name, {"calls": 0, "seconds": 0.0})
        delta = b["seconds"] - a["seconds"]
        ratio = (b["seconds"] / a["seconds"]
                 if a["seconds"] > 0 else None)
        rows.append({"phase": name,
                     "a_calls": int(a["calls"]),
                     "b_calls": int(b["calls"]),
                     "a_seconds": a["seconds"],
                     "b_seconds": b["seconds"],
                     "delta_seconds": delta, "ratio": ratio})
    rows.sort(key=lambda r: -abs(r["delta_seconds"]))
    return rows


def format_diff(a_spans: Iterable[Dict[str, Any]],
                b_spans: Iterable[Dict[str, Any]], *,
                a_label: str = "A", b_label: str = "B") -> str:
    """Aligned-table rendering of :func:`diff_traces`."""
    rows = diff_traces(a_spans, b_spans)
    if not rows:
        return "(no spans in either trace)"
    head = (f"{'phase':<20} {a_label + ' s':>10} {b_label + ' s':>10} "
            f"{'delta s':>10} {'ratio':>7} {'calls':>11}")
    lines = [head, "-" * len(head)]
    for r in rows:
        ratio = f"{r['ratio']:.2f}x" if r["ratio"] is not None else "-"
        lines.append(
            f"{r['phase']:<20} {r['a_seconds']:>10.4f} "
            f"{r['b_seconds']:>10.4f} {r['delta_seconds']:>+10.4f} "
            f"{ratio:>7} {r['a_calls']:>5}/{r['b_calls']:<5}")
    return "\n".join(lines)
