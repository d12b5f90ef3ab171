"""Span-based tracing for the treecode/GRAPE stack.

The paper's section-5 accounting is a phase decomposition of wall-clock
time: tree construction, traversal, host direct forces, GRAPE force
time.  :class:`Tracer` makes that decomposition a first-class object --
instrumented code opens nested *spans* (``with tracer.span("tree_build")``)
and every span records its wall time plus arbitrary key/value
attributes.  The resulting span trees feed the exporters in
:mod:`repro.obs.export` (JSONL events, the per-phase profile table).

Instrumentation must cost nothing when unused, so hot paths hold a
tracer unconditionally and the disabled case is the shared
:data:`NULL_TRACER` -- a :class:`NullTracer` whose ``span()`` returns a
single reusable no-op context manager (no allocation, no clock reads).
Library code should accept an optional tracer and normalise it with
:func:`as_tracer`.

The module is dependency-free (stdlib only) and makes no assumptions
about who reads the spans.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from .context import new_span_id, new_trace_id

__all__ = ["Span", "Tracer", "NullSpan", "NullTracer", "NULL_TRACER",
           "as_tracer"]


class Span:
    """One timed phase: a name, a wall-clock interval, attributes and
    child spans.

    Spans are context managers; entering starts the clock and pushes the
    span on its tracer's stack so spans opened inside nest under it.
    """

    __slots__ = ("name", "attrs", "children", "t_start", "t_end",
                 "span_id", "stitched", "_tracer")

    def __init__(self, name: str, tracer: Optional["Tracer"] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 span_id: str = "") -> None:
        self.name = str(name)
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.t_start: float = 0.0
        self.t_end: float = 0.0
        #: persistent 64-bit hex identity, assigned by the owning
        #: tracer (empty on spans never attached to a real tracer)
        self.span_id = span_id
        #: timed on another thread and adopted by :meth:`Tracer.attach`
        #: (it ran *beside* its parent's own work, not inside it)
        self.stitched = False
        self._tracer = tracer

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self.t_start = (self._tracer.clock if self._tracer is not None
                        else time.perf_counter)()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.t_end = (self._tracer.clock if self._tracer is not None
                      else time.perf_counter)()
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    # -- data ----------------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall seconds between enter and exit (0 while still open)."""
        if self.t_end <= self.t_start:
            return 0.0
        return self.t_end - self.t_start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time covered by child spans.  A stitched
        span overlapped the tracing thread's own work: it has no self
        time and takes none from its parent, so self times partition
        the traced wall at any thread count."""
        if self.stitched:
            return 0.0
        return max(0.0, self.duration - sum(
            c.duration for c in self.children if not c.stitched))

    def set(self, **attrs: Any) -> "Span":
        """Attach key/value attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["Span"]:
        """Pre-order iteration over this span and all descendants."""
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (used by the JSONL exporter).  The hex
        ``sid`` rides along when assigned (the flat exporter keeps its
        own compact integer ``span_id``/``parent_id`` scheme)."""
        d = {
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "n_children": len(self.children),
        }
        if self.span_id:
            d["sid"] = self.span_id
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration:.6f}s, "
                f"{len(self.children)} children)")


class Tracer:
    """Collects span trees from instrumented code.

    Finished top-level spans accumulate in :attr:`roots`; nested spans
    hang off their parents.  ``clock`` is injectable for deterministic
    tests (defaults to :func:`time.perf_counter`).

    Every tracer owns a ``trace_id`` (fresh unless given) and assigns
    each span a persistent hex ``span_id`` when it joins the tree, so
    spans recorded in other processes can be stitched under a known
    parent (see :mod:`repro.obs.context`).
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 *, trace_id: Optional[str] = None) -> None:
        self.clock = clock
        self.trace_id = trace_id or new_trace_id()
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- span management -----------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager timing one phase, nested under the
        currently open span (if any)."""
        return Span(name, tracer=self, attrs=attrs)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None at top level."""
        return self._stack[-1] if self._stack else None

    def record(self, name: str, seconds: float, **attrs: Any) -> Span:
        """Attach an already-measured phase as a completed child span.

        Used for *attribution* timings accumulated across many small
        calls (e.g. total backend kernel seconds inside one evaluation
        sweep) where opening a span per call would dominate the cost.
        The synthetic span ends "now" and is backdated by ``seconds``.
        """
        now = self.clock()
        sp = Span(name, tracer=None, attrs=attrs,
                  span_id=new_span_id())
        sp.t_start = now - max(0.0, float(seconds))
        sp.t_end = now
        self._attach(sp)
        return sp

    def attach(self, span: Span) -> Span:
        """Adopt an externally built, already-finished span (tree).

        The stitching entry point: a span assembled from timestamps
        taken elsewhere (the pipeline engine's pool threads) is
        attached under the currently open span (or as a root at top
        level), exactly like :meth:`record` but with caller-controlled
        interval and children.  Ids are assigned to any span in the
        subtree that lacks one.
        """
        for sp in span.walk():
            sp.stitched = True
            if not sp.span_id:
                sp.span_id = new_span_id()
        self._attach(span)
        return span

    # -- internals -----------------------------------------------------
    def _push(self, span: Span) -> None:
        if not span.span_id:
            span.span_id = new_span_id()
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate mis-nesting rather than corrupting the tree
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)
        self._attach(span)

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- inspection ----------------------------------------------------
    def iter_spans(self) -> Iterator[Span]:
        """Every finished span, pre-order over all root trees."""
        for r in self.roots:
            yield from r.walk()

    def reset(self) -> None:
        """Drop all collected spans (open spans are abandoned)."""
        self.roots.clear()
        self._stack.clear()


class NullSpan:
    """The do-nothing span: a reusable context manager with the same
    surface as :class:`Span`."""

    __slots__ = ()

    name = ""
    attrs: Dict[str, Any] = {}
    children: List["Span"] = []
    t_start = 0.0
    t_end = 0.0
    duration = 0.0
    self_seconds = 0.0
    span_id = ""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def walk(self):
        return iter(())

    def to_dict(self) -> Dict[str, Any]:
        return {}


_NULL_SPAN = NullSpan()


class NullTracer:
    """Disabled tracer: every call is a no-op returning shared
    singletons, so instrumented hot paths cost one attribute lookup and
    one call."""

    enabled = False
    roots: List[Span] = []
    trace_id = ""

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def record(self, name: str, seconds: float, **attrs: Any) -> NullSpan:
        return _NULL_SPAN

    def attach(self, span: Any) -> NullSpan:
        return _NULL_SPAN

    def context(self) -> None:
        return None

    def iter_spans(self):
        return iter(())

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[object]) -> object:
    """Normalise an optional tracer argument: ``None`` -> the shared
    no-op tracer."""
    return NULL_TRACER if tracer is None else tracer
