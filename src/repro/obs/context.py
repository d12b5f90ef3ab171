"""Trace/span identity and cross-process span context.

Distributed tracing needs two things the in-process :class:`Tracer`
did not have: globally unique identities (so spans recorded in
different processes can be stitched into one tree) and a *propagated
context* (so a remote party knows which trace, and which parent span,
its measurements belong to).

Identities are random hex strings from :func:`os.urandom` -- no
coordination, no clock, collision probability negligible at the span
counts this stack produces (64-bit span ids, 128-bit trace ids, the
OpenTelemetry convention).

:class:`SpanContext` is the wire form: a small immutable tuple that is
cheap to serialise into a job document.  ``t_origin`` carries the
propagating side's ``time.perf_counter()`` reading; on Linux
``perf_counter`` is ``CLOCK_MONOTONIC``, which is shared across
forked processes, so the receiver can compute queue-wait times and
place its spans on the sender's timeline without clock negotiation.
"""

from __future__ import annotations

import os
from typing import NamedTuple, Optional

__all__ = ["new_trace_id", "new_span_id", "SpanContext"]


def new_trace_id() -> str:
    """A fresh 128-bit trace identity (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span identity (16 hex chars)."""
    return os.urandom(8).hex()


class SpanContext(NamedTuple):
    """Propagated span identity: what a remote measurement belongs to.

    ``trace_id``
        The trace every stitched span joins.
    ``span_id``
        The *parent* span id remote spans hang under.
    ``t_origin``
        The sender's ``perf_counter()`` at propagation time (job
        admission); receivers on the same host may
        subtract their own readings from it.
    """

    trace_id: str
    span_id: str
    t_origin: float = 0.0

    @classmethod
    def create(cls, trace_id: Optional[str] = None,
               t_origin: float = 0.0) -> "SpanContext":
        """A context with a fresh span id (and trace id if omitted)."""
        return cls(trace_id or new_trace_id(), new_span_id(), t_origin)
