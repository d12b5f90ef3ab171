"""Trace/span identity.

Distributed tracing needs globally unique identities, so spans recorded
by different parties (the job service propagates a bare ``trace_id``
with every job) can be stitched into one tree.

Identities are random hex strings from :func:`os.urandom` -- no
coordination, no clock, collision probability negligible at the span
counts this stack produces (64-bit span ids, 128-bit trace ids, the
OpenTelemetry convention).
"""

from __future__ import annotations

import os

__all__ = ["new_trace_id", "new_span_id"]


def new_trace_id() -> str:
    """A fresh 128-bit trace identity (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span identity (16 hex chars)."""
    return os.urandom(8).hex()
