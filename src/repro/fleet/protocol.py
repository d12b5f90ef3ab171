"""Versioned JSON envelope of the fleet network store.

Every request and response between :class:`~repro.fleet.remote.RemoteJobStore`
and :class:`~repro.fleet.netstore.StoreServer` is one
``repro.fleet-rpc/v1`` document carrying its own SHA-256 over the
canonical JSON of the envelope minus the digest field -- the same
self-digesting discipline as the store's per-row hashes, extended
over the wire.  A truncated, bit-flipped or otherwise damaged
payload therefore *fails typed* (:class:`PayloadCorrupt`) instead of
decoding into a plausible-but-wrong document; the client treats
that as a transport fault and retries, never as data.

Envelope shapes::

    request   {"schema": ..., "op": "claim", "args": {...}, "sha256": ...}
    response  {"schema": ..., "ok": true,  "result": ...,   "sha256": ...}
    response  {"schema": ..., "ok": false, "error": "msg",
               "type": "StoreError",                        "sha256": ...}

Error typing is round-tripped: a server-side
:class:`~repro.serve.store.StoreError` / ``StoreCorrupt`` serialises
its class name into ``type`` and the client re-raises the same class,
so ``RemoteJobStore`` callers see exactly the exceptions a local
store would raise.  Protocol-level trouble gets its own types:
:class:`ProtocolError` (wrong dialect: bad schema, unknown op,
malformed envelope) and :class:`StoreUnavailable` (the retry budget
ran out without a valid response).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from ..serve.store import StoreCorrupt, StoreError, _canon, _doc_sha

__all__ = ["RPC_SCHEMA", "FLEET_SCHEMA", "RPC_OPS", "ProtocolError",
           "PayloadCorrupt", "StoreUnavailable", "pack_request",
           "unpack_request", "pack_result", "pack_error",
           "unpack_response"]

#: wire dialect marker; bump on incompatible envelope changes
RPC_SCHEMA = "repro.fleet-rpc/v1"

#: the ``GET /fleet`` membership document marker
FLEET_SCHEMA = "repro.fleet/v1"

#: store operations a client may invoke remotely: the whole
#: :class:`~repro.serve.store.JobStore` contract, its indexed queries
#: and the worker registry included (only ``fleet_summary``, derived
#: from ``fleet_workers``, stays client-side on the base class)
RPC_OPS = frozenset({
    "allocate", "insert", "enqueue", "update", "get", "list", "queued",
    "counts", "claim", "claim_next",
    "heartbeat", "recover", "request_cancel", "request_pause",
    "requeue",
    "append_event", "events", "cache_put", "cache_get", "cache_stats",
    "verify", "fleet_register", "fleet_heartbeat", "fleet_deregister",
    "fleet_workers",
})


class ProtocolError(StoreError):
    """The two ends spoke different dialects: unknown schema/op,
    missing envelope fields, or arguments the store rejected at the
    call boundary."""


class PayloadCorrupt(StoreCorrupt):
    """A wire payload failed its own digest (truncation, byte flip,
    torn response).  Transport damage, not store damage -- the client
    retries it; the backing store is untouched."""


class StoreUnavailable(StoreError):
    """The remote store stayed unreachable (or kept returning damaged
    payloads) past the bounded retry budget."""


def _seal(doc: Dict[str, Any]) -> bytes:
    """Attach the envelope's own SHA-256 and return canonical JSON
    bytes."""
    doc = dict(doc)
    doc["sha256"] = _doc_sha(_canon(doc))
    return (_canon(doc) + "\n").encode("utf-8")


def _open(raw: bytes) -> Dict[str, Any]:
    """Parse + digest-check one envelope; raises :class:`PayloadCorrupt`
    on damage and :class:`ProtocolError` on a foreign dialect."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as e:
        raise PayloadCorrupt(
            f"undecodable RPC payload ({len(raw)} bytes): {e}") from e
    if not isinstance(doc, dict):
        raise ProtocolError(f"RPC payload is {type(doc).__name__}, "
                            "not an envelope object")
    sha = doc.pop("sha256", None)
    if sha is None:
        raise ProtocolError("RPC envelope carries no sha256")
    if _doc_sha(_canon(doc)) != sha:
        raise PayloadCorrupt(
            "RPC payload does not match its recorded SHA-256 "
            "(truncated response?)")
    if doc.get("schema") != RPC_SCHEMA:
        raise ProtocolError(
            f"foreign RPC schema {doc.get('schema')!r} "
            f"(this end speaks {RPC_SCHEMA})")
    return doc


def pack_request(op: str, args: Dict[str, Any]) -> bytes:
    """Serialise one store call into a sealed request envelope."""
    return _seal({"schema": RPC_SCHEMA, "op": op, "args": args})


def unpack_request(raw: bytes) -> Tuple[str, Dict[str, Any]]:
    """Decode + verify a request envelope into ``(op, kwargs)``."""
    doc = _open(raw)
    op = doc.get("op")
    args = doc.get("args", {})
    if not isinstance(op, str) or not isinstance(args, dict):
        raise ProtocolError("RPC request needs a string 'op' and an "
                            "object 'args'")
    if op not in RPC_OPS:
        raise ProtocolError(f"unknown RPC op {op!r}")
    return op, args


def pack_result(result: Any) -> bytes:
    """Serialise a successful store-call result."""
    return _seal({"schema": RPC_SCHEMA, "ok": True, "result": result})


def pack_error(exc: BaseException) -> bytes:
    """Serialise a typed failure; the class name rides in ``type`` so
    the client re-raises the matching class."""
    return _seal({"schema": RPC_SCHEMA, "ok": False,
                  "error": str(exc), "type": type(exc).__name__})


#: error ``type`` names the client maps back onto exception classes;
#: anything unrecognised degrades to plain :class:`StoreError`
_ERROR_TYPES = {cls.__name__: cls for cls in (
    StoreCorrupt, StoreError, ProtocolError, PayloadCorrupt,
    StoreUnavailable)}


def unpack_response(raw: bytes) -> Any:
    """Decode + verify a response envelope; returns the ``result`` or
    re-raises the server's typed error."""
    doc = _open(raw)
    if doc.get("ok"):
        return doc.get("result")
    cls = _ERROR_TYPES.get(str(doc.get("type")), StoreError)
    raise cls(str(doc.get("error", "remote store error")))
