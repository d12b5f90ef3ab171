"""repro.fleet: the serving layer beyond one box.

Schedulers are stateless workers over one shared store.  Here the
store goes behind a socket, as the GRAPE-6A line took a single-host
GRAPE to a PC-GRAPE cluster: the workers become a registered fleet
across hosts and the result cache a fleet-wide, size-bounded asset.

``protocol``
    The versioned, self-digesting ``repro.fleet-rpc/v1`` envelope:
    per-request SHA-256 payload digests, typed protocol errors
    (:class:`ProtocolError`, :class:`PayloadCorrupt`,
    :class:`StoreUnavailable`).
``netstore``
    :class:`StoreServer`: any local :class:`~repro.serve.store.JobStore`
    behind a socket on :mod:`repro.serve.transport`
    (``repro store serve``).
``remote``
    :class:`RemoteJobStore`: the ``JobStore`` contract as a client
    driver -- ``open_store("http://host:port")`` -- with bounded
    retry + backoff and ``repro.faults`` transport injection at site
    ``fleet.rpc``.

The worker registry itself (register/heartbeat/drain rows) lives in
the store contract (:mod:`repro.serve.store`) so every store kind --
memory, sqlite, remote -- carries the same fleet semantics; the
scheduler registers on start, heartbeats from housekeeping, and
drains via :meth:`~repro.serve.scheduler.Scheduler.drain`.

See ``docs/fleet.md`` for the protocol and operational reference.
"""

from .netstore import DEFAULT_STORE_PORT, StoreServer, run_store_server
from .protocol import (FLEET_SCHEMA, PayloadCorrupt, ProtocolError,
                       RPC_OPS, RPC_SCHEMA, StoreUnavailable)
from .remote import RPC_SITE, RemoteJobStore

__all__ = [
    "DEFAULT_STORE_PORT", "StoreServer", "run_store_server",
    "FLEET_SCHEMA", "RPC_SCHEMA", "RPC_OPS", "ProtocolError",
    "PayloadCorrupt", "StoreUnavailable", "RemoteJobStore",
    "RPC_SITE",
]
