"""repro.fleet: the serving layer beyond one box.

Schedulers are stateless workers over one shared store.  Here the
store goes behind a socket, as the GRAPE-6A line took a single-host
GRAPE to a PC-GRAPE cluster: the workers become a registered fleet
across hosts and the result cache a fleet-wide, size-bounded asset.
:mod:`~repro.fleet.protocol` is the self-digesting
``repro.fleet-rpc/v1`` envelope, :class:`StoreServer` puts any local
:class:`~repro.serve.store.JobStore` behind a socket (``repro store
serve``) and :class:`RemoteJobStore` is its client driver
(``open_store("http://host:port")``).  The worker registry itself
lives in the store contract, so every store kind carries the same
fleet semantics.  See ``docs/fleet.md``.
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
