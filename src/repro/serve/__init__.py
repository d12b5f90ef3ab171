"""repro.serve: multi-tenant simulation service.

The paper's deployment is one host feeding one GRAPE-5; this package
is the service-shaped generalisation the ROADMAP's north star asks
for: many tenants submit jobs over HTTP, a scheduler multiplexes them
onto a fixed number of slots, each computed job on an emulated GRAPE
built for it alone, and backpressure keeps the queue bounded.
Stdlib-only, like every layer below it.

Layering (each module only depends on the ones above it):

``jobs``
    Typed :class:`JobSpec`/:class:`Job`, the versioned
    ``repro.job/v1`` document format, the lifecycle state machine.
``store``
    Durable :class:`JobStore` (SQLite-WAL, on a file or in memory):
    job documents, progress events, compare-and-swap claim leases,
    the content-addressed result cache.  Multiple scheduler
    workers share one store and take over each other's expired claims.
``quotas``
    Per-tenant admission policy: active-job quotas and token-bucket
    rate limits (:class:`AdmissionController`).
``runner``
    Executes one job on its own
    :class:`~repro.grape.system.Grape5System` through
    :mod:`repro.sim.recipes` -- the same construction path as the
    CLI, so served runs are bit-identical to ``repro run``.
``scheduler``
    A stateless worker over the store: priority + store-wide
    fair-share picking, admission control, cache serving,
    :class:`AdmissionError` backpressure.
``transport``
    The one wire layer: HTTP framing and caps, the listening-socket
    lifecycle, the client connection primitive -- shared with
    :mod:`repro.fleet`.
``server`` / ``client``
    The job API's routes and their client (``repro serve`` /
    ``repro submit`` / ``repro jobs``).

Beyond one box, :mod:`repro.fleet` puts the store behind a TCP
socket (``repro store serve`` + ``open_store("http://...")``) and the
store's worker registry turns N servers into a drainable fleet
(``GET /fleet``, ``repro fleet ...``).

See ``docs/service.md`` for the API and schema reference and
``docs/fleet.md`` for the cross-host fleet.
"""

from .client import Backpressure, ServeClient, ServeHTTPError
from .jobs import (JOB_KINDS, JOB_SCHEMA, JOB_STATES, Job, JobError,
                   JobSpec)
from .quotas import (AdmissionController, AdmissionError, QuotaExceeded,
                     RateLimited, TenantPolicy)
from .scheduler import Scheduler
from .server import ServeError, Server
from .store import (JobStore, MemoryJobStore, SQLiteJobStore,
                    StoreCorrupt, StoreError, open_store, spec_hash)

__all__ = [
    "JOB_SCHEMA", "JOB_KINDS", "JOB_STATES", "JobSpec", "Job",
    "JobError", "Scheduler",
    "AdmissionError", "QuotaExceeded", "RateLimited", "TenantPolicy",
    "AdmissionController", "JobStore", "MemoryJobStore",
    "SQLiteJobStore", "StoreError", "StoreCorrupt", "open_store",
    "spec_hash", "Server", "ServeError",
    "ServeClient", "ServeHTTPError", "Backpressure",
]
