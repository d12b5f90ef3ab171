"""The job model: typed specs, the ``repro.job/v1`` schema, lifecycle.

A *job* is one unit of simulation work a tenant submits to the
service: a scaled paper run, a group-size sweep, or a single force
evaluation.  The spec is plain data (JSON in, JSON out) under the
versioned ``repro.job/v1`` schema so clients, the wire format and
stored job documents stay mutually intelligible across releases --
the same discipline as ``repro.run_summary/v1``.

Lifecycle
---------
::

    queued --> scheduled --> running --> done
       |            |           |------> failed
       |            |           |------> cancelled
       |            |           `------> paused --> queued (resume)
       `------------`-----------------> cancelled

``queued``
    Admitted, waiting for a scheduler slot.
``scheduled``
    Claimed by a slot, not yet running.
``running``
    Executing in its slot, on an accelerator built for it.
``paused``
    Checkpointed to the job workdir and evicted from its slot; a
    resume re-queues it and the runner continues from the checkpoint
    (``sim.checkpoint`` generations, the same rollback machinery the
    fault-recovery path uses).
``done`` / ``failed`` / ``cancelled``
    Terminal.

Transitions outside this graph raise :class:`JobError`; the scheduler
is the only writer, so the table doubles as its internal sanity
check.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from ..faults import as_fault_plan

__all__ = ["JOB_SCHEMA", "JOB_KINDS", "JOB_STATES", "TERMINAL_STATES",
           "JobError", "JobCancelled", "JobPaused", "JobSpec", "Job"]

#: Versioned wire-format identifier of a job document.
JOB_SCHEMA = "repro.job/v1"

#: Workload kinds the runner knows how to execute.
JOB_KINDS = ("run", "sweep", "force_eval")

#: Every lifecycle state, roughly in forward order.
JOB_STATES = ("queued", "scheduled", "running", "paused", "done",
              "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: state -> states it may move to (the lifecycle graph above)
_TRANSITIONS: Dict[str, frozenset] = {
    "queued": frozenset({"scheduled", "cancelled"}),
    "scheduled": frozenset({"running", "queued", "cancelled", "failed"}),
    "running": frozenset({"done", "failed", "cancelled", "paused"}),
    "paused": frozenset({"queued", "cancelled"}),
    "done": frozenset(),
    "failed": frozenset(),
    "cancelled": frozenset(),
}

#: per-kind parameter names with (type, default); ``None`` default
#: means the parameter is filled by the runner when absent
_PARAM_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "run": {
        "ngrid": (int, 16), "steps": (int, 20),
        "z_init": (float, 24.0), "z_final": (float, 0.0),
        "theta": (float, 0.75), "ncrit": (int, 256),
        "seed": (int, 1999), "backend": (str, "grape"),
    },
    "sweep": {
        "n": (int, 8192), "theta": (float, 0.75), "seed": (int, 3),
    },
    "force_eval": {
        "n": (int, 2048), "theta": (float, 0.75), "ncrit": (int, 256),
        "seed": (int, 7), "eps": (float, 0.01),
    },
}


class JobError(ValueError):
    """Malformed job document or illegal lifecycle transition."""


class JobCancelled(Exception):
    """Control-flow signal: the running job observed its cancel flag."""


class JobPaused(Exception):
    """Control-flow signal: the running job checkpointed and yielded."""


@dataclass
class JobSpec:
    """What the tenant asked for -- immutable once admitted.

    ``params`` are the kind-specific workload knobs (validated and
    default-filled against the ``repro.job/v1`` parameter schema);
    everything else is scheduling/robustness policy.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    #: larger runs first; ties broken by tenant fair-share then FIFO
    priority: int = 0
    #: fair-share accounting key
    tenant: str = "default"
    #: pool threads of the job's force engine (``None``: all cores)
    workers: Optional[int] = None
    #: run-level checkpoint recoveries (``Simulation.run``)
    max_recoveries: int = 3
    #: rotated checkpoint cadence in steps (0 = no periodic writes;
    #: pause/resume and fault recovery need it > 0)
    checkpoint_every: int = 0
    #: optional deterministic fault plan (chaos testing), any form
    #: accepted by :func:`repro.faults.parse_fault_plan`
    faults: Optional[str] = None
    #: engine/backend retry budget
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise JobError(f"unknown job kind {self.kind!r} "
                           f"(choose from {', '.join(JOB_KINDS)})")
        if self.max_recoveries < 0 or self.max_retries < 0:
            raise JobError("retry/recovery budgets must be >= 0")
        if self.checkpoint_every < 0:
            raise JobError("checkpoint_every must be >= 0")
        try:
            as_fault_plan(self.faults)
        except (TypeError, ValueError) as e:
            raise JobError(f"bad fault plan: {e}") from e
        if not isinstance(self.params, dict):
            raise JobError("params must be an object")
        schema = _PARAM_SCHEMA[self.kind]
        unknown = sorted(set(self.params) - set(schema))
        if unknown:
            raise JobError(
                f"unknown parameter(s) for kind {self.kind!r}: "
                f"{', '.join(unknown)} (known: "
                f"{', '.join(sorted(schema))})")
        filled: Dict[str, Any] = {}
        for name, (typ, default) in schema.items():
            raw = self.params.get(name, default)
            try:
                filled[name] = typ(raw)
            except (TypeError, ValueError) as e:
                raise JobError(
                    f"parameter {name!r} of kind {self.kind!r} must "
                    f"be {typ.__name__}: {raw!r}") from e
        self.params = filled

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind, "params": dict(self.params),
            "priority": self.priority, "tenant": self.tenant,
            "workers": self.workers,
            "max_recoveries": self.max_recoveries,
            "checkpoint_every": self.checkpoint_every,
            "faults": self.faults, "max_retries": self.max_retries,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobSpec":
        """Validate an incoming job document (the POST /jobs body)."""
        if not isinstance(doc, dict):
            raise JobError("job document must be a JSON object")
        doc = dict(doc)
        schema = doc.pop("schema", JOB_SCHEMA)
        if schema != JOB_SCHEMA:
            raise JobError(f"unsupported job schema {schema!r} "
                           f"(this server speaks {JOB_SCHEMA})")
        if "kind" not in doc:
            raise JobError("job document is missing 'kind'")
        unknown = sorted(set(doc) - set(_SPEC_FIELDS))
        if unknown:
            raise JobError(f"unknown job field(s): {', '.join(unknown)}")
        try:
            return cls(**doc)
        except TypeError as e:
            raise JobError(str(e)) from e


#: the wire fields of a job spec; anything else in a POST body is a 400
_SPEC_FIELDS = tuple(f.name for f in fields(JobSpec))

_job_counter = itertools.count(1)


@dataclass
class Job:
    """One admitted job: the spec plus everything the service learned.

    Mutable runtime record owned by the scheduler; every field the
    wire format exposes is mirrored by :meth:`to_dict`.  The embedded
    ``threading.Event`` flags are the cancel/pause control surface the
    runner polls between steps.
    """

    spec: JobSpec
    id: str = ""
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: label of the slot the job ran (or is running) in
    lease: Optional[str] = None
    #: run-level checkpoint recoveries performed
    recoveries: int = 0
    #: monotone submission sequence (FIFO tie-break)
    seq: int = 0
    #: progress events recorded so far (the events themselves live in
    #: the job store; this count is ``progress.events``)
    event_count: int = 0
    #: steps completed / planned (run kind)
    steps_done: int = 0
    steps_total: int = 0
    #: job-private workdir (checkpoints, artifacts)
    workdir: Optional[str] = None
    #: execution attempt (0 = first; a crash-requeue by
    #: :meth:`~repro.serve.store.JobStore.recover` bumps it)
    attempt: int = 0
    #: scheduler worker currently (or last) holding the claim
    worker: Optional[str] = None
    #: the result was served from the content-addressed cache
    #: (nothing was computed)
    cache_hit: bool = False
    #: distributed-trace identity, assigned at admission; every span
    #: this job produces (scheduler, runner, engine, workers) carries it
    trace_id: str = ""
    #: per-job :class:`~repro.obs.trace.Tracer` (built at each claim)
    tracer: Optional[Any] = field(default=None, repr=False)
    #: per-job :class:`~repro.obs.flightrec.FlightRecorder`; its ring
    #: mirrors progress events and fault-layer decisions, dumped to the
    #: workdir when the job dies or recovered from a fault
    flight: Optional[Any] = field(default=None, repr=False)
    #: span events as the terminal store document carries them (what
    #: answers for a finished job once its tracer is gone)
    spans: list = field(default_factory=list, repr=False)

    cancel_event: threading.Event = field(default_factory=threading.Event,
                                          repr=False)
    pause_event: threading.Event = field(default_factory=threading.Event,
                                         repr=False)
    #: where progress events go (the scheduler points this at
    #: ``JobStore.append_event``, the one event log)
    event_sink: Optional[Any] = field(default=None, repr=False)
    #: transition events waiting for the state write they belong to
    staged: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.id:
            n = next(_job_counter)
            self.id = f"j{n:06d}"
            self.seq = n

    # -- lifecycle -----------------------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def advance(self, state: str) -> None:
        """Move to ``state``, enforcing the lifecycle graph."""
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[self.state]:
            raise JobError(
                f"illegal transition {self.state} -> {state} "
                f"(job {self.id})")
        self.state = state
        if state == "running" and self.started_at is None:
            self.started_at = time.time()
        if state in TERMINAL_STATES:
            self.finished_at = time.time()

    def _event(self, kind: str, attrs: Dict[str, Any]) -> Dict[str, Any]:
        """Count one event; mirror it into the flight-recorder ring."""
        self.event_count += 1
        if self.flight is not None:
            self.flight.record(f"job.{kind}", job=self.id, **attrs)
        return {"event": kind, "t_wall": time.time(), **attrs}

    def stage_event(self, kind: str, **attrs: Any) -> None:
        """Record one transition event (``submitted``, ``leased``, an
        outcome), held for the state write that carries it."""
        self.staged.append(self._event(kind, attrs))

    def take_events(self) -> list:
        """Hand the staged transition events to a state write."""
        out, self.staged = self.staged, []
        return out

    def add_event(self, kind: str, **attrs: Any) -> Dict[str, Any]:
        """Record one progress event: written through ``event_sink``
        (the job store's event log) at once."""
        ev = self._event(kind, attrs)
        if self.event_sink is not None:
            # the sink must not kill the job it is recording
            with contextlib.suppress(Exception):
                self.event_sink(self.id, ev)
        return ev

    def span_events(self) -> list:
        """The job's spans: the stored copy once there is one, else
        the live tracer's (a job the store has not seen finish)."""
        if self.spans or self.tracer is None:
            return self.spans
        from ..obs.export import span_events
        return list(span_events(self.tracer))

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The ``repro.job/v1`` document served by GET /jobs/{id}."""
        return {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "state": self.state,
            **self.spec.to_dict(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "result": self.result,
            "lease": self.lease,
            "recoveries": self.recoveries,
            "trace_id": self.trace_id,
            "attempt": self.attempt,
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "progress": {"steps_done": self.steps_done,
                         "steps_total": self.steps_total,
                         "events": self.event_count},
        }

    # -- durable projection --------------------------------------------
    def to_store_doc(self) -> Dict[str, Any]:
        """The document a :class:`~repro.serve.store.JobStore`
        persists: the wire document plus ``seq`` and ``workdir`` (the
        restart path needs the checkpoint location) and, once the job
        is finished, its ``spans``."""
        doc = self.to_dict()
        doc["seq"] = self.seq
        doc["workdir"] = self.workdir
        if self.terminal:
            doc["spans"] = self.span_events()
        return doc

    @classmethod
    def from_store_doc(cls, doc: Dict[str, Any]) -> "Job":
        """Rebuild a runtime :class:`Job` from a stored document.

        The spec round-trips through validation; the lifecycle state
        is taken as stored (``advance`` is bypassed -- the store is
        authoritative).  The events stay in the store
        (:meth:`~repro.serve.store.JobStore.events`); only their count
        comes along.
        """
        spec = JobSpec.from_dict(
            {k: doc[k] for k in _SPEC_FIELDS if k in doc})
        progress = doc.get("progress", {})
        return cls(
            spec=spec, id=doc["id"], state=doc.get("state", "queued"),
            seq=int(doc.get("seq", 0)),
            submitted_at=float(doc.get("submitted_at", 0.0)),
            started_at=doc.get("started_at"),
            finished_at=doc.get("finished_at"), error=doc.get("error"),
            result=doc.get("result"), lease=doc.get("lease"),
            recoveries=int(doc.get("recoveries", 0)),
            attempt=int(doc.get("attempt", 0)),
            worker=doc.get("worker"), workdir=doc.get("workdir"),
            cache_hit=bool(doc.get("cache_hit", False)),
            trace_id=doc.get("trace_id", ""),
            spans=doc.get("spans", []),
            steps_done=int(progress.get("steps_done", 0)),
            steps_total=int(progress.get("steps_total", 0)),
            event_count=int(progress.get("events", 0)))
