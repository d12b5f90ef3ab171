"""Deterministic, seedable fault plans.

The paper's headline number rests on one uninterrupted 8.37-hour run,
but real GRAPE deployments lived with flaky boards, dropped host-bus
transfers and mid-run crashes -- the PC-GRAPE cluster line made
host-side recovery a first-class concern.  A :class:`FaultPlan` is the
reproducible stand-in for that flakiness: a list of :class:`FaultSpec`
entries, each naming a *kind* of fault and the exact site where it
fires (sweep, batch, call index, retry attempt).  Plans are plain
data parsed from text, so an injected failure is replayed bit-for-bit
by anyone holding the same plan text and seed.

Fault kinds
-----------
``latency``
    The call sleeps for ``seconds`` (default 0.05) and then proceeds
    normally -- a slow batch or request, not a failure (no ``site``,
    or ``fleet.rpc``).
``transient_error``
    A retryable device error: batch-level when ``site`` is unset
    (the pipeline engine's shard call raises), call-level when
    ``site`` names a backend or transport hook (``grape.compute``,
    ``fleet.rpc``).
``corrupt_result``
    The response bytes of a ``fleet.rpc`` request are truncated, so
    the payload digest check fires (transport site only).
``checkpoint_truncate``
    The just-written checkpoint file is truncated, exercising the
    last-good-pointer fallback (no ``site``).

:data:`FAULT_HOOKS` lists every (kind, site) pair a hook fires; a
plan naming any other pair is refused, never silently inert.  A run's
plan (:func:`as_fault_plan`) may name only the hooks a run reaches,
:data:`RUN_HOOKS`.

Selectors are exact-match when set and wildcards when ``None``;
``attempt`` defaults to 0 so a fault fires on the first execution of a
batch and *not* on its retries (set ``attempt`` to ``None`` -- ``any``
in the DSL -- for a persistent fault).  ``count`` bounds firings per
process; ``prob`` makes firing probabilistic but still deterministic,
via a hash of ``(seed, spec index, site key)``.

Plans parse from three sources (see :func:`parse_fault_plan`): a JSON
document (``{"seed": 7, "faults": [{"kind": "latency", ...}]}``),
a path to such a document, or the compact CLI DSL::

    latency@batch=1;transient_error@site=grape.compute,call=2,count=3
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["FAULT_KINDS", "FAULT_HOOKS", "RUN_HOOKS", "FaultSpec",
           "FaultPlan", "parse_fault_plan", "as_fault_plan"]

#: every (kind, site) pair some hook fires, and the hook
#: (:meth:`~repro.faults.inject.FaultInjector.fire`'s first argument)
#: that fires it; ``site`` None is a site-less fault.  Any other pair
#: could never fire, so :class:`FaultSpec` refuses it.
FAULT_HOOKS = {
    ("latency", None): "batch",
    ("transient_error", None): "batch",
    ("checkpoint_truncate", None): "checkpoint",
    ("transient_error", "grape.compute"): "call",
    ("latency", "fleet.rpc"): "transport",
    ("transient_error", "fleet.rpc"): "transport",
    ("corrupt_result", "fleet.rpc"): "transport",
}

FAULT_KINDS = frozenset(kind for kind, _ in FAULT_HOOKS)

#: the hooks a run reaches: ``transport`` fires only in a
#: :class:`~repro.fleet.RemoteJobStore` built with its own injector,
#: never in the store a run's worker holds
RUN_HOOKS = frozenset({"batch", "call", "checkpoint"})


@dataclass
class FaultSpec:
    """One injectable fault: a kind plus the selectors naming its site."""

    kind: str
    #: call-site hook name for backend/transport faults
    #: (``grape.compute``, ``fleet.rpc``); ``None`` for
    #: batch/checkpoint-level faults
    site: Optional[str] = None
    sweep: Optional[int] = None
    batch: Optional[int] = None
    #: backend call index (fires once ``call_index >= call``)
    call: Optional[int] = None
    #: simulation step (checkpoint faults)
    step: Optional[int] = None
    #: batch resubmission attempt this fault fires on (0 = first try,
    #: ``None`` = every attempt)
    attempt: Optional[int] = 0
    #: maximum firings per process
    count: int = 1
    #: probabilistic firing (deterministic under the plan seed)
    prob: Optional[float] = None
    #: duration of latency faults
    seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (choose from "
                f"{', '.join(sorted(FAULT_KINDS))})")
        if (self.kind, self.site) not in FAULT_HOOKS:
            sites = sorted(site or "no site" for kind, site in FAULT_HOOKS
                           if kind == self.kind)
            where = (f"site {self.site!r}" if self.site is not None
                     else "no site")
            raise ValueError(
                f"fault kind {self.kind!r} never fires at {where} "
                f"(its sites: {', '.join(sites)})")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.prob is not None and not 0.0 <= self.prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        if self.seconds is not None and self.seconds < 0:
            raise ValueError("seconds must be non-negative")

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultSpec":
        """Build one fault from its parsed ``{"kind": ..., selector:
        value}`` form.  Plans arrive from the command line and from job
        documents, so a key that is no selector is a :class:`ValueError`
        naming it -- the usage error every entry point reports -- never
        the ``TypeError`` of a bad keyword argument."""
        selectors = [f.name for f in fields(cls) if f.name != "kind"]
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ValueError(f"a fault is an object with a 'kind', "
                             f"got {doc!r}")
        unknown = sorted(set(doc) - {"kind", *selectors})
        if unknown:
            raise ValueError(
                f"unknown fault selector {', '.join(map(repr, unknown))}"
                f" (valid selectors: {', '.join(selectors)})")
        return cls(**doc)


@dataclass
class FaultPlan:
    """A seedable list of faults; the unit every injector is built
    from."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    # -- construction --------------------------------------------------
    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "FaultPlan":
        faults = doc.get("faults", [])
        if not isinstance(faults, list):
            raise ValueError("'faults' must be a list of fault objects")
        specs = [f if isinstance(f, FaultSpec) else FaultSpec.from_dict(f)
                 for f in faults]
        return cls(specs=specs, seed=int(doc.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        if isinstance(doc, list):
            doc = {"faults": doc}
        return cls.from_dict(doc)

    @classmethod
    def from_dsl(cls, text: str, *, seed: int = 0) -> "FaultPlan":
        """Parse the compact CLI form:
        ``kind@key=val,key=val;kind2@...`` (``@...`` optional)."""
        specs = []
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            kind, _, rest = part.partition("@")
            kwargs: Dict[str, object] = {}
            for kv in filter(None, (s.strip() for s in rest.split(","))):
                key, eq, val = kv.partition("=")
                if not eq:
                    raise ValueError(f"malformed fault selector {kv!r} "
                                     f"(expected key=value)")
                kwargs[key.strip()] = _parse_value(key.strip(),
                                                   val.strip())
            if kind.strip() == "seed":
                raise ValueError("set the seed as seed=N inside a "
                                 "selector list, e.g. latency@seed=7")
            seed = int(kwargs.pop("seed", seed))
            specs.append(FaultSpec.from_dict({"kind": kind.strip(),
                                              **kwargs}))
        return cls(specs=specs, seed=seed)


def _parse_value(key: str, val: str) -> object:
    if key == "site":
        return val
    if val.lower() in ("any", "none", "*"):
        return None
    if key in ("prob", "seconds"):
        return float(val)
    return int(val)


def parse_fault_plan(source: Union[str, Path]) -> FaultPlan:
    """Parse a fault plan from a JSON file path, a JSON string, or the
    compact DSL (in that order of recognition)."""
    if isinstance(source, Path):
        return FaultPlan.from_json(source.read_text())
    text = str(source).strip()
    p = Path(text)
    try:
        exists = p.exists() and p.is_file()
    except OSError:  # pragma: no cover - e.g. name too long
        exists = False
    if exists:
        return FaultPlan.from_json(p.read_text())
    if text.startswith("{") or text.startswith("["):
        return FaultPlan.from_json(text)
    return FaultPlan.from_dsl(text)


def as_fault_plan(obj: object) -> Optional[FaultPlan]:
    """Normalise a run's optional plan argument (``--faults``, a job's
    ``faults``): ``None`` stays ``None``; strings/paths/dicts/lists are
    parsed.  A fault at a hook outside :data:`RUN_HOOKS` could never
    fire in a run: it is a :class:`ValueError` naming its site."""
    if obj is None or isinstance(obj, FaultPlan):
        plan = obj
    elif isinstance(obj, (dict, list)):
        plan = FaultPlan.from_dict(obj if isinstance(obj, dict)
                                   else {"faults": obj})
    else:
        plan = parse_fault_plan(obj)
    for s in plan.specs if plan is not None else ():
        if FAULT_HOOKS[(s.kind, s.site)] not in RUN_HOOKS:
            raise ValueError(
                f"fault kind {s.kind!r} at site {s.site!r} never fires "
                "in a run (only a fleet client given its own injector "
                "reaches it)")
    return plan
