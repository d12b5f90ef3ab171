"""Shared run construction: one recipe for the CLI and the service.

``repro run`` and a ``repro.serve`` job of kind ``run`` must produce
**bit-identical** trajectories for the same parameters -- the service
acceptance criterion mirrors the paper's setup, where the same
simulation gives the same answer whether the host is driven
interactively or from a job queue.  The only way to guarantee that is
to construct the workload, the force solver and the step schedule
through one code path, so this module hoists the construction logic
that used to live inline in :mod:`repro.cli` and shares it with
:mod:`repro.serve.runner`.

:func:`state_digest` is the comparison primitive: a SHA-256 over the
exact phase-space bytes plus the time, so "bit-identical" is checked
as digest equality instead of shipping arrays around.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["carve_run_region", "build_force", "run_schedule",
           "state_digest"]


def carve_run_region(*, ngrid: int, seed: int, z_init: float,
                     box: float = 100.0, radius: float = 50.0):
    """The paper's workload at CLI scale: Zel'dovich ICs on an
    ``ngrid``^3 mesh, carved to a sphere at ``z_init``.

    Deterministic for a fixed ``seed`` -- both entry points (CLI and
    service) lean on that for reproducible, comparable runs.
    """
    from ..cosmo import ZeldovichIC, carve_sphere
    ic = ZeldovichIC(box=float(box), ngrid=int(ngrid), seed=int(seed))
    return carve_sphere(ic, radius=float(radius), z_init=float(z_init))


def build_force(*, theta: float, ncrit: int, backend: str = "grape",
                system: Optional[object] = None,
                engine: Optional[object] = None,
                workers: Optional[int] = None,
                faults: Optional[object] = None,
                flight: Optional[object] = None,
                tracer: Optional[object] = None,
                metrics: Optional[object] = None,
                max_retries: int = 2,
                cluster: Optional[object] = None
                ) -> Tuple[object, Optional[object]]:
    """Build the treecode force solver the way ``repro run`` does.

    Returns ``(treecode, grape_backend_or_None)``.  ``backend`` is
    ``"grape"`` or ``"host"``; with ``system`` a pre-built
    :class:`~repro.grape.system.Grape5System` is adopted instead of a
    fresh one -- this is the lease-aware path: a scheduler hands each
    job the accelerator behind its lease, so concurrent jobs never
    share boards.  The arithmetic is identical either way (every
    default system is the same paper configuration), which keeps
    leased runs bit-identical to interactive ones.

    This is the one place a run's :class:`~repro.exec.PipelineEngine`
    is built (unless one is passed, the way to share a pool across
    solvers): ``workers`` pool threads (all cores when ``None``), the
    ``faults`` plan in any form :func:`repro.faults.as_fault_plan`
    takes, ``max_retries`` shard re-runs / force-call re-issues, and
    the ``flight`` recorder.  Its ``fault_injector`` is the run's: the
    GRAPE backend consults it too, and the caller hands it to
    ``Simulation.run``.  The treecode closes the engine it holds.

    ``cluster`` (a :class:`~repro.cluster.ClusterSpec` or a
    :class:`~repro.cluster.ClusterContext`) swaps the single emulated
    GRAPE for the decomposed K-hosts-x-B-boards path; the returned
    second element is then the opened context, which the treecode holds
    as its backend and closes with itself.  Requires the GRAPE backend
    (the cluster *is* a set of GRAPEs) and neither ``engine`` nor
    ``workers`` (it is its own parallel structure).
    """
    from ..core import TreeCode
    from ..exec import PipelineEngine
    from ..faults import FaultInjector, as_fault_plan
    from ..grape import GrapeBackend
    if backend not in ("grape", "host"):
        raise ValueError(f"unknown backend {backend!r} "
                         "(choose 'grape' or 'host')")
    if cluster is not None:
        from ..cluster import ClusterContext, ClusterSpec
        if backend != "grape":
            raise ValueError("cluster mode requires backend='grape' "
                             "(the cluster is a set of emulated GRAPEs)")
        if engine is not None or workers is not None:
            raise ValueError("cluster mode and an engine (--workers) "
                             "are mutually exclusive")
        if system is not None:
            raise ValueError("cluster mode builds its own per-host "
                             "systems; system= cannot be adopted")
        if isinstance(cluster, ClusterSpec):
            plan = as_fault_plan(faults)
            cluster = ClusterContext(
                cluster, metrics=metrics, max_retries=int(max_retries),
                fault_injector=(FaultInjector(plan, flight=flight)
                                if plan is not None else None))
        tc = TreeCode(theta=float(theta), n_crit=int(ncrit),
                      cluster=cluster, tracer=tracer, metrics=metrics)
        return tc, tc.backend
    if engine is None:
        engine = PipelineEngine(workers=workers, faults=faults,
                                max_retries=int(max_retries), flight=flight)
    gb = None
    if backend == "grape":
        gb = (GrapeBackend(system=system) if system is not None
              else GrapeBackend())
        if metrics is not None:
            gb.bind_metrics(metrics)
        gb.max_retries = int(max_retries)
        gb.fault_injector = engine.fault_injector
    tc = TreeCode(theta=float(theta), n_crit=int(ncrit), backend=gb,
                  engine=engine, tracer=tracer, metrics=metrics)
    return tc, gb


def run_schedule(*, z_init: float, z_final: float,
                 steps: int) -> List[float]:
    """The CLI's step schedule (``paper_schedule`` over SCDM)."""
    from ..cosmo import SCDM
    from .timestep import paper_schedule
    return [float(dt) for dt in
            paper_schedule(SCDM, float(z_init), float(z_final),
                           int(steps))]


def state_digest(pos: np.ndarray, vel: np.ndarray,
                 t: float) -> str:
    """SHA-256 over the exact phase-space bytes and the time.

    Two runs are bit-identical iff their digests agree; used by the
    service acceptance tests to compare served jobs against serial
    ``repro run`` trajectories without shipping arrays.
    """
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pos, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(vel, dtype=np.float64).tobytes())
    h.update(np.float64(t).tobytes())
    return h.hexdigest()
