"""The work: one body per job kind, shared by the CLI and the service.

``repro run|resume|sweep`` and a served ``run|sweep`` job are the same
work started two ways -- the paper's one host program driving the
GRAPE through one call sequence, whoever launched it -- so the work
lives here once, and :mod:`repro.cli` and :mod:`repro.serve.runner`
are adapters over it: each turns its input (argv; a ``Job``) into
plain parameters and one callback (a print; a progress event plus the
cancel/pause poll) and keeps only what its side alone has.  Nothing
here knows of argparse, jobs or stdout.

:func:`carve_run_region`, :func:`build_force` and :func:`run_schedule`
are the workload, the solver and the step schedule of a scaled paper
run; :func:`new_simulation` + :func:`paper_run` are the ``run`` kind
and :func:`ng_sweep` the ``sweep`` kind.  One body is what makes a
served run **bit-identical** to an interactive one, and
:func:`state_digest` is how that is checked: a SHA-256 over the exact
phase-space bytes plus the time, compared instead of shipping arrays.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["carve_run_region", "build_force", "run_schedule",
           "new_simulation", "paper_run", "ng_sweep", "state_digest"]


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
    fresh paper one -- the service builds one per job with its
    ``--boards`` count, so concurrent jobs never share boards.  At the
    default two boards the system is the paper configuration either
    way, which keeps served runs bit-identical to interactive ones.

    This is the one place a run's :class:`~repro.exec.PipelineEngine`
    is built (unless one is passed, the way to share a pool across
    solvers): ``workers`` pool threads (all cores when ``None``), the
    ``faults`` plan in any form :func:`repro.faults.as_fault_plan`
    takes, ``max_retries`` shard re-runs / force-call re-issues, and
    the ``flight`` recorder.  Its ``fault_injector`` is the run's: the
    GRAPE backend consults it too, and the caller hands it to
    ``Simulation.run``.  The treecode closes the engine it holds.

    ``cluster`` (a :class:`~repro.cluster.ClusterSpec`) swaps the
    single emulated GRAPE for a
    :class:`~repro.cluster.ClusterBackend` of K hosts x B boards, wired
    like the GRAPE backend it replaces and returned as the second
    element: the same engine evaluates its sweeps, so the forces are
    the single-host path's bits at any K and ``workers``.  It needs the
    GRAPE backend (the cluster *is* a set of GRAPEs) and builds its own
    per-host systems, so it takes no ``system``.
    """
    from ..core import TreeCode
    from ..exec import PipelineEngine
    from ..grape import GrapeBackend
    if backend not in ("grape", "host"):
        raise ValueError(f"unknown backend {backend!r} "
                         "(choose 'grape' or 'host')")
    if cluster is not None and (backend != "grape" or system is not None):
        raise ValueError("a cluster builds its own emulated GRAPEs: it "
                         "needs backend='grape' and no system=")
    if engine is None:
        engine = PipelineEngine(workers=workers, faults=faults,
                                max_retries=int(max_retries), flight=flight)
    gb = None
    if backend == "grape":
        if cluster is not None:
            from ..cluster import ClusterBackend
            gb = ClusterBackend(cluster)
        else:
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


def new_simulation(force, *, ngrid: int, seed: int, z_init: float):
    """A paper run's initial state: the carved sphere on ``force``, its
    clock at the age of the universe at ``z_init``."""
    from ..cosmo import SCDM
    from .simulation import Simulation
    sim = Simulation.from_sphere(
        carve_run_region(ngrid=ngrid, seed=seed, z_init=z_init),
        force=force)
    sim.t = SCDM.age(z_init)
    return sim


def paper_run(sim, schedule: Sequence[float], *, flight=None,
              on_step: Optional[Callable] = None,
              **checkpointing) -> Dict[str, object]:
    """Kind ``run``: step ``sim`` -- fresh from :func:`new_simulation`
    or loaded from a checkpoint -- through ``schedule``, and close its
    solver whatever happens.

    The run observes itself through its solver's tracer and registry
    (:func:`build_force` gave it them) and the ``flight`` recorder;
    ``on_step(sim, record)`` fires after every step; ``checkpointing``
    is ``Simulation.run``'s policy (``checkpoint_path``,
    ``checkpoint_every``, ``resume_on_fault``, ``max_recoveries``) and
    the injector it consults is the solver's own.  Returns the run's
    exact facts -- no wall clock, so the document can be cached and
    compared.
    """
    from .diagnostics import interaction_totals
    force = sim.force
    sim.tracer, sim.metrics, sim.flight = force.tracer, force.metrics, flight
    if sim.metrics is not None:
        sim.metrics.gauge("sim.n_particles",
                          "particles in the run").set(sim.n_particles)
    try:
        sim.run(schedule, callback=on_step, **checkpointing,
                fault_injector=force.engine.fault_injector)
    finally:
        sim.close()
    d = interaction_totals(sim)
    return {"digest": state_digest(sim.pos, sim.vel, sim.t),
            "n_particles": sim.n_particles,
            "steps": int(d["steps"]),
            "interactions": float(d["interactions"]),
            "mean_list_length": float(d["mean_list_length"]),
            "t_final": float(sim.t),
            "fault_recoveries": int(sim.fault_recoveries)}


def ng_sweep(tc, *, n: int, seed: int,
             on_point: Optional[Callable] = None) -> List[Dict]:
    """Kind ``sweep``: the section-3 group-size sweep of an ``n``-body
    Plummer snapshot on ONE solver (one engine and thread pool, one
    backend), which it closes; n_g is the solver's knob.

    The rows are counts and do not depend on the arithmetic, so callers
    build ``tc`` on the host float64 backend unless asked for a
    cluster.  ``on_point(row)`` fires after every point.
    """
    from .models import plummer_model
    pos, _, mass = plummer_model(n, np.random.default_rng(seed))
    rows: List[Dict] = []
    try:
        for ncrit in (64, 256, 1024, 4096):
            tc.n_crit = ncrit
            tc.accelerations(pos, mass, 0.01)
            s = tc.last_stats
            rows.append({"n_crit": ncrit,
                         "n_g": round(s.mean_group_size, 1),
                         "mean_list": round(s.interactions_per_particle),
                         "interactions": int(s.total_interactions)})
            if on_point is not None:
                on_point(rows[-1])
    finally:
        tc.close()
    return rows


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
