"""Job execution: one leased accelerator, one simulation, one result.

The runner is the bridge between a :class:`~repro.serve.jobs.Job` and
the simulation stack.  It executes on the scheduler's worker thread,
*inside* the job's lease: every force evaluation goes through
``lease.system``, the leased slot's
:class:`~repro.grape.system.Grape5System` (via
:func:`repro.sim.recipes.build_force`'s ``system=`` hook), so two
concurrent jobs never compute on one device.  The recipe also gives
every job its own :class:`~repro.exec.PipelineEngine` (``workers``
threads in this process -- no ``fork()`` from a server that is running
scheduler, heartbeat and HTTP threads), so an injected fault plan stays
scoped to the job and every retry decision lands in the job's black
box; the threads start with the first sweep and are joined when the
solver is closed.

Bit-identity
------------
A ``run`` job is constructed through :mod:`repro.sim.recipes` -- the
same code path as ``repro run`` -- and its result carries
``state_digest(pos, vel, t)``.  Served and interactive runs of the
same parameters therefore produce equal digests; the acceptance tests
check exactly that.

Robustness
----------
Each job gets a private workdir with rotated checkpoints
(``spec.checkpoint_every > 0``): a fault that exhausts the
engine/backend retry budgets rolls the job back through
``Simulation.run``'s recovery path (bounded by
``spec.max_recoveries``), and a scheduler-level restart of the job
(crash requeue, pause/resume) continues from the newest intact
generation instead of step 0.  Cancel and pause flags are polled
between steps.
"""

from __future__ import annotations

import hashlib
import logging
import time
from pathlib import Path
from typing import Any, Dict, Optional

from .jobs import Job, JobCancelled, JobPaused

__all__ = ["run_job"]

logger = logging.getLogger(__name__)

#: fixed eps of the sweep/force_eval synthetic snapshots (matches the
#: CLI's ``sweep`` hard-coded softening)
_EPS_SYNTH = 0.01


def _poll_flags(job: Job, sim, ckpt: Optional[Path]) -> None:
    """Between-step control point: honour cancel/pause requests."""
    if job.cancel_event.is_set():
        raise JobCancelled(job.id)
    if job.pause_event.is_set():
        if ckpt is not None:
            from ..sim.checkpoint import save_checkpoint
            save_checkpoint(ckpt, sim, rotate=True)
        raise JobPaused(job.id)


def _run_run(job: Job, lease, *, tracer, metrics) -> Dict[str, Any]:
    """Kind ``run``: the scaled paper experiment, shared recipe with
    ``repro run``, checkpoint-backed restart/recovery."""
    from ..cosmo import SCDM
    from ..sim import Simulation
    from ..sim.checkpoint import (CheckpointCorrupt, last_good_entries,
                                  load_latest, save_checkpoint)
    from ..sim.diagnostics import interaction_totals
    from ..sim.recipes import (build_force, carve_run_region,
                               run_schedule, state_digest)

    spec, p = job.spec, job.spec.params
    force, gb = build_force(
        theta=p["theta"], ncrit=p["ncrit"], backend=p["backend"],
        system=(lease.system if p["backend"] == "grape"
                else None),
        workers=spec.workers, faults=spec.faults or None,
        flight=job.flight,
        tracer=tracer, metrics=metrics, max_retries=spec.max_retries)

    ckpt = (Path(job.workdir) / "checkpoint.npz" if job.workdir
            else None)
    sim = None
    has_ckpt = ckpt is not None and (
        ckpt.exists()
        or ckpt.with_name(ckpt.name + ".last_good").exists())
    if has_ckpt:
        try:
            sim = load_latest(ckpt, force=force)
            sim.tracer, sim.metrics = tracer, metrics
            gens = last_good_entries(ckpt)
            job.add_event("resumed", steps_done=len(sim.history),
                          attempt=job.attempt,
                          generation=(gens[0].get("sha256", "")[:12]
                                      if gens else None))
            logger.info("job %s: resumed from %s at step %d "
                        "(attempt %d)", job.id, ckpt,
                        len(sim.history), job.attempt)
        except (FileNotFoundError, CheckpointCorrupt):
            sim = None
    if sim is None:
        region = carve_run_region(ngrid=p["ngrid"], seed=p["seed"],
                                  z_init=p["z_init"])
        sim = Simulation.from_sphere(region, force=force,
                                     tracer=tracer, metrics=metrics)
        sim.t = SCDM.age(p["z_init"])
    sim.flight = job.flight

    dts = run_schedule(z_init=p["z_init"], z_final=p["z_final"],
                       steps=p["steps"])
    job.steps_total = len(dts)
    job.steps_done = len(sim.history)
    remaining = dts[len(sim.history):]

    def _progress(s, rec):
        job.steps_done = len(s.history)
        job.add_event("step", step=rec.step, t=rec.t,
                      wall=rec.wall_seconds,
                      mean_list=rec.mean_list_length)
        _poll_flags(job, s, ckpt)

    try:
        if remaining:
            sim.run(remaining, callback=_progress,
                    checkpoint_path=ckpt,
                    checkpoint_every=spec.checkpoint_every,
                    resume_on_fault=ckpt is not None
                    and spec.checkpoint_every > 0,
                    max_recoveries=spec.max_recoveries,
                    fault_injector=force.engine.fault_injector)
        job.recoveries += sim.fault_recoveries
    finally:
        sim.close()
    if ckpt is not None:
        c0 = time.perf_counter()
        save_checkpoint(ckpt, sim, rotate=True)
        from ..obs import as_tracer
        as_tracer(tracer).record("serve.checkpoint",
                                 time.perf_counter() - c0,
                                 job=job.id, final=True)
    d = interaction_totals(sim)
    return {
        "digest": state_digest(sim.pos, sim.vel, sim.t),
        "n_particles": sim.n_particles,
        "steps": int(d["steps"]),
        "interactions": float(d["interactions"]),
        "mean_list_length": float(d["mean_list_length"]),
        "t_final": float(sim.t),
        "fault_recoveries": int(sim.fault_recoveries),
    }


def _run_sweep(job: Job, lease, *, tracer, metrics) -> Dict[str, Any]:
    """Kind ``sweep``: the section-3 group-size sweep (as ``repro
    sweep``), on the leased accelerator."""
    import numpy as np
    from ..sim.models import plummer_model
    from ..sim.recipes import build_force

    spec, p = job.spec, job.spec.params
    rng = np.random.default_rng(p["seed"])
    pos, _, mass = plummer_model(p["n"], rng)
    rows = []
    # one solver (one engine) for the whole sweep; n_g is its knob
    tc, _ = build_force(theta=p["theta"], ncrit=64, system=lease.system,
                        workers=spec.workers, tracer=tracer,
                        metrics=metrics, max_retries=spec.max_retries)
    try:
        for ncrit in (64, 256, 1024, 4096):
            _poll_flags(job, None, None)
            tc.n_crit = ncrit
            tc.accelerations(pos, mass, _EPS_SYNTH)
            s = tc.last_stats
            rows.append({"n_crit": ncrit,
                         "n_g": round(s.mean_group_size, 1),
                         "mean_list": round(s.interactions_per_particle),
                         "interactions": int(s.total_interactions)})
            job.steps_done += 1
            job.add_event("sweep_point", n_crit=ncrit)
    finally:
        tc.close()
    return {"rows": rows, "n": p["n"]}


def _run_force_eval(job: Job, lease, *, tracer,
                    metrics) -> Dict[str, Any]:
    """Kind ``force_eval``: one treecode force sweep over a Plummer
    snapshot; the digest makes repeated evaluations comparable."""
    import numpy as np
    from ..sim.models import plummer_model
    from ..sim.recipes import build_force

    spec, p = job.spec, job.spec.params
    rng = np.random.default_rng(p["seed"])
    pos, _, mass = plummer_model(p["n"], rng)
    tc, _ = build_force(theta=p["theta"], ncrit=p["ncrit"],
                        system=lease.system, workers=spec.workers,
                        tracer=tracer, metrics=metrics,
                        max_retries=spec.max_retries)
    try:
        acc, pot = tc.accelerations(pos, mass, p["eps"])
    finally:
        tc.close()
    s = tc.last_stats
    job.steps_done = job.steps_total = 1
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(acc, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(pot, dtype=np.float64).tobytes())
    return {
        "digest": h.hexdigest(),
        "n": p["n"],
        "interactions": int(s.total_interactions),
        "mean_list_length": float(s.interactions_per_particle),
    }


_KIND_RUNNERS = {"run": _run_run, "sweep": _run_sweep,
                 "force_eval": _run_force_eval}


def run_job(job: Job, lease, *, tracer=None,
            metrics=None) -> Dict[str, Any]:
    """Execute ``job`` inside ``lease`` and return its result document.

    Called on the scheduler's worker thread, which holds the lease
    for the whole call.  Raises :class:`JobCancelled` /
    :class:`JobPaused` when the corresponding flag is observed, and
    lets simulation errors propagate for the scheduler to record.
    The whole execution runs inside an *open* ``serve.job`` span (job
    id, kind, lease, outcome), so every span the simulation stack
    produces -- steps, evaluations, stitched worker batches -- nests
    under it in the job's trace.
    """
    from ..obs import NULL_TRACER
    tr = tracer if tracer is not None else NULL_TRACER
    t0 = time.perf_counter()
    outcome = "done"
    sp = tr.span("serve.job", job=job.id, kind=job.spec.kind,
                 lease=lease.id)
    try:
        with sp:
            result = _KIND_RUNNERS[job.spec.kind](job, lease,
                                                  tracer=tr,
                                                  metrics=metrics)
            result["lease"] = lease.id
            return result
    except JobCancelled:
        outcome = "cancelled"
        raise
    except JobPaused:
        outcome = "paused"
        raise
    except Exception:
        outcome = "failed"
        raise
    finally:
        sp.set(outcome=outcome)
        if metrics is not None:
            metrics.histogram(
                "serve.job_seconds",
                "wall seconds per executed job attempt"
                ).observe(time.perf_counter() - t0)
