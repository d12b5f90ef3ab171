"""Job execution: one slot, one solver, one result.

The runner is the service-side adapter over :mod:`repro.sim.recipes`
(``repro.cli`` is the terminal-side one): it turns a
:class:`~repro.serve.jobs.Job` into the recipes' plain parameters plus
a progress-event / cancel-pause-poll callback.  It executes on the
scheduler's slot thread.

:func:`run_job` builds every kind's solver at ONE
:func:`~repro.sim.recipes.build_force` call.  Where the kind computes
on the GRAPE, the job gets a fresh
:class:`~repro.grape.system.Grape5System` of ``boards`` boards that it
alone owns, as the paper's host owns its board set for the whole run:
two concurrent jobs never share a device, and each system is built the
same way, so served runs stay bit-identical to ``repro run``.  A
``sweep`` returns counts, equal on any arithmetic, and computes on the
host backend.  Every kind gets the job's own
:class:`~repro.exec.PipelineEngine` (``workers`` threads in this
process, started by the first sweep and joined when the solver
closes), its fault plan, retry budget and flight recorder.  A plan is
therefore scoped to its job, fires on every kind, and every retry
decision lands in the job's black box.

Bit-identity
------------
A ``run`` job is :func:`repro.sim.recipes.paper_run` -- the body
``repro run`` executes -- and its result carries ``state_digest(pos,
vel, t)``.  Served and interactive runs of the same parameters
therefore produce equal digests; the acceptance tests check exactly
that.

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


def _poll_flags(job: Job, sim, ckpt: Optional[Path]) -> None:
    """Between-step control point: honour cancel/pause requests."""
    if job.cancel_event.is_set():
        raise JobCancelled(job.id)
    if job.pause_event.is_set():
        if ckpt is not None:
            from ..sim.checkpoint import save_checkpoint
            save_checkpoint(ckpt, sim, rotate=True)
        raise JobPaused(job.id)


def _run_run(job: Job, force) -> Dict[str, Any]:
    """Kind ``run``: :func:`repro.sim.recipes.paper_run` on the job's
    original schedule, continued from the workdir's newest intact
    checkpoint generation when there is one."""
    from ..sim.checkpoint import (CheckpointCorrupt, last_good_entries,
                                  load_latest, save_checkpoint)
    from ..sim.recipes import new_simulation, paper_run, run_schedule

    spec, p = job.spec, job.spec.params
    ckpt = (Path(job.workdir) / "checkpoint.npz" if job.workdir
            else None)
    sim = None
    has_ckpt = ckpt is not None and (
        ckpt.exists()
        or ckpt.with_name(ckpt.name + ".last_good").exists())
    if has_ckpt:
        try:
            sim = load_latest(ckpt, force=force)
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
        sim = new_simulation(force, ngrid=p["ngrid"], seed=p["seed"],
                             z_init=p["z_init"])
    dts = run_schedule(z_init=p["z_init"], z_final=p["z_final"],
                       steps=p["steps"])
    job.steps_total = len(dts)
    job.steps_done = len(sim.history)

    def _progress(s, rec):
        job.steps_done = len(s.history)
        job.add_event("step", step=rec.step, t=rec.t,
                      wall=rec.wall_seconds,
                      mean_list=rec.mean_list_length)
        _poll_flags(job, s, ckpt)

    result = paper_run(
        sim, dts[len(sim.history):], flight=job.flight,
        on_step=_progress, checkpoint_path=ckpt,
        checkpoint_every=spec.checkpoint_every,
        resume_on_fault=ckpt is not None and spec.checkpoint_every > 0,
        max_recoveries=spec.max_recoveries)
    job.recoveries += result["fault_recoveries"]
    if ckpt is not None:
        c0 = time.perf_counter()
        save_checkpoint(ckpt, sim, rotate=True)
        force.tracer.record("serve.checkpoint",
                            time.perf_counter() - c0, job=job.id,
                            final=True)
    return result


def _run_sweep(job: Job, force) -> Dict[str, Any]:
    """Kind ``sweep``: :func:`repro.sim.recipes.ng_sweep`, polled
    between points."""
    from ..sim.recipes import ng_sweep

    def _point(row):
        job.steps_done += 1
        job.add_event("sweep_point", n_crit=row["n_crit"])
        _poll_flags(job, None, None)

    p = job.spec.params
    return {"rows": ng_sweep(force, n=p["n"], seed=p["seed"],
                             on_point=_point), "n": p["n"]}


def _run_force_eval(job: Job, force) -> Dict[str, Any]:
    """Kind ``force_eval``: one treecode force sweep over a Plummer
    snapshot; the digest makes repeated evaluations comparable."""
    import numpy as np
    from ..sim.models import plummer_model

    p = job.spec.params
    rng = np.random.default_rng(p["seed"])
    pos, _, mass = plummer_model(p["n"], rng)
    try:
        acc, pot = force.accelerations(pos, mass, p["eps"])
    finally:
        force.close()
    s = force.last_stats
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


def run_job(job: Job, *, boards: int, slot: str, tracer=None,
            metrics=None) -> Dict[str, Any]:
    """Execute ``job`` on a GRAPE of ``boards`` boards built for it and
    return its result document.

    Called on the scheduler's slot thread labelled ``slot``, which is
    the result's and the span's ``lease``.  Raises
    :class:`JobCancelled` / :class:`JobPaused` when the corresponding
    flag is observed, and lets simulation errors propagate for the
    scheduler to record.  The whole execution runs inside an *open*
    ``serve.job`` span (job id, kind, lease, outcome), so every span
    the simulation stack produces -- steps, evaluations, stitched
    worker batches -- nests under it in the job's trace.
    """
    from ..grape import Grape5System, GrapeTimingModel
    from ..obs import NULL_TRACER
    from ..sim.recipes import build_force
    tr = tracer if tracer is not None else NULL_TRACER
    t0 = time.perf_counter()
    outcome = "done"
    spec, p = job.spec, job.spec.params
    sp = tr.span("serve.job", job=job.id, kind=spec.kind, lease=slot)
    try:
        with sp:
            # a sweep's rows are counts: host arithmetic gives the same
            # (and it sets its own n_crit per point)
            backend = ("host" if spec.kind == "sweep"
                       else p.get("backend", "grape"))
            force, _ = build_force(
                theta=p["theta"], ncrit=p.get("ncrit", 64),
                backend=backend,
                system=(Grape5System(
                    timing=GrapeTimingModel(n_boards=boards))
                    if backend == "grape" else None),
                workers=spec.workers, faults=spec.faults or None,
                flight=job.flight, tracer=tr, metrics=metrics,
                max_retries=spec.max_retries)
            result = _KIND_RUNNERS[spec.kind](job, force)
            result["lease"] = slot
            return result
    except Exception as e:
        outcome = ("cancelled" if isinstance(e, JobCancelled) else
                   "paused" if isinstance(e, JobPaused) else "failed")
        raise
    finally:
        sp.set(outcome=outcome)
        if metrics is not None:
            metrics.histogram(
                "serve.job_seconds",
                "wall seconds per executed job attempt"
                ).observe(time.perf_counter() - t0)
