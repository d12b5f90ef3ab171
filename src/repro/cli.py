"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``info``
    Print the emulated GRAPE-5 configuration and the section-4 price
    ledger.
``run``
    A scaled version of the paper's experiment: generate SCDM initial
    conditions, carve the sphere, evolve with the (optionally
    GRAPE-backed) treecode, and report performance statistics.
    Supports checkpointing (``--checkpoint``) and figure-4 output
    (``--figure4 out.pgm``).
``resume``
    Continue a checkpointed run for more steps.
``sweep``
    The section-3 group-size sweep on a quick synthetic snapshot.
``halos``
    Friends-of-friends halo catalogue of a checkpointed state, with
    the Press--Schechter reference counts.
``serve``
    The multi-tenant simulation service (``repro.serve``): an HTTP
    job API in front of a priority/fair-share scheduler leasing
    emulated GRAPEs to concurrent jobs.  See docs/service.md.
``submit`` / ``jobs``
    Client verbs against a running service: submit a job (optionally
    polling it to completion) and list/inspect/cancel jobs;
    ``jobs --follow <id>`` renders the live NDJSON progress stream,
    ``jobs --job-trace <id>`` fetches the job's span tree.
``store``
    The durable job store as its own process and as an artifact:
    ``store serve`` exposes a SQLite store over the versioned
    ``repro.fleet-rpc/v1`` network protocol so workers on other hosts
    share it via ``serve --store http://host:port``, and ``store
    verify PATH|URL`` runs the integrity sweep (SQLite quick_check,
    per-row SHA-256) against a store file or a running store server.
    See docs/fleet.md.
``fleet``
    Fleet operations against a running worker: ``fleet status`` shows
    the membership document, ``fleet workers`` tabulates the worker
    registry (liveness, capabilities), and ``fleet drain`` asks one
    worker to checkpoint + re-queue its jobs and deregister.
``obs``
    Offline trace analysis: ``obs tree`` renders a recorded trace as
    an indented span tree, ``obs critical-path`` partitions the wall
    clock into host/worker/GRAPE resource buckets (summing exactly to
    the traced interval) plus the dominant span chain, and ``obs
    diff`` compares two traces phase by phase.  Inputs are ``--trace``
    JSONL files or saved ``GET /jobs/{id}/trace`` documents.  See
    docs/observability.md.

All subcommands are deterministic for a fixed ``--seed``.
``run``/``resume``/``sweep`` are adapters over the one body per job
kind in :mod:`repro.sim.recipes` (argv in, a print callback out), as
:mod:`repro.serve.runner` is for served jobs; this module imports
``repro.serve`` only inside the service verbs.

Exit codes: 0 success, 1 runtime failure (e.g. a failed job), 2 usage
error (bad arguments, missing files, malformed documents --
consistent across every subcommand), 3 a submission rejected by
service backpressure, or a store whose integrity sweep reported
findings (``store verify``).

Parallel execution (``run``/``resume``/``sweep``): every force sweep
is cut into sink shards and evaluated on a pool of threads (size
``--workers``, default all cores) that overlaps tree traversal with
force evaluation (docs/parallel_engine.md).  Every shard goes through
the backend's ``eval_lists`` (docs/kernels.md) and the results are
bit-identical at any ``--workers``.

Observability (``run``/``resume``/``sweep``): ``--profile`` prints the
section-5-style per-phase wall-time table at the end, ``--trace
out.jsonl`` writes the span tree as JSON lines (each shard's
``exec.batch`` span, timed on its pool thread, is stitched in under
the submitting ``eval`` span),
``--metrics out.prom`` writes a Prometheus text exposition of the run
counters, ``--flightrec out.jsonl`` attaches the black-box flight
recorder and dumps its ring at the end, and ``run --json-summary
out.json`` emits the ``repro.run_summary/v1`` document.
``-v``/``-vv`` (before the subcommand) turns on INFO/DEBUG logging of
the ``repro`` logger hierarchy.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of the SC'99 GRAPE-5 treecode "
                     "Gordon Bell entry"))
    p.add_argument("-v", "--verbose", action="count", default=0,
                   help="log to stderr (-v: INFO, -vv: DEBUG)")
    sub = p.add_subparsers(dest="command", required=True)

    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument("--profile", action="store_true",
                     help="print the per-phase wall-time table")
    obs.add_argument("--trace", type=Path, default=None,
                     metavar="JSONL", help="write span events here")
    obs.add_argument("--metrics", type=Path, default=None,
                     metavar="PROM",
                     help="write Prometheus-format metrics here")
    obs.add_argument("--flightrec", type=Path, default=None,
                     metavar="JSONL",
                     help="attach a flight recorder (bounded ring of "
                          "recent fault/recovery events) and dump it "
                          "here at the end of the run")
    obs.add_argument("--workers", type=int, default=None, metavar="N",
                     help="pool threads evaluating each force sweep's "
                          "sink shards (default: all cores); results "
                          "are bit-identical at any N")
    obs.add_argument("--hosts", type=int, default=None, metavar="K",
                     help="emulate a K-host PC-GRAPE cluster (domain-"
                          "decomposed sinks, locally-essential-tree "
                          "exchange accounting; default: single host). "
                          "Forces are bit-identical to the plain path "
                          "at any K")
    obs.add_argument("--boards", type=int, default=None, metavar="B",
                     help="GRAPE-5 boards per emulated host (default: "
                          "2, the paper machine)")
    obs.add_argument("--faults", type=str, default=None, metavar="PLAN",
                     help="deterministic fault plan: a JSON file, a "
                          "JSON string, or the compact DSL (e.g. "
                          "'transient_error@batch=1;latency@prob=0.1,"
                          "count=5') -- chaos testing only")
    obs.add_argument("--max-retries", type=int, default=2, metavar="K",
                     help="shard re-runs (engine) and force-"
                          "call re-issues (backend) before giving up "
                          "(default: 2)")

    sub.add_parser("info", help="machine configuration + price ledger")

    r = sub.add_parser("run", help="scaled paper run", parents=[obs])
    r.add_argument("--ngrid", type=int, default=16,
                   help="IC mesh per dimension (particles ~ pi/6 n^3)")
    r.add_argument("--steps", type=int, default=20)
    r.add_argument("--z-init", type=float, default=24.0)
    r.add_argument("--z-final", type=float, default=0.0)
    r.add_argument("--theta", type=float, default=0.75)
    r.add_argument("--ncrit", type=int, default=256)
    r.add_argument("--seed", type=int, default=1999)
    r.add_argument("--backend", choices=("grape", "host"),
                   default="grape")
    r.add_argument("--checkpoint", type=Path, default=None,
                   help="write a checkpoint here when done")
    r.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N",
                   help="also write a rotated checkpoint generation "
                        "every N steps (0 = off)")
    r.add_argument("--resume-on-fault", action="store_true",
                   help="on a recoverable failure, roll back to the "
                        "newest intact checkpoint generation and "
                        "replay (needs --checkpoint and "
                        "--checkpoint-every)")
    r.add_argument("--figure4", type=Path, default=None,
                   help="write the 45x45x2.5 slab as a PGM here")
    r.add_argument("--json-summary", type=Path, default=None,
                   metavar="JSON",
                   help="write the machine-readable run summary here")

    c = sub.add_parser("resume", help="continue a checkpointed run",
                       parents=[obs])
    c.add_argument("checkpoint", type=Path)
    c.add_argument("--steps", type=int, default=20)
    c.add_argument("--z-final", type=float, default=0.0)
    c.add_argument("--backend", choices=("grape", "host"),
                   default="grape")
    c.add_argument("--theta", type=float, default=0.75)
    c.add_argument("--ncrit", type=int, default=256)
    c.add_argument("--checkpoint-out", type=Path, default=None)

    s = sub.add_parser("sweep", help="group-size (n_g) sweep",
                       parents=[obs])
    s.add_argument("--n", type=int, default=8192)
    s.add_argument("--theta", type=float, default=0.75)
    s.add_argument("--seed", type=int, default=3)

    h = sub.add_parser("halos", help="FoF halo catalogue of a checkpoint")
    h.add_argument("checkpoint", type=Path)
    h.add_argument("--b", type=float, default=0.2,
                   help="linking length in mean-separation units")
    h.add_argument("--min-members", type=int, default=10)

    endpoint = argparse.ArgumentParser(add_help=False)
    endpoint.add_argument("--host", default="127.0.0.1",
                          help="service address (default: 127.0.0.1)")
    endpoint.add_argument("--port", type=int, default=8014,
                          help="service port (default: 8014)")

    v = sub.add_parser("serve", parents=[endpoint],
                       help="run the multi-tenant simulation service")
    v.add_argument("--slots", type=int, default=2, metavar="N",
                   help="concurrent jobs (default: 2)")
    v.add_argument("--boards", type=int, default=2, metavar="B",
                   help="GRAPE-5 boards of the system each computed "
                        "job builds for itself "
                        "(default: 2, the paper machine)")
    v.add_argument("--queue-depth", type=int, default=16, metavar="N",
                   help="admission-control bound on queued jobs; "
                        "past it submissions get 429 (default: 16)")
    v.add_argument("--workdir", type=Path, default=None,
                   help="per-job checkpoint/workdir root "
                        "(default: a temporary directory)")
    v.add_argument("--store", default=None, metavar="DB|URL",
                   help="durable job store: a SQLite path several "
                        "servers may share, or the http://host:port "
                        "of a 'repro store serve' fleet store shared "
                        "across hosts; a restarted server resumes "
                        "its jobs from it (default: in-memory)")
    v.add_argument("--cache-budget", type=int, default=None,
                   metavar="BYTES",
                   help="byte bound on the store's result cache "
                        "(LRU eviction; default: unbounded; ignored "
                        "for http:// stores -- the store server owns "
                        "that policy)")
    v.add_argument("--worker-id", default=None, metavar="ID",
                   help="claim identity in the shared store "
                        "(default: host:port, stable across "
                        "restarts)")
    v.add_argument("--claim-ttl", type=float, default=30.0,
                   metavar="S",
                   help="claim lease seconds before another worker "
                        "may take over (default: 30)")
    v.add_argument("--no-cache", action="store_true",
                   help="disable the content-addressed result cache")
    v.add_argument("--max-active", type=int, default=None, metavar="N",
                   help="per-tenant ceiling on active jobs "
                        "(default: unlimited)")
    v.add_argument("--rate", type=float, default=None, metavar="R",
                   help="per-tenant sustained submissions/second "
                        "(default: unlimited)")
    v.add_argument("--burst", type=int, default=4, metavar="N",
                   help="token-bucket depth for --rate (default: 4)")

    u = sub.add_parser("submit", parents=[endpoint],
                       help="submit a job to a running service")
    u.add_argument("--kind", choices=("run", "sweep", "force_eval"),
                   default="run")
    u.add_argument("-p", "--param", action="append", default=[],
                   metavar="K=V",
                   help="workload parameter (repeatable), e.g. "
                        "-p ngrid=12 -p steps=6")
    u.add_argument("--spec", type=Path, default=None, metavar="JSON",
                   help="full repro.job/v1 document (overrides the "
                        "other spec flags)")
    u.add_argument("--priority", type=int, default=0)
    u.add_argument("--tenant", default="default")
    u.add_argument("--workers", type=int, default=None, metavar="N")
    u.add_argument("--checkpoint-every", type=int, default=0,
                   metavar="N")
    u.add_argument("--max-recoveries", type=int, default=3,
                   metavar="K")
    u.add_argument("--faults", default=None, metavar="PLAN")
    u.add_argument("--wait", action="store_true",
                   help="poll the job to completion; nonzero exit if "
                        "it does not finish 'done'")
    u.add_argument("--timeout", type=float, default=300.0,
                   metavar="S", help="--wait deadline (default: 300)")

    st = sub.add_parser("store",
                        help="job-store operations: serve one over "
                             "the network, verify integrity")
    stsub = st.add_subparsers(dest="store_command", required=True)

    ss = stsub.add_parser("serve",
                          help="expose a SQLite job store over the "
                               "repro.fleet-rpc/v1 network protocol")
    ss.add_argument("--store", type=Path, required=True, metavar="DB",
                    help="SQLite store file to serve (created if "
                         "missing)")
    ss.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    ss.add_argument("--port", type=int, default=8024,
                    help="listening port (default: 8024)")
    ss.add_argument("--cache-budget", type=int, default=None,
                    metavar="BYTES",
                    help="byte bound on the shared result cache "
                         "(LRU eviction; default: unbounded)")

    sv = stsub.add_parser("verify",
                          help="integrity sweep of a store file or a "
                               "running store server (exit 3 on "
                               "findings)")
    sv.add_argument("store", metavar="PATH|URL",
                    help="SQLite store path, or http://host:port of "
                         "a store server")

    f = sub.add_parser("fleet",
                       help="fleet operations against a running "
                            "worker: status/workers/drain")
    fsub = f.add_subparsers(dest="fleet_command", required=True)
    fs = fsub.add_parser("status", parents=[endpoint],
                         help="the worker's repro.fleet/v1 membership "
                              "document (live/draining counts, store "
                              "identity, cache)")
    fs.add_argument("--json", action="store_true",
                    help="print the raw document instead of the "
                         "summary")
    fsub.add_parser("workers", parents=[endpoint],
                    help="tabulate the worker registry (liveness, "
                         "state, capabilities)")
    fsub.add_parser("drain", parents=[endpoint],
                    help="drain the worker at --host/--port: stop "
                         "claiming, checkpoint + re-queue owned "
                         "jobs, deregister")

    j = sub.add_parser("jobs", parents=[endpoint],
                       help="list jobs on a running service, or "
                            "inspect/cancel/follow one")
    j.add_argument("job_id", nargs="?", default=None)
    j.add_argument("--cancel", action="store_true",
                   help="cancel the given job")
    j.add_argument("--follow", action="store_true",
                   help="stream the job's NDJSON progress events "
                        "live until it reaches a resting state")
    j.add_argument("--job-trace", action="store_true",
                   help="print the job's repro.trace/v1 span "
                        "document (pipe to a file for 'repro obs')")

    o = sub.add_parser("obs",
                       help="trace analysis: tree/critical-path/diff")
    osub = o.add_subparsers(dest="obs_command", required=True)

    ot = osub.add_parser("tree",
                         help="render a trace as an indented span "
                              "tree")
    ot.add_argument("trace_file", type=Path,
                    help="--trace JSONL file, or a saved "
                         "/jobs/{id}/trace document")
    ot.add_argument("--depth", type=int, default=None, metavar="D",
                    help="prune spans nested deeper than D")
    ot.add_argument("--min-ms", type=float, default=0.0, metavar="MS",
                    help="hide spans shorter than MS milliseconds")

    oc = osub.add_parser("critical-path",
                         help="host/worker/GRAPE wall-time "
                              "attribution + dominant span chain")
    oc.add_argument("trace_file", type=Path)

    od = osub.add_parser("diff",
                         help="per-phase wall-time comparison of two "
                              "traces")
    od.add_argument("trace_a", type=Path)
    od.add_argument("trace_b", type=Path)
    return p


def _cluster_spec(args):
    """The ``--hosts``/``--boards`` flags as a ClusterSpec (or None
    when neither is given -- the plain single-host path)."""
    hosts = getattr(args, "hosts", None)
    boards = getattr(args, "boards", None)
    if hosts is None and boards is None:
        return None
    from repro.cluster import ClusterSpec
    return ClusterSpec(hosts=hosts if hosts is not None else 1,
                       boards=boards if boards is not None else 2)


def _open(args, *, ncrit=None, backend=None):
    """``(tracer, registry, flight, treecode, grape_backend_or_None)``
    for one ``run``/``resume``/``sweep`` invocation.

    A real tracer is created only when span data will be consumed
    (--trace/--profile); otherwise the shared no-op tracer keeps the
    instrumented hot paths at seed-level cost.  The registry is always
    created -- counters are cheap and feed the report/summary paths.
    The flight recorder (``--flightrec``, else None) rides into the
    engine and the force-layer fault injector so it captures fault and
    recovery events from every layer.  The solver comes from
    :func:`repro.sim.recipes.build_force`, where ``repro.serve`` jobs
    build theirs; ``ncrit``/``backend`` stand in for the flags
    ``sweep`` does not have.
    """
    from repro.obs import (FlightRecorder, MetricsRegistry, NULL_TRACER,
                           Tracer)
    from repro.sim.recipes import build_force
    tracer = Tracer() if args.trace or args.profile else NULL_TRACER
    registry = MetricsRegistry()
    flight = (FlightRecorder(path=args.flightrec)
              if args.flightrec is not None else None)
    force, gb = build_force(
        theta=args.theta, ncrit=ncrit or args.ncrit,
        backend=backend or args.backend, workers=args.workers,
        faults=args.faults or None, flight=flight, tracer=tracer,
        metrics=registry, max_retries=args.max_retries,
        cluster=_cluster_spec(args))
    return tracer, registry, flight, force, gb


def _emit_obs(args, tracer, registry, out, *, extra=None,
              flight=None) -> None:
    """Write/print whatever observability outputs were requested."""
    from repro.obs.export import (format_phase_table, write_jsonl,
                                  write_json_summary, write_prometheus)
    if getattr(args, "profile", False):
        print("\nper-phase wall time:", file=out)
        print(format_phase_table(tracer), file=out)
        model_s = registry.value("grape.model_seconds")
        if model_s:
            print(f"GRAPE modelled force time: {model_s:.3f} s "
                  f"({int(registry.value('grape.force_calls'))} calls)",
                  file=out)
    if getattr(args, "trace", None):
        meta = {"command": args.command, **(extra or {})}
        n = write_jsonl(args.trace, tracer, metrics=registry, meta=meta)
        print(f"trace written to {args.trace} ({n} events)", file=out)
    if getattr(args, "metrics", None):
        write_prometheus(args.metrics, registry)
        print(f"metrics written to {args.metrics}", file=out)
    if getattr(args, "json_summary", None):
        write_json_summary(args.json_summary, registry, tracer=tracer,
                           extra=extra)
        print(f"run summary written to {args.json_summary}", file=out)
    if flight is not None and flight.path is not None:
        n = flight.flush()
        print(f"flight recorder dumped to {flight.path} "
              f"({n} events)", file=out)


def _step_line(step, mean_list: float, wall: float) -> str:
    """One step of progress, as ``run`` and ``jobs --follow`` print it."""
    return f"  step {step}: list = {mean_list:.0f}, {wall:.2f} s"


def _report_run(sim, result, backend, out) -> None:
    from repro.perf.report import format_table
    rows = [{
        "N": result["n_particles"],
        "steps": result["steps"],
        "interactions": f"{result['interactions']:.4g}",
        "mean list": round(result["mean_list_length"], 1),
        "host wall [s]": round(sum(r.wall_seconds
                                   for r in sim.history), 1),
        "GRAPE model [s]": (round(backend.model_seconds, 2)
                            if backend else "-"),
    }]
    print(format_table(rows), file=out)


def cmd_info(args, out) -> int:
    from repro.grape import Grape5System
    from repro.host.cost import PAPER_SYSTEM_COST
    from repro.perf.report import format_table
    s = Grape5System()
    print("GRAPE-5 system (emulated):", file=out)
    for k, v in s.describe().items():
        print(f"  {k}: {v}", file=out)
    print("\nprice ledger (paper section 4):", file=out)
    print(format_table(PAPER_SYSTEM_COST.ledger()), file=out)
    print(f"\ntotal: ${PAPER_SYSTEM_COST.total_usd:,.0f} "
          f"@ {PAPER_SYSTEM_COST.jpy_per_usd:.0f} JPY/USD", file=out)
    return 0


def cmd_run(args, out) -> int:
    from repro.sim import slab
    from repro.sim.checkpoint import save_checkpoint
    from repro.sim.recipes import new_simulation, paper_run, run_schedule
    from repro.viz import surface_density, write_pgm

    tracer, registry, flight, force, backend = _open(args)
    sim = new_simulation(force, ngrid=args.ngrid, seed=args.seed,
                         z_init=args.z_init)
    print(f"N = {sim.n_particles} particles of "
          f"{sim.mass[0]:.3g} M_sun", file=out)
    logger.info("run: N=%d ngrid=%d steps=%d backend=%s",
                sim.n_particles, args.ngrid, args.steps, args.backend)
    every = max(1, args.steps // 5)

    def _progress(s, rec):
        if rec.step % every == 0:
            print(_step_line(rec.step, rec.mean_list_length,
                             rec.wall_seconds), file=out)

    sched = run_schedule(z_init=args.z_init, z_final=args.z_final,
                         steps=args.steps)
    result = paper_run(sim, sched, flight=flight, on_step=_progress,
                       checkpoint_path=args.checkpoint,
                       checkpoint_every=args.checkpoint_every,
                       resume_on_fault=args.resume_on_fault)
    if result["fault_recoveries"]:
        print(f"  recovered from {result['fault_recoveries']} fault(s) "
              "via checkpoint rollback", file=out)
    _report_run(sim, result, backend, out)
    extra = {"backend": args.backend, "theta": args.theta,
             "n_crit": args.ncrit, "seed": args.seed}
    if _cluster_spec(args) is not None:
        extra["cluster"] = backend.summary()
    _emit_obs(args, tracer, registry, out, extra=extra, flight=flight)

    if args.figure4 is not None:
        xy = slab(sim.pos, width=45.0, thickness=2.5,
                  center=sim.center_of_mass())
        write_pgm(args.figure4, surface_density(xy, width=45.0,
                                                bins=128))
        print(f"figure-4 slab written to {args.figure4}", file=out)
    if args.checkpoint is not None:
        save_checkpoint(args.checkpoint, sim)
        print(f"checkpoint written to {args.checkpoint}", file=out)
    return 0


def cmd_resume(args, out) -> int:
    from repro.cosmo import SCDM
    from repro.sim.checkpoint import load_latest, save_checkpoint
    from repro.sim.recipes import paper_run, run_schedule

    tracer, registry, flight, force, backend = _open(args)
    sim = load_latest(args.checkpoint, force=force)
    z_now = float(SCDM.z_of_a(SCDM.a_of_t(sim.t)))
    print(f"resumed at t = {sim.t:.3g} (z = {z_now:.2f}), "
          f"{len(sim.history)} steps done", file=out)
    logger.info("resume: N=%d from t=%.4g (z=%.2f)", sim.n_particles,
                sim.t, z_now)
    if z_now <= args.z_final + 1e-9:
        print("already past requested redshift; nothing to do",
              file=out)
        sim.close()
        return 0
    sched = run_schedule(z_init=z_now, z_final=args.z_final,
                         steps=args.steps)
    result = paper_run(sim, sched, flight=flight)
    _report_run(sim, result, backend, out)
    _emit_obs(args, tracer, registry, out, flight=flight)
    if args.checkpoint_out is not None:
        save_checkpoint(args.checkpoint_out, sim)
        print(f"checkpoint written to {args.checkpoint_out}", file=out)
    return 0


def cmd_sweep(args, out) -> int:
    from repro.perf.report import format_table
    from repro.sim.recipes import ng_sweep

    # counts do not depend on the arithmetic, so the host backend
    # unless --hosts
    tracer, registry, flight, tc, _ = _open(
        args, ncrit=64,
        backend="host" if _cluster_spec(args) is None else "grape")
    rows = ng_sweep(tc, n=args.n, seed=args.seed)
    print(format_table([{("mean list" if k == "mean_list" else k): v
                         for k, v in r.items()} for r in rows]),
          file=out)
    _emit_obs(args, tracer, registry, out, flight=flight)
    return 0


def cmd_halos(args, out) -> int:
    from repro.analysis.fof import friends_of_friends
    from repro.core import DirectSummation
    from repro.cosmo.massfunction import PressSchechter
    from repro.perf.report import format_table
    from repro.sim.checkpoint import load_latest

    sim = load_latest(args.checkpoint, force=DirectSummation())
    cat = friends_of_friends(sim.pos, sim.mass, b=args.b,
                             min_members=args.min_members)
    print(f"N = {sim.n_particles}, linking length = {cat.link:.3g}, "
          f"halos = {cat.n_halos}", file=out)
    rows = [{"rank": i + 1, "members": int(cat.sizes[i]),
             "mass": f"{cat.masses[i]:.3g}",
             "center": np.array2string(cat.centers[i], precision=1)}
            for i in range(min(10, cat.n_halos))]
    if rows:
        print(format_table(rows), file=out)
    if cat.n_halos:
        ps = PressSchechter()
        expect = ps.number_in_sphere(
            float(cat.masses.min()), float(cat.masses.max()) * 1.5,
            50.0)
        print(f"Press-Schechter reference (50 Mpc sphere, same mass "
              f"range): ~{expect:.0f}", file=out)
    return 0


def cmd_serve(args, out) -> int:
    """Run the simulation service until SIGINT/SIGTERM (bad numbers
    raise the scheduler's ``ValueError``: exit 2).  The default worker
    id ``host:port`` is stable across restarts, so a restarted server
    reclaims its own orphaned jobs at once, not after the claim TTL."""
    import asyncio
    from repro.serve import Scheduler, Server, TenantPolicy
    from repro.serve.transport import serve_until_signal
    quota = None
    if args.max_active is not None or args.rate is not None:
        quota = TenantPolicy(max_active=args.max_active,
                             rate=args.rate, burst=args.burst)
    sched = Scheduler(
        slots=args.slots, boards=args.boards, queue_depth=args.queue_depth,
        workdir=args.workdir, store=args.store,
        worker_id=args.worker_id or f"{args.host}:{args.port}",
        claim_ttl=args.claim_ttl, quota=quota, cache=not args.no_cache,
        cache_budget=args.cache_budget)
    try:
        asyncio.run(serve_until_signal(
            Server(sched, host=args.host, port=args.port)))
    except KeyboardInterrupt:
        sched.stop()
    return 0


def cmd_store(args, out) -> int:
    """Job-store operations: ``serve`` (network store server) and
    ``verify`` (integrity sweep; findings exit 3, unusable stores
    exit 2)."""
    from repro.serve import ServeError
    from repro.serve.store import StoreError, open_store
    if args.store_command == "serve":
        from repro.fleet import run_store_server
        try:
            return run_store_server(store=args.store, host=args.host,
                                    port=args.port,
                                    cache_budget=args.cache_budget)
        except StoreError as e:
            raise ServeError(str(e)) from e
    # verify
    text = str(args.store)
    is_url = text.startswith(("http://", "https://"))
    if not is_url and not Path(text).is_file():
        raise ServeError(f"no store at {text}")
    try:
        store = open_store(text)
        try:
            findings = store.verify()
        finally:
            store.close()
    except StoreError as e:
        print(f"store verify: {text}: {e}", file=out)
        return 2
    if findings:
        for finding in findings:
            print(f"CORRUPT: {finding}", file=out)
        print(f"{text}: {len(findings)} finding(s)", file=out)
        return 3
    print(f"{text}: store verified clean", file=out)
    return 0


def cmd_fleet(args, out) -> int:
    """Fleet operations against one running worker:
    ``status``/``workers``/``drain``."""
    import json
    from repro.perf.report import format_table
    from repro.serve import ServeClient
    client = ServeClient(args.host, args.port)
    if args.fleet_command == "drain":
        doc = client.drain()
        print(f"{doc['worker']}: drained, {len(doc['owned'])} owned "
              f"job(s), {len(doc['requeued'])} re-queued", file=out)
        for jid in doc["requeued"]:
            print(f"  requeued {jid}", file=out)
        return 0
    doc = client.fleet()
    if args.fleet_command == "workers":
        rows = [{"worker": w["worker"],
                 "host": w.get("host", "-"),
                 "state": w.get("state", "?"),
                 "live": "yes" if w.get("live") else "no",
                 "slots": w.get("slots", "-"),
                 "boards": w.get("boards", "-"),
                 "pid": w.get("pid", "-")} for w in doc["workers"]]
        if not rows:
            print("no registered workers", file=out)
            return 0
        print(format_table(rows), file=out)
        return 0
    # status
    if args.json:
        print(json.dumps(doc, indent=2), file=out)
        return 0
    store = doc.get("store", {})
    cache = doc.get("cache", {})
    print(f"worker {doc['worker']} on {doc.get('host', '?')} "
          f"({'draining' if doc.get('draining') else 'up'})",
          file=out)
    print(f"store: {store.get('kind')}"
          + (f" at {store['url']}" if store.get("url") else ""),
          file=out)
    print(f"fleet: {len(doc.get('workers', []))} registered, "
          f"{doc.get('live', 0)} live, "
          f"{doc.get('draining_count', 0)} draining", file=out)
    if cache:
        budget = cache.get("budget")
        print(f"cache: {cache.get('entries', 0)} entries, "
              f"{cache.get('bytes', 0)} bytes"
              + (f" (budget {budget})" if budget else "")
              + f", {cache.get('hits', 0)} hit(s), "
              f"{cache.get('evictions', 0)} eviction(s)", file=out)
    return 0


def _submit_spec(args) -> dict:
    """The repro.job/v1 document from ``submit`` flags (or --spec)."""
    import json
    from repro.serve import JOB_SCHEMA, ServeError
    if args.spec is not None:
        try:
            return json.loads(args.spec.read_text())
        except json.JSONDecodeError as e:
            raise ServeError(f"--spec {args.spec}: {e}") from e
    params = {}
    for kv in args.param:
        key, sep, value = kv.partition("=")
        if not sep or not key:
            raise ServeError(f"--param must be K=V, got {kv!r}")
        params[key] = value
    return {"schema": JOB_SCHEMA, "kind": args.kind, "params": params,
            "priority": args.priority, "tenant": args.tenant,
            "workers": args.workers,
            "checkpoint_every": args.checkpoint_every,
            "max_recoveries": args.max_recoveries,
            "faults": args.faults}


def cmd_submit(args, out) -> int:
    """Submit one job; with ``--wait``, poll it to completion."""
    import json
    from repro.serve import Backpressure, ServeClient, ServeHTTPError
    client = ServeClient(args.host, args.port)
    try:
        doc = client.submit(_submit_spec(args))
    except Backpressure as e:
        print(f"submit: rejected by admission control ({e.message}); "
              f"retry after {e.retry_after:.0f}s", file=out)
        return 3
    except ServeHTTPError as e:
        if e.status != 400:
            raise
        print(f"submit: {e}", file=out)  # the job document is malformed
        return 2
    print(f"submitted {doc['id']} ({doc['kind']}, "
          f"tenant {doc['tenant']})", file=out)
    if not args.wait:
        return 0
    final = client.wait(doc["id"], timeout=args.timeout)
    print(f"{final['id']}: {final['state']}", file=out)
    if final.get("result") is not None:
        print(json.dumps(final["result"], indent=2), file=out)
    if final.get("error"):
        print(f"error: {final['error']}", file=out)
    return 0 if final["state"] == "done" else 1


def _follow_job(client, job_id: str, out) -> int:
    """Render the NDJSON ``/jobs/{id}/events`` stream live.

    One line per event -- ``step`` events get the compact progress
    form, everything else dumps its attrs -- until the server closes
    the stream at a resting state.  Exit 0 when the job ends ``done``
    (or pauses), 1 otherwise.
    """
    state = None
    for ev in client.events(job_id):
        kind = ev.pop("event", "?")
        ev.pop("t_wall", None)
        if kind == "state":
            state = ev.get("state")
            print(f"{job_id}: {state}", file=out, flush=True)
        elif kind == "step":
            print(_step_line(ev.get("step"), ev.get("mean_list", 0.0),
                             ev.get("wall", 0.0)), file=out, flush=True)
        else:
            attrs = " ".join(f"{k}={v}" for k, v in ev.items())
            print(f"  {kind}" + (f" {attrs}" if attrs else ""),
                  file=out, flush=True)
    return 0 if state in ("done", "paused") else 1


def cmd_jobs(args, out) -> int:
    """List jobs on a service, or inspect/cancel/follow one."""
    import json
    from repro.perf.report import format_table
    from repro.serve import ServeClient, ServeError, ServeHTTPError
    client = ServeClient(args.host, args.port)
    if (args.cancel or args.follow or args.job_trace) \
            and args.job_id is None:
        raise ServeError("--cancel/--follow/--job-trace need a job id")
    try:
        if args.job_id is not None:
            if args.follow:
                return _follow_job(client, args.job_id, out)
            if args.job_trace:
                doc = client.trace(args.job_id)
            elif args.cancel:
                doc = client.cancel(args.job_id)
            else:
                doc = client.job(args.job_id)
            print(json.dumps(doc, indent=2), file=out)
            return 0
    except ServeHTTPError as e:
        if e.status == 404:
            raise ServeError(str(e.message)) from e
        raise
    with contextlib.suppress(OSError, ServeHTTPError):  # no fleet data
        h = client.healthz()
        fleet = h.get("fleet") or {}
        print(f"worker {h.get('worker', '?')} "
              f"(store {h.get('store', '?')}, fleet "
              f"{fleet.get('live', 0)}/{fleet.get('workers', 0)} "
              f"live, {fleet.get('draining', 0)} draining)", file=out)
    docs = client.jobs()
    if not docs:
        print("no jobs", file=out)
        return 0
    rows = [{"id": d["id"], "state": d["state"], "kind": d["kind"],
             "tenant": d["tenant"], "prio": d["priority"],
             "steps": f"{d['progress']['steps_done']}"
                      f"/{d['progress']['steps_total']}",
             "lease": d["lease"] or "-"} for d in docs]
    print(format_table(rows), file=out)
    return 0


def cmd_obs(args, out) -> int:
    """Trace analysis: ``tree`` / ``critical-path`` / ``diff``.

    Operates purely on recorded traces (``--trace`` JSONL files or
    saved ``/jobs/{id}/trace`` documents) -- no live service or
    simulation involved.
    """
    from repro.obs import analyze
    if args.obs_command == "diff":
        a = analyze.load_trace(args.trace_a)
        b = analyze.load_trace(args.trace_b)
        print(analyze.format_diff(a["spans"], b["spans"],
                                  a_label=str(args.trace_a),
                                  b_label=str(args.trace_b)),
              file=out)
        return 0
    doc = analyze.load_trace(args.trace_file)
    if not doc["spans"]:
        print(f"{args.trace_file}: no span events (was the run "
              "traced?)", file=out)
        return 2
    if args.obs_command == "tree":
        print(analyze.format_tree(doc["spans"], max_depth=args.depth,
                                  min_seconds=args.min_ms / 1e3),
              file=out)
    else:  # critical-path
        print(analyze.format_critical_path(doc["spans"]), file=out)
    return 0


def _configure_logging(verbosity: int) -> None:
    """Attach a stderr handler to the ``repro`` hierarchy (CLI only;
    as a library the package stays silent via its NullHandler)."""
    if verbosity <= 0:
        return
    level = logging.INFO if verbosity == 1 else logging.DEBUG
    root = logging.getLogger("repro")
    root.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler)
               for h in root.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code.

    Usage-level errors -- bad argument values, missing or corrupt
    files, malformed fault plans/job specs, an unreachable service --
    exit 2 across every subcommand, matching argparse's own
    convention.  Runtime failures keep their subcommand-specific
    nonzero codes.
    """
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    handler = {"info": cmd_info, "run": cmd_run,
               "resume": cmd_resume, "sweep": cmd_sweep,
               "halos": cmd_halos, "serve": cmd_serve,
               "submit": cmd_submit, "jobs": cmd_jobs, "obs": cmd_obs,
               "store": cmd_store, "fleet": cmd_fleet}[args.command]
    try:
        return handler(args, out)
    except BrokenPipeError:
        # downstream pipe closed early (e.g. `repro obs tree | head`);
        # stop quietly instead of dumping a traceback
        with contextlib.suppress(OSError, ValueError):
            out.close()
        return 0
    except (OSError, ValueError) as exc:
        # covers FileNotFoundError/ConnectionError (OSError), fault-
        # plan and JobSpec validation (ValueError incl. JobError)
        print(f"{args.command}: {exc}", file=out)
        return 2
    except RuntimeError as exc:
        from repro.exec import EngineError
        from repro.faults import TransientBackendError
        from repro.serve import ServeError
        from repro.sim.checkpoint import CheckpointCorrupt
        usage = isinstance(exc, (ServeError, CheckpointCorrupt))
        # an exhausted fault budget is a runtime failure: exit 1
        if not (usage or isinstance(exc, (EngineError,
                                          TransientBackendError))):
            raise
        print(f"{args.command}: {exc}", file=out)
        return 2 if usage else 1


if __name__ == "__main__":
    sys.exit(main())
