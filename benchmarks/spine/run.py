#!/usr/bin/env python3
"""The measurement spine: run one workload (or all five) under the one
fixed configuration, check its outputs, and print every metric.

    python3 benchmarks/spine/run.py [--workload NAME] [--seed S]
                                    [--seconds T] [--trace [0|1]] [--smoke]

``--trace 0`` (default) measures the end-to-end metrics with no span
recorded.  ``--trace 1`` measures half the time untraced and half with
the spine's own span recorder around every call into a layer, then
probes each layer; it prints the per-layer metrics and writes
``benchmarks/spine/out/trace-<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from spine_config import (FIXED_CONFIG, HERE, OUT, SIZES, WORKLOADS,
                          benchmark_spec, build_solver, config_block,
                          child_pids, confine_writes, metric_units,
                          stop_children, use_checkout, write_json)


def prime() -> Dict[str, float]:
    """Untimed warm-up before any workload: the imports, the first
    ``cnative.load()`` (which compiles the C kernel into the build
    cache on a fresh checkout) and one tiny force call through both
    backends, so no workload's set-up pays for a cold compiler."""
    import numpy as np
    from repro.core.kernels import cnative
    from repro.sim.models import plummer_model

    t0 = time.perf_counter()
    native = cnative.load() is not None
    compile_s = time.perf_counter() - t0
    pos, _, mass = plummer_model(64, np.random.default_rng(0))
    for backend in ("host", "grape"):
        tc, _ = build_solver(ncrit=16, backend=backend)
        tc.accelerations(pos, mass, 0.01)
    return {"kernels.native_available": 1.0 if native else 0.0,
            "kernels.native_compile_s": compile_s}


def make_workload(name: str, sizes: Dict[str, Any], seed: int):
    if name.startswith("force_"):
        from spine_force import ForceWorkload
        return ForceWorkload(name, sizes, seed)
    if name == "cli_run_cold":
        from spine_cli import CliWorkload
        return CliWorkload(name, sizes, seed)
    from spine_serve import ServeWorkload
    return ServeWorkload(name, sizes, seed)


def run_one(name: str, *, seed: int, seconds: float, trace: bool,
            smoke: bool) -> Dict[str, Any]:
    """Run one workload; returns its full result document."""
    from spine_calib import samples, speed
    from spine_spans import (SpanRecorder, median, percentile, span,
                             timed)

    spec = benchmark_spec()
    config = config_block(name, smoke=smoke, seconds=seconds)
    rec = SpanRecorder() if trace else None
    workload = None
    setup_walls: List[float] = []
    not_ours = child_pids()
    try:
        primed = prime()
        workload = make_workload(name, SIZES[config["sizes"]][name], seed)
        before = samples()
        for _ in range(FIXED_CONFIG["setup_reps"]):
            with span(rec, "setup"):
                wall, _ = timed(workload.setup, rec)
            after = samples()
            setup_walls.append(wall * speed(before, after))
            before = after
        if trace:
            units = metric_units(spec, "per_layer")
            workload.measure(seconds / 2.0, None)
            workload.begin_traced(rec)
            workload.measure(seconds / 2.0, rec)
            # a layer this workload does not probe reads 0
            metrics = dict.fromkeys(units, 0.0)
            layers = {**primed, **workload.layers(rec)}
            plain, traced = workload.walls(), workload.walls(traced=True)
            # ratio base: the untraced half of this same run
            layers["bench.trace_overhead_ratio"] = (median(traced)
                                                    / median(plain))
            raw = workload.walls(raw=True) + workload.walls(traced=True,
                                                            raw=True)
            layers["bench.unit_wall_raw_p50_s"] = median(raw)
            layers["bench.unit_wall_p95_s"] = percentile(raw, 0.95)
            layers["bench.calibration_s"] = median(workload.calibration)
            layers["bench.traced_units"] = len(traced)
            unknown = sorted(set(layers) - set(units))
            if unknown:
                raise RuntimeError(f"metrics missing from BENCHMARK.json: "
                                   f"{unknown}")
            metrics.update(layers)
        else:
            units = metric_units(spec, "end_to_end")
            workload.measure(seconds, None)
            metrics = workload.end_to_end()
            metrics["setup_s"] = median(setup_walls)
            if set(metrics) != set(units):
                raise RuntimeError(
                    f"end-to-end metrics {sorted(metrics)} do not match "
                    f"BENCHMARK.json {sorted(units)}")
        problems = workload.check()
        exact = workload.exact()
        counts = workload.counts()
        # what the clock read, before scaling to reference speed
        raw = {"unit_wall_raw_p50_s": median(workload.walls(raw=True)),
               "calibration_s": median(workload.calibration)}
    finally:
        try:
            if workload is not None:
                workload.teardown()
        finally:
            # no process of this run outlives it, on any path out
            stop_children(keep=not_ours)
        if rec is not None:
            rec.write_jsonl(OUT / f"trace-{name}.jsonl")
    return {
        "config": config, "seed": seed, "trace": int(trace),
        "correct": not problems and counts["failed"] == 0,
        "problems": problems, "exact": exact, "raw": raw, **counts,
        "setup_samples": len(setup_walls),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }


def report(doc: Dict[str, Any]) -> None:
    """Every metric by name and unit, the configuration, the checks."""
    cfg = doc["config"]
    print(f"== {cfg['workload']} (seed {doc['seed']}, trace "
          f"{doc['trace']}, {doc['attempted']} units, {doc['failed']} "
          f"failed, {doc['setup_samples']} set-ups)")
    print("config: " + json.dumps(cfg, sort_keys=True))
    for name, m in doc["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print("  (as the clock read: " + ", ".join(
        f"{k} {v:.6g}" for k, v in doc["raw"].items()) + ")")
    for problem in doc["problems"]:
        print(f"  INCORRECT: {problem}")


def last_line(doc: Dict[str, Any]) -> str:
    return json.dumps({k: doc[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process (so peak RSS is its own)."""
    docs = []
    for name in WORKLOADS:
        out = OUT / f"result-{name}-t{args.trace}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not out.is_file() or (proc.returncode != 0 and not lines):
            print(f"spine: workload {name} did not finish "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 1
        with open(out, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    write_json(args.out or OUT / f"result-all-t{args.trace}.json",
               {"results": docs})
    print(json.dumps({
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {d["config"]["workload"]: d["metrics"] for d in docs}}))
    return 0 if all(d["correct"] for d in docs) else 1


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all five, in turn)")
    ap.add_argument("--seed", type=int, default=1999,
                    help="the only source of randomness")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: run_seconds of "
                         "BENCHMARK.json; 0.3 with --smoke)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="per-layer run with spans")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the spine's own tests")
    ap.add_argument("--out", type=Path, default=None,
                    help="where to write the full result document")
    args = ap.parse_args(argv)
    use_checkout()
    confine_writes()
    if args.seconds is None:
        args.seconds = (0.3 if args.smoke
                        else float(benchmark_spec()["run_seconds"]))
    if args.workload is None:
        return run_all(args)
    doc = run_one(args.workload, seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace), smoke=args.smoke)
    write_json(args.out or OUT / f"result-{args.workload}-t{args.trace}.json",
               doc)
    report(doc)
    sys.stdout.flush()
    print(last_line(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
