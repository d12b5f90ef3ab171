#!/usr/bin/env python
"""Tracing-overhead gate: instrumentation must be ~free when off.

The observability layer's contract is that an *untraced* run pays
almost nothing for the instrumentation wired through the hot paths:
every span site routes through the shared no-op ``NULL_TRACER``, the
engine every sweep goes through builds no ``exec.batch`` spans, and
flight-recorder hooks are ``None`` checks.  The gated evaluation is a
default ``TreeCode`` -- the path every run takes.

A direct traced-vs-untraced wall-clock A/B is far too noisy on shared
CI runners to gate at the few-percent level, so the gate measures the
overhead *deterministically*:

1. microbenchmark the no-op primitives (``NULL_TRACER.span`` context
   manager, ``NULL_TRACER.record``, the ``enabled`` flag probe, a
   ``perf_counter`` call) in tight loops -- each is O(100 ns);
2. count the instrumentation sites one evaluation actually executes,
   by running the same workload once with a real tracer (every span
   event = one site) plus the per-batch bookkeeping sites of the
   pipeline engine;
3. bound the tracing-off overhead as ``sites x max(per-site cost)``
   and compare against the median untraced evaluation wall time.

Exit 1 when the bound exceeds the threshold (default 2%).

Usage::

    PYTHONPATH=src python tools/tracing_overhead.py [--threshold 0.02]
        [--n 3000] [--rounds 5]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
import timeit


def _per_op_costs() -> dict:
    """Seconds per call of each no-op instrumentation primitive."""
    from repro.obs import NULL_TRACER

    reps = 200_000
    costs = {
        "null_span": timeit.timeit(
            lambda: NULL_TRACER.span("x", a=1).__exit__(None, None,
                                                        None),
            number=reps) / reps,
        "null_record": timeit.timeit(
            lambda: NULL_TRACER.record("x", 0.0), number=reps) / reps,
        "enabled_probe": timeit.timeit(
            lambda: bool(getattr(NULL_TRACER, "enabled", False)),
            number=reps) / reps,
        "perf_counter": timeit.timeit(time.perf_counter,
                                      number=reps) / reps,
    }
    return costs


def _workload(n: int):
    """``(pos, mass)`` for the gated evaluation."""
    import numpy as np
    from repro.sim.models import plummer_model

    rng = np.random.default_rng(1999)
    pos, _, mass = plummer_model(n, rng)
    return pos, mass


def _evaluate(pos, mass, *, tracer=None):
    """One full treecode force evaluation; returns its wall seconds."""
    from repro.core import TreeCode

    tc = TreeCode(theta=0.75, n_crit=256, tracer=tracer)
    try:
        t0 = time.perf_counter()
        tc.accelerations(pos, mass, 0.01)
        return time.perf_counter() - t0
    finally:
        tc.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="gate: tracing-off overhead below a threshold")
    ap.add_argument("--threshold", type=float, default=0.02,
                    help="maximum overhead fraction (default: 0.02)")
    ap.add_argument("--n", type=int, default=3000,
                    help="particles in the gated evaluation")
    ap.add_argument("--rounds", type=int, default=5,
                    help="untraced evaluation repetitions (median)")
    args = ap.parse_args(argv)

    from repro.obs import Tracer
    from repro.obs.export import span_events

    costs = _per_op_costs()
    per_site = max(costs.values())
    print("no-op primitive costs:")
    for name, c in sorted(costs.items()):
        print(f"  {name:<15} {c * 1e9:8.1f} ns/call")

    pos, mass = _workload(args.n)

    # site count: every span a traced evaluation emits is one span
    # site in the untraced run, plus per-batch engine bookkeeping
    # (the ``tracing`` probe, pool-thread perf_counter reads)
    tr = Tracer()
    _evaluate(pos, mass, tracer=tr)
    events = list(span_events(tr))
    batches = sum(1 for e in events if e["name"] == "exec.batch")
    sites = len(events) + 4 * max(1, batches)
    print(f"\ninstrumentation sites per evaluation: {sites} "
          f"({len(events)} spans, {batches} batches)")

    walls = [_evaluate(pos, mass) for _ in range(args.rounds)]
    wall = statistics.median(walls)
    overhead = sites * per_site
    ratio = overhead / wall if wall > 0 else float("inf")

    print(f"median untraced evaluation: {wall * 1e3:.2f} ms "
          f"over {args.rounds} round(s)")
    print(f"bounded tracing-off overhead: {overhead * 1e6:.1f} us "
          f"({100 * ratio:.3f}% of evaluation wall)")
    print(f"threshold: {100 * args.threshold:.1f}%")

    if ratio > args.threshold:
        print("FAIL: instrumentation overhead bound exceeds the "
              "threshold", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
