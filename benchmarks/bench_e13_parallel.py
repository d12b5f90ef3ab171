"""E13 -- the sweep's host/GRAPE overlap vs pool size (the engine
extension).

The paper's machine overlaps host tree traversal with GRAPE force
integration; ``repro.exec.PipelineEngine``, the path every treecode
sweep takes, reproduces that overlap with a thread pool.  This
benchmark runs one force sweep of an E8-style clustered workload at
several pool sizes, checks bit-identity against the one-thread row, and
writes ``results/e13_parallel.json`` (wall seconds, speedups over one
pool thread) as a machine-readable artifact.

The >= 1.3x speedup acceptance bound for 4 workers only applies where
the hardware can express it: it is asserted when the machine has >= 4
cores, and recorded (not asserted) on smaller boxes -- a single-core
CI runner cannot speed anything up, and the bit-identity checks are
the correctness content.
"""

import json
import os
import time

import numpy as np

from conftest import emit
from repro.core import TreeCode
from repro.exec import PipelineEngine
from repro.perf.report import format_table
from repro.sim.models import plummer_model

N = 8192
N_CRIT = 256
EPS = 0.01
WORKER_COUNTS = (1, 2, 4)
SPEEDUP_BOUND = 1.3


def _sweep(pos, mass, engine):
    tc = TreeCode(theta=0.75, n_crit=N_CRIT, engine=engine)
    t0 = time.perf_counter()
    acc, pot = tc.accelerations(pos, mass, EPS)
    wall = time.perf_counter() - t0
    return acc, pot, wall, tc.last_stats


def test_e13_parallel(benchmark, results_dir):
    rng = np.random.default_rng(13)
    pos, _, mass = plummer_model(N, rng)

    def measure():
        runs, base = [], None
        for w in WORKER_COUNTS:
            with PipelineEngine(workers=w) as eng:
                _sweep(pos, mass, eng)  # warm the pool
                acc, pot, wall, stats = _sweep(pos, mass, eng)
            if base is None:            # the workers=1 row
                base = (acc, pot, wall, stats)
            assert np.array_equal(base[0], acc), \
                f"workers={w} diverged from workers=1"
            assert np.array_equal(base[1], pot)
            assert stats.total_interactions == base[3].total_interactions
            runs.append({
                "workers": w,
                "wall_seconds": wall,
                "speedup": base[2] / wall,
                "traverse_seconds": stats.times.get("traverse", 0.0),
                "eval_seconds": stats.times.get("eval", 0.0),
            })
        return base[3], runs

    stats0, runs = benchmark.pedantic(measure, rounds=1, iterations=1)

    cores = os.cpu_count() or 1
    doc = {
        "schema": "repro.e13_parallel/v2",
        "n_particles": N,
        "n_crit": N_CRIT,
        "interactions": int(stats0.total_interactions),
        "cpu_cores": cores,
        "sweeps": runs,
        "bit_identical": True,
    }
    (results_dir / "e13_parallel.json").write_text(
        json.dumps(doc, indent=2) + "\n")

    rows = [{"workers": r["workers"],
             "wall [s]": round(r["wall_seconds"], 3),
             "speedup": round(r["speedup"], 2)} for r in runs]
    emit(results_dir, "e13_parallel",
         format_table(rows)
         + f"\n(bit-identical at every worker count; "
         f"{cores} cores available)")

    if cores >= 4:
        best = max(r["speedup"] for r in runs if r["workers"] == 4)
        assert best >= SPEEDUP_BOUND, \
            f"4-worker speedup {best:.2f} < {SPEEDUP_BOUND}"
