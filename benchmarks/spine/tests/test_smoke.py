"""``--smoke`` runs: every workload finishes quickly, passes its checks
and emits exactly the metrics ``BENCHMARK.json`` names, with units."""

import json
import subprocess
import sys
import time

import pytest

from spine_config import HERE, OUT, WORKLOADS, benchmark_spec, metric_units


def _run(*args, cwd=None):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=120)
    return proc, time.perf_counter() - t0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc, wall = _run("--workload", workload, "--smoke", "--seed", "5",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert wall < 20.0
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    units = metric_units(benchmark_spec(),
                         "per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())
    else:
        assert (OUT / f"trace-{workload}.jsonl").stat().st_size > 0
    # every metric is also printed by name and unit, above the last line
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in proc.stdout.splitlines()[:-1]), name
    assert not list((OUT / "tmp").iterdir())


def test_the_same_seed_gives_the_same_inputs_and_exact_facts():
    facts = []
    for _ in range(2):
        proc, _ = _run("--workload", "force_small_groups", "--smoke",
                       "--seed", "9")
        assert proc.returncode == 0, proc.stderr
        with open(OUT / "result-force_small_groups-t0.json") as fh:
            facts.append(json.load(fh)["exact"])
    assert facts[0] == facts[1]
    assert facts[0]["interactions"][0] > 0


def test_layer_predictions_hold_in_smoke_traces():
    """serve_local makes no fleet RPC; serve_fleet makes one per op."""
    per_job = {}
    for workload in ("serve_local", "serve_fleet"):
        proc, _ = _run("--workload", workload, "--smoke", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        m = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        per_job[workload] = (m["store.ops_per_job"]["value"],
                             m["fleet.rpc_per_job"]["value"])
        assert m["serve.cache_hit_ratio"]["value"] == pytest.approx(0.5)
    assert per_job["serve_local"][0] > 0 and per_job["serve_local"][1] == 0
    ops, rpcs = per_job["serve_fleet"]
    assert ops > 0 and rpcs == pytest.approx(ops, rel=0.05)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the spine, the
    benchmark exits non-zero and prints no result."""
    import shutil
    from spine_config import ROOT
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "spine",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload",
         "serve_local", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
