"""``BENCHMARK.json`` stays inside the limits its consumer enforces."""

import re

from spine_config import ROOT, WORKLOADS, benchmark_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_schema_and_limits():
    spec = benchmark_spec()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["benchmarks/spine"]
    assert (ROOT / spec["paths"][0] / "run.py").is_file()
    assert spec["command"] == ["python3", "benchmarks/spine/run.py"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert sorted(w) == ["name", "why"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert sorted(m) == ["better", "bound", "name", "unit"]
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert sorted(m) == ["better", "name", "unit"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] \
        + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_the_run_plan_fits_the_time_cap():
    """4 + 22 runs per workload; beside its run_seconds of measuring a
    run spends up to ~10 s on start-up, prime, five set-ups, the initial
    force call and the checks (force_paper_ng, the slowest)."""
    spec = benchmark_spec()
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 10) <= 3420
