"""The A/A comparison: bounds, exact facts, and the refusal to compare
results of different configurations."""

import copy

import pytest

from selfcheck import ConfigMismatch, compare
from spine_config import benchmark_spec, config_block


def _doc(workload="serve_local", **metrics):
    spec = benchmark_spec()
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    values.update(metrics)
    return {"config": config_block(workload, smoke=True, seconds=0.3),
            "seed": 1, "correct": True, "problems": [],
            "exact": {"hot_digests": ["ab", "cd"], "err": 0.25},
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in values.items()}}


def test_agreement_within_each_metrics_own_bound():
    spec = benchmark_spec()
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a = {"results": [_doc()]}
    b = {"results": [_doc(unit_wall_p50_s=1.0 + 0.9 * bound["unit_wall_p50_s"])]}
    lines, bad = compare(a, b, spec)
    assert not bad and len(lines) > len(bound)
    b = {"results": [_doc(unit_wall_p50_s=1.0 + 1.1 * bound["unit_wall_p50_s"])]}
    _, bad = compare(a, b, spec)
    assert len(bad) == 1 and "unit_wall_p50_s" in bad[0]


def test_exact_facts_must_be_equal():
    spec = benchmark_spec()
    a, b = {"results": [_doc()]}, {"results": [_doc()]}
    b["results"][0]["exact"]["err"] = 0.25 * (1 + 1e-15)
    assert compare(a, b, spec)[1] == []
    b["results"][0]["exact"]["hot_digests"][1] = "ce"
    assert "hot_digests" in compare(a, b, spec)[1][0]


def test_an_incorrect_side_fails_the_gate():
    spec = benchmark_spec()
    a, b = {"results": [_doc()]}, {"results": [_doc()]}
    b["results"][0].update(correct=False, problems=["boom"])
    assert "boom" in compare(a, b, spec)[1][0]


def test_differing_configuration_blocks_are_refused():
    spec = benchmark_spec()
    a = {"results": [_doc()]}
    b = copy.deepcopy(a)
    b["results"][0]["config"]["kernels"] = "python"
    with pytest.raises(ConfigMismatch, match="kernels"):
        compare(a, b, spec)
    b = copy.deepcopy(a)
    b["results"][0]["seed"] = 2
    with pytest.raises(ConfigMismatch, match="seed"):
        compare(a, b, spec)
    with pytest.raises(ConfigMismatch, match="missing"):
        compare(a, {"results": []}, spec)
