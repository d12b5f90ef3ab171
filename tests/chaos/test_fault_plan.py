"""Fault-plan parsing and injector semantics.

The chaos harness is only as trustworthy as its determinism: the same
plan + seed must fire the same faults at the same sites every run, in
every process.
"""

import itertools
import json

import pytest

from repro.faults import (FAULT_HOOKS, FAULT_KINDS, FaultInjector,
                          FaultPlan, FaultSpec, TransientBackendError,
                          as_fault_plan, corrupt_file, parse_fault_plan)


class TestParsing:
    def test_dsl_roundtrip(self):
        text = ("transient_error@batch=1;"
                "transient_error@site=grape.compute,call=2,count=3;"
                "latency@prob=0.25,seconds=0.01,seed=7")
        plan = parse_fault_plan(text)
        assert len(plan) == 3
        assert plan.seed == 7
        batch, trans, lat = plan.specs
        assert batch.kind == "transient_error" and batch.batch == 1
        assert batch.site is None
        assert trans.site == "grape.compute" and trans.call == 2
        assert trans.count == 3
        assert lat.prob == 0.25 and lat.seconds == 0.01
        # a plan replays from its text
        assert parse_fault_plan(text) == plan

    def test_json_and_file_sources(self, tmp_path):
        doc = {"seed": 11, "faults": [{"kind": "latency",
                                       "batch": 0, "seconds": 2.0}]}
        from_text = parse_fault_plan(json.dumps(doc))
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        from_file = parse_fault_plan(str(path))
        from_path = parse_fault_plan(path)
        for plan in (from_text, from_file, from_path):
            assert plan.seed == 11
            assert plan.specs[0].kind == "latency"
            assert plan.specs[0].batch == 0

    def test_as_fault_plan_normalises(self):
        assert as_fault_plan(None) is None
        plan = FaultPlan([FaultSpec("latency")])
        assert as_fault_plan(plan) is plan
        from_list = as_fault_plan([{"kind": "latency"}])
        assert from_list.specs[0].kind == "latency"
        from_dict = as_fault_plan({"seed": 3,
                                   "faults": [{"kind": "latency"}]})
        assert from_dict.seed == 3

    def test_wildcard_selectors(self):
        spec = parse_fault_plan("latency@batch=any,sweep=*"
                                ).specs[0]
        assert spec.batch is None and spec.sweep is None
        # attempt defaults to 0 (first execution only) unless widened
        assert spec.attempt == 0
        persistent = parse_fault_plan(
            "transient_error@attempt=any").specs[0]
        assert persistent.attempt is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor_strike")
        with pytest.raises(ValueError):
            FaultSpec("latency", count=0)
        with pytest.raises(ValueError):
            FaultSpec("latency", prob=1.5)
        with pytest.raises(ValueError):
            FaultSpec("latency", seconds=-1.0)
        with pytest.raises(ValueError):
            parse_fault_plan("latency@batch")
        assert FAULT_KINDS == {"latency", "transient_error",
                               "corrupt_result", "checkpoint_truncate"}

    @pytest.mark.parametrize("source, where", [
        ("transient_error@site=grape.compte", "site 'grape.compte'"),
        ("latency@site=grape.compute", "site 'grape.compute'"),
        ("corrupt_result@batch=1", "no site"),
        ('{"faults": [{"kind": "checkpoint_truncate", '
         '"site": "fleet.rpc"}]}', "site 'fleet.rpc'"),
    ], ids=["site-typo", "latency-at-device", "corrupt-at-batch",
            "checkpoint-at-rpc"])
    def test_pairs_no_hook_fires_are_refused(self, source, where):
        """A (kind, site) pair outside ``FAULT_HOOKS`` could never fire:
        it is a usage error naming the pair, never a silently inert
        plan."""
        with pytest.raises(ValueError) as exc:
            parse_fault_plan(source)
        assert f"never fires at {where}" in str(exc.value)

    def test_every_hooked_pair_fires_at_its_hook(self):
        """The injector's hooks read the same table the plans are
        checked against: each listed pair fires at its surface."""
        for (kind, site), hook in FAULT_HOOKS.items():
            inj = FaultInjector(FaultPlan([FaultSpec(kind, site=site)]))
            if hook == "batch":
                fired = inj.fire("batch", sweep=0, batch=0)
            elif hook == "checkpoint":
                fired = inj.fire("checkpoint", step=0)
            elif hook == "transport":
                fired = inj.fire("transport", site=site)
            else:
                with pytest.raises(TransientBackendError):
                    inj.fire("call", site=site)
                continue
            assert fired is not None and fired.kind == kind, (kind, site)

    @pytest.mark.parametrize("source", [
        "latency@worker=1",
        '{"faults": [{"kind": "latency", "worker": 1}]}',
        '[{"batch": 1}]',
    ], ids=["dsl", "json", "json-no-kind"])
    def test_unknown_selector_is_a_value_error(self, source):
        """Plans come from the command line and from job documents: a
        key that is no selector is a usage error naming it (and the
        valid ones), not the TypeError of a bad keyword."""
        with pytest.raises(ValueError) as exc:
            parse_fault_plan(source)
        if "worker" in source:
            assert "unknown fault selector 'worker'" in str(exc.value)
            assert "batch" in str(exc.value)


class TestInjector:
    def test_batch_selectors_and_count(self):
        plan = FaultPlan([FaultSpec("latency", batch=3, sweep=1)])
        inj = FaultInjector(plan)
        assert inj.fire("batch", sweep=0, batch=3) is None
        assert inj.fire("batch", sweep=1, batch=2) is None
        fired = inj.fire("batch", sweep=1, batch=3)
        assert fired is not None and fired.kind == "latency"
        # count=1 consumed: never fires again in this process
        assert inj.fire("batch", sweep=1, batch=3) is None

    def test_attempt_gating(self):
        plan = FaultPlan([FaultSpec("transient_error", batch=0,
                                    count=10)])
        inj = FaultInjector(plan)
        assert inj.fire("batch", sweep=0, batch=0, attempt=0) is not None
        # default attempt=0: a retry of the same batch is clean
        assert inj.fire("batch", sweep=0, batch=0, attempt=1) is None

    def test_site_hook_call_threshold(self):
        plan = FaultPlan([FaultSpec("transient_error",
                                    site="grape.compute", call=2)])
        inj = FaultInjector(plan)
        inj.fire("call", site="grape.compute")   # call 0
        inj.fire("call", site="g5.run")          # other site, never fires
        inj.fire("call", site="grape.compute")   # call 1
        with pytest.raises(TransientBackendError):
            inj.fire("call", site="grape.compute")  # call 2 >= threshold
        inj.fire("call", site="grape.compute")   # count consumed

    def test_probabilistic_firing_is_seed_deterministic(self):
        plan = FaultPlan([FaultSpec("latency", prob=0.5, count=10**6)],
                         seed=1234)
        fires = [FaultInjector(plan).fire("batch", sweep=0, batch=b)
                 is not None
                 for b in range(200)]
        again = [FaultInjector(plan).fire("batch", sweep=0, batch=b)
                 is not None
                 for b in range(200)]
        assert fires == again
        assert 20 < sum(fires) < 180  # actually probabilistic
        other_seed = FaultPlan(plan.specs, seed=99)
        differs = [FaultInjector(other_seed).fire("batch", sweep=0,
                                                        batch=b)
                   is not None for b in range(200)]
        assert differs != fires

    @pytest.mark.parametrize("seed", [4242, 1234, 7])
    def test_probabilistic_draws_are_independent_per_visit(self, seed):
        """200 visits of a ``prob=0.5`` spec fire about half the time
        in about 100 runs (maximal stretches of equal outcomes), as
        independent coin flips do -- not in a few long bursts."""
        import itertools
        plan = FaultPlan([FaultSpec("latency", prob=0.5, count=10**6)],
                         seed=seed)
        inj = FaultInjector(plan)
        by_sweep = [inj.fire("batch", sweep=s, batch=0, attempt=0)
                    is not None for s in range(200)]
        site = FaultPlan([FaultSpec("latency", site="fleet.rpc",
                                    prob=0.5, count=10**6)], seed=seed)
        inj = FaultInjector(site)
        by_call = [inj.fire("transport", site="fleet.rpc") is not None
                   for _ in range(200)]
        for fires in (by_sweep, by_call):
            runs = sum(1 for _ in itertools.groupby(fires))
            assert 70 <= sum(fires) <= 130
            assert 80 <= runs <= 122

    def test_checkpoint_fault_step_selector(self):
        plan = FaultPlan([FaultSpec("checkpoint_truncate", step=4)])
        inj = FaultInjector(plan)
        assert inj.fire("checkpoint", step=2) is None
        assert inj.fire("checkpoint", step=4) is not None
        assert inj.fire("checkpoint", step=4) is None  # consumed


class TestCorruptFile:
    def test_truncate_is_deterministic(self, tmp_path):
        p = tmp_path / "blob"
        p.write_bytes(bytes(range(256)) * 8)
        off1 = corrupt_file(p, mode="truncate", seed=5)
        assert p.stat().st_size == off1
        p.write_bytes(bytes(range(256)) * 8)
        off2 = corrupt_file(p, mode="truncate", seed=5)
        assert off1 == off2

    def test_flip_changes_exactly_one_byte(self, tmp_path):
        p = tmp_path / "blob"
        original = bytes(range(256))
        p.write_bytes(original)
        off = corrupt_file(p, mode="flip", offset=10, xor=0xFF)
        mutated = p.read_bytes()
        assert off == 10
        assert mutated[10] == original[10] ^ 0xFF
        assert mutated[:10] == original[:10]
        assert mutated[11:] == original[11:]

    def test_unknown_mode_rejected(self, tmp_path):
        p = tmp_path / "blob"
        p.write_bytes(b"x")
        with pytest.raises(ValueError):
            corrupt_file(p, mode="zap")
