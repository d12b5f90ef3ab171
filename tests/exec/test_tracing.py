"""Cross-thread trace stitching: pool-thread spans join the host trace.

The acceptance criterion under test: a traced force evaluation
produces ONE coherent trace -- every shard evaluated on a pool thread
appears as an ``exec.batch`` span parented under the submitting
``eval`` span, carrying the pool thread's own ``exec.queue_wait`` /
``exec.traverse`` / ``exec.eval`` children on the same
``perf_counter`` timeline -- the
critical-path analysis partitions the traced wall clock into
host/worker/GRAPE buckets that sum to the total (within 5%; the
partition is exact by construction, so we assert much tighter), and
the phase table's ``eval`` children, all timed on the submitting
thread, partition the sweep however many threads overlapped it.
"""

import numpy as np
import pytest

from repro.core import TreeCode
from repro.exec import PipelineEngine
from repro.grape import GrapeBackend
from repro.obs import MetricsRegistry, Tracer
from repro.obs.analyze import critical_path
from repro.obs.export import span_events
from repro.sim.models import plummer_model


@pytest.fixture(scope="module")
def traced_run():
    rng = np.random.default_rng(7)
    pos, _, mass = plummer_model(1500, rng)
    tr = Tracer()
    engine = PipelineEngine(workers=2)
    tc = TreeCode(theta=0.75, n_crit=64, engine=engine, tracer=tr)
    try:
        tc.accelerations(pos, mass, 0.01)
    finally:
        tc.close()
    return tr, list(span_events(tr))


class TestStitchedTrace:
    def test_one_trace_with_worker_spans(self, traced_run):
        tr, events = traced_run
        names = {e["name"] for e in events}
        assert "exec.batch" in names
        assert "exec.queue_wait" in names
        assert "exec.traverse" in names
        assert "exec.eval" in names
        # a single trace identity owns all of it
        assert len(tr.trace_id) == 32

    def test_batches_parent_under_eval(self, traced_run):
        _, events = traced_run
        by_id = {e["span_id"]: e for e in events}
        batches = [e for e in events if e["name"] == "exec.batch"]
        assert batches
        for b in batches:
            parent = by_id[b["parent_id"]]
            assert parent["name"] == "eval"
            assert b["path"].endswith("eval/exec.batch")
            # stitched batch spans keep their submit-side identity
            assert "batch" in b["attrs"] and "worker" in b["attrs"]

    def test_worker_children_inside_batch_interval(self, traced_run):
        _, events = traced_run
        by_id = {e["span_id"]: e for e in events}
        kids = [e for e in events if e["name"] in (
            "exec.queue_wait", "exec.traverse", "exec.eval")]
        assert kids
        for k in kids:
            batch = by_id[k["parent_id"]]
            assert batch["name"] == "exec.batch"
            # same monotonic timeline: child intervals nest (small
            # slack for the enqueue-side t_origin backdating)
            assert k["t_start"] >= batch["t_start"] - 1e-6
            assert k["t_end"] <= batch["t_end"] + 1e-6

    def test_batch_intervals_inside_eval(self, traced_run):
        _, events = traced_run
        evals = {e["span_id"]: e for e in events
                 if e["name"] == "eval"}
        for b in (e for e in events if e["name"] == "exec.batch"):
            ev = evals[b["parent_id"]]
            assert b["t_end"] <= ev["t_end"] + 1e-6

    def test_every_batch_is_stitched(self, traced_run):
        """No worker measurement is lost: one exec.batch per batch
        the engine evaluated, queue-wait + eval under each."""
        _, events = traced_run
        batches = [e for e in events if e["name"] == "exec.batch"]
        waits = [e for e in events if e["name"] == "exec.queue_wait"]
        assert len(waits) == len(batches)
        seen = {e["attrs"]["batch"] for e in batches}
        assert seen == set(range(len(batches)))


class TestCriticalPathAttribution:
    def test_resources_sum_to_total(self, traced_run):
        _, events = traced_run
        cp = critical_path(events)
        total = cp["total_seconds"]
        assert total > 0
        parts = sum(cp["resources"].values())
        # acceptance bound is 5%; the timeline partition is exact
        assert parts == pytest.approx(total, rel=1e-9)
        assert cp["resources"]["worker"] > 0

    def test_untraced_run_records_nothing(self):
        """Tracing off (NULL_TRACER) must ship no contexts and stitch
        no spans -- the overhead-free default."""
        rng = np.random.default_rng(8)
        pos, _, mass = plummer_model(800, rng)
        tr = Tracer()
        engine = PipelineEngine(workers=2)
        tc = TreeCode(theta=0.75, n_crit=64, engine=engine)  # no tracer
        try:
            tc.accelerations(pos, mass, 0.01)
        finally:
            tc.close()
        assert list(span_events(tr)) == []


class TestPhasePartition:
    def test_eval_children_partition_the_sweep_with_two_threads(self):
        """``traverse`` + ``grape_force`` + ``host_direct`` are the
        submitting thread's seconds, so they sum to the ``eval`` span
        and self times sum to the traced wall -- two overlapping pool
        threads (whose busy seconds alone can exceed the wall) change
        neither."""
        rng = np.random.default_rng(9)
        pos, _, mass = plummer_model(2500, rng)
        tr = Tracer()
        tc = TreeCode(theta=0.75, n_crit=64, backend=GrapeBackend(),
                      engine=PipelineEngine(workers=2), tracer=tr)
        try:
            tc.accelerations(pos, mass, 0.01)
        finally:
            tc.close()
        t = tc.last_stats.times
        assert t["kernel"] + t["host_direct"] == pytest.approx(
            t["eval"], rel=1e-9)
        (ev,) = [sp for root in tr.roots for sp in root.walk()
                 if sp.name == "eval"]
        own = {c.name: c.duration for c in ev.children if not c.stitched}
        assert set(own) == {"traverse", "grape_force", "host_direct"}
        assert own["traverse"] == pytest.approx(t["traverse"], rel=1e-6)
        assert own["grape_force"] == pytest.approx(t["kernel"], rel=1e-6)
        assert sum(own.values()) <= ev.duration
        assert sum(own.values()) == pytest.approx(ev.duration, rel=0.05,
                                                  abs=2e-3)
        assert any(c.stitched for c in ev.children)     # exec.batch
        for root in tr.roots:
            assert sum(sp.self_seconds for sp in root.walk()) \
                == pytest.approx(root.duration, rel=1e-9)


class TestPooledWalkAttribution:
    def test_cut_sweeps_attribute_without_negative_seconds(self):
        """Cut sweeps (16 shards, two pool threads walking and
        evaluating) again and again: the pool's walk seconds, which
        can add up to more than the sweep wall, land in ``exec.traverse``
        spans, never in the submitting thread's partition -- so no
        ``tree.seconds.*`` counter ever goes down (``Counter.inc``
        would raise), every batch shows its walk beside its
        evaluation, and the critical path still sums to the wall."""
        rng = np.random.default_rng(41)
        pos, _, mass = plummer_model(8192, rng)
        reg = MetricsRegistry()
        phases = ("build", "group", "traverse", "eval", "kernel")
        before = {p: 0.0 for p in phases}
        for _ in range(4):
            tr = Tracer()
            tc = TreeCode(theta=0.75, n_crit=32, tracer=tr, metrics=reg,
                          engine=PipelineEngine(workers=2))
            try:
                tc.accelerations(pos, mass, 0.01)
            finally:
                tc.close()
            now = {p: reg.value(f"tree.seconds.{p}") for p in phases}
            assert all(now[p] >= before[p] for p in phases), (before, now)
            before = now
            t = tc.last_stats.times
            assert min(t.values()) >= 0.0, t
            assert t["kernel"] + t["host_direct"] == pytest.approx(
                t["eval"], rel=1e-9)
            events = list(span_events(tr))
            batches = [e for e in events if e["name"] == "exec.batch"]
            assert len(batches) == 16
            for b in batches:
                kids = sorted(e["name"] for e in events
                              if e["parent_id"] == b["span_id"])
                assert kids == ["exec.eval", "exec.queue_wait",
                                "exec.traverse"]
            cp = critical_path(events)
            assert sum(cp["resources"].values()) == pytest.approx(
                cp["total_seconds"], rel=1e-9)
