"""Service observability over real TCP: per-job traces, histograms,
the enriched health snapshot, and the follow/obs CLI verbs.

The acceptance criteria under test: ``GET /jobs/{id}/trace`` returns
the span tree of a completed served job (queue wait, lease
acquisition, the run itself, stitched step spans) and ``/metrics``
exposes submit-to-done and queue-wait latency histograms -- all
through the live HTTP server, not scheduler internals.
"""

import io
import json

from repro.cli import main as cli_main
from repro.obs.analyze import build_tree, critical_path, load_trace


def _submit_done(client, tiny_run):
    doc = client.submit({"kind": "run", "params": tiny_run})
    final = client.wait(doc["id"], timeout=120)
    assert final["state"] == "done"
    return final


class TestJobTrace:
    def test_trace_endpoint_returns_span_tree(self, server_pair,
                                              tiny_run):
        _, client = server_pair
        final = _submit_done(client, tiny_run)
        assert len(final["trace_id"]) == 32

        trace = client.trace(final["id"])
        assert trace["schema"] == "repro.trace/v1"
        assert trace["job"] == final["id"]
        assert trace["trace_id"] == final["trace_id"]
        names = {s["name"] for s in trace["spans"]}
        assert "serve.queue_wait" in names
        assert "serve.lease_acquire" in names
        assert "serve.job" in names
        assert "serve.checkpoint" in names
        assert "step" in names  # the simulation's own spans nest in

        # the document is exactly what `repro obs` consumes
        doc = load_trace(trace)
        roots = build_tree(doc["spans"])
        job_span = next(r for r in roots if r["name"] == "serve.job")
        kids = {c["name"] for c in job_span["children"]}
        assert "step" in kids
        assert job_span["attrs"]["outcome"] == "done"

    def test_critical_path_covers_job_wall(self, server_pair,
                                           tiny_run):
        _, client = server_pair
        final = _submit_done(client, tiny_run)
        cp = critical_path(client.trace(final["id"])["spans"])
        assert cp["total_seconds"] > 0
        # acceptance bound: buckets sum within 5% of the total
        parts = sum(cp["resources"].values())
        assert abs(parts - cp["total_seconds"]) \
            <= 0.05 * cp["total_seconds"]

    def test_trace_of_queued_job_is_wellformed(self, server_pair,
                                               tiny_run):
        _, client = server_pair
        doc = client.submit({"kind": "run", "params": tiny_run})
        trace = client.trace(doc["id"])  # may still be queued/running
        assert trace["schema"] == "repro.trace/v1"
        assert isinstance(trace["spans"], list)
        client.wait(doc["id"], timeout=120)

    def test_unknown_job_trace_is_404(self, server_pair):
        import pytest
        from repro.serve import ServeHTTPError
        with pytest.raises(ServeHTTPError) as e:
            server_pair[1].trace("j-nope")
        assert e.value.status == 404


class TestTraceFromAnyWorker:
    def test_two_workers_return_the_same_spans(self, tmp_path):
        """A finished job's trace is in its store document, so a second
        worker on the same file answers ``/jobs/{id}/trace`` exactly
        as the one that ran it -- for a computed job and a cache hit
        answered at admission.  (The second worker used to answer
        ``spans: []``.)"""
        from tests.serve.conftest import live_server
        db = tmp_path / "jobs.db"
        spec = {"kind": "force_eval", "params": {"n": 64, "seed": 3}}
        with live_server(slots=1, workdir=tmp_path / "a", store=db,
                         worker_id="A", cache=True) as (_, a):
            ids = []
            for _ in range(2):
                ids.append(a.submit(spec)["id"])
                a.wait(ids[-1], timeout=120)
            docs = [a.job(i) for i in ids]
            assert [d["cache_hit"] for d in docs] == [False, True]
            with live_server(slots=1, workdir=tmp_path / "b", store=db,
                             worker_id="B", cache=True) as (_, b):
                for jid in ids:
                    ta, tb = a.trace(jid), b.trace(jid)
                    assert ta["trace_id"] == tb["trace_id"]
                    names = [s["name"] for s in ta["spans"]]
                    assert names == [s["name"] for s in tb["spans"]]
                    assert ("serve.store.claim" in names) == \
                        ("serve.job" in names) == (jid == ids[0])
                    assert ("serve.admission" in names) == (jid == ids[1])


class TestMetricsHistograms:
    def test_latency_histograms_exposed(self, server_pair, tiny_run):
        _, client = server_pair
        _submit_done(client, tiny_run)
        text = client.metrics()
        for fam in ("repro_serve_submit_to_done_seconds",
                    "repro_serve_queue_wait_seconds",
                    "repro_serve_job_seconds"):
            assert f"# TYPE {fam} histogram" in text
            assert f'{fam}_bucket{{le="+Inf"}}' in text
            count = int(next(
                l for l in text.splitlines()
                if l.startswith(f"{fam}_count")).split()[1])
            assert count >= 1


class TestHealthz:
    def test_snapshot_fields(self, server_pair, tiny_run):
        _, client = server_pair
        h = client.healthz()
        assert h["status"] == "ok"
        assert h["queue_limit"] == 16
        assert h["queue_depth"] == h["queued"]
        assert h["leases_in_use"] >= 0
        assert h["uptime_seconds"] >= 0.0


class TestCliVerbs:
    def _cli(self, *argv):
        out = io.StringIO()
        return cli_main(list(argv), out=out), out.getvalue()

    def test_jobs_follow_streams_events(self, server_pair, tiny_run):
        server, client = server_pair
        doc = client.submit({"kind": "run", "params": tiny_run})
        code, text = self._cli("jobs", "--port", str(server.port),
                               "--follow", doc["id"])
        assert code == 0
        assert "step" in text
        assert f"{doc['id']}: done" in text

    def test_jobs_job_trace_pipes_into_obs(self, server_pair,
                                           tiny_run, tmp_path):
        server, client = server_pair
        final = _submit_done(client, tiny_run)
        code, text = self._cli("jobs", "--port", str(server.port),
                               "--job-trace", final["id"])
        assert code == 0
        saved = tmp_path / "trace.json"
        saved.write_text(text)
        code, rendered = self._cli("obs", "tree", str(saved))
        assert code == 0
        assert "serve.job" in rendered
        code, cp = self._cli("obs", "critical-path", str(saved))
        assert code == 0
        assert "100.0%" in cp

    def test_follow_requires_job_id(self, server_pair):
        server, _ = server_pair
        code, text = self._cli("jobs", "--port", str(server.port),
                               "--follow")
        assert code == 2
