"""HTTP acceptance suite for the service.

Covers the ISSUE 5 acceptance criterion end-to-end: two concurrent
jobs submitted over HTTP run to completion with disjoint GRAPE
leases, bit-identical results to the same run issued serially via
``repro run``, and admission control answers 429 once the queue
bound is hit.
"""

import io
import threading
import time

import pytest

from repro.serve import (JOB_SCHEMA, Backpressure, MemoryJobStore,
                         ServeClient, ServeHTTPError)

FE_SPEC = {"schema": JOB_SCHEMA, "kind": "force_eval",
           "params": {"n": 128}}

#: a fault plan that keeps a tiny run on its slot for a second, so a
#: test's next requests cannot race the run's end
HOLD_SLOT = "latency@batch=0,seconds=1.0"


def _run_spec(tiny_run, **over):
    doc = {"schema": JOB_SCHEMA, "kind": "run", "params": tiny_run}
    doc.update(over)
    return doc


class TestEndpoints:
    def test_healthz_reports_capacity(self, server_pair):
        server, client = server_pair
        h = client.healthz()
        assert h["status"] == "ok"
        assert h["slots"] == 2
        assert h["running"] == 0 and h["queued"] == 0

    def test_metrics_is_prometheus_text(self, server_pair):
        _, client = server_pair
        text = client.metrics()
        assert "repro_serve_queue_limit 16" in text
        assert "# TYPE repro_serve_jobs_running gauge" in text

    def test_unknown_job_is_404(self, server_pair):
        _, client = server_pair
        with pytest.raises(ServeHTTPError) as exc:
            client.job("j999999")
        assert exc.value.status == 404

    def test_malformed_spec_is_400(self, server_pair):
        _, client = server_pair
        with pytest.raises(ServeHTTPError) as exc:
            client.submit({"schema": JOB_SCHEMA, "kind": "run",
                           "color": "red"})
        assert exc.value.status == 400
        assert "unknown job field" in str(exc.value)

    def test_bad_kernels_is_400(self, server_pair):
        """The retired ``kernels`` and ``engine`` fields get the
        standard unknown-field rejection whatever they carry -- no
        silent-ignore shim."""
        _, client = server_pair
        for field, value in (("kernels", "numpy"), ("kernels", "python"),
                             ("kernels", None), ("engine", "serial"),
                             ("engine", "pipeline")):
            with pytest.raises(ServeHTTPError) as exc:
                client.submit({"schema": JOB_SCHEMA,
                               "kind": "force_eval",
                               "params": {"n": 64}, field: value})
            assert exc.value.status == 400
            assert f"unknown job field(s): {field}" in str(exc.value)

    def test_oversize_spec_is_413(self, server_pair):
        """A body above the cap is refused as too large, not
        truncated and mis-reported as malformed JSON."""
        _, client = server_pair
        with pytest.raises(ServeHTTPError) as exc:
            client.submit({"schema": JOB_SCHEMA, "kind": "force_eval",
                           "params": {"pad": "x" * (1 << 20)}})
        assert exc.value.status == 413
        assert "exceeds" in str(exc.value)

    def test_unknown_route_is_404(self, server_pair):
        _, client = server_pair
        with pytest.raises(ServeHTTPError) as exc:
            client._request("GET", "/teapot")
        assert exc.value.status == 404


class _BlockingVerify(MemoryJobStore):
    """A store whose integrity sweep blocks until released."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def verify(self):
        self.entered.set()
        self.release.wait(30)
        return super().verify()


class _BlockingGet(MemoryJobStore):
    """A store whose read of one armed job id blocks until released."""

    def __init__(self):
        super().__init__()
        self.armed = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def get(self, job_id):
        if job_id == self.armed:
            self.entered.set()
            self.release.wait(30)
        return super().get(job_id)


class TestStoreCallsOffTheLoop:
    def test_healthz_answers_while_a_job_read_is_parked(self, tmp_path,
                                                        serve_factory):
        """``GET /jobs/{id}`` reads the store on a thread, so a read
        that hangs (a slow fleet RPC) stalls no other connection."""
        store = _BlockingGet()
        with serve_factory(slots=1, workdir=tmp_path,
                           store=store) as (server, client):
            jid = client.submit(FE_SPEC)["id"]
            client.wait(jid, timeout=60)
            store.armed = jid
            got = {}
            reader = threading.Thread(
                target=lambda: got.update(client.job(jid)))
            reader.start()
            try:
                assert store.entered.wait(10)
                quick = ServeClient(port=server.port, timeout=5)
                assert quick.healthz()["status"] == "ok"
                assert not got
            finally:
                store.release.set()
                reader.join(30)
            assert got["id"] == jid and got["state"] == "done"

    def test_job_route_answers_while_store_sweep_runs(self, tmp_path,
                                                      serve_factory):
        """``GET /store`` runs the store's calls on a thread, so a
        slow integrity sweep holds no other route."""
        store = _BlockingVerify()
        with serve_factory(slots=1, workdir=tmp_path,
                           store=store) as (server, client):
            job = client.submit(FE_SPEC)
            snap = {}
            sweep = threading.Thread(
                target=lambda: snap.update(client.store()))
            sweep.start()
            try:
                assert store.entered.wait(10)
                quick = ServeClient(port=server.port, timeout=5)
                assert quick.job(job["id"])["id"] == job["id"]
                assert quick.healthz()["status"] == "ok"
                assert not snap
            finally:
                store.release.set()
                sweep.join(30)
            assert not sweep.is_alive()
            assert snap["schema"] == "repro.store/v1"
            assert snap["findings"] == []


class TestJobsOverHTTP:
    def test_submit_wait_events(self, server_pair):
        _, client = server_pair
        doc = client.submit(FE_SPEC)
        assert doc["state"] == "queued" and doc["id"].startswith("j")
        final = client.wait(doc["id"], timeout=60)
        assert final["state"] == "done"
        assert final["result"]["interactions"] > 0
        events = list(client.events(doc["id"]))
        kinds = [e["event"] for e in events]
        assert "leased" in kinds
        assert events[-1] == {"event": "state", "state": "done"}

    def test_a_hit_answered_at_submit_is_waited_without_a_request(
            self, tmp_path, serve_factory):
        """A cache hit's ``POST /jobs`` answer is already final, so
        ``wait`` on this thread returns it as is -- and it is what
        ``GET /jobs/{id}`` reads back."""
        with serve_factory(workdir=tmp_path, cache=True) as (server,
                                                              client):
            first = client.wait(client.submit(FE_SPEC)["id"], timeout=60)
            hit = client.submit(FE_SPEC)
            assert hit["state"] == "done" and hit["cache_hit"] is True
            asked = []
            client.job = asked.append
            assert client.wait(hit["id"], timeout=60) == hit
            assert not asked
            assert ServeClient(port=server.port).job(hit["id"]) == hit
            assert hit["result"]["digest"] == first["result"]["digest"]

    def test_cancel_queued_job(self, tmp_path, serve_factory, tiny_run):
        with serve_factory(slots=1, workdir=tmp_path) as (_, client):
            slow = client.submit(_run_spec(tiny_run, faults=HOLD_SLOT))
            victim = client.submit(FE_SPEC)
            doc = client.cancel(victim["id"])
            assert doc["state"] == "cancelled"
            assert client.wait(slow["id"],
                               timeout=120)["state"] == "done"

    def test_job_document_has_no_kernels_key(self, server_pair):
        _, client = server_pair
        doc = client.submit(FE_SPEC)
        assert "kernels" not in doc
        assert "kernels" not in client.wait(doc["id"], timeout=60)

    def test_jobs_listing(self, server_pair):
        _, client = server_pair
        a = client.submit(FE_SPEC)
        b = client.submit(FE_SPEC)
        listed = {d["id"] for d in client.jobs()}
        assert {a["id"], b["id"]} <= listed
        client.wait(a["id"], timeout=60)
        client.wait(b["id"], timeout=60)


class TestAcceptance:
    """The ISSUE 5 acceptance criterion, verbatim."""

    def _reference_digest(self, tmp_path, tiny_run):
        """The same tiny run issued serially via ``repro run``."""
        from repro import cli
        from repro.sim.checkpoint import load_checkpoint
        from repro.sim.recipes import state_digest
        ckpt = tmp_path / "reference.npz"
        rc = cli.main(["run", "--ngrid", str(tiny_run["ngrid"]),
                       "--steps", str(tiny_run["steps"]),
                       "--z-final", str(tiny_run["z_final"]),
                       "--checkpoint", str(ckpt)], out=io.StringIO())
        assert rc == 0
        sim = load_checkpoint(ckpt)
        return state_digest(sim.pos, sim.vel, sim.t)

    def test_concurrent_http_jobs_disjoint_leases_bit_identical(
            self, tmp_path, serve_factory, tiny_run):
        # long enough (~0.2 s) that the 20 ms poll below cannot miss
        # the window in which both jobs run: at 2 steps a job lasts
        # ~25 ms and the first poll lands within ~5 ms of its end
        tiny_run["steps"] = 24
        expected = self._reference_digest(tmp_path, tiny_run)
        with serve_factory(slots=2, workdir=tmp_path / "serve") as \
                (server, client):
            a = client.submit(_run_spec(tiny_run))
            b = client.submit(_run_spec(tiny_run))
            # both jobs must hold a slot at the same time
            deadline = time.monotonic() + 30
            seen_concurrent = False
            while time.monotonic() < deadline:
                h = client.healthz()
                if h["running"] == 2 and h["leases_in_use"] == 2:
                    seen_concurrent = True
                    break
                time.sleep(0.02)
            assert seen_concurrent, "jobs never ran concurrently"
            da = client.wait(a["id"], timeout=120)
            db = client.wait(b["id"], timeout=120)
            assert da["state"] == "done" and db["state"] == "done"
            # disjoint GRAPE leases
            assert da["lease"] != db["lease"]
            # bit-identical to the serial CLI run
            assert da["result"]["digest"] == expected
            assert db["result"]["digest"] == expected

    def test_admission_control_returns_429(self, tmp_path,
                                           serve_factory, tiny_run):
        with serve_factory(slots=1, queue_depth=1,
                           workdir=tmp_path) as (_, client):
            runner = client.submit(_run_spec(tiny_run, faults=HOLD_SLOT))
            # wait until the slow job holds the slot, then fill the
            # single queue seat deterministically
            deadline = time.monotonic() + 30
            while (client.job(runner["id"])["state"]
                   not in ("scheduled", "running")):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.submit(FE_SPEC)
            with pytest.raises(Backpressure) as exc:
                client.submit(FE_SPEC)
            assert exc.value.retry_after >= 1.0
            client.wait(runner["id"], timeout=120)


class TestSweepAcceptance:
    """The ``sweep`` kind across the two adapters: one body, so the
    served rows are the table ``repro sweep`` prints -- on the host
    arithmetic both use, since the rows are counts."""

    def test_served_rows_equal_the_cli_table_on_host_arithmetic(
            self, tmp_path, serve_factory):
        from repro import cli
        params = {"n": 1500, "theta": 0.6, "seed": 11}
        out = io.StringIO()
        assert cli.main(["sweep", "--n", "1500", "--theta", "0.6",
                         "--seed", "11"], out=out) == 0
        table = [line.split() for line in out.getvalue().splitlines()]
        with serve_factory(slots=1, workdir=tmp_path) as (server, client):
            doc = client.submit({"schema": JOB_SCHEMA, "kind": "sweep",
                                 "params": params})
            final = client.wait(doc["id"], timeout=120)
            assert final["state"] == "done" and final["lease"]
            assert final["result"]["n"] == 1500
            rows = final["result"]["rows"]
            assert list(rows[0]) == ["n_crit", "n_g", "mean_list",
                                     "interactions"]
            assert [[str(v) for v in r.values()] for r in rows] \
                == table[2:]
            # counts need no GRAPE: the job held its lease but paid
            # for no emulated arithmetic
            metrics = server.scheduler.metrics
            assert metrics.value("tree.interactions_total") > 0
            assert metrics.value("grape.interactions_total") == 0
            assert metrics.value("grape.force_calls") == 0
