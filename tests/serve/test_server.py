"""HTTP acceptance suite for the service.

Covers the ISSUE 5 acceptance criterion end-to-end: two concurrent
jobs submitted over HTTP run to completion in distinct slots, each
on its own GRAPE, bit-identical results to the same run issued
serially via ``repro run``, and admission control answers 429 once
the queue bound is hit.
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

    @pytest.mark.parametrize("plan", [
        "nonsense_kind@batch=1", "transient_error@site=grape.compte",
        "latency@site=grape.compute", "corrupt_result@batch=1"],
        ids=["unknown-kind", "site-typo", "latency-at-device",
             "corrupt-at-batch"])
    def test_bad_fault_plan_is_400_at_admission(self, server_pair, plan):
        """A plan no hook could fire is refused when the job is
        submitted, not when a slot runs it."""
        server, client = server_pair
        with pytest.raises(ServeHTTPError) as exc:
            client.submit({"schema": JOB_SCHEMA, "kind": "force_eval",
                           "params": {"n": 64}, "faults": plan})
        assert exc.value.status == 400
        assert "bad fault plan" in str(exc.value)

    def test_rpc_site_plan_is_400_at_admission(self, server_pair):
        """A job runs against its worker's store, whose client has no
        injector of its own: ``fleet.rpc`` would never fire there."""
        _, client = server_pair
        with pytest.raises(ServeHTTPError) as exc:
            client.submit({"schema": JOB_SCHEMA, "kind": "force_eval",
                           "params": {"n": 64},
                           "faults": "corrupt_result@site=fleet.rpc"})
        assert exc.value.status == 400
        assert "'fleet.rpc'" in str(exc.value)

    def test_bad_fault_plan_is_exit_2_from_submit(self, server_pair):
        import io
        from repro.cli import main
        _, client = server_pair
        out = io.StringIO()
        code = main(["submit", "--port", str(client.port), "--kind",
                     "force_eval", "-p", "n=64", "--faults",
                     "latency@site=grape.compute"], out=out)
        assert code == 2
        assert "bad fault plan" in out.getvalue()

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


def _until(predicate, timeout=30.0):
    """Poll ``predicate`` until it holds (a state to reach, not an
    interleaving to force); fails the test after ``timeout``."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


@pytest.fixture
def gate(monkeypatch):
    """Hold every job at the start of its run until ``gate.set()``; a
    cancel or pause request ends the hold as the runner would."""
    from repro.serve import scheduler as scheduler_mod
    from repro.serve.jobs import JobCancelled, JobPaused
    real, opened = scheduler_mod.run_job, threading.Event()

    def held(job, **kw):
        while not opened.wait(0.01):
            if job.cancel_event.is_set():
                raise JobCancelled(job.id)
            if job.pause_event.is_set():
                raise JobPaused(job.id)
        return real(job, **kw)

    monkeypatch.setattr(scheduler_mod, "run_job", held)
    return opened


def _hold(client, job_id, seconds, into):
    """Long-poll ``job_id`` on a thread; its answer (or error) and the
    time it came land in ``into``."""
    def run():
        try:
            into.append(client._request(
                "GET", f"/jobs/{job_id}?wait={seconds}"))
        except Exception as e:  # a server that went away
            into.append(e)
        into.append(time.monotonic())
    t = threading.Thread(target=run)
    t.start()
    return t


def _waiting(sched, job_id):
    """How many waits on ``job_id`` are registered with the scheduler."""
    return sum(1 for j, f in sched._watchers if j == job_id
               and not f.done())


class _CountingGet(MemoryJobStore):
    """A store that counts its ``get`` calls."""

    def __init__(self):
        super().__init__()
        self.gets = 0

    def get(self, job_id):
        self.gets += 1
        return super().get(job_id)


class TestLongPoll:
    """``GET /jobs/{id}?wait=S``: held on the loop for the job's change
    signal, answered by the write that ends the run."""

    def _running(self, client, spec=FE_SPEC):
        jid = client.submit(spec)["id"]
        _until(lambda: client.job(jid)["state"] == "running")
        return jid

    def test_held_requests_hold_no_thread(self, tmp_path, serve_factory,
                                          gate):
        """More held requests than the default executor has threads,
        and every other route still answers at once."""
        import os
        n = max(12, min(32, (os.cpu_count() or 1) + 4) + 2)
        with serve_factory(slots=2, workdir=tmp_path) as (server,
                                                          client):
            ids = [self._running(client, {**FE_SPEC, "params": {
                "n": 128, "seed": k}}) for k in range(2)]
            answers = [[] for _ in range(n)]
            threads = [_hold(ServeClient(port=server.port), ids[k % 2],
                             30, answers[k]) for k in range(n)]
            _until(lambda: sum(_waiting(server.scheduler, j)
                               for j in ids) == n)
            quick = ServeClient(port=server.port, timeout=5)
            t0 = time.monotonic()
            assert quick.healthz()["status"] == "ok"
            assert time.monotonic() - t0 < 1.0
            t0 = time.monotonic()
            assert quick.submit(FE_SPEC)["state"] == "queued"
            assert time.monotonic() - t0 < 1.0
            assert all(not a for a in answers)
            gate.set()
            for t in threads:
                t.join(30)
            assert all(a[0]["state"] == "done" for a in answers)

    def test_a_run_that_ends_between_read_and_wait_is_seen(
            self, tmp_path, gate):
        """The job finishes inside the long-poll's own read, which then
        returns the job as it was before: only a wake registered
        before that read can answer before ``wait`` runs out (the
        store is read again only every ``poll_interval``, 30 s)."""
        from repro.serve import Job, Scheduler
        from tests.serve.conftest import serving
        sched = Scheduler(slots=1, workdir=tmp_path, cache=False,
                          poll_interval=30.0)
        with serving(sched) as (server, client):
            jid = self._running(client)
            real_get, hooked = sched.get, threading.Event()

            def get(job_id):
                job = real_get(job_id)
                if job_id != jid or hooked.is_set():
                    return job
                hooked.set()
                before = Job.from_store_doc(job.to_store_doc())
                gate.set()
                assert sched.wait(jid, timeout=30)
                return before

            sched.get = get
            t0 = time.monotonic()
            doc = client._request("GET", f"/jobs/{jid}?wait=10")
            assert hooked.is_set()
            assert doc["state"] == "done"
            assert time.monotonic() - t0 < 5.0

    def test_stop_with_held_requests_is_prompt(self, tmp_path, gate):
        """Requests held on a job that never runs (queued behind a
        held one), more of them than the default executor has
        threads: ``stop()`` still returns at once."""
        import os
        from repro.serve import Scheduler
        from tests.serve.conftest import serving
        n = min(32, (os.cpu_count() or 1) + 4) + 2
        sched = Scheduler(slots=1, workdir=tmp_path, cache=False)
        with serving(sched) as (server, client):
            self._running(client)
            jid = client.submit(FE_SPEC)["id"]
            held = [_hold(ServeClient(port=server.port), jid, 60, [])
                    for _ in range(n)]
            _until(lambda: _waiting(sched, jid) == n)
            t0 = time.monotonic()
        assert time.monotonic() - t0 < 2.0
        for t in held:
            t.join(10)
            assert not t.is_alive()

    def test_a_paused_job_holds_until_wait_runs_out_without_spinning(
            self, tmp_path, serve_factory, gate):
        store = _CountingGet()
        with serve_factory(slots=1, workdir=tmp_path, store=store,
                           poll_interval=0.25) as (server, client):
            jid = self._running(client)
            client.pause(jid)
            _until(lambda: client.job(jid)["state"] == "paused")
            before, t0 = store.gets, time.monotonic()
            doc = client._request("GET", f"/jobs/{jid}?wait=1.0")
            held = time.monotonic() - t0
            assert doc["state"] == "paused"
            assert 0.95 <= held < 2.0
            # one read per poll_interval, not a spin
            assert store.gets - before <= 1.0 / 0.25 + 2

    def test_the_answer_is_the_plain_get_and_a_bad_wait_is_400(
            self, tmp_path, serve_factory, gate):
        with serve_factory(slots=1, workdir=tmp_path) as (server,
                                                          client):
            jid = self._running(client)
            answer = []
            held = _hold(client, jid, 30, answer)
            _until(lambda: _waiting(server.scheduler, jid))
            gate.set()
            held.join(30)
            assert answer[0]["state"] == "done"
            assert answer[0] == client.job(jid)
            # answered at once when the job is already terminal
            assert client._request(
                "GET", f"/jobs/{jid}?wait=30") == answer[0]
            for bad in ("abc", "-1", "nan"):
                with pytest.raises(ServeHTTPError) as e:
                    client._request("GET", f"/jobs/{jid}?wait={bad}")
                assert e.value.status == 400
            with pytest.raises(ServeHTTPError) as e:
                client._request("GET", "/jobs/j999999?wait=1")
            assert e.value.status == 404

    def test_the_event_stream_closes_at_the_terminal_write(
            self, tmp_path, serve_factory, gate):
        with serve_factory(slots=1, workdir=tmp_path) as (server,
                                                          client):
            jid = self._running(client)
            events, closed = [], []

            def follow():
                events.extend(client.events(jid))
                closed.append(time.monotonic())

            reader = threading.Thread(target=follow)
            reader.start()
            _until(lambda: _waiting(server.scheduler, jid))
            t0 = time.monotonic()
            gate.set()
            reader.join(10)
            assert closed and closed[0] - t0 < 1.0
            assert events[-1] == {"event": "state", "state": "done"}


class _CountingEvents(MemoryJobStore):
    """A store that counts the event rows its ``events`` returns."""

    def __init__(self):
        super().__init__()
        self.rows = 0

    def events(self, job_id, *after):
        out = super().events(job_id, *after)
        self.rows += len(out)
        return out


class TestChangeSignal:
    """Every write a worker makes about a job wakes that job's waiters:
    its slot's progress events and a cancel that finishes it, too."""

    def test_following_a_run_reads_each_event_row_once(
            self, tmp_path, serve_factory, gate, tiny_run):
        store = _CountingEvents()
        with serve_factory(slots=1, workdir=tmp_path,
                           store=store) as (server, client):
            jid = client.submit(_run_spec({**tiny_run, "steps": 6}))["id"]
            _until(lambda: client.job(jid)["state"] == "running")
            streamed = []
            reader = threading.Thread(
                target=lambda: streamed.extend(client.events(jid)))
            reader.start()
            _until(lambda: _waiting(server.scheduler, jid))
            gate.set()
            reader.join(60)
            assert not reader.is_alive()
            assert client.job(jid)["state"] == "done"
            log = MemoryJobStore.events(store, jid)  # uncounted
            assert [e["event"] for e in log].count("step") == 6
            assert streamed == log + [{"event": "state", "state": "done"}]
            assert store.rows == len(log)

    def test_cancelling_a_queued_job_answers_its_long_poll(
            self, tmp_path, gate):
        """Only an idle slot would read the store again here (every
        30 s): the cancel itself must wake the held request."""
        from repro.serve import Scheduler
        from tests.serve.conftest import serving
        sched = Scheduler(slots=1, workdir=tmp_path, cache=False,
                          poll_interval=30.0)
        with serving(sched) as (server, client):
            held_slot = client.submit(FE_SPEC)["id"]
            _until(lambda: client.job(held_slot)["state"] == "running")
            jid = client.submit(FE_SPEC)["id"]
            answer = []
            held = _hold(ServeClient(port=server.port), jid, 5, answer)
            _until(lambda: _waiting(sched, jid))
            t0 = time.monotonic()
            assert client.cancel(jid)["state"] == "cancelled"
            held.join(10)
            assert not held.is_alive()
            assert answer[0]["state"] == "cancelled"
            assert answer[1] - t0 < 1.0
            gate.set()
