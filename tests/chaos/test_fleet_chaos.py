"""Fleet chaos: the network store under injected transport faults,
and a real 3-worker fleet losing a member to SIGKILL mid-job.

Two storylines:

* **Transport faults never corrupt the store.**  A
  :class:`~repro.fleet.remote.RemoteJobStore` driven through a
  :class:`~repro.faults.FaultInjector` at site ``fleet.rpc`` sees
  latency, transient errors and truncated payloads; every call either
  succeeds (absorbed by the bounded retry budget) or raises a *typed*
  store error -- and afterwards the backing store verifies clean.

* **SIGKILL one of three workers mid-job.**  Three ``repro serve``
  processes share one ``repro store serve`` process over TCP; the
  worker owning a checkpointing job is killed -9, a survivor takes the
  job over after the claim TTL, and the final state digest is
  bit-identical to an uninterrupted run.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.faults import FaultInjector, parse_fault_plan
from repro.fleet import PayloadCorrupt, RemoteJobStore, \
    StoreUnavailable
from repro.serve import StoreError
from repro.serve.client import ServeClient
from tests.fleet.conftest import live_store_server

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def backing(tmp_path):
    from repro.serve import SQLiteJobStore
    s = SQLiteJobStore(tmp_path / "jobs.db")
    yield s
    s.close()


@pytest.fixture
def store_server(backing):
    with live_store_server(backing) as server:
        yield server


class TestTransportFaultSweep:
    def _remote(self, server, plan, retries=3):
        return RemoteJobStore(server.url, retries=retries,
                              backoff=0.01,
                              fault_injector=FaultInjector(
                                  parse_fault_plan(plan)))

    def test_transient_errors_within_budget_are_absorbed(
            self, store_server):
        st = self._remote(store_server,
                          "transient_error@site=fleet.rpc,count=3")
        assert st.list() == []  # 3 injected failures, 4 attempts
        assert st.verify() == []

    def test_exhausted_retries_raise_store_unavailable(
            self, store_server):
        st = self._remote(store_server,
                          "transient_error@site=fleet.rpc,count=99",
                          retries=2)
        with pytest.raises(StoreUnavailable):
            st.list()

    def test_truncated_payloads_raise_payload_corrupt(
            self, store_server):
        st = self._remote(store_server,
                          "corrupt_result@site=fleet.rpc,count=99",
                          retries=2)
        with pytest.raises(PayloadCorrupt):
            st.cache_stats()

    def test_latency_injection_delays_but_succeeds(self,
                                                   store_server):
        st = self._remote(store_server,
                          "latency@site=fleet.rpc,seconds=0.05,"
                          "count=1")
        t0 = time.monotonic()
        assert st.list() == []
        assert time.monotonic() - t0 >= 0.05

    def test_fault_sweep_never_corrupts_the_store(self, backing,
                                                  store_server):
        """Writes under every transport fault kind: each call either
        lands exactly once or fails typed; the store verifies clean
        and every successful write is durable and readable."""
        from tests.fleet.test_remote_store import seeded_doc
        plans = ["transient_error@site=fleet.rpc,prob=0.4",
                 "corrupt_result@site=fleet.rpc,prob=0.4",
                 "latency@site=fleet.rpc,seconds=0.002,prob=0.5"]
        written = []
        for round_i, plan in enumerate(plans):
            st = self._remote(store_server, plan, retries=4)
            for i in range(6):
                try:
                    doc = seeded_doc(st)
                except StoreError:
                    continue  # typed failure: acceptable outcome
                written.append(doc["id"])
                try:
                    st.append_event(doc["id"], {"event": "submitted",
                                                "round": round_i})
                except StoreError:
                    pass
        # the store itself must be pristine regardless of the chaos
        assert backing.verify() == []
        clean = RemoteJobStore(store_server.url)
        assert clean.verify() == []
        ids = {d["id"] for d in clean.list()}
        assert set(written) <= ids
        for jid in written:
            assert clean.get(jid)["state"] == "queued"

    def test_retries_are_counted(self, store_server):
        from repro.obs import MetricsRegistry
        m = MetricsRegistry()
        st = RemoteJobStore(store_server.url, retries=3, backoff=0.01,
                            fault_injector=FaultInjector(
                                parse_fault_plan(
                                    "transient_error@site=fleet.rpc,"
                                    "count=2")),
                            metrics=m)
        assert st.list() == []
        assert m.snapshot()["fleet.rpc_retries"]["value"] == 2


# -- the 3-worker SIGKILL drill ---------------------------------------

RUN_SPEC = {
    "kind": "run",
    "params": {"ngrid": 16, "steps": 48, "z_final": 12.0},
    "checkpoint_every": 1,
}


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def popen_repro(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen([sys.executable, "-m", "repro", *args],
                            cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def start_store(port, tmp_path):
    return popen_repro(["store", "serve",
                        "--store", str(tmp_path / "jobs.db"),
                        "--port", str(port)])


def start_worker(port, store_port, tmp_path, name):
    return popen_repro(["serve", "--host", "127.0.0.1",
                        "--port", str(port), "--slots", "1",
                        "--no-cache", "--worker-id", name,
                        "--workdir", str(tmp_path / name),
                        "--store",
                        f"http://127.0.0.1:{store_port}",
                        "--claim-ttl", "4"])


def wait_healthy(client, proc, timeout=30.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        if proc.poll() is not None:
            raise AssertionError(
                f"process exited early (rc={proc.returncode})")
        try:
            return client.healthz()
        except OSError:
            time.sleep(0.1)
    raise TimeoutError("server never became healthy")


def wait_for_progress(client, job_id, steps=2, timeout=120.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        doc = client.job(job_id)
        if doc["state"] in ("done", "failed", "cancelled"):
            raise AssertionError(
                f"job reached {doc['state']} before the kill")
        if (doc["state"] == "running"
                and doc["progress"]["steps_done"] >= steps):
            return doc
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} never made progress")


@pytest.mark.slow
class TestFleetKillTakeover:
    def test_sigkill_one_of_three_workers_is_bit_identical(
            self, tmp_path):
        store_port = free_port()
        ports = {n: free_port() for n in ("w1", "w2", "w3")}
        procs = {}
        try:
            procs["store"] = start_store(store_port, tmp_path)
            clients = {n: ServeClient(port=p, timeout=10.0)
                       for n, p in ports.items()}
            for n, p in ports.items():
                procs[n] = start_worker(p, store_port, tmp_path, n)
            for n in ports:
                wait_healthy(clients[n], procs[n])
            # all three appear in every worker's fleet view
            fleet = clients["w1"].fleet()
            assert {w["worker"] for w in fleet["workers"]} == \
                {"w1", "w2", "w3"}
            assert fleet["live"] == 3

            job = clients["w1"].submit(RUN_SPEC)
            wait_for_progress(clients["w1"], job["id"], steps=2)
            owner = clients["w1"].job(job["id"])["worker"]
            assert owner in ports

            os.kill(procs[owner].pid, signal.SIGKILL)
            procs[owner].wait(timeout=30)
            survivor = next(n for n in ports if n != owner)

            done = clients[survivor].wait(job["id"], timeout=300)
            assert done["state"] == "done", done.get("error")
            assert done["attempt"] >= 1
            assert done["worker"] != owner
            events = [e["event"]
                      for e in clients[survivor].events(job["id"])]
            assert "resumed" in events

            # bit-identity against an uninterrupted reference run
            ref = clients[survivor].wait(
                clients[survivor].submit(RUN_SPEC)["id"], timeout=300)
            assert ref["state"] == "done"
            assert ref["result"]["digest"] == done["result"]["digest"]

            # the dead worker's registry row went stale, not missing
            fleet = clients[survivor].fleet()
            dead_rows = [w for w in fleet["workers"]
                         if w["worker"] == owner]
            assert dead_rows and not dead_rows[0]["live"]

            # and the shared store survived the kill intact
            snap = clients[survivor].store()
            assert snap["findings"] == []
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
