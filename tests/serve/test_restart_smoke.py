"""Restart smoke: a real server process dies mid-job (SIGKILL) and a
restarted process on the same store finishes the job bit-identically.

Unlike the in-process crash drills in ``test_store_durability`` this
goes through the real deployment surface -- ``python -m repro serve``
subprocesses, the SQLite store file on disk, the HTTP wire -- and an
actual ``kill -9``, so nothing gets a chance to flush gracefully.
The restarted server reuses the first one's worker id (the default is
``host:port``), so it reclaims its own orphaned jobs immediately
instead of waiting out the claim TTL.

The same flow runs in CI (see ``.github/workflows/ci.yml``).
"""

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.client import ServeClient

ROOT = Path(__file__).resolve().parents[2]

#: slow enough to be killed mid-flight (a step is ~20 ms at this N, so
#: the kill window is the ~1 s of steps left after progress is
#: observed), fast enough for a smoke
RUN_SPEC = {
    "kind": "run",
    "params": {"ngrid": 16, "steps": 48, "z_final": 12.0},
    "checkpoint_every": 1,
}


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_server(port, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--slots", "1", "--no-cache",
         "--workdir", str(tmp_path / "work"),
         "--store", str(tmp_path / "jobs.db"),
         "--claim-ttl", "5"],
        cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_healthy(client, proc, timeout=30.0):
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        if proc.poll() is not None:
            raise AssertionError(
                f"server exited early (rc={proc.returncode})")
        try:
            return client.healthz()
        except OSError:
            time.sleep(0.1)
    raise TimeoutError("server never became healthy")


def wait_for_progress(client, job_id, steps=2, timeout=120.0):
    """Poll until the job has at least ``steps`` steps done (so at
    least one checkpoint generation exists on disk)."""
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        doc = client.job(job_id)
        if doc["state"] in ("done", "failed", "cancelled"):
            raise AssertionError(
                f"job reached {doc['state']} before the kill -- "
                "enlarge RUN_SPEC")
        if (doc["state"] == "running"
                and doc["progress"]["steps_done"] >= steps):
            return doc
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} never made progress")


class TestRestartSmoke:
    def test_kill9_restart_resumes_bit_identical(self, tmp_path):
        port = free_port()
        client = ServeClient(port=port, timeout=10.0)
        first = start_server(port, tmp_path)
        try:
            health = wait_healthy(client, first)
            assert health["store"] == "sqlite"

            job = client.submit(RUN_SPEC)
            wait_for_progress(client, job["id"], steps=2)

            first.kill()                          # SIGKILL, no flush
            first.wait(timeout=30)

            second = start_server(port, tmp_path)
            try:
                health = wait_healthy(client, second)
                # same worker id (host:port) => orphans reclaimed at
                # startup, no TTL wait
                done = client.wait(job["id"], timeout=300)
                assert done["state"] == "done", done.get("error")
                assert done["attempt"] >= 1
                events = [e["event"]
                          for e in client.events(job["id"])]
                assert "resumed" in events, \
                    "restart must continue from the checkpoint, " \
                    "not step 0"

                # bit-identity: an uninterrupted run of the same spec
                # on the restarted server produces the same digest
                ref = client.wait(client.submit(RUN_SPEC)["id"],
                                  timeout=300)
                assert ref["state"] == "done"
                assert "resumed" not in [
                    e["event"] for e in client.events(ref["id"])]
                assert ref["result"]["digest"] == \
                    done["result"]["digest"]

                # the store snapshot agrees and is intact
                snap = client.store()
                assert snap["jobs"].get("done") == 2
                assert snap["findings"] == []
            finally:
                second.kill()
                second.wait(timeout=30)
        finally:
            if first.poll() is None:
                first.kill()
                first.wait(timeout=30)
