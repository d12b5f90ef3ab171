"""The driver leaves nothing behind: no server or client thread, no
worker, store or resource-tracker process, no temp directory."""

import multiprocessing
import threading

import pytest

import run
import spine_config


@pytest.fixture
def confined(monkeypatch):
    import tempfile
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    for var in ("XDG_CACHE_HOME", "TMPDIR"):
        monkeypatch.setenv(var, "unset")
    spine_config.confine_writes()


@pytest.mark.parametrize("workload", ["serve_fleet", "force_small_groups"])
def test_a_traced_run_leaves_no_thread_process_or_directory(workload,
                                                            confined):
    before = set(threading.enumerate())
    children = spine_config.child_pids()
    doc = run.run_one(workload, seed=4, seconds=0.3, trace=True, smoke=True)
    assert doc["correct"], doc["problems"]
    assert set(threading.enumerate()) <= before
    assert multiprocessing.active_children() == []
    # every child, the shared-memory resource tracker too, is reaped
    assert spine_config.child_pids() <= children
    assert not list((spine_config.OUT / "tmp").iterdir())


def test_stop_children_reaps_what_nobody_waits_for_and_spares_the_rest():
    import subprocess
    import sys
    from multiprocessing import shared_memory
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    spared = subprocess.Popen(sleeper)
    try:
        keep = spine_config.child_pids()
        assert spared.pid in keep
        stray = subprocess.Popen(sleeper)
        block = shared_memory.SharedMemory(create=True, size=64)
        block.close()
        block.unlink()      # the tracker it started is still running
        assert len(spine_config.child_pids() - keep) >= 2
        spine_config.stop_children(keep=keep)
        assert spine_config.child_pids() == keep
        assert stray.pid not in keep and spared.poll() is None
    finally:
        spared.kill()
        spared.wait()


def test_a_failing_setup_still_tears_the_servers_down(confined, monkeypatch):
    import spine_serve
    before = set(threading.enumerate())
    monkeypatch.setitem(spine_config.FIXED_CONFIG, "hot_specs", 2)

    def boom(self):
        raise RuntimeError("client unavailable")

    workload = spine_serve.ServeWorkload(
        "serve_fleet", spine_config.SIZES["smoke"]["serve_fleet"], 1)
    monkeypatch.setattr(spine_serve.ServeWorkload, "_client", boom)
    with pytest.raises(RuntimeError, match="client unavailable"):
        workload.setup(None)
    workload.teardown()
    assert set(threading.enumerate()) <= before
    assert not list((spine_config.OUT / "tmp").iterdir())
