"""Scheduler behaviour: admission control, ordering, leases,
pause/resume.  Everything here drives the scheduler directly (no
HTTP); the wire layer has its own suite in test_server.py."""

import time

import pytest

from repro.serve import (AdmissionError, JobError, JobSpec, LeaseBroker,
                         LeaseError, Scheduler)

FE = dict(kind="force_eval", params={"n": 128})


@pytest.fixture
def sched(tmp_path):
    s = Scheduler(slots=1, queue_depth=3, workdir=tmp_path).start()
    yield s
    s.stop()


class TestAdmission:
    def test_queue_bound_rejects_with_retry_after(self, tmp_path):
        s = Scheduler(slots=1, queue_depth=2, workdir=tmp_path)
        # not started: jobs stay queued, so the bound is deterministic
        s.submit(JobSpec(**FE))
        s.submit(JobSpec(**FE))
        with pytest.raises(AdmissionError) as exc:
            s.submit(JobSpec(**FE))
        assert exc.value.retry_after >= 1.0
        assert s.metrics.value("serve.jobs_rejected") == 1
        assert s.metrics.value("serve.queue_depth") == 2
        s.stop()

    def test_submit_after_stop_rejected(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path).start()
        s.stop()
        with pytest.raises(AdmissionError):
            s.submit(JobSpec(**FE))


class TestExecution:
    def test_job_runs_to_done_with_lease_and_metrics(self, sched):
        job = sched.submit(JobSpec(**FE))
        assert sched.wait(job.id, timeout=60)
        assert job.state == "done"
        assert job.error is None
        assert job.lease is not None
        assert job.result["interactions"] > 0
        assert sched.metrics.value("serve.jobs_done") == 1
        assert sched.metrics.value("serve.leases_in_use") == 0

    def test_lease_is_back_before_the_terminal_state_is_visible(
            self, sched, monkeypatch):
        """``wait()`` returning means the slot is free: the lease is
        released before ``done`` is published, never after.  (It used
        to go back in a ``finally`` behind the publish, so under load
        the gauge could still read 1 right after ``wait()``.)"""
        at_release = []
        release = sched.broker.release

        def spy(lease):
            at_release.extend(j.state for j in sched.jobs()
                              if j.lease == lease.id)
            release(lease)

        monkeypatch.setattr(sched.broker, "release", spy)
        for seed in range(30):
            job = sched.submit(JobSpec(kind="force_eval",
                                       params={"n": 64, "seed": seed}))
            assert sched.wait(job.id, timeout=60)
            assert job.state == "done"
            assert sched.metrics.value("serve.leases_in_use") == 0
        assert at_release == ["running"] * 30

    def test_pipeline_job_matches_serial_digest(self, tmp_path):
        """A served run builds its own thread-pool engine: the same
        digest at one pool thread and at two, pool threads gone when it
        is done, nothing forked from this (threaded) process."""
        import multiprocessing
        import threading
        params = {"ngrid": 6, "steps": 2, "z_final": 12.0}
        s = Scheduler(slots=1, workdir=tmp_path, cache=False).start()
        serial = s.submit(JobSpec(kind="run", params=params, workers=1))
        piped = s.submit(JobSpec(kind="run", params=params, workers=2))
        assert s.wait(serial.id, timeout=120)
        assert s.wait(piped.id, timeout=120)
        try:
            assert (serial.state, piped.state) == ("done", "done")
            assert piped.result["digest"] == serial.result["digest"]
            assert not [t for t in threading.enumerate()
                        if t.name.startswith("repro-exec")]
            assert multiprocessing.active_children() == []
        finally:
            s.stop()

    def test_failed_job_leaves_scheduler_serving(self, sched):
        bad = sched.submit(JobSpec(kind="run", params={"ngrid": 6,
                                                       "steps": 1},
                                   faults="transient_error@site=grape.compute,"
                                          "call=0,count=9",
                                   max_retries=0))
        good = sched.submit(JobSpec(**FE))
        assert sched.wait(bad.id, timeout=60)
        assert sched.wait(good.id, timeout=60)
        assert bad.state == "failed"
        assert "TransientBackendError" in bad.error
        assert good.state == "done"
        assert sched.metrics.value("serve.jobs_failed") == 1

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        s = Scheduler(slots=1, queue_depth=4, workdir=tmp_path)
        victim = s.submit(JobSpec(**FE))
        s.cancel(victim.id)
        assert victim.state == "cancelled"
        s.stop()

    def test_unknown_job_raises_keyerror(self, sched):
        with pytest.raises(KeyError):
            sched.get("j999999")


class TestOrdering:
    def _drain_order(self, s, jobs):
        for j in jobs:
            assert s.wait(j.id, timeout=120)
        done = [j for j in jobs if j.state == "done"]
        return [j.id for j in sorted(done,
                                     key=lambda j: j.started_at)]

    def test_priority_beats_fifo(self, tmp_path):
        s = Scheduler(slots=1, queue_depth=8, workdir=tmp_path)
        low = s.submit(JobSpec(**FE, priority=0))
        high = s.submit(JobSpec(**FE, priority=5))
        s.start()
        order = self._drain_order(s, [low, high])
        assert order.index(high.id) < order.index(low.id)
        s.stop()

    def test_fair_share_interleaves_tenants(self, tmp_path):
        s = Scheduler(slots=1, queue_depth=8, workdir=tmp_path)
        a1 = s.submit(JobSpec(**FE, tenant="a"))
        a2 = s.submit(JobSpec(**FE, tenant="a"))
        a3 = s.submit(JobSpec(**FE, tenant="a"))
        b1 = s.submit(JobSpec(**FE, tenant="b"))
        s.start()
        order = self._drain_order(s, [a1, a2, a3, b1])
        # b may not be starved to the back of a's backlog
        assert order.index(b1.id) <= 1
        s.stop()


class TestPauseResume:
    def test_pause_checkpoints_and_resume_is_bit_identical(
            self, tmp_path):
        params = {"ngrid": 6, "steps": 4, "z_final": 12.0}
        ref = Scheduler(slots=1, workdir=tmp_path / "ref").start()
        rj = ref.submit(JobSpec(kind="run", params=params,
                                checkpoint_every=1))
        assert ref.wait(rj.id, timeout=120) and rj.state == "done"
        ref.stop()

        s = Scheduler(slots=1, workdir=tmp_path / "paused").start()
        job = s.submit(JobSpec(kind="run", params=params,
                               checkpoint_every=1))
        s.pause(job.id)  # flag observed after the first step
        assert s.wait(job.id, timeout=120)
        assert job.state == "paused"
        assert job.steps_done < params["steps"]
        s.resume(job.id)
        assert s.wait(job.id, timeout=120)
        assert job.state == "done"
        # resumed from checkpoint, not restarted: digests agree with
        # the uninterrupted reference run
        assert job.result["digest"] == rj.result["digest"]
        assert any(e["event"] == "resumed" for e in s.events(job.id))
        s.stop()

    def test_resume_of_non_paused_job_raises(self, sched):
        job = sched.submit(JobSpec(**FE))
        assert sched.wait(job.id, timeout=60)
        with pytest.raises(JobError):
            sched.resume(job.id)


class TestLeaseBroker:
    def test_exhaustion_then_release(self):
        from repro.obs import MetricsRegistry
        m = MetricsRegistry()
        broker = LeaseBroker(2, metrics=m)
        l1, l2 = broker.acquire(), broker.acquire()
        assert {l1.slot, l2.slot} == {0, 1}
        assert m.value("serve.leases_in_use") == 2
        with pytest.raises(LeaseError):
            broker.acquire(timeout=0.05)
        broker.release(l1)
        l3 = broker.acquire(timeout=1.0)
        assert l3.slot == l1.slot
        broker.release(l2)
        broker.release(l3)
        assert m.value("serve.leases_in_use") == 0
        broker.close()

    def test_double_release_raises(self):
        broker = LeaseBroker(1)
        lease = broker.acquire()
        broker.release(lease)
        with pytest.raises(LeaseError, match="double release"):
            broker.release(lease)
        broker.close()

    def test_leased_contexts_are_disjoint_systems(self):
        broker = LeaseBroker(2)
        l1, l2 = broker.acquire(), broker.acquire()
        assert l1.system is not l2.system
        assert l1.system.pipeline is not l2.system.pipeline
        assert set(l1.board_set).isdisjoint(l2.board_set)
        # both model the same paper configuration
        assert l1.system.describe() == l2.system.describe()
        broker.release(l1)
        broker.release(l2)
        broker.close()

    @staticmethod
    def _blocked_acquire(broker, m, waits):
        """Start a thread in a blocking ``acquire()``; return it and
        its outcome list once the broker has counted the wait."""
        import threading
        out = []

        def waiter():
            try:
                out.append(broker.acquire())
            except LeaseError as e:
                out.append(e)

        t = threading.Thread(target=waiter)
        t.start()
        deadline = time.monotonic() + 5.0
        while (m.value("serve.lease_waits") < waits
               and time.monotonic() < deadline):
            time.sleep(0.005)
        return t, out

    def test_every_wait_is_counted(self):
        """``serve.lease_waits`` counts an acquire that finds no free
        slot, with a timeout or blocking without one."""
        from repro.obs import MetricsRegistry
        m = MetricsRegistry()
        broker = LeaseBroker(1, metrics=m)
        held = broker.acquire()
        assert m.value("serve.lease_waits") == 0  # a slot was free
        with pytest.raises(LeaseError):
            broker.acquire(timeout=0.01)
        assert m.value("serve.lease_waits") == 1
        t, out = self._blocked_acquire(broker, m, waits=2)
        assert m.value("serve.lease_waits") == 2
        broker.release(held)
        t.join(5.0)
        assert out and out[0].slot == held.slot
        broker.release(out[0])
        broker.close()

    def test_closed_broker_refuses_and_wakes_waiters(self):
        from repro.obs import MetricsRegistry
        m = MetricsRegistry()
        broker = LeaseBroker(1, metrics=m)
        lease = broker.acquire()
        t, out = self._blocked_acquire(broker, m, waits=1)
        broker.close()
        broker.close()  # idempotent
        t.join(5.0)
        assert out and isinstance(out[0], LeaseError)
        with pytest.raises(LeaseError, match="closed"):
            broker.acquire(timeout=0.05)
        with pytest.raises(LeaseError):
            broker.release(lease)
