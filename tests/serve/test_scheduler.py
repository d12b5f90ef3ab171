"""Scheduler behaviour: admission control, ordering, slots,
pause/resume, restarts.  Everything here drives the scheduler directly
(no HTTP); the wire layer has its own suite in test_server.py."""

import threading
import time

import pytest

from repro.serve import AdmissionError, JobError, JobSpec, Scheduler
from repro.serve import scheduler as scheduler_mod

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

    @pytest.mark.parametrize("kw", [dict(slots=0), dict(boards=0)])
    def test_slot_and_board_counts_below_one_rejected(self, tmp_path, kw):
        with pytest.raises(JobError, match="must be >= 1"):
            Scheduler(workdir=tmp_path, **kw)

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
        """``wait()`` returning means the slot is free: the gauge drops
        before ``done`` is published, never after.  (It used to drop in
        a ``finally`` behind the publish, so under load it could still
        read 1 right after ``wait()``.)"""
        busy = []

        def run_job(job, *args, **kw):
            busy.append(sched.metrics.value("serve.leases_in_use"))
            return real(job, *args, **kw)

        real = scheduler_mod.run_job
        monkeypatch.setattr(scheduler_mod, "run_job", run_job)
        for seed in range(30):
            job = sched.submit(JobSpec(kind="force_eval",
                                       params={"n": 64, "seed": seed}))
            assert sched.wait(job.id, timeout=60)
            assert job.state == "done"
            assert sched.metrics.value("serve.leases_in_use") == 0
        assert busy == [1] * 30

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

    def test_a_workdir_that_cannot_be_made_fails_only_its_job(
            self, tmp_path):
        """The job's workdir path is taken by a file: the job ends
        ``failed`` and the one slot goes on to run the next job."""
        s = Scheduler(slots=1, queue_depth=3, workdir=tmp_path)
        bad = s.submit(JobSpec(**FE))
        (tmp_path / bad.id).write_text("not a directory")
        good = s.submit(JobSpec(kind="force_eval",
                                params={"n": 128, "seed": 2}))
        s.start()
        try:
            assert s.wait(bad.id, timeout=60)
            assert s.wait(good.id, timeout=60)
            assert bad.state == "failed"
            assert "FileExistsError" in bad.error
            assert good.state == "done"
        finally:
            s.stop()

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        s = Scheduler(slots=1, queue_depth=4, workdir=tmp_path)
        victim = s.submit(JobSpec(**FE))
        s.cancel(victim.id)
        assert victim.state == "cancelled"
        s.stop()

    def test_unknown_job_raises_keyerror(self, sched):
        with pytest.raises(KeyError):
            sched.get("j999999")


class TestLeaseBroker:
    """The scheduler hands each running job a lease (slot label
    ``L<k>``) and a GRAPE of its own."""

    def test_leased_contexts_are_disjoint_systems(
            self, tmp_path, monkeypatch):
        """Each computed job builds its own GRAPE with the scheduler's
        board count: two jobs running at once never share one, and both
        model the same configuration."""
        from repro.sim import recipes
        both_in = threading.Barrier(2, timeout=30)
        systems = []
        build_force = recipes.build_force

        def spy(**kw):
            systems.append(kw["system"])
            both_in.wait()
            return build_force(**kw)

        monkeypatch.setattr(recipes, "build_force", spy)
        s = Scheduler(slots=2, boards=3, workdir=tmp_path,
                      cache=False).start()
        try:
            jobs = [s.submit(JobSpec(kind="force_eval",
                                     params={"n": 64, "seed": i}))
                    for i in range(2)]
            for j in jobs:
                assert s.wait(j.id, timeout=60) and j.state == "done"
        finally:
            s.stop()
        a, b = systems
        assert a is not b and a.pipeline is not b.pipeline
        assert a.timing.n_boards == b.timing.n_boards == 3
        assert a.describe() == b.describe()
        assert a.describe()["boards"] == 3
        assert jobs[0].lease is not None and jobs[1].lease is not None
        assert jobs[0].lease != jobs[1].lease


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


class TestRestart:
    """``start()`` after ``stop()`` is a new run of the same worker."""

    def test_start_after_stop_runs_the_next_job(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path).start()
        s.stop()
        s.start()
        try:
            job = s.submit(JobSpec(**FE))
            assert s.wait(job.id, timeout=60)
            assert job.state == "done", job.error
        finally:
            s.stop()

    def test_drain_stop_start_runs_the_next_job(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path,
                      store=tmp_path / "jobs.db").start()
        s.drain(timeout=10)
        s.stop()
        s.start()
        try:
            job = s.submit(JobSpec(**FE))
            assert s.wait(job.id, timeout=60)
            assert job.state == "done", job.error
        finally:
            s.stop()

    def test_a_straggler_finishes_its_job_and_claims_no_more(
            self, tmp_path, monkeypatch):
        """A slot thread a timed-out ``stop()`` left running belongs to
        the run that spawned it: after a ``start()`` it ends its job
        and exits, and the new run's slots alone take later jobs."""
        real = scheduler_mod.run_job
        gate, entered = threading.Event(), threading.Event()
        lock = threading.Lock()
        straggler, live, peak, runs = [], [0], [0], []

        def run_job(job, *args, **kw):
            runs.append(job.id)
            if not entered.is_set():  # the first job: hold its slot
                straggler.append(threading.current_thread())
                entered.set()
                gate.wait(30)
                return real(job, *args, **kw)
            with lock:
                live[0] += 1
                peak[0] = max(peak[0], live[0])
            try:
                gate.wait(30)
                time.sleep(0.02)  # give an extra claimer a chance
                return real(job, *args, **kw)
            finally:
                with lock:
                    live[0] -= 1

        monkeypatch.setattr(scheduler_mod, "run_job", run_job)
        s = Scheduler(slots=1, workdir=tmp_path, cache=False,
                      poll_interval=0.01).start()
        try:
            first = s.submit(JobSpec(**FE))
            assert entered.wait(30)
            s.stop(timeout=0.1)
            s.start()
            later = [s.submit(JobSpec(kind="force_eval",
                                      params={"n": 64, "seed": i}))
                     for i in range(6)]
            gate.set()
            straggler[0].join(timeout=30)
            assert not straggler[0].is_alive()
            assert s.wait(first.id, timeout=60)
            for j in later:
                assert s.wait(j.id, timeout=60)
                assert j.state == "done", j.error
        finally:
            gate.set()
            s.stop()
        assert peak[0] <= s.slots
        assert runs.count(first.id) == 1  # still the straggler's claim

    def test_a_job_a_timed_out_stop_paused_is_requeued(
            self, tmp_path, monkeypatch):
        """A draining ``stop()`` whose join times out still hands its
        job back: the straggler slot pauses it later and re-queues it,
        and the next run's slot resumes it to ``done``."""
        real = scheduler_mod.run_job
        gate, entered = threading.Event(), threading.Event()

        def run_job(job, *args, **kw):
            entered.set()
            gate.wait(30)
            return real(job, *args, **kw)

        monkeypatch.setattr(scheduler_mod, "run_job", run_job)
        s = Scheduler(slots=1, workdir=tmp_path, store=tmp_path / "jobs.db",
                      cache=False, poll_interval=0.01).start()
        try:
            job = s.submit(JobSpec(kind="run", checkpoint_every=1,
                                   params={"ngrid": 6, "steps": 2,
                                           "z_final": 12.0}))
            assert entered.wait(30)
            s.stop(timeout=0.1)
            s.start()
            gate.set()
            assert s.wait(job.id, timeout=120)
            assert job.state == "done", job.error
            assert any(e["event"] == "resumed" for e in s.events(job.id))
        finally:
            gate.set()
            s.stop()
