"""The queue bound holds across workers sharing one store.

Two schedulers over one database file submit at once, their store
calls forced into lockstep: after every op each worker waits for the
other's next op, so any read-then-write admission interleaves at the
op boundary (both read the queue, then both insert).  Admission that
counts and inserts in one store transaction admits exactly one.
"""

import sys
import threading

from repro.serve import (AdmissionError, JobSpec, JobStore, Scheduler,
                         SQLiteJobStore)


class Lockstep(JobStore):
    """Forwards every contract op to ``inner``; while ``armed``, each
    op then meets the other worker's at ``barrier``."""

    def __init__(self, inner, barrier):
        self.inner, self.barrier, self.armed = inner, barrier, False

    @property
    def kind(self):
        return self.inner.kind


def _stepped(op):
    def call(self, *args, **kwargs):
        out = getattr(self.inner, op)(*args, **kwargs)
        if self.armed:
            try:
                self.barrier.wait(timeout=2.0)
            except threading.BrokenBarrierError:
                pass  # the other worker made fewer ops
        return out
    return call


for _op in [n for n, a in vars(JobStore).items()
            if callable(a) and not n.startswith("_")]:
    setattr(Lockstep, _op, _stepped(_op))


def _spec(seed):
    return JobSpec(kind="force_eval", params={"n": 64, "seed": seed})


def test_two_workers_never_admit_past_the_queue_bound(tmp_path):
    backing = SQLiteJobStore(tmp_path / "jobs.db")
    barrier = threading.Barrier(2)
    stores = [Lockstep(backing, barrier) for _ in range(2)]
    workers = [Scheduler(slots=1, queue_depth=2, store=st,
                         workdir=tmp_path / f"w{i}", worker_id=f"W{i}")
               for i, st in enumerate(stores)]
    try:
        workers[0].submit(_spec(0))          # one place left
        for st in stores:
            st.armed = True
        outcomes = []

        def submit(worker, seed):
            try:
                outcomes.append(worker.submit(_spec(seed)).id)
            except AdmissionError as e:
                outcomes.append(e)

        threads = [threading.Thread(target=submit, args=(w, i + 1))
                   for i, w in enumerate(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        for st in stores:
            st.armed = False
        assert backing.counts() == {"queued": 2}
        assert len(outcomes) == 2
        refused = [o for o in outcomes if isinstance(o, AdmissionError)]
        assert len(refused) == 1 and "queue full (2/2" in str(refused[0])
    finally:
        for w in workers:
            w.stop(drain=False)
        backing.close()


def test_concurrent_submits_never_pass_the_bound(tmp_path):
    """More submitting threads than cores over three workers on one
    store, with a short switch interval: exactly ``queue_depth`` jobs
    are admitted and every other submit is refused typed."""
    backing = SQLiteJobStore(tmp_path / "jobs.db")
    workers = [Scheduler(slots=1, queue_depth=5, store=backing,
                         workdir=tmp_path / f"w{i}", worker_id=f"W{i}")
               for i in range(3)]
    admitted, refused = [], []

    def submit(worker, seed):
        try:
            admitted.append(worker.submit(_spec(seed)).id)
        except AdmissionError as e:
            refused.append(e)

    threads = [threading.Thread(target=submit, args=(workers[i % 3], i))
               for i in range(12)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(t.is_alive() for t in threads)
        assert backing.counts() == {"queued": 5}
        assert len(set(admitted)) == 5 and len(refused) == 7
    finally:
        for w in workers:
            w.stop(drain=False)
        backing.close()
