"""Content-addressed result cache.

The contract (ISSUE 8): a repeated identical submission (same kind,
params) is served from the store's result cache --

* byte-identical to recomputation (modulo the per-run ``lease`` id,
  which deliberately stays out of the cache);
* without computing (no ``leased`` event, ``lease`` is null);
* visible in ``/metrics`` (``serve.cache_hits``) and ``/healthz`` /
  ``/store`` (entries/hits/dropped);
* any spec difference in a result-determining field is a miss, and a
  damaged cache row is a *miss*, never a wrong answer;
* jobs carrying a fault plan are never cached or served from cache.
"""

import hashlib
import json
import time

import pytest

from repro.serve import JobSpec, Scheduler, spec_hash

from tests.serve.conftest import live_server


def _result_sans_lease(job):
    return {k: v for k, v in job.result.items() if k != "lease"}


@pytest.fixture
def sched(tmp_path):
    s = Scheduler(slots=1, workdir=tmp_path / "work", cache=True,
                  poll_interval=0.02).start()
    yield s
    s.stop()


def _submit_wait(sched, spec):
    job = sched.submit(spec)
    assert sched.wait(job.id, timeout=120)
    assert job.state == "done", (job.state, job.error)
    return job


class TestSpecHash:
    def test_result_determining_fields_only(self):
        a = JobSpec(kind="force_eval", params={"n": 64})
        same = JobSpec(kind="force_eval", params={"n": 64},
                       priority=7, tenant="other", max_retries=0)
        other = JobSpec(kind="force_eval", params={"n": 128})
        assert spec_hash(a) == spec_hash(same)
        assert spec_hash(a) != spec_hash(other)

    def test_kind_is_keyed(self):
        a = JobSpec(kind="force_eval", params={"n": 64})
        s = JobSpec(kind="sweep", params={"n": 8192})
        assert spec_hash(a) != spec_hash(s)

    def test_accepts_plain_documents(self):
        spec = JobSpec(kind="force_eval", params={"n": 64})
        assert spec_hash(spec.to_dict()) == spec_hash(spec)


class TestCacheServe:
    def test_hit_is_byte_identical_and_leaseless(self, sched):
        spec = JobSpec(kind="force_eval", params={"n": 128})
        first = _submit_wait(sched, spec)
        assert first.cache_hit is False
        assert first.lease is not None
        second = _submit_wait(
            sched, JobSpec(kind="force_eval", params={"n": 128}))
        assert second.cache_hit is True
        assert second.lease is None
        assert _result_sans_lease(second) == _result_sans_lease(first)
        assert second.result["digest"] == first.result["digest"]
        events = {e["event"] for e in sched.store.events(second.id)}
        assert "cache_hit" in events
        assert "leased" not in events, \
            "cache hits must not consume a GRAPE lease"
        snap = sched.metrics.snapshot()
        assert snap["serve.cache_hits"]["value"] == 1
        assert snap["serve.cache_misses"]["value"] == 1

    def test_spec_difference_is_a_miss(self, sched):
        a = _submit_wait(sched,
                         JobSpec(kind="force_eval", params={"n": 64}))
        b = _submit_wait(sched,
                         JobSpec(kind="force_eval",
                                 params={"n": 64, "seed": 8}))
        assert b.cache_hit is False
        assert b.result["digest"] != a.result["digest"]
        assert sched.metrics.snapshot()["serve.cache_misses"][
            "value"] == 2

    def test_scheduling_fields_do_not_break_the_hit(self, sched):
        _submit_wait(sched, JobSpec(kind="force_eval",
                                    params={"n": 64}))
        hit = _submit_wait(sched,
                           JobSpec(kind="force_eval", params={"n": 64},
                                   priority=3, tenant="someone-else"))
        assert hit.cache_hit is True

    @staticmethod
    def _old_key_row_is_never_served(sched, tag, key):
        """Store a row under ``[tag, key]`` hashed the way ``spec_hash``
        once did; the same spec must now miss it and recompute."""
        spec = JobSpec(kind="force_eval", params={"n": 64})
        blob = json.dumps([tag, dict(key, kind=spec.kind,
                                     params=spec.params)],
                          sort_keys=True, separators=(",", ":"))
        old_key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        assert spec_hash(spec) != old_key
        sched.store.cache_put(old_key, "stale", {"digest": "stale"})
        job = _submit_wait(sched, spec)
        assert job.cache_hit is False
        assert job.result["digest"] != "stale"
        assert sched.store.cache_stats()["hits"] == 0

    def test_v1_cache_row_is_never_served(self, sched):
        """A store written before the per-sink evaluation path was
        retired holds results whose forces differ from today's at the
        1e-15 level, under ``repro.cachekey/v1`` keys (which also
        hashed the then-default ``kernels: null``).  The same spec now
        hashes to a newer key, so such a row is dead weight, not a hit."""
        self._old_key_row_is_never_served(sched, "repro.cachekey/v1",
                                          {"kernels": None})

    def test_v2_cache_row_is_never_served(self, sched):
        """Under ``repro.cachekey/v2`` the sigma_8 normalisation stopped
        early (QUADPACK's default ``epsabs`` is 8 % of the integral), so
        every IC sat 6.4e-5 away from today's.  The same spec now hashes
        to a v3 key: a v2 row is never served."""
        self._old_key_row_is_never_served(sched, "repro.cachekey/v2", {})

    def test_fault_jobs_bypass_the_cache(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path / "w", cache=True,
                      poll_interval=0.02).start()
        try:
            clean = _submit_wait(
                s, JobSpec(kind="force_eval", params={"n": 64}))
            chaotic = s.submit(
                JobSpec(kind="force_eval", params={"n": 64},
                        faults="transient_error@site=grape.compute,"
                               "call=0,count=1"))
            assert s.wait(chaotic.id, timeout=120)
            assert s.get(chaotic.id).cache_hit is False
            assert s.store.cache_stats()["hits"] == 0
            assert clean.cache_hit is False
        finally:
            s.stop()

    def test_cache_disabled_always_computes(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path / "w", cache=False,
                      poll_interval=0.02).start()
        try:
            _submit_wait(s, JobSpec(kind="force_eval",
                                    params={"n": 64}))
            again = _submit_wait(s, JobSpec(kind="force_eval",
                                            params={"n": 64}))
            assert again.cache_hit is False
            assert s.store.cache_stats() == \
                {"entries": 0, "hits": 0, "dropped": 0, "bytes": 0,
                 "budget": None, "evictions": 0}
        finally:
            s.stop()


class TestCacheKeepsTheResult:
    def test_a_hit_keeps_the_computed_column_order(self, sched):
        """A cached ``sweep`` comes back with its rows' columns in the
        order the computation produced them (the store used to write
        results with sorted keys, so a hit read ``interactions,
        mean_list, n_crit, n_g``)."""
        spec = {"kind": "sweep", "params": {"n": 600, "seed": 4}}
        first = _submit_wait(sched, JobSpec(**spec))
        second = _submit_wait(sched, JobSpec(**spec))
        assert (first.cache_hit, second.cache_hit) == (False, True)
        columns = ["n_crit", "n_g", "mean_list", "interactions"]
        for job in (first, second, sched.get(first.id),
                    sched.get(second.id)):
            assert [list(r) for r in job.result["rows"]] \
                == [columns] * len(first.result["rows"])
        assert second.result["rows"] == first.result["rows"]


class TestCacheOverHTTP:
    def test_hits_visible_in_metrics_and_store(self, tmp_path):
        spec = {"kind": "force_eval", "params": {"n": 128}}
        with live_server(slots=1, workdir=tmp_path / "serve",
                         cache=True) as (server, client):
            first = client.submit(spec)
            done = client.wait(first["id"], timeout=120)
            assert done["state"] == "done"
            assert done["cache_hit"] is False
            second = client.submit(spec)
            done2 = client.wait(second["id"], timeout=120)
            assert done2["state"] == "done"
            assert done2["cache_hit"] is True
            assert done2["lease"] is None
            assert done2["result"]["digest"] == \
                done["result"]["digest"]
            text = client.metrics()
            assert "repro_serve_cache_hits 1" in text
            health = client.healthz()
            assert health["cache"]["hits"] == 1
            snap = client.store()
            assert snap["schema"] == "repro.store/v1"
            assert snap["cache"]["entries"] == 1
            assert snap["cache"]["hits"] == 1
            assert snap["findings"] == []
            assert snap["jobs"]["done"] == 2

    def test_run_jobs_cache_end_to_end(self, tmp_path, tiny_run=None):
        run = {"ngrid": 6, "steps": 2, "z_final": 12.0}
        spec = {"kind": "run", "params": run}
        with live_server(slots=1, workdir=tmp_path / "serve",
                         cache=True) as (server, client):
            a = client.wait(client.submit(spec)["id"], timeout=180)
            t0 = time.monotonic()
            b = client.wait(client.submit(spec)["id"], timeout=180)
            hit_latency = time.monotonic() - t0
            assert b["cache_hit"] is True
            assert b["result"]["digest"] == a["result"]["digest"]
            assert b["result"]["interactions"] == \
                a["result"]["interactions"]
            # a cache hit skips the whole simulation
            assert hit_latency < 5.0
