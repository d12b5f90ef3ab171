"""Per-tenant quotas and token-bucket rate limits at admission.

Three layers, tested innermost-out:

* :class:`~repro.serve.quotas.AdmissionController` -- pure policy,
  clock-injectable, no sleeps;
* the scheduler's submit path -- quota counted store-wide against
  non-terminal jobs, rejections typed and counted in metrics;
* the HTTP surface -- ``429 Too Many Requests`` with an integral
  ``Retry-After`` header, surfaced to callers as
  :class:`~repro.serve.client.Backpressure` (RFC 9110 conformance:
  the header is a non-negative integer number of seconds).
"""

import pytest

from repro.serve import (AdmissionController, AdmissionError, JobSpec,
                         QuotaExceeded, RateLimited, Scheduler,
                         TenantPolicy)
from repro.serve.client import Backpressure

from tests.serve.conftest import TINY_RUN, live_server


class TestTenantPolicy:
    def test_defaults_are_unlimited(self):
        p = TenantPolicy()
        assert p.max_active is None and p.rate is None

    @pytest.mark.parametrize("kw", [
        {"max_active": 0}, {"rate": 0.0}, {"rate": -1}, {"burst": 0},
    ])
    def test_invalid_limits_rejected(self, kw):
        with pytest.raises(ValueError):
            TenantPolicy(**kw)


class TestAdmissionController:
    """The controller keeps the rate tokens and names the quota; the
    store counts a tenant's active jobs against that quota."""

    def test_unlimited_by_default(self):
        ctrl = AdmissionController()
        for _ in range(100):
            ctrl.spend("anyone", now=0.0)
        assert ctrl.policy("anyone").max_active is None

    def test_max_active_ceiling(self):
        ctrl = AdmissionController(TenantPolicy(max_active=2))
        assert ctrl.policy("t").max_active == 2
        exc = ctrl.over_quota("t", 2)
        assert isinstance(exc, QuotaExceeded)
        assert "2 active job(s), quota 2" in str(exc)
        assert exc.retry_after > 0

    def test_token_bucket_burst_then_starve(self):
        ctrl = AdmissionController(TenantPolicy(rate=1.0, burst=3))
        for _ in range(3):
            ctrl.spend("t", now=100.0)
        with pytest.raises(RateLimited) as exc:
            ctrl.spend("t", now=100.0)
        # empty bucket at 1 token/s: next token exactly 1s away
        assert exc.value.retry_after == pytest.approx(1.0)

    def test_tokens_refill_continuously(self):
        ctrl = AdmissionController(TenantPolicy(rate=2.0, burst=1))
        ctrl.spend("t", now=0.0)
        with pytest.raises(RateLimited):
            ctrl.spend("t", now=0.1)
        ctrl.spend("t", now=0.6)                 # 0.5s = one token

    def test_quota_rejection_spends_no_token(self):
        """A token refunded for a refused submission is spendable
        again, and refunds never fill the bucket past ``burst``."""
        ctrl = AdmissionController(
            TenantPolicy(max_active=1, rate=1.0, burst=1))
        for _ in range(5):
            ctrl.spend("t", now=0.0)
            ctrl.refund("t")
        ctrl.refund("t")
        ctrl.spend("t", now=0.0)                 # token still there
        with pytest.raises(RateLimited):
            ctrl.spend("t", now=0.0)             # but only one

    def test_buckets_are_per_tenant(self):
        ctrl = AdmissionController(TenantPolicy(rate=1.0, burst=1))
        ctrl.spend("a", now=0.0)
        with pytest.raises(RateLimited):
            ctrl.spend("a", now=0.0)
        ctrl.spend("b", now=0.0)                 # unaffected

    def test_per_tenant_override_beats_default(self):
        ctrl = AdmissionController(
            default=TenantPolicy(max_active=1),
            per_tenant={"vip": TenantPolicy(max_active=10, rate=1.0,
                                            burst=1)})
        assert ctrl.policy("pleb").max_active == 1
        assert ctrl.policy("vip").max_active == 10
        assert "quota 10" in str(ctrl.over_quota("vip", 10))
        for _ in range(3):
            ctrl.spend("pleb", now=0.0)          # default: no rate
        ctrl.spend("vip", now=0.0)
        with pytest.raises(RateLimited):
            ctrl.spend("vip", now=0.0)

    def test_errors_are_admission_errors(self):
        assert issubclass(QuotaExceeded, AdmissionError)
        assert issubclass(RateLimited, AdmissionError)


class TestSchedulerQuota:
    """Quota enforcement on the submit path.

    The schedulers here are never started, so submitted jobs stay
    ``queued`` (= active) and the tests are sleep-free.
    """

    def make(self, tmp_path, quota):
        return Scheduler(slots=1, workdir=tmp_path / "w", quota=quota)

    def test_active_quota_blocks_submission(self, tmp_path):
        s = self.make(tmp_path, TenantPolicy(max_active=1))
        s.submit(JobSpec(kind="force_eval", params={"n": 64}))
        with pytest.raises(QuotaExceeded):
            s.submit(JobSpec(kind="force_eval", params={"n": 128}))

    def test_quota_is_per_tenant(self, tmp_path):
        s = self.make(tmp_path, TenantPolicy(max_active=1))
        s.submit(JobSpec(kind="force_eval", params={"n": 64},
                         tenant="a"))
        s.submit(JobSpec(kind="force_eval", params={"n": 64},
                         tenant="b"))            # b has its own budget
        with pytest.raises(QuotaExceeded):
            s.submit(JobSpec(kind="force_eval", params={"n": 128},
                             tenant="a"))

    def test_terminal_jobs_free_the_quota(self, tmp_path):
        s = self.make(tmp_path, TenantPolicy(max_active=1))
        job = s.submit(JobSpec(kind="force_eval", params={"n": 64}))
        s.cancel(job.id)
        s.submit(JobSpec(kind="force_eval", params={"n": 128}))

    def test_quota_counts_store_wide(self, tmp_path):
        """Replicated workers share one tenant budget through the
        store, not per-worker counters."""
        from repro.serve import SQLiteJobStore
        store = SQLiteJobStore(tmp_path / "jobs.db")
        try:
            a = Scheduler(workdir=tmp_path / "wa", store=store,
                          worker_id="A",
                          quota=TenantPolicy(max_active=1))
            b = Scheduler(workdir=tmp_path / "wb", store=store,
                          worker_id="B",
                          quota=TenantPolicy(max_active=1))
            a.submit(JobSpec(kind="force_eval", params={"n": 64}))
            with pytest.raises(QuotaExceeded):
                b.submit(JobSpec(kind="force_eval", params={"n": 128}))
        finally:
            store.close()

    def test_rejections_are_counted(self, tmp_path):
        s = self.make(tmp_path, TenantPolicy(max_active=1))
        s.submit(JobSpec(kind="force_eval", params={"n": 64}))
        for _ in range(3):
            with pytest.raises(QuotaExceeded):
                s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        snap = s.metrics.snapshot()
        assert snap["serve.quota_rejected"]["value"] == 3
        assert snap["serve.jobs_rejected"]["value"] == 3

    def test_refused_submissions_drain_no_tokens(self, tmp_path):
        """A submission the store refuses (quota reached) gives its
        rate token back: hammering a full quota leaves the bucket as
        it was, so the next admissible submit goes through."""
        s = self.make(tmp_path, TenantPolicy(max_active=1, rate=0.001,
                                             burst=2))
        first = s.submit(JobSpec(kind="force_eval", params={"n": 64}))
        for _ in range(4):
            with pytest.raises(QuotaExceeded):
                s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        s.cancel(first.id)
        second = s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        s.cancel(second.id)
        with pytest.raises(RateLimited):         # both tokens now spent
            s.submit(JobSpec(kind="force_eval", params={"n": 256}))

    def test_full_queue_drains_no_tokens(self, tmp_path):
        s = Scheduler(slots=1, workdir=tmp_path / "w", queue_depth=1,
                      quota=TenantPolicy(rate=0.001, burst=2))
        first = s.submit(JobSpec(kind="force_eval", params={"n": 64}))
        for _ in range(4):
            with pytest.raises(AdmissionError) as exc:
                s.submit(JobSpec(kind="force_eval", params={"n": 128}))
            assert type(exc.value) is AdmissionError
            assert "queue full" in str(exc.value)
        s.cancel(first.id)
        s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        snap = s.metrics.snapshot()
        assert snap["serve.jobs_rejected"]["value"] == 4
        assert "serve.quota_rejected" not in snap

    def test_rate_limit_is_checked_before_the_queue_bound(self,
                                                          tmp_path):
        """An empty bucket and a full queue at once: the refusal is
        the tenant's rate limit, counted as a tenant-limit rejection,
        and the bucket's backoff is the hint."""
        s = Scheduler(slots=1, workdir=tmp_path / "w", queue_depth=1,
                      quota=TenantPolicy(rate=0.001, burst=1))
        s.submit(JobSpec(kind="force_eval", params={"n": 64}))
        with pytest.raises(RateLimited) as exc:
            s.submit(JobSpec(kind="force_eval", params={"n": 128}))
        assert exc.value.retry_after > 100      # ~1/rate, not the queue's
        snap = s.metrics.snapshot()
        assert snap["serve.jobs_rejected"]["value"] == 1
        assert snap["serve.quota_rejected"]["value"] == 1

    def test_rate_limit_on_submit(self, tmp_path):
        s = self.make(tmp_path, TenantPolicy(rate=0.001, burst=2))
        s.submit(JobSpec(kind="force_eval", params={"n": 1}))
        s.submit(JobSpec(kind="force_eval", params={"n": 2}))
        with pytest.raises(RateLimited) as exc:
            s.submit(JobSpec(kind="force_eval", params={"n": 3}))
        assert exc.value.retry_after > 0


class TestQuotaOverHTTP:
    def test_429_retry_after_conformance(self, tmp_path):
        """An exhausted token bucket answers 429 with an integral
        Retry-After >= 1 (RFC 9110), surfaced as Backpressure."""
        with live_server(slots=1, workdir=tmp_path / "serve",
                         quota=TenantPolicy(rate=0.01, burst=1)
                         ) as (server, client):
            client.submit({"kind": "force_eval", "params": {"n": 64}})
            with pytest.raises(Backpressure) as exc:
                client.submit({"kind": "force_eval",
                               "params": {"n": 128}})
            assert exc.value.status == 429
            assert exc.value.retry_after >= 1
            assert exc.value.retry_after == int(exc.value.retry_after)

    def test_quota_429_then_admitted_after_completion(self, tmp_path):
        with live_server(slots=1, workdir=tmp_path / "serve",
                         quota=TenantPolicy(max_active=1)
                         ) as (server, client):
            first = client.submit({"kind": "run", "params": TINY_RUN})
            with pytest.raises(Backpressure):
                client.submit({"kind": "run", "params": TINY_RUN})
            done = client.wait(first["id"], timeout=120)
            assert done["state"] == "done"
            second = client.submit({"kind": "force_eval",
                                    "params": {"n": 64}})
            assert client.wait(second["id"], timeout=60)[
                "state"] == "done"

    def test_rejected_submission_leaves_no_job(self, tmp_path):
        with live_server(slots=1, workdir=tmp_path / "serve",
                         quota=TenantPolicy(rate=0.01, burst=1)
                         ) as (server, client):
            client.submit({"kind": "force_eval", "params": {"n": 64}})
            with pytest.raises(Backpressure):
                client.submit({"kind": "force_eval",
                               "params": {"n": 128}})
            assert len(client.jobs()) == 1
