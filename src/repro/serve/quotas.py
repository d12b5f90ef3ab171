"""Admission policy: per-tenant quotas and token-bucket rate limits.

The queue bound protects the *service*; quotas and rate limits
protect the *tenants from each other*.  All reject at admission with
an :class:`AdmissionError` carrying a ``retry_after`` hint, which the
HTTP layer turns into ``429 Retry-After``
(:class:`~repro.serve.client.Backpressure`).

Two independent checks per tenant:

* **active-job quota** (``max_active``) -- a ceiling on jobs that are
  queued, scheduled, running or paused at once, counted by the store
  in the transaction that would insert the job, so replicated
  schedulers enforce one shared budget;
* **submission rate** (``rate`` jobs/second, ``burst`` bucket depth) --
  a classic token bucket: each admission spends one token, tokens
  refill continuously, an empty bucket rejects with the exact time
  until the next token accrues.

The controller is deliberately clock-injectable (``now`` parameters)
so the tests need no sleeps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["AdmissionError", "QuotaExceeded", "RateLimited",
           "TenantPolicy", "AdmissionController"]


class AdmissionError(RuntimeError):
    """Submission refused; ``retry_after`` is the client's backoff
    hint in seconds (HTTP 429 Retry-After)."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


class QuotaExceeded(AdmissionError):
    """The tenant's active-job ceiling is reached."""


class RateLimited(AdmissionError):
    """The tenant's token bucket is empty."""


@dataclass(frozen=True)
class TenantPolicy:
    """Admission limits for one tenant (``None`` = unlimited).

    ``burst`` only matters with a ``rate``: it is the bucket depth,
    i.e. how many submissions may arrive back-to-back before the
    refill rate governs.
    """

    #: max queued+scheduled+running+paused jobs at once
    max_active: Optional[int] = None
    #: sustained submissions per second
    rate: Optional[float] = None
    #: token-bucket depth (default: allow short bursts of 4)
    burst: int = 4

    def __post_init__(self) -> None:
        if self.max_active is not None and self.max_active < 1:
            raise ValueError("max_active must be >= 1 (or None)")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be > 0 (or None)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


class _Bucket:
    """One tenant's token bucket (continuous refill)."""

    __slots__ = ("tokens", "last")

    def __init__(self, burst: int, now: float) -> None:
        self.tokens = float(burst)
        self.last = now

    def spend(self, policy: TenantPolicy, now: float) -> Optional[float]:
        """Take one token; returns ``None`` on success or the seconds
        until the next token accrues."""
        self.tokens = min(float(policy.burst),
                          self.tokens + (now - self.last) * policy.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        return (1.0 - self.tokens) / policy.rate


class AdmissionController:
    """Per-tenant admission checks for the scheduler's submit path.

    ``default`` applies to tenants without an explicit entry in
    ``per_tenant``.  Thread-safe.  The scheduler takes a rate token
    (:meth:`spend`) before the store counts the quota, and hands it
    back (:meth:`refund`) if the store refuses.
    """

    def __init__(self, default: Optional[TenantPolicy] = None,
                 per_tenant: Optional[Dict[str, TenantPolicy]] = None
                 ) -> None:
        self.default = default if default is not None else TenantPolicy()
        self.per_tenant = dict(per_tenant or {})
        self._buckets: Dict[str, _Bucket] = {}
        self._lock = threading.Lock()

    def policy(self, tenant: str) -> TenantPolicy:
        return self.per_tenant.get(tenant, self.default)

    def over_quota(self, tenant: str, active: int) -> QuotaExceeded:
        """The refusal of a tenant holding ``active`` jobs."""
        return QuotaExceeded(
            f"tenant {tenant!r} has {active} active job(s), "
            f"quota {self.policy(tenant).max_active}", retry_after=5.0)

    def spend(self, tenant: str, *, now: Optional[float] = None) -> None:
        """Take one of the tenant's rate tokens, or raise
        :class:`RateLimited` with the time until the next accrues."""
        p = self.policy(tenant)
        if p.rate is None:
            return
        t = time.monotonic() if now is None else now
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = _Bucket(p.burst, t)
            wait = bucket.spend(p, t)
        if wait is not None:
            raise RateLimited(
                f"tenant {tenant!r} exceeds {p.rate:g} submissions/s "
                f"(burst {p.burst})", retry_after=wait)

    def refund(self, tenant: str) -> None:
        """Give back the token :meth:`spend` took for a submission the
        store then refused (queue or quota full)."""
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is not None:
                bucket.tokens = min(float(self.policy(tenant).burst),
                                    bucket.tokens + 1.0)
