"""The multi-tenant job queue behind ``repro serve``.

Scheduling model:

* Every tenant has a :class:`~repro.service.config.TenantClass` giving
  it a strict priority (lower runs first) and a token-bucket rate
  (``rate_per_s`` sustained, ``burst`` above it; 0 = unlimited).
* :meth:`JobQueue.pop_ready` returns the next runnable job: tenants are
  scanned in (priority, name) order and a rate-limited tenant is
  *skipped*, never blocks the tenants behind it.
* Per-tenant depth is bounded (``max_queued``); past it
  :meth:`JobQueue.submit` raises :class:`QueueFull`, which the HTTP
  layer maps to 429.
* ``pause()``/``resume()`` freeze dispatch without rejecting
  submissions — the deterministic window the coalescing tests (and the
  CI service-smoke lane) use to pile up duplicates behind one primary.
* ``close()`` starts the drain: new submissions raise
  :class:`QueueClosed` (HTTP 503) while everything already queued still
  dispatches; once drained, :meth:`pop_ready` keeps returning
  ``(None, None)`` and the caller observing ``closed and depth() == 0``
  shuts its workers down.

The queue is plain synchronous state: the daemon only touches it from
the event-loop thread, and unit tests drive it with a fake clock.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.service.config import TenantClass
from repro.service.jobs import Job

Clock = Callable[[], float]


class QueueFull(Exception):
    """A tenant's queue is at ``max_queued``."""

    def __init__(self, tenant: str, limit: int) -> None:
        super().__init__(
            f"tenant {tenant!r} queue is full ({limit} jobs waiting)"
        )
        self.tenant = tenant
        self.limit = limit


class QueueClosed(Exception):
    """The queue is draining; no new work is accepted."""


class DeadlineUnmeetable(Exception):
    """Admission control: the job cannot start within its deadline.

    Raised at submission time when the tenant's rate limiter (plus the
    work already queued ahead) guarantees the job would start after
    its budget expired — rejecting up front is kinder than accepting
    work that can only ever fail with ``DeadlineExceeded``.  The HTTP
    layer maps this to 429 with a ``Retry-After`` hint.
    """

    def __init__(self, tenant: str, wait_s: float, deadline_s: float) -> None:
        super().__init__(
            f"tenant {tenant!r} cannot start for ~{wait_s:.1f}s "
            f"(rate limit + queued work), past the {deadline_s:.1f}s "
            "deadline"
        )
        self.tenant = tenant
        self.wait_s = wait_s
        self.deadline_s = deadline_s


class TokenBucket:
    """Sustained-rate limiter with burst capacity.

    ``rate_per_s <= 0`` disables limiting entirely (every
    :meth:`wait_time` is 0).
    """

    def __init__(
        self, rate_per_s: float, burst: int, clock: Clock = time.monotonic
    ) -> None:
        self.rate = rate_per_s
        self.burst = max(1, burst)
        self._clock = clock
        self._tokens = float(self.burst)
        self._updated = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def wait_time(self) -> float:
        """Seconds until a token is available (0 when one is ready)."""
        if self.rate <= 0:
            return 0.0
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate

    def take(self) -> None:
        """Consume one token (call only after ``wait_time() == 0``)."""
        if self.rate <= 0:
            return
        self._refill()
        self._tokens = max(0.0, self._tokens - 1.0)


class JobQueue:
    """Per-tenant FIFO queues scheduled by priority under rate limits."""

    def __init__(
        self,
        tenants: Optional[Dict[str, TenantClass]] = None,
        clock: Clock = time.monotonic,
    ) -> None:
        self.tenants: Dict[str, TenantClass] = dict(tenants or {})
        self._clock = clock
        self._queues: Dict[str, Deque[Job]] = {}
        self._limiters: Dict[str, TokenBucket] = {}
        self.closed = False
        self.paused = False

    def tenant_class(self, name: str) -> TenantClass:
        """The configured class, the ``default`` class, or an open one."""
        if name in self.tenants:
            return self.tenants[name]
        if "default" in self.tenants:
            spec = self.tenants["default"]
            return TenantClass(
                name=name,
                priority=spec.priority,
                rate_per_s=spec.rate_per_s,
                burst=spec.burst,
                max_queued=spec.max_queued,
            )
        return TenantClass(name=name)

    def _limiter(self, name: str) -> TokenBucket:
        limiter = self._limiters.get(name)
        if limiter is None:
            spec = self.tenant_class(name)
            limiter = TokenBucket(spec.rate_per_s, spec.burst, self._clock)
            self._limiters[name] = limiter
        return limiter

    def submit(self, job: Job) -> None:
        if self.closed:
            raise QueueClosed("service is draining")
        spec = self.tenant_class(job.tenant)
        queue = self._queues.setdefault(job.tenant, deque())
        if len(queue) >= spec.max_queued:
            raise QueueFull(job.tenant, spec.max_queued)
        queue.append(job)

    def depth(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    def admission_delay(self, tenant: str) -> float:
        """A lower bound on how long a new job for ``tenant`` waits.

        The token bucket's current refill wait plus one rate interval
        per job already queued for the tenant — a *floor*, not an
        estimate of execution time, which is unknowable.  Unlimited
        tenants always report 0.  Used by deadline admission control:
        a job whose entire budget is provably consumed before it could
        even start is rejected at submit time.
        """
        limiter = self._limiter(tenant)
        if limiter.rate <= 0:
            return 0.0
        queued = len(self._queues.get(tenant, ()))
        limiter._refill()
        needed = (queued + 1) - limiter._tokens
        if needed <= 0:
            return 0.0
        return needed / limiter.rate

    def start_now(self, tenant: str) -> bool:
        """Whether a job for ``tenant`` may start without queueing.

        True when dispatch would start it at once: not paused, none of
        the tenant's jobs waiting ahead of it, and a token ready, which
        is taken.  Used for requests the daemon answers in the event
        loop, so they keep the tenant's rate and order.
        """
        if self.paused or self._queues.get(tenant):
            return False
        limiter = self._limiter(tenant)
        if limiter.wait_time() > 0.0:
            return False
        limiter.take()
        return True

    def pop_ready(self) -> Tuple[Optional[Job], Optional[float]]:
        """``(job, None)`` when one is runnable, else ``(None, delay)``.

        ``delay`` is how long until the earliest rate-limited tenant
        becomes eligible (None when every queue is empty or dispatch is
        paused).
        """
        if self.paused:
            return None, None
        delay: Optional[float] = None
        ordered = sorted(
            (name for name, queue in self._queues.items() if queue),
            key=lambda name: (self.tenant_class(name).priority, name),
        )
        for name in ordered:
            limiter = self._limiter(name)
            wait = limiter.wait_time()
            if wait <= 0.0:
                limiter.take()
                return self._queues[name].popleft(), None
            delay = wait if delay is None else min(delay, wait)
        return None, delay

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    def close(self) -> None:
        """Stop accepting work; already-queued jobs still dispatch."""
        self.closed = True

    @property
    def drained(self) -> bool:
        return self.closed and self.depth() == 0
