"""The ``repro serve`` daemon: compilation as a long-lived service.

A zero-dependency asyncio HTTP/JSON front over :mod:`repro.api` with a
multi-tenant priority/rate queue, compile and run jobs executed in a
supervised process pool (:mod:`repro.service.pool`), warm artifact
caches shared across requests, known results answered in the event
loop, content-addressed coalescing of identical in-flight jobs, a
Prometheus ``/metrics`` endpoint, and graceful drain on SIGTERM.  See :mod:`repro.service.server` for the endpoint map.
"""

from repro.service.client import (
    CircuitBreaker,
    CircuitOpen,
    DeadlineExhausted,
    ResilientClient,
    TransportError,
)
from repro.service.config import (
    DEFAULT_TENANT,
    ServiceConfig,
    TenantClass,
    load_tenants,
)
from repro.service.jobs import Job
from repro.service.queue import (
    DeadlineUnmeetable,
    JobQueue,
    QueueClosed,
    QueueFull,
    TokenBucket,
)
from repro.service.server import ReproService, run_service
from repro.service.wal import JobWAL, ReplayedJob

__all__ = [
    "DEFAULT_TENANT",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExhausted",
    "DeadlineUnmeetable",
    "Job",
    "JobQueue",
    "JobWAL",
    "QueueClosed",
    "QueueFull",
    "ReplayedJob",
    "ReproService",
    "ResilientClient",
    "ServiceConfig",
    "TenantClass",
    "TokenBucket",
    "TransportError",
    "load_tenants",
    "run_service",
]
