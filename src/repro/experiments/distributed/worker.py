"""The sweep worker: lease, heartbeat, execute, complete, repeat.

``repro work <coordinator-url>`` runs this loop.  It is deliberately
synchronous — one cell at a time per worker; parallelism comes from
running more workers — with a single background thread renewing the
lease while the cell computes.

A worker is expendable by design.  If it crashes, hangs, or partitions,
its heartbeats stop, the lease expires, and the coordinator requeues
the cell for someone else; nothing the worker does (including posting
a stale completion after the partition heals) can corrupt the sweep,
because the coordinator deduplicates by task digest.  Conversely the
*coordinator* is expendable to the worker: every exchange goes through
the shared resilient client (:mod:`repro.service.client`) — bounded
deterministic-jitter retries plus a per-endpoint circuit breaker — so
a one-blip partition or a coordinator mid-restart is absorbed inside
:func:`repro.experiments.distributed.protocol.call`, the outer loop
adds a second budget of ``max_connection_failures`` polls on top, and
only a genuinely dead coordinator orphans the worker (exit code 3)
instead of leaving it spinning forever.

Caching: each worker activates a :class:`~repro.cache.ShardedCache` —
a private namespace with read-through and write-through to the shared
store — so workers share compile artifacts without ever contending on
scans, and a resumed single-machine run sees everything they built.
"""

from __future__ import annotations

import dataclasses
import logging
import os
import re
import socket
import threading
import time
import traceback
from typing import Optional

from repro.cache import ShardedCache, activate_cache
from repro.compiler import DEFAULT_OPTIONS
from repro.experiments.distributed.protocol import (
    CoordinatorUnreachable,
    call,
    task_from_wire,
)
from repro.experiments.faults import should_partition
from repro.experiments.parallel import run_task

logger = logging.getLogger("repro.sweep.distributed")

#: Consecutive coordinator-connection failures before the worker
#: concludes it is orphaned and exits (exit code 3).
DEFAULT_MAX_CONNECTION_FAILURES = 20

#: Exit codes: clean drain / orphaned by a dead coordinator.
WORKER_EXIT_OK = 0
WORKER_EXIT_ORPHANED = 3


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _shard_namespace(worker_id: str) -> str:
    """A filesystem-safe shard name derived from the worker id."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", worker_id) or "worker"


class _Heartbeat(threading.Thread):
    """Renew one lease every ttl/3 until stopped (daemon thread)."""

    def __init__(
        self, url: str, worker_id: str, digest: str, ttl_s: float
    ) -> None:
        super().__init__(daemon=True)
        self.url = url
        self.worker_id = worker_id
        self.digest = digest
        self.interval_s = max(ttl_s / 3.0, 0.05)
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval_s):
            try:
                # retries=0: a beat is time-sensitive — better to miss
                # one and let the next fire on schedule than to stack
                # backoff sleeps behind a wobbly link.
                held = call(
                    self.url,
                    "/v1/heartbeat",
                    {"worker": self.worker_id, "digest": self.digest},
                    timeout_s=max(self.interval_s, 5.0),
                    retries=0,
                ).get("held", False)
            except CoordinatorUnreachable:
                continue  # transient; the next beat may get through
            if not held:
                # Lease lost (expired and re-granted): keep computing —
                # the completion will be deduplicated if someone else
                # finishes first — but stop renewing a dead lease.
                return

    def stop(self) -> None:
        self.stop_event.set()


def run_worker(
    coordinator_url: str,
    cache_dir=None,
    worker_id: Optional[str] = None,
    poll_s: float = 0.2,
    warm_start: bool = DEFAULT_OPTIONS.warm_start,
    max_connection_failures: int = DEFAULT_MAX_CONNECTION_FAILURES,
) -> int:
    """Serve one coordinator until its sweep drains; the exit code.

    Returns :data:`WORKER_EXIT_OK` when the coordinator reports the
    sweep done, :data:`WORKER_EXIT_ORPHANED` after
    ``max_connection_failures`` consecutive transport failures (a dead
    or unreachable coordinator must not leave worker processes spinning
    on every host).  ``warm_start`` is this worker's own mapper
    warm-start setting; every other compile knob arrives on each leased
    task.
    """
    worker_id = worker_id or default_worker_id()
    if cache_dir is not None:
        activate_cache(
            ShardedCache(cache_dir, _shard_namespace(worker_id))
        )
    logger.info("worker %s serving %s", worker_id, coordinator_url)
    failures = 0
    while True:
        try:
            lease = call(
                coordinator_url, "/v1/lease", {"worker": worker_id}
            )
        except CoordinatorUnreachable as exc:
            failures += 1
            if failures >= max_connection_failures:
                logger.error(
                    "worker %s orphaned: %d consecutive connection "
                    "failures (%s)",
                    worker_id, failures, exc,
                )
                return WORKER_EXIT_ORPHANED
            time.sleep(poll_s)
            continue
        failures = 0
        if lease.get("done"):
            logger.info("worker %s: sweep drained, exiting", worker_id)
            return WORKER_EXIT_OK
        if lease.get("task") is None:
            time.sleep(float(lease.get("retry_in_s", poll_s) or poll_s))
            continue

        task = task_from_wire(lease["task"])
        digest = str(lease["digest"])
        attempt = int(lease.get("attempt", 1))
        ttl_s = float(lease.get("lease_ttl_s", 30.0))
        # The worker-partition fault: this cell's owner goes silent —
        # no heartbeats, completion delayed past the TTL — so the
        # coordinator must steal the cell and later dedup our stale
        # completion.  Only the first attempt partitions, so the
        # re-leased attempt behaves.
        partitioned = attempt == 1 and should_partition(task.benchmark)
        heartbeat: Optional[_Heartbeat] = None
        if not partitioned:
            heartbeat = _Heartbeat(
                coordinator_url, worker_id, digest, ttl_s
            )
            heartbeat.start()
        started = time.perf_counter()
        try:
            measurement, report = run_task(
                task, attempt=attempt, warm_start=warm_start
            )
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            if heartbeat is not None:
                heartbeat.stop()
            try:
                call(
                    coordinator_url,
                    "/v1/fail",
                    {
                        "worker": worker_id,
                        "digest": digest,
                        "attempt": attempt,
                        "error_type": type(exc).__name__,
                        "message": str(exc),
                        "traceback": traceback.format_exc(),
                        "elapsed_s": time.perf_counter() - started,
                    },
                )
            except CoordinatorUnreachable:
                pass  # the lease will expire and requeue the cell
            continue
        finally:
            if heartbeat is not None:
                heartbeat.stop()
        if partitioned:
            # Stay silent until the lease has certainly expired (and
            # been requeued), then let the completion race the thief.
            time.sleep(ttl_s * 1.5 + 0.2)
        try:
            outcome = call(
                coordinator_url,
                "/v1/complete",
                {
                    "worker": worker_id,
                    "digest": digest,
                    "attempt": attempt,
                    "measurement": dataclasses.asdict(measurement),
                    "report": dataclasses.asdict(report),
                },
            )
        except CoordinatorUnreachable:
            # Completion lost (coordinator died mid-ack, or we are
            # partitioned).  The journal either has the cell (fsynced
            # before the ack) or the lease expires and someone re-runs
            # it; either way correctness is the coordinator's problem.
            failures += 1
            continue
        if outcome.get("duplicate"):
            logger.info(
                "worker %s: completion of %s was a duplicate (cell "
                "already settled elsewhere)",
                worker_id, digest[:12],
            )
