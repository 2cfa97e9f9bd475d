"""The sweep coordinator: lease bookkeeping plus its HTTP face.

Design center is robustness, and the invariants are small enough to
state outright:

* **Every cell is journaled at most once.**  A completion is accepted
  only if its digest is neither finished nor failed; anything else is
  acknowledged as a duplicate and dropped.  Since the journal is the
  source of truth for resume, no cell can be counted twice — not by a
  partitioned worker's stale completion, not by a requeue racing the
  original owner.
* **A lease is a TTL, not a promise.**  Workers heartbeat to renew;
  a lease that expires (crash, hang, partition) returns its cell to
  the pending queue with the attempt counter bumped, where any worker
  may steal it.  Requeues are bounded separately from error retries,
  so a cell that keeps killing its owners eventually fails with kind
  ``"lease-expired"`` instead of looping forever.
* **The coordinator itself may die.**  All mutations that matter are
  journal-first (fsynced before the lease table is updated), so a
  restarted coordinator rebuilds exact progress from the journal and
  merely re-leases what was in flight.

What a completion or a raised attempt means — journal once, retry under
the policy, or record the failure — is decided by the same
:class:`~repro.experiments.ledger.CellLedger` the single-machine
executors use; :class:`CoordinatorState` adds leases, heartbeats,
steals, the requeue limit and the ``repro_dist_*`` counters.

All state lives in :class:`CoordinatorState` and is mutated only from
the event loop thread — handlers never await between read and write —
so there is no locking.  The HTTP framing is the same
:mod:`repro.service.http` used by ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.durable import atomic_write
from repro.experiments.distributed.protocol import task_to_wire
from repro.experiments.faults import (
    RetryPolicy,
    forced_lease_expiry,
    maybe_inject_coordinator_fault,
)
from repro.experiments.journal import SweepJournal
from repro.experiments.ledger import CellLedger
from repro.experiments.plan import SweepPlan
from repro.obs import MetricsRegistry
from repro.service.http import (
    HttpError,
    parse_json_body,
    read_request,
    write_response,
)

logger = logging.getLogger("repro.sweep.distributed")

#: How often the expiry sweeper scans the lease table.
SWEEP_INTERVAL_S = 0.1

#: How many times an expired lease may be requeued before the cell is
#: recorded as a ``lease-expired`` failure.  Separate from the error
#: retry budget: expiry means the *owner* vanished, not that the task
#: raised.
DEFAULT_REQUEUE_LIMIT = 3


@dataclass
class Lease:
    """One cell currently owned by one worker."""

    index: int
    worker: str
    attempt: int
    expires_mono: float
    granted_mono: float


class CoordinatorState:
    """The lease/queue/result bookkeeping for one distributed run."""

    def __init__(
        self,
        plan: SweepPlan,
        journal: SweepJournal,
        policy: RetryPolicy,
        lease_ttl_s: float = 30.0,
        requeue_limit: int = DEFAULT_REQUEUE_LIMIT,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.plan = plan
        #: Results (wire dicts from workers), failures and the queue.
        self.ledger = CellLedger(plan, journal, policy)
        self.lease_ttl_s = lease_ttl_s
        self.requeue_limit = requeue_limit
        self.registry = registry if registry is not None else MetricsRegistry()
        self.leases: Dict[int, Lease] = {}
        #: worker id -> last contact (wall clock, for status display).
        self.workers: Dict[str, float] = {}
        #: cells requeued by lease expiry, for the requeue bound.
        self.expiry_requeues: Dict[int, int] = {}
        #: cells whose first lease was already force-expired (the
        #: ``lease-expiry`` fault fires exactly once per cell).
        self.forced: Set[int] = set()
        #: last worker to hold each cell, for steal accounting.
        self.last_owner: Dict[int, str] = {}
        #: completions journaled by *this* coordinator instance (the
        #: ``coordinator-kill`` fault counts these, not resumed cells).
        self.completions = 0
        self.duplicates = 0
        self.fatal: Optional[BaseException] = None
        self.state_path: Optional[Path] = None

        self._leases_total = self.registry.counter(
            "repro_dist_leases_total", "Leases granted, by worker."
        )
        self._steals_total = self.registry.counter(
            "repro_dist_steals_total",
            "Cells re-leased to a different worker than their last owner.",
        )
        self._heartbeats_total = self.registry.counter(
            "repro_dist_heartbeats_total", "Lease renewals, by worker."
        )
        self._requeues_total = self.registry.counter(
            "repro_dist_requeues_total",
            "Cells returned to the queue, by reason.",
        )
        self._duplicates_total = self.registry.counter(
            "repro_dist_duplicates_total",
            "Completions dropped because the cell was already settled.",
        )
        self._completions_total = self.registry.counter(
            "repro_dist_completions_total",
            "Completions journaled, by worker.",
        )
        self._failures_total = self.registry.counter(
            "repro_dist_failures_total", "Cells given up on, by kind."
        )

    # ------------------------------------------------------------------
    def prefill(self, results: Dict[int, Tuple[Any, Any]]) -> None:
        """Adopt journal-replayed cells (kept as objects, never re-run)."""
        self.ledger.adopt(results)

    @property
    def done(self) -> bool:
        return self.ledger.done

    # ------------------------------------------------------------------
    def touch_worker(self, worker: str) -> None:
        self.workers[worker] = time.time()

    def grant(self, worker: str) -> Optional[Dict[str, Any]]:
        """Lease the first due pending cell to ``worker``, if any."""
        now = time.monotonic()
        item = self.ledger.next_due(now)
        if item is None:
            return None
        index, attempt = item
        self.leases[index] = Lease(
            index=index,
            worker=worker,
            attempt=attempt,
            expires_mono=now + self.lease_ttl_s,
            granted_mono=now,
        )
        self._leases_total.inc(worker=worker)
        previous = self.last_owner.get(index)
        if previous is not None and previous != worker:
            self._steals_total.inc()
        self.last_owner[index] = worker
        self.write_state()
        return {
            "task": task_to_wire(self.plan.tasks[index]),
            "digest": self.plan.digests[index],
            "attempt": attempt,
            "lease_ttl_s": self.lease_ttl_s,
        }

    def heartbeat(self, worker: str, digest: str) -> bool:
        """Renew the worker's lease on ``digest``; False if not held."""
        self._heartbeats_total.inc(worker=worker)
        index = self.plan.index_of(digest)
        if index is None:
            return False
        lease = self.leases.get(index)
        if lease is None or lease.worker != worker:
            return False
        lease.expires_mono = time.monotonic() + self.lease_ttl_s
        return True

    def complete(
        self,
        worker: str,
        digest: str,
        attempt: int,
        measurement: Dict[str, Any],
        report: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Journal one finished cell exactly once; dedup everything else."""
        index = self.plan.index_of(digest)
        if index is None:
            return {"accepted": False, "duplicate": False, "unknown": True}
        # The ledger journals before it records, so a coordinator dying
        # after the fsync restarts with the cell finished.
        if not self.ledger.accept(index, measurement, report):
            self.duplicates += 1
            self._duplicates_total.inc()
            logger.info(
                "dropping duplicate completion of %s from %s "
                "(cell already settled)",
                digest[:12], worker,
            )
            return {"accepted": False, "duplicate": True}
        self.leases.pop(index, None)
        self.completions += 1
        self._completions_total.inc(worker=worker)
        self.write_state()
        # The coordinator-kill fault fires *after* the fsync, exactly
        # where a real SIGKILL hurts most.
        maybe_inject_coordinator_fault(self.completions)
        return {"accepted": True, "duplicate": False}

    def fail(
        self,
        worker: str,
        digest: str,
        attempt: int,
        error_type: str,
        message: str,
        tb: str,
        elapsed_s: float = 0.0,
    ) -> Dict[str, Any]:
        """Retry a raised cell under the policy, or record the failure."""
        index = self.plan.index_of(digest)
        if index is None:
            return {"requeued": False, "unknown": True}
        if self.ledger.settled(index):
            return {"requeued": False}
        self.leases.pop(index, None)
        requeued = self.ledger.retry_or_fail(
            index, attempt, "error", error_type, message, tb, elapsed_s
        ) is not None
        if requeued:
            self._requeues_total.inc(reason="error")
        else:
            self._failures_total.inc(kind="error")
        self.write_state()
        return {"requeued": requeued}

    def expire_due_leases(self) -> int:
        """Requeue every lease past its TTL (or force-expired by fault)."""
        now = time.monotonic()
        expired: List[Lease] = []
        for lease in list(self.leases.values()):
            forced = (
                lease.index not in self.forced
                and forced_lease_expiry(self.plan.tasks[lease.index].benchmark)
            )
            if forced:
                self.forced.add(lease.index)
            if forced or now >= lease.expires_mono:
                expired.append(lease)
                self._requeue_expired(lease, "forced" if forced else "expired")
        if expired:
            self.write_state()
        return len(expired)

    def _requeue_expired(self, lease: Lease, reason: str) -> None:
        self.leases.pop(lease.index, None)
        count = self.expiry_requeues.get(lease.index, 0) + 1
        self.expiry_requeues[lease.index] = count
        task = self.plan.tasks[lease.index]
        if count > self.requeue_limit:
            logger.error(
                "lease on %s/%s expired %d times; giving the cell up",
                task.benchmark, task.compiler, count,
            )
            self.ledger.give_up(
                lease.index, "lease-expired", "LeaseExpired",
                f"lease expired {count} times "
                f"(ttl {self.lease_ttl_s}s); owners kept vanishing",
                "", lease.attempt, time.monotonic() - lease.granted_mono,
            )
            self._failures_total.inc(kind="lease-expired")
            return
        logger.warning(
            "lease on %s/%s held by %s %s; requeueing (attempt %d)",
            task.benchmark, task.compiler, lease.worker, reason,
            lease.attempt + 1,
        )
        self.ledger.requeue(lease.index, lease.attempt + 1)
        self._requeues_total.inc(reason=reason)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Progress as plain data (the /v1/status body and state file)."""
        now_mono, now_wall = time.monotonic(), time.time()
        return {
            "run_id": self.plan.run_id,
            "total": len(self.plan.tasks),
            "done": len(self.ledger.results),
            "failed": len(self.ledger.failed),
            "leased": len(self.leases),
            "pending": self.ledger.outstanding - len(self.leases),
            "duplicates": self.duplicates,
            "leases": {
                self.plan.digests[lease.index]: {
                    "worker": lease.worker,
                    "benchmark": self.plan.tasks[lease.index].benchmark,
                    "compiler": self.plan.tasks[lease.index].compiler,
                    "attempt": lease.attempt,
                    "expires_in_s": round(lease.expires_mono - now_mono, 3),
                }
                for lease in self.leases.values()
            },
            "workers": dict(self.workers),
            "updated": now_wall,
        }

    def write_state(self) -> None:
        """Atomically publish the snapshot for ``repro sweep --status``.

        Advisory only — resume correctness never reads this file; the
        journal is the source of truth.  Write failures are swallowed
        for the same reason.
        """
        if self.state_path is None:
            return
        try:
            atomic_write(
                self.state_path, json.dumps(self.snapshot()).encode("utf-8")
            )
        except OSError:
            pass


class Coordinator:
    """The asyncio HTTP server wrapped around one :class:`CoordinatorState`."""

    def __init__(
        self,
        state: CoordinatorState,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.state = state
        self.host = host
        self.port = port
        self.url: Optional[str] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> str:
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.url = f"http://{self.host}:{self.port}"
        logger.info(
            "coordinator for run %s listening on %s (%d cells, %d already "
            "settled)",
            self.state.plan.run_id, self.url, len(self.state.plan.tasks),
            len(self.state.ledger.results),
        )
        return self.url

    async def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def sweep_expired(self) -> None:
        """The expiry loop: requeue abandoned leases until stopped."""
        while not self._stop.is_set():
            self.state.expire_due_leases()
            try:
                await asyncio.wait_for(
                    self._stop.wait(), timeout=SWEEP_INTERVAL_S
                )
            except asyncio.TimeoutError:
                pass

    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await read_request(reader)
            if request is not None:
                method, target, body = request
                try:
                    status, payload, text = self._route(method, target, body)
                    write_response(writer, status, payload=payload, text=text)
                except HttpError as exc:
                    write_response(
                        writer, exc.status, payload={"error": exc.message}
                    )
                except Exception as exc:  # noqa: BLE001 - daemon survives
                    write_response(
                        writer,
                        500,
                        payload={"error": f"{type(exc).__name__}: {exc}"},
                    )
        except HttpError as exc:
            write_response(writer, exc.status, payload={"error": exc.message})
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass  # a worker died mid-request: its lease will expire
        finally:
            try:
                await writer.drain()
            except (ConnectionError, RuntimeError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Optional[Dict[str, Any]], Optional[str]]:
        state = self.state
        if state.fatal is not None:
            # Injected (or real) death: a killed coordinator answers
            # nothing — refuse every request while the server winds down.
            raise HttpError(503, "coordinator terminating")
        if target == "/healthz":
            return 200, {"ok": True, "run_id": state.plan.run_id}, None
        if target == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET")
            return 200, None, state.registry.render_prometheus()
        if target == "/v1/status":
            if method != "GET":
                raise HttpError(405, "use GET")
            return 200, state.snapshot(), None
        if method != "POST":
            raise HttpError(405, "use POST")
        payload = parse_json_body(body)
        worker = str(payload.get("worker", "") or "")
        if not worker:
            raise HttpError(400, "missing 'worker'")
        state.touch_worker(worker)
        if target == "/v1/lease":
            if state.done:
                return 200, {"task": None, "done": True}, None
            grant = state.grant(worker)
            if grant is None:
                return 200, {
                    "task": None,
                    "done": False,
                    "retry_in_s": SWEEP_INTERVAL_S * 2,
                }, None
            return 200, grant, None
        if target == "/v1/heartbeat":
            held = state.heartbeat(worker, str(payload.get("digest", "")))
            return 200, {"held": held, "done": state.done}, None
        if target == "/v1/complete":
            measurement = payload.get("measurement")
            report = payload.get("report")
            if not isinstance(measurement, dict) or not isinstance(report, dict):
                raise HttpError(400, "missing 'measurement'/'report'")
            try:
                outcome = state.complete(
                    worker,
                    str(payload.get("digest", "")),
                    int(payload.get("attempt", 1)),
                    measurement,
                    report,
                )
            except BaseException as exc:
                if isinstance(exc, Exception):
                    raise
                # InjectedCoordinatorDeath (or a real fatal signal):
                # record it for the driver and die mid-request, exactly
                # like a SIGKILL after the journal fsync — the worker
                # sees a dropped connection, never an acknowledgement.
                state.fatal = exc
                self._stop.set()
                raise HttpError(503, "coordinator terminating") from None
            outcome["done"] = state.done
            return 200, outcome, None
        if target == "/v1/fail":
            outcome = state.fail(
                worker,
                str(payload.get("digest", "")),
                int(payload.get("attempt", 1)),
                str(payload.get("error_type", "RemoteError")),
                str(payload.get("message", "")),
                str(payload.get("traceback", "")),
                float(payload.get("elapsed_s", 0.0) or 0.0),
            )
            outcome["done"] = state.done
            return 200, outcome, None
        raise HttpError(404, f"unknown endpoint {target}")
