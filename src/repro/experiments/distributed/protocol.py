"""The coordinator <-> worker wire protocol (plain JSON over HTTP).

Five POST endpoints move the sweep:

``/v1/lease``
    ``{"worker": id}`` -> ``{"task": {...}, "digest", "attempt",
    "lease_ttl_s"}``, or ``{"task": null, "retry_in_s": s}`` when
    nothing is due yet, or ``{"task": null, "done": true}`` when every
    cell is settled.
``/v1/heartbeat``
    ``{"worker": id, "digest": d}`` -> ``{"held": bool}``; renews the
    lease TTL while the worker still owns the cell.
``/v1/complete``
    ``{"worker", "digest", "attempt", "measurement", "report"}`` ->
    ``{"accepted": bool, "duplicate": bool}``; journaled exactly once
    per digest, duplicates acknowledged but dropped.
``/v1/fail``
    ``{"worker", "digest", "attempt", "error_type", "message",
    "traceback", "elapsed_s"}`` -> ``{"requeued": bool}``.
``/v1/status`` (GET)
    progress snapshot; ``/metrics`` (GET) Prometheus; ``/healthz``.

Tasks cross the wire as their plain field dict — the same shape
:func:`dataclasses.asdict` gives the journal — so a worker on any host
reconstructs a byte-identical :class:`~repro.experiments.plan.SweepTask`.

Transport resilience lives in the shared
:class:`repro.service.client.ResilientClient`: every :func:`call` is
retried with the pool's deterministic hash-jitter backoff and guarded
by a per-endpoint circuit breaker, so a one-blip partition or a
coordinator mid-restart is absorbed here instead of killing the
worker.  :class:`CoordinatorUnreachable` is raised only once the whole
retry budget (or the caller's deadline) is spent — or instantly, but
cheaply, while the breaker is open.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.experiments.plan import SweepTask
from repro.service.client import ResilientClient, TransportError

#: Default socket timeout for worker -> coordinator calls.
DEFAULT_HTTP_TIMEOUT_S = 30.0

#: The process-wide client every coordinator exchange goes through.
#: Module-level on purpose: the circuit breaker only helps if the
#: lease loop, the heartbeat thread, and the completion path all share
#: one view of the coordinator's health.
SHARED_CLIENT = ResilientClient()


def task_to_wire(task: SweepTask) -> Dict[str, Any]:
    """A task as its JSON-safe field dict (digest-stable)."""
    return dataclasses.asdict(task)


def task_from_wire(payload: Dict[str, Any]) -> SweepTask:
    """Reconstruct a task from the wire dict (unknown keys rejected)."""
    return SweepTask(**payload)


class CoordinatorUnreachable(RuntimeError):
    """A worker request that never reached (or never left) the coordinator."""


def call(
    base_url: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout_s: float = DEFAULT_HTTP_TIMEOUT_S,
    retries: Optional[int] = None,
    deadline_s: Optional[float] = None,
    client: Optional[ResilientClient] = None,
) -> Dict[str, Any]:
    """One JSON round-trip to the coordinator (POST with a payload,
    GET without); :class:`CoordinatorUnreachable` once the shared
    client's bounded retry/backoff budget is spent.

    HTTP error statuses with a JSON body are returned as that body —
    the protocol encodes outcomes (``duplicate``, ``held``) in the
    payload, not the status line.  ``retries`` overrides the shared
    retry budget (0 = exactly one attempt: heartbeats, which would
    rather miss a beat than pile up), and ``deadline_s`` bounds the
    *total* time across attempts — the remaining budget is threaded
    through each retry, never reset by one.
    """
    chosen = client if client is not None else SHARED_CLIENT
    try:
        return chosen.request(
            base_url,
            path,
            payload=payload,
            timeout_s=timeout_s,
            retries=retries,
            deadline_s=deadline_s,
        )
    except TransportError as exc:
        raise CoordinatorUnreachable(f"{path}: {exc}") from exc
