"""The ``repro serve`` write-ahead job journal.

Crash recoverability for the service tier: every accepted job is
journaled *before* its HTTP acknowledgement, every state transition
(``queued`` -> ``running`` -> ``done``/``failed``) is appended as it
happens, and a restarted daemon replays the log to reconstruct the
job table — re-enqueueing jobs that never ran, re-executing jobs that
were interrupted mid-flight, and keeping already-terminal jobs
visible without re-running them.

The discipline is the sweep journal's — both write through
:class:`repro.durable.AppendLog` (fsync-first, append-only JSONL) and
read back through the same lenient :func:`repro.durable.read_jsonl`, so
a torn final line is tolerated with a ``RuntimeWarning`` — but the
record shape is different: a sweep journal
checkpoints *results*; the WAL checkpoints *intent*.  Results never
enter the WAL — they can be megabytes and are already content-addressed
in the compile cache, which is exactly what makes replay idempotent:
an interrupted job re-executed after a crash resolves its compile
through the same cache key and short-circuits to the stored artifact
instead of compiling twice.

Record shapes (one JSON object per line, ``"v": 1``)::

    {"v": 1, "event": "submitted", "job": {"id", "kind", "tenant",
     "params", "coalesce_key", "deadline_s", "submitted_at",
     "coalesced_with"}}
    {"v": 1, "event": "running",  "id": "job-000001"}
    {"v": 1, "event": "done",     "id": "job-000001"}
    {"v": 1, "event": "failed",   "id": "job-000001", "error": {...}}

On restart the daemon calls :meth:`JobWAL.replay` for the surviving
job states, then :meth:`JobWAL.rewrite` to compact the log: terminal
jobs are dropped (their artifacts live in the cache; their status
blocks are re-registered in memory by the server) and pending jobs are
re-journaled as fresh ``submitted`` records, so the WAL never grows
across restarts and a second replay of the same file is a no-op.

Fault injection (``REPRO_FAULT_INJECT``): ``serve-kill:N`` turns the
Nth fsync into an uncatchable ``os._exit`` and ``wal-torn-tail`` makes
the next append write only a prefix of its line before dying — see
:mod:`repro.experiments.faults`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.durable import AppendLog, atomic_write, read_jsonl
from repro.experiments.faults import (
    INJECTED_CRASH_EXIT_CODE,
    maybe_inject_serve_kill,
    wal_torn_tail_requested,
)

#: WAL line format version; bump on incompatible record changes.
WAL_VERSION = 1

#: Events a WAL line may carry, in lifecycle order.
EVENTS = ("submitted", "running", "done", "failed")


def _encode(record: Dict[str, Any]) -> bytes:
    """One WAL line, without its newline."""
    return json.dumps(
        dict(record, v=WAL_VERSION), separators=(",", ":"),
        sort_keys=True, default=str,
    ).encode("utf-8")


@dataclass
class ReplayedJob:
    """One job's surviving state after a WAL replay.

    ``status`` is the last journaled lifecycle state: ``queued`` (a
    ``submitted`` record with no later transition), ``running`` (the
    daemon died mid-execution — the job was *interrupted*), or the
    terminal ``done``/``failed``.
    """

    id: str
    kind: str
    tenant: str
    params: Dict[str, Any]
    coalesce_key: Optional[str] = None
    deadline_s: Optional[float] = None
    submitted_at: float = 0.0
    coalesced_with: Optional[str] = None
    status: str = "queued"
    error: Optional[Dict[str, Any]] = None
    #: Raw job dict as journaled (rewritten verbatim on compaction).
    raw: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def interrupted(self) -> bool:
        """True when the daemon died while this job was executing."""
        return self.status == "running"

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")


class JobWAL(AppendLog):
    """Append-only, fsync-first journal of service job state.

    Every event is fsynced before its writer returns, so the acceptance
    the daemon acknowledges over HTTP is exactly the acceptance a
    restarted daemon recovers.  The fsync counter feeds
    ``serve-kill:N`` fault injection (die *after* the Nth fsync — the
    record is durable, everything after it is lost).
    """

    # ------------------------------------------------------------------
    # Append side

    def _event(self, record: Dict[str, Any]) -> None:
        line = _encode(record)
        if wal_torn_tail_requested():
            # A power cut mid-write: half the bytes, no newline, gone.
            self.append(line[: max(1, len(line) // 2)])
            os._exit(INJECTED_CRASH_EXIT_CODE)
        self.append(line + b"\n")
        maybe_inject_serve_kill(self.fsyncs)

    def submitted(self, job: Dict[str, Any]) -> None:
        self._event({"event": "submitted", "job": job})

    def running(self, job_id: str) -> None:
        self._event({"event": "running", "id": job_id})

    def finished(
        self, job_id: str, status: str,
        error: Optional[Dict[str, Any]] = None,
    ) -> None:
        record: Dict[str, Any] = {"event": status, "id": job_id}
        if error is not None:
            record["error"] = error
        self._event(record)

    # ------------------------------------------------------------------
    # Replay side

    def replay(self) -> List[ReplayedJob]:
        """Surviving job states, in original submission order.

        Later events override earlier ones per job id; a ``submitted``
        record for an id already seen is ignored (duplicate appends
        from a previous recovery cannot double-register a job).
        """
        jobs: Dict[str, ReplayedJob] = {}
        records = read_jsonl(
            self.path,
            f"service WAL {self.path}",
            "torn write from a crashed daemon?",
            lambda record: (
                record.get("v") == WAL_VERSION
                and record.get("event") in EVENTS
            ),
        )
        for record in records:
            if record["event"] == "submitted":
                raw = record.get("job")
                if not isinstance(raw, dict):
                    continue
                job_id = str(raw.get("id", ""))
                if not job_id or job_id in jobs:
                    continue
                params = raw.get("params")
                jobs[job_id] = ReplayedJob(
                    id=job_id,
                    kind=str(raw.get("kind", "")),
                    tenant=str(raw.get("tenant", "default")),
                    params=params if isinstance(params, dict) else {},
                    coalesce_key=raw.get("coalesce_key"),
                    deadline_s=raw.get("deadline_s"),
                    submitted_at=float(raw.get("submitted_at") or 0.0),
                    coalesced_with=raw.get("coalesced_with"),
                    raw=dict(raw),
                )
                continue
            job = jobs.get(str(record.get("id", "")))
            if job is None:
                continue  # transition for a job we never saw submitted
            event = record["event"]
            if event == "running" and not job.terminal:
                job.status = "running"
            elif event in ("done", "failed"):
                job.status = event
                error = record.get("error")
                job.error = error if isinstance(error, dict) else None
        return list(jobs.values())

    def rewrite(self, pending: List[ReplayedJob]) -> None:
        """Compact the WAL to just the given pending jobs (atomic).

        Terminal and coalesced-duplicate jobs are dropped; each
        pending job becomes a fresh ``submitted`` record.  The log is
        replaced through :func:`repro.durable.atomic_write`, so a crash
        mid-compaction leaves either the old WAL or the new one — never
        a mixture.  Compaction is not an append: ``fsyncs`` is unchanged.
        """
        self.close()
        atomic_write(self.path, b"".join(
            _encode({"event": "submitted", "job": job.raw}) + b"\n"
            for job in pending
        ))
