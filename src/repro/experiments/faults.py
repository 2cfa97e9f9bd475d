"""Fault-tolerance primitives for the sweep engine.

A multi-hour evaluation grid dies in three distinct ways: a task hangs
(heavy-tailed SMT solves), a worker process crashes (OOM kill, segfault,
``os._exit``), or a task raises.  This module gives the engine one
vocabulary for all three:

* :class:`RetryPolicy` — per-task wall-clock timeout plus a bounded
  retry budget with exponential backoff and *deterministic* jitter
  (hash-based, so two runs of the same sweep schedule identically);
* :class:`TaskFailure` — the structured record a sweep reports instead
  of aborting: what failed, how (``crash`` / ``timeout`` / ``error``),
  the exception type and traceback, and how many attempts were spent;
* :func:`maybe_inject_fault` — an environment-driven fault-injection
  hook (``REPRO_FAULT_INJECT``) used by the test suite and the CI
  fault-injection smoke job to kill, hang, or fail specific cells.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Optional

#: Environment variable holding fault-injection clauses.  Format is a
#: comma-separated list of ``mode:benchmark[:max_attempt]`` clauses,
#: where ``mode`` is ``crash`` (``os._exit`` the worker), ``hang``
#: (sleep far past any sane deadline) or ``error`` (raise
#: :class:`InjectedFault`).  With ``max_attempt`` the fault only fires
#: on attempts up to that number, so retries can be observed succeeding:
#: ``REPRO_FAULT_INJECT=crash:BV4:1`` crashes the first attempt only.
#:
#: The distributed sweep adds three more modes, read by the coordinator
#: and workers rather than :func:`maybe_inject_fault` (which skips
#: unknown modes, so all clauses compose in one variable):
#: ``coordinator-kill:N`` (raise :class:`InjectedCoordinatorDeath`
#: after N journaled completions), ``worker-partition:BENCH`` (the
#: worker holding BENCH goes heartbeat-silent past the lease TTL) and
#: ``lease-expiry:BENCH`` (the coordinator force-expires BENCH's first
#: lease).
#:
#: The ``repro serve`` daemon's pool workers fire the three modes above
#: on the benchmark of each compile and run job they execute.
#:
#: The ``repro serve`` daemon adds three more, read by its WAL and
#: HTTP layers: ``serve-kill:N`` (uncatchable ``os._exit`` immediately
#: after the Nth WAL fsync — a SIGKILL landing between the journal
#: write and the next state transition), ``slow-response:MS`` (delay
#: every HTTP response by MS milliseconds, for client-timeout and
#: retry testing) and ``wal-torn-tail`` (the next WAL append writes
#: only a prefix of its line and then dies, leaving a torn tail for
#: the restarted daemon to tolerate).
FAULT_INJECT_ENV = "REPRO_FAULT_INJECT"

#: Exit code used by injected crashes, so a test can tell an injected
#: death from an accidental one.
INJECTED_CRASH_EXIT_CODE = 73

#: How long an injected hang sleeps; anything longer than every timeout.
_HANG_SECONDS = 3600.0


class InjectedFault(RuntimeError):
    """The exception raised by ``error``-mode fault injection."""


class InjectedCoordinatorDeath(BaseException):
    """Simulated coordinator death from ``coordinator-kill`` injection.

    Deliberately a ``BaseException`` so ordinary ``except Exception``
    recovery paths inside the coordinator cannot swallow it — a real
    SIGKILL would not be catchable either.  The distributed sweep
    driver re-raises it to its caller; tests assert that a subsequent
    resume replays the journal to a byte-identical report.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout and bounded-retry configuration for sweep tasks.

    Attributes:
        task_timeout_s: wall-clock budget per attempt; None disables
            timeout enforcement.  Enforced by the process pool (a
            worker past its deadline is terminated and replaced); the
            serial path cannot preempt a running task and relies on the
            SMT solver's own deadline instead.
        retries: additional attempts after the first failure; 0 means
            fail fast.
        backoff_s: delay before the first retry.
        backoff_factor: multiplier per subsequent retry.
        max_backoff_s: cap on any single delay.
        jitter: fraction of the base delay added as deterministic
            jitter, spreading retries without losing reproducibility.
    """

    task_timeout_s: Optional[float] = None
    retries: int = 0
    backoff_s: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    jitter: float = 0.25

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before retrying after the ``attempt``-th failure.

        Pure function of (policy, attempt, token): the jitter comes
        from a hash of the token (typically the task digest), not from
        a live RNG, so resumed and repeated runs behave identically.
        """
        base = self.backoff_s * (self.backoff_factor ** max(attempt - 1, 0))
        base = min(base, self.max_backoff_s)
        seed = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
        fraction = int.from_bytes(seed[:4], "big") / 0xFFFFFFFF
        return min(base * (1.0 + self.jitter * fraction), self.max_backoff_s)


@dataclass
class TaskFailure:
    """One grid cell the sweep gave up on, with full provenance.

    ``kind`` is ``"crash"`` (the worker process died), ``"timeout"``
    (the attempt exceeded the policy's wall-clock budget) or
    ``"error"`` (the task raised).
    """

    benchmark: str
    device: str
    compiler: str
    day: Optional[int]
    kind: str
    error_type: str
    message: str
    traceback: str
    attempts: int
    elapsed_s: float

    def describe(self) -> str:
        return (
            f"{self.benchmark} / {self.compiler} (day {self.day}): "
            f"{self.kind} after {self.attempts} attempt"
            f"{'s' if self.attempts != 1 else ''} "
            f"[{self.error_type}: {self.message}]"
        )


def maybe_inject_fault(benchmark: str, attempt: int) -> None:
    """Fire any matching ``REPRO_FAULT_INJECT`` clause for this task.

    Called at the top of task execution (pool workers and the serial
    path alike).  A no-op unless the environment variable is set, so
    production sweeps pay one dict lookup.
    """
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    for clause in spec.split(","):
        parts = clause.strip().split(":")
        if len(parts) < 2:
            continue
        mode, target = parts[0].strip().lower(), parts[1].strip()
        if target != benchmark:
            continue
        if len(parts) > 2:
            try:
                if attempt > int(parts[2]):
                    continue
            except ValueError:
                continue
        if mode == "crash":
            os._exit(INJECTED_CRASH_EXIT_CODE)
        if mode == "hang":
            time.sleep(_HANG_SECONDS)
        if mode == "error":
            raise InjectedFault(
                f"injected failure for {benchmark} (attempt {attempt})"
            )


def _distributed_clauses(mode: str):
    """Yield the target field of every ``mode:target`` clause set."""
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return
    for clause in spec.split(","):
        parts = clause.strip().split(":")
        if len(parts) >= 2 and parts[0].strip().lower() == mode:
            yield parts[1].strip()


def maybe_inject_coordinator_fault(completions: int) -> None:
    """Kill the coordinator after N journaled completions.

    ``REPRO_FAULT_INJECT=coordinator-kill:N`` raises
    :class:`InjectedCoordinatorDeath` once ``completions`` reaches N —
    *after* the journal fsync, exactly like a SIGKILL landing between
    the checkpoint and the next lease grant.  Unknown to (ignored by)
    :func:`maybe_inject_fault`, so it composes with worker-side
    clauses in the same variable.
    """
    for target in _distributed_clauses("coordinator-kill"):
        try:
            threshold = int(target)
        except ValueError:
            continue
        if completions >= threshold:
            raise InjectedCoordinatorDeath(
                f"injected coordinator death after {completions} completions"
            )


def serve_kill_threshold() -> Optional[int]:
    """The N of a ``serve-kill:N`` clause, or None when unset.

    The serve daemon's WAL counts its fsyncs and calls
    :func:`maybe_inject_serve_kill` after each one; the clause turns
    the Nth fsync into an uncatchable death (``os._exit``), exactly
    like a SIGKILL landing right after the journal write was made
    durable but before anything that depends on it happened.
    """
    for target in _distributed_clauses("serve-kill"):
        try:
            return int(target)
        except ValueError:
            continue
    return None


def maybe_inject_serve_kill(fsyncs: int) -> None:
    """Die (uncatchably) once ``fsyncs`` reaches the injected threshold.

    Called by :class:`repro.service.wal.JobWAL` after every fsync.
    ``os._exit`` is deliberate: no ``finally`` blocks, no drain, no
    flush — the restarted daemon must recover from the WAL alone.
    """
    threshold = serve_kill_threshold()
    if threshold is not None and fsyncs >= threshold:
        os._exit(INJECTED_CRASH_EXIT_CODE)


def slow_response_delay_s() -> float:
    """Seconds of injected response delay (``slow-response:MS``), else 0.

    The serve daemon sleeps this long (on the event loop, per request)
    before writing any HTTP response, so client-side timeout, retry,
    and circuit-breaker behavior can be exercised against a real
    daemon that is merely slow rather than dead.
    """
    for target in _distributed_clauses("slow-response"):
        try:
            return max(0.0, float(target) / 1000.0)
        except ValueError:
            continue
    return 0.0


def wal_torn_tail_requested() -> bool:
    """True when a ``wal-torn-tail`` clause is present.

    The next WAL append writes only a prefix of its record (no
    newline, fsynced) and then dies — the torn-tail shape a real
    power cut leaves.  Replay must skip the fragment with a
    ``RuntimeWarning`` and recover every record before it.
    """
    spec = os.environ.get(FAULT_INJECT_ENV)
    if not spec:
        return False
    return any(
        clause.strip().split(":")[0].strip().lower() == "wal-torn-tail"
        for clause in spec.split(",")
    )


def should_partition(benchmark: str) -> bool:
    """True when ``worker-partition:BENCH`` names this cell's benchmark.

    A partitioned worker keeps computing but goes silent: it stops
    heartbeating and delays its completion past the lease TTL, so the
    coordinator must re-lease the cell and then deduplicate the
    stale completion when the partition heals.
    """
    return any(t == benchmark for t in _distributed_clauses("worker-partition"))


def forced_lease_expiry(benchmark: str) -> bool:
    """True when ``lease-expiry:BENCH`` names this benchmark.

    The coordinator honours this by expiring the *first* lease it
    grants for the cell immediately, forcing a requeue/steal without
    waiting out a real TTL.
    """
    return any(t == benchmark for t in _distributed_clauses("lease-expiry"))
