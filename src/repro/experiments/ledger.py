"""The cell ledger: how every sweep executor settles its grid cells.

A sweep runs on one of three executors: the in-process serial loop and
the supervised process pool (:mod:`repro.experiments.parallel`), or the
distributed coordinator (:mod:`repro.experiments.distributed`).  They
differ in how a cell gets executed, never in what happens once an
attempt ends.  :class:`CellLedger` owns that half:

* the results map, the failure list and the set of failed cells;
* the pending queue of ``(index, attempt, not_before)`` entries and
  :meth:`~CellLedger.next_due`, which skips cells already settled;
* :meth:`~CellLedger.accept` — journal first, then record, once per
  cell: a second completion is refused unjournaled, and a queued retry
  of the accepted cell is never handed out;
* :meth:`~CellLedger.retry_or_fail` — requeue under the
  :class:`~repro.experiments.faults.RetryPolicy` or record the cell's
  one :class:`~repro.experiments.faults.TaskFailure`;
* :meth:`~CellLedger.report` — the :class:`SweepReport` with its
  metrics.

:func:`prepare_sweep` is the prologue both entry points share: open the
cache, plan the grid, open the journal, and either replay it (resume)
or reset it into a fresh ledger.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.cache import Cache, CacheStats, open_cache
from repro.experiments.faults import RetryPolicy, TaskFailure
from repro.experiments.journal import SweepJournal
from repro.experiments.plan import SweepPlan, build_sweep_plan
from repro.experiments.runner import Measurement
from repro.obs import MetricsRegistry, latency_summary, sweep_metrics

logger = logging.getLogger("repro.sweep")


@dataclass
class TaskReport:
    """Timing and cache provenance of one executed task."""

    benchmark: str
    device: str
    compiler: str
    elapsed_s: float
    cache_hit: Optional[bool]
    pid: int
    #: How many attempts this cell took (1 = first try).
    attempts: int = 1
    #: True when the cell was replayed from the checkpoint journal.
    resumed: bool = False


@dataclass
class SweepReport:
    """A sweep's measurements plus the engine's execution telemetry."""

    measurements: List[Measurement]
    tasks: List[TaskReport] = field(default_factory=list)
    mode: str = "serial"
    workers: int = 1
    total_time_s: float = 0.0
    cache_stats: Optional[CacheStats] = None
    #: Cells the engine gave up on (after exhausting retries).
    failures: List[TaskFailure] = field(default_factory=list)
    #: Why a requested parallel run executed serially (None: as asked).
    fallback_reason: Optional[str] = None
    #: Identity of this run's checkpoint journal (None: journaling off).
    run_id: Optional[str] = None
    #: Where the checkpoint journal lives (None: journaling off).
    journal_path: Optional[Path] = None
    #: Cells served from the journal instead of recomputed.
    resumed: int = 0
    #: Calibration days rejected by validation and skipped, with reasons.
    skipped_days: List[Tuple[int, str]] = field(default_factory=list)
    #: Aggregated execution metrics (see :func:`repro.obs.sweep_metrics`).
    #: Always populated by the executors; in-process only — never
    #: journaled, so journal digests are independent of observability.
    metrics: Optional[MetricsRegistry] = None
    #: Where trace/metrics/profile artifacts were written (None: obs off).
    obs_dir: Optional[Path] = None

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.tasks if t.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.tasks) if self.tasks else 0.0

    def summary(self) -> str:
        lines = [
            f"{len(self.tasks)} tasks in {self.total_time_s:.2f}s "
            f"({self.mode}, {self.workers} worker"
            f"{'s' if self.workers != 1 else ''})"
        ]
        if self.fallback_reason is not None:
            lines.append(f"serial fallback: {self.fallback_reason}")
        if self.resumed:
            lines.append(f"resumed from journal: {self.resumed} cells")
        if any(t.cache_hit is not None for t in self.tasks):
            lines.append(
                f"compile-artifact hits: {self.cache_hits}/{len(self.tasks)} "
                f"({100.0 * self.cache_hit_rate:.0f}%)"
            )
        if self.cache_stats is not None:
            lines.append(f"cache store: {self.cache_stats}")
        if self.skipped_days:
            days = ", ".join(str(day) for day, _ in self.skipped_days)
            lines.append(f"skipped bad calibration days: {days}")
        if self.failures:
            kinds: Dict[str, int] = {}
            for failure in self.failures:
                kinds[failure.kind] = kinds.get(failure.kind, 0) + 1
            breakdown = ", ".join(
                f"{count} {kind}" for kind, count in sorted(kinds.items())
            )
            lines.append(f"task failures: {len(self.failures)} ({breakdown})")
        if self.tasks:
            slowest = max(self.tasks, key=lambda t: t.elapsed_s)
            lines.append(
                f"slowest task: {slowest.benchmark} / {slowest.compiler} "
                f"({slowest.elapsed_s:.2f}s)"
            )
        if self.metrics is not None:
            latency = latency_summary(self.metrics)
            if latency:
                lines.append(latency)
        if self.obs_dir is not None:
            lines.append(f"observability artifacts: {self.obs_dir}")
        return "\n".join(lines)


def _as_dict(value: Any) -> Dict[str, Any]:
    return value if isinstance(value, dict) else dataclasses.asdict(value)


def replay_journal(
    journal: SweepJournal, digests: List[str]
) -> Dict[int, Tuple[Measurement, TaskReport]]:
    """The plan's cells already in the journal: index -> result.

    Records that no longer match the dataclass shapes are skipped (the
    cell is simply recomputed); replayed reports are marked ``resumed``.
    """
    completed = journal.load()
    results: Dict[int, Tuple[Measurement, TaskReport]] = {}
    for index, cell_digest in enumerate(digests):
        record = completed.get(cell_digest)
        if record is None:
            continue
        try:
            measurement = Measurement(**record["measurement"])
            report = TaskReport(**record["report"])
        except (KeyError, TypeError):
            continue  # incompatible record; recompute the cell
        report.resumed = True
        results[index] = (measurement, report)
    return results


class CellLedger:
    """Settle-once bookkeeping for the cells of one :class:`SweepPlan`.

    Results are ``(measurement, report)`` pairs: dataclasses from
    in-process execution and journal replay, or the wire dicts a remote
    worker posted (rehydrated only when the report is assembled).
    Every cell not already in ``results`` starts queued at attempt 1.
    """

    def __init__(
        self,
        plan: SweepPlan,
        journal: Optional[SweepJournal],
        policy: RetryPolicy,
        results: Optional[Dict[int, Tuple[Any, Any]]] = None,
    ) -> None:
        self.plan = plan
        self.journal = journal
        self.policy = policy
        self.results: Dict[int, Tuple[Any, Any]] = dict(results or {})
        #: Cells replayed from the journal rather than executed here.
        self.resumed = len(self.results)
        self.failures: List[TaskFailure] = []
        self.failed: Set[int] = set()
        self.pending: Deque[Tuple[int, int, float]] = deque(
            (index, 1, 0.0)
            for index in range(len(plan.tasks))
            if index not in self.results
        )

    @classmethod
    def open(
        cls, plan: SweepPlan, policy: RetryPolicy, resume: bool
    ) -> "CellLedger":
        """A ledger on the plan's journal: replayed (resume) or reset."""
        journal = plan.open_journal()
        results: Dict[int, Tuple[Any, Any]] = {}
        if journal is not None:
            if resume:
                results = replay_journal(journal, plan.digests)
                logger.info(
                    "resuming run %s: %d/%d cells from journal",
                    plan.run_id, len(results), len(plan.tasks),
                )
            else:
                journal.reset()
        return cls(plan, journal, policy, results)

    def adopt(self, results: Dict[int, Tuple[Any, Any]]) -> None:
        """Take journal-replayed cells as settled (they never re-run)."""
        self.results.update(results)
        self.resumed += len(results)

    # ------------------------------------------------------------------
    def settled(self, index: int) -> bool:
        return index in self.results or index in self.failed

    @property
    def outstanding(self) -> int:
        return len(self.plan.tasks) - len(self.results) - len(self.failed)

    @property
    def done(self) -> bool:
        return self.outstanding == 0

    def next_due(self, now: float = math.inf) -> Optional[Tuple[int, int]]:
        """``(index, attempt)`` of the first queued cell due by ``now``.

        Entries for cells settled while queued are dropped; entries not
        yet past their backoff rotate to the back.  The default ``now``
        treats every backoff as served.
        """
        for _ in range(len(self.pending)):
            index, attempt, not_before = self.pending.popleft()
            if self.settled(index):
                continue
            if not_before > now:
                self.pending.append((index, attempt, not_before))
                continue
            return index, attempt
        return None

    def requeue(self, index: int, attempt: int, not_before: float = 0.0) -> None:
        self.pending.append((index, attempt, not_before))

    # ------------------------------------------------------------------
    def accept(self, index: int, measurement: Any, report: Any) -> bool:
        """Journal and record the cell's result; False if already settled.

        Journal first: a crash between the fsync and the bookkeeping
        replays the cell as finished, losing nothing and counting
        nothing twice.  A queued retry of the cell (a late result beat
        it) is dropped when :meth:`next_due` reaches it.
        """
        if self.settled(index):
            return False
        if self.journal is not None:
            self.journal.record(
                self.plan.digests[index], _as_dict(measurement), _as_dict(report)
            )
        self.results[index] = (measurement, report)
        return True

    def give_up(
        self,
        index: int,
        kind: str,
        error_type: str,
        message: str,
        traceback: str,
        attempts: int,
        elapsed_s: float,
    ) -> None:
        """Record the cell's permanent failure; it is never granted again."""
        task = self.plan.tasks[index]
        self.failures.append(
            TaskFailure(
                benchmark=task.benchmark,
                device=task.device,
                compiler=task.compiler,
                day=task.day,
                kind=kind,
                error_type=error_type,
                message=message,
                traceback=traceback,
                attempts=attempts,
                elapsed_s=elapsed_s,
            )
        )
        self.failed.add(index)

    def retry_or_fail(
        self,
        index: int,
        attempt: int,
        kind: str,
        error_type: str,
        message: str,
        traceback: str,
        elapsed_s: float,
    ) -> Optional[float]:
        """Requeue a failed attempt under the policy, or give the cell up.

        Returns the backoff delay when a retry was queued; None when the
        cell was given up on (or had already settled: a no-op).
        """
        if self.settled(index):
            return None
        if attempt > self.policy.retries:
            self.give_up(
                index, kind, error_type, message, traceback, attempt, elapsed_s
            )
            return None
        delay = self.policy.delay(attempt, self.plan.digests[index])
        task = self.plan.tasks[index]
        logger.warning(
            "task %s/%s %s (attempt %d: %s); retrying in %.2fs",
            task.benchmark, task.compiler, kind, attempt, message, delay,
        )
        self.requeue(index, attempt + 1, time.monotonic() + delay)
        return delay

    # ------------------------------------------------------------------
    def report(
        self,
        started: float,
        mode: str,
        workers: int,
        fallback_reason: Optional[str] = None,
        cache_stats: Optional[CacheStats] = None,
    ) -> SweepReport:
        """The settled grid, in plan order, as a :class:`SweepReport`."""
        ordered = [self.results[index] for index in sorted(self.results)]
        journaled = self.journal is not None
        report = SweepReport(
            measurements=[
                Measurement(**m) if isinstance(m, dict) else m
                for m, _ in ordered
            ],
            tasks=[
                TaskReport(**r) if isinstance(r, dict) else r
                for _, r in ordered
            ],
            mode=mode,
            workers=workers,
            total_time_s=time.perf_counter() - started,
            cache_stats=cache_stats,
            failures=list(self.failures),
            fallback_reason=fallback_reason,
            run_id=self.plan.run_id if journaled else None,
            journal_path=self.plan.journal_path if journaled else None,
            resumed=self.resumed,
            skipped_days=list(self.plan.skipped_days),
        )
        report.metrics = sweep_metrics(report)
        return report


def prepare_sweep(
    device,
    compilers,
    *,
    cache: Optional[Cache],
    cache_dir,
    resume: bool,
    policy: RetryPolicy,
    **spec: Any,
) -> Tuple[Optional[Cache], SweepPlan, CellLedger]:
    """Open the cache, plan the grid and open its ledger.

    ``spec`` is the rest of :func:`~repro.experiments.plan.build_sweep_plan`'s
    keywords.  Shared by :func:`~repro.experiments.parallel.run_sweep`
    and :func:`~repro.experiments.distributed.run_distributed_sweep`.
    """
    if cache is None and cache_dir is not None:
        cache = open_cache(cache_dir)
    plan = build_sweep_plan(device, compilers, cache=cache, **spec)
    return cache, plan, CellLedger.open(plan, policy, resume)
