"""The distributed sweep driver: plan, coordinate, degrade gracefully.

:func:`run_distributed_sweep` is the blocking entry point behind
``repro sweep --workers-from <spec>``.  It plans the sweep with the
exact machinery the single-machine engine uses
(:func:`~repro.experiments.plan.build_sweep_plan`), boots a
:class:`~repro.experiments.distributed.coordinator.Coordinator`,
spawns local worker processes (``repro work <url>``), prints the join
command for remote hosts, and assembles the same
:class:`~repro.experiments.parallel.SweepReport` a single-machine run
would return — byte-identical task digests, provably, because both
paths journal the same cells under the same run id.

The driver shares its prologue with the single-machine engine
(:func:`~repro.experiments.ledger.prepare_sweep`: cache, plan, journal
replay or reset) and keeps no bookkeeping of its own: retries,
failures and exactly-once journaling belong to the
:class:`~repro.experiments.ledger.CellLedger` inside the coordinator
state, the one owner of those rules for every executor.

Graceful degradation is explicit: a sweep that cannot be distributed
(no journal to make completions durable, no worker ever reachable, the
whole local fleet gone) falls back to the in-process engine — on the
plan already built, after replaying whatever the fleet journaled — with
the triggering condition recorded in ``SweepReport.fallback_reason``,
never a silent behavior change.
"""

from __future__ import annotations

import asyncio
import logging
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.cache import Cache, CompileCache
from repro.compiler import DEFAULT_OPTIONS, CompileOptions
from repro.devices.device import Device
from repro.experiments.distributed.coordinator import (
    Coordinator,
    CoordinatorState,
)
from repro.experiments.faults import RetryPolicy
from repro.experiments.journal import SweepJournal
from repro.experiments.ledger import CellLedger, prepare_sweep
from repro.experiments.parallel import SweepReport, run_in_process
from repro.experiments.plan import SweepPlan
from repro.experiments.runner import DEFAULT_FAULT_SAMPLES, CompilerName
from repro.programs import Benchmark

logger = logging.getLogger("repro.sweep.distributed")

#: How often the driver's watchdog checks workers and progress.
_WATCHDOG_INTERVAL_S = 0.25

#: Grace given to local workers to drain after the sweep completes.
_WORKER_DRAIN_GRACE_S = 3.0

#: Respawn budget per local worker slot: a worker that keeps dying
#: (crash-looping faults, broken environment) stops being replaced.
_RESPAWNS_PER_SLOT = 3


@dataclass
class WorkerFleet:
    """Parsed ``--workers-from`` specification."""

    local: int = 0
    remote_hosts: List[str] = field(default_factory=list)


def parse_workers_from(spec: Union[str, Sequence[str]]) -> WorkerFleet:
    """Parse a worker fleet spec.

    Accepts a comma-separated string (or a sequence of entries) where
    each entry is ``local`` / ``local:N`` (N local worker processes) or
    a remote host name.  A path to an existing file is read as one
    entry per line (``#`` comments allowed) — the hosts-file form.
    Remote hosts are advisory: the driver cannot start processes on
    other machines, so it prints the exact ``repro work <url>`` command
    to run there and counts on the lease protocol to absorb whoever
    shows up.
    """
    if isinstance(spec, str):
        path = Path(spec)
        if os.sep in spec or path.is_file():
            try:
                lines = path.read_text(encoding="utf-8").splitlines()
            except OSError as exc:
                raise ValueError(f"unreadable hosts file {spec!r}: {exc}")
            entries = [
                line.split("#", 1)[0].strip()
                for line in lines
            ]
        else:
            entries = [part.strip() for part in spec.split(",")]
    else:
        entries = [str(part).strip() for part in spec]
    fleet = WorkerFleet()
    for entry in entries:
        if not entry:
            continue
        if entry == "local":
            fleet.local += 1
        elif entry.startswith("local:"):
            try:
                count = int(entry.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad worker spec entry {entry!r}")
            if count < 0:
                raise ValueError(f"bad worker spec entry {entry!r}")
            fleet.local += count
        else:
            fleet.remote_hosts.append(entry)
    return fleet


class DistributedSweep:
    """One distributed run: coordinator + local fleet + assembly.

    Exposed as a class (rather than hiding everything inside
    :func:`run_distributed_sweep`) so tests can boot the coordinator on
    a background thread, read ``url`` once ``ready`` is set, and attach
    in-process workers — the chaos matrix drives exactly this seam.
    """

    def __init__(
        self,
        plan: SweepPlan,
        journal: SweepJournal,
        policy: RetryPolicy,
        fleet: WorkerFleet,
        cache: Optional[Cache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_ttl_s: float = 30.0,
        worker_wait_s: float = 60.0,
        spawn_local: bool = True,
    ) -> None:
        self.plan = plan
        self.journal = journal
        self.fleet = fleet
        self.cache = cache
        self.lease_ttl_s = lease_ttl_s
        self.worker_wait_s = worker_wait_s
        self.spawn_local = spawn_local
        self.state = CoordinatorState(
            plan, journal, policy, lease_ttl_s=lease_ttl_s
        )
        if plan.journal_dir is not None:
            self.state.state_path = (
                Path(plan.journal_dir) / f"{plan.run_id}.state.json"
            )
        self.coordinator = Coordinator(self.state, host=host, port=port)
        #: Set once the coordinator is listening; ``url`` is valid then.
        self.ready = threading.Event()
        self.url: Optional[str] = None
        self.fallback_reason: Optional[str] = None
        self._procs: List[subprocess.Popen] = []
        self._respawns = 0
        self._started_mono = 0.0

    # ------------------------------------------------------------------
    def _worker_command(self, slot: int) -> List[str]:
        command = [
            sys.executable, "-m", "repro", "work", str(self.url),
            "--worker-id", f"local-{slot}-{os.getpid()}",
        ]
        if isinstance(self.cache, CompileCache):
            command += ["--cache-dir", str(self.cache.root)]
        # Workers take the other knobs from each leased task.
        if not self.plan.options.warm_start:
            command.append("--no-warm-start")
        return command

    def _spawn_worker(self, slot: int) -> None:
        try:
            self._procs.append(
                subprocess.Popen(self._worker_command(slot))
            )
        except OSError as exc:
            logger.error("could not spawn local worker %d: %s", slot, exc)

    def _spawn_fleet(self) -> None:
        if not self.spawn_local:
            return
        for slot in range(self.fleet.local):
            self._spawn_worker(slot)
        for host in self.fleet.remote_hosts:
            logger.warning(
                "remote host %s: start a worker there with\n"
                "    repro work %s%s",
                host, self.url,
                (
                    f" --cache-dir <shared-path-of {self.cache.root}>"
                    if isinstance(self.cache, CompileCache)
                    else ""
                ),
            )

    def _live_procs(self) -> List[subprocess.Popen]:
        return [proc for proc in self._procs if proc.poll() is None]

    def _reap_and_respawn(self) -> None:
        """Replace crashed local workers, within the respawn budget."""
        if self.state.done:
            return
        budget = _RESPAWNS_PER_SLOT * max(self.fleet.local, 1)
        for slot, proc in enumerate(list(self._procs)):
            code = proc.poll()
            if code is None or code == 0:
                continue
            self._procs.remove(proc)
            if self._respawns >= budget:
                logger.error(
                    "local worker died with exit code %d; respawn budget "
                    "(%d) spent, not replacing it", code, budget,
                )
                continue
            self._respawns += 1
            logger.warning(
                "local worker died with exit code %d; respawning "
                "(%d/%d)", code, self._respawns, budget,
            )
            self._spawn_worker(slot)

    # ------------------------------------------------------------------
    async def _watchdog(self) -> None:
        while True:
            if self.state.done or self.state.fatal is not None:
                return
            self._reap_and_respawn()
            elapsed = time.monotonic() - self._started_mono
            if not self.state.workers and elapsed >= self.worker_wait_s:
                self.fallback_reason = (
                    f"no worker contacted the coordinator within "
                    f"{self.worker_wait_s:.1f}s "
                    f"({self.fleet.local} local requested, "
                    f"{len(self.fleet.remote_hosts)} remote expected)"
                )
                return
            if (
                self.spawn_local
                and self.fleet.local > 0
                and not self.fleet.remote_hosts
                and not self._live_procs()
                and not self.state.leases
            ):
                # The whole local fleet is gone (respawn budget spent)
                # and nothing is in flight: distribution cannot finish.
                self.fallback_reason = (
                    "all local workers exited with the sweep unfinished"
                )
                return
            await asyncio.sleep(_WATCHDOG_INTERVAL_S)

    async def _main(self) -> None:
        await self.coordinator.start()
        self.url = self.coordinator.url
        self._started_mono = time.monotonic()
        self._spawn_fleet()
        self.ready.set()
        sweeper = asyncio.create_task(self.coordinator.sweep_expired())
        try:
            await self._watchdog()
        finally:
            await self.coordinator.stop()
            sweeper.cancel()
            try:
                await sweeper
            except asyncio.CancelledError:
                pass

    def _shutdown_fleet(self) -> None:
        deadline = time.monotonic() + _WORKER_DRAIN_GRACE_S
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=1.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    # ------------------------------------------------------------------
    def run(self) -> "DistributedSweep":
        """Drive the sweep to completion, fallback, or injected death."""
        try:
            asyncio.run(self._main())
        finally:
            self.ready.set()  # never leave attachers waiting on a crash
            self._shutdown_fleet()
            self.journal.close()
        if self.state.fatal is not None:
            raise self.state.fatal
        return self

    def assemble_report(self, started: float) -> SweepReport:
        """The finished run as the standard :class:`SweepReport`.

        Wire-dict results are rehydrated through the same dataclass
        round-trip journal resume uses, so distributed measurements are
        byte-identical to journal-replayed ones by construction.
        """
        state = self.state
        report = state.ledger.report(
            started,
            "distributed",
            max(len(state.workers), 1),
            self.fallback_reason,
        )
        # Fold the coordinator's lease/steal/heartbeat/requeue counters
        # into the same registry the single-machine engine populates.
        report.metrics.merge(state.registry)
        return report


def run_distributed_sweep(
    device: Union[Device, str],
    compilers: Sequence[CompilerName],
    benchmarks: Optional[Sequence[Union[Benchmark, str]]] = None,
    day: Optional[int] = None,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    with_success: bool = True,
    workers_from: Union[str, Sequence[str]] = "local:2",
    cache: Optional[Cache] = None,
    cache_dir=None,
    base_seed: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    days: Optional[Sequence[int]] = None,
    skip_bad_days: bool = False,
    run_id: Optional[str] = None,
    resume: bool = False,
    journal_dir=None,
    options: CompileOptions = DEFAULT_OPTIONS,
    host: str = "127.0.0.1",
    port: int = 0,
    lease_ttl_s: float = 30.0,
    worker_wait_s: float = 60.0,
    spawn_local: bool = True,
) -> SweepReport:
    """Run one sweep sharded across workers; the standard report.

    Mirrors :func:`~repro.experiments.parallel.run_sweep`'s signature
    (``workers`` replaced by ``workers_from``) plus the distribution
    knobs: ``lease_ttl_s`` (how long a silent worker keeps a cell),
    ``worker_wait_s`` (how long to wait for the first worker before
    degrading to the in-process engine), ``host``/``port`` (where the
    coordinator listens; port 0 picks an ephemeral port), and
    ``spawn_local`` (tests attach their own workers).

    Always returns a complete report: when distribution is impossible
    the sweep still runs, in-process, with the reason recorded in
    ``SweepReport.fallback_reason``.
    """
    started = time.perf_counter()
    fleet = parse_workers_from(workers_from)
    policy = RetryPolicy(
        task_timeout_s=task_timeout_s, retries=retries, backoff_s=backoff_s
    )
    cache, plan, ledger = prepare_sweep(
        device,
        compilers,
        cache=cache,
        cache_dir=cache_dir,
        resume=resume,
        policy=policy,
        benchmarks=benchmarks,
        day=day,
        fault_samples=fault_samples,
        with_success=with_success,
        base_seed=base_seed,
        days=days,
        skip_bad_days=skip_bad_days,
        run_id=run_id,
        journal_dir=journal_dir,
        options=options,
    )

    def fallback(reason: str, cells: CellLedger) -> SweepReport:
        logger.warning("distributed sweep degrading to in-process: %s", reason)
        report = run_in_process(cells, cache, max(fleet.local, 1), started)
        report.fallback_reason = (
            reason
            if report.fallback_reason is None
            else f"{reason}; then {report.fallback_reason}"
        )
        return report

    if ledger.journal is None:
        # Without a journal, completions cannot be made durable and a
        # coordinator restart would lose everything: refuse to
        # distribute rather than pretend.
        return fallback(
            "no journal location (caching disabled and no --journal-dir): "
            "distributed execution requires a durable journal",
            ledger,
        )

    sweep = DistributedSweep(
        plan,
        ledger.journal,
        policy,
        fleet,
        cache=cache,
        host=host,
        port=port,
        lease_ttl_s=lease_ttl_s,
        worker_wait_s=worker_wait_s,
        spawn_local=spawn_local,
    )
    sweep.state.prefill(ledger.results)
    sweep.run()

    if sweep.fallback_reason is not None and not sweep.state.done:
        # Replay the journal again: cells the fleet finished before it
        # was given up on count as resumed, exactly like a --resume.
        return fallback(
            sweep.fallback_reason, CellLedger.open(plan, policy, resume=True)
        )
    return sweep.assemble_report(started)
