"""The parallel experiment execution engine.

The paper's evaluation is a large grid — benchmarks x compiler levels x
devices x calibration days — whose cells are embarrassingly parallel:
each is one compile plus one Monte-Carlo estimate, with no shared
mutable state.  :func:`run_sweep` fans that grid out over a supervised
worker pool and layers the :mod:`repro.cache` store underneath, so
identical cells are computed once *across* figure scripts and worker
processes.

Fault tolerance: the pool is supervised, not fire-and-forget.  A dead
worker poisons only the task it was running — the supervisor replaces
it; a task past its wall-clock deadline is terminated the same way; an
ordinary exception inside a task is caught in the worker and reported
without killing it.  What an attempt's end means — retry under the
:class:`~repro.experiments.faults.RetryPolicy`, a structured
:class:`~repro.experiments.faults.TaskFailure`, a journaled result — is
decided by one :class:`~repro.experiments.ledger.CellLedger`, the same
one the serial loop and the distributed coordinator settle cells
through.  Completed cells stream into an append-only checkpoint journal
(see :mod:`repro.experiments.journal`), so an interrupted sweep resumes
with ``resume=True`` / ``repro sweep --resume`` and replays only
unfinished cells.

Determinism: every task carries explicit seeds.  By default the legacy
constants are used (compile seed 0, Monte-Carlo seed 1234 — exactly
what the serial path has always done), so existing figures reproduce
unchanged; passing ``base_seed`` derives a distinct, stable seed per
task from the task's identity, never from scheduling order.  Either
way a task's result is a pure function of its description, which is
what makes ``workers=4`` byte-identical to ``workers=1`` — and retried
or resumed cells byte-identical to first-try ones.

Fallback: tasks cross process boundaries by *name* (benchmark registry
name, device library name), because benchmark factories are closures
and do not pickle.  Grids over ad-hoc benchmarks or devices, pools
that cannot start (no ``fork``/semaphores), or ``workers=1`` all fall
back to the serial path, which runs the very same task function; the
triggering condition is logged and recorded in
``SweepReport.fallback_reason`` instead of degrading silently.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import queue as queue_module
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.cache import Cache, activate_cache, get_active_cache, open_cache
from repro.compiler import DEFAULT_OPTIONS, CompileOptions
from repro.devices import device_by_name
from repro.devices.device import Device
from repro.experiments.faults import RetryPolicy, maybe_inject_fault
from repro.experiments.ledger import (
    CellLedger,
    SweepReport,
    TaskReport,
    prepare_sweep,
)
from repro.experiments.plan import (
    SweepTask,
    derive_task_seed,  # noqa: F401 - re-exported for back-compat
)
from repro.experiments.runner import (
    DEFAULT_FAULT_SAMPLES,
    CompilerName,
    Measurement,
    check_fault_samples,
    measure,
    resolve_compiler,
)
from repro.obs import (
    MetricsRegistry,
    ObsConfig,
    Tracer,
    cprofile_to,
    get_active_tracer,
    merge_chrome_traces,
    tracer_context,
)
from repro.programs import Benchmark, benchmark_by_name

logger = logging.getLogger("repro.sweep")

#: How often the supervisor polls for results and checks worker health.
_POLL_INTERVAL_S = 0.05

#: Grace period after terminating a worker before escalating to kill.
_TERMINATE_GRACE_S = 5.0

#: Errors that mean "no usable multiprocessing on this platform".
_POOL_START_ERRORS = (OSError, PermissionError, NotImplementedError, ImportError)


# ----------------------------------------------------------------------
# Task execution (runs in pool workers and in the serial fallback).
# ----------------------------------------------------------------------
def _run_cell(
    task: SweepTask,
    attempt: int,
    warm_start: bool,
    benchmark: Benchmark,
    device: Device,
    cache: Optional[Cache],
    built=None,
) -> Tuple[Measurement, TaskReport]:
    """Measure one cell exactly as its task describes it, timed."""
    started = time.perf_counter()
    maybe_inject_fault(task.benchmark, attempt)
    measurement = measure(
        benchmark,
        device,
        resolve_compiler(task.compiler),
        day=task.day,
        fault_samples=task.fault_samples,
        with_success=task.with_success,
        seed=task.compile_seed,
        mc_seed=task.mc_seed,
        built=built,
        cache=cache,
        options=CompileOptions.from_task(task, warm_start=warm_start),
    )
    report = TaskReport(
        benchmark=task.benchmark,
        device=task.device,
        compiler=task.compiler,
        elapsed_s=time.perf_counter() - started,
        cache_hit=measurement.cache_hit,
        pid=os.getpid(),
        attempts=attempt,
    )
    return measurement, report


def run_task(
    task: SweepTask, attempt: int = 1, *, warm_start: bool
) -> Tuple[Measurement, TaskReport]:
    """Execute one grid cell using this process's active cache.

    ``warm_start`` is the worker's own setting, not task identity: it
    cannot change a mapping (see :meth:`repro.smt.MaxMinSolver.solve`),
    so it stays off :class:`SweepTask` and out of task digests.
    """
    return _run_cell(
        task,
        attempt,
        warm_start,
        benchmark_by_name(task.benchmark),
        device_by_name(task.device, day=task.day or 0),
        get_active_cache(),
    )


#: What a worker needs to set up its own observability:
#: ``(out_dir as str, trace enabled, profile enabled)``, or None for off.
ObsSpec = Optional[Tuple[str, bool, bool]]


@contextmanager
def _worker_obs(obs_spec: ObsSpec):
    """Per-process tracer and cProfile for one pool worker.

    Artifacts (``worker-<pid>-trace.json``, ``worker-<pid>.pstats``) are
    dumped when the worker drains its sentinel and exits cleanly.  A
    worker the supervisor kills (crash, blown deadline) loses its
    artifacts — the supervisor still synthesizes a span for every
    completed task, so the merged trace stays whole.
    """
    if obs_spec is None:
        yield
        return
    out_dir, want_trace, want_profile = obs_spec
    out_path = Path(out_dir)
    pid = os.getpid()
    tracer = Tracer() if want_trace else None
    profile_path = out_path / f"worker-{pid}.pstats" if want_profile else None
    with tracer_context(tracer), cprofile_to(profile_path):
        try:
            yield
        finally:
            if tracer is not None:
                tracer.finish()
                try:
                    tracer.write_chrome_trace(
                        out_path / f"worker-{pid}-trace.json"
                    )
                except OSError:  # never let obs take down a worker exit
                    pass


def _pool_worker(
    inbox, results, cache_dir, obs_spec: ObsSpec, warm_start: bool
) -> None:
    """Worker loop: run task envelopes until the None sentinel arrives.

    Ordinary task exceptions are caught and reported — they must not
    kill the worker; only hard crashes (``os._exit``, signals, the OOM
    killer) do, and the supervisor detects those by liveness.
    """
    activate_cache(open_cache(cache_dir) if cache_dir is not None else None)
    with _worker_obs(obs_spec):
        while True:
            envelope = inbox.get()
            if envelope is None:
                return
            seq, task, attempt = envelope
            started = time.perf_counter()
            try:
                outcome = run_task(
                    task, attempt=attempt, warm_start=warm_start
                )
            except Exception as exc:  # noqa: BLE001 - isolate, report, survive
                results.put(
                    (
                        seq,
                        attempt,
                        "error",
                        (
                            type(exc).__name__,
                            str(exc),
                            traceback.format_exc(),
                            time.perf_counter() - started,
                        ),
                    )
                )
            else:
                results.put((seq, attempt, "ok", outcome))


# ----------------------------------------------------------------------
# The engine entry point.
# ----------------------------------------------------------------------
def _registry_name(benchmark: Benchmark) -> Optional[str]:
    """The benchmark's registry name, or None if it is not registered."""
    try:
        registered = benchmark_by_name(benchmark.name)
    except KeyError:
        return None
    return registered.name


def _device_registry_name(device: Device) -> Optional[str]:
    """The device's library name, or None for ad-hoc devices."""
    try:
        found = device_by_name(device.name)
    except KeyError:
        return None
    return found.name if found.name == device.name else None


def _serial_reason(
    workers: int,
    num_tasks: int,
    device: Device,
    fitting: Sequence[Tuple[Benchmark, Tuple]],
) -> Optional[str]:
    """Why this sweep cannot (or should not) use the process pool."""
    if workers <= 1:
        return "workers=1 requested"
    if num_tasks <= 1:
        return f"grid has only {num_tasks} task(s)"
    if _device_registry_name(device) is None:
        return (
            f"device {device.name!r} is not in the device library "
            "(ad-hoc devices cannot cross process boundaries by name)"
        )
    adhoc = [b.name for b, _ in fitting if _registry_name(b) is None]
    if adhoc:
        return (
            f"benchmark(s) {adhoc} are not in the registry "
            "(ad-hoc factories do not pickle)"
        )
    return None


#: Artifact name patterns owned by the sweep engine inside an obs dir.
_OBS_ARTIFACT_GLOBS = (
    "worker-*-trace.json",
    "worker-*.pstats",
    "supervisor-*.pstats",
)


def _reset_obs_dir(out_dir: Path) -> None:
    """Create the artifact directory and drop any previous run's files.

    Only the engine's own artifact patterns are removed — an obs dir
    pointed at a directory with unrelated contents loses nothing.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for pattern in _OBS_ARTIFACT_GLOBS:
        for stale in out_dir.glob(pattern):
            try:
                stale.unlink()
            except OSError:
                pass


def _write_obs_artifacts(
    out_dir: Path,
    tracer: Optional[Tracer],
    registry: MetricsRegistry,
) -> Path:
    """Write ``trace.json`` and ``metrics.prom`` for one finished sweep.

    The trace merges the supervisor's spans with every worker trace
    dumped into ``out_dir`` (workers killed mid-task leave none; their
    tasks still appear as supervisor-synthesized ``sweep.task`` spans).
    """
    traces = []
    if tracer is not None:
        traces.append(tracer.to_chrome_trace())
    for worker_trace in sorted(out_dir.glob("worker-*-trace.json")):
        try:
            with open(worker_trace, "r", encoding="utf-8") as handle:
                traces.append(json.load(handle))
        except (OSError, ValueError):
            continue  # torn write from a killed worker: skip, keep going
    if traces:
        merged = merge_chrome_traces(*traces)
        with open(out_dir / "trace.json", "w", encoding="utf-8") as handle:
            json.dump(merged, handle)
    (out_dir / "metrics.prom").write_text(
        registry.render_prometheus(), encoding="utf-8"
    )
    return out_dir


def run_sweep(
    device: Union[Device, str],
    compilers: Sequence[CompilerName],
    benchmarks: Optional[Sequence[Union[Benchmark, str]]] = None,
    day: Optional[int] = None,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    with_success: bool = True,
    workers: int = 1,
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
    obs: Optional[ObsConfig] = None,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> SweepReport:
    """Measure a benchmark suite under several compilers on one device.

    Args:
        device: a :class:`Device` or a library name (e.g. ``"melbourne"``).
        compilers: TriQ levels and/or baseline names (``"Qiskit"``,
            ``"Quil"``).
        benchmarks: suite subset as :class:`Benchmark` objects or
            registry names; defaults to the standard 12-program suite.
            Misfits are skipped, as in the paper.
        workers: process-pool width; 1 (the default) runs serially.
        cache: an open cache handle, or ``cache_dir`` to open one; with
            neither, caching (and journaling) is off.
        base_seed: derive per-task seeds from this; None keeps the
            legacy fixed seeds.
        task_timeout_s: wall-clock budget per task attempt (pool mode
            enforces it by terminating the worker; serial mode relies
            on the SMT solver's internal deadline).
        retries: extra attempts per task after a crash/timeout/error.
        backoff_s: base exponential-backoff delay between attempts.
        days: calibration days to sweep (overrides ``day``); each
            benchmark x compiler cell is measured once per day.
        skip_bad_days: skip calibration days that fail validation
            (recorded in ``SweepReport.skipped_days``) instead of
            raising :class:`~repro.devices.calibration.CalibrationError`.
        run_id: name of this run's checkpoint journal; defaults to a
            digest of the sweep specification.
        resume: replay cells already in the journal instead of
            recomputing them (``repro sweep --resume``).
        journal_dir: where journals live; defaults to
            ``<cache-dir>/journals`` when a disk cache is in play.
        options: compile options for every cell (see
            :class:`repro.compiler.CompileOptions`).  Strict contracts
            turn a violation into a task failure; warn records it in
            ``Measurement.contract_violations``.  ``warm_start`` only
            changes speed, never a measurement, key or digest.
        obs: observability configuration (``repro sweep --profile``).
            When enabled the supervisor and every worker record span
            traces (merged into ``<obs-dir>/trace.json``), sweep
            metrics are exported to ``<obs-dir>/metrics.prom``, and
            ``profile=True`` additionally cProfiles each process into
            ``*.pstats``.  Strictly outside the result path: cache
            keys, journal digests, and measurements are byte-identical
            with observability on, off, or absent.

    Raises:
        ValueError: ``fault_samples`` is not a non-negative integer.
    """
    check_fault_samples(fault_samples)
    started = time.perf_counter()
    cache, _, ledger = prepare_sweep(
        device,
        compilers,
        cache=cache,
        cache_dir=cache_dir,
        resume=resume,
        policy=RetryPolicy(
            task_timeout_s=task_timeout_s, retries=retries, backoff_s=backoff_s
        ),
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
    return run_in_process(ledger, cache, workers, started, obs)


def run_in_process(
    ledger: CellLedger,
    cache: Optional[Cache],
    workers: int,
    started: float,
    obs: Optional[ObsConfig] = None,
) -> SweepReport:
    """Settle the ledger's queued cells on a process pool, else serially.

    The in-process executor behind :func:`run_sweep`, and the one the
    distributed driver degrades to on the plan it already built.
    """
    plan = ledger.plan
    journal = ledger.journal
    obs_active = obs if obs is not None and obs.enabled else None
    obs_dir: Optional[Path] = None
    supervisor_tracer: Optional[Tracer] = None
    obs_spec: ObsSpec = None
    if obs_active is not None:
        if obs_active.out_dir is not None:
            obs_dir = Path(obs_active.out_dir)
        elif journal is not None:
            obs_dir = journal.path.parent / f"{plan.run_id}-obs"
        else:
            obs_dir = Path("repro-obs")
        _reset_obs_dir(obs_dir)
        if obs_active.trace:
            supervisor_tracer = Tracer()
        obs_spec = (str(obs_dir), obs_active.trace, obs_active.profile)

    fallback_reason = _serial_reason(
        workers, ledger.outstanding, plan.device, plan.fitting
    )
    mode, effective_workers = "serial", 1
    supervisor_profile = (
        obs_dir / f"supervisor-{os.getpid()}.pstats"
        if obs_active is not None and obs_active.profile
        else None
    )
    try:
        with tracer_context(supervisor_tracer), \
                cprofile_to(supervisor_profile):
            if supervisor_tracer is not None:
                supervisor_tracer.span(
                    "sweep",
                    run_id=plan.run_id,
                    device=plan.device.name,
                    tasks=len(plan.tasks),
                )
            if fallback_reason is None:
                if _run_pool(ledger, workers, cache, obs_spec):
                    mode, effective_workers = "process-pool", workers
                else:
                    fallback_reason = (
                        "process pool unavailable on this platform "
                        "(no usable fork/semaphore primitives)"
                    )
            if fallback_reason is not None:
                if workers > 1:
                    logger.warning(
                        "sweep requested %d workers but ran serially: %s",
                        workers, fallback_reason,
                    )
                _run_serial(ledger, cache)
            if supervisor_tracer is not None:
                supervisor_tracer.finish()
    finally:
        if journal is not None:
            journal.close()

    report = ledger.report(
        started,
        mode,
        effective_workers,
        fallback_reason,
        # In pool mode, store stats live in the worker processes; the
        # per-task cache_hit flags are the aggregate view.
        cache_stats=(
            cache.stats if cache is not None and mode == "serial" else None
        ),
    )
    if obs_dir is not None:
        report.obs_dir = _write_obs_artifacts(
            obs_dir, supervisor_tracer, report.metrics
        )
    return report


# ----------------------------------------------------------------------
# Serial execution: the ledger's retry and failure rules, in-process.
# ----------------------------------------------------------------------
def _run_serial(ledger: CellLedger, cache: Optional[Cache]) -> None:
    """Settle every queued cell in-process, in plan order.

    Uses the prebuilt circuits (no second build) and the caller's cache
    handle.  Wall-clock preemption is impossible in-process; hangs are
    bounded only by the SMT solver's own deadline.  A failed attempt is
    retried in place after its backoff, not from the back of the
    queue, so a serial journal records cells in plan order.
    """
    plan = ledger.plan
    by_name = {b.name: (b, built) for b, built in plan.fitting}
    item = ledger.next_due()
    while item is not None:
        index, attempt = item
        task = plan.tasks[index]
        benchmark, built = by_name[task.benchmark]
        started = time.perf_counter()
        try:
            outcome = _run_cell(
                task, attempt, plan.options.warm_start, benchmark,
                plan.device, cache, built,
            )
        except Exception as exc:  # noqa: BLE001 - task isolation
            delay = ledger.retry_or_fail(
                index, attempt, "error", type(exc).__name__, str(exc),
                traceback.format_exc(), time.perf_counter() - started,
            )
            if delay is not None:
                time.sleep(delay)
                # The ledger also queued this retry; once the cell
                # settles here, next_due skips that entry.
                item = (index, attempt + 1)
                continue
        else:
            ledger.accept(index, *outcome)
        item = ledger.next_due()


# ----------------------------------------------------------------------
# The supervised process pool.
# ----------------------------------------------------------------------
class _Worker:
    """One pool worker process plus its private dispatch queue."""

    def __init__(
        self, ctx, result_queue, cache_dir, obs_spec: ObsSpec,
        warm_start: bool,
    ) -> None:
        self.inbox = ctx.Queue()
        self.process = ctx.Process(
            target=_pool_worker,
            args=(self.inbox, result_queue, cache_dir, obs_spec, warm_start),
            daemon=True,
        )
        self.process.start()
        #: (task index, attempt, deadline or None, dispatch time).
        self.busy: Optional[Tuple[int, int, Optional[float], float]] = None

    def dispatch(self, seq: int, task: SweepTask, attempt: int,
                 timeout_s: Optional[float]) -> None:
        now = time.monotonic()
        deadline = None if timeout_s is None else now + timeout_s
        self.inbox.put((seq, task, attempt))
        self.busy = (seq, attempt, deadline, now)

    def stop(self) -> None:
        try:
            self.inbox.put(None)
        except Exception:  # noqa: BLE001 - queue may already be broken
            pass

    def destroy(self, grace_s: float = 1.0) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(grace_s)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(grace_s)
        self.inbox.cancel_join_thread()
        self.inbox.close()


def _run_pool(
    ledger: CellLedger,
    workers: int,
    cache: Optional[Cache],
    obs_spec: ObsSpec,
) -> bool:
    """Settle the ledger's queued cells on a supervised pool.

    Returns False, having run nothing, when the pool cannot start.  The
    supervisor loop interleaves three duties: dispatching due cells to
    idle workers, draining the shared result queue, and checking worker
    health (liveness + per-task deadlines).  What a finished, raised,
    crashed or overdue attempt means is the ledger's call; this loop
    replaces dead or overdue workers and runs until every cell settles.
    """
    plan, policy = ledger.plan, ledger.policy
    cache_dir = getattr(cache, "root", None)
    try:
        ctx = multiprocessing.get_context()
        result_queue = ctx.Queue()

        def spawn() -> _Worker:
            return _Worker(
                ctx, result_queue, cache_dir, obs_spec,
                plan.options.warm_start,
            )

        pool = [spawn() for _ in range(min(workers, ledger.outstanding))]
    except _POOL_START_ERRORS:
        return False

    tracer = get_active_tracer()
    try:
        while not ledger.done:
            # 1. Dispatch due tasks to idle workers.
            now = time.monotonic()
            for worker in pool:
                if worker.busy is not None:
                    continue
                item = ledger.next_due(now)
                if item is None:
                    break
                index, attempt = item
                worker.dispatch(
                    index, plan.tasks[index], attempt, policy.task_timeout_s
                )

            # 2. Drain completed results.
            try:
                message = result_queue.get(timeout=_POLL_INTERVAL_S)
            except queue_module.Empty:
                message = None
            while message is not None:
                index, attempt, status, body = message
                for worker in pool:
                    if worker.busy is not None and worker.busy[0] == index:
                        worker.busy = None
                        break
                if status == "error":
                    ledger.retry_or_fail(index, attempt, "error", *body)
                elif ledger.accept(index, *body) and tracer is not None:
                    # Materialize the worker-side timing on the
                    # supervisor's trace: the worker's own spans may be
                    # lost if it is later killed, but this event survives.
                    report = body[1]
                    tracer.add_event(
                        "sweep.task",
                        report.elapsed_s,
                        pid=report.pid,
                        benchmark=report.benchmark,
                        compiler=report.compiler,
                        attempts=report.attempts,
                        cache_hit=report.cache_hit,
                    )
                try:
                    message = result_queue.get_nowait()
                except queue_module.Empty:
                    message = None

            # 3. Health checks: dead workers and blown deadlines.
            for slot, worker in enumerate(pool):
                if worker.busy is not None:
                    index, attempt, deadline, dispatched = worker.busy
                    if not worker.process.is_alive():
                        ledger.retry_or_fail(
                            index, attempt, "crash", "WorkerCrashed",
                            f"worker pid {worker.process.pid} died with "
                            f"exit code {worker.process.exitcode}", "",
                            time.monotonic() - dispatched,
                        )
                        worker.destroy()
                        pool[slot] = spawn()
                    elif deadline is not None and time.monotonic() > deadline:
                        ledger.retry_or_fail(
                            index, attempt, "timeout", "TaskTimeout",
                            f"exceeded the {policy.task_timeout_s}s "
                            "wall-clock budget", "",
                            time.monotonic() - dispatched,
                        )
                        worker.destroy(_TERMINATE_GRACE_S)
                        pool[slot] = spawn()
                elif not worker.process.is_alive():
                    # Idle worker died (should not happen): replenish.
                    worker.destroy()
                    pool[slot] = spawn()
    finally:
        for worker in pool:
            worker.stop()
        deadline = time.monotonic() + _TERMINATE_GRACE_S
        for worker in pool:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            worker.destroy()
        result_queue.cancel_join_thread()
        result_queue.close()
    return True
