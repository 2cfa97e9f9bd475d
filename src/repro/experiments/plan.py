"""Sweep planning: the pure, execution-agnostic half of a sweep.

:func:`run_sweep` (single machine) and the distributed coordinator
(:mod:`repro.experiments.distributed`) must agree *exactly* on what a
sweep is — which cells exist, in what order, with which seeds, under
which run id — or resume and cross-host deduplication fall apart.
This module is that agreement: :func:`build_sweep_plan` turns a sweep
specification into a :class:`SweepPlan` (device, compiler labels,
fitting benchmarks, validated calibration days, the ordered task list
with digests, the spec-derived run id, and the journal location), and
every executor consumes the plan instead of re-deriving any of it.

The run id is a digest of the specification alone — no hostnames, no
paths, no timestamps — so any coordinator on any host reopens the same
journal for the same sweep: that is what makes resume host-agnostic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.cache import Cache, CompileCache, digest
from repro.compiler import DEFAULT_OPTIONS, CompileOptions, OptimizationLevel
from repro.compiler.options import TaskKnob
from repro.devices import device_by_name
from repro.devices.calibration import CalibrationError
from repro.devices.device import Device
from repro.experiments.journal import (
    SweepJournal,
    run_digest,
    task_digest,
)
from repro.experiments.runner import (
    DEFAULT_FAULT_SAMPLES,
    DEFAULT_MC_SEED,
    CompilerName,
    compiler_label,
    fits,
    resolve_compiler,
)
from repro.programs import Benchmark, benchmark_by_name, standard_suite

logger = logging.getLogger("repro.sweep")


@dataclass(frozen=True)
class SweepTask:
    """One grid cell, described entirely by picklable names and seeds."""

    benchmark: str
    device: str
    day: Optional[int]
    compiler: str
    fault_samples: int
    with_success: bool
    compile_seed: int
    mc_seed: int
    #: Compile knobs, None at their defaults (filled and read back by
    #: :class:`repro.compiler.CompileOptions`).  An unset ``opt`` still
    #: joins the task digest; see :func:`~repro.experiments.journal.task_digest`.
    contracts: TaskKnob = None
    mapper: TaskKnob = None
    opt: TaskKnob = None


def derive_task_seed(base_seed: int, *identity) -> int:
    """A stable 31-bit seed from a base seed and a task identity.

    Pure function of its arguments (SHA-256 underneath), so the same
    task gets the same seed in any process, on any worker count, in any
    execution order.
    """
    return int(digest("task-seed", base_seed, list(map(str, identity)))[:8], 16) & 0x7FFFFFFF


def _task_seeds(
    base_seed: Optional[int],
    benchmark: str,
    device: str,
    compiler: str,
    day: Optional[int],
) -> Tuple[int, int]:
    """(compile seed, Monte-Carlo seed) for one task."""
    if base_seed is None:
        # The legacy serial constants; keeps historical figures stable.
        return 0, DEFAULT_MC_SEED
    identity = (benchmark, device, compiler, day)
    return (
        derive_task_seed(base_seed, "compile", *identity),
        derive_task_seed(base_seed, "mc", *identity),
    )


def _validate_compilers(compilers: Sequence[CompilerName]) -> List[str]:
    """Resolve compiler labels up front, so a typo fails the sweep at
    configuration time instead of surfacing as N per-task failures."""
    labels = []
    for compiler in compilers:
        label = compiler_label(compiler)
        resolved = resolve_compiler(label)
        # OptimizationLevel subclasses str, so check the enum case first.
        if not isinstance(resolved, OptimizationLevel) and (
            resolved.lower() not in ("qiskit", "quil")
        ):
            raise ValueError(
                f"unknown compiler {label!r}; expected a TriQ level or "
                "'Qiskit'/'Quil'"
            )
        labels.append(label)
    return labels


@dataclass
class SweepPlan:
    """Everything executors need, derived once from the specification."""

    #: The resolved device (never a name).
    device: Device
    #: Validated compiler labels, in request order.
    labels: List[str]
    #: Benchmarks that fit the device, each with its prebuilt circuit.
    fitting: List[Tuple[Benchmark, Tuple]]
    #: Calibration days that passed validation, in request order.
    good_days: List[int]
    #: Days rejected by validation (under ``skip_bad_days``), with reasons.
    skipped_days: List[Tuple[int, str]] = field(default_factory=list)
    #: The ordered grid cells (benchmark-major, then compiler, then day).
    tasks: List[SweepTask] = field(default_factory=list)
    #: ``task_digest`` of each cell, aligned with ``tasks``.
    digests: List[str] = field(default_factory=list)
    #: The effective run id (caller-supplied or spec-derived).
    run_id: str = ""
    #: Where this run's journal lives (None: journaling off).
    journal_dir: Optional[Path] = None
    #: Compile options of every cell.
    options: CompileOptions = DEFAULT_OPTIONS

    @property
    def journal_path(self) -> Optional[Path]:
        if self.journal_dir is None:
            return None
        return Path(self.journal_dir) / f"{self.run_id}.jsonl"

    def open_journal(self) -> Optional[SweepJournal]:
        """A journal handle for this run, or None when journaling is off."""
        path = self.journal_path
        return SweepJournal(path) if path is not None else None

    def index_of(self, cell_digest: str) -> Optional[int]:
        """Position of a digest in the plan, or None for foreign digests."""
        try:
            return self.digests.index(cell_digest)
        except ValueError:
            return None


def build_sweep_plan(
    device: Union[Device, str],
    compilers: Sequence[CompilerName],
    benchmarks: Optional[Sequence[Union[Benchmark, str]]] = None,
    day: Optional[int] = None,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    with_success: bool = True,
    cache: Optional[Cache] = None,
    base_seed: Optional[int] = None,
    days: Optional[Sequence[int]] = None,
    skip_bad_days: bool = False,
    run_id: Optional[str] = None,
    journal_dir=None,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> SweepPlan:
    """Resolve a sweep specification into an executable plan.

    This is the exact planning sequence :func:`run_sweep` has always
    performed — device resolution, compiler validation, per-day
    calibration validation, fit filtering, task enumeration, digest and
    run-id derivation — factored out so distributed executors plan
    identically.  Task digests and run ids are unchanged by the
    extraction (both hash plain field values, not module paths).
    """
    if isinstance(device, str):
        device = device_by_name(device, day=day or 0)
    resolved_day = device.day if day is None else day
    labels = _validate_compilers(compilers)
    if benchmarks is None:
        benchmarks = standard_suite()
    benchmarks = [
        benchmark_by_name(b) if isinstance(b, str) else b for b in benchmarks
    ]

    # Validate each day's calibration snapshot at the boundary: a NaN
    # or out-of-range rate fails here with a precise message (or is
    # skipped under skip_bad_days), never deep inside a worker.
    day_list = list(days) if days is not None else [resolved_day]
    good_days: List[int] = []
    skipped_days: List[Tuple[int, str]] = []
    for candidate in day_list:
        try:
            device.calibration(candidate).validate()
        except CalibrationError as exc:
            if not skip_bad_days:
                raise
            logger.warning(
                "skipping calibration day %s on %s: %s",
                candidate, device.name, exc,
            )
            skipped_days.append((candidate, str(exc)))
        else:
            good_days.append(candidate)

    # Build each circuit exactly once: the fit check and the serial
    # measure path share it.
    fitting: List[Tuple[Benchmark, Tuple]] = []
    for benchmark in benchmarks:
        built = benchmark.build()
        if fits(built[0], device):
            fitting.append((benchmark, built))

    knobs = options.task_fields()
    tasks: List[SweepTask] = []
    for benchmark, _ in fitting:
        for label in labels:
            for task_day in good_days:
                compile_seed, mc_seed = _task_seeds(
                    base_seed, benchmark.name, device.name, label, task_day
                )
                tasks.append(
                    SweepTask(
                        benchmark=benchmark.name,
                        device=device.name,
                        day=task_day,
                        compiler=label,
                        fault_samples=fault_samples,
                        with_success=with_success,
                        compile_seed=compile_seed,
                        mc_seed=mc_seed,
                        **knobs,
                    )
                )
    digests = [task_digest(task) for task in tasks]

    run_spec = [
        device.name,
        good_days,
        labels,
        sorted(b.name for b, _ in fitting),
        fault_samples,
        with_success,
        base_seed,
        *options.run_spec_suffix(),
    ]
    effective_run_id = run_id or run_digest(*run_spec)
    if journal_dir is None and isinstance(cache, CompileCache):
        journal_dir = cache.root / "journals"

    return SweepPlan(
        device=device,
        labels=labels,
        fitting=fitting,
        good_days=good_days,
        skipped_days=skipped_days,
        tasks=tasks,
        digests=digests,
        run_id=effective_run_id,
        journal_dir=Path(journal_dir) if journal_dir is not None else None,
        options=options,
    )
