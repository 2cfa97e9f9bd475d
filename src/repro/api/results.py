"""Typed results returned by the :mod:`repro.api` functions.

Every result is a plain dataclass whose scalar fields are JSON-safe via
:meth:`to_payload`, so the same objects back both library callers (which
also get the live :class:`~repro.compiler.CompiledProgram` /
:class:`~repro.experiments.parallel.SweepReport` handles) and the wire
format of the ``repro serve`` daemon (:mod:`repro.service`), which ships
only the payload dicts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.compiler import CompiledProgram
from repro.experiments.faults import TaskFailure
from repro.experiments.ledger import SweepReport
from repro.experiments.runner import Measurement


@dataclass
class ObsArtifacts:
    """Where one command's observability artifacts went, plus the tree.

    ``span_tree`` is the human rendering the CLI prints to stderr; the
    files (``<tag>-trace.json``, ``<tag>-metrics.prom``, and under
    profiling ``<tag>.pstats``) live in ``out_dir``.
    """

    out_dir: Path
    span_tree: str


@dataclass
class CompileResult:
    """One compiled program with provenance.

    ``cache_key`` is the content-addressed artifact key
    (:func:`repro.experiments.runner.artifact_key`) — always computed,
    even when caching is off, so services can coalesce identical
    requests.  ``cache_hit`` is None when no cache was in play.
    """

    device: str
    day: int
    compiler: str
    executable: str
    two_qubit_gates: int
    one_qubit_pulses: int
    depth: int
    num_swaps: int
    compile_time_s: float
    cache_key: str
    cache_hit: Optional[bool]
    degraded: bool
    contract_violations: List[str]
    benchmark: Optional[str] = None
    #: The benchmark's known-correct answer (None for scaffold/ad-hoc
    #: circuits, which have no registered oracle).
    correct: Optional[str] = None
    #: How the initial placement was produced: "exact" (SMT proved
    #: optimal or won the race), "heuristic" (portfolio degraded to its
    #: best anytime answer), or "default" (identity mapping baselines).
    mapper_method: str = "exact"
    #: Whether a heuristic bound certificate was shared into the exact
    #: solver's binary search (portfolio runs only).
    bound_shared: bool = False
    #: Pass-manager preset that post-processed the routed circuit
    #: ("none" when the fixed-point optimizer was skipped).
    opt: str = "none"
    #: Total gates removed by the pass manager (0 when opt == "none").
    opt_gates_removed: int = 0
    #: Total 2Q gates removed by the pass manager.
    opt_two_qubit_removed: int = 0
    #: The live compiled program (not serialized; None after transport).
    program: Optional[CompiledProgram] = field(
        default=None, repr=False, compare=False
    )
    #: Observability artifacts, when an ObsConfig was passed.
    obs: Optional[ObsArtifacts] = field(
        default=None, repr=False, compare=False
    )

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe dict (live handles and obs artifacts dropped)."""
        return {
            "benchmark": self.benchmark,
            "device": self.device,
            "day": self.day,
            "compiler": self.compiler,
            "executable": self.executable,
            "two_qubit_gates": self.two_qubit_gates,
            "one_qubit_pulses": self.one_qubit_pulses,
            "depth": self.depth,
            "num_swaps": self.num_swaps,
            "compile_time_s": self.compile_time_s,
            "cache_key": self.cache_key,
            "cache_hit": self.cache_hit,
            "degraded": self.degraded,
            "mapper_method": self.mapper_method,
            "bound_shared": self.bound_shared,
            "opt": self.opt,
            "opt_gates_removed": self.opt_gates_removed,
            "opt_two_qubit_removed": self.opt_two_qubit_removed,
            "contract_violations": list(self.contract_violations),
        }


@dataclass
class RunResult:
    """A compile plus its Monte-Carlo success estimate."""

    compiled: CompileResult
    success_rate: float
    ideal_rate: float
    no_fault_probability: float
    esp: float
    fault_samples: int

    def to_payload(self) -> Dict[str, Any]:
        return {
            "compiled": self.compiled.to_payload(),
            "success_rate": self.success_rate,
            "ideal_rate": self.ideal_rate,
            "no_fault_probability": self.no_fault_probability,
            "esp": self.esp,
            "fault_samples": self.fault_samples,
        }


@dataclass
class SweepResult:
    """A typed facade over one sweep's report.

    Everything a client needs travels as plain fields; the full
    :class:`~repro.experiments.parallel.SweepReport` (metrics registry
    included) stays reachable via ``report`` for in-process callers.
    """

    measurements: List[Measurement]
    failures: List[TaskFailure]
    run_id: Optional[str]
    journal_path: Optional[Path]
    mode: str
    workers: int
    total_time_s: float
    resumed: int
    fallback_reason: Optional[str]
    skipped_days: List[Tuple[int, str]]
    report: SweepReport = field(repr=False, compare=False, default=None)

    @classmethod
    def from_report(cls, report: SweepReport) -> "SweepResult":
        return cls(
            measurements=report.measurements,
            failures=report.failures,
            run_id=report.run_id,
            journal_path=report.journal_path,
            mode=report.mode,
            workers=report.workers,
            total_time_s=report.total_time_s,
            resumed=report.resumed,
            fallback_reason=report.fallback_reason,
            skipped_days=report.skipped_days,
            report=report,
        )

    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe dict, structured failures included."""
        payload = {
            "measurements": [
                dataclasses.asdict(m) for m in self.measurements
            ],
            "failures": [dataclasses.asdict(f) for f in self.failures],
            "run_id": self.run_id,
            "journal_path": (
                str(self.journal_path) if self.journal_path else None
            ),
            "mode": self.mode,
            "workers": self.workers,
            "total_time_s": self.total_time_s,
            "resumed": self.resumed,
            "fallback_reason": self.fallback_reason,
            "skipped_days": [list(pair) for pair in self.skipped_days],
        }
        if self.report is not None and self.report.metrics is not None:
            payload["metrics_prom"] = self.report.metrics.render_prometheus()
            payload["summary"] = self.report.summary()
        return payload


@dataclass
class CheckCell:
    """One (benchmark, device, compiler) cell's contract-check outcome."""

    benchmark: str
    device: str
    compiler: str
    #: "violation" or "error".
    kind: str
    message: str


@dataclass
class CheckResult:
    """A warn-mode contract audit over a (benchmark, device, level) grid."""

    cells: int
    violations: List[CheckCell]
    errors: List[CheckCell]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors

    def to_payload(self) -> Dict[str, Any]:
        return {
            "cells": self.cells,
            "violations": [dataclasses.asdict(c) for c in self.violations],
            "errors": [dataclasses.asdict(c) for c in self.errors],
            "ok": self.ok,
        }
