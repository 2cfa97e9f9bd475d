"""Kernel benchmark-regression harness behind ``repro bench``.

The vectorized kernels introduced alongside :mod:`repro.sim.batch`
each keep their serial predecessor importable as ``_reference_*``.
This module times every (vectorized, reference) pair on the *same*
interpreter and BLAS and reports the **speedup ratio**
``reference_s / vectorized_s`` — a machine-normalized number: absolute
wall-clock shifts with the host, but both sides shift together, so the
ratio is comparable across machines and CI runners.

``repro bench`` writes the ratios to a JSON report (``BENCH_PR5.json``
by default) and, given ``--baseline``, fails when any kernel's ratio
drops more than ``--max-regression`` (fraction, default 0.25) below
the committed baseline (``benchmarks/bench_baseline.json``).  To
re-bless the baseline after an intentional performance change, run the
bench locally and copy the reported ratios into the baseline file.

Equality is asserted on every timed pair — a bench run that produces
different answers from the reference is a correctness failure, not a
performance number.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

BENCH_SCHEMA_VERSION = 1

#: Default report path (the PR that introduced the vectorized kernels).
DEFAULT_REPORT = "BENCH_PR5.json"

#: Default allowed fractional drop below the baseline ratio.
DEFAULT_MAX_REGRESSION = 0.25


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """Minimum wall time over ``repeats`` calls, plus the last result.

    Minimum (not mean) is the standard noise-resistant estimator for
    repeated timings of a deterministic computation.
    """
    best = float("inf")
    result: object = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _bench_trajectories(
    build: Callable, trials: int, repeats: int
) -> Dict[str, float]:
    from repro.compiler import OptimizationLevel, compile_circuit
    from repro.devices import ibmq5_tenerife
    from repro.sim.trajectories import _reference_sample_counts, sample_counts

    device = ibmq5_tenerife()
    circuit, _ = build()
    compiled = compile_circuit(
        circuit, device, level=OptimizationLevel.OPT_1QCN
    ).circuit
    ref_s, ref_counts = _best_of(
        lambda: _reference_sample_counts(compiled, device, trials=trials, seed=1),
        repeats,
    )
    vec_s, vec_counts = _best_of(
        lambda: sample_counts(compiled, device, trials=trials, seed=1),
        repeats,
    )
    if ref_counts != vec_counts:
        raise AssertionError(
            "trajectory kernels disagree: batched counts != reference counts"
        )
    return {"reference_s": ref_s, "vectorized_s": vec_s, "trials": trials}


def _bench_success(fault_samples: int, repeats: int) -> Dict[str, float]:
    from repro.compiler import OptimizationLevel, compile_circuit
    from repro.devices import ibmq5_tenerife
    from repro.programs import bernstein_vazirani
    from repro.sim.success import (
        _reference_monte_carlo_success_rate,
        monte_carlo_success_rate,
    )

    device = ibmq5_tenerife()
    circuit, correct = bernstein_vazirani(4)
    compiled = compile_circuit(
        circuit, device, level=OptimizationLevel.OPT_1QCN
    ).circuit
    ref_s, ref_est = _best_of(
        lambda: _reference_monte_carlo_success_rate(
            compiled, device, correct, fault_samples=fault_samples
        ),
        repeats,
    )
    vec_s, vec_est = _best_of(
        lambda: monte_carlo_success_rate(
            compiled, device, correct, fault_samples=fault_samples
        ),
        repeats,
    )
    if ref_est.success_rate != vec_est.success_rate:
        raise AssertionError(
            "success kernels disagree: batched estimate != reference estimate"
        )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "fault_samples": fault_samples,
    }


def _bench_reliability(inner_loops: int, repeats: int) -> Dict[str, float]:
    from repro.compiler.reliability import (
        _reference_compute_reliability,
        compute_reliability,
    )
    from repro.devices import ibmq16_rueschlikon

    device = ibmq16_rueschlikon()

    def run_many(fn):
        def body():
            for _ in range(inner_loops):
                out = fn(device)
            return out

        return body

    ref_s, ref_matrix = _best_of(run_many(_reference_compute_reliability), repeats)
    vec_s, vec_matrix = _best_of(run_many(compute_reliability), repeats)
    if not (
        np.array_equal(ref_matrix.matrix, vec_matrix.matrix)
        and np.array_equal(ref_matrix.next_hop, vec_matrix.next_hop)
    ):
        raise AssertionError(
            "reliability kernels disagree: log-space != reference pipeline"
        )
    return {
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "inner_loops": inner_loops,
    }


def _bench_mapper(repeats: int) -> Dict[str, float]:
    """Exact mapping alone vs the anytime portfolio, same instance.

    Unlike the other pairs this is not a serial-vs-vectorized rewrite:
    the "reference" is a cold exact solve and the "vectorized" side is
    the portfolio race (greedy + annealing + bound-shared exact).  On a
    mid-size instance where exact still finishes, the shared heuristic
    bound prunes the exact search (fewer nodes) but the annealing
    stages cost wall time, so the ratio hovers below 1.0x — the
    portfolio's payoff is feasibility at 50+ qubits (see
    tests/test_mapper_portfolio.py), not speed here.  Report-only.

    The equality assert is the PR's central invariant: a portfolio
    whose exact stage finishes must return the bit-identical placement
    of the cold exact solve.
    """
    from repro.compiler.mapping import mapping_problem
    from repro.compiler.reliability import compute_reliability
    from repro.devices import ibmq14_melbourne
    from repro.ir.decompose import decompose_to_basis
    from repro.programs import bernstein_vazirani
    from repro.smt import MaxMinSolver, PortfolioSolver

    device = ibmq14_melbourne()
    circuit, _ = bernstein_vazirani(8)
    problem = mapping_problem(
        decompose_to_basis(circuit), device, compute_reliability(device)
    )
    ref_s, exact = _best_of(lambda: MaxMinSolver(problem).solve(), repeats)
    race_s, raced = _best_of(
        lambda: PortfolioSolver(problem).solve(), repeats
    )
    if (
        not raced.stats.proven_optimal
        or raced.assignment != exact.assignment
    ):
        raise AssertionError(
            "mapper kernels disagree: portfolio placement != cold exact "
            "placement"
        )
    return {
        "reference_s": ref_s,
        "vectorized_s": race_s,
        "exact_nodes": exact.stats.nodes,
        "portfolio_nodes": raced.stats.nodes,
    }


def _bench_pass_manager(repeats: int, fault_samples: int = 50) -> Dict[str, float]:
    """Suite compile without vs with the fixed-point pass manager.

    Not a serial-vs-vectorized rewrite either: the "reference" compiles
    the whole fitting suite at TriQ-1QOptCN with ``opt="none"`` and the
    "vectorized" side repeats it with ``opt="full"``, so the ratio is
    the optimizer's wall-time overhead (expected below 1.0x —
    report-only).  The payoff lands in the quality columns:
    ``two_qubit_none``/``two_qubit_full`` totals and the mean
    Monte-Carlo success over the suite for both sides.

    The equality assert is the pass manager's central invariant: per
    benchmark, the optimized 2Q count never exceeds the unoptimized
    one.
    """
    from repro.compiler import CompileOptions, OptimizationLevel, compile_circuit
    from repro.devices import ibmq16_rueschlikon
    from repro.experiments.runner import fits
    from repro.programs import standard_suite
    from repro.sim.success import monte_carlo_success_rate

    device = ibmq16_rueschlikon()
    suite = []
    for benchmark in standard_suite():
        circuit, correct = benchmark.build()
        if fits(circuit, device):
            suite.append((benchmark.name, circuit, correct))

    def compile_suite(opt):
        return {
            name: compile_circuit(
                circuit, device, level=OptimizationLevel.OPT_1QCN,
                options=CompileOptions(opt=opt),
            )
            for name, circuit, _ in suite
        }

    ref_s, plain = _best_of(lambda: compile_suite("none"), repeats)
    full_s, optimized = _best_of(lambda: compile_suite("full"), repeats)
    for name, _, _ in suite:
        before = plain[name].two_qubit_gate_count()
        after = optimized[name].two_qubit_gate_count()
        if after > before:
            raise AssertionError(
                f"pass manager increased 2Q count on {name}: "
                f"{before} -> {after}"
            )

    def mean_success(programs):
        rates = [
            monte_carlo_success_rate(
                programs[name].circuit, device, correct,
                fault_samples=fault_samples, seed=1,
            ).success_rate
            for name, _, correct in suite
        ]
        return sum(rates) / len(rates)

    return {
        "reference_s": ref_s,
        "vectorized_s": full_s,
        "benchmarks": len(suite),
        "two_qubit_none": sum(
            p.two_qubit_gate_count() for p in plain.values()
        ),
        "two_qubit_full": sum(
            p.two_qubit_gate_count() for p in optimized.values()
        ),
        "success_none": mean_success(plain),
        "success_full": mean_success(optimized),
    }


def run_bench(
    trials: int = 3000,
    fault_samples: int = 400,
    reliability_loops: int = 20,
    repeats: int = 3,
    kernels: Optional[Sequence[str]] = None,
) -> Dict:
    """Time every kernel pair and return the report dict.

    Two trajectory workloads bracket the regimes: BV4 (shallow, few
    distinct fault configurations — RNG overhead-bound) and QFT5 (deep,
    nearly every trial draws a distinct configuration —
    simulation-bound, where batching pays most).

    ``kernels`` restricts the run to a subset by name (unknown names
    raise); the default runs every kernel.  Gating a filtered report
    against the committed baseline will fail on the skipped kernels —
    coverage is part of the gate — so filtered runs are for local
    iteration and tests with their own baselines.
    """
    from functools import partial

    from repro.programs import bernstein_vazirani, qft_benchmark

    builders: Dict[str, Callable[[], Dict[str, float]]] = {
        "trajectory_sampling": lambda: _bench_trajectories(
            partial(bernstein_vazirani, 4), trials, repeats
        ),
        "trajectory_sampling_deep": lambda: _bench_trajectories(
            partial(qft_benchmark, 5), max(trials // 6, 100), repeats
        ),
        "success_estimation": lambda: _bench_success(fault_samples, repeats),
        "reliability_matrix": lambda: _bench_reliability(
            reliability_loops, repeats
        ),
        "mapper_portfolio": lambda: _bench_mapper(repeats),
        "pass_manager": lambda: _bench_pass_manager(repeats),
    }
    if kernels is not None:
        unknown = sorted(set(kernels) - set(builders))
        if unknown:
            raise ValueError(
                f"unknown bench kernel(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(builders))})"
            )
        selected = set(kernels)
        builders = {
            name: build for name, build in builders.items()
            if name in selected
        }
    kernels_out: Dict[str, Dict[str, float]] = {
        name: build() for name, build in builders.items()
    }
    for record in kernels_out.values():
        record["speedup"] = record["reference_s"] / record["vectorized_s"]
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "repeats": repeats,
        "context": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "kernels": kernels_out,
    }


def compare_to_baseline(
    report: Dict, baseline: Dict, max_regression: float = DEFAULT_MAX_REGRESSION
) -> List[str]:
    """Regression messages (empty when the report holds the baseline).

    A kernel regresses when its speedup ratio falls more than
    ``max_regression`` (fractionally) below the baseline ratio.  Ratios
    *above* baseline never fail — faster is always acceptable.  A kernel
    present in the baseline but missing from the report is a failure
    (the bench silently dropping coverage must not pass CI).

    A blessed entry with ``"gate": false`` is **report-only**: the
    kernel must still appear in the report (coverage is still gated),
    but its ratio never fails the run.  Kernels whose blessed speedup
    sits near 1.0x belong here — the ratio is only machine-normalized
    to first order (BLAS threading and cache pressure hit a broadcast
    kernel and an interpreted loop differently on small shared
    runners), so a hard floor just below 1.0x would flake.
    """
    problems: List[str] = []
    for name, blessed in baseline.get("kernels", {}).items():
        current = report.get("kernels", {}).get(name)
        if current is None:
            problems.append(f"{name}: missing from bench report")
            continue
        if not blessed.get("gate", True):
            continue
        floor = blessed["speedup"] * (1.0 - max_regression)
        if current["speedup"] < floor:
            problems.append(
                f"{name}: speedup {current['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {blessed['speedup']:.2f}x "
                f"- {max_regression:.0%} allowance)"
            )
    return problems


def format_report(report: Dict) -> str:
    lines = ["kernel                     reference    vectorized   speedup"]
    for name, record in report["kernels"].items():
        lines.append(
            f"{name:<26} {record['reference_s']:>9.3f}s "
            f"{record['vectorized_s']:>10.3f}s  {record['speedup']:>6.2f}x"
        )
    return "\n".join(lines)


def load_baseline(path: str) -> Optional[Dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def write_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
