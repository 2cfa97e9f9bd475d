"""Shared experiment plumbing: compile suites, measure success rates.

The measurement path is cache-aware: :func:`compile_with_cache` and
:func:`measure` consult a :mod:`repro.cache` store when one is supplied
(or active for the process), so repeated sweeps skip both recompilation
and re-simulation of identical (circuit, device, day, level) cells.
:func:`sweep` routes through the parallel engine in
:mod:`repro.experiments.parallel`; pass ``workers`` > 1 to fan the grid
out over a process pool.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines import QiskitLikeCompiler, QuilLikeCompiler
from repro.cache import Cache, cache_context, compile_key, success_key
from repro.compiler import (
    DEFAULT_OPTIONS,
    CompiledProgram,
    CompileOptions,
    OptimizationLevel,
    TriQCompiler,
)
from repro.contracts import ContractRecorder, checks
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.ir.decompose import decompose_to_basis
from repro.obs.tracer import span as obs_span
from repro.programs import Benchmark
from repro.sim import SuccessEstimate, monte_carlo_success_rate

#: Default Monte-Carlo fault samples per success measurement.  The
#: paper uses 8192 hardware trials; our estimator is Rao-Blackwellized
#: so ~100 fault configurations give comparable resolution.
DEFAULT_FAULT_SAMPLES = 100

#: Default RNG seed of :func:`repro.sim.monte_carlo_success_rate`,
#: applied when no explicit Monte-Carlo seed is given.
DEFAULT_MC_SEED = 1234

CompilerName = Union[OptimizationLevel, str]


@dataclass
class Measurement:
    """One compiled benchmark and (optionally) its measured success."""

    benchmark: str
    device: str
    compiler: str
    two_qubit_gates: int
    one_qubit_pulses: int
    depth: int
    num_swaps: int
    compile_time_s: float
    success_rate: Optional[float] = None
    correct: Optional[str] = None
    #: Whether the compiled artifact came from the cache (None: no cache).
    cache_hit: Optional[bool] = None
    #: Calibration day the measurement was taken against.
    day: Optional[int] = None
    #: Whether the placement came from a degraded (budget-cut or
    #: fallback) solve rather than a proven-optimal one.
    degraded: bool = False
    #: Which solver produced the placement ("exact", "heuristic", or
    #: "default" for non-noise-aware levels and the vendor baselines).
    mapper_method: str = "exact"
    #: Mapping-solver effort for the cell (0 for default placements).
    solver_nodes: int = 0
    solver_time_s: float = 0.0
    #: True when a heuristic bound was shared into the exact search.
    bound_shared: bool = False
    #: Number of best-so-far bound improvements the race recorded.
    bound_events: int = 0
    #: One-line pass-contract violation summaries recorded when the
    #: cell compiled under warn-mode contracts (empty otherwise).  A
    #: list, not a tuple, so journal records round-trip through JSON.
    contract_violations: List[str] = field(default_factory=list)
    #: Pass-manager preset the cell compiled with (None when the pass
    #: manager was not engaged, so pre-PR journal records replay as-is).
    opt_preset: Optional[str] = None
    #: Net gates / 2Q gates the pass manager removed (0 at --opt none).
    opt_gates_removed: int = 0
    opt_two_qubit_removed: int = 0


def check_fault_samples(value: object) -> None:
    """ValueError unless ``value`` is a valid Monte-Carlo sample count.

    Zero is legal (the estimate is then the fault-free term alone); a
    negative, fractional, boolean or non-numeric count is not.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 0
    ):
        raise ValueError(
            f"bad 'fault_samples': must be a non-negative integer, "
            f"got {value!r}"
        )


def fits(circuit: Circuit, device: Device) -> bool:
    """Whether a benchmark fits the device (paper marks misfits 'X')."""
    return circuit.num_qubits <= device.num_qubits


def compiler_label(compiler: CompilerName) -> str:
    """The display/cache label of a compiler configuration."""
    if isinstance(compiler, OptimizationLevel):
        return compiler.value
    return str(compiler)


def resolve_compiler(label: str) -> CompilerName:
    """Invert :func:`compiler_label` (labels cross process boundaries)."""
    try:
        return OptimizationLevel(label)
    except ValueError:
        return label


def compile_with(
    circuit: Circuit,
    device: Device,
    compiler: CompilerName,
    day: Optional[int] = None,
    seed: int = 0,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> CompiledProgram:
    """Compile under a TriQ level or a vendor baseline by name.

    ``options.contracts`` plumbs pass-contract enforcement through: TriQ
    levels check every stage inside the pipeline; the vendor baselines
    (whose internals predate the contract hooks) get the post-hoc
    checks — translation legality, codegen round-trip, end-to-end
    semantics.  The vendor baselines have no mapper backend or pass
    manager and ignore ``options.mapper`` and ``options.opt``.
    """
    if isinstance(compiler, OptimizationLevel):
        return TriQCompiler(
            device, level=compiler, day=day, options=options
        ).compile(circuit)
    label = compiler.lower()
    if label == "qiskit":
        program = QiskitLikeCompiler(device, seed=seed).compile(circuit)
    elif label == "quil":
        program = QuilLikeCompiler(device, seed=seed).compile(circuit)
    else:
        raise ValueError(f"unknown compiler {compiler!r}")
    if options.contracts.enabled:
        recorder = ContractRecorder(options.contracts)
        decomposed = decompose_to_basis(circuit)
        recorder.run(
            lambda: checks.check_translation(program.circuit, device)
        )
        recorder.run(lambda: checks.check_codegen(program.circuit, device))
        recorder.run(
            lambda: checks.check_semantics(decomposed, program.circuit, device)
        )
        if recorder.violations:
            program = replace(
                program, contract_violations=tuple(recorder.violations)
            )
    return program


def artifact_key(
    circuit: Circuit,
    device: Device,
    compiler: CompilerName,
    day: Optional[int] = None,
    seed: int = 0,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> str:
    """The content-addressed cache key of one compiled-program artifact.

    This is the exact key :func:`compile_with_cache` consults, factored
    out so callers that never compile — the service's request coalescer,
    provenance fields on :class:`repro.api.CompileResult` — can address
    the same artifact.
    """
    triq = isinstance(compiler, OptimizationLevel)
    return compile_key(
        circuit, device, compiler_label(compiler), day,
        options.cache_key_options(triq, seed),
    )


def compile_with_cache(
    circuit: Circuit,
    device: Device,
    compiler: CompilerName,
    day: Optional[int] = None,
    seed: int = 0,
    cache: Optional[Cache] = None,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> Tuple[CompiledProgram, Optional[bool]]:
    """Compile, consulting the artifact cache.

    Returns ``(program, cache_hit)``; ``cache_hit`` is None when no
    cache is in play.  On a hit the program carries the *stored*
    ``compile_time_s``, so warm serial and parallel runs of the same
    grid produce byte-identical measurements.
    """
    device = device.on_day(day)
    key = None
    if cache is not None and cache.enabled:
        key = artifact_key(circuit, device, compiler, day, seed, options)
    return compile_keyed(
        key, circuit, device, compiler, day, seed, cache, options
    )


def compile_keyed(
    key: Optional[str],
    circuit: Circuit,
    device: Device,
    compiler: CompilerName,
    day: Optional[int] = None,
    seed: int = 0,
    cache: Optional[Cache] = None,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> Tuple[CompiledProgram, Optional[bool]]:
    """:func:`compile_with_cache` under the cell's precomputed
    :func:`artifact_key`, for callers that also report the key."""
    if cache is None or not cache.enabled:
        return (
            compile_with(
                circuit, device, compiler, day=day, seed=seed,
                options=options,
            ),
            None,
        )
    payload = cache.get(key)
    if payload is not None:
        return CompiledProgram.from_payload(payload, device), True
    # Activate the cache for the pipeline's reliability memoization too.
    with cache_context(cache):
        program = compile_with(
            circuit, device, compiler, day=day, seed=seed, options=options
        )
    cache.put(key, program.to_payload())
    return program, False


def _success_with_cache(
    program: CompiledProgram,
    device: Device,
    correct: str,
    day: Optional[int],
    fault_samples: int,
    mc_seed: int,
    cache: Optional[Cache],
) -> SuccessEstimate:
    """Monte-Carlo success, memoized (the estimator is seed-deterministic)."""
    device = device.on_day(day)
    key = None
    if cache is not None and cache.enabled:
        key = success_key(
            program.circuit, device, correct, day, fault_samples, mc_seed
        )
        payload = cache.get(key)
        if payload is not None:
            return SuccessEstimate(**payload)
    estimate = monte_carlo_success_rate(
        program.circuit,
        device,
        correct,
        day=day,
        fault_samples=fault_samples,
        seed=mc_seed,
    )
    if key is not None:
        cache.put(key, asdict(estimate))
    return estimate


def measure(
    benchmark: Benchmark,
    device: Device,
    compiler: CompilerName,
    day: Optional[int] = None,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    with_success: bool = True,
    seed: int = 0,
    mc_seed: Optional[int] = None,
    built: Optional[Tuple[Circuit, str]] = None,
    cache: Optional[Cache] = None,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> Measurement:
    """Compile one benchmark and optionally measure its success rate.

    ``built`` lets callers that already constructed the benchmark's
    ``(circuit, correct)`` pair (e.g. for a fit check) pass it in
    instead of paying for a second build.
    """
    circuit, correct = built if built is not None else benchmark.build()
    device = device.on_day(day)
    with obs_span(
        "measure",
        benchmark=benchmark.name,
        device=device.name,
        compiler=compiler_label(compiler),
        day=day,
    ) as measure_span:
        program, cache_hit = compile_with_cache(
            circuit, device, compiler, day=day, seed=seed, cache=cache,
            options=options,
        )
        if measure_span:
            measure_span.set(cache_hit=cache_hit)
        result = Measurement(
            benchmark=benchmark.name,
            device=device.name,
            compiler=compiler_label(compiler),
            two_qubit_gates=program.two_qubit_gate_count(),
            one_qubit_pulses=program.one_qubit_pulse_count(),
            depth=program.depth(),
            num_swaps=program.num_swaps,
            compile_time_s=program.compile_time_s,
            correct=correct,
            cache_hit=cache_hit,
            day=day,
            degraded=program.initial_mapping.degraded,
            mapper_method=program.initial_mapping.method,
            solver_nodes=program.initial_mapping.solver_nodes,
            solver_time_s=program.initial_mapping.solver_time_s,
            bound_shared=program.initial_mapping.bound_shared,
            bound_events=len(program.initial_mapping.bound_trajectory),
            contract_violations=list(program.contract_violations),
            opt_preset=program.opt if program.opt != "none" else None,
            opt_gates_removed=sum(
                row[3] - row[4] for row in program.opt_stats
            ),
            opt_two_qubit_removed=sum(
                row[5] - row[6] for row in program.opt_stats
            ),
        )
        if with_success:
            with obs_span("success", fault_samples=fault_samples):
                estimate = _success_with_cache(
                    program,
                    device,
                    correct,
                    day,
                    fault_samples,
                    DEFAULT_MC_SEED if mc_seed is None else mc_seed,
                    cache,
                )
            result.success_rate = estimate.success_rate
    return result


def sweep(
    device: Device,
    compilers: Sequence[CompilerName],
    benchmarks: Optional[Sequence[Benchmark]] = None,
    day: Optional[int] = None,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    with_success: bool = True,
    workers: int = 1,
    cache: Optional[Cache] = None,
    cache_dir=None,
    base_seed: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    retries: int = 0,
    options: CompileOptions = DEFAULT_OPTIONS,
) -> List[Measurement]:
    """Measure a benchmark suite under several compilers on one device.

    Benchmarks that do not fit the device are skipped (the paper's "X"
    marks).  This is a thin wrapper over
    :func:`repro.experiments.parallel.run_sweep`; use that directly for
    per-task timing, cache-hit statistics, structured task failures,
    and checkpoint/resume.
    """
    from repro.experiments.parallel import run_sweep

    return run_sweep(
        device,
        compilers,
        benchmarks=benchmarks,
        day=day,
        fault_samples=fault_samples,
        with_success=with_success,
        workers=workers,
        cache=cache,
        cache_dir=cache_dir,
        base_seed=base_seed,
        task_timeout_s=task_timeout_s,
        retries=retries,
        options=options,
    ).measurements


def by_compiler(
    results: Sequence[Measurement],
) -> Dict[str, List[Measurement]]:
    """Group measurements by compiler label, preserving order."""
    grouped: Dict[str, List[Measurement]] = {}
    for result in results:
        grouped.setdefault(result.compiler, []).append(result)
    return grouped
