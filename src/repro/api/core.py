"""The library API: compile, run, sweep, and check as plain functions.

This is the programmatic surface the CLI (:mod:`repro.cli`) and the
``repro serve`` daemon (:mod:`repro.service`) are both thin clients of.
Every function takes names and plain options, consults the persistent
artifact cache when one is given, and returns a typed dataclass from
:mod:`repro.api.results` — no argparse namespaces, no printing.

Determinism contract: these functions are wrappers over the exact same
execution paths the CLI has always used (``compile_with_cache``,
``monte_carlo_success_rate``, ``run_sweep``), so emitted executables,
cache keys, journal digests, and success floats are byte-identical to
the pre-API command paths (locked by ``tests/test_api.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.results import (
    CheckCell,
    CheckResult,
    CompileResult,
    ObsArtifacts,
    RunResult,
    SweepResult,
)
from repro.cache import Cache, open_cache
from repro.compiler import CompileOptions, OptimizationLevel
from repro.compiler.mapping import check_fits
from repro.devices import all_devices, device_by_name
from repro.devices.device import Device
from repro.experiments.runner import (
    DEFAULT_FAULT_SAMPLES,
    CompilerName,
    artifact_key,
    check_fault_samples,
    compile_keyed,
    compile_with,
    compiler_label,
    fits,
)
from repro.ir.circuit import Circuit
from repro.obs import ObsConfig
from repro.programs import Benchmark, benchmark_by_name, standard_suite
from repro.scaffold import compile_scaffold
from repro.sim import monte_carlo_success_rate

_LEVELS = {level.value.lower(): level for level in OptimizationLevel}
_BASELINES = {"qiskit": "Qiskit", "quil": "Quil"}


def resolve_level(text: Union[str, OptimizationLevel]) -> OptimizationLevel:
    """A :class:`OptimizationLevel` from its name (``"1QOptCN"``...).

    Accepts the level with or without the ``TriQ-`` prefix, case
    insensitively; raises ``ValueError`` naming the known levels.
    """
    if isinstance(text, OptimizationLevel):
        return text
    key = str(text).lower()
    if not key.startswith("triq-"):
        key = f"triq-{key}"
    if key not in _LEVELS:
        known = ", ".join(sorted(_LEVELS))
        raise ValueError(
            f"unknown optimization level {text!r}; choose from {known}"
        )
    return _LEVELS[key]


def resolve_compilers(
    spec: Union[str, Sequence[Union[str, OptimizationLevel]]],
) -> List[CompilerName]:
    """TriQ levels and/or baselines from a comma-separated string or list.

    Baseline names (``"qiskit"``/``"quil"``, any case) map to their
    canonical labels; everything else must be a TriQ level.
    """
    if isinstance(spec, str):
        items: Sequence[Union[str, OptimizationLevel]] = spec.split(",")
    else:
        items = spec
    compilers: List[CompilerName] = []
    for item in items:
        if isinstance(item, OptimizationLevel):
            compilers.append(item)
            continue
        item = item.strip()
        if not item:
            continue
        if item.lower() in _BASELINES:
            compilers.append(_BASELINES[item.lower()])
        else:
            compilers.append(resolve_level(item))
    if not compilers:
        raise ValueError("no compilers given")
    return compilers


def build_program(
    benchmark: Optional[Union[str, Benchmark]] = None,
    scaffold: Optional[str] = None,
    defines: Optional[Mapping[str, int]] = None,
    circuit: Optional[Circuit] = None,
) -> Tuple[Circuit, Optional[str]]:
    """The ``(circuit, correct answer)`` pair of one program source.

    Exactly one of ``benchmark`` (suite name or object), ``scaffold``
    (source text), or ``circuit`` must be given; only suite benchmarks
    carry a known-correct answer.
    """
    given = [s for s in (benchmark, scaffold, circuit) if s is not None]
    if len(given) != 1:
        raise ValueError(
            "give exactly one of benchmark=, scaffold=, or circuit="
        )
    if benchmark is not None:
        if isinstance(benchmark, str):
            benchmark = benchmark_by_name(benchmark)
        return benchmark.build()
    if scaffold is not None:
        return compile_scaffold(scaffold, defines=dict(defines or {})), None
    return circuit, None


def _resolve_device(device: Union[str, Device], day: int) -> Device:
    if isinstance(device, str):
        return device_by_name(device, day=day)
    return device.on_day(day)


@contextmanager
def _obs_session(obs: Optional[ObsConfig], tag: str, cache):
    """Observability around one compile/run call.

    Activates a tracer (and, when ``obs.profile``, cProfile) for the
    process, hooks the cache store's event observer, and on exit writes
    ``<tag>-trace.json`` / ``<tag>.pstats`` / ``<tag>-metrics.prom``
    into the obs dir.  Yields a two-slot list: slot 0 receives the
    resulting :class:`ObsArtifacts` (or stays ``None`` when obs is
    off) — the caller attaches it to its result after the block — and
    slot 1 holds the live metrics registry (``None`` when obs is off)
    so callers can record command-scoped metrics families.
    """
    holder: List[Any] = [None, None]
    if obs is None or not obs.enabled:
        yield holder
        return
    from repro.obs import MetricsRegistry, Tracer, cprofile_to, tracer_context

    out_dir = Path(obs.out_dir) if obs.out_dir else Path("repro-obs")
    out_dir.mkdir(parents=True, exist_ok=True)
    registry = MetricsRegistry()
    if cache is not None and getattr(cache, "enabled", False):
        events = registry.counter(
            "repro_cache_events_total",
            "Cache store events observed by this command",
        )
        cache.observer = lambda event: events.inc(event=event)
    holder[1] = registry
    tracer = Tracer()
    profile_path = out_dir / f"{tag}.pstats" if obs.profile else None
    with tracer_context(tracer), cprofile_to(profile_path):
        try:
            yield holder
        finally:
            tracer.finish()
            tracer.write_chrome_trace(out_dir / f"{tag}-trace.json")
            (out_dir / f"{tag}-metrics.prom").write_text(
                registry.render_prometheus(), encoding="utf-8"
            )
            holder[0] = ObsArtifacts(
                out_dir=out_dir, span_tree=tracer.format_tree()
            )


def _record_opt_metrics(obs_holder: List[Any], program) -> None:
    """Feed the pass manager's accounting into the command's registry."""
    registry = obs_holder[1] if len(obs_holder) > 1 else None
    if registry is None or not program.opt_stats:
        return
    from repro.obs.metrics import optimization_metrics_into

    optimization_metrics_into(registry, program.opt_stats, program.opt)


def _compile_result(
    benchmark, correct, device, level, day, key: str, program, cache_hit,
    obs,
) -> CompileResult:
    """The typed result of one finished compile."""
    return CompileResult(
        benchmark=(
            benchmark.name if isinstance(benchmark, Benchmark)
            else benchmark
        ),
        device=device.name,
        day=day,
        compiler=compiler_label(level),
        executable=program.executable(),
        two_qubit_gates=program.two_qubit_gate_count(),
        one_qubit_pulses=program.one_qubit_pulse_count(),
        depth=program.depth(),
        num_swaps=program.num_swaps,
        compile_time_s=program.compile_time_s,
        cache_key=key,
        cache_hit=cache_hit,
        degraded=program.initial_mapping.degraded,
        mapper_method=program.initial_mapping.method,
        bound_shared=program.initial_mapping.bound_shared,
        contract_violations=list(program.contract_violations),
        opt=program.opt,
        opt_gates_removed=sum(
            row[3] - row[4] for row in program.opt_stats
        ),
        opt_two_qubit_removed=sum(
            row[5] - row[6] for row in program.opt_stats
        ),
        correct=correct,
        program=program,
        obs=obs,
    )


def compile(  # noqa: A001 - the public API name; builtins.compile unused here
    benchmark: Optional[Union[str, Benchmark]] = None,
    *,
    scaffold: Optional[str] = None,
    defines: Optional[Mapping[str, int]] = None,
    circuit: Optional[Circuit] = None,
    device: Union[str, Device],
    level: Union[str, OptimizationLevel] = OptimizationLevel.OPT_1QCN,
    day: int = 0,
    cache: Optional[Cache] = None,
    cache_dir=None,
    contracts: Optional[str] = None,
    warm_start: bool = True,
    mapper: str = "exact",
    opt: str = "none",
    obs: Optional[ObsConfig] = None,
    obs_tag: str = "compile",
) -> CompileResult:
    """Compile one program for one device at one optimization level.

    The program source is a suite ``benchmark`` (name or object), raw
    ``scaffold`` source text (with optional compile-time ``defines``),
    or a prebuilt ``circuit``.  ``cache`` (an open handle) or
    ``cache_dir`` enables the persistent artifact cache; ``contracts``
    is ``"strict"``/``"warn"``/``None``; ``mapper`` selects the
    placement solver (``"exact"``/``"portfolio"``/``"heuristic"``, see
    :mod:`repro.smt.portfolio`); ``opt`` the fixed-point pass-manager
    preset (``"none"``/``"basic"``/``"full"``, see
    :mod:`repro.compiler.passes`).  Returns a :class:`CompileResult`
    whose ``executable`` is byte-identical to what ``repro compile``
    emits.
    """
    options = CompileOptions(
        contracts=contracts, mapper=mapper, opt=opt, warm_start=warm_start
    )
    built_circuit, correct = build_program(
        benchmark=benchmark, scaffold=scaffold, defines=defines,
        circuit=circuit,
    )
    resolved_device = _resolve_device(device, day)
    resolved_level = resolve_level(level)
    if cache is None and cache_dir is not None:
        cache = open_cache(cache_dir)
    key = artifact_key(
        built_circuit, resolved_device, resolved_level, day=day,
        options=options,
    )
    with _obs_session(obs, obs_tag, cache) as obs_holder:
        program, cache_hit = compile_keyed(
            key, built_circuit, resolved_device, resolved_level, day=day,
            cache=cache, options=options,
        )
        _record_opt_metrics(obs_holder, program)
    return _compile_result(
        benchmark, correct, resolved_device, resolved_level, day, key,
        program, cache_hit, obs_holder[0],
    )


def run(
    benchmark: Union[str, Benchmark],
    *,
    device: Union[str, Device],
    level: Union[str, OptimizationLevel] = OptimizationLevel.OPT_1QCN,
    day: int = 0,
    fault_samples: int = DEFAULT_FAULT_SAMPLES,
    cache: Optional[Cache] = None,
    cache_dir=None,
    contracts: Optional[str] = None,
    warm_start: bool = True,
    mapper: str = "exact",
    opt: str = "none",
    obs: Optional[ObsConfig] = None,
    obs_tag: str = "run",
) -> RunResult:
    """Compile a suite benchmark and estimate its success rate.

    Only suite benchmarks run: the Monte-Carlo estimator needs the
    known-correct answer.  The estimate is produced by the very
    ``monte_carlo_success_rate`` call ``repro run`` has always made
    (default seed, no memoization), so the floats match bit for bit.
    ``fault_samples`` must be a non-negative integer.
    """
    check_fault_samples(fault_samples)
    options = CompileOptions(
        contracts=contracts, mapper=mapper, opt=opt, warm_start=warm_start
    )
    built_circuit, correct = build_program(benchmark=benchmark)
    if correct is None:
        raise ValueError(
            "`run` needs a suite benchmark (known correct answer)"
        )
    resolved_device = _resolve_device(device, day)
    resolved_level = resolve_level(level)
    if cache is None and cache_dir is not None:
        cache = open_cache(cache_dir)
    key = artifact_key(
        built_circuit, resolved_device, resolved_level, day=day,
        options=options,
    )
    with _obs_session(obs, obs_tag, cache) as obs_holder:
        program, cache_hit = compile_keyed(
            key, built_circuit, resolved_device, resolved_level, day=day,
            cache=cache, options=options,
        )
        _record_opt_metrics(obs_holder, program)
        estimate = monte_carlo_success_rate(
            program.circuit,
            resolved_device,
            correct,
            day=day,
            fault_samples=fault_samples,
        )
    compiled = _compile_result(
        benchmark, correct, resolved_device, resolved_level, day, key,
        program, cache_hit, obs_holder[0],
    )
    return RunResult(
        compiled=compiled,
        success_rate=estimate.success_rate,
        ideal_rate=estimate.ideal_rate,
        no_fault_probability=estimate.no_fault_probability,
        esp=estimate.esp,
        fault_samples=estimate.fault_samples,
    )


def sweep(
    device: Union[str, Device],
    compilers: Union[str, Sequence[Union[str, OptimizationLevel]]] = (
        OptimizationLevel.OPT_1QCN,
    ),
    benchmarks: Optional[Sequence[Union[str, Benchmark]]] = None,
    *,
    contracts: Optional[str] = None,
    warm_start: bool = True,
    mapper: str = "exact",
    opt: str = "none",
    **kwargs: Any,
) -> SweepResult:
    """Measure a benchmark suite under several compilers on one device.

    A typed facade over
    :func:`repro.experiments.parallel.run_sweep` — the compile knobs
    (``contracts``, ``warm_start``, ``mapper``, ``opt``) become one
    :class:`~repro.compiler.CompileOptions`, and every other engine
    keyword (``workers``, ``cache``/``cache_dir``, ``base_seed``,
    ``task_timeout_s``, ``retries``, ``days``, ``skip_bad_days``,
    ``run_id``, ``resume``, ``obs``...) passes straight through, so run
    ids and journal digests are byte-identical to direct engine calls.

    Passing ``workers_from`` (a fleet spec: ``"local:4"``, a
    comma-separated host list, or a hosts file path) routes the sweep
    through the distributed coordinator instead
    (:func:`repro.experiments.distributed.run_distributed_sweep`); the
    two paths plan identically, so run ids, journals, and task digests
    are interchangeable between them.  Remote workers record no traces
    or profiles, so an enabled ``obs`` with ``workers_from`` raises
    :class:`ValueError` rather than silently writing nothing.
    """
    kwargs["options"] = CompileOptions(
        contracts=contracts, mapper=mapper, opt=opt, warm_start=warm_start
    )
    workers_from = kwargs.pop("workers_from", None)
    if workers_from is not None:
        from repro.experiments.distributed import run_distributed_sweep

        obs = kwargs.pop("obs", None)
        if obs is not None and obs.enabled:
            raise ValueError(
                "observability (--profile/--obs-dir) is not supported on "
                "distributed sweeps (--workers-from); drop one of them"
            )
        kwargs.pop("workers", None)  # fleet size comes from the spec
        return SweepResult.from_report(
            run_distributed_sweep(
                device,
                resolve_compilers(compilers),
                benchmarks=benchmarks,
                workers_from=workers_from,
                **kwargs,
            )
        )
    from repro.experiments.parallel import run_sweep

    return SweepResult.from_report(
        run_sweep(
            device,
            resolve_compilers(compilers),
            benchmarks=benchmarks,
            **kwargs,
        )
    )


def work(
    coordinator_url: str,
    *,
    cache_dir=None,
    worker_id: Optional[str] = None,
    poll_s: float = 0.2,
    warm_start: bool = True,
) -> int:
    """Serve one sweep coordinator until it drains; the exit code.

    The ``repro work <url>`` entry point: lease cells, heartbeat,
    execute, complete — see
    :func:`repro.experiments.distributed.run_worker`.
    """
    from repro.experiments.distributed import run_worker

    return run_worker(
        coordinator_url,
        cache_dir=cache_dir,
        worker_id=worker_id,
        poll_s=poll_s,
        warm_start=warm_start,
    )


def sweep_status(
    run_id: str,
    *,
    cache_dir=None,
    journal_dir=None,
):
    """Journal/state-file progress of one sweep run.

    Returns a :class:`repro.experiments.distributed.SweepStatus`; never
    raises on missing files (an unknown run shows zero done cells).
    """
    from repro.experiments.distributed import sweep_status as _sweep_status

    return _sweep_status(run_id, cache_dir=cache_dir, journal_dir=journal_dir)


def check(
    devices: Optional[Sequence[Union[str, Device]]] = None,
    benchmarks: Optional[Sequence[Union[str, Benchmark]]] = None,
    levels: Optional[Sequence[Union[str, OptimizationLevel]]] = None,
    day: int = 0,
    mapper: str = "exact",
    opt: str = "none",
) -> CheckResult:
    """Compile a grid under warn-mode contracts; collect every violation.

    Defaults to all seven study machines, the full 12-benchmark suite,
    and all four TriQ levels — the grid ``repro check`` audits.
    Benchmarks that do not fit a device are skipped, as in the paper.
    ``mapper`` selects the placement solver; ``"portfolio"`` audits the
    solver race too (a heuristic diverging beyond the blessed bound of
    a finished exact solve surfaces as a MAP002 violation).
    """
    resolved_devices = (
        [_resolve_device(d, day) for d in devices]
        if devices
        else all_devices(day=day)
    )
    resolved_benchmarks = [
        benchmark_by_name(b) if isinstance(b, str) else b
        for b in (benchmarks if benchmarks else standard_suite())
    ]
    resolved_levels: Sequence[CompilerName] = (
        resolve_compilers(list(levels)) if levels else list(OptimizationLevel)
    )

    options = CompileOptions(contracts="warn", mapper=mapper, opt=opt)
    cells = 0
    violations: List[CheckCell] = []
    errors: List[CheckCell] = []
    for bench in resolved_benchmarks:
        built_circuit, _ = bench.build()
        for dev in resolved_devices:
            if not fits(built_circuit, dev):
                continue
            for compiler in resolved_levels:
                cells += 1
                label = compiler_label(compiler)
                try:
                    program = compile_with(
                        built_circuit, dev, compiler, day=day,
                        options=options,
                    )
                except Exception as exc:  # noqa: BLE001 - audit and go on
                    errors.append(
                        CheckCell(
                            benchmark=bench.name,
                            device=dev.name,
                            compiler=label,
                            kind="error",
                            message=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                for violation in program.contract_violations:
                    violations.append(
                        CheckCell(
                            benchmark=bench.name,
                            device=dev.name,
                            compiler=label,
                            kind="violation",
                            message=str(violation),
                        )
                    )
    return CheckResult(cells=cells, violations=violations, errors=errors)


def compile_cache_key(
    benchmark: Optional[Union[str, Benchmark]] = None,
    *,
    scaffold: Optional[str] = None,
    defines: Optional[Mapping[str, int]] = None,
    circuit: Optional[Circuit] = None,
    device: Union[str, Device],
    level: Union[str, OptimizationLevel] = OptimizationLevel.OPT_1QCN,
    day: int = 0,
    contracts: Optional[str] = None,
    mapper: str = "exact",
    opt: str = "none",
) -> str:
    """The artifact key a compile of this request would use — no compile.

    The service's request coalescer folds concurrent identical
    ``(circuit, calibration, options)`` submissions onto one underlying
    job by comparing exactly this key.  A program wider than the device
    has no artifact: that is a ``ValueError`` naming ``device``, as the
    compile itself would raise.
    """
    options = CompileOptions(contracts=contracts, mapper=mapper, opt=opt)
    built_circuit, _ = build_program(
        benchmark=benchmark, scaffold=scaffold, defines=defines,
        circuit=circuit,
    )
    resolved_device = _resolve_device(device, day)
    try:
        check_fits(built_circuit, resolved_device)
    except ValueError as exc:
        raise ValueError(f"bad 'device': {exc}") from None
    return artifact_key(
        built_circuit,
        resolved_device,
        resolve_level(level),
        day=day,
        options=options,
    )


# Keep a reference to every public entry point in one place; the CLI
# imports from the package root (see repro/api/__init__.py).
__all__ = [
    "build_program",
    "check",
    "compile",
    "compile_cache_key",
    "resolve_compilers",
    "resolve_level",
    "run",
    "sweep",
    "sweep_status",
    "work",
]
