"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``devices`` — list the seven study machines with their Figure-1 stats.
* ``benchmarks`` — list the 12-program suite.
* ``compile`` — compile a suite benchmark or Scaffold file for a device
  and print (or save) the vendor executable.
* ``run`` — compile and estimate the success rate on the noisy
  simulator.
* ``sweep`` — measure a benchmark suite under several compilers on one
  device, optionally fanned out over a process pool.
* ``serve`` — run the long-lived compilation service daemon (HTTP/JSON,
  see :mod:`repro.service`).
* ``experiment`` — regenerate one of the paper's tables/figures.
* ``check`` — compile a grid of benchmarks under warn-mode pass
  contracts and report every recorded violation.
* ``fuzz`` — differential fuzzing: random circuits through every
  (device, compiler) pair under strict contracts, findings shrunk to
  replayable JSON reproducers.
* ``profile`` — summarize ``--profile`` artifacts: hot passes from span
  traces, top-N functions from merged cProfile stats.
* ``trace`` — render a Chrome trace JSON file as a human span tree.

Every command is a thin client of the library API (:mod:`repro.api`):
handlers parse flags, call one API function, and format its typed
result — no compilation or measurement logic lives here.  Compilation
artifacts and Monte-Carlo estimates are cached on disk by default
(``--cache-dir`` to relocate, ``--no-cache`` to disable); sweep
commands accept ``--workers`` to parallelize over processes.  The
``compile``/``run``/``sweep`` commands accept ``--contracts
{strict,warn,off}`` to enforce per-pass contracts during compilation,
``--mapper {exact,portfolio,heuristic}`` to pick the placement solver
(see :mod:`repro.smt.portfolio`), and ``--profile``/``--obs-dir`` to
capture span traces, metrics, and cProfile stats (see
:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Dict, List, Optional

from repro.cache import open_cache
from repro.compiler import OPT_PRESETS, CompileOptions, OptimizationLevel
from repro.contracts.mode import ContractMode
from repro.devices.device import check_day
from repro.smt import MAPPER_METHODS

_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "table1",
)


def _parse_level(text: str) -> OptimizationLevel:
    from repro.api import resolve_level

    try:
        return resolve_level(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_day(text: str) -> int:
    try:
        return check_day(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_compilers(text: str) -> List:
    """Comma-separated TriQ levels and/or baselines (``qiskit``/``quil``)."""
    from repro.api import resolve_compilers

    try:
        return resolve_compilers(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _open_cli_cache(args: argparse.Namespace):
    """The cache handle the flags ask for (on by default)."""
    return open_cache(args.cache_dir, enabled=not args.no_cache)


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="compile-cache location (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro)",
    )
    p.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent compile cache",
    )


def _add_warm_start_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--no-warm-start", action="store_true",
        help="disable mapper warm-starting from placements cached on "
             "other calibration days (cold solves only)",
    )


def _compile_knobs(args: argparse.Namespace) -> Dict[str, Any]:
    """The compile-knob keywords the flags ask for, validated once."""
    knobs = CompileOptions.from_params(vars(args)).as_params()
    return dict(knobs, warm_start=not args.no_warm_start)


def _add_mapper_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mapper", choices=list(MAPPER_METHODS), default="exact",
        help="placement solver: exact (default) runs the SMT-style "
             "max-min search alone, portfolio races anytime heuristics "
             "against it under the wall budget, heuristic skips the "
             "exact stage entirely",
    )


def _add_opt_arg(
    p: argparse.ArgumentParser, *, allow_sample: bool = False
) -> None:
    choices = list(OPT_PRESETS)
    default = "none"
    extra = ""
    if allow_sample:
        choices.append("sample")
        default = "sample"
        extra = (
            ", sample (default here) draws a preset per generated "
            "circuit"
        )
    p.add_argument(
        "--opt", choices=choices, default=default,
        help="fixed-point pass-manager preset applied after routing: "
             "none (default) skips it, basic runs state compression + "
             "peephole + 1Q coalescing, full adds commutation-driven "
             "cancellation and 2Q block resynthesis" + extra,
    )


def _add_contract_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--contracts", choices=[mode.value for mode in ContractMode],
        default="off",
        help="pass-contract enforcement: strict aborts on a violated "
             "contract, warn records violations, off (default) skips "
             "the checks entirely",
    )


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--profile", action="store_true",
        help="capture span traces plus per-process cProfile stats "
             "(summarize with `repro profile <obs-dir>`)",
    )
    p.add_argument(
        "--obs-dir", metavar="DIR", default=None,
        help="where observability artifacts go (implies span tracing; "
             "default with --profile: next to the journal, else "
             "./repro-obs)",
    )


def _cli_obs_config(args: argparse.Namespace):
    """The ObsConfig the flags ask for, or None when observability is off.

    ``--profile`` turns on tracing + cProfile; ``--obs-dir`` alone turns
    on tracing only (cheap spans, no profiler overhead).
    """
    if not (args.profile or args.obs_dir):
        return None
    from repro.obs import ObsConfig

    return ObsConfig(trace=True, profile=args.profile, out_dir=args.obs_dir)


def _print_obs(obs) -> None:
    """The span tree + artifact pointer one obs-enabled command prints."""
    if obs is None:
        return
    print(obs.span_tree, file=sys.stderr)
    print(f"observability artifacts: {obs.out_dir}", file=sys.stderr)


def _read_scaffold(args: argparse.Namespace) -> Optional[str]:
    """The Scaffold source text, when ``-f`` was given."""
    if args.scaffold is None:
        return None
    with open(args.scaffold, "r", encoding="utf-8") as handle:
        return handle.read()


def _parse_defines(args: argparse.Namespace) -> Dict[str, int]:
    defines: Dict[str, int] = {}
    for item in args.define or []:
        name, _, value = item.partition("=")
        defines[name] = int(value)
    return defines


def _cmd_devices(_: argparse.Namespace) -> int:
    from repro.experiments import fig1_devices

    print(fig1_devices.format_result(fig1_devices.run()))
    return 0


def _cmd_benchmarks(_: argparse.Namespace) -> int:
    from repro.experiments import fig7_benchmarks

    print(fig7_benchmarks.format_result(fig7_benchmarks.run()))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro import api

    result = api.compile(
        benchmark=args.benchmark,
        scaffold=_read_scaffold(args),
        defines=_parse_defines(args),
        device=args.device,
        level=args.level,
        day=args.day,
        cache=_open_cli_cache(args),
        **_compile_knobs(args),
        obs=_cli_obs_config(args),
        obs_tag="compile",
    )
    _print_obs(result.obs)
    for violation in result.contract_violations:
        print(f"contract violation: {violation}", file=sys.stderr)
    text = result.executable
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(text.splitlines())} lines to {args.output}")
    else:
        print(text, end="")
    print(
        f"# {result.device} | {result.compiler} | "
        f"{result.two_qubit_gates} 2Q gates | "
        f"{result.one_qubit_pulses} 1Q pulses | "
        f"{result.num_swaps} swaps",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import api

    if args.scaffold is not None:
        print("error: `run` needs a suite benchmark (known correct answer)",
              file=sys.stderr)
        return 2
    try:
        result = api.run(
            args.benchmark,
            device=args.device,
            level=args.level,
            day=args.day,
            fault_samples=args.fault_samples,
            cache=_open_cli_cache(args),
            **_compile_knobs(args),
            obs=_cli_obs_config(args),
            obs_tag="run",
        )
    except ValueError as exc:
        # A rejected configuration (a bad --fault-samples, a program
        # wider than the device).
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    compiled = result.compiled
    for violation in compiled.contract_violations:
        print(f"contract violation: {violation}", file=sys.stderr)
    _print_obs(compiled.obs)
    print(f"device        : {compiled.device} (day {args.day})")
    print(f"compiler      : {compiled.compiler}")
    print(f"2Q gates      : {compiled.two_qubit_gates}")
    print(f"1Q pulses     : {compiled.one_qubit_pulses}")
    print(f"success rate  : {result.success_rate:.4f}")
    print(f"ideal rate    : {result.ideal_rate:.4f}")
    print(f"clean-run prob: {result.no_fault_probability:.4f}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro import api
    from repro.experiments.tables import format_table

    if args.status is not None:
        status = api.sweep_status(args.status, cache_dir=args.cache_dir)
        print(status.describe())
        return 0
    if not args.device:
        print(
            "repro sweep: --device is required (unless asking for "
            "--status RUN_ID)",
            file=sys.stderr,
        )
        return 2
    benchmarks = None
    if args.benchmarks:
        benchmarks = [
            name.strip()
            for name in args.benchmarks.split(",")
            if name.strip()
        ]
    days = None
    if args.days:
        days = [int(d) for d in args.days.split(",") if d.strip()]
    resume = args.resume is not None
    run_id = args.run_id or (args.resume if args.resume else None)
    distributed = {}
    if args.workers_from is not None:
        distributed = dict(
            workers_from=args.workers_from,
            lease_ttl_s=args.lease_ttl,
            worker_wait_s=args.worker_wait,
        )
    try:
        result = api.sweep(
            args.device,
            args.levels,
            benchmarks=benchmarks,
            day=args.day,
            fault_samples=args.fault_samples,
            with_success=not args.no_success,
            workers=args.workers,
            cache=_open_cli_cache(args),
            base_seed=args.seed,
            task_timeout_s=args.task_timeout,
            retries=args.retries,
            days=days,
            skip_bad_days=args.skip_bad_days,
            run_id=run_id,
            resume=resume,
            obs=_cli_obs_config(args),
            **_compile_knobs(args),
            **distributed,
        )
    except ValueError as exc:
        # A rejected configuration (a bad --workers-from spec, a bad
        # calibration day without --skip-bad-days, observability on a
        # distributed sweep); failing cells never raise, they are
        # reported below.
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2
    headers = ["Benchmark", "Compiler", "2Q", "1Q pulses", "Depth", "Swaps"]
    rows = [
        [m.benchmark, m.compiler, m.two_qubit_gates, m.one_qubit_pulses,
         m.depth, m.num_swaps]
        for m in result.measurements
    ]
    if not args.no_success:
        headers.append("Success")
        for row, m in zip(rows, result.measurements):
            row.append(m.success_rate)
    print(
        format_table(
            headers,
            [tuple(row) for row in rows],
            title=f"Sweep: {result.measurements[0].device}"
            if result.measurements
            else "Sweep: (no fitting benchmarks)",
        )
    )
    for m in result.measurements:
        for violation in m.contract_violations:
            print(
                f"contract violation [{m.benchmark}/{m.compiler}]: "
                f"{violation}",
                file=sys.stderr,
            )
    print(result.report.summary(), file=sys.stderr)
    if result.run_id:
        print(
            f"run id: {result.run_id} "
            f"(resume an interrupted run with --resume {result.run_id})",
            file=sys.stderr,
        )
    if result.report.obs_dir is not None:
        print(
            f"summarize with: repro profile {result.report.obs_dir}",
            file=sys.stderr,
        )
    for failure in result.failures:
        print(f"FAILED {failure.describe()}", file=sys.stderr)
    # Partial results are printed either way; a nonzero exit tells
    # scripts some cells were given up on.
    return 4 if result.failures else 0


def _cmd_work(args: argparse.Namespace) -> int:
    from repro import api

    return api.work(
        args.coordinator_url,
        cache_dir=args.cache_dir,
        worker_id=args.worker_id,
        poll_s=args.poll,
        warm_start=not args.no_warm_start,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import ServiceConfig, load_tenants, run_service

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        cache_enabled=not args.no_cache,
        memory_entries=args.memory_entries,
        drain_grace_s=args.drain_grace,
        admin=args.admin,
        port_file=args.port_file,
        default_wait_timeout_s=args.wait_timeout,
        wal_enabled=not args.no_wal,
        wal_path=args.wal_path,
    )
    if args.tenants:
        config.tenants = load_tenants(args.tenants)
    return run_service(config)


def _cmd_check(args: argparse.Namespace) -> int:
    """Compile a grid under warn-mode contracts; report every violation."""
    from repro import api

    devices = None
    if args.devices:
        devices = [
            name.strip() for name in args.devices.split(",") if name.strip()
        ]
    benchmarks = None
    if args.benchmarks:
        benchmarks = [
            name.strip()
            for name in args.benchmarks.split(",")
            if name.strip()
        ]
    result = api.check(
        devices=devices,
        benchmarks=benchmarks,
        levels=args.levels,
        day=args.day,
        mapper=args.mapper,
        opt=args.opt,
    )
    for cell in result.errors:
        print(
            f"ERROR {cell.benchmark} | {cell.device} | {cell.compiler}: "
            f"{cell.message}",
            file=sys.stderr,
        )
    for cell in result.violations:
        print(
            f"VIOLATION {cell.benchmark} | {cell.device} | "
            f"{cell.compiler}: {cell.message}"
        )
    print(
        f"checked {result.cells} cells: {len(result.violations)} contract "
        f"violation(s), {len(result.errors)} error(s)",
        file=sys.stderr,
    )
    return 0 if result.ok else 5


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.contracts.fuzz import FuzzConfig, replay_reproducer, run_fuzz

    if args.replay:
        outcome = replay_reproducer(args.replay)
        if outcome is None:
            print(f"{args.replay}: no longer reproduces")
            return 0
        kind, error = outcome
        print(f"{args.replay}: still fails ({kind})")
        print(f"  {error}")
        return 5

    devices = None
    if args.devices:
        devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    compilers = None
    if args.compilers:
        compilers = _parse_compilers(args.compilers)
    sample_opt = args.opt == "sample"
    config = FuzzConfig(
        circuits=args.circuits,
        seed=args.seed,
        min_qubits=args.min_qubits,
        max_qubits=args.max_qubits,
        max_gates=args.max_gates,
        devices=devices,
        compilers=compilers,
        options=CompileOptions.from_params(
            dict(vars(args), opt=None if sample_opt else args.opt)
        ),
        sample_opt=sample_opt,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
    )
    report = run_fuzz(config)
    for finding in report.findings:
        print(
            f"FINDING [{finding.kind}] {finding.device} | "
            f"{finding.compiler} | circuit {finding.circuit_index} "
            f"({finding.original_instructions} -> "
            f"{finding.shrunk_instructions} instructions)"
        )
        print(f"  {finding.error}")
        if finding.artifact_path:
            print(f"  reproducer: {finding.artifact_path}")
    print(
        f"fuzzed {report.attempts} (circuit, device, compiler) cells: "
        f"{len(report.findings)} finding(s)",
        file=sys.stderr,
    )
    return 5 if report.findings else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Summarize observability artifacts: hot passes + top functions."""
    from repro.obs import (
        collect_artifacts,
        format_hot_passes,
        format_top_functions,
        hot_passes,
        top_functions,
    )

    stats, traces = collect_artifacts(args.paths)
    if not stats and not traces:
        print(
            "no *.pstats or *trace*.json artifacts found under: "
            + ", ".join(args.paths),
            file=sys.stderr,
        )
        return 2
    if traces:
        print(f"Hot passes ({len(traces)} trace file(s)):")
        print(format_hot_passes(hot_passes(traces, limit=args.limit)))
    if stats:
        if traces:
            print()
        print(
            f"Top functions ({len(stats)} profile(s), sort={args.sort}):"
        )
        print(
            format_top_functions(
                top_functions(stats, limit=args.limit, sort=args.sort)
            )
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render a Chrome trace JSON file as a span tree."""
    import json

    from repro.obs import tree_from_chrome

    with open(args.path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    rendered = tree_from_chrome(trace)
    if not rendered:
        print("(empty trace)", file=sys.stderr)
        return 2
    print(rendered)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time vectorized kernels vs their serial references.

    Reports machine-normalized speedup ratios (see
    :mod:`repro.experiments.bench`), writes them to a JSON report, and
    — when a baseline is given — exits 4 if any kernel regressed more
    than the allowance.
    """
    from repro.experiments.bench import (
        DEFAULT_MAX_REGRESSION,
        DEFAULT_REPORT,
        compare_to_baseline,
        format_report,
        load_baseline,
        run_bench,
        write_report,
    )

    try:
        report = run_bench(
            trials=args.trials,
            fault_samples=args.fault_samples,
            repeats=args.repeats,
            kernels=(
                args.kernels.split(",") if args.kernels is not None else None
            ),
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(format_report(report))
    out_path = args.output or DEFAULT_REPORT
    write_report(report, out_path)
    print(f"report written to {out_path}", file=sys.stderr)
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        if baseline is None:
            print(f"baseline not found: {args.baseline}", file=sys.stderr)
            return 2
        allowance = (
            DEFAULT_MAX_REGRESSION
            if args.max_regression is None
            else args.max_regression
        )
        problems = compare_to_baseline(report, baseline, allowance)
        for problem in problems:
            print(f"REGRESSION {problem}", file=sys.stderr)
        if problems:
            return 4
        print(
            f"all kernels within {allowance:.0%} of baseline",
            file=sys.stderr,
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import (
        fig1_devices, fig2_gatesets, fig3_calibration, fig4_toolflow,
        fig5_ir, fig6_reliability, fig7_benchmarks, fig8_1q, fig9_success,
        fig10_comm, table1_configs,
    )

    modules = {
        "fig1": fig1_devices,
        "fig2": fig2_gatesets,
        "fig3": fig3_calibration,
        "fig4": fig4_toolflow,
        "fig5": fig5_ir,
        "fig6": fig6_reliability,
        "fig7": fig7_benchmarks,
        "fig8": fig8_1q,
        "fig9": fig9_success,
        "fig10": fig10_comm,
        "table1": table1_configs,
    }
    module = modules[args.name]
    # Sweep-backed figures accept engine options; static tables do not.
    accepted = inspect.signature(module.run).parameters
    kwargs = {}
    if "workers" in accepted:
        kwargs["workers"] = args.workers
        cache = _open_cli_cache(args)
        kwargs["cache_dir"] = getattr(cache, "root", None)
    if "task_timeout_s" in accepted:
        kwargs["task_timeout_s"] = args.task_timeout
        kwargs["retries"] = args.retries
    print(module.format_result(module.run(**kwargs)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TriQ reproduction: multi-vendor quantum compiler",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the study machines").set_defaults(
        func=_cmd_devices
    )
    sub.add_parser("benchmarks", help="list the benchmark suite").set_defaults(
        func=_cmd_benchmarks
    )

    def add_program_args(p: argparse.ArgumentParser) -> None:
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument(
            "--benchmark", "-b", help="suite benchmark name (e.g. BV4)"
        )
        source.add_argument(
            "--scaffold", "-f", help="path to a Scaffold source file"
        )
        p.add_argument(
            "--define", "-D", action="append", metavar="NAME=INT",
            help="compile-time constant override for Scaffold input",
        )
        p.add_argument(
            "--device", "-d", required=True,
            help="device name (partial match, e.g. 'melbourne')",
        )
        p.add_argument(
            "--level", "-l", type=_parse_level,
            default=OptimizationLevel.OPT_1QCN,
            help="optimization level (N, 1QOpt, 1QOptC, 1QOptCN)",
        )
        p.add_argument(
            "--day", type=_parse_day, default=0,
            help="calibration day (default 0)",
        )

    compile_parser = sub.add_parser(
        "compile", help="compile and emit the vendor executable"
    )
    add_program_args(compile_parser)
    compile_parser.add_argument("--output", "-o", help="write to file")
    _add_cache_args(compile_parser)
    _add_warm_start_arg(compile_parser)
    _add_mapper_arg(compile_parser)
    _add_opt_arg(compile_parser)
    _add_contract_args(compile_parser)
    _add_obs_args(compile_parser)
    compile_parser.set_defaults(func=_cmd_compile)

    run_parser = sub.add_parser(
        "run", help="compile and estimate success rate"
    )
    add_program_args(run_parser)
    run_parser.add_argument(
        "--fault-samples", type=int, default=100,
        help="Monte-Carlo fault configurations (default 100)",
    )
    _add_cache_args(run_parser)
    _add_warm_start_arg(run_parser)
    _add_mapper_arg(run_parser)
    _add_opt_arg(run_parser)
    _add_contract_args(run_parser)
    _add_obs_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = sub.add_parser(
        "sweep",
        help="measure a benchmark suite under several compilers",
    )
    sweep_parser.add_argument(
        "--device", "-d", default=None,
        help="device name (partial match, e.g. 'melbourne'); required "
             "unless --status is given",
    )
    sweep_parser.add_argument(
        "--levels", "-l", type=_parse_compilers,
        default=[OptimizationLevel.OPT_1QCN],
        help="comma-separated levels/baselines "
             "(e.g. 'N,1QOptCN,qiskit'; default 1QOptCN)",
    )
    sweep_parser.add_argument(
        "--benchmarks", "-b", default=None,
        help="comma-separated suite benchmark names (default: all 12)",
    )
    sweep_parser.add_argument(
        "--day", type=_parse_day, default=0, help="calibration day (default 0)"
    )
    sweep_parser.add_argument(
        "--fault-samples", type=int, default=100,
        help="Monte-Carlo fault configurations (default 100)",
    )
    sweep_parser.add_argument(
        "--no-success", action="store_true",
        help="compile only; skip the Monte-Carlo success estimate",
    )
    sweep_parser.add_argument(
        "--workers", "-w", type=int, default=1,
        help="process-pool width (default 1: serial)",
    )
    sweep_parser.add_argument(
        "--workers-from", metavar="SPEC", default=None,
        help="run distributed: comma list or hosts file of workers "
             "('local:2', 'local:1,bench-a', a hosts file path); the "
             "coordinator shards cells to them over HTTP",
    )
    sweep_parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="S",
        help="distributed lease TTL in seconds before an unrenewed "
             "cell is re-queued (default 30)",
    )
    sweep_parser.add_argument(
        "--worker-wait", type=float, default=60.0, metavar="S",
        help="seconds to wait for any worker to contact the "
             "coordinator before degrading to in-process execution "
             "(default 60)",
    )
    sweep_parser.add_argument(
        "--status", metavar="RUN_ID", default=None,
        help="report journal-derived progress for a run id and exit "
             "(no sweep is executed)",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=None,
        help="base seed for derived per-task seeds (default: legacy "
             "fixed seeds)",
    )
    sweep_parser.add_argument(
        "--days", default=None,
        help="comma-separated calibration days to sweep "
             "(overrides --day)",
    )
    sweep_parser.add_argument(
        "--skip-bad-days", action="store_true",
        help="skip calibration days that fail validation instead of "
             "aborting the sweep",
    )
    _add_fault_args(sweep_parser)
    sweep_parser.add_argument(
        "--run-id", default=None,
        help="checkpoint journal name (default: digest of the sweep "
             "specification)",
    )
    sweep_parser.add_argument(
        "--resume", nargs="?", const="", default=None, metavar="RUN_ID",
        help="replay cells already in the checkpoint journal; "
             "optionally name the run to resume",
    )
    _add_cache_args(sweep_parser)
    _add_warm_start_arg(sweep_parser)
    _add_mapper_arg(sweep_parser)
    _add_opt_arg(sweep_parser)
    _add_contract_args(sweep_parser)
    _add_obs_args(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    work_parser = sub.add_parser(
        "work",
        help="join a distributed sweep as a worker "
             "(lease, execute, complete; exits when the run finishes)",
    )
    work_parser.add_argument(
        "coordinator_url", metavar="URL",
        help="coordinator base URL printed by "
             "'repro sweep --workers-from ...' (e.g. "
             "http://10.0.0.5:8757)",
    )
    work_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="shared compile-cache root; this worker writes through a "
             "private shard namespace under it",
    )
    work_parser.add_argument(
        "--worker-id", default=None,
        help="stable worker identity (default: <hostname>-<pid>)",
    )
    work_parser.add_argument(
        "--poll", type=float, default=0.2, metavar="S",
        help="idle poll interval when no cell is available "
             "(default 0.2s)",
    )
    _add_warm_start_arg(work_parser)
    work_parser.set_defaults(func=_cmd_work)

    serve_parser = sub.add_parser(
        "serve",
        help="run the compilation service daemon (asyncio HTTP/JSON)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", "-p", type=int, default=8756,
        help="TCP port; 0 picks a free ephemeral port (default 8756)",
    )
    serve_parser.add_argument(
        "--port-file", metavar="PATH", default=None,
        help="write the bound port number here once listening "
             "(useful with --port 0)",
    )
    serve_parser.add_argument(
        "--workers", "-w", type=int, default=2,
        help="concurrent job executors (default 2)",
    )
    serve_parser.add_argument(
        "--memory-entries", type=int, default=256,
        help="capacity of the in-process warm artifact cache "
             "(default 256 entries)",
    )
    serve_parser.add_argument(
        "--tenants", metavar="PATH", default=None,
        help="JSON file of tenant classes "
             '(e.g. {"batch": {"priority": 20, "rate_per_s": 2}})',
    )
    serve_parser.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="how long SIGTERM waits for in-flight jobs (default 30)",
    )
    serve_parser.add_argument(
        "--wait-timeout", type=float, default=300.0, metavar="SECONDS",
        help="how long a wait=true submission blocks before returning "
             "202 + job id (default 300)",
    )
    serve_parser.add_argument(
        "--admin", action="store_true",
        help="enable the /admin/pause and /admin/resume endpoints",
    )
    serve_parser.add_argument(
        "--no-wal", action="store_true",
        help="disable the write-ahead job journal (accepted jobs no "
             "longer survive a daemon crash/restart)",
    )
    serve_parser.add_argument(
        "--wal-path", metavar="PATH", default=None,
        help="where the job WAL lives "
             "(default <cache-dir>/service/wal.jsonl)",
    )
    _add_cache_args(serve_parser)
    serve_parser.set_defaults(func=_cmd_serve)

    check_parser = sub.add_parser(
        "check",
        help="compile a grid under warn-mode pass contracts and report "
             "every violation",
    )
    check_parser.add_argument(
        "--devices", "-d", default=None,
        help="comma-separated device names (default: all seven machines)",
    )
    check_parser.add_argument(
        "--benchmarks", "-b", default=None,
        help="comma-separated suite benchmark names (default: all 12)",
    )
    check_parser.add_argument(
        "--levels", "-l", type=_parse_compilers,
        default=list(OptimizationLevel),
        help="comma-separated levels/baselines (default: all four TriQ "
             "levels)",
    )
    check_parser.add_argument(
        "--day", type=_parse_day, default=0, help="calibration day (default 0)"
    )
    _add_mapper_arg(check_parser)
    _add_opt_arg(check_parser)
    check_parser.set_defaults(func=_cmd_check)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the compiler under pass contracts",
    )
    fuzz_parser.add_argument(
        "--circuits", "-n", type=int, default=50,
        help="random circuits to generate (default 50)",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; every finding replays from it (default 0)",
    )
    fuzz_parser.add_argument(
        "--devices", "-d", default=None,
        help="comma-separated device names (default: all seven machines)",
    )
    fuzz_parser.add_argument(
        "--compilers", "-l", default=None,
        help="comma-separated levels/baselines (default: all four TriQ "
             "levels plus qiskit and quil)",
    )
    fuzz_parser.add_argument(
        "--min-qubits", type=int, default=2,
        help="minimum circuit width (default 2)",
    )
    fuzz_parser.add_argument(
        "--max-qubits", type=int, default=4,
        help="maximum circuit width (default 4)",
    )
    fuzz_parser.add_argument(
        "--max-gates", type=int, default=12,
        help="maximum gates per circuit before measurement (default 12)",
    )
    fuzz_parser.add_argument(
        "--contracts", choices=["strict", "warn"], default="strict",
        help="contract mode while fuzzing (default strict)",
    )
    fuzz_parser.add_argument(
        "--artifact-dir", metavar="DIR", default=None,
        help="write shrunk JSON reproducers here",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip minimizing failing circuits",
    )
    fuzz_parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="re-run one reproducer artifact instead of fuzzing",
    )
    _add_mapper_arg(fuzz_parser)
    _add_opt_arg(fuzz_parser, allow_sample=True)
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    profile_parser = sub.add_parser(
        "profile",
        help="summarize --profile artifacts (hot passes, top functions)",
    )
    profile_parser.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="obs directories, *.pstats files, or *trace*.json files",
    )
    profile_parser.add_argument(
        "--limit", "-n", type=int, default=15,
        help="rows per table (default 15)",
    )
    profile_parser.add_argument(
        "--sort", choices=["cumulative", "tottime", "ncalls"],
        default="cumulative",
        help="function-table sort key (default cumulative)",
    )
    profile_parser.set_defaults(func=_cmd_profile)

    trace_parser = sub.add_parser(
        "trace", help="render a Chrome trace JSON file as a span tree"
    )
    trace_parser.add_argument("path", help="path to a trace.json file")
    trace_parser.set_defaults(func=_cmd_trace)

    bench_parser = sub.add_parser(
        "bench",
        help="time vectorized kernels vs their serial references and "
             "gate on the committed speedup baseline",
    )
    bench_parser.add_argument(
        "--output", "-o", metavar="PATH", default=None,
        help="write the JSON report here (default BENCH_PR5.json)",
    )
    bench_parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="committed baseline to gate against "
             "(e.g. benchmarks/bench_baseline.json)",
    )
    bench_parser.add_argument(
        "--max-regression", type=float, default=None, metavar="FRACTION",
        help="allowed fractional speedup drop below baseline "
             "(default 0.25)",
    )
    bench_parser.add_argument(
        "--trials", type=int, default=3000,
        help="trajectory-sampling trials (default 3000)",
    )
    bench_parser.add_argument(
        "--fault-samples", type=int, default=400,
        help="success-estimation fault samples (default 400)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=3,
        help="timing repeats per kernel, best-of (default 3)",
    )
    bench_parser.add_argument(
        "--kernels", metavar="NAME[,NAME...]", default=None,
        help="run only these kernels (default: all; gating a filtered "
             "report against the committed baseline fails on the "
             "skipped kernels)",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    experiment_parser = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment_parser.add_argument("name", choices=_EXPERIMENTS)
    experiment_parser.add_argument(
        "--workers", "-w", type=int, default=1,
        help="process-pool width for sweep-backed figures (default 1)",
    )
    _add_fault_args(experiment_parser)
    _add_cache_args(experiment_parser)
    experiment_parser.set_defaults(func=_cmd_experiment)
    return parser


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per sweep task attempt (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="extra attempts per task after a crash/timeout/error "
             "(default 0)",
    )


def _unknown_name(args: argparse.Namespace) -> Optional[str]:
    """The lookup error of the first device or benchmark name the
    command line gives that names no study device or suite benchmark."""
    from repro.devices import device_by_name
    from repro.programs import benchmark_by_name

    for attr, lookup in (
        ("device", device_by_name), ("devices", device_by_name),
        ("benchmark", benchmark_by_name), ("benchmarks", benchmark_by_name),
    ):
        value = getattr(args, attr, None)
        names = (value or "").split(",") if attr.endswith("s") else [value]
        for name in names:
            if name and name.strip():
                try:
                    lookup(name.strip())
                except KeyError as exc:
                    return exc.args[0]
    return None


def main(argv: Optional[List[str]] = None) -> int:
    from repro.contracts import ContractError

    parser = build_parser()
    args = parser.parse_args(argv)
    unknown = _unknown_name(args)
    if unknown is not None:
        print(f"repro {args.command}: {unknown}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ContractError as exc:
        # Strict-mode contract violations are expected failures: print
        # the structured diagnostic, not a traceback.
        print(exc.describe(), file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
