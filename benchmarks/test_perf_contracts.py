"""Contract-enforcement overhead (pytest-benchmark timings).

The contracts layer must be pay-for-what-you-use: strict mode buys
per-stage invariant checks (including an end-to-end statevector
comparison) at a measured, bounded cost; warn and off modes must not
slow the sweep hot path measurably.  The off-mode assertion is the
load-bearing one — sweeps compile thousands of cells with contracts
off, so the recorder must stay out of the hot path entirely.
"""

import time

from repro.compiler import CompileOptions, OptimizationLevel, TriQCompiler
from repro.devices import ibmq14_melbourne, rigetti_agave
from repro.programs import bernstein_vazirani


def _compile_time(device, circuit, contracts, repeats=5):
    """Best-of-N wall time of one full compile under a contract mode."""
    best = float("inf")
    for _ in range(repeats):
        compiler = TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN,
            options=CompileOptions(contracts=contracts),
        )
        started = time.perf_counter()
        compiler.compile(circuit)
        best = min(best, time.perf_counter() - started)
    return best


def test_compile_with_contracts_off(benchmark):
    device = rigetti_agave()
    circuit, _ = bernstein_vazirani(4)
    program = benchmark(
        lambda: TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN
        ).compile(circuit)
    )
    assert program.contract_violations == ()


def test_compile_with_contracts_warn(benchmark):
    device = rigetti_agave()
    circuit, _ = bernstein_vazirani(4)
    program = benchmark(
        lambda: TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN,
            options=CompileOptions(contracts="warn"),
        ).compile(circuit)
    )
    assert program.contract_violations == ()


def test_compile_with_contracts_strict(benchmark):
    device = rigetti_agave()
    circuit, _ = bernstein_vazirani(4)
    program = benchmark(
        lambda: TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN,
            options=CompileOptions(contracts="strict"),
        ).compile(circuit)
    )
    assert program.contract_violations == ()


def test_strict_overhead_is_bounded():
    """Record the strict-mode cost; it must stay within one order of
    magnitude of a bare compile (the semantic check simulates the
    program twice, so ~2-5x is the expected band)."""
    device = ibmq14_melbourne()
    circuit, _ = bernstein_vazirani(6)
    base = _compile_time(device, circuit, None)
    strict = _compile_time(device, circuit, "strict")
    overhead = strict / base
    print(f"\nstrict-contract overhead: {overhead:.2f}x "
          f"({base * 1e3:.1f} ms -> {strict * 1e3:.1f} ms)")
    assert overhead < 10.0


def test_warn_and_off_add_no_measurable_cost():
    """Warn mode on a clean compile runs the same checks as strict;
    off mode must track the bare compile closely (the recorder never
    invokes a check)."""
    device = ibmq14_melbourne()
    circuit, _ = bernstein_vazirani(6)
    base = _compile_time(device, circuit, None, repeats=7)
    off = _compile_time(device, circuit, "off", repeats=7)
    # Generous bound: timing noise dominates; the real guard is that
    # off mode shares the bare-compile code path (no checks invoked).
    assert off < base * 1.5 + 0.005
