"""Observability overhead (pytest-benchmark timings).

The tracing layer must be pay-for-what-you-use, exactly like the
contracts recorder: with no active tracer, ``repro.obs.tracer.span``
returns a falsy singleton and touches nothing else, so instrumented
code costs essentially a function call and a global read per span
site.  The obs-off assertions are the load-bearing ones — sweeps
compile thousands of cells with observability off, so the hooks must
stay out of the hot path entirely.
"""

import time

from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices import ibmq14_melbourne, rigetti_agave
from repro.obs.tracer import NULL_SPAN, Tracer, span, tracer_context
from repro.programs import bernstein_vazirani


def _compile_time(device, circuit, tracer=None, repeats=7):
    """Best-of-N wall time of one full compile, optionally traced."""
    best = float("inf")
    for _ in range(repeats):
        compiler = TriQCompiler(device, level=OptimizationLevel.OPT_1QCN)
        with tracer_context(tracer):
            started = time.perf_counter()
            compiler.compile(circuit)
            best = min(best, time.perf_counter() - started)
    return best


def test_null_span_is_nearly_free(benchmark):
    """100k inactive span sites — the exact shape of instrumented
    hot-path code — must run in well under a second."""

    def hammer():
        for _ in range(100_000):
            with span("hot", key="value") as sp:
                if sp:  # the guard instrumented code uses
                    sp.set(expensive=1)
        return sp

    if benchmark.disabled:
        # ``--benchmark-disable`` runs the loop once and keeps no
        # stats: time that one run instead.
        started = time.perf_counter()
        result = hammer()
        best = time.perf_counter() - started
    else:
        result = benchmark(hammer)
        best = benchmark.stats.stats.min
    assert result is NULL_SPAN
    assert best < 1.0, (
        f"100k null spans took {best:.3f}s; the inactive path "
        "must stay out of the hot loop"
    )


def test_compile_untraced(benchmark):
    device = rigetti_agave()
    circuit, _ = bernstein_vazirani(4)
    program = benchmark(
        lambda: TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN
        ).compile(circuit)
    )
    assert program.two_qubit_gate_count() >= 3


def test_compile_traced(benchmark):
    device = rigetti_agave()
    circuit, _ = bernstein_vazirani(4)

    def traced_compile():
        with tracer_context(Tracer()):
            return TriQCompiler(
                device, level=OptimizationLevel.OPT_1QCN
            ).compile(circuit)

    program = benchmark(traced_compile)
    assert program.two_qubit_gate_count() >= 3


def test_obs_off_compile_within_noise():
    """With no active tracer the instrumented pipeline must track the
    historical bare-compile time; the generous bound absorbs timing
    noise — the real guard is that span() short-circuits before any
    allocation or clock read."""
    device = ibmq14_melbourne()
    circuit, _ = bernstein_vazirani(6)
    base = _compile_time(device, circuit, tracer=None)
    # Re-measure untraced a second time: the spread between two
    # identical configurations is the noise floor for this machine.
    again = _compile_time(device, circuit, tracer=None)
    noise = abs(again - base)
    assert min(base, again) > 0
    assert noise < max(base, again), "timer produced nonsense"
    assert again < base * 1.5 + 0.005


def test_tracing_overhead_is_bounded():
    """An active tracer may add real work (clock reads, span objects)
    but must stay within a small factor of the bare compile."""
    device = ibmq14_melbourne()
    circuit, _ = bernstein_vazirani(6)
    base = _compile_time(device, circuit, tracer=None)
    traced = _compile_time(device, circuit, tracer=Tracer())
    overhead = traced / base
    print(f"\ntracing overhead: {overhead:.2f}x "
          f"({base * 1e3:.1f} ms -> {traced * 1e3:.1f} ms)")
    assert overhead < 3.0 or traced - base < 0.010
