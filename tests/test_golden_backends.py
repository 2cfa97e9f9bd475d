"""Golden-file regression tests for the three code emitters.

Each case compiles one suite benchmark for one study machine at the
full TriQ-1QOptCN level and compares the emitted executable —
OpenQASM (IBM), Quil (Rigetti), UMDTI pulse assembly (UMD) —
**byte-for-byte** against a checked-in golden file.  Any change to
decomposition, mapping, routing, translation, 1Q optimization, or the
emitters themselves shows up here as a readable text diff.

Intentional output changes are re-blessed with::

    pytest tests/test_golden_backends.py --update-golden

then reviewed like any other diff.  The solver runs with no time
limit so placements are deterministic on any machine speed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.compiler import CompileOptions, OptimizationLevel, TriQCompiler
from repro.devices import device_by_name
from repro.programs import benchmark_by_name

GOLDEN_DIR = Path(__file__).parent / "golden"

#: device lookup name -> (slug, emitter family asserted in the header)
DEVICES = {
    "tenerife": "openqasm",
    "agave": "quil",
    "umd": "umdti",
}
BENCHMARKS = ["BV4", "Toffoli", "HS2"]

CASES = [
    (benchmark, device)
    for benchmark in BENCHMARKS
    for device in DEVICES
]


def _emit(benchmark_name: str, device_name: str, opt: str = "none") -> str:
    circuit, _ = benchmark_by_name(benchmark_name).build()
    device = device_by_name(device_name)
    compiler = TriQCompiler(
        device,
        level=OptimizationLevel.OPT_1QCN,
        time_limit_s=None,  # exact solve: deterministic on any machine
        options=CompileOptions(opt=opt),
    )
    return compiler.compile(circuit).executable()


def _golden_path(
    benchmark_name: str, device_name: str, opt: str = "none"
) -> Path:
    fmt = DEVICES[device_name]
    suffix = "" if opt == "none" else f"-opt{opt}"
    return GOLDEN_DIR / f"{benchmark_name.lower()}-{device_name}{suffix}.{fmt}"


@pytest.mark.parametrize("bench_name,device_name", CASES)
def test_emitter_output_matches_golden(bench_name, device_name, request):
    path = _golden_path(bench_name, device_name)
    text = _emit(bench_name, device_name)
    assert text, "emitter produced no output"
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"golden file rewritten: {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; generate it with "
        "pytest tests/test_golden_backends.py --update-golden"
    )
    golden = path.read_text(encoding="utf-8")
    assert text == golden, (
        f"emitted {DEVICES[device_name]} for {bench_name} on "
        f"{device_name} no longer matches {path.name}; if the change is "
        "intentional, re-bless with --update-golden and review the diff"
    )


@pytest.mark.parametrize("bench_name,device_name", CASES)
def test_optimized_emitter_output_matches_golden(
    bench_name, device_name, request
):
    """Same battery at ``--opt full``: the pass manager's rewrites are
    deterministic, so optimized emission is golden-testable too — and a
    drift in any pass shows up as a text diff against these files while
    the unoptimized goldens above stay untouched."""
    path = _golden_path(bench_name, device_name, opt="full")
    text = _emit(bench_name, device_name, opt="full")
    assert text, "emitter produced no output"
    if request.config.getoption("--update-golden"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        pytest.skip(f"golden file rewritten: {path.name}")
    assert path.exists(), (
        f"golden file {path} missing; generate it with "
        "pytest tests/test_golden_backends.py --update-golden"
    )
    golden = path.read_text(encoding="utf-8")
    assert text == golden, (
        f"emitted {DEVICES[device_name]} for {bench_name} on "
        f"{device_name} at --opt full no longer matches {path.name}; if "
        "the change is intentional, re-bless with --update-golden and "
        "review the diff"
    )


def test_opt_none_emission_matches_default():
    """`--opt none` must be byte-identical to omitting the flag — the
    back-compat guarantee that makes the preset opt-in."""
    for bench_name, device_name in CASES:
        assert _emit(bench_name, device_name, opt="none") == _emit(
            bench_name, device_name
        )


def test_emission_is_deterministic():
    """The premise of golden testing: same inputs, same bytes."""
    assert _emit("BV4", "tenerife") == _emit("BV4", "tenerife")
    assert _emit("BV4", "tenerife", opt="full") == _emit(
        "BV4", "tenerife", opt="full"
    )
