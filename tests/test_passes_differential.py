"""Differential-equivalence battery gating the pass manager.

For every preset x study device x fitting suite benchmark, the
optimized compile is checked against an unoptimized compile of the same
cell:

* **distribution preservation** — the compiled program's ideal output
  distribution matches the unoptimized program's (itself contract-
  checked against the source circuit), whenever the circuits touch few
  enough qubits to simulate (``ideal_distribution`` runs the register
  ``compact_register`` leaves);
* **2Q monotonicity** — the optimized program never carries more 2Q
  gates than the unoptimized one, on every cell.

Alongside the battery live the back-compat proofs that make the preset
opt-in: ``opt="none"`` produces byte-identical cache keys, sweep task
digests, and emitted programs, so every artifact and journal written
before the pass manager stays reachable.
"""

from __future__ import annotations

import pytest

from repro.compiler import CompileOptions, OptimizationLevel
from repro.contracts.checks import DEFAULT_SEMANTIC_QUBIT_LIMIT
from repro.devices import all_devices
from repro.experiments.runner import artifact_key, compile_with, fits
from repro.programs import standard_suite
from repro.sim import ideal_distribution
from repro.verify import distribution_distance

LEVEL = OptimizationLevel.OPT_1QCN
DEVICES = all_devices(day=0)
SUITE = [(b.name, b.build()[0]) for b in standard_suite()]

CELLS = [
    pytest.param(device, bench_name, circuit, id=f"{device.name}-{bench_name}")
    for device in DEVICES
    for bench_name, circuit in SUITE
    if fits(circuit, device)
]

_plain_cache = {}


def _plain_program(device, bench_name, circuit):
    """The unoptimized compile of a cell, computed once per cell."""
    key = (device.name, bench_name)
    if key not in _plain_cache:
        _plain_cache[key] = compile_with(circuit, device, LEVEL)
    return _plain_cache[key]


@pytest.mark.parametrize("preset", ["basic", "full"])
@pytest.mark.parametrize("device,bench_name,circuit", CELLS)
def test_preset_preserves_distribution_and_two_qubit_count(
    preset, device, bench_name, circuit
):
    plain = _plain_program(device, bench_name, circuit)
    optimized = compile_with(
        circuit, device, LEVEL,
        options=CompileOptions(contracts="strict", opt=preset),
    )
    assert optimized.opt == preset
    # 2Q monotonicity holds on every cell, simulable or not.
    assert (
        optimized.circuit.num_two_qubit_gates()
        <= plain.circuit.num_two_qubit_gates()
    )
    # ideal_distribution simulates only the touched qubits.
    src, dst = plain.circuit, optimized.circuit
    if (
        max(len(src.used_qubits()), len(dst.used_qubits()))
        > DEFAULT_SEMANTIC_QUBIT_LIMIT
    ):
        return
    assert (
        distribution_distance(ideal_distribution(src), ideal_distribution(dst))
        < 1e-6
    )


@pytest.mark.parametrize("device,bench_name,circuit", CELLS)
def test_opt_none_program_is_byte_identical(device, bench_name, circuit):
    """The default path is untouched: opt="none" emits the same bytes
    as a compile that never heard of the pass manager."""
    plain = _plain_program(device, bench_name, circuit)
    explicit = compile_with(
        circuit, device, LEVEL, options=CompileOptions(opt="none")
    )
    assert explicit.executable() == plain.executable()
    assert explicit.opt == "none"
    assert explicit.opt_stats == ()


class TestCacheKeyBackCompat:
    def _cell(self):
        device = DEVICES[0]
        circuit = SUITE[0][1]
        return device, circuit

    def test_opt_none_key_matches_default_signature(self):
        device, circuit = self._cell()
        assert artifact_key(circuit, device, LEVEL) == artifact_key(
            circuit, device, LEVEL, options=CompileOptions(opt="none")
        )

    def test_engaged_presets_address_distinct_artifacts(self):
        device, circuit = self._cell()
        keys = {
            artifact_key(
                circuit, device, LEVEL, options=CompileOptions(opt=preset)
            )
            for preset in ("none", "basic", "full")
        }
        assert len(keys) == 3

    def test_vendor_baselines_ignore_opt(self):
        """The pass manager is TriQ-only; baseline compiler keys must
        not fork on a knob that cannot affect them."""
        device, circuit = self._cell()
        assert artifact_key(circuit, device, "Qiskit") == artifact_key(
            circuit, device, "Qiskit", options=CompileOptions(opt="full")
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown optimization preset"):
            CompileOptions(opt="max")


class TestSweepPlanBackCompat:
    def test_opt_none_keeps_run_id_and_digests(self):
        from repro.experiments.plan import build_sweep_plan

        device = DEVICES[0]
        default_plan = build_sweep_plan(device, [LEVEL], benchmarks=["bv4"])
        none_plan = build_sweep_plan(
            device, [LEVEL], benchmarks=["bv4"],
            options=CompileOptions(opt="none"),
        )
        full_plan = build_sweep_plan(
            device, [LEVEL], benchmarks=["bv4"],
            options=CompileOptions(opt="full"),
        )
        assert default_plan.run_id == none_plan.run_id
        assert default_plan.digests == none_plan.digests
        assert all(task.opt is None for task in none_plan.tasks)
        assert full_plan.run_id != default_plan.run_id
        assert full_plan.digests != default_plan.digests
        assert all(task.opt == "full" for task in full_plan.tasks)


class TestFuzzSamplesPresets:
    def test_sampled_presets_are_deterministic_in_seed(self):
        """sample_opt draws a preset per circuit from the circuit's own
        RNG — after the circuit draws, so the generated circuits match a
        fixed-preset campaign's bit for bit."""
        import random

        from repro.contracts.fuzz import _SEED_STRIDE, random_circuit

        seen = set()
        for index in range(8):
            rng = random.Random(0 * _SEED_STRIDE + index)
            num_qubits = rng.randint(2, 4)
            num_gates = rng.randint(1, 12)
            random_circuit(rng, num_qubits, num_gates)
            seen.add(rng.choice(("none", "basic", "full")))
        assert len(seen) > 1  # sampling actually varies the preset

    def test_fuzz_campaign_with_sampling_finds_nothing(self):
        from repro.contracts.fuzz import FuzzConfig, run_fuzz

        report = run_fuzz(
            FuzzConfig(
                circuits=6,
                devices=["IBM Q5 Tenerife"],
                compilers=[LEVEL],
                sample_opt=True,
            )
        )
        assert report.attempts == 6
        assert report.ok, [f.error for f in report.findings]

    def test_reproducer_roundtrips_opt(self, tmp_path):
        import json

        from repro.contracts.fuzz import (
            FuzzFinding,
            circuit_to_payload,  # noqa: F401 - exercised via write
            write_reproducer,
        )
        from repro.ir.circuit import Circuit

        c = Circuit(2)
        c.add("h", (0,))
        c.measure_all()
        finding = FuzzFinding(
            kind="differential",
            device="IBM Q5 Tenerife",
            compiler="TriQ-1QOptCN",
            circuit_index=0,
            error="synthetic",
            original_instructions=len(c.instructions),
            shrunk_instructions=len(c.instructions),
        )
        path = write_reproducer(
            tmp_path / "repro.json", c, finding,
            CompileOptions(contracts="strict", opt="full"), 1e-6,
        )
        payload = json.loads(path.read_text())
        assert payload["opt"] == "full"
