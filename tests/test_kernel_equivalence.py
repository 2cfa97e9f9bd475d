"""Differential equivalence: vectorized kernels vs serial references.

The vectorized hot paths (batched trajectory sampling, log-space
Floyd-Warshall reliability, warm-started mapping) each keep their
serial predecessor importable as ``_reference_*``.  This suite proves,
on every study device, that the fast path reproduces the reference
exactly:

* trajectory sampling — **exact Counter equality** (same seed, same
  histogram, bit for bit);
* reliability matrices — ``np.allclose`` on every float table plus
  **identical** ``next_hop`` (the routing tiebreaks must not drift);
* mapping — a warm hint (same-problem or cross-calibration-day) never
  changes the returned placement, and the batched success estimator
  returns the reference's exact float.

Workloads are seeded random circuits (``repro.contracts.fuzz``), so a
failure replays exactly from the test id.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.compiler import (
    OptimizationLevel,
    TriQCompiler,
    compute_reliability,
)
from repro.compiler.mapping import smt_mapping
from repro.compiler.reliability import _reference_compute_reliability
from repro.contracts.fuzz import random_circuit
from repro.devices import all_devices, device_by_name
from repro.ir import Circuit
from repro.ir.instruction import Instruction
from repro.obs import Tracer, tracer_context
from repro.programs import benchmark_by_name
from repro.sim.batch import compact_register
from repro.sim.statevector import measurement_wiring
from repro.sim.success import (
    _reference_monte_carlo_success_rate,
    monte_carlo_success_rate,
)
from repro.sim.trajectories import _reference_sample_counts, sample_counts

DEVICES = {device.name: device for device in all_devices()}
DEVICE_NAMES = sorted(DEVICES)


def _compiled_random(device, seed, num_qubits=3, num_gates=10):
    """A seeded random circuit compiled onto ``device``."""
    rng = random.Random(seed)
    circuit = random_circuit(
        rng, num_qubits, num_gates, name=f"eqv{seed}"
    )
    compiler = TriQCompiler(
        device, level=OptimizationLevel.OPT_1QCN, time_limit_s=None
    )
    return compiler.compile(circuit).circuit


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
@pytest.mark.parametrize("seed", [11, 29])
def test_trajectory_counts_exactly_equal(device_name, seed):
    device = DEVICES[device_name]
    compiled = _compiled_random(device, seed)
    # Fewer trials on the wide devices: the scalar reference simulates
    # a 2**14/2**16 statevector per distinct fault configuration.
    trials = 120 if device.num_qubits <= 8 else 50
    batched = sample_counts(compiled, device, trials=trials, seed=2024)
    reference = _reference_sample_counts(
        compiled, device, trials=trials, seed=2024
    )
    assert batched == reference
    assert sum(batched.values()) == trials


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
@pytest.mark.parametrize("noise_aware", [True, False])
def test_reliability_matrices_equivalent(device_name, noise_aware):
    device = DEVICES[device_name]
    for day in (0, 3):
        fast = compute_reliability(device, noise_aware=noise_aware, day=day)
        slow = _reference_compute_reliability(
            device, noise_aware=noise_aware, day=day
        )
        assert np.allclose(fast.matrix, slow.matrix)
        assert np.allclose(fast.swap_reliability, slow.swap_reliability)
        assert np.allclose(fast.gate_reliability, slow.gate_reliability)
        assert np.allclose(fast.readout, slow.readout)
        # Tiebreaks drive swap routing; they must match exactly.
        assert np.array_equal(fast.next_hop, slow.next_hop)


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
def test_warm_hint_preserves_mapper_objective(device_name):
    device = DEVICES[device_name]
    rng = random.Random(97)
    circuit = random_circuit(rng, 3, 10, name="eqv-map")
    from repro.ir.decompose import decompose_to_basis

    decomposed = decompose_to_basis(circuit)
    reliability = compute_reliability(device)
    cold = smt_mapping(decomposed, device, reliability, time_limit_s=None)
    warm = smt_mapping(
        decomposed,
        device,
        reliability,
        time_limit_s=None,
        warm_hint=cold.placement,
    )
    assert warm.objective == cold.objective
    assert warm.placement == cold.placement


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
def test_cross_day_warm_hint_identical_placement(device_name):
    """A hint solved against *another* day's calibration — the case the
    compile cache actually produces — must leave the placement
    bit-identical to a cold solve, or sweep results would depend on
    cache state."""
    device = DEVICES[device_name]
    rng = random.Random(53)
    circuit = random_circuit(rng, 3, 10, name="eqv-map-day")
    from repro.ir.decompose import decompose_to_basis

    decomposed = decompose_to_basis(circuit)
    hint = smt_mapping(
        decomposed,
        device,
        compute_reliability(device, day=3),
        time_limit_s=None,
    ).placement
    today = compute_reliability(device, day=0)
    cold = smt_mapping(decomposed, device, today, time_limit_s=None)
    warm = smt_mapping(
        decomposed, device, today, time_limit_s=None, warm_hint=hint
    )
    assert warm.placement == cold.placement
    assert warm.objective == cold.objective
    assert warm.degraded == cold.degraded


def _assert_estimates_bitwise_equal(circuit, device, correct, samples):
    """The batched, compacted estimator against the full-register
    one-sample-at-a-time reference, float for float."""
    batched = monte_carlo_success_rate(
        circuit, device, correct, fault_samples=samples, seed=1234
    )
    reference = _reference_monte_carlo_success_rate(
        circuit, device, correct, fault_samples=samples, seed=1234
    )
    assert batched.success_rate.hex() == reference.success_rate.hex()
    assert batched.ideal_rate.hex() == reference.ideal_rate.hex()
    assert batched.esp.hex() == reference.esp.hex()
    assert (
        batched.no_fault_probability.hex()
        == reference.no_fault_probability.hex()
    )


@pytest.mark.parametrize("device_name", DEVICE_NAMES)
def test_success_estimate_bitwise_equal(device_name):
    device = DEVICES[device_name]
    compiled = _compiled_random(device, 5)
    wiring = measurement_wiring(compiled)
    correct = "0" * (max(cbit for _, cbit in wiring) + 1)
    # Few samples on the wide devices: the reference simulates the
    # whole 2**14/2**16 register once per sample.
    samples = 120 if device.num_qubits <= 8 else 12
    _assert_estimates_bitwise_equal(compiled, device, correct, samples)


class TestCompactedRegister:
    """Edge cases of simulating only the qubits a program touches."""

    @staticmethod
    def _compiled_hs2(device_short):
        device = device_by_name(device_short)
        circuit, correct = benchmark_by_name("HS2").build()
        compiler = TriQCompiler(
            device, level=OptimizationLevel.OPT_1QCN, time_limit_s=None
        )
        return device, compiler.compile(circuit).circuit, correct

    @pytest.mark.parametrize("device_short", ["aspen1", "aspen3"])
    def test_two_touched_qubits_pad_to_gemm_width(self, device_short):
        # HS2 touches two qubits; an unpadded 2-qubit register hands
        # BLAS narrow matrices and drifts from the reference by ULPs.
        device, compiled, correct = self._compiled_hs2(device_short)
        simulated, index = compact_register(compiled)
        assert len(index) == 2
        assert simulated.num_qubits == 4
        _assert_estimates_bitwise_equal(compiled, device, correct, 16)

    def test_barrier_does_not_widen_the_register(self):
        device, compiled, correct = self._compiled_hs2("rueschlikon")
        instructions = list(compiled)
        middle = len(instructions) // 2
        instructions[middle:middle] = [
            Instruction("barrier", tuple(range(device.num_qubits))),
            Instruction("barrier", ()),
        ]
        with_barrier = Circuit(
            compiled.num_qubits, name=compiled.name,
            instructions=instructions,
        )
        simulated, index = compact_register(with_barrier)
        assert simulated.num_qubits == compact_register(compiled)[0].num_qubits
        assert len(simulated) == len(with_barrier)
        assert sorted(index) == sorted(
            {q for inst in compiled for q in inst.qubits}
        )
        _assert_estimates_bitwise_equal(with_barrier, device, correct, 12)

    def test_failed_self_check_disengages_compaction(self, monkeypatch):
        import repro.sim.batch as batch

        device, compiled, correct = self._compiled_hs2("melbourne")
        monkeypatch.setattr(batch, "_WIDE_KERNEL_VERIFIED", False)
        tracer = Tracer()
        with tracer_context(tracer):
            _assert_estimates_bitwise_equal(compiled, device, correct, 8)
        (sim_span,) = [
            s for s in tracer.walk() if s.name == "simulate.success"
        ]
        assert sim_span.attrs["state_qubits"] == device.num_qubits


def test_reference_paths_importable():
    """The legacy implementations stay importable under ``_reference_*``
    so the differential suite (and ``repro bench``) can always reach
    them."""
    from repro.compiler.reliability import (
        _reference_compute_reliability,
        _reference_end_to_end_matrix,
        _reference_floyd_warshall,
    )
    from repro.sim.success import _reference_monte_carlo_success_rate
    from repro.sim.trajectories import _reference_sample_counts

    for fn in (
        _reference_compute_reliability,
        _reference_end_to_end_matrix,
        _reference_floyd_warshall,
        _reference_monte_carlo_success_rate,
        _reference_sample_counts,
    ):
        assert callable(fn)
