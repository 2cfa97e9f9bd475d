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
  returns the reference's exact float;
* noise-free distributions — ``ideal_distribution`` (batched engine,
  compacted register) is **dict-equal** to the scalar engine run on the
  full device register;
* batched readout scoring — ``SimulationPlan.correct_probabilities``
  returns the per-row dict path's exact floats.

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
from repro.devices import Topology, all_devices, device_by_name
from repro.experiments.runner import DEFAULT_FAULT_SAMPLES, fits
from repro.ir import Circuit
from repro.ir.instruction import Instruction
from repro.obs import Tracer, tracer_context
from repro.programs import benchmark_by_name, standard_suite
from repro.sim import ideal_distribution
from repro.sim.batch import compact_register
from repro.sim.plan import plan_simulation
from repro.sim.statevector import (
    distribution_from_state,
    measurement_wiring,
    simulate_statevector,
)
from repro.sim.success import (
    _reference_monte_carlo_success_rate,
    monte_carlo_success_rate,
)
from repro.sim.trajectories import _reference_sample_counts, sample_counts
from tests.helpers import make_device

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


def _compiled_benchmark(device, name):
    """A suite benchmark compiled onto ``device``, and its answer."""
    circuit, correct = benchmark_by_name(name).build()
    compiler = TriQCompiler(
        device, level=OptimizationLevel.OPT_1QCN, time_limit_s=None
    )
    return compiler.compile(circuit).circuit, correct


@pytest.mark.parametrize(
    "workload,device_name",
    [(seed, name) for seed in (11, 29) for name in DEVICE_NAMES]
    # HS2 touches two qubits, which the compacted register pads to four.
    + [("HS2", "Rigetti Aspen1"), ("HS2", "Rigetti Aspen3")],
)
def test_trajectory_counts_exactly_equal(workload, device_name):
    """The compacted, batched sampler against the full-register scalar
    reference: its ``probabilities.sum()`` runs over a different number
    of entries, so only equal Counters prove the outcomes unchanged."""
    device = DEVICES[device_name]
    if workload == "HS2":
        compiled, _ = _compiled_benchmark(device, workload)
    else:
        compiled = _compiled_random(device, workload)
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
    assert batched.fault_samples == reference.fault_samples


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
        return (device,) + _compiled_benchmark(device, "HS2")

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


#: Every fitting benchmark x level on the narrow study devices, plus one
#: cell on each 14- and 16-qubit device (the full-register reference is
#: the slow side there).
IDENTITY_CELLS = [
    (device_short, bench.name, level)
    for device_short in ("tenerife", "agave", "umd")
    for bench in standard_suite()
    if fits(bench.build()[0], device_by_name(device_short))
    for level in OptimizationLevel
] + [
    ("melbourne", "Toffoli", OptimizationLevel.OPT_1QCN),
    ("rueschlikon", "BV6", OptimizationLevel.OPT_1QCN),
    ("aspen1", "HS6", OptimizationLevel.OPT_1QCN),
    ("aspen3", "QFT", OptimizationLevel.OPT_1QCN),
]


@pytest.mark.parametrize("device_short,bench_name,level", IDENTITY_CELLS)
def test_ideal_distribution_matches_full_register_scalar(
    device_short, bench_name, level
):
    circuit, _ = benchmark_by_name(bench_name).build()
    compiled = TriQCompiler(
        device_by_name(device_short), level=level, time_limit_s=None
    ).compile(circuit).circuit
    reference = distribution_from_state(
        simulate_statevector(compiled),
        measurement_wiring(compiled),
        compiled.num_qubits,
    )
    assert ideal_distribution(compiled) == reference


#: The first ``sweep_days`` calibration day of each narrow device.
SWEEP_DAY = {"tenerife": 7, "agave": 15, "umd": 23}


@pytest.mark.parametrize(
    "device_short,bench_name,level",
    [cell for cell in IDENTITY_CELLS if cell[0] in SWEEP_DAY],
)
def test_sweep_cell_estimates_bitwise_equal(device_short, bench_name, level):
    """Every fitting benchmark x level on the narrow devices, as a
    calibration-day sweep estimates it: all five fields bit for bit."""
    day = SWEEP_DAY[device_short]
    device = device_by_name(device_short, day=day)
    circuit, correct = benchmark_by_name(bench_name).build()
    compiled = TriQCompiler(device, level=level, time_limit_s=None).compile(
        circuit
    ).circuit
    batched = monte_carlo_success_rate(
        compiled, device, correct, day=day,
        fault_samples=DEFAULT_FAULT_SAMPLES, seed=day,
    )
    reference = _reference_monte_carlo_success_rate(
        compiled, device, correct, day=day,
        fault_samples=DEFAULT_FAULT_SAMPLES, seed=day,
    )
    for field in ("success_rate", "ideal_rate", "no_fault_probability",
                  "esp"):
        assert getattr(batched, field).hex() == getattr(reference, field).hex()
    assert batched.fault_samples == reference.fault_samples


def _scoring_plans():
    """Plans over 5 device qubits with distinct readout errors: a cbit
    order unlike the qubit order, a cbit two measurements write, a cbit
    none writes, and a compacted register."""
    device = make_device(
        Topology.line(5),
        readout_errors={0: 0.011, 1: 0.073, 2: 0.029, 3: 0.152, 4: 0.004},
    )
    permuted = Circuit(5).h(0).cx(0, 1).h(2).cx(2, 3).h(4)
    for qubit, cbit in zip(range(5), (3, 0, 4, 1, 2)):
        permuted.measure(qubit, cbit)
    shared = Circuit(5).h(1).cx(1, 2).h(3)
    shared.measure(1, 0).measure(2, 2).measure(3, 0)
    compacted = Circuit(5).h(3).cx(3, 4)
    compacted.measure(4, 0).measure(3, 1)
    return [
        plan_simulation(circuit, device)
        for circuit in (permuted, shared, compacted)
    ]


@pytest.mark.parametrize("plan_index", [0, 1, 2])
def test_correct_probabilities_match_dict_path(plan_index):
    plan = _scoring_plans()[plan_index]
    n = plan.simulated.num_qubits
    rng = np.random.default_rng(plan_index)
    states = rng.standard_normal((24, 2**n)) + 1j * rng.standard_normal(
        (24, 2**n)
    )
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    # Probabilities at and around the 1e-12 cutoff, exact zeros, and a
    # basis state: dropping index 0 (or more) changes the key order the
    # dict sees first.
    states[::3, 0] = 1e-7
    states[1::3, :3] = 0.0
    states[2::6, 1] = 1e-6 + 0j
    states[5] = 0.0
    states[5, -1] = 1.0
    wiring = measurement_wiring(plan.simulated)
    dicts = [distribution_from_state(row, wiring, n) for row in states]
    first_keys = {next(iter(d)) for d in dicts}
    assert len(first_keys) > 1
    for code in range(2**plan.num_cbits):
        correct = format(code, f"0{plan.num_cbits}b")
        ideal, corrected = plan.correct_probabilities(states, correct)
        for i, distribution in enumerate(dicts):
            assert ideal[i].hex() == distribution.get(correct, 0.0).hex()
            assert corrected[i].hex() == plan.correct_probability(
                distribution, correct
            ).hex()


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
