"""Success-rate estimation (the paper's figure of merit).

Success rate is the fraction of repeated trials that return the correct
answer (paper section 2.3).  Two estimators:

* :func:`estimated_success_probability` — the analytic ESP model:
  probability that no gate faults, times readout survival, times the
  ideal correct-answer probability.  Fast, slightly pessimistic (it
  credits error runs with zero success).
* :func:`monte_carlo_success_rate` — Rao-Blackwellized Monte Carlo: the
  clean-run contribution is computed exactly, and the faulty-run
  contribution is averaged over sampled fault configurations, each
  simulated exactly.  This is far lower-variance than sampling
  bitstrings shot by shot, while exercising the same physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.obs.tracer import span as obs_span
from repro.sim.batch import (
    _wide_kernel_bit_identical,
    chunked,
    compact_register,
    simulate_statevector_batch,
)
from repro.sim.noise import NoiseModel, fault_config_key
from repro.sim.statevector import (
    distribution_from_state,
    measurement_wiring,
    simulate_statevector,
)

#: Upper bound on distinct fault configurations simulated at once by
#: the batched Monte-Carlo estimator (mirrors
#: :data:`repro.sim.trajectories.DEFAULT_MAX_CONFIGS_IN_FLIGHT`).
_MAX_CONFIGS_IN_FLIGHT = 256


@dataclass(frozen=True)
class SuccessEstimate:
    """A success-rate measurement and its provenance."""

    success_rate: float
    ideal_rate: float
    no_fault_probability: float
    esp: float
    fault_samples: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_rate <= 1.0 + 1e-9:
            raise ValueError(f"success rate {self.success_rate} out of range")


def _readout_corrected_correct_probability(
    distribution: Dict[str, float],
    correct: str,
    wiring: Sequence[Tuple[int, int]],
    readout_error: Dict[int, float],
) -> float:
    """P(measured == correct) after independent per-bit readout flips."""
    total = 0.0
    for bits, prob in distribution.items():
        factor = prob
        for qubit, cbit in wiring:
            flip = readout_error.get(qubit, 0.0)
            factor *= (1.0 - flip) if bits[cbit] == correct[cbit] else flip
        total += factor
    return total


def _check_correct(circuit: Circuit, correct: str) -> Sequence[Tuple[int, int]]:
    wiring = measurement_wiring(circuit)
    if not wiring:
        raise ValueError(f"circuit {circuit.name!r} has no measurements")
    num_cbits = max(cbit for _, cbit in wiring) + 1
    if len(correct) != num_cbits:
        raise ValueError(
            f"correct answer {correct!r} has {len(correct)} bits but the "
            f"circuit measures into {num_cbits} classical bits"
        )
    return wiring


def coherence_survival(circuit: Circuit, device: Device) -> float:
    """Fraction of state coherence surviving the circuit's duration.

    The paper notes gate errors dominate coherence limits on current
    machines (section 4.2) but that coherence "will play a role" as
    programs grow (section 3.3).  This optional factor models it as
    ``exp(-depth * gate_time / coherence_time)`` — a loose DRAM-refresh
    style bound.  For the study machines it is near 1 for the benchmark
    suite (IBMQ14 BV8 ~0.7, UMDTI anything ~1.0), which is why the
    estimators default to excluding it.
    """
    duration_us = circuit.depth() * device.gate_time_us
    return math.exp(-duration_us / device.coherence_time_us)


def _simulated_register(
    circuit: Circuit,
    wiring: Sequence[Tuple[int, int]],
    readout_error: Dict[int, float],
) -> Tuple[Circuit, Dict[int, int], List[Tuple[int, int]], Dict[int, float]]:
    """Where the statevector engine runs ``circuit``.

    Returns the circuit to simulate, the device -> simulated qubit
    index, and the measurement wiring and readout table through that
    index.  The register is compacted to the touched qubits
    (:func:`repro.sim.batch.compact_register`) only when this BLAS
    passed the width-invariance self-check, so every float downstream
    stays bit-identical to the full-register simulation.
    """
    compact = compact_register(circuit)
    if compact is None or not _wide_kernel_bit_identical():
        compact = circuit, {q: q for q in range(circuit.num_qubits)}
    simulated, index = compact
    sim_wiring = [(index[q], cbit) for q, cbit in wiring]
    sim_readout = {index[q]: readout_error.get(q, 0.0) for q, _ in wiring}
    return simulated, index, sim_wiring, sim_readout


def _readout_survival(
    wiring: Sequence[Tuple[int, int]], readout_error: Dict[int, float]
) -> float:
    """Probability that no measured bit suffers a readout flip."""
    survival = 1.0
    for qubit, _ in wiring:
        survival *= 1.0 - readout_error.get(qubit, 0.0)
    return survival


def estimated_success_probability(
    circuit: Circuit,
    device: Device,
    correct: str,
    day: Optional[int] = None,
    include_coherence: bool = False,
) -> float:
    """Analytic ESP: clean-run probability x readout survival x ideal."""
    wiring = _check_correct(circuit, correct)
    model = NoiseModel.from_device(device, circuit, day)
    simulated, _, wiring, readout = _simulated_register(
        circuit, wiring, model.readout_error
    )
    distribution = distribution_from_state(
        simulate_statevector(simulated), wiring, simulated.num_qubits
    )
    ideal = distribution.get(correct, 0.0)
    esp = (
        model.no_fault_probability()
        * _readout_survival(wiring, readout)
        * ideal
    )
    if include_coherence:
        esp *= coherence_survival(circuit, device)
    return esp


def monte_carlo_success_rate(
    circuit: Circuit,
    device: Device,
    correct: str,
    day: Optional[int] = None,
    fault_samples: int = 150,
    seed: int = 1234,
    include_coherence: bool = False,
) -> SuccessEstimate:
    """Monte-Carlo success rate with exact clean-run weighting.

    ``success = P(no fault) * P(correct | clean)
    + (1 - P(no fault)) * mean over sampled faulty runs of P(correct)``

    where every ``P(correct | ...)`` folds readout confusion in
    analytically.  The estimator is unbiased in the fault-sampling term
    and exact elsewhere.

    The faulty-run term batches: all ``fault_samples`` configurations
    are drawn first (consuming the RNG stream exactly as the legacy
    per-sample loop did), distinct configurations are simulated once
    through :func:`repro.sim.batch.simulate_statevector_batch` in
    bounded chunks, and the accumulator then adds each sample's
    correct-probability in the original sample order — so the returned
    floats are bit-identical to the legacy estimator's (kept as
    :func:`_reference_monte_carlo_success_rate`): repeated
    configurations yield identical per-sample floats because the
    simulator is deterministic, and float addition happens in the same
    order either way.
    """
    wiring = _check_correct(circuit, correct)
    model = NoiseModel.from_device(device, circuit, day)
    rng = np.random.default_rng(seed)
    # The noise model, RNG stream and fault positions stay on the
    # device register; only the statevector engine sees the compacted
    # one, reached through ``qubit_index``.
    simulated, qubit_index, sim_wiring, readout = _simulated_register(
        circuit, wiring, model.readout_error
    )
    n = simulated.num_qubits

    ideal_state = simulate_statevector(simulated)
    ideal_distribution = distribution_from_state(ideal_state, sim_wiring, n)
    ideal_rate = ideal_distribution.get(correct, 0.0)
    clean_correct = _readout_corrected_correct_probability(
        ideal_distribution, correct, sim_wiring, readout
    )

    p_clean = model.no_fault_probability()
    # estimated_success_probability's product, from the same floats.
    esp = p_clean * _readout_survival(sim_wiring, readout) * ideal_rate

    faulty_weight = 1.0 - p_clean
    faulty_mean = 0.0
    samples_used = 0
    # When runs are essentially always clean, skip the expensive term.
    if faulty_weight > 1e-6 and fault_samples > 0 and model.total_locations():
        with obs_span(
            "simulate.success",
            circuit=circuit.name,
            fault_samples=fault_samples,
            state_qubits=n,
            device_qubits=circuit.num_qubits,
        ) as sp:
            sample_config = np.empty(fault_samples, dtype=np.intp)
            config_index: Dict[tuple, int] = {}
            config_injections = []
            for s in range(fault_samples):
                faults = model.sample_faulty_configuration(rng)
                key = fault_config_key(faults)
                index = config_index.get(key)
                if index is None:
                    index = len(config_injections)
                    config_index[key] = index
                    config_injections.append([
                        (position, pauli.remap(qubit_index))
                        for position, pauli in model.faults_as_injections(
                            faults
                        )
                    ])
                sample_config[s] = index
            config_correct = np.empty(len(config_injections), dtype=float)
            config_order = list(range(len(config_injections)))
            for chunk in chunked(config_order, _MAX_CONFIGS_IN_FLIGHT):
                states = simulate_statevector_batch(
                    simulated, [config_injections[c] for c in chunk]
                )
                for row, config in enumerate(chunk):
                    distribution = distribution_from_state(
                        states[row], sim_wiring, n
                    )
                    config_correct[config] = (
                        _readout_corrected_correct_probability(
                            distribution, correct, sim_wiring, readout
                        )
                    )
            acc = 0.0
            for s in range(fault_samples):
                acc += float(config_correct[sample_config[s]])
            if sp:
                sp.set(distinct_fault_configs=len(config_injections))
        samples_used = fault_samples
        faulty_mean = acc / fault_samples

    success = p_clean * clean_correct + faulty_weight * faulty_mean
    if include_coherence:
        # Decohered runs give an information-free uniform outcome.
        survival = coherence_survival(circuit, device)
        uniform = 1.0 / 2 ** len(wiring)
        success = survival * success + (1.0 - survival) * uniform
    return SuccessEstimate(
        success_rate=min(success, 1.0),
        ideal_rate=ideal_rate,
        no_fault_probability=p_clean,
        esp=esp,
        fault_samples=samples_used,
    )


def _reference_monte_carlo_success_rate(
    circuit: Circuit,
    device: Device,
    correct: str,
    day: Optional[int] = None,
    fault_samples: int = 150,
    seed: int = 1234,
    include_coherence: bool = False,
) -> SuccessEstimate:
    """The legacy one-sample-at-a-time estimator, kept for the
    differential suite: :func:`monte_carlo_success_rate` must return
    bit-identical floats."""
    wiring = _check_correct(circuit, correct)
    model = NoiseModel.from_device(device, circuit, day)
    rng = np.random.default_rng(seed)

    ideal_state = simulate_statevector(circuit)
    ideal_distribution = distribution_from_state(
        ideal_state, wiring, circuit.num_qubits
    )
    ideal_rate = ideal_distribution.get(correct, 0.0)
    clean_correct = _readout_corrected_correct_probability(
        ideal_distribution, correct, wiring, model.readout_error
    )

    p_clean = model.no_fault_probability()
    esp = estimated_success_probability(circuit, device, correct, day)

    faulty_weight = 1.0 - p_clean
    faulty_mean = 0.0
    samples_used = 0
    if faulty_weight > 1e-6 and fault_samples > 0 and model.total_locations():
        acc = 0.0
        for _ in range(fault_samples):
            faults = model.sample_faulty_configuration(rng)
            injections = model.faults_as_injections(faults)
            state = simulate_statevector(circuit, faults=injections)
            distribution = distribution_from_state(
                state, wiring, circuit.num_qubits
            )
            acc += _readout_corrected_correct_probability(
                distribution, correct, wiring, model.readout_error
            )
        samples_used = fault_samples
        faulty_mean = acc / fault_samples

    success = p_clean * clean_correct + faulty_weight * faulty_mean
    if include_coherence:
        survival = coherence_survival(circuit, device)
        uniform = 1.0 / 2 ** len(wiring)
        success = survival * success + (1.0 - survival) * uniform
    return SuccessEstimate(
        success_rate=min(success, 1.0),
        ideal_rate=ideal_rate,
        no_fault_probability=p_clean,
        esp=esp,
        fault_samples=samples_used,
    )
