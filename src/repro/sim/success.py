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
from typing import Optional

import numpy as np

from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.obs.tracer import span as obs_span
from repro.sim.batch import (
    DEFAULT_MAX_CONFIGS_IN_FLIGHT,
    chunked,
    simulate_statevector_batch,
)
from repro.sim.noise import DistinctConfigs, NoiseModel
from repro.sim.plan import plan_simulation, readout_corrected_probability
from repro.sim.statevector import (
    distribution_from_state,
    measurement_wiring,
    simulate_statevector,
)


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


def estimated_success_probability(
    circuit: Circuit,
    device: Device,
    correct: str,
    day: Optional[int] = None,
    include_coherence: bool = False,
) -> float:
    """Analytic ESP: clean-run probability x readout survival x ideal."""
    plan = plan_simulation(circuit, device, day)
    plan.check_answer(correct)
    ideal = plan.ideal_distribution().get(correct, 0.0)
    esp = plan.model.no_fault_probability() * plan.readout_survival() * ideal
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
    are drawn first with :meth:`NoiseModel.sample_faulty` (consuming
    the RNG stream exactly as the legacy per-sample loop did), distinct
    ``(location, choice)`` configurations are simulated once
    through :func:`repro.sim.batch.simulate_statevector_batch` in
    bounded chunks, and the accumulator then adds each sample's
    correct-probability in the original sample order — so the returned
    floats are bit-identical to the legacy estimator's (kept as
    :func:`_reference_monte_carlo_success_rate`): repeated
    configurations yield identical per-sample floats because the
    simulator is deterministic, and float addition happens in the same
    order either way.
    """
    plan = plan_simulation(circuit, device, day)
    plan.check_answer(correct)
    model = plan.model
    rng = np.random.default_rng(seed)
    simulated = plan.simulated
    n = simulated.num_qubits

    ideal_distribution = plan.ideal_distribution()
    ideal_rate = ideal_distribution.get(correct, 0.0)
    clean_correct = plan.correct_probability(ideal_distribution, correct)

    p_clean = model.no_fault_probability()
    # estimated_success_probability's product, from the same floats.
    esp = p_clean * plan.readout_survival() * ideal_rate

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
            configs = DistinctConfigs(model, plan.index)
            attempts = 0
            for s in range(fault_samples):
                config, tries = model.sample_faulty(rng)
                attempts += tries
                sample_config[s] = configs.add(config)
            config_correct = np.empty(len(configs), dtype=float)
            config_order = list(range(len(configs)))
            for chunk in chunked(config_order, DEFAULT_MAX_CONFIGS_IN_FLIGHT):
                states = simulate_statevector_batch(
                    simulated, [configs.injections[c] for c in chunk]
                )
                for row, config in enumerate(chunk):
                    distribution = distribution_from_state(
                        states[row], plan.wiring, n
                    )
                    config_correct[config] = plan.correct_probability(
                        distribution, correct
                    )
            acc = 0.0
            for s in range(fault_samples):
                acc += float(config_correct[sample_config[s]])
            if sp:
                sp.set(
                    distinct_fault_configs=len(configs),
                    sample_attempts=attempts,
                )
        samples_used = fault_samples
        faulty_mean = acc / fault_samples

    success = p_clean * clean_correct + faulty_weight * faulty_mean
    if include_coherence:
        # Decohered runs give an information-free uniform outcome.
        survival = coherence_survival(circuit, device)
        uniform = 1.0 / 2 ** len(plan.wiring)
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
    wiring = measurement_wiring(circuit)
    model = NoiseModel.from_device(device, circuit, day)
    rng = np.random.default_rng(seed)

    ideal_state = simulate_statevector(circuit)
    ideal_distribution = distribution_from_state(
        ideal_state, wiring, circuit.num_qubits
    )
    ideal_rate = ideal_distribution.get(correct, 0.0)
    clean_correct = readout_corrected_probability(
        ideal_distribution, correct, wiring, model.readout_error
    )

    p_clean = model.no_fault_probability()
    survival = 1.0
    for qubit, _ in wiring:
        survival *= 1.0 - model.readout_error.get(qubit, 0.0)
    esp = p_clean * survival * ideal_rate

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
            acc += readout_corrected_probability(
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
