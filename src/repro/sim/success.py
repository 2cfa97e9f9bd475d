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

Each Monte-Carlo estimate is one fused batch: the block sampler draws
every faulty configuration at once, the clean run is row 0 of the same
batched simulation as the distinct configurations, and one batched
readout scoring turns every row into its correct-answer probabilities.
All of it is bit-identical to the legacy one-sample-at-a-time
estimator, kept as :func:`_reference_monte_carlo_success_rate`.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.obs.tracer import span as obs_span
from repro.sim.batch import (
    DEFAULT_MAX_CONFIGS_IN_FLIGHT,
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

    One fused batch per call: :meth:`NoiseModel.sample_faulty_block`
    draws all ``fault_samples`` configurations (consuming the RNG
    stream exactly as the legacy per-sample loop did); the clean run is
    row 0 and each distinct ``(location, choice)`` configuration one
    more row of :func:`repro.sim.batch.simulate_statevector_batch`, in
    bounded chunks; :meth:`SimulationPlan.correct_probabilities` scores
    every row at once; and the accumulator adds each sample's
    correct-probability in the original sample order.  So the returned
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
    n = plan.simulated.num_qubits

    p_clean = model.no_fault_probability()
    faulty_weight = 1.0 - p_clean
    # When runs are essentially always clean, skip the expensive term.
    sampled = (
        faulty_weight > 1e-6 and fault_samples > 0 and model.total_locations()
    )
    span = obs_span(
        "simulate.success",
        circuit=circuit.name,
        fault_samples=fault_samples,
        state_qubits=n,
        device_qubits=circuit.num_qubits,
    ) if sampled else nullcontext()
    with span as sp:
        configs = DistinctConfigs(model, plan.index)
        drawn, attempts = (
            model.sample_faulty_block(rng, fault_samples) if sampled
            else ([], 0)
        )
        sample_config = [configs.add(config) for config in drawn]
        # Row 0 is the clean run, row 1 + c distinct configuration c.
        batch = [None] + configs.injections
        ideal, row_correct = np.empty(len(batch)), np.empty(len(batch))
        for lo in range(0, len(batch), DEFAULT_MAX_CONFIGS_IN_FLIGHT):
            rows = slice(lo, lo + DEFAULT_MAX_CONFIGS_IN_FLIGHT)
            states = simulate_statevector_batch(plan.simulated, batch[rows])
            ideal[rows], row_correct[rows] = plan.correct_probabilities(
                states, correct
            )
        if sp:
            sp.set(
                distinct_fault_configs=len(configs),
                sample_attempts=attempts,
            )
    ideal_rate = float(ideal[0])
    clean_correct = float(row_correct[0])
    # estimated_success_probability's product, from the same floats.
    esp = p_clean * plan.readout_survival() * ideal_rate
    faulty_mean = 0.0
    samples_used = 0
    if sampled:
        # Sequential adds in sample order, as the legacy loop's acc +=.
        acc = float(np.add.accumulate(row_correct[1:][sample_config])[-1])
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
