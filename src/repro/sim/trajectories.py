"""Shot-by-shot trajectory sampling: the closest emulation of hardware.

The paper's protocol runs each executable 8192 times (5000 on UMDTI)
and reports the fraction of correct outcomes.  The estimators in
:mod:`repro.sim.success` compute that expectation with variance
reduction; this module instead emulates the raw protocol — every trial
samples a fault configuration, simulates it, samples one measurement
outcome, and applies readout bit-flips — producing a histogram of
counts exactly like a vendor's job result.

Implementation: :func:`sample_counts` runs in three phases.  Phase one
replays the legacy per-trial RNG stream exactly (fault draws, one
outcome uniform, one readout uniform per measured bit), collecting the
*distinct* fault configurations.  Phase two simulates those
configurations through the batched engine
(:func:`repro.sim.batch.simulate_statevector_batch`) on the compacted
register of a :class:`repro.sim.plan.SimulationPlan`, in bounded chunks
so the *statevector* working set stays
O(``max_configs_in_flight`` x ``2**n``) however many distinct patterns
the trials draw (the pre-drawn per-trial uniforms and per-configuration
injection lists still scale with ``trials`` and the number of distinct
patterns — small next to the statevectors).  Phase three converts each
trial's pre-drawn uniforms into an outcome and classical bits.  The
batched engine is bit-identical to the scalar simulator and the
uniform-to-outcome inversion replays ``Generator.choice`` exactly; the
one float the compacted register can move is the last bit of the
normalizing ``probabilities.sum()``, a pairwise sum whose grouping
depends on the register width.  The differential suite proves the
returned ``Counter`` equal to the legacy full-register loop's (kept as
:func:`_reference_sample_counts`).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, List, Optional

import numpy as np

from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.obs.tracer import span as obs_span
from repro.sim.batch import (
    DEFAULT_MAX_CONFIGS_IN_FLIGHT,
    chunked,
    simulate_statevector_batch,
)
from repro.sim.noise import (
    DistinctConfigs,
    NoiseModel,
    fault_config_key as _fault_key,
)
from repro.sim.plan import plan_simulation
from repro.sim.statevector import (
    measurement_wiring,
    simulate_statevector,
)


def sample_counts(
    circuit: Circuit,
    device: Device,
    trials: int = 1024,
    day: Optional[int] = None,
    seed: int = 2024,
    max_configs_in_flight: int = DEFAULT_MAX_CONFIGS_IN_FLIGHT,
) -> Counter:
    """Counts over classical bitstrings from ``trials`` noisy runs.

    Distinct fault configurations are simulated once — batched through
    :mod:`repro.sim.batch` in chunks of at most
    ``max_configs_in_flight`` — and their outcome distributions sampled
    per trial, so the simulation cost scales with the number of
    *distinct* fault patterns drawn rather than with ``trials``.  The
    chunking bounds the dominant memory term, the statevector batch, at
    O(``max_configs_in_flight`` x ``2**n``); the bookkeeping around it
    — one row of uniforms per trial, one injection list per distinct
    configuration — still grows with ``trials`` and the distinct-pattern
    count.
    """
    plan = plan_simulation(circuit, device, day)
    if trials < 1:
        raise ValueError("need at least one trial")
    model = plan.model
    rng = np.random.default_rng(seed)
    wiring = plan.wiring
    n = plan.simulated.num_qubits
    num_bits = len(wiring)

    with obs_span(
        "simulate.trajectories",
        circuit=circuit.name,
        trials=trials,
        state_qubits=n,
        device_qubits=circuit.num_qubits,
    ) as sp:
        # Phase 1: replay the legacy RNG stream trial by trial.  Each
        # trial consumed: the fault draws, one uniform for the outcome
        # (Generator.choice with probabilities draws exactly one), and
        # one uniform per measured bit for readout flips.
        configs = DistinctConfigs(model, plan.index)
        trial_config = np.empty(trials, dtype=np.intp)
        trial_outcome_u = np.empty(trials, dtype=float)
        trial_flip_u = np.empty((trials, num_bits), dtype=float)
        for t in range(trials):
            trial_config[t] = configs.add(model.sample_configuration(rng))
            # One block draw: Generator.random(k) consumes the bit
            # stream exactly like k scalar Generator.random() calls.
            draws = rng.random(num_bits + 1)
            trial_outcome_u[t] = draws[0]
            trial_flip_u[t] = draws[1:]

        # Phase 2 + 3: simulate distinct configurations in bounded
        # batches; as each chunk's distributions land, resolve every
        # trial that drew one of its configurations.  Counter addition
        # is order-independent, so resolving trials config-major (not
        # trial-major) leaves the histogram unchanged.
        trials_by_config: List[List[int]] = [[] for _ in range(len(configs))]
        for t in range(trials):
            trials_by_config[trial_config[t]].append(t)

        shifts = np.array([n - 1 - qubit for qubit, _ in wiring])
        flip_rates = np.array([plan.readout[qubit] for qubit, _ in wiring])
        # Measured bits pack into an integer code (wiring order); each
        # code renders to its classical bitstring once.
        weights = 1 << np.arange(num_bits)
        code_strings: Dict[int, str] = {}
        counts: Counter = Counter()
        config_order = list(range(len(configs)))
        for chunk in chunked(config_order, max_configs_in_flight):
            states = simulate_statevector_batch(
                plan.simulated, [configs.injections[c] for c in chunk]
            )
            for row, config in enumerate(chunk):
                # The exact legacy float expressions, then the exact
                # Generator.choice inversion: cumulative sum,
                # renormalize, searchsorted(side="right") — applied to
                # every trial of this configuration at once (searchsorted
                # over an array is elementwise-identical to the scalar
                # calls, and Counter addition is order-independent).
                probabilities = np.abs(states[row]) ** 2
                probabilities = probabilities / probabilities.sum()
                cdf = probabilities.cumsum()
                cdf /= cdf[-1]
                ts = trials_by_config[config]
                outcomes = cdf.searchsorted(
                    trial_outcome_u[ts], side="right"
                )
                values = (outcomes[:, None] >> shifts[None, :]) & 1
                values ^= trial_flip_u[ts] < flip_rates
                codes, multiplicity = np.unique(
                    values @ weights, return_counts=True
                )
                for code, count in zip(codes, multiplicity):
                    key = code_strings.get(int(code))
                    if key is None:
                        bits = ["0"] * plan.num_cbits
                        for j, (_, cbit) in enumerate(wiring):
                            bits[cbit] = "1" if (code >> j) & 1 else "0"
                        key = "".join(bits)
                        code_strings[int(code)] = key
                    counts[key] += int(count)
        if sp:
            sp.set(
                distinct_fault_configs=len(configs),
                batch_chunks=-(-len(configs) // max_configs_in_flight),
                # One fault-draw row per trial: no trial is rejected.
                sample_attempts=trials,
            )
    return counts


def _reference_sample_counts(
    circuit: Circuit,
    device: Device,
    trials: int = 1024,
    day: Optional[int] = None,
    seed: int = 2024,
    max_cached_configs: int = DEFAULT_MAX_CONFIGS_IN_FLIGHT,
) -> Counter:
    """The legacy scalar trial loop, kept for the differential suite.

    One fault configuration is simulated at a time with the scalar
    engine.  The per-configuration distribution cache — formerly
    unbounded, growing with every distinct fault pattern — is bounded
    LRU-style at ``max_cached_configs`` entries: an evicted
    configuration that recurs is simply re-simulated, which reproduces
    the identical distribution (the simulator is deterministic), so
    eviction can never change the returned counts.
    """
    wiring = measurement_wiring(circuit)
    if not wiring:
        raise ValueError("circuit has no measurements")
    if trials < 1:
        raise ValueError("need at least one trial")
    if max_cached_configs < 1:
        raise ValueError("need at least one cached configuration")
    model = NoiseModel.from_device(device, circuit, day)
    rng = np.random.default_rng(seed)
    num_cbits = max(cbit for _, cbit in wiring) + 1
    n = circuit.num_qubits

    # LRU cache of distribution per fault configuration (hashable key).
    cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
    counts: Counter = Counter()
    for _ in range(trials):
        faults = model.sample_faults(rng)
        key = _fault_key(faults)
        probabilities = cache.get(key)
        if probabilities is None:
            state = simulate_statevector(
                circuit, faults=model.faults_as_injections(faults)
            )
            probabilities = np.abs(state) ** 2
            probabilities = probabilities / probabilities.sum()
            while len(cache) >= max_cached_configs:
                cache.popitem(last=False)
            cache[key] = probabilities
        else:
            cache.move_to_end(key)
        outcome = int(rng.choice(len(probabilities), p=probabilities))
        bits = ["0"] * num_cbits
        for qubit, cbit in wiring:
            value = (outcome >> (n - 1 - qubit)) & 1
            if rng.random() < model.readout_error.get(qubit, 0.0):
                value ^= 1
            bits[cbit] = str(value)
        counts["".join(bits)] += 1
    return counts


def success_rate_from_counts(counts: Counter, correct: str) -> float:
    """The paper's figure of merit, from raw counts."""
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty counts")
    return counts.get(correct, 0) / total
