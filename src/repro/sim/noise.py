"""Calibration-driven noise: Pauli fault injection and readout confusion.

Each physical gate is modelled as its ideal unitary followed, with the
calibrated error probability, by a uniformly random non-identity Pauli
on the gate's qubits (depolarizing noise).  Virtual-Z rotations carry no
error.  Readout errors flip each measured bit independently with the
qubit's calibrated readout error rate; they are folded in analytically
by :mod:`repro.sim.success` rather than sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.calibration import Calibration
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.ir.gates import VIRTUAL_Z_GATES, gate_spec
from repro.ir.instruction import Instruction

_PAULIS_1Q = ("x", "y", "z")
#: The 15 non-identity two-qubit Pauli combinations, as (name_a, name_b)
#: with None meaning identity on that qubit.
_PAULIS_2Q = [
    (a, b)
    for a, b in itertools.product((None, "x", "y", "z"), repeat=2)
    if not (a is None and b is None)
]


#: One sampled fault configuration: ``(location, choice)`` pairs in
#: ascending location order, where ``location`` indexes
#: :attr:`NoiseModel.locations` and ``choice`` the location's candidate
#: Paulis (``_PAULIS_1Q`` or ``_PAULIS_2Q`` order).
FaultConfig = Tuple[Tuple[int, int], ...]

Injection = Tuple[int, Instruction]


@lru_cache(maxsize=4096)
def _candidate_paulis(
    qubits: Tuple[int, ...]
) -> Tuple[Tuple[Instruction, ...], ...]:
    """Every Pauli fault a gate on ``qubits`` can suffer, by choice index.

    Keyed on the gate's qubits alone, so the cache is bounded by the
    device couplings a process compiles for.
    """
    if len(qubits) == 1:
        return tuple((Instruction(name, qubits),) for name in _PAULIS_1Q)
    return tuple(
        tuple(
            Instruction(name, (qubit,))
            for name, qubit in zip(pair, qubits)
            if name is not None
        )
        for pair in _PAULIS_2Q
    )


@dataclass(frozen=True)
class PauliFault:
    """A sampled error: Pauli instructions injected after a gate."""

    position: int
    paulis: Tuple[Instruction, ...]


@dataclass(frozen=True)
class _NoisyLocation:
    position: int
    qubits: Tuple[int, ...]
    error_probability: float


def fault_config_key(faults: Sequence["PauliFault"]) -> tuple:
    """Hashable identity of one sampled fault configuration.

    Two configurations with equal keys inject the identical Pauli
    instructions at the identical positions, so the (deterministic)
    simulator produces bit-identical states for them — the batched
    Monte-Carlo paths use this to simulate each distinct configuration
    only once.
    """
    return tuple(
        (fault.position, tuple(str(p) for p in fault.paulis))
        for fault in faults
    )


def instruction_error_probability(
    inst: Instruction, calibration: Calibration
) -> float:
    """Error probability of one hardware instruction.

    * virtual-Z gates and pseudo-ops: 0,
    * one-pulse 1Q gates (``u2``, ``rx``, ``ry``, ``rxy``, ``h``, ``x``,
      ``y``): the qubit's 1Q error rate,
    * two-pulse 1Q gates (``u3``): two shots at the 1Q error rate,
    * 2Q gates: the edge's calibrated error rate,
    * ``swap``: three 2Q gates' worth.
    """
    name = inst.name
    if not inst.is_unitary or name in VIRTUAL_Z_GATES:
        return 0.0
    spec = gate_spec(name)
    if spec.num_qubits == 1:
        rate = calibration.qubit_error(inst.qubits[0])
        if name == "u3":
            return 1.0 - (1.0 - rate) ** 2
        return rate
    if name == "swap":
        edge = calibration.edge_error(*inst.qubits)
        return 1.0 - (1.0 - edge) ** 3
    if spec.num_qubits == 2:
        return calibration.edge_error(*inst.qubits)
    # 3Q composite gates should be decomposed before simulation; treat
    # them conservatively as three 2Q gates on the first two qubits.
    edge = calibration.average_two_qubit_error()
    return 1.0 - (1.0 - edge) ** 3


class NoiseModel:
    """Fault locations and rates for one circuit on one device."""

    def __init__(
        self,
        locations: Sequence[_NoisyLocation],
        readout_error: Dict[int, float],
    ) -> None:
        self.locations = list(locations)
        self.readout_error = dict(readout_error)
        self._probabilities = np.array(
            [loc.error_probability for loc in self.locations], dtype=float
        )
        self._candidates = [
            _candidate_paulis(loc.qubits) for loc in self.locations
        ]
        self._num_choices = [len(c) for c in self._candidates]

    @classmethod
    def from_device(
        cls,
        device: Device,
        circuit: Circuit,
        day: Optional[int] = None,
    ) -> "NoiseModel":
        """Attach calibrated error rates to a hardware circuit's gates."""
        calibration = device.calibration(day)
        locations = []
        for idx, inst in enumerate(circuit):
            prob = instruction_error_probability(inst, calibration)
            if prob > 0.0:
                locations.append(_NoisyLocation(idx, inst.qubits, prob))
        readout = {
            q: calibration.readout_error[q] for q in range(device.num_qubits)
        }
        return cls(locations, readout)

    # ------------------------------------------------------------------
    def no_fault_probability(self) -> float:
        """Probability that an entire run executes without any gate fault."""
        prob = 1.0
        for loc in self.locations:
            prob *= 1.0 - loc.error_probability
        return prob

    def total_locations(self) -> int:
        return len(self.locations)

    def sample_configuration(self, rng: np.random.Generator) -> FaultConfig:
        """One run's fault configuration (possibly empty).

        Consumes the RNG stream exactly as :meth:`sample_faults`: one
        ``rng.random(n)`` row over all locations, then one
        ``rng.integers(k)`` per hit in ascending location order.
        ``draw < p`` is the legacy loop's ``not draw >= p``, so both
        return the same faults.
        """
        return self._choose(self._hits(rng), rng)

    def sample_faulty(
        self, rng: np.random.Generator, max_attempts: int = 10_000
    ) -> Tuple[FaultConfig, int]:
        """A configuration conditioned on having >= 1 fault, and the
        number of ``rng.random(n)`` rows drawn to find it.

        The stream-for-stream twin of
        :meth:`sample_faulty_configuration`, fallback included.
        """
        for attempt in range(1, max_attempts + 1):
            hits = self._hits(rng)
            if hits:
                return self._choose(hits, rng), attempt
        # np.argmax, like max(), picks the first most likely location.
        worst = int(np.argmax(self._probabilities))
        return self._choose([worst], rng), max_attempts

    def _hits(self, rng: np.random.Generator) -> List[int]:
        """The faulting locations of one ``rng.random(n)`` row."""
        draws = rng.random(self._probabilities.size)
        return (draws < self._probabilities).nonzero()[0].tolist()

    def _choose(
        self, hits: List[int], rng: np.random.Generator
    ) -> FaultConfig:
        """One ``rng.integers(k)`` Pauli choice per hit, in order."""
        return tuple(
            (loc, int(rng.integers(self._num_choices[loc]))) for loc in hits
        )

    # -- The legacy per-location sampler, kept for the ``_reference_*``
    # estimators of the differential suite.
    def sample_faults(self, rng: np.random.Generator) -> List[PauliFault]:
        """One run's fault configuration (possibly empty)."""
        faults: List[PauliFault] = []
        draws = rng.random(len(self.locations))
        for loc, draw in zip(self.locations, draws):
            if draw >= loc.error_probability:
                continue
            faults.append(self._random_fault(loc, rng))
        return faults

    def sample_faulty_configuration(
        self, rng: np.random.Generator, max_attempts: int = 10_000
    ) -> List[PauliFault]:
        """A fault configuration conditioned on having >= 1 fault.

        Rejection sampling; used to estimate the error-run contribution
        to success rate without wasting samples on clean runs.
        """
        for _ in range(max_attempts):
            faults = self.sample_faults(rng)
            if faults:
                return faults
        # Extremely clean circuit: force the single most likely fault.
        worst = max(self.locations, key=lambda loc: loc.error_probability)
        return [self._random_fault(worst, rng)]

    def _random_fault(
        self, loc: _NoisyLocation, rng: np.random.Generator
    ) -> PauliFault:
        if len(loc.qubits) == 1:
            name = _PAULIS_1Q[rng.integers(len(_PAULIS_1Q))]
            return PauliFault(
                loc.position, (Instruction(name, loc.qubits),)
            )
        pair = _PAULIS_2Q[rng.integers(len(_PAULIS_2Q))]
        paulis = tuple(
            Instruction(name, (qubit,))
            for name, qubit in zip(pair, loc.qubits)
            if name is not None
        )
        return PauliFault(loc.position, paulis)

    def faults_as_injections(
        self, faults: Sequence[PauliFault]
    ) -> List[Tuple[int, Instruction]]:
        """Flatten faults into (position, instruction) pairs for the
        simulator."""
        injections = []
        for fault in faults:
            for pauli in fault.paulis:
                injections.append((fault.position, pauli))
        return injections


class DistinctConfigs:
    """The distinct fault configurations one estimator call samples.

    :meth:`add` numbers configurations in first-seen order;
    ``injections[i]`` holds configuration ``i``'s ``(position,
    instruction)`` pairs, with every qubit mapped through
    ``qubit_index`` (identity when None).  The candidate Paulis come
    from the per-qubits cache, so no fault is ever remapped one
    instruction at a time.
    """

    def __init__(
        self, model: NoiseModel, qubit_index: Optional[Dict[int, int]] = None
    ) -> None:
        self._positions = [loc.position for loc in model.locations]
        self._candidates = (
            model._candidates
            if qubit_index is None
            else [
                _candidate_paulis(tuple(qubit_index[q] for q in loc.qubits))
                for loc in model.locations
            ]
        )
        self._ids: Dict[FaultConfig, int] = {}
        self.injections: List[List[Injection]] = []

    def __len__(self) -> int:
        return len(self.injections)

    def add(self, config: FaultConfig) -> int:
        """The index of ``config``, registering it when first seen."""
        index = self._ids.get(config)
        if index is None:
            index = self._ids[config] = len(self.injections)
            self.injections.append([
                (self._positions[location], pauli)
                for location, choice in config
                for pauli in self._candidates[location][choice]
            ])
        return index
