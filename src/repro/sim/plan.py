"""One simulation setup per (program, device, day).

Every noisy estimator and the noisy evaluations in :mod:`repro.apps`
start from the same facts about a hardware circuit on a device: its
measurement wiring, its calibrated :class:`NoiseModel`, the register
the engine simulates, and each measured qubit's readout error there.
:func:`plan_simulation` derives and validates them once.

The plan and :func:`ideal_distribution` share the one compaction
decision (:func:`engine_register`).  Noise, fault positions and the RNG
stream stay on the device register; only the engine sees the compacted
one, through :attr:`SimulationPlan.index`.  A statevector register
compacts only when this BLAS passed the width-invariance self-check, so
its floats stay bit-identical to the full register's; a density plan
always compacts, since a 4**n matrix of the device register would not
fit.  The ``_reference_*`` estimators skip the plan on purpose: they
are the oracle it is tested against.

The plan also turns engine states into the success estimators' figure
of merit: :meth:`SimulationPlan.correct_probability` for one outcome
distribution, and :meth:`SimulationPlan.correct_probabilities` for a
whole batch of states at once, float for float the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.devices.calibration import Calibration
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.sim.batch import (
    _wide_kernel_bit_identical,
    compact_register,
    simulate_statevector_batch,
)
from repro.sim.noise import NoiseModel
from repro.sim.statevector import (
    _PROB_EPS,
    distribution_from_state,
    measurement_wiring,
)

#: Row-by-key entries :meth:`SimulationPlan.correct_probabilities`
#: holds per array at once (8 MB of float64).
_SCORE_ENTRIES = 1 << 20


def readout_corrected_probability(
    distribution: Mapping[str, float],
    correct: str,
    wiring: Sequence[Tuple[int, int]],
    readout_error: Mapping[int, float],
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


@dataclass(frozen=True)
class SimulationPlan:
    """``circuit`` (device register) and its calibrated ``model``;
    ``simulated``, the circuit the engine runs (same instruction
    positions); ``index``, device qubit -> simulated qubit; and the
    measurement ``wiring`` and per-qubit ``readout`` error through it."""

    circuit: Circuit
    calibration: Calibration
    model: NoiseModel
    num_cbits: int
    simulated: Circuit
    index: Dict[int, int]
    wiring: Tuple[Tuple[int, int], ...]
    readout: Dict[int, float]

    def check_answer(self, correct: str) -> None:
        """Raise ValueError unless ``correct`` has one bit per cbit."""
        if len(correct) != self.num_cbits:
            raise ValueError(
                f"correct answer {correct!r} has {len(correct)} bits but the "
                f"circuit measures into {self.num_cbits} classical bits"
            )

    def ideal_distribution(self) -> Dict[str, float]:
        """The noise-free distribution over the classical bits."""
        return _noiseless_distribution(self.simulated, self.wiring)

    def readout_survival(self) -> float:
        """Probability that no measured bit suffers a readout flip."""
        survival = 1.0
        for qubit, _ in self.wiring:
            survival *= 1.0 - self.readout[qubit]
        return survival

    def correct_probability(
        self, distribution: Mapping[str, float], correct: str
    ) -> float:
        """P(measured == correct) of an engine-side ``distribution``."""
        return readout_corrected_probability(
            distribution, correct, self.wiring, self.readout
        )

    def correct_probabilities(
        self, states: np.ndarray, correct: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per row of a ``(batch, 2**n)`` engine-register ``states``:
        P(classical bits == ``correct``) without and with readout error.

        Row ``i`` equals, float for float, ``distribution.get(correct,
        0.0)`` and :meth:`correct_probability` of ``distribution =
        distribution_from_state(states[i], wiring, n)``, by doing that
        path's float operations in its order: ``np.add.at`` sums each
        key's probabilities above the cutoff in basis-index order, the
        readout factors multiply in one wiring bit at a time, and
        ``np.add.accumulate`` adds each row's keys in the order that
        row first saw them (absent keys add an exact 0.0 at the end).
        """
        n = self.simulated.num_qubits
        index = np.arange(2**n)
        # Each basis index's classical-bit string as an integer (cbit 0
        # most significant; a later measurement of a cbit wins).
        bit_of = {
            cbit: (index >> (n - 1 - qubit)) & 1 for qubit, cbit in self.wiring
        }
        code = np.zeros(index.size, dtype=np.int64)
        for cbit, bits in bit_of.items():
            code |= bits << (self.num_cbits - 1 - cbit)
        keys, key_of = np.unique(code, return_inverse=True)
        factors = []
        for qubit, cbit in self.wiring:
            flip = self.readout[qubit]
            key_bit = (keys >> (self.num_cbits - 1 - cbit)) & 1
            want = {"0": 0, "1": 1}.get(correct[cbit], -1)
            factors.append(np.where(key_bit == want, 1.0 - flip, flip))
        correct_code = int(correct, 2) if set(correct) <= {"0", "1"} else -1
        hit = np.flatnonzero(keys == correct_code)
        ideal = np.zeros(states.shape[0])
        corrected = np.zeros(states.shape[0])
        step = max(1, _SCORE_ENTRIES // keys.size)
        for lo in range(0, states.shape[0], step):
            probs = np.abs(states[lo : lo + step]) ** 2
            rows, cols = np.nonzero(probs > _PROB_EPS)
            cells = (rows, key_of[cols])
            marginal = np.zeros((probs.shape[0], keys.size))
            np.add.at(marginal, cells, probs[rows, cols])
            first = np.full(marginal.shape, index.size)
            np.minimum.at(first, cells, cols)
            if hit.size:
                ideal[lo : lo + step] = marginal[:, hit[0]]
            for factor in factors:
                marginal *= factor
            order = np.argsort(first, axis=1, kind="stable")
            ordered = np.take_along_axis(marginal, order, axis=1)
            corrected[lo : lo + step] = np.add.accumulate(ordered, axis=1)[
                :, -1
            ]
        return ideal, corrected


def engine_register(
    circuit: Circuit, *, density: bool = False
) -> Tuple[Circuit, Dict[int, int]]:
    """The circuit the engine runs and device -> engine qubit index:
    :func:`compact_register`'s, or the full register when that is no
    smaller or (statevector) the wide kernel failed its self-check."""
    compact = compact_register(circuit)
    if compact is None or not (density or _wide_kernel_bit_identical()):
        return circuit, {q: q for q in range(circuit.num_qubits)}
    return compact


def _noiseless_distribution(
    simulated: Circuit, wiring: Sequence[Tuple[int, int]]
) -> Dict[str, float]:
    # A batch of one is the scalar engine's own BLAS call per gate,
    # without its per-gate axis bookkeeping.
    state = simulate_statevector_batch(simulated, [None])[0]
    return distribution_from_state(state, wiring, simulated.num_qubits)


def ideal_distribution(circuit: Circuit) -> Dict[str, float]:
    """Noise-free output distribution over the measured classical bits."""
    simulated, _ = engine_register(circuit)
    return _noiseless_distribution(simulated, measurement_wiring(simulated))


def plan_simulation(
    circuit: Circuit,
    device: Device,
    day: Optional[int] = None,
    *,
    density: bool = False,
) -> SimulationPlan:
    """The plan of ``circuit`` on ``device``; ``density=True`` plans for
    the density-matrix engine.  Raises ValueError when the circuit
    measures nothing or spans more qubits than the device has."""
    wiring = measurement_wiring(circuit)
    if not wiring:
        raise ValueError(f"circuit {circuit.name!r} has no measurements")
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"circuit {circuit.name!r} spans {circuit.num_qubits} qubits "
            f"but device {device.name!r} has only {device.num_qubits}"
        )
    model = NoiseModel.from_device(device, circuit, day)
    simulated, index = engine_register(circuit, density=density)
    return SimulationPlan(
        circuit=circuit,
        calibration=device.calibration(day),
        model=model,
        num_cbits=max(cbit for _, cbit in wiring) + 1,
        simulated=simulated,
        index=index,
        wiring=tuple((index[q], cbit) for q, cbit in wiring),
        readout={
            index[q]: model.readout_error.get(q, 0.0) for q, _ in wiring
        },
    )
