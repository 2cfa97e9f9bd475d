"""One simulation setup per (program, device, day).

Every noisy estimator and the noisy evaluations in :mod:`repro.apps`
start from the same facts about a hardware circuit on a device: its
measurement wiring, its calibrated :class:`NoiseModel`, the register
the engine simulates, and each measured qubit's readout error there.
:func:`plan_simulation` derives and validates them once.

The plan also makes the one compaction decision
(:func:`repro.sim.batch.compact_register`).  Noise, fault positions and
the RNG stream stay on the device register; only the engine sees the
compacted one, through :attr:`SimulationPlan.index`.  A statevector plan
compacts only when this BLAS passed the width-invariance self-check, so
its floats stay bit-identical to the full register's; a density plan
always compacts, since a 4**n matrix of the device register would not
fit.  The ``_reference_*`` estimators skip the plan on purpose: they
are the oracle it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.devices.calibration import Calibration
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.sim.batch import (
    _wide_kernel_bit_identical,
    compact_register,
    simulate_statevector_batch,
)
from repro.sim.noise import NoiseModel
from repro.sim.statevector import distribution_from_state, measurement_wiring


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
        # A batch of one is the scalar engine's own BLAS call per gate,
        # without its per-gate axis bookkeeping.
        state = simulate_statevector_batch(self.simulated, [None])[0]
        return distribution_from_state(
            state, self.wiring, self.simulated.num_qubits
        )

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
    compact = compact_register(circuit)
    if compact is None or not (density or _wide_kernel_bit_identical()):
        compact = circuit, {q: q for q in range(circuit.num_qubits)}
    simulated, index = compact
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
