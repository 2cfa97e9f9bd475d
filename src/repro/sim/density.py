"""Exact density-matrix simulation with Kraus noise channels.

The Monte-Carlo estimator in :mod:`repro.sim.success` samples Pauli
fault configurations.  For small circuits the same noise model can be
evolved *exactly* as a density matrix:

* every noisy gate is followed by a depolarizing channel on its qubits
  at the calibrated error rate,
* readout confusion is applied as a classical channel on the final
  distribution.

Exponential in memory (4^n), so limited to :data:`MAX_DENSITY_QUBITS`
(9) qubits.  :func:`exact_success_probability` evolves only the qubits
the program touches (:func:`repro.sim.batch.compact_register`, the
index the Monte-Carlo estimator uses), with error rates still looked up
on the device qubits, so the limit bounds the program's width rather
than the device's: a 4-qubit benchmark compiled for a 16-qubit machine
is a 4-qubit density matrix.  ``tests/test_sim_density.py`` validates
the sampling estimator against it.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.calibration import Calibration
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.ir.gates import gate_matrix
from repro.sim.batch import compact_register
from repro.sim.noise import NoiseModel, instruction_error_probability
from repro.sim.statevector import measurement_wiring

#: Refuse to build density matrices beyond this size.
MAX_DENSITY_QUBITS = 9

_PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_size(num_qubits: int) -> None:
    if num_qubits > MAX_DENSITY_QUBITS:
        raise ValueError(
            f"density-matrix simulation of {num_qubits} qubits needs "
            f"4^{num_qubits} complex entries; limit is "
            f"{MAX_DENSITY_QUBITS} qubits"
        )


def zero_density(num_qubits: int) -> np.ndarray:
    """|0...0><0...0| as a dense matrix."""
    _check_size(num_qubits)
    rho = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _embed(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Expand a k-qubit operator to the full Hilbert space."""
    k = len(qubits)
    dim = 2**num_qubits
    tensor = matrix.reshape((2,) * (2 * k))
    full = np.eye(dim, dtype=complex).reshape((2,) * num_qubits + (dim,))
    full = np.tensordot(
        tensor, full, axes=(list(range(k, 2 * k)), list(qubits))
    )
    full = np.moveaxis(full, list(range(k)), list(qubits))
    return np.ascontiguousarray(full).reshape(dim, dim)


def apply_unitary_to_density(
    rho: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``U rho U^dagger`` on the given qubits."""
    full = _embed(matrix, qubits, num_qubits)
    return full @ rho @ full.conj().T


def depolarizing_kraus(
    error_probability: float, num_qubits: int
) -> List[np.ndarray]:
    """Kraus operators of an n-qubit depolarizing channel.

    With probability ``error_probability`` a uniformly random
    non-identity Pauli string is applied — the exact channel the
    Monte-Carlo model samples from.
    """
    if not 0.0 <= error_probability < 1.0:
        raise ValueError("error probability must be in [0, 1)")
    labels = list(itertools.product("ixyz", repeat=num_qubits))
    non_identity = [l for l in labels if set(l) != {"i"}]
    ops = [
        np.sqrt(1.0 - error_probability)
        * _kron_paulis(("i",) * num_qubits)
    ]
    weight = np.sqrt(error_probability / len(non_identity))
    ops.extend(weight * _kron_paulis(label) for label in non_identity)
    return ops


def _kron_paulis(label: Sequence[str]) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for character in label:
        out = np.kron(out, _PAULI[character])
    return out


def apply_channel(
    rho: np.ndarray,
    kraus_ops: Sequence[np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """``sum_k K rho K^dagger`` on the given qubits."""
    out = np.zeros_like(rho)
    for op in kraus_ops:
        full = _embed(op, qubits, num_qubits)
        out += full @ rho @ full.conj().T
    return out


def simulate_density(
    circuit: Circuit,
    device: Optional[Device] = None,
    day: Optional[int] = None,
) -> np.ndarray:
    """The exact final density matrix, with noise when a device is given.

    The matrix spans the circuit's whole register.
    """
    calibration = device.calibration(day) if device is not None else None
    return _evolve_density(circuit, circuit, calibration)


def _evolve_density(
    simulated: Circuit,
    physical: Circuit,
    calibration: Optional[Calibration],
) -> np.ndarray:
    """Evolve ``simulated``, taking each gate's error rate from the
    instruction at the same position of ``physical`` (the same circuit
    on the device register)."""
    n = simulated.num_qubits
    _check_size(n)
    rho = zero_density(n)
    for inst, device_inst in zip(simulated, physical):
        if not inst.is_unitary:
            continue
        matrix = gate_matrix(inst.name, inst.params)
        rho = apply_unitary_to_density(rho, matrix, inst.qubits, n)
        if calibration is None:
            continue
        probability = instruction_error_probability(device_inst, calibration)
        if probability > 0.0:
            kraus = depolarizing_kraus(probability, len(inst.qubits))
            rho = apply_channel(rho, kraus, inst.qubits, n)
    return rho


def density_distribution(
    rho: np.ndarray,
    wiring: Sequence[Tuple[int, int]],
    num_qubits: int,
) -> Dict[str, float]:
    """Marginal classical-bit distribution of a density matrix."""
    probs = np.real(np.diag(rho))
    num_cbits = max(cbit for _, cbit in wiring) + 1
    out: Dict[str, float] = {}
    for index, p in enumerate(probs):
        if p < 1e-14:
            continue
        bits = ["0"] * num_cbits
        for qubit, cbit in wiring:
            bits[cbit] = str((index >> (num_qubits - 1 - qubit)) & 1)
        key = "".join(bits)
        out[key] = out.get(key, 0.0) + float(p)
    return out


def exact_success_probability(
    circuit: Circuit,
    device: Device,
    correct: str,
    day: Optional[int] = None,
) -> float:
    """Exact success rate under the depolarizing + readout noise model.

    This is the quantity :func:`repro.sim.monte_carlo_success_rate`
    estimates by sampling; the two must agree within sampling error.
    """
    wiring = measurement_wiring(circuit)
    if not wiring:
        raise ValueError("circuit has no measurements")
    simulated, index = compact_register(circuit) or (
        circuit, {q: q for q in range(circuit.num_qubits)}
    )
    rho = _evolve_density(simulated, circuit, device.calibration(day))
    distribution = density_distribution(
        rho, [(index[q], cbit) for q, cbit in wiring], simulated.num_qubits
    )
    model = NoiseModel.from_device(device, circuit, day)
    total = 0.0
    for bits, probability in distribution.items():
        factor = probability
        for qubit, cbit in wiring:
            flip = model.readout_error.get(qubit, 0.0)
            factor *= (1.0 - flip) if bits[cbit] == correct[cbit] else flip
        total += factor
    return total
