"""Dense state-vector simulation of circuits.

Basis convention: qubit 0 is the most significant bit of the basis
index, so state index ``b`` encodes the bitstring ``format(b, f"0{n}b")``
with qubit 0 leftmost.  Output distributions are keyed by classical-bit
strings (cbit 0 leftmost), which for the standard ``measure_all`` wiring
coincide with program-qubit order even after hardware mapping.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import gate_matrix
from repro.ir.instruction import Instruction

#: Probabilities below this are dropped from distributions.
_PROB_EPS = 1e-12


def zero_state(num_qubits: int) -> np.ndarray:
    """|0...0> as a dense vector."""
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    return state


def apply_unitary(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a k-qubit unitary to the given qubits of a state vector.

    ``matrix`` indexes its basis with ``qubits[0]`` as the most
    significant bit, matching :func:`repro.ir.gates.gate_matrix`.
    """
    k = len(qubits)
    tensor = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    psi = state.reshape((2,) * num_qubits)
    psi = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), list(qubits)))
    psi = np.moveaxis(psi, list(range(k)), list(qubits))
    return np.ascontiguousarray(psi).reshape(-1)


def apply_instruction(
    state: np.ndarray, inst: Instruction, num_qubits: int
) -> np.ndarray:
    """Apply one unitary instruction (measure/barrier are no-ops here)."""
    if not inst.is_unitary:
        return state
    matrix = gate_matrix(inst.name, inst.params)
    return apply_unitary(state, matrix, inst.qubits, num_qubits)


def simulate_statevector(
    circuit: Circuit,
    initial_state: Optional[np.ndarray] = None,
    faults: Optional[Iterable[Tuple[int, Instruction]]] = None,
) -> np.ndarray:
    """The final state of a circuit, ignoring measurements.

    Args:
        circuit: the circuit to run.
        initial_state: starting vector (default |0...0>).
        faults: optional injected-error instructions, as pairs
            ``(position, instruction)`` meaning "apply ``instruction``
            right after the circuit instruction at ``position``".  Used
            by the Monte-Carlo noise model.
    """
    n = circuit.num_qubits
    state = zero_state(n) if initial_state is None else initial_state.copy()
    fault_map: Dict[int, List[Instruction]] = {}
    if faults is not None:
        for position, fault in faults:
            fault_map.setdefault(position, []).append(fault)
    for idx, inst in enumerate(circuit):
        state = apply_instruction(state, inst, n)
        for fault in fault_map.get(idx, ()):
            state = apply_instruction(state, fault, n)
    return state


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The full unitary of a (measurement-free) circuit.

    Exponential in qubit count; intended for correctness tests on small
    circuits.
    """
    n = circuit.num_qubits
    dim = 2**n
    unitary = np.eye(dim, dtype=complex)
    for inst in circuit:
        if inst.is_measurement:
            raise ValueError("circuit_unitary needs a measurement-free circuit")
        if not inst.is_unitary:
            continue
        matrix = gate_matrix(inst.name, inst.params)
        # Apply to each column of the accumulated unitary at once by
        # treating the column index as a batch axis.
        k = len(inst.qubits)
        tensor = matrix.reshape((2,) * (2 * k))
        psi = unitary.reshape((2,) * n + (dim,))
        psi = np.tensordot(
            tensor, psi, axes=(list(range(k, 2 * k)), list(inst.qubits))
        )
        psi = np.moveaxis(psi, list(range(k)), list(inst.qubits))
        unitary = np.ascontiguousarray(psi).reshape(dim, dim)
    return unitary


def measurement_wiring(circuit: Circuit) -> List[Tuple[int, int]]:
    """Pairs ``(qubit, cbit)`` of the circuit's measurements, in order."""
    wiring = []
    for inst in circuit:
        if inst.is_measurement:
            wiring.append((inst.qubits[0], inst.cbits[0]))
    return wiring


def marginal_distribution(
    probs: np.ndarray,
    wiring: Sequence[Tuple[int, int]],
    num_qubits: int,
    cutoff: float,
) -> Dict[str, float]:
    """Marginal distribution over classical bits of basis-state ``probs``.

    Basis states with probability at or below ``cutoff`` are dropped;
    the rest are summed, in index order, per measured bit string.
    """
    if not wiring:
        raise ValueError("circuit has no measurements")
    num_cbits = max(cbit for _, cbit in wiring) + 1
    out: Dict[str, float] = {}
    for index in np.flatnonzero(probs > cutoff):
        bits = ["0"] * num_cbits
        for qubit, cbit in wiring:
            bits[cbit] = str((int(index) >> (num_qubits - 1 - qubit)) & 1)
        key = "".join(bits)
        out[key] = out.get(key, 0.0) + float(probs[index])
    return out


def distribution_from_state(
    state: np.ndarray,
    wiring: Sequence[Tuple[int, int]],
    num_qubits: int,
) -> Dict[str, float]:
    """Marginal distribution over classical bits given a final state."""
    return marginal_distribution(
        np.abs(state) ** 2, wiring, num_qubits, _PROB_EPS
    )


def ideal_distribution(circuit: Circuit) -> Dict[str, float]:
    """Noise-free output distribution over the measured classical bits."""
    state = simulate_statevector(circuit)
    return distribution_from_state(
        state, measurement_wiring(circuit), circuit.num_qubits
    )
