"""A variational quantum eigensolver on the toolflow.

The paper motivates NISQ machines with chemistry applications
("hardware-efficient variational quantum eigensolver for small
molecules", its reference [32]).  This module implements the canonical
small instance — the tapered two-qubit H2 Hamiltonian — end to end:

* Hamiltonians as weighted Pauli strings with exact expectation values
  from the state-vector simulator,
* a hardware-efficient Ry+CNOT ansatz,
* classical optimization via scipy,
* *noisy* energy evaluation of the compiled ansatz through the exact
  density-matrix channel model, so compilation quality shows up as
  chemical accuracy (or the lack of it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.sim.density import _evolve_density
from repro.sim.plan import SimulationPlan, plan_simulation
from repro.sim.batch import simulate_statevector_batch

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string, e.g. ``0.18 * XX``."""

    coefficient: float
    paulis: str  # one of I/X/Y/Z per qubit, qubit 0 first

    def __post_init__(self) -> None:
        if set(self.paulis) - set("IXYZ"):
            raise ValueError(f"bad Pauli string {self.paulis!r}")

    def matrix(self) -> np.ndarray:
        out = np.array([[1.0]], dtype=complex)
        for label in self.paulis:
            out = np.kron(out, _PAULI[label])
        return self.coefficient * out


@dataclass(frozen=True)
class Hamiltonian:
    """A sum of weighted Pauli strings on ``num_qubits`` qubits."""

    terms: Tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("Hamiltonian needs at least one term")
        lengths = {len(t.paulis) for t in self.terms}
        if len(lengths) != 1:
            raise ValueError("all terms must act on the same qubit count")

    @property
    def num_qubits(self) -> int:
        return len(self.terms[0].paulis)

    def matrix(self) -> np.ndarray:
        return sum(term.matrix() for term in self.terms)


def h2_hamiltonian() -> Hamiltonian:
    """The tapered 2-qubit H2 Hamiltonian at ~0.735 A bond length.

    Standard coefficients from the parity-mapped, 2-qubit-reduced
    minimal-basis molecular Hamiltonian; exact ground energy
    ~ -1.8573 Ha (electronic part).
    """
    return Hamiltonian(
        terms=(
            PauliTerm(-1.052373245772859, "II"),
            PauliTerm(0.39793742484318045, "ZI"),
            PauliTerm(-0.39793742484318045, "IZ"),
            PauliTerm(-0.01128010425623538, "ZZ"),
            PauliTerm(0.18093119978423156, "XX"),
        )
    )


def exact_ground_energy(hamiltonian: Hamiltonian) -> float:
    """The true minimum eigenvalue (classical diagonalization)."""
    return float(np.linalg.eigvalsh(hamiltonian.matrix())[0])


def hardware_efficient_ansatz(
    parameters: Sequence[float], num_qubits: int = 2, layers: int = 1
) -> Circuit:
    """Ry rotations interleaved with CNOT ladders (Kandala-style).

    Needs ``num_qubits * (layers + 1)`` parameters.
    """
    expected = num_qubits * (layers + 1)
    if len(parameters) != expected:
        raise ValueError(
            f"ansatz with {num_qubits} qubits and {layers} layer(s) "
            f"needs {expected} parameters, got {len(parameters)}"
        )
    circuit = Circuit(num_qubits, name="vqe_ansatz")
    index = 0
    for qubit in range(num_qubits):
        circuit.ry(float(parameters[index]), qubit)
        index += 1
    for _ in range(layers):
        for qubit in range(num_qubits - 1):
            circuit.cx(qubit, qubit + 1)
        for qubit in range(num_qubits):
            circuit.ry(float(parameters[index]), qubit)
            index += 1
    return circuit


def expectation_value(circuit: Circuit, hamiltonian: Hamiltonian) -> float:
    """Exact ``<psi|H|psi>`` of a (measurement-free) ansatz state."""
    # A batch of one: bit-identical to the scalar engine, and faster.
    state = simulate_statevector_batch(
        circuit.without_measurements(), [None]
    )[0]
    return float(np.real(state.conj() @ hamiltonian.matrix() @ state))


def optimize_vqe(
    hamiltonian: Hamiltonian,
    layers: int = 1,
    initial: Optional[Sequence[float]] = None,
    method: str = "COBYLA",
    maxiter: int = 400,
) -> Tuple[np.ndarray, float]:
    """Classically optimize the ansatz parameters.

    Returns ``(parameters, energy)``.  COBYLA from a deterministic
    start reliably finds the H2 ground state for one layer.
    """
    num_qubits = hamiltonian.num_qubits
    num_params = num_qubits * (layers + 1)
    if initial is None:
        initial = np.full(num_params, 0.1)

    def objective(parameters: np.ndarray) -> float:
        circuit = hardware_efficient_ansatz(parameters, num_qubits, layers)
        return expectation_value(circuit, hamiltonian)

    result = minimize(
        objective,
        np.asarray(initial, dtype=float),
        method=method,
        options={"maxiter": maxiter},
    )
    return np.asarray(result.x), float(result.fun)


def noisy_energy(
    parameters: Sequence[float],
    hamiltonian: Hamiltonian,
    device: Device,
    level: OptimizationLevel = OptimizationLevel.OPT_1QCN,
    layers: int = 1,
    day: Optional[int] = None,
) -> float:
    """The ansatz energy after compiling and running through noise.

    The ansatz is compiled with the chosen optimization level, evolved
    exactly as a density matrix under the calibrated depolarizing
    channel model, and the Hamiltonian expectation is taken on the
    hardware qubits the program qubits ended on.  The energy is read
    from the final state directly (an idealized tomographic readout).
    """
    circuit = hardware_efficient_ansatz(
        parameters, hamiltonian.num_qubits, layers
    )
    rho, plan = _noisy_density(circuit, device, level, day)
    full = _embed_hamiltonian(
        hamiltonian, plan.wiring, plan.simulated.num_qubits
    )
    return float(np.real(np.trace(full @ rho)))


def _noisy_density(
    circuit: Circuit,
    device: Device,
    level: OptimizationLevel,
    day: Optional[int],
) -> Tuple[np.ndarray, SimulationPlan]:
    """Compile ``circuit`` (without measurement, so the mapper optimizes
    purely for gate reliability) and evolve it exactly through noise on
    its plan's compacted register.  Program qubit ``i`` is measured into
    cbit ``i`` from the hardware qubit it ended on, so the plan's wiring
    carries the final placement."""
    compiler = TriQCompiler(device, level=level, day=day)
    program = compiler.compile(circuit)
    measured = program.circuit.without_measurements()
    for cbit, qubit in enumerate(program.final_placement):
        measured.measure(qubit, cbit)
    plan = plan_simulation(measured, device, day, density=True)
    rho = _evolve_density(plan.simulated, plan.circuit, plan.calibration)
    return rho, plan


def _embed_hamiltonian(
    hamiltonian: Hamiltonian,
    wiring: Sequence[Tuple[int, int]],
    num_qubits: int,
) -> np.ndarray:
    """Expand H onto the simulated register: program qubit ``i`` acts
    on the qubit ``wiring`` measures into cbit ``i``."""
    total = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    for term in hamiltonian.terms:
        labels = ["I"] * num_qubits
        for qubit, cbit in wiring:
            labels[qubit] = term.paulis[cbit]
        op = np.array([[1.0]], dtype=complex)
        for label in labels:
            op = np.kron(op, _PAULI[label])
        total += term.coefficient * op
    return total
