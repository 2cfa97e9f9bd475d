"""QAOA for MaxCut: the optimization workload of the NISQ era.

Alongside chemistry, the paper's introduction motivates NISQ machines
with optimization/ML workloads.  This module implements the canonical
one — the quantum approximate optimization algorithm for MaxCut on
small graphs — on the repo's public API:

* cost layers ``exp(-i gamma/2 Z_u Z_v)`` per edge (an ``rzz`` built
  from CNOT + Rz), mixer layers ``Rx(beta)`` per qubit,
* exact expected cut value from the state vector,
* classical optimization with scipy,
* noisy evaluation of the compiled circuit through the exact channel
  model, reporting the approximation ratio a device actually achieves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import minimize

from repro.compiler import OptimizationLevel
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.sim.batch import simulate_statevector_batch
from repro.sim.density import density_distribution
from repro.apps.vqe import _noisy_density


def ring_graph(num_nodes: int) -> nx.Graph:
    """The n-cycle: MaxCut = n for even n, n-1 for odd."""
    return nx.cycle_graph(num_nodes)


def max_cut_value(graph: nx.Graph) -> int:
    """Brute-force optimum (graphs here are tiny)."""
    nodes = list(graph.nodes)
    best = 0
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        assignment = dict(zip(nodes, bits))
        cut = sum(
            1 for u, v in graph.edges if assignment[u] != assignment[v]
        )
        best = max(best, cut)
    return best


def qaoa_circuit(
    graph: nx.Graph, gammas: Sequence[float], betas: Sequence[float]
) -> Circuit:
    """The depth-p QAOA state-preparation circuit for MaxCut."""
    if len(gammas) != len(betas):
        raise ValueError("need one beta per gamma (depth-p QAOA)")
    if not len(gammas):
        raise ValueError("QAOA needs depth >= 1")
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    circuit = Circuit(len(nodes), name=f"qaoa_p{len(gammas)}")
    for qubit in range(len(nodes)):
        circuit.h(qubit)
    for gamma, beta in zip(gammas, betas):
        for u, v in graph.edges:
            a, b = index[u], index[v]
            # exp(-i gamma/2 Z_a Z_b) = CX(a,b) Rz(gamma, b) CX(a,b).
            circuit.cx(a, b)
            circuit.rz(float(gamma), b)
            circuit.cx(a, b)
        for qubit in range(len(nodes)):
            circuit.rx(2.0 * float(beta), qubit)
    return circuit


def _cut_values(graph: nx.Graph) -> np.ndarray:
    """Cut size of every basis state (qubit 0 = most significant bit)."""
    nodes = sorted(graph.nodes)
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    values = np.zeros(2**n)
    for state in range(2**n):
        bits = [(state >> (n - 1 - i)) & 1 for i in range(n)]
        values[state] = sum(
            1 for u, v in graph.edges if bits[index[u]] != bits[index[v]]
        )
    return values


def expected_cut(circuit: Circuit, graph: nx.Graph) -> float:
    """Exact expected cut value of the prepared state."""
    # A batch of one: bit-identical to the scalar engine, and faster.
    state = simulate_statevector_batch(
        circuit.without_measurements(), [None]
    )[0]
    probabilities = np.abs(state) ** 2
    return float(probabilities @ _cut_values(graph))


@dataclass(frozen=True)
class QaoaResult:
    gammas: Tuple[float, ...]
    betas: Tuple[float, ...]
    expected_cut: float
    optimum: int

    @property
    def approximation_ratio(self) -> float:
        return self.expected_cut / self.optimum


def optimize_qaoa(
    graph: nx.Graph,
    depth: int = 1,
    initial: Optional[Sequence[float]] = None,
    maxiter: int = 300,
) -> QaoaResult:
    """Classically optimize the QAOA angles for a graph."""
    if initial is None:
        initial = [0.4] * depth + [0.3] * depth

    def objective(params: np.ndarray) -> float:
        circuit = qaoa_circuit(graph, params[:depth], params[depth:])
        return -expected_cut(circuit, graph)

    result = minimize(
        objective,
        np.asarray(initial, dtype=float),
        method="COBYLA",
        options={"maxiter": maxiter},
    )
    return QaoaResult(
        gammas=tuple(result.x[:depth]),
        betas=tuple(result.x[depth:]),
        expected_cut=-float(result.fun),
        optimum=max_cut_value(graph),
    )


def noisy_expected_cut(
    graph: nx.Graph,
    result: QaoaResult,
    device: Device,
    level: OptimizationLevel = OptimizationLevel.OPT_1QCN,
    day: Optional[int] = None,
) -> float:
    """The expected cut after compiling and running through noise."""
    circuit = qaoa_circuit(graph, result.gammas, result.betas)
    rho, plan = _noisy_density(circuit, device, level, day)
    # Expected cut = sum over outcomes of P(outcome) * cut(outcome); the
    # plan's wiring reads each program qubit from its final placement.
    distribution = density_distribution(
        rho, plan.wiring, plan.simulated.num_qubits
    )
    values = _cut_values(graph)
    return float(
        sum(p * values[int(bits, 2)] for bits, p in distribution.items())
    )
