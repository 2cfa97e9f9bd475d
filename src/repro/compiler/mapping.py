"""Qubit mapping: placing program qubits on hardware qubits (paper 4.3).

Two policies:

* :func:`default_mapping` — the identity/lexicographic placement used by
  the unoptimized TriQ-N and TriQ-1QOpt levels (and, *sic*, by the
  Qiskit 0.6 baseline).
* :func:`smt_mapping` — constrained optimization over the reliability
  matrix: pair terms for every distinct interacting program-qubit pair,
  unary readout terms for every measured qubit, objective = maximize the
  minimum term reliability, solved by :class:`repro.smt.MaxMinSolver`.

``smt_mapping`` accepts a ``mapper`` knob selecting the solver backend:
``"exact"`` (the default branch-and-bound), ``"portfolio"`` (anytime
heuristics raced against exact with a shared bound — bit-identical to
exact whenever exact finishes), or ``"heuristic"`` (greedy + annealing
only, for devices where exact cannot finish at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.ir.dag import interaction_pairs
from repro.compiler.reliability import ReliabilityMatrix
from repro.smt import (
    MAPPER_METHODS,
    AssignmentProblem,
    MaxMinSolver,
    PortfolioSolver,
)


@dataclass(frozen=True)
class InitialMapping:
    """Program-qubit -> hardware-qubit placement.

    ``placement[p]`` is the hardware qubit carrying program qubit ``p``.
    """

    placement: Tuple[int, ...]
    num_hardware_qubits: int
    #: Objective value reported by the solver (None for default mapping).
    objective: Optional[float] = None
    #: Solver search nodes (0 for default mapping).
    solver_nodes: int = 0
    #: Solver wall time in seconds.
    solver_time_s: float = 0.0
    #: True when the placement is a degraded (budget-cut exact) answer
    #: rather than a proven-optimal one — recorded so sweep results
    #: stay auditable when the solver deadline fires.
    degraded: bool = False
    #: Which solver produced the placement: "exact", "heuristic", or
    #: "default" (the lexicographic non-solver placement).
    method: str = "exact"
    #: Best-so-far bound improvements: (source, objective, elapsed_s).
    bound_trajectory: Tuple[Tuple[str, float, float], ...] = field(
        default=()
    )
    #: Per-solver race breakdown: (name, objective, nodes, time_s,
    #: finished).
    solver_runs: Tuple[Tuple[str, float, int, float, bool], ...] = field(
        default=()
    )
    #: True when a heuristic bound was shared into the exact search.
    bound_shared: bool = False

    def __post_init__(self) -> None:
        if len(set(self.placement)) != len(self.placement):
            raise ValueError("mapping must be injective")
        for hw in self.placement:
            if not 0 <= hw < self.num_hardware_qubits:
                raise ValueError(f"hardware qubit {hw} out of range")

    def hardware_qubit(self, program_qubit: int) -> int:
        return self.placement[program_qubit]

    def as_dict(self) -> Dict[int, int]:
        return dict(enumerate(self.placement))


def check_fits(circuit: Circuit, device: Device) -> None:
    """ValueError naming both sides when ``circuit`` is wider than ``device``."""
    if circuit.num_qubits > device.num_qubits:
        raise ValueError(
            f"{circuit.name!r} needs {circuit.num_qubits} qubits but "
            f"{device.name} has only {device.num_qubits}"
        )


def default_mapping(circuit: Circuit, device: Device) -> InitialMapping:
    """Lexicographic placement: program qubit ``p`` -> hardware qubit ``p``.

    This ignores both topology and noise, "always using the first few
    qubits in the device" (paper section 6.3 on Qiskit).
    """
    check_fits(circuit, device)
    return InitialMapping(
        placement=tuple(range(circuit.num_qubits)),
        num_hardware_qubits=device.num_qubits,
        method="default",
    )


def mapping_problem(
    circuit: Circuit, device: Device, reliability: ReliabilityMatrix
) -> AssignmentProblem:
    """The assignment problem ``smt_mapping`` solves, as data.

    Exposed so the differential test gate and the mapper benchmarks can
    race solvers on the *identical* problem instance the compiler sees.
    """
    check_fits(circuit, device)
    problem = AssignmentProblem(circuit.num_qubits, device.num_qubits)
    pair_scores = reliability.symmetric()
    for pair in interaction_pairs(circuit):
        a, b = sorted(pair)
        problem.add_pair_term(a, b, pair_scores)
    readout = np.maximum(reliability.readout, 1e-12)
    measured = sorted(
        {inst.qubits[0] for inst in circuit if inst.is_measurement}
    )
    for program_qubit in measured:
        problem.add_unary_term(program_qubit, readout)
    return problem


def smt_mapping(
    circuit: Circuit,
    device: Device,
    reliability: ReliabilityMatrix,
    node_limit: int = 200_000,
    time_limit_s: Optional[float] = 30.0,
    warm_hint: Optional[Tuple[int, ...]] = None,
    mapper: str = "exact",
) -> InitialMapping:
    """Reliability-optimized placement via the max-min solver.

    Variables exist only for *distinct* interacting pairs, so the
    problem size is O(n^2) in program qubits and independent of gate
    count — the property behind the paper's 6.5 scaling result.

    ``warm_hint`` seeds the solver's *bound* with a previously solved
    placement (see :meth:`repro.smt.MaxMinSolver.solve`); it can speed
    the search up but never changes the returned placement — the
    solver replays its cold probe sequence and only skips oracle calls
    the hint already proved infeasible.

    ``mapper`` selects the backend: ``"exact"`` (branch-and-bound),
    ``"portfolio"`` (anytime race, exact when it finishes), or
    ``"heuristic"`` (greedy + annealing only).
    """
    if mapper not in MAPPER_METHODS:
        raise ValueError(
            f"unknown mapper {mapper!r}; choose from {MAPPER_METHODS}"
        )
    problem = mapping_problem(circuit, device, reliability)
    if mapper == "exact":
        solution = MaxMinSolver(
            problem, node_limit=node_limit, time_limit_s=time_limit_s
        ).solve(warm_hint=warm_hint)
    else:
        solution = PortfolioSolver(
            problem,
            node_limit=node_limit,
            time_limit_s=time_limit_s,
            include_exact=(mapper == "portfolio"),
        ).solve(warm_hint=warm_hint)
    return InitialMapping(
        placement=solution.assignment,
        num_hardware_qubits=device.num_qubits,
        objective=solution.objective,
        solver_nodes=solution.stats.nodes,
        solver_time_s=solution.stats.wall_time_s,
        degraded=solution.degraded,
        method=solution.method,
        bound_trajectory=tuple(
            (event.source, event.objective, event.elapsed_s)
            for event in solution.trajectory
        ),
        solver_runs=tuple(
            (run.name, run.objective, run.nodes, run.time_s, run.finished)
            for run in solution.runs
        ),
        bound_shared=solution.bound_shared,
    )
