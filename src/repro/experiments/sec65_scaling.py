"""Section 6.5: compile-time scaling on supremacy circuits.

The paper compiles Google supremacy circuits (up to 72 qubits, depth
128, ~2000 2Q gates) for a Bristlecone-style device with IBM-sampled
error rates, and reports that TriQ-1QOptCN scales to 72 qubits with
solver effort bounded by the O(n^2) distinct-pair variable count —
independent of gate count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices import google_bristlecone_72, synthetic_grid
from repro.devices.device import Device
from repro.experiments.tables import format_table
from repro.ir.dag import interaction_pairs
from repro.ir.decompose import decompose_to_basis
from repro.programs import supremacy_circuit


@dataclass
class ScalingPoint:
    num_qubits: int
    depth: int
    two_qubit_gates: int
    distinct_pairs: int
    compile_time_s: float
    mapping_time_s: float
    solver_nodes: int


def _grid_device(rows: int, cols: int, seed: int = 7) -> Device:
    grid = synthetic_grid(rows, cols, seed=seed)
    return replace(grid, name=f"grid {rows}x{cols}")


def run(
    sizes: Optional[List[tuple]] = None,
    depth: int = 16,
    node_limit: int = 50_000,
    time_limit_s: float = 20.0,
) -> List[ScalingPoint]:
    """Compile supremacy circuits of growing width.

    ``depth`` defaults to 16 cycles to keep the harness quick; pass
    ``depth=128`` for the paper's full-size circuits (the scaling trend
    is gate-count independent either way, which the distinct-pair column
    demonstrates).
    """
    if sizes is None:
        sizes = [(2, 3), (3, 4), (4, 6), (5, 8), (6, 10), (6, 12)]
    points = []
    for rows, cols in sizes:
        n = rows * cols
        device = (
            google_bristlecone_72() if (rows, cols) == (6, 12)
            else _grid_device(rows, cols)
        )
        circuit = supremacy_circuit(n, depth, seed=n)
        compiler = TriQCompiler(
            device,
            level=OptimizationLevel.OPT_1QCN,
            node_limit=node_limit,
            time_limit_s=time_limit_s,
        )
        started = time.monotonic()
        mapping = compiler.map_qubits(decompose_to_basis(circuit))
        mapping_time = time.monotonic() - started
        program = compiler.compile(circuit)
        points.append(
            ScalingPoint(
                num_qubits=n,
                depth=depth,
                two_qubit_gates=program.two_qubit_gate_count(),
                distinct_pairs=len(
                    interaction_pairs(decompose_to_basis(circuit))
                ),
                compile_time_s=program.compile_time_s,
                mapping_time_s=mapping_time,
                solver_nodes=mapping.solver_nodes,
            )
        )
    return points


def format_result(points: List[ScalingPoint]) -> str:
    table = format_table(
        ["Qubits", "Depth", "2Q gates", "Distinct pairs",
         "Mapping time (s)", "Total compile (s)", "Solver nodes"],
        [
            (p.num_qubits, p.depth, p.two_qubit_gates, p.distinct_pairs,
             p.mapping_time_s, p.compile_time_s, p.solver_nodes)
            for p in points
        ],
        title="Section 6.5: TriQ-1QOptCN compile-time scaling "
        "(supremacy circuits)",
    )
    largest = points[-1]
    return (
        f"{table}\n"
        f"largest configuration: {largest.num_qubits} qubits compiled in "
        f"{largest.compile_time_s:.2f}s"
    )
