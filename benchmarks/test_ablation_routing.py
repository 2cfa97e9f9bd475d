"""Ablation: reliability-aware routing vs hop-count routing.

DESIGN.md calls out the routing-path choice as a load-bearing design
decision: TriQ routes along most-reliable paths (paper section 4.4),
the vendor baselines along hop-count shortest paths.  Two measurements:

1. *Path selection*: on a device whose shortest path crosses a bad
   edge, the aware router must route around it, and the end-to-end
   gate reliability must match the reliability-matrix prediction.
2. *Mapped-circuit quality*: starting from the same (SMT) mapping on
   IBMQ14, aware routing must not produce less reliable gate sequences
   than hop-count routing.
"""

import numpy as np
from conftest import emit
from tests.helpers import make_device
from repro.baselines.router import greedy_route
from repro.compiler.mapping import default_mapping, smt_mapping
from repro.compiler.reliability import compute_reliability
from repro.compiler.routing import route_circuit
from repro.devices import Topology, ibmq14_melbourne
from repro.experiments.tables import format_table
from repro.ir import Circuit
from repro.ir.decompose import decompose_to_basis
from repro.programs import bernstein_vazirani


def _sequence_reliability(routed, calibration) -> float:
    product = 1.0
    for inst in routed.circuit:
        if inst.is_unitary and inst.num_qubits == 2:
            weight = calibration.edge_reliability(*inst.qubits)
            product *= weight**3 if inst.name == "swap" else weight
    return product


def run_path_selection():
    # A 3x3 grid whose central column is terrible: hop-count routing
    # crosses it, reliability routing goes around.
    topology = Topology.grid(3, 3)
    device = make_device(
        topology,
        two_qubit_error=0.05,
        edge_errors={edge: 0.45 for edge in ((1, 4), (4, 7), (3, 4), (4, 5))},
    )
    calibration = device.calibration()
    circuit = decompose_to_basis(Circuit(9).cx(3, 5))
    mapping = default_mapping(circuit, device)
    reliability = compute_reliability(device)
    aware = route_circuit(circuit, device, mapping, reliability)
    blind = greedy_route(circuit, device, mapping, seed=0)
    return {
        "aware": _sequence_reliability(aware, calibration),
        "blind": _sequence_reliability(blind, calibration),
        "predicted": float(reliability.matrix[3, 5]),
    }


def run_mapped_quality():
    rows = []
    for day in range(5):
        device = ibmq14_melbourne(day)
        calibration = device.calibration()
        circuit, _ = bernstein_vazirani(8)
        decomposed = decompose_to_basis(circuit)
        reliability = compute_reliability(device)
        mapping = smt_mapping(decomposed, device, reliability)
        aware = route_circuit(decomposed, device, mapping, reliability)
        blind = greedy_route(decomposed, device, mapping, seed=0)
        rows.append(
            (
                day,
                _sequence_reliability(aware, calibration),
                _sequence_reliability(blind, calibration),
                aware.num_swaps,
                blind.num_swaps,
            )
        )
    return rows


def test_path_selection_avoids_bad_edges(benchmark):
    result = benchmark.pedantic(run_path_selection, rounds=1, iterations=1)
    emit(
        format_table(
            ["Router", "End-to-end gate reliability"],
            [
                ("reliability-aware (TriQ)", result["aware"]),
                ("hop-count (baselines)", result["blind"]),
                ("reliability-matrix prediction", result["predicted"]),
            ],
            title="Ablation: routing one distant gate across a bad region",
        )
    )
    assert result["aware"] > result["blind"]
    # The realized reliability matches the matrix's end-to-end estimate.
    assert abs(result["aware"] - result["predicted"]) < 1e-9


def test_mapped_circuit_quality(benchmark):
    rows = benchmark.pedantic(run_mapped_quality, rounds=1, iterations=1)
    emit(
        format_table(
            ["Day", "Aware seq. rel.", "Hop seq. rel.",
             "Aware swaps", "Hop swaps"],
            rows,
            title="Ablation: routing after SMT mapping (BV8 on IBMQ14)",
        )
    )
    aware = np.mean([r[1] for r in rows])
    blind = np.mean([r[2] for r in rows])
    assert aware >= blind * 0.9
