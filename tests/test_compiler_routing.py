"""Tests for swap routing and scheduling."""

import pytest

from tests.helpers import make_device
from repro.compiler.mapping import InitialMapping, default_mapping
from repro.compiler.reliability import compute_reliability
from repro.compiler.routing import route_circuit
from repro.devices import Topology
from repro.ir import Circuit, decompose_to_basis
from repro.sim import ideal_distribution


def route(circuit, device, mapping=None):
    decomposed = decompose_to_basis(circuit)
    if mapping is None:
        mapping = default_mapping(decomposed, device)
    reliability = compute_reliability(device)
    return route_circuit(decomposed, device, mapping, reliability)


class TestAdjacency:
    def test_all_2q_gates_on_coupled_pairs(self):
        device = make_device(Topology.line(4))
        circuit = Circuit(4).cx(0, 3).cx(1, 3).cx(0, 2).measure_all()
        routed = route(circuit, device)
        for inst in routed.circuit:
            if inst.is_unitary and inst.num_qubits == 2:
                assert device.topology.are_coupled(*inst.qubits), str(inst)

    def test_adjacent_gate_needs_no_swaps(self):
        device = make_device(Topology.line(4))
        routed = route(Circuit(2).cx(0, 1), device)
        assert routed.num_swaps == 0

    def test_distant_gate_inserts_swaps(self):
        device = make_device(Topology.line(4))
        routed = route(Circuit(4).cx(0, 3), device)
        assert routed.num_swaps == 2

    def test_fully_connected_never_swaps(self, full5_umdti):
        circuit = Circuit(5)
        for a in range(5):
            for b in range(a + 1, 5):
                circuit.cx(a, b)
        routed = route(circuit, full5_umdti)
        assert routed.num_swaps == 0


class TestSemantics:
    def test_cbits_stay_in_program_order(self):
        device = make_device(Topology.line(4))
        circuit = Circuit(4).x(3).cx(0, 3).measure_all()
        routed = route(circuit, device)
        cbits = sorted(
            inst.cbits[0]
            for inst in routed.circuit
            if inst.is_measurement
        )
        assert cbits == [0, 1, 2, 3]

    def test_distribution_preserved_through_routing(self):
        device = make_device(Topology.line(5))
        circuit = Circuit(5).h(0).cx(0, 4).cx(0, 3).x(2).measure_all()
        routed = route(circuit, device)
        assert ideal_distribution(routed.circuit) == pytest.approx(
            ideal_distribution(circuit)
        )

    def test_distribution_preserved_with_nontrivial_mapping(self):
        device = make_device(Topology.line(5))
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).measure_all()
        mapping = InitialMapping((4, 2, 0), num_hardware_qubits=5)
        decomposed = decompose_to_basis(circuit)
        reliability = compute_reliability(device)
        routed = route_circuit(decomposed, device, mapping, reliability)
        assert ideal_distribution(routed.circuit) == pytest.approx(
            ideal_distribution(circuit)
        )

    def test_final_placement_tracks_swaps(self):
        device = make_device(Topology.line(4))
        routed = route(Circuit(4).cx(0, 3), device)
        # Program qubit 0 moved next to 3.
        assert routed.final_placement[0] == 2
        assert routed.final_placement[3] == 3


class TestReliabilityAwareRouting:
    def test_takes_reliable_detour(self):
        # Square with one terrible edge: routing must go the long way.
        topo = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        device = make_device(topo, edge_errors={(0, 3): 0.74})
        circuit = Circuit(4).cx(0, 3)
        decomposed = decompose_to_basis(circuit)
        reliability = compute_reliability(device)
        routed = route_circuit(
            decomposed,
            device,
            default_mapping(decomposed, device),
            reliability,
        )
        used_edges = {
            frozenset(inst.qubits)
            for inst in routed.circuit
            if inst.is_unitary and inst.num_qubits == 2
        }
        assert frozenset((0, 3)) not in used_edges

    def test_rejects_undcomposed_input(self):
        device = make_device(Topology.line(4))
        circuit = Circuit(3).ccx(0, 1, 2)
        with pytest.raises(ValueError, match="decomposed"):
            route_circuit(
                circuit,
                device,
                default_mapping(circuit, device),
                compute_reliability(device),
            )
