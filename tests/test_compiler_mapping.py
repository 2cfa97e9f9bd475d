"""Tests for qubit mapping policies."""

import pytest

from tests.helpers import make_device
from repro.compiler.mapping import (
    InitialMapping,
    default_mapping,
    smt_mapping,
)
from repro.compiler.reliability import compute_reliability
from repro.devices import Topology, example_8q_device
from repro.ir import Circuit


class TestInitialMapping:
    def test_injective_enforced(self):
        with pytest.raises(ValueError, match="injective"):
            InitialMapping((0, 0), num_hardware_qubits=3)

    def test_range_enforced(self):
        with pytest.raises(ValueError, match="out of range"):
            InitialMapping((0, 5), num_hardware_qubits=3)

    def test_accessors(self):
        mapping = InitialMapping((2, 0, 1), num_hardware_qubits=4)
        assert mapping.hardware_qubit(0) == 2
        assert mapping.as_dict() == {0: 2, 1: 0, 2: 1}


class TestDefaultMapping:
    def test_identity(self, line4_ibm):
        circuit = Circuit(3).cx(0, 1)
        mapping = default_mapping(circuit, line4_ibm)
        assert mapping.placement == (0, 1, 2)

    def test_too_large_rejected(self, line4_ibm):
        with pytest.raises(ValueError, match="needs 5 qubits"):
            default_mapping(Circuit(5), line4_ibm)


class TestSmtMapping:
    def test_places_interacting_pair_on_best_edge(self):
        device = example_8q_device()
        reliability = compute_reliability(device)
        circuit = Circuit(2).cx(0, 1).measure_all()
        mapping = smt_mapping(circuit, device, reliability)
        a, b = mapping.placement
        # Must land on a directly-coupled 0.9-reliability edge.
        assert device.topology.are_coupled(a, b)
        assert device.calibration().edge_reliability(a, b) == pytest.approx(
            0.9
        )

    def test_avoids_weak_edge(self):
        # Only (2, 6) has reliability 0.7; the solver must not use it.
        device = example_8q_device()
        reliability = compute_reliability(device)
        circuit = Circuit(2).cx(0, 1)
        mapping = smt_mapping(circuit, device, reliability)
        assert set(mapping.placement) != {2, 6}

    def test_respects_readout_terms(self):
        # Qubit 1 has catastrophic readout.
        device = make_device(Topology.full(3), readout_errors={1: 0.6})
        reliability = compute_reliability(device)
        circuit = Circuit(2).cx(0, 1).measure_all()
        mapping = smt_mapping(circuit, device, reliability)
        assert 1 not in mapping.placement

    def test_objective_matches_min_reliability(self):
        device = example_8q_device()
        reliability = compute_reliability(device)
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        mapping = smt_mapping(circuit, device, reliability)
        sym = reliability.symmetric()
        achieved = min(
            sym[mapping.placement[0], mapping.placement[1]],
            sym[mapping.placement[1], mapping.placement[2]],
        )
        assert mapping.objective == pytest.approx(achieved)
        # Best possible: a path of two 0.9 edges exists.
        assert mapping.objective == pytest.approx(0.9, abs=0.01)

    def test_star_program_maps_to_high_degree_qubit(self):
        # BV-style star: all data qubits talk to the ancilla.
        device = make_device(Topology.star(5, center=2))
        reliability = compute_reliability(device)
        circuit = Circuit(4)
        for q in (0, 1, 2):
            circuit.cx(q, 3)
        mapping = smt_mapping(circuit, device, reliability)
        # The ancilla (program qubit 3) must sit at the hub.
        assert mapping.placement[3] == 2

    def test_solver_metadata(self):
        device = example_8q_device()
        reliability = compute_reliability(device)
        circuit = Circuit(2).cx(0, 1)
        mapping = smt_mapping(circuit, device, reliability)
        assert mapping.objective is not None
        assert mapping.solver_time_s >= 0
