"""Tests for the QAOA MaxCut application."""

import networkx as nx
import numpy as np
import pytest

from repro.apps.qaoa import (
    _cut_values,
    expected_cut,
    max_cut_value,
    noisy_expected_cut,
    optimize_qaoa,
    qaoa_circuit,
    ring_graph,
)
from repro.compiler import OptimizationLevel
from repro.devices import ibmq16_rueschlikon, umd_trapped_ion
from repro.sim.statevector import simulate_statevector


class TestGraphUtilities:
    def test_ring_max_cut(self):
        assert max_cut_value(ring_graph(4)) == 4
        assert max_cut_value(ring_graph(5)) == 4

    def test_complete_graph_max_cut(self):
        # K4: best cut splits 2/2 -> 4 edges cut.
        assert max_cut_value(nx.complete_graph(4)) == 4


class TestCircuit:
    def test_structure(self):
        circuit = qaoa_circuit(ring_graph(3), [0.4], [0.3])
        counts = circuit.count_ops()
        assert counts["h"] == 3
        assert counts["cx"] == 6  # 2 per edge
        assert counts["rz"] == 3
        assert counts["rx"] == 3

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one beta per gamma"):
            qaoa_circuit(ring_graph(3), [0.4], [0.3, 0.2])

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError):
            qaoa_circuit(ring_graph(3), [], [])

    def test_zero_angles_give_uniform_cut(self):
        # gamma = beta = 0: the uniform superposition; expected cut =
        # |E| / 2.
        graph = ring_graph(4)
        circuit = qaoa_circuit(graph, [0.0], [0.0])
        assert expected_cut(circuit, graph) == pytest.approx(2.0)


class TestOptimization:
    def test_p1_ring4_hits_three_quarters(self):
        # The known p=1 result for the 4-cycle: ratio 3/4.
        result = optimize_qaoa(ring_graph(4), depth=1)
        assert result.approximation_ratio == pytest.approx(0.75, abs=0.01)

    def test_p2_ring4_is_exact(self):
        result = optimize_qaoa(ring_graph(4), depth=2)
        assert result.approximation_ratio == pytest.approx(1.0, abs=0.01)

    def test_expected_cut_bounded_by_optimum(self):
        graph = ring_graph(5)
        rng = np.random.default_rng(0)
        optimum = max_cut_value(graph)
        for _ in range(5):
            circuit = qaoa_circuit(
                graph, [rng.uniform(0, np.pi)], [rng.uniform(0, np.pi)]
            )
            assert expected_cut(circuit, graph) <= optimum + 1e-9

    def test_expected_cut_matches_scalar_engine_bit_for_bit(self):
        # expected_cut runs the batched engine on a batch of one; the
        # scalar engine is its oracle.
        graph = ring_graph(5)
        circuit = qaoa_circuit(graph, [0.7, 0.2], [0.4, 1.1])
        state = simulate_statevector(circuit.without_measurements())
        reference = float(np.abs(state) ** 2 @ _cut_values(graph))
        assert expected_cut(circuit, graph) == reference


class TestNoisyEvaluation:
    def test_noise_reduces_expected_cut(self):
        graph = ring_graph(4)
        result = optimize_qaoa(graph, depth=1)
        noisy = noisy_expected_cut(graph, result, ibmq16_rueschlikon())
        assert noisy < result.expected_cut

    def test_ion_trap_beats_superconducting(self):
        graph = ring_graph(4)
        result = optimize_qaoa(graph, depth=1)
        umd = noisy_expected_cut(graph, result, umd_trapped_ion())
        ibm = noisy_expected_cut(graph, result, ibmq16_rueschlikon())
        assert umd > ibm

    def test_noise_aware_at_least_as_good(self):
        graph = ring_graph(4)
        result = optimize_qaoa(graph, depth=1)
        device = ibmq16_rueschlikon()
        aware = noisy_expected_cut(
            graph, result, device, level=OptimizationLevel.OPT_1QCN
        )
        unaware = noisy_expected_cut(
            graph, result, device, level=OptimizationLevel.OPT_1QC
        )
        assert aware >= unaware - 0.05
