"""Tests for the reliability matrix (paper Figure 6 semantics)."""

import numpy as np
import pytest

from tests.helpers import make_device
from repro.compiler.reliability import compute_reliability
from repro.devices import Topology, example_8q_device
from repro.devices.gatesets import VendorFamily

#: Entries published in paper Figure 6(b).
PAPER_FIG6 = {
    (0, 1): 0.9, (0, 2): 0.58, (0, 3): 0.33, (0, 4): 0.9,
    (0, 5): 0.65, (0, 6): 0.42, (0, 7): 0.24,
    (1, 2): 0.8, (1, 3): 0.46, (1, 6): 0.58,
    (2, 6): 0.7, (3, 7): 0.8,
}


class TestFigure6:
    def test_published_entries(self):
        reliability = compute_reliability(example_8q_device())
        for (a, b), expected in PAPER_FIG6.items():
            assert reliability.matrix[a, b] == pytest.approx(
                expected, abs=0.01
            ), f"entry ({a},{b})"

    def test_worked_example_1_6(self):
        # Swap 1 next to 5 (0.9^3), then gate 5-6 (0.8) = 0.583.
        reliability = compute_reliability(example_8q_device())
        assert reliability.matrix[1, 6] == pytest.approx(
            0.9**3 * 0.8, abs=1e-9
        )
        assert reliability.best_neighbor(1, 6) == 5
        assert reliability.swap_path(1, 5) == [1, 5]

    def test_adjacent_pair_needs_no_swaps(self):
        reliability = compute_reliability(example_8q_device())
        assert reliability.best_neighbor(0, 1) == 0
        assert reliability.swap_path(0, 0) == [0]


class TestStructure:
    def test_diagonal_is_one(self):
        reliability = compute_reliability(example_8q_device())
        np.testing.assert_allclose(np.diag(reliability.matrix), 1.0)

    def test_matrix_asymmetry_matches_paper(self):
        # The swap path moves the *control*, so the matrix is not
        # symmetric: paper Figure 6(b) has (0,2)=0.58 but (2,0)=0.46.
        reliability = compute_reliability(example_8q_device())
        assert reliability.matrix[0, 2] == pytest.approx(0.583, abs=0.01)
        assert reliability.matrix[2, 0] == pytest.approx(0.46, abs=0.01)

    def test_symmetric_helper_has_unit_diagonal(self):
        sym = compute_reliability(example_8q_device()).symmetric()
        np.testing.assert_allclose(np.diag(sym), 1.0)
        assert (sym > 0).all()

    def test_swap_path_reconstruction(self):
        device = make_device(Topology.line(5))
        reliability = compute_reliability(device)
        assert reliability.swap_path(0, 4) == [0, 1, 2, 3, 4]

    def test_disconnected_raises(self):
        device = make_device(Topology(4, [(0, 1), (2, 3)]))
        reliability = compute_reliability(device)
        with pytest.raises(ValueError, match="disconnected"):
            reliability.swap_path(0, 3)

    def test_readout_vector(self):
        device = make_device(Topology.line(3), readout_error=0.1)
        reliability = compute_reliability(device)
        np.testing.assert_allclose(reliability.readout, 0.9)


class TestNoiseAwareness:
    def test_noise_unaware_uses_average(self):
        device = example_8q_device()
        reliability = compute_reliability(device, noise_aware=False)
        # All direct edges share the average reliability.
        edge_values = {
            round(reliability.gate_reliability[a, b], 9)
            for a, b in device.topology.graph.edges()
        }
        assert len(edge_values) == 1

    def test_noise_unaware_minimizes_hops(self):
        # With uniform rates, the best path is any shortest path, so the
        # matrix value is avg^(3*(hops-1) + 1).
        device = example_8q_device()
        reliability = compute_reliability(device, noise_aware=False)
        avg = 1 - device.calibration().average_two_qubit_error()
        assert reliability.matrix[0, 2] == pytest.approx(avg**4, rel=1e-6)

    def test_noise_aware_prefers_reliable_detour(self):
        # Edge (a, b) is terrible; the 3-hop detour wins.
        topo = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        device = make_device(topo, edge_errors={(0, 3): 0.74})
        reliability = compute_reliability(device)
        # Path 0-1-2 swaps then gate 2-3 beats direct gate 0-3.
        direct = 1 - 0.74
        detour = (1 - 0.05) ** 6 * (1 - 0.05)
        assert reliability.matrix[0, 3] == pytest.approx(
            max(direct, detour), rel=1e-6
        )


class TestDirectedOverheads:
    def test_orientation_penalty_on_reversed_direction(self):
        topo = Topology(2, [(0, 1)], directed=True)
        device = make_device(topo, single_qubit_error=0.05)
        reliability = compute_reliability(device)
        # Hardware drives 0->1; 1->0 costs 4 extra Hadamards.
        assert reliability.gate_reliability[0, 1] > (
            reliability.gate_reliability[1, 0]
        )
        penalty = (1 - 0.05) ** 4
        assert reliability.gate_reliability[1, 0] == pytest.approx(
            reliability.gate_reliability[0, 1] * penalty
        )

    def test_undirected_no_penalty(self):
        device = make_device(
            Topology(2, [(0, 1)]), family=VendorFamily.RIGETTI
        )
        reliability = compute_reliability(device)
        assert reliability.gate_reliability[0, 1] == pytest.approx(
            reliability.gate_reliability[1, 0]
        )
