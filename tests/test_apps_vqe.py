"""Tests for the VQE application layer."""

import numpy as np
import pytest

from repro.apps import (
    Hamiltonian,
    PauliTerm,
    exact_ground_energy,
    expectation_value,
    h2_hamiltonian,
    hardware_efficient_ansatz,
    noisy_energy,
    optimize_vqe,
)
from repro.compiler import OptimizationLevel
from repro.devices import ibmq14_melbourne, umd_trapped_ion
from repro.sim.statevector import simulate_statevector


class TestHamiltonian:
    def test_pauli_term_matrix(self):
        term = PauliTerm(2.0, "ZI")
        np.testing.assert_allclose(
            term.matrix(), 2.0 * np.diag([1, 1, -1, -1])
        )

    def test_bad_pauli_string(self):
        with pytest.raises(ValueError, match="bad Pauli"):
            PauliTerm(1.0, "AB")

    def test_mixed_lengths_rejected(self):
        with pytest.raises(ValueError, match="same qubit count"):
            Hamiltonian((PauliTerm(1.0, "Z"), PauliTerm(1.0, "ZZ")))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian(())

    def test_h2_is_hermitian(self):
        mat = h2_hamiltonian().matrix()
        np.testing.assert_allclose(mat, mat.conj().T)

    def test_h2_ground_energy(self):
        # The standard tapered-H2 electronic ground energy.
        assert exact_ground_energy(h2_hamiltonian()) == pytest.approx(
            -1.8572, abs=1e-3
        )


class TestAnsatz:
    def test_parameter_count_enforced(self):
        with pytest.raises(ValueError, match="needs 4 parameters"):
            hardware_efficient_ansatz([0.1] * 3, num_qubits=2, layers=1)

    def test_structure(self):
        circuit = hardware_efficient_ansatz([0.1] * 4, 2, 1)
        names = [i.name for i in circuit]
        assert names == ["ry", "ry", "cx", "ry", "ry"]

    def test_zero_parameters_give_zero_state(self):
        circuit = hardware_efficient_ansatz([0.0] * 4, 2, 1)
        # |00> is an eigenstate of the untwisted ansatz.
        zz = Hamiltonian((PauliTerm(1.0, "ZZ"),))
        assert expectation_value(circuit, zz) == pytest.approx(1.0)

    def test_two_layers(self):
        circuit = hardware_efficient_ansatz([0.1] * 6, 2, 2)
        assert circuit.count_ops()["cx"] == 2


class TestOptimization:
    def test_reaches_ground_state(self):
        hamiltonian = h2_hamiltonian()
        _, energy = optimize_vqe(hamiltonian)
        assert energy == pytest.approx(
            exact_ground_energy(hamiltonian), abs=2e-3
        )

    def test_energy_never_below_ground(self):
        # Variational principle.
        hamiltonian = h2_hamiltonian()
        ground = exact_ground_energy(hamiltonian)
        rng = np.random.default_rng(0)
        for _ in range(10):
            params = rng.uniform(-np.pi, np.pi, 4)
            circuit = hardware_efficient_ansatz(params, 2, 1)
            assert expectation_value(circuit, hamiltonian) >= ground - 1e-9

    def test_energy_matches_scalar_engine_bit_for_bit(self):
        # expectation_value runs the batched engine on a batch of one;
        # the scalar engine is its oracle.
        hamiltonian = h2_hamiltonian()
        rng = np.random.default_rng(1)
        for layers in (1, 2):
            params = rng.uniform(-np.pi, np.pi, 2 * (layers + 1))
            circuit = hardware_efficient_ansatz(params, 2, layers)
            state = simulate_statevector(circuit.without_measurements())
            reference = float(
                np.real(state.conj() @ hamiltonian.matrix() @ state)
            )
            assert expectation_value(circuit, hamiltonian) == reference


class TestNoisyEnergy:
    def test_noise_raises_energy(self):
        hamiltonian = h2_hamiltonian()
        params, clean_energy = optimize_vqe(hamiltonian)
        noisy = noisy_energy(params, hamiltonian, umd_trapped_ion())
        assert noisy > clean_energy
        # But the low-error ion machine stays within ~20 mHa.
        assert noisy - clean_energy < 0.05

    def test_noise_aware_compilation_gives_lower_energy(self):
        hamiltonian = h2_hamiltonian()
        params, _ = optimize_vqe(hamiltonian)
        device = ibmq14_melbourne()
        aware = noisy_energy(
            params, hamiltonian, device, level=OptimizationLevel.OPT_1QCN
        )
        unaware = noisy_energy(
            params, hamiltonian, device, level=OptimizationLevel.OPT_1QC
        )
        assert aware <= unaware + 1e-6

    def test_works_on_large_devices(self):
        # The compact-view path: a 14-qubit machine, 2-qubit problem.
        hamiltonian = h2_hamiltonian()
        params = np.zeros(4)
        energy = noisy_energy(params, hamiltonian, ibmq14_melbourne())
        assert np.isfinite(energy)
