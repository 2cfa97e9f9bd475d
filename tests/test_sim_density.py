"""Density-matrix simulation, and its agreement with the MC estimator."""

import numpy as np
import pytest

from tests.helpers import make_device
from repro.devices import Topology, umd_trapped_ion
from repro.ir import Circuit
from repro.programs import toffoli_benchmark
from repro.sim import monte_carlo_success_rate, simulate_statevector
from repro.sim.density import (
    MAX_DENSITY_QUBITS,
    apply_channel,
    density_distribution,
    depolarizing_kraus,
    exact_success_probability,
    simulate_density,
    zero_density,
)
from repro.sim.statevector import measurement_wiring


def is_valid_density(rho: np.ndarray) -> bool:
    if not np.allclose(rho, rho.conj().T, atol=1e-10):
        return False
    if not np.isclose(np.trace(rho).real, 1.0, atol=1e-10):
        return False
    eigenvalues = np.linalg.eigvalsh(rho)
    return bool((eigenvalues > -1e-10).all())


class TestDensityBasics:
    def test_zero_density(self):
        rho = zero_density(2)
        assert rho[0, 0] == 1.0
        assert is_valid_density(rho)

    def test_size_limit(self):
        with pytest.raises(ValueError, match="limit"):
            zero_density(MAX_DENSITY_QUBITS + 1)

    def test_noiseless_matches_statevector(self):
        circuit = Circuit(3).h(0).cx(0, 1).ccx(0, 1, 2)
        rho = simulate_density(circuit)
        psi = simulate_statevector(circuit)
        np.testing.assert_allclose(rho, np.outer(psi, psi.conj()), atol=1e-10)

    def test_noisy_evolution_stays_physical(self):
        device = make_device(Topology.line(3), two_qubit_error=0.1)
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        rho = simulate_density(circuit, device)
        assert is_valid_density(rho)

    def test_noise_reduces_purity(self):
        device = make_device(Topology.line(2), two_qubit_error=0.2)
        circuit = Circuit(2).h(0).cx(0, 1)
        clean = simulate_density(circuit)
        noisy = simulate_density(circuit, device)
        def purity(r):
            return np.trace(r @ r).real

        assert purity(noisy) < purity(clean)


class TestKraus:
    def test_trace_preserving(self):
        for n in (1, 2):
            kraus = depolarizing_kraus(0.15, n)
            total = sum(op.conj().T @ op for op in kraus)
            np.testing.assert_allclose(total, np.eye(2**n), atol=1e-12)

    def test_operator_counts(self):
        assert len(depolarizing_kraus(0.1, 1)) == 4
        assert len(depolarizing_kraus(0.1, 2)) == 16

    def test_full_depolarizing_mixes(self):
        # Applying the channel with high error pushes toward the
        # maximally mixed state on the affected qubit.
        rho = zero_density(1)
        kraus = depolarizing_kraus(0.74, 1)
        out = apply_channel(rho, kraus, (0,), 1)
        # p(flip to |1>) = 0.74 * (2/3 of non-identity Paulis flip).
        assert out[1, 1].real == pytest.approx(0.74 * 2 / 3, abs=1e-10)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            depolarizing_kraus(1.0, 1)


class TestExactSuccess:
    def test_matches_readout_only_analysis(self):
        device = make_device(
            Topology.line(2),
            two_qubit_error=1e-5,
            single_qubit_error=1e-5,
            readout_error=0.2,
        )
        circuit = Circuit(2).x(0).cx(0, 1).measure_all()
        exact = exact_success_probability(circuit, device, "11")
        assert exact == pytest.approx(0.8 * 0.8, abs=1e-3)

    def test_monte_carlo_agrees_with_exact(self):
        # The core validation: sampling and exact evolution implement
        # the same channel.
        device = make_device(
            Topology.line(3),
            two_qubit_error=0.08,
            single_qubit_error=0.01,
            readout_error=0.04,
        )
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).x(0).measure_all()
        exact = exact_success_probability(circuit, device, "111")
        estimate = monte_carlo_success_rate(
            circuit, device, "111", fault_samples=3000, seed=7
        )
        assert estimate.success_rate == pytest.approx(exact, abs=0.02)

    def test_monte_carlo_agrees_on_compiled_benchmark(self):
        from repro.compiler import compile_circuit

        device = umd_trapped_ion()
        circuit, correct = toffoli_benchmark()
        program = compile_circuit(circuit, device)
        exact = exact_success_probability(program.circuit, device, correct)
        estimate = monte_carlo_success_rate(
            program.circuit, device, correct, fault_samples=2000, seed=3
        )
        assert estimate.success_rate == pytest.approx(exact, abs=0.02)

    def test_distribution_marginalization(self):
        circuit = Circuit(2).h(0).cx(0, 1).measure(0)
        rho = simulate_density(circuit)
        dist = density_distribution(
            rho, measurement_wiring(circuit), 2
        )
        assert dist == pytest.approx({"0": 0.5, "1": 0.5})

    def test_requires_measurements(self):
        device = make_device(Topology.line(2))
        with pytest.raises(ValueError, match="no measurements"):
            exact_success_probability(Circuit(2).h(0), device, "00")


#: (benchmark, device, level, calibration day): the 14/16-qubit cells
#: the end-to-end benchmark's run_wide workload times.  Each touches at
#: most four device qubits, so the exact oracle fits on its compacted
#: register.
WIDE_CELLS = (
    ("Toffoli", "melbourne", "N", 5),
    ("Peres", "melbourne", "1QOptCN", 12),
    ("HS4", "melbourne", "N", 19),
    ("Fredkin", "melbourne", "N", 26),
    ("BV4", "melbourne", "1QOptCN", 33),
    ("Or", "melbourne", "1QOptCN", 40),
    ("BV4", "rueschlikon", "1QOptCN", 47),
    ("HS2", "rueschlikon", "1QOptCN", 54),
    ("HS4", "rueschlikon", "1QOptCN", 61),
    ("HS2", "rueschlikon", "N", 68),
    ("HS2", "aspen1", "1QOptCN", 75),
    ("HS4", "aspen1", "1QOptCN", 82),
    ("HS2", "aspen3", "1QOptCN", 89),
    ("BV4", "aspen3", "1QOptCN", 96),
    ("HS4", "aspen3", "1QOptCN", 103),
)


class TestWideDeviceOracle:
    """The density oracle on the 14/16-qubit devices, through the
    compacted register: MAX_DENSITY_QUBITS bounds the program's width,
    not the device's."""

    @pytest.mark.parametrize("name,device,level,day", WIDE_CELLS)
    def test_monte_carlo_within_five_sigma_of_exact(
        self, name, device, level, day
    ):
        from repro import api
        from repro.devices import device_by_name
        from repro.sim.batch import compact_register

        samples = 150
        result = api.compile(name, device=device, level=level, day=day)
        circuit = result.program.circuit
        hardware = device_by_name(device, day=day)
        assert hardware.num_qubits >= 14
        assert len(compact_register(circuit)[1]) <= 4
        exact = exact_success_probability(
            circuit, hardware, result.correct, day=day
        )
        estimate = monte_carlo_success_rate(
            circuit, hardware, result.correct, day=day,
            fault_samples=samples,
        )
        # Each faulty-run sample lies in [0, 1], so its standard
        # deviation is at most 1/2; the faulty term is weighted by
        # 1 - p_clean and the clean term is exact.
        sigma = (1.0 - estimate.no_fault_probability) / (2 * samples**0.5)
        assert abs(estimate.success_rate - exact) <= 5 * sigma

