"""Tests for success-rate estimation."""

import pytest

from tests.helpers import make_device, make_noiseless_device
from repro.devices import Topology, ibmq5_tenerife
from repro.ir import Circuit
from repro.sim import (
    estimated_success_probability,
    monte_carlo_success_rate,
)
from repro.sim.density import exact_success_probability
from repro.sim.trajectories import sample_counts

#: Every estimator that scores a correct answer.
ANSWER_ESTIMATORS = (
    estimated_success_probability,
    monte_carlo_success_rate,
    exact_success_probability,
)


def bell_circuit():
    return Circuit(2).x(0).cx(0, 1).measure_all()


class TestEsp:
    def test_noiseless_deterministic_circuit(self):
        device = make_noiseless_device(Topology.line(2))
        esp = estimated_success_probability(bell_circuit(), device, "11")
        assert esp == pytest.approx(1.0, abs=1e-3)

    def test_esp_formula(self):
        device = make_device(
            Topology.line(2),
            two_qubit_error=0.1,
            single_qubit_error=0.02,
            readout_error=0.05,
        )
        esp = estimated_success_probability(bell_circuit(), device, "11")
        # One x (0.02), one cx (0.1), two readouts (0.05 each).
        expected = (1 - 0.02) * (1 - 0.1) * (1 - 0.05) ** 2 * 1.0
        assert esp == pytest.approx(expected)

    def test_ideal_probability_factor(self):
        device = make_noiseless_device(Topology.line(1))
        circuit = Circuit(1).h(0).measure(0)
        esp = estimated_success_probability(circuit, device, "0")
        assert esp == pytest.approx(0.5, abs=1e-3)

    def test_wrong_answer_length_rejected(self):
        # One check guards every estimator: a short answer must not
        # index past its end, nor a long one score only its prefix.
        device = make_noiseless_device(Topology.line(2))
        for estimator in ANSWER_ESTIMATORS:
            for answer in ("1", "111"):
                with pytest.raises(ValueError, match="measures into 2 "):
                    estimator(bell_circuit(), device, answer)

    def test_circuit_wider_than_device_rejected(self):
        circuit = Circuit(7, name="wide").h(0).x(6).measure_all()
        device = ibmq5_tenerife()
        for estimator in ANSWER_ESTIMATORS:
            with pytest.raises(ValueError, match="spans 7 qubits.*only 5"):
                estimator(circuit, device, "0" * 7)
        with pytest.raises(ValueError, match="spans 7 qubits.*only 5"):
            sample_counts(circuit, device, trials=4)

    def test_no_measurement_rejected(self):
        device = make_noiseless_device(Topology.line(2))
        with pytest.raises(ValueError, match="no measurements"):
            estimated_success_probability(Circuit(2).h(0), device, "00")


class TestMonteCarlo:
    def test_bounds(self):
        device = make_device(Topology.line(2), two_qubit_error=0.2)
        estimate = monte_carlo_success_rate(
            bell_circuit(), device, "11", fault_samples=50
        )
        assert 0.0 <= estimate.success_rate <= 1.0
        assert estimate.ideal_rate == pytest.approx(1.0)

    def test_noiseless_gives_ideal(self):
        device = make_noiseless_device(Topology.line(2))
        estimate = monte_carlo_success_rate(
            bell_circuit(), device, "11", fault_samples=10
        )
        assert estimate.success_rate == pytest.approx(1.0, abs=1e-3)

    def test_mc_at_least_esp(self):
        # Faulty runs still succeed occasionally, so the Monte-Carlo
        # estimate should not fall meaningfully below the ESP.
        device = make_device(Topology.line(2), two_qubit_error=0.15)
        circuit = bell_circuit()
        estimate = monte_carlo_success_rate(
            circuit, device, "11", fault_samples=200
        )
        assert estimate.success_rate >= estimate.esp - 0.02

    def test_more_gates_lower_success(self):
        device = make_device(Topology.line(2), two_qubit_error=0.1)
        short = Circuit(2).x(0).cx(0, 1).measure_all()
        long = Circuit(2).x(0)
        for _ in range(9):
            long.cx(0, 1)
        long.measure_all()
        sr_short = monte_carlo_success_rate(
            short, device, "11", fault_samples=100
        ).success_rate
        sr_long = monte_carlo_success_rate(
            long, device, "11", fault_samples=100
        ).success_rate
        assert sr_long < sr_short

    def test_readout_error_reduces_success(self):
        clean = make_device(Topology.line(2), readout_error=1e-5,
                            two_qubit_error=1e-5, single_qubit_error=1e-5)
        noisy_ro = make_device(Topology.line(2), readout_error=0.2,
                               two_qubit_error=1e-5, single_qubit_error=1e-5)
        circuit = bell_circuit()
        sr_clean = monte_carlo_success_rate(
            circuit, clean, "11", fault_samples=10
        ).success_rate
        sr_noisy = monte_carlo_success_rate(
            circuit, noisy_ro, "11", fault_samples=10
        ).success_rate
        # Two readouts at 0.2 error -> ~0.64 success.
        assert sr_clean == pytest.approx(1.0, abs=1e-3)
        assert sr_noisy == pytest.approx(0.64, abs=0.02)

    def test_deterministic_given_seed(self):
        device = make_device(Topology.line(2), two_qubit_error=0.2)
        a = monte_carlo_success_rate(
            bell_circuit(), device, "11", fault_samples=30, seed=9
        )
        b = monte_carlo_success_rate(
            bell_circuit(), device, "11", fault_samples=30, seed=9
        )
        assert a.success_rate == b.success_rate

    def test_estimate_metadata(self):
        device = make_device(Topology.line(2), two_qubit_error=0.2)
        estimate = monte_carlo_success_rate(
            bell_circuit(), device, "11", fault_samples=25
        )
        assert estimate.fault_samples == 25
        assert 0 < estimate.no_fault_probability < 1
        assert estimate.esp <= estimate.no_fault_probability
