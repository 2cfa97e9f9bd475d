"""Tests for the optional coherence-limit model."""

import math
from dataclasses import replace

import pytest

from tests.helpers import make_noiseless_device
from repro.devices import Topology, ibmq14_melbourne, umd_trapped_ion
from repro.ir import Circuit
from repro.programs import bernstein_vazirani
from repro.sim import (
    coherence_survival,
    estimated_success_probability,
    monte_carlo_success_rate,
)


class TestCoherenceSurvival:
    def test_formula(self):
        device = ibmq14_melbourne()
        circuit = Circuit(2).h(0).cx(0, 1).measure_all()
        expected = math.exp(
            -circuit.depth() * device.gate_time_us / device.coherence_time_us
        )
        assert coherence_survival(circuit, device) == pytest.approx(expected)

    def test_umdti_effectively_unlimited(self):
        # 1.5 s coherence vs microsecond-scale programs (paper Fig. 1).
        device = umd_trapped_ion()
        circuit, _ = bernstein_vazirani(5)
        assert coherence_survival(circuit, device) > 0.99

    def test_deeper_circuits_survive_less(self):
        device = ibmq14_melbourne()
        shallow = Circuit(2).cx(0, 1).measure_all()
        deep = Circuit(2)
        for _ in range(50):
            deep.cx(0, 1)
        deep.measure_all()
        assert coherence_survival(deep, device) < coherence_survival(
            shallow, device
        )


class TestCoherenceInEstimators:
    def test_esp_reduced_when_enabled(self):
        device = ibmq14_melbourne()
        circuit = Circuit(2).x(0).cx(0, 1).measure_all()
        without = estimated_success_probability(circuit, device, "11")
        with_coherence = estimated_success_probability(
            circuit, device, "11", include_coherence=True
        )
        assert with_coherence < without

    def test_mc_mixes_toward_uniform(self):
        # On an otherwise noiseless device with terrible coherence the
        # success rate approaches the survival-weighted mix.
        device = replace(
            make_noiseless_device(Topology.line(2)),
            coherence_time_us=1.0,
            gate_time_us=1.0,
        )
        circuit = Circuit(2).x(0).cx(0, 1).measure_all()
        estimate = monte_carlo_success_rate(
            circuit, device, "11", fault_samples=10, include_coherence=True
        )
        survival = coherence_survival(circuit, device)
        expected = survival * 1.0 + (1 - survival) * 0.25
        assert estimate.success_rate == pytest.approx(expected, abs=1e-3)

    def test_default_excludes_coherence(self):
        device = replace(
            make_noiseless_device(Topology.line(2)),
            coherence_time_us=1.0,
            gate_time_us=1.0,
        )
        circuit = Circuit(2).x(0).cx(0, 1).measure_all()
        estimate = monte_carlo_success_rate(
            circuit, device, "11", fault_samples=10
        )
        assert estimate.success_rate == pytest.approx(1.0, abs=1e-3)
