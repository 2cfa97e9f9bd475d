"""Tests for the Pauli fault-injection noise model."""

import numpy as np
import pytest

from tests.helpers import make_device
from repro.compiler import OptimizationLevel, TriQCompiler
from repro.devices import Topology, all_devices
from repro.experiments.runner import fits
from repro.ir import Circuit
from repro.ir.instruction import Instruction
from repro.programs import standard_suite
from repro.sim.noise import (
    DistinctConfigs,
    NoiseModel,
    instruction_error_probability,
)


def calibration():
    return make_device(
        Topology.line(3),
        two_qubit_error=0.1,
        single_qubit_error=0.01,
        readout_error=0.05,
    ).calibration()


class TestErrorProbabilities:
    def test_virtual_z_is_free(self):
        cal = calibration()
        for name, params in (("rz", (0.3,)), ("u1", (0.3,)), ("t", ()),
                             ("s", ()), ("z", ())):
            inst = Instruction(name, (0,), params)
            assert instruction_error_probability(inst, cal) == 0.0

    def test_single_pulse_rate(self):
        cal = calibration()
        inst = Instruction("u2", (0,), (0.0, 0.1))
        assert instruction_error_probability(inst, cal) == pytest.approx(0.01)

    def test_u3_counts_two_pulses(self):
        cal = calibration()
        inst = Instruction("u3", (0,), (0.1, 0.2, 0.3))
        assert instruction_error_probability(inst, cal) == pytest.approx(
            1 - 0.99**2
        )

    def test_two_qubit_uses_edge_rate(self):
        cal = calibration()
        inst = Instruction("cx", (0, 1))
        assert instruction_error_probability(inst, cal) == pytest.approx(0.1)

    def test_swap_counts_three_gates(self):
        cal = calibration()
        inst = Instruction("swap", (1, 2))
        assert instruction_error_probability(inst, cal) == pytest.approx(
            1 - 0.9**3
        )

    def test_measure_and_barrier_free_here(self):
        cal = calibration()
        assert instruction_error_probability(
            Instruction("measure", (0,), (), (0,)), cal
        ) == 0.0
        assert instruction_error_probability(
            Instruction("barrier", ()), cal
        ) == 0.0


class TestNoiseModel:
    def device(self):
        return make_device(
            Topology.line(3),
            two_qubit_error=0.1,
            single_qubit_error=0.01,
            readout_error=0.05,
        )

    def test_locations_skip_free_gates(self):
        circuit = Circuit(3).h(0).rz(0.3, 0).cx(0, 1).measure_all()
        model = NoiseModel.from_device(self.device(), circuit)
        assert model.total_locations() == 2  # h and cx

    def test_no_fault_probability(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2)
        model = NoiseModel.from_device(self.device(), circuit)
        assert model.no_fault_probability() == pytest.approx(0.9 * 0.9)

    def test_readout_errors_recorded(self):
        circuit = Circuit(3).measure_all()
        model = NoiseModel.from_device(self.device(), circuit)
        assert model.readout_error[0] == pytest.approx(0.05)

    def test_sampling_deterministic_with_seeded_rng(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2).h(0)
        model = NoiseModel.from_device(self.device(), circuit)
        a = model.sample_faults(np.random.default_rng(7))
        b = model.sample_faults(np.random.default_rng(7))
        assert a == b

    def test_sample_faulty_configuration_never_empty(self):
        circuit = Circuit(3).cx(0, 1)
        model = NoiseModel.from_device(self.device(), circuit)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert model.sample_faulty_configuration(rng)

    def test_fault_rate_statistics(self):
        # Empirical fault frequency must track the error probability.
        circuit = Circuit(3).cx(0, 1)
        model = NoiseModel.from_device(self.device(), circuit)
        rng = np.random.default_rng(123)
        faults = sum(bool(model.sample_faults(rng)) for _ in range(4000))
        assert faults / 4000 == pytest.approx(0.1, abs=0.02)

    def test_two_qubit_faults_touch_gate_qubits_only(self):
        circuit = Circuit(3).cx(1, 2)
        model = NoiseModel.from_device(self.device(), circuit)
        rng = np.random.default_rng(5)
        for _ in range(50):
            for fault in model.sample_faulty_configuration(rng):
                for pauli in fault.paulis:
                    assert pauli.qubits[0] in (1, 2)

    def test_injections_format(self):
        circuit = Circuit(3).cx(0, 1)
        model = NoiseModel.from_device(self.device(), circuit)
        rng = np.random.default_rng(2)
        faults = model.sample_faulty_configuration(rng)
        injections = model.faults_as_injections(faults)
        position, inst = injections[0]
        assert position == 0
        assert inst.name in ("x", "y", "z")


def _grid_models():
    """Noise models of every device x fitting benchmark x level."""
    models = []
    for device in all_devices():
        for benchmark in standard_suite():
            circuit, _ = benchmark.build()
            if not fits(circuit, device):
                continue
            for level in OptimizationLevel:
                compiled = TriQCompiler(device, level=level).compile(circuit)
                models.append(
                    (
                        f"{benchmark.name}/{device.name}/{level.value}",
                        NoiseModel.from_device(device, compiled.circuit),
                    )
                )
    return models


class TestSamplerStream:
    """The (location, choice) sampler is the legacy per-location loop's
    exact twin: same faults, and the same Generator state (the
    ``has_uint32``/``uinteger`` buffer of ``rng.integers`` included)
    after every draw, so everything drawn afterwards matches too."""

    @staticmethod
    def _twins(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @staticmethod
    def _assert_same(model, legacy, config, legacy_rng, rng, label):
        configs = DistinctConfigs(model)
        assert configs.injections[configs.add(config)] == (
            model.faults_as_injections(legacy)
        ), label
        # Full state dict: PCG64 state, has_uint32 and uinteger.
        assert rng.bit_generator.state == legacy_rng.bit_generator.state, (
            label
        )

    def test_grid_matches_legacy_sampler(self):
        models = _grid_models()
        assert len({label.split("/")[1] for label, _ in models}) == 7
        fallbacks = 0
        for seed, (label, model) in enumerate(models):
            legacy_rng, rng = self._twins(seed)
            for draw in range(6):
                legacy = model.sample_faults(legacy_rng)
                config = model.sample_configuration(rng)
                self._assert_same(model, legacy, config, legacy_rng, rng,
                                  f"{label} unconditioned #{draw}")
                legacy = model.sample_faulty_configuration(legacy_rng)
                config, attempts = model.sample_faulty(rng)
                assert config and attempts >= 1
                self._assert_same(model, legacy, config, legacy_rng, rng,
                                  f"{label} conditioned #{draw}")
                # max_attempts=1 forces the fallback whenever the one
                # draw comes up clean; a peek on a copy counts those.
                peek = np.random.default_rng()
                peek.bit_generator.state = rng.bit_generator.state
                fallbacks += not model.sample_configuration(peek)
                legacy = model.sample_faulty_configuration(
                    legacy_rng, max_attempts=1
                )
                config, attempts = model.sample_faulty(rng, max_attempts=1)
                assert attempts == 1
                self._assert_same(model, legacy, config, legacy_rng, rng,
                                  f"{label} fallback #{draw}")
        assert fallbacks > 0

    def test_forced_fallback_on_a_clean_circuit(self):
        # Error rates this low never fault in 3 attempts: every
        # conditioned draw takes the fallback, then unconditioned draws
        # (all clean) must continue the identical stream.
        device = make_device(
            Topology.line(3),
            two_qubit_error=1e-12,
            single_qubit_error=1e-12,
            readout_error=0.05,
        )
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).h(2)
        model = NoiseModel.from_device(device, circuit)
        legacy_rng, rng = self._twins(11)
        for draw in range(20):
            legacy = model.sample_faulty_configuration(
                legacy_rng, max_attempts=3
            )
            config, attempts = model.sample_faulty(rng, max_attempts=3)
            assert attempts == 3 and len(config) == 1
            self._assert_same(model, legacy, config, legacy_rng, rng,
                              f"conditioned #{draw}")
            legacy = model.sample_faults(legacy_rng)
            config = model.sample_configuration(rng)
            assert config == () and legacy == []
            self._assert_same(model, legacy, config, legacy_rng, rng,
                              f"unconditioned #{draw}")

    def test_configs_deduplicate_and_remap(self):
        circuit = Circuit(3).cx(1, 2).h(1)
        model = NoiseModel.from_device(
            make_device(Topology.line(3), two_qubit_error=0.1,
                        single_qubit_error=0.01, readout_error=0.05),
            circuit,
        )
        configs = DistinctConfigs(model, {1: 0, 2: 1})
        first = configs.add(((0, 14), (1, 2)))
        assert configs.add(((0, 14),)) == 1
        assert configs.add(((0, 14), (1, 2))) == first == 0
        assert len(configs) == 2
        # _PAULIS_2Q[14] is (z, z); choice 2 of a 1Q location is z.
        assert configs.injections[0] == [
            (0, Instruction("z", (0,))),
            (0, Instruction("z", (1,))),
            (1, Instruction("z", (0,))),
        ]
