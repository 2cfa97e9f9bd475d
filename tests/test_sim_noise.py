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
from repro.sim import noise
from repro.sim.noise import (
    DistinctConfigs,
    NoiseModel,
    _NoisyLocation,
    _RawReplay,
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


def _random_model(rng: np.random.Generator, num_locations: int, scale=1.0):
    """Mixed 1Q/2Q locations, rates log-uniform in [1e-4, 0.5]."""
    rates = np.exp(rng.uniform(np.log(1e-4), np.log(0.5), num_locations))
    return NoiseModel(
        [
            _NoisyLocation(
                i, (i, i + 1) if rng.random() < 0.4 else (i,),
                float(rate * scale),
            )
            for i, rate in enumerate(rates)
        ],
        {},
    )


#: PCG64's 128-bit LCG multiplier.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_with_zero_word(index: int) -> dict:
    """A PCG64 state whose raw word ``index`` is 0 (XSL-RR outputs 0
    when the stepped state's two halves are equal)."""
    half = 0x9E3779B97F4A7C15
    state, inc = (half << 64) | half, 0x5851F42D4C957F2D14057B7EF767814F
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(index + 1):
        state = ((state - inc) * inverse) % (1 << 128)
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class TestBlockSampler:
    """``sample_faulty_block`` replays the legacy rejection loop's
    stream from raw PCG64 words: the same faults, the same attempts and
    the same Generator state afterwards."""

    @staticmethod
    def _assert_matches_legacy(model, seed, count, max_attempts, warmup):
        block_rng = np.random.default_rng(seed)
        legacy_rng = np.random.default_rng(seed)
        rows_rng = np.random.default_rng(seed)
        for rng in (block_rng, legacy_rng, rows_rng):
            for _ in range(warmup):  # an odd count buffers half a word
                rng.integers(15)
        configs, attempts = model.sample_faulty_block(
            block_rng, count, max_attempts
        )
        legacy = [
            model.sample_faulty_configuration(legacy_rng, max_attempts)
            for _ in range(count)
        ]
        distinct = DistinctConfigs(model)
        assert [
            distinct.injections[distinct.add(config)] for config in configs
        ] == [model.faults_as_injections(faults) for faults in legacy]
        assert block_rng.bit_generator.state == legacy_rng.bit_generator.state
        assert (configs, attempts) == model._sample_faulty_rows(
            rows_rng, count, max_attempts
        )
        return attempts

    def test_randomized_models_match_legacy_stream(self):
        assert noise._block_sampler_bit_identical()
        rng = np.random.default_rng(2024)
        for trial in range(60):
            model = _random_model(rng, int(rng.integers(1, 121)))
            self._assert_matches_legacy(
                model,
                seed=int(rng.integers(2**31)),
                count=int(rng.integers(1, 200)),
                max_attempts=int(rng.choice([1, 3, 10_000])),
                warmup=trial % 3,
            )

    def test_max_attempts_fallback(self):
        rng = np.random.default_rng(7)
        model = _random_model(rng, 12, scale=1e-9)
        count, max_attempts = 40, 5
        attempts = self._assert_matches_legacy(
            model, seed=3, count=count, max_attempts=max_attempts, warmup=1
        )
        assert attempts == count * max_attempts

    def test_long_rejection_runs_span_blocks(self, monkeypatch):
        # Blocks of 64 words: most samples outrun their block.
        monkeypatch.setattr(noise, "_MAX_BLOCK_WORDS", 64)
        rng = np.random.default_rng(8)
        model = _random_model(rng, 30, scale=0.01)
        self._assert_matches_legacy(
            model, seed=5, count=25, max_attempts=10_000, warmup=0
        )

    def test_forced_self_check_failure_falls_back(self, monkeypatch):
        def wrong_replay(*args):
            configs, attempts = real_replay(*args)
            return configs[::-1], attempts

        real_replay = noise._replay_faulty_block
        monkeypatch.setattr(noise, "_BLOCK_SAMPLER_VERIFIED", None)
        monkeypatch.setattr(noise, "_replay_faulty_block", wrong_replay)
        assert noise._block_sampler_bit_identical() is False
        assert noise._BLOCK_SAMPLER_VERIFIED is False
        rng = np.random.default_rng(9)
        self._assert_matches_legacy(
            _random_model(rng, 20), seed=4, count=30, max_attempts=10_000,
            warmup=1,
        )

    def test_other_bit_generators_use_the_row_loop(self):
        model = _random_model(np.random.default_rng(10), 15)
        block_rng = np.random.Generator(np.random.MT19937(6))
        rows_rng = np.random.Generator(np.random.MT19937(6))
        assert model.sample_faulty_block(block_rng, 20) == (
            model._sample_faulty_rows(rows_rng, 20, 10_000)
        )
        assert np.array_equal(block_rng.random(8), rows_rng.random(8))

    @pytest.mark.parametrize("k", [3, 15])
    def test_lemire_rejection_on_a_crafted_word_list(self, k):
        # One location that always faults: word 0 is its row; word 1 is
        # 0, so the Lemire draw rejects its low half, then the buffered
        # high half, and takes the low half of word 2.
        qubits = (0,) if k == 3 else (0, 1)
        model = NoiseModel([_NoisyLocation(0, qubits, 0.999)], {})
        state = _pcg64_with_zero_word(1)
        twin = np.random.PCG64()
        twin.state = state
        replay = _RawReplay(twin, np.array([0.999]), [k], 10)
        replay.refill(3)
        words = replay.words
        assert words[1] == 0
        assert (words[0] >> np.uint64(11)) * 2.0**-53 < 0.999
        config, tries = replay.sample()
        assert (tries, replay.pos, replay.has32) == (1, 3, True)
        assert replay.buf32 == int(words[2]) >> 32
        # The real Generator agrees, state included.
        legacy_rng = np.random.Generator(np.random.PCG64())
        legacy_rng.bit_generator.state = state
        (fault,) = model.sample_faulty_configuration(legacy_rng)
        distinct = DistinctConfigs(model)
        assert distinct.injections[distinct.add(config)] == (
            model.faults_as_injections([fault])
        )
        block_rng = np.random.Generator(np.random.PCG64())
        block_rng.bit_generator.state = state
        assert model.sample_faulty_block(block_rng, 1) == ([config], 1)
        assert (
            block_rng.bit_generator.state == legacy_rng.bit_generator.state
        )
