"""The differential fuzzing harness: generation, classification,
shrinking, reproducer artifacts."""

import json
import random

import pytest

from repro.compiler import CompileOptions
from repro.contracts import CONTRACT_FAULT_ENV
from repro.contracts.fuzz import (
    FuzzConfig,
    circuit_from_payload,
    circuit_to_payload,
    classify,
    random_circuit,
    replay_reproducer,
    run_fuzz,
    shrink_circuit,
)
from repro.devices import ibmq5_tenerife
from repro.ir import Circuit


class TestGeneration:
    def test_deterministic_in_seed(self):
        a = random_circuit(random.Random(42), 3, 10)
        b = random_circuit(random.Random(42), 3, 10)
        assert a.instructions == b.instructions

    def test_always_measured(self):
        circuit = random_circuit(random.Random(7), 2, 5)
        assert sum(1 for i in circuit if i.is_measurement) == 2

    def test_respects_width(self):
        circuit = random_circuit(random.Random(3), 4, 20)
        assert circuit.num_qubits == 4
        assert all(q < 4 for inst in circuit for q in inst.qubits)


class TestPayloadRoundtrip:
    def test_roundtrip(self):
        circuit = random_circuit(random.Random(1), 3, 8, name="rt")
        restored = circuit_from_payload(circuit_to_payload(circuit))
        assert restored.num_qubits == circuit.num_qubits
        assert restored.name == "rt"
        assert restored.instructions == circuit.instructions

    def test_payload_is_json_safe(self):
        circuit = random_circuit(random.Random(2), 2, 6)
        text = json.dumps(circuit_to_payload(circuit))
        assert circuit_from_payload(json.loads(text)).instructions == (
            circuit.instructions
        )


class TestClassify:
    def test_clean_compile_is_none(self):
        circuit = Circuit(2).h(0).cx(0, 1).measure_all()
        assert classify(circuit, ibmq5_tenerife(), "qiskit") is None

    def test_injected_fault_is_contract(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_FAULT_ENV, "codegen")
        circuit = Circuit(2).h(0).cx(0, 1).measure_all()
        from repro.compiler import OptimizationLevel

        outcome = classify(
            circuit, ibmq5_tenerife(), OptimizationLevel.OPT_1Q
        )
        assert outcome is not None
        kind, error = outcome
        assert kind == "contract"
        assert "CODEGEN003" in error

    def test_unmeasured_circuit_skips_differential(self):
        assert classify(Circuit(2).h(0), ibmq5_tenerife(), "qiskit") is None


class TestCampaign:
    def test_seeded_small_campaign_clean(self):
        config = FuzzConfig(
            circuits=3,
            seed=0,
            devices=["tenerife"],
            compilers=["TriQ-1QOptCN", "Qiskit"],
        )
        report = run_fuzz(config)
        assert report.ok
        assert report.attempts == 6

    def test_injected_fault_produces_shrunk_artifact(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(CONTRACT_FAULT_ENV, "codegen")
        config = FuzzConfig(
            circuits=1,
            seed=0,
            devices=["tenerife"],
            compilers=["TriQ-1QOpt"],
            artifact_dir=tmp_path,
        )
        report = run_fuzz(config)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.kind == "contract"
        assert finding.shrunk_instructions <= finding.original_instructions
        assert finding.artifact_path is not None
        payload = json.loads(open(finding.artifact_path).read())
        assert payload["kind"] == "contract"
        assert payload["device"] == "IBM Q5 Tenerife"
        # Replay: still fails with the fault in, clean with it out.
        assert replay_reproducer(finding.artifact_path) is not None
        monkeypatch.delenv(CONTRACT_FAULT_ENV)
        assert replay_reproducer(finding.artifact_path) is None

    def test_shrink_preserves_failure_kind(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_FAULT_ENV, "translate")
        from repro.compiler import OptimizationLevel

        circuit = random_circuit(random.Random(5), 3, 10)
        device = ibmq5_tenerife()
        level = OptimizationLevel.OPT_1Q
        outcome = classify(circuit, device, level)
        assert outcome is not None and outcome[0] == "contract"
        reduced = shrink_circuit(circuit, device, level, "contract")
        assert len(reduced.instructions) <= len(circuit.instructions)
        still = classify(reduced, device, level)
        assert still is not None and still[0] == "contract"

    def test_differential_detected_without_contracts(self):
        # A semantics bug that slips past an "off"-style compile is
        # still caught by the ideal-distribution cross-check: fake it
        # by classifying a miscompiled program through a monkeypatched
        # compiler label. Simplest real path: classify with warn mode
        # and a fault that only semantics would notice is covered above;
        # here assert the differential branch itself fires.
        from repro.contracts.fuzz import classify as classify_fn
        import repro.experiments.runner as runner_mod

        device = ibmq5_tenerife()
        source = Circuit(2).x(0).measure_all()
        real_compile_with = runner_mod.compile_with

        def miscompile(circuit, dev, compiler, **kwargs):
            program = real_compile_with(
                Circuit(2).measure_all(), dev, compiler
            )
            return program

        import unittest.mock as mock

        with mock.patch.object(
            runner_mod, "compile_with", side_effect=miscompile
        ):
            outcome = classify_fn(
                source, device, "qiskit", options=CompileOptions()
            )
        assert outcome is not None
        assert outcome[0] == "differential"
