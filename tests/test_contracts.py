"""Pass contracts: stage checks, modes, fault injection, plumbing."""

import dataclasses

import pytest

from repro.compiler import CompileOptions, OptimizationLevel, TriQCompiler
from repro.compiler.mapping import InitialMapping, default_mapping
from repro.compiler.reliability import compute_reliability
from repro.compiler.routing import route_circuit
from repro.contracts import (
    CONTRACT_FAULT_ENV,
    ContractError,
    ContractMode,
    ContractRecorder,
    MappingContractError,
    OneQubitContractError,
    RoutingContractError,
    SchedulingContractError,
    SemanticsContractError,
    TranslationContractError,
    check_codegen,
    check_mapping,
    check_onequbit,
    check_routing,
    check_scheduling,
    check_semantics,
    check_translation,
)
from repro.contracts.errors import ERROR_CODES, CodegenParseError
from repro.devices import (
    ibmq5_tenerife,
    ibmq16_rueschlikon,
    rigetti_agave,
    umd_trapped_ion,
)
from repro.ir import Circuit
from repro.ir.decompose import decompose_to_basis
from repro.ir.instruction import Instruction
from repro.programs import bernstein_vazirani, hidden_shift
from repro.sim.batch import compact_register
from repro.verify import CompilationError, verify_compilation

INJECTABLE_STAGES = (
    "mapping", "routing", "scheduling", "translate", "onequbit", "codegen",
)


def bell():
    return Circuit(2).h(0).cx(0, 1).measure_all()


def routed(circuit, device):
    return route_circuit(
        circuit,
        device,
        default_mapping(circuit, device),
        compute_reliability(device),
    )


class TestContractMode:
    def test_coerce(self):
        assert ContractMode.coerce(None) is ContractMode.OFF
        assert ContractMode.coerce("strict") is ContractMode.STRICT
        assert ContractMode.coerce("WARN") is ContractMode.WARN
        assert ContractMode.coerce(ContractMode.OFF) is ContractMode.OFF

    def test_coerce_rejects_unknown(self):
        with pytest.raises(ValueError, match="contract mode"):
            ContractMode.coerce("loose")

    def test_enabled(self):
        assert ContractMode.STRICT.enabled
        assert ContractMode.WARN.enabled
        assert not ContractMode.OFF.enabled

    def test_off_never_invokes_check(self):
        recorder = ContractRecorder(ContractMode.OFF)
        calls = []
        recorder.run(lambda: calls.append(1))
        assert calls == [] and recorder.violations == []

    def test_strict_propagates(self):
        recorder = ContractRecorder(ContractMode.STRICT)

        def boom():
            raise MappingContractError("bad placement")

        with pytest.raises(MappingContractError):
            recorder.run(boom)

    def test_warn_records_summary(self):
        recorder = ContractRecorder(ContractMode.WARN)

        def boom():
            raise MappingContractError("bad placement")

        recorder.run(boom)
        assert recorder.violations == ["MAP001 mapping: bad placement"]


class TestErrorHierarchy:
    def test_codes_are_stable(self):
        for code, cls in ERROR_CODES.items():
            assert cls("x").code == code

    def test_dual_inheritance_keeps_valueerror(self):
        # Pre-contract callers catching ValueError must keep working.
        assert issubclass(MappingContractError, ValueError)
        assert issubclass(TranslationContractError, ValueError)
        assert issubclass(CodegenParseError, ValueError)

    def test_describe_carries_context(self):
        err = TranslationContractError(
            "gate 'h' is not software-visible",
            device="IBM Q5 Tenerife",
            instruction="h (0,)",
            qubits=(0,),
            hint="translate before emitting",
        )
        text = err.describe()
        assert "TRANS001" in text
        assert "IBM Q5 Tenerife" in text
        assert "h (0,)" in text
        assert "translate before emitting" in text


class TestStageChecks:
    def test_clean_mapping_passes(self):
        device = ibmq5_tenerife()
        circuit = bell()
        check_mapping(default_mapping(circuit, device), circuit, device)

    def test_mapping_wrong_length(self):
        device = ibmq5_tenerife()
        mapping = InitialMapping((0,), device.num_qubits)
        with pytest.raises(MappingContractError, match="1 entries"):
            check_mapping(mapping, bell(), device)

    def test_clean_routing_and_scheduling_pass(self):
        device = ibmq5_tenerife()
        circuit = decompose_to_basis(bernstein_vazirani(4)[0])
        result = routed(circuit, device)
        check_routing(result, device)
        check_scheduling(circuit, result, device)

    def test_routing_swap_count_lie(self):
        device = ibmq5_tenerife()
        circuit = decompose_to_basis(bernstein_vazirani(4)[0])
        result = routed(circuit, device)
        lied = dataclasses.replace(result, num_swaps=result.num_swaps + 1)
        with pytest.raises(RoutingContractError, match="swaps"):
            check_routing(lied, device)

    def test_scheduling_dropped_instruction(self):
        device = ibmq5_tenerife()
        circuit = decompose_to_basis(bell())
        result = routed(circuit, device)
        pruned = Circuit(
            result.circuit.num_qubits,
            instructions=list(result.circuit.instructions)[1:],
        )
        broken = dataclasses.replace(result, circuit=pruned)
        with pytest.raises(SchedulingContractError, match="stream changed"):
            check_scheduling(circuit, broken, device)

    def test_translation_rejects_foreign_gate(self):
        device = ibmq5_tenerife()
        with pytest.raises(TranslationContractError, match="software-visible"):
            check_translation(Circuit(2).h(0), device)

    def test_onequbit_perturbed_rotation(self):
        device = rigetti_agave()
        before = Circuit(2)
        before.add("rx", (0,), (0.5,))
        before.cx(0, 1)
        after = Circuit(2)
        after.add("rx", (0,), (0.8,))
        after.cx(0, 1)
        with pytest.raises(OneQubitContractError, match="changed unitary"):
            check_onequbit(before, after, device)

    def test_codegen_roundtrip_all_vendors(self):
        for device in (ibmq5_tenerife(), rigetti_agave(), umd_trapped_ion()):
            program = TriQCompiler(device).compile(bell())
            check_codegen(program.circuit, device)

    def test_semantics_divergence(self):
        device = umd_trapped_ion()
        source = bell()
        wrong = Circuit(2).x(0).measure_all()
        with pytest.raises(SemanticsContractError, match="diverged"):
            check_semantics(decompose_to_basis(source), wrong, device)

    def test_semantics_skips_unmeasured(self):
        device = umd_trapped_ion()
        check_semantics(Circuit(2).h(0), Circuit(2).x(0), device)

    def test_compact_register_preserves_wiring(self):
        circuit = Circuit(5)
        circuit.x(3)
        circuit.measure(3, 0)
        compact, index = compact_register(circuit)
        assert index == {3: 0}
        assert compact.num_qubits < circuit.num_qubits
        assert compact.instructions[1] == Instruction(
            "measure", (0,), (), (0,)
        )


def _swap_cbits(circuit, a, b):
    """``circuit`` with the measurements into cbits ``a`` and ``b``
    writing into each other's bit."""
    swap = {a: b, b: a}
    out = Circuit(circuit.num_qubits, name=circuit.name)
    for inst in circuit:
        if inst.is_measurement:
            inst = dataclasses.replace(
                inst, cbits=tuple(swap.get(c, c) for c in inst.cbits)
            )
        out.append(inst)
    return out


class TestWideRegisterSemantics:
    """The semantic checks on a 16-qubit hardware register, which
    :func:`repro.sim.ideal_distribution` compacts before simulating."""

    @pytest.fixture(scope="class")
    def compiled(self):
        source, answer = hidden_shift(4, shift="1100")
        device = ibmq16_rueschlikon()
        program = TriQCompiler(device).compile(source)
        assert program.circuit.num_qubits == 16
        return source, answer, program

    def test_unmodified_program_passes(self, compiled):
        source, _, program = compiled
        check_semantics(decompose_to_basis(source), program.circuit,
                        program.device)
        assert verify_compilation(source, program).ok

    def test_swapped_cbits_fail_both_checks(self, compiled):
        source, answer, program = compiled
        # The answer differs in cbits 1 and 2, so the swap is visible.
        assert answer[1] != answer[2]
        broken = dataclasses.replace(
            program, circuit=_swap_cbits(program.circuit, 1, 2)
        )
        with pytest.raises(SemanticsContractError, match="diverged"):
            check_semantics(decompose_to_basis(source), broken.circuit,
                            program.device)
        with pytest.raises(CompilationError, match="differ"):
            verify_compilation(source, broken)


class TestPipelineIntegration:
    @pytest.mark.parametrize("device_fn", [
        ibmq5_tenerife, rigetti_agave, umd_trapped_ion,
    ])
    @pytest.mark.parametrize("level", list(OptimizationLevel))
    def test_strict_clean_compiles(self, device_fn, level):
        device = device_fn()
        program = TriQCompiler(
            device, level=level, options=CompileOptions(contracts="strict")
        ).compile(bernstein_vazirani(4)[0])
        assert program.contract_violations == ()

    @pytest.mark.parametrize("stage", INJECTABLE_STAGES)
    def test_injected_fault_caught_strict(self, stage, monkeypatch):
        monkeypatch.setenv(CONTRACT_FAULT_ENV, stage)
        device = ibmq5_tenerife()
        with pytest.raises(ContractError):
            TriQCompiler(
                device, options=CompileOptions(contracts="strict")
            ).compile(
                bernstein_vazirani(4)[0]
            )

    @pytest.mark.parametrize("stage", INJECTABLE_STAGES)
    def test_injected_fault_recorded_warn(self, stage, monkeypatch):
        monkeypatch.setenv(CONTRACT_FAULT_ENV, stage)
        device = ibmq5_tenerife()
        program = TriQCompiler(
            device, options=CompileOptions(contracts="warn")
        ).compile(
            bernstein_vazirani(4)[0]
        )
        assert program.contract_violations

    def test_off_mode_ignores_injection(self, monkeypatch):
        monkeypatch.setenv(CONTRACT_FAULT_ENV, "onequbit")
        device = ibmq5_tenerife()
        program = TriQCompiler(device).compile(bernstein_vazirani(4)[0])
        assert program.contract_violations == ()

    def test_payload_roundtrip_keeps_violations(self):
        device = ibmq5_tenerife()
        program = TriQCompiler(device).compile(bell())
        stamped = dataclasses.replace(
            program, contract_violations=("MAP001 mapping: synthetic",)
        )
        payload = stamped.to_payload()
        from repro.compiler import CompiledProgram

        restored = CompiledProgram.from_payload(payload, device)
        assert restored.contract_violations == (
            "MAP001 mapping: synthetic",
        )

    def test_old_payload_without_violations_loads(self):
        device = ibmq5_tenerife()
        program = TriQCompiler(device).compile(bell())
        payload = program.to_payload()
        payload.pop("contract_violations")
        from repro.compiler import CompiledProgram

        restored = CompiledProgram.from_payload(payload, device)
        assert restored.contract_violations == ()


class TestRunnerIntegration:
    def test_baselines_get_posthoc_checks(self, monkeypatch):
        from repro.experiments.runner import compile_with
        from repro.programs import benchmark_by_name

        circuit, _ = benchmark_by_name("BV4").build()
        device = ibmq5_tenerife()
        clean = compile_with(
            circuit, device, "qiskit", options=CompileOptions(contracts="warn")
        )
        assert clean.contract_violations == ()
        monkeypatch.setenv(CONTRACT_FAULT_ENV, "codegen")
        faulted = compile_with(
            circuit, device, "qiskit", options=CompileOptions(contracts="warn")
        )
        assert any("CODEGEN" in v for v in faulted.contract_violations)

    def test_sweep_warn_records_violations(self, monkeypatch):
        from repro.experiments.parallel import run_sweep

        monkeypatch.setenv(CONTRACT_FAULT_ENV, "onequbit")
        report = run_sweep(
            rigetti_agave(),
            [OptimizationLevel.OPT_1Q],
            benchmarks=["BV4"],
            with_success=False,
            options=CompileOptions(contracts="warn"),
        )
        assert report.measurements[0].contract_violations
        assert not report.failures

    def test_sweep_strict_turns_violation_into_failure(self, monkeypatch):
        from repro.experiments.parallel import run_sweep

        monkeypatch.setenv(CONTRACT_FAULT_ENV, "onequbit")
        report = run_sweep(
            rigetti_agave(),
            [OptimizationLevel.OPT_1Q],
            benchmarks=["BV4"],
            with_success=False,
            options=CompileOptions(contracts="strict"),
        )
        assert report.failures
        assert report.failures[0].error_type == "OneQubitContractError"

    def test_off_mode_task_digest_unchanged(self):
        # Journals written before the contracts layer must still resume.
        from repro.cache.keys import digest
        from repro.experiments.journal import task_digest
        from repro.experiments.parallel import SweepTask

        task = SweepTask(
            benchmark="BV4", device="IBM Q5 Tenerife", day=0,
            compiler="TriQ-1QOptCN", fault_samples=100, with_success=True,
            compile_seed=0, mc_seed=1234,
        )
        # The mapper field (added later) is likewise digest-invisible
        # at its default, so pre-portfolio journals also still resume.
        legacy = {
            k: v
            for k, v in dataclasses.asdict(task).items()
            if k not in ("contracts", "mapper")
        }
        assert task_digest(task) == digest("sweep-cell", legacy)

    def test_cache_key_stable_when_contracts_off(self, tmp_path):
        from repro.cache import open_cache
        from repro.experiments.runner import compile_with_cache
        from repro.programs import benchmark_by_name

        circuit, _ = benchmark_by_name("BV4").build()
        device = ibmq5_tenerife()
        cache = open_cache(tmp_path)
        _, hit = compile_with_cache(circuit, device,
                                    OptimizationLevel.OPT_1QCN, cache=cache)
        assert hit is False
        # Off-mode (default) recompile hits the same artifact; an
        # enabled mode takes a distinct key.
        _, hit = compile_with_cache(circuit, device,
                                    OptimizationLevel.OPT_1QCN, cache=cache)
        assert hit is True
        _, hit = compile_with_cache(
            circuit, device, OptimizationLevel.OPT_1QCN, cache=cache,
            options=CompileOptions(contracts="strict"),
        )
        assert hit is False
