"""End-to-end pipeline tests: every level, every vendor, semantics."""

import pytest

from tests.helpers import make_device
from repro.compiler import (
    CompileOptions,
    OptimizationLevel,
    TriQCompiler,
    compile_circuit,
)
from repro.devices import (
    Topology,
    ibmq5_tenerife,
    ibmq14_melbourne,
    rigetti_agave,
    umd_trapped_ion,
)
from repro.devices.gatesets import VendorFamily
from repro.programs import bernstein_vazirani, toffoli_benchmark
from repro.sim import ideal_distribution

LEVELS = list(OptimizationLevel)
DEVICES = [
    ibmq5_tenerife,
    ibmq14_melbourne,
    rigetti_agave,
    umd_trapped_ion,
]


class TestLevelFlags:
    def test_table1_structure(self):
        assert not OptimizationLevel.N.optimizes_1q
        assert OptimizationLevel.OPT_1Q.optimizes_1q
        assert not OptimizationLevel.OPT_1Q.optimizes_communication
        assert OptimizationLevel.OPT_1QC.optimizes_communication
        assert not OptimizationLevel.OPT_1QC.noise_aware
        assert OptimizationLevel.OPT_1QCN.noise_aware


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("factory", DEVICES, ids=lambda f: f.__name__)
class TestSemanticsAcrossStack:
    def test_bv4_correct_everywhere(self, level, factory):
        device = factory()
        circuit, correct = bernstein_vazirani(4)
        program = compile_circuit(circuit, device, level=level)
        distribution = ideal_distribution(program.circuit)
        assert distribution[correct] == pytest.approx(1.0, abs=1e-9)

    def test_output_is_software_visible(self, level, factory):
        device = factory()
        circuit, _ = toffoli_benchmark()
        program = compile_circuit(circuit, device, level=level)
        for inst in program.circuit:
            assert device.gate_set.supports(inst.name), inst.name


class TestOptimizationOrdering:
    def test_1qopt_reduces_pulses(self):
        device = ibmq14_melbourne()
        circuit, _ = bernstein_vazirani(6)
        naive = compile_circuit(circuit, device, level=OptimizationLevel.N)
        opt = compile_circuit(
            circuit, device, level=OptimizationLevel.OPT_1Q
        )
        assert opt.one_qubit_pulse_count() < naive.one_qubit_pulse_count()
        # 1Q optimization does not change the 2Q gate structure.
        assert opt.two_qubit_gate_count() == naive.two_qubit_gate_count()

    def test_comm_opt_reduces_2q_gates_on_sparse_topology(self):
        device = ibmq14_melbourne()
        circuit, _ = bernstein_vazirani(6)
        default = compile_circuit(
            circuit, device, level=OptimizationLevel.OPT_1Q
        )
        comm = compile_circuit(
            circuit, device, level=OptimizationLevel.OPT_1QC
        )
        assert comm.two_qubit_gate_count() < default.two_qubit_gate_count()

    def test_fully_connected_needs_no_swaps_at_any_level(self):
        device = umd_trapped_ion()
        circuit, _ = bernstein_vazirani(5)
        for level in LEVELS:
            program = compile_circuit(circuit, device, level=level)
            assert program.num_swaps == 0

    def test_noise_aware_avoids_bad_edges(self):
        # Device with one great edge and otherwise bad ones: the
        # noise-aware mapper must use the great edge for a 2-qubit job.
        device = make_device(
            Topology.line(4), two_qubit_error=0.3, edge_errors={(2, 3): 0.02}
        )
        circuit, _ = bernstein_vazirani(2)
        program = compile_circuit(
            circuit, device, level=OptimizationLevel.OPT_1QCN
        )
        used = {
            frozenset(i.qubits)
            for i in program.circuit
            if i.is_unitary and i.num_qubits == 2
        }
        assert used == {frozenset((2, 3))}


class TestCompiledProgram:
    def test_metadata(self):
        device = rigetti_agave()
        circuit, _ = toffoli_benchmark()
        program = compile_circuit(circuit, device)
        assert program.source_name == "toffoli"
        assert program.level is OptimizationLevel.OPT_1QCN
        assert program.compile_time_s > 0
        assert program.depth() > 0
        assert len(program.final_placement) == circuit.num_qubits

    def test_executable_formats(self):
        circuit, _ = toffoli_benchmark()
        assert "OPENQASM" in compile_circuit(
            circuit, ibmq5_tenerife()
        ).executable()
        assert "DECLARE ro" in compile_circuit(
            circuit, rigetti_agave()
        ).executable()
        assert "XX" in compile_circuit(
            circuit, umd_trapped_ion()
        ).executable()

    def test_compilation_deterministic(self):
        device = ibmq14_melbourne()
        circuit, _ = bernstein_vazirani(6)
        a = compile_circuit(circuit, device)
        b = compile_circuit(circuit, device)
        assert [str(i) for i in a.circuit] == [str(i) for i in b.circuit]

    def test_day_changes_noise_aware_output(self):
        # Recompiling with fresh calibration data can change placement
        # (the paper recompiles before each experiment).
        device = ibmq14_melbourne()
        circuit, _ = bernstein_vazirani(6)
        placements = {
            compile_circuit(
                circuit, device, level=OptimizationLevel.OPT_1QCN, day=day
            ).initial_mapping.placement
            for day in range(6)
        }
        assert len(placements) > 1

    def test_too_large_circuit_rejected(self):
        circuit, _ = bernstein_vazirani(6)
        with pytest.raises(ValueError, match="needs 6 qubits"):
            compile_circuit(circuit, rigetti_agave())

    def test_reliability_matrices_cached(self):
        device = ibmq14_melbourne()
        compiler = TriQCompiler(device)
        first = compiler.reliability(True)
        assert compiler.reliability(True) is first
        assert compiler.reliability(False) is not first


class TestOptPresets:
    """The paper-era peephole/commute hooks now run only as passes of
    the ``--opt`` presets.  Suite-wide 2Q monotonicity and preserved
    answers are the differential battery's job
    (``tests/test_passes_differential.py``)."""

    @pytest.mark.parametrize("preset", ["basic", "full"])
    def test_preset_removes_source_redundancy(self, preset):
        # The paper's pipeline faithfully compiles redundant input
        # gates; the pass manager's peephole removes them.
        from repro.ir import Circuit

        device = umd_trapped_ion()
        circuit = Circuit(3).cx(0, 1).cx(0, 1).h(2).measure_all()
        plain = TriQCompiler(device).compile(circuit)
        cleaned = TriQCompiler(
            device, options=CompileOptions(opt=preset)
        ).compile(circuit)
        assert plain.two_qubit_gate_count() == 2
        assert cleaned.two_qubit_gate_count() == 0
        distribution = ideal_distribution(cleaned.circuit)
        assert distribution["000"] == pytest.approx(0.5)
        assert distribution["001"] == pytest.approx(0.5)


class TestFitCheck:
    def test_too_wide_circuit_is_one_value_error_and_no_log(self, caplog):
        device = make_device(Topology.line(4), VendorFamily.IBM)
        circuit, _ = bernstein_vazirani(6)
        for level in OptimizationLevel:
            caplog.clear()
            with caplog.at_level("DEBUG"):
                with pytest.raises(ValueError, match="needs 6 qubits"):
                    TriQCompiler(device, level=level).compile(circuit)
            assert caplog.records == []
