"""Unit tests for the fixed-point optimization pass manager.

Covers each pass in isolation (state compression, commuting
cancellation, block resynthesis, 1Q coalescing), the manager's
fixed-point loop and cost accounting, and the OPT### contract wiring
(distribution preservation, 2Q monotonicity, convergence guard).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compiler.passes import (
    DEFAULT_MAX_ITERATIONS,
    OPT_PRESETS,
    PRESET_PIPELINES,
    CircuitPass,
    PassManager,
    build_pass_manager,
    cancel_commuting_gates,
    coalesce_rotations,
    compress_initial_state,
    preset_passes,
    resynthesize_blocks,
    validate_preset,
)
from repro.contracts.errors import (
    ERROR_CODES,
    PassConvergenceError,
    PassDistributionError,
    PassMonotonicityError,
)
from repro.contracts.mode import ContractMode, ContractRecorder
from repro.ir.circuit import Circuit
from repro.sim import circuit_unitary, ideal_distribution
from repro.verify import distribution_distance


def _names(circuit: Circuit):
    return [inst.name for inst in circuit]


def _assert_same_distribution(before: Circuit, after: Circuit):
    assert (
        distribution_distance(
            ideal_distribution(before), ideal_distribution(after)
        )
        < 1e-9
    )


def _assert_same_unitary(before: Circuit, after: Circuit):
    u, v = circuit_unitary(before), circuit_unitary(after)
    phase = v.conj().T @ u
    scale = phase[np.unravel_index(np.argmax(np.abs(phase)), phase.shape)]
    assert abs(abs(scale) - 1.0) < 1e-8
    assert np.allclose(u, scale * v, atol=1e-8)


class TestStateCompression:
    def test_drops_trivial_prefix_gates(self):
        c = Circuit(3)
        c.add("z", (0,))        # diagonal on |0>: global phase
        c.add("rz", (1,), (0.7,))
        c.add("cx", (0, 1))     # |0> control: identity
        c.add("cz", (0, 2))     # one operand |0>: identity
        c.add("h", (0,))        # evicts qubit 0
        c.add("cx", (0, 1))     # control no longer |0>: kept
        out = compress_initial_state(c)
        assert _names(out) == ["h", "cx"]

    def test_swap_exchanges_zero_membership(self):
        c = Circuit(2)
        c.add("h", (0,))
        c.add("swap", (0, 1))   # q1 now carries the |+>, q0 is |0>
        c.add("cx", (0, 1))     # |0> control again: identity
        c.measure_all()
        out = compress_initial_state(c)
        assert "cx" not in _names(out)
        _assert_same_distribution(c, out)

    def test_double_zero_swap_dropped(self):
        c = Circuit(2)
        c.add("swap", (0, 1))
        c.add("x", (0,))
        out = compress_initial_state(c)
        assert _names(out) == ["x"]

    def test_noop_returns_same_object(self):
        c = Circuit(2)
        c.add("h", (0,))
        c.add("cx", (0, 1))
        assert compress_initial_state(c) is c


class TestCommuteCancel:
    def test_cx_pair_cancels_through_control_rz(self):
        c = Circuit(2)
        c.add("cx", (0, 1))
        c.add("rz", (0,), (0.5,))   # commutes with the cx control
        c.add("cx", (0, 1))
        out = cancel_commuting_gates(c)
        assert _names(out) == ["rz"]

    def test_rotations_merge_through_commuting_cx(self):
        c = Circuit(2)
        c.add("rz", (0,), (0.4,))
        c.add("cx", (0, 1))         # Z on control commutes
        c.add("rz", (0,), (0.6,))
        out = cancel_commuting_gates(c)
        # The merged rotation lands at the first rz's slot.
        assert _names(out) == ["rz", "cx"]
        (rz,) = [i for i in out if i.name == "rz"]
        assert rz.params[0] == pytest.approx(1.0)
        _assert_same_unitary(c, out)

    def test_blocked_by_non_commuting_gate(self):
        c = Circuit(2)
        c.add("cx", (0, 1))
        c.add("rz", (1,), (0.5,))   # Z on the target does NOT commute
        c.add("cx", (0, 1))
        assert cancel_commuting_gates(c) is c

    def test_blocked_by_barrier(self):
        c = Circuit(2)
        c.add("h", (0,))
        c.barrier()
        c.add("h", (0,))
        assert cancel_commuting_gates(c) is c

    def test_shared_control_cnots_cancel_through_each_other(self):
        c = Circuit(3)
        c.add("cx", (0, 1))
        c.add("cx", (0, 2))         # shares only the control: commutes
        c.add("cx", (0, 1))
        out = cancel_commuting_gates(c)
        assert _names(out) == ["cx"]
        assert out.instructions[0].qubits == (0, 2)

    def test_preserves_distribution_on_random_circuits(self):
        import random

        from repro.contracts.fuzz import random_circuit

        for seed in range(12):
            rng = random.Random(seed)
            c = random_circuit(rng, 3, 10)
            out = cancel_commuting_gates(c)
            _assert_same_distribution(c, out)


class TestBlockResynthesis:
    def test_identity_block_removed(self):
        c = Circuit(2)
        c.add("cx", (0, 1))
        c.add("cx", (0, 1))
        out = resynthesize_blocks(c)
        assert len(out) == 0

    def test_three_cx_reduce_to_one(self):
        # cx(0,1) rz(1) cx(0,1) is locals + <=1 cx away from identity
        # only in special cases; use the canonical compressible block:
        # cx(0,1) cx(1,0) cx(0,1) = swap, which is NOT <=1 cx — so check
        # a block that genuinely reduces: cx · (I x rz) · cx with a
        # Z rotation on the *control* collapses to locals.
        c = Circuit(2)
        c.add("cx", (0, 1))
        c.add("rz", (0,), (0.9,))
        c.add("cx", (0, 1))
        out = resynthesize_blocks(c)
        assert out.num_two_qubit_gates() == 0
        _assert_same_unitary(c, out)

    def test_single_cx_block_left_alone(self):
        c = Circuit(2)
        c.add("cx", (0, 1))
        c.add("rz", (1,), (0.3,))
        assert resynthesize_blocks(c) is c

    def test_cx_times_locals_peels_to_one_cx(self):
        c = Circuit(2)
        c.add("cx", (0, 1))
        c.add("rx", (1,), (0.4,))
        c.add("cx", (0, 1))
        c.add("cx", (0, 1))  # the pair after rx is identity
        out = resynthesize_blocks(c)
        assert out.num_two_qubit_gates() <= 1
        _assert_same_unitary(c, out)

    def test_disjoint_instructions_interleave(self):
        c = Circuit(3)
        c.add("cx", (0, 1))
        c.add("h", (2,))            # disjoint: skipped over
        c.add("cx", (0, 1))
        out = resynthesize_blocks(c)
        assert _names(out) == ["h"]

    def test_never_increases_two_qubit_count(self):
        import random

        from repro.contracts.fuzz import random_circuit
        from repro.ir.decompose import decompose_to_basis

        for seed in range(12):
            rng = random.Random(100 + seed)
            c = decompose_to_basis(random_circuit(rng, 3, 12))
            out = resynthesize_blocks(c)
            assert out.num_two_qubit_gates() <= c.num_two_qubit_gates()
            _assert_same_distribution(c, out)


class TestCoalesce1Q:
    def test_merges_run_to_single_rotation(self):
        c = Circuit(1)
        c.add("h", (0,))
        c.add("h", (0,))
        c.add("t", (0,))
        c.add("t", (0,))
        out = coalesce_rotations(c)
        assert len(out) == 1
        assert out.instructions[0].name == "rz"
        assert out.instructions[0].params[0] == pytest.approx(math.pi / 2)

    def test_keeps_run_when_not_strictly_shorter(self):
        c = Circuit(1)
        c.add("h", (0,))
        assert coalesce_rotations(c) is c

    def test_run_flushes_at_two_qubit_gate(self):
        c = Circuit(2)
        c.add("t", (0,))
        c.add("t", (0,))
        c.add("cx", (0, 1))
        c.add("t", (0,))
        out = coalesce_rotations(c)
        assert _names(out) == ["rz", "cx", "t"]
        _assert_same_unitary(c, out)

    def test_identity_run_dropped(self):
        c = Circuit(1)
        c.add("x", (0,))
        c.add("x", (0,))
        out = coalesce_rotations(c)
        assert len(out) == 0


class TestPresets:
    def test_preset_names(self):
        assert OPT_PRESETS == ("none", "basic", "full")
        assert set(PRESET_PIPELINES) == set(OPT_PRESETS)

    def test_validate_preset_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown optimization preset"):
            validate_preset("aggressive")

    def test_basic_is_prefix_family_of_full(self):
        basic = {p.name for p in preset_passes("basic")}
        full = {p.name for p in preset_passes("full")}
        assert basic < full
        assert preset_passes("none") == ()

    def test_build_pass_manager_none_is_none(self):
        assert build_pass_manager("none") is None
        assert build_pass_manager("full") is not None


class TestPassManager:
    def _bell_with_junk(self):
        c = Circuit(2)
        c.add("z", (0,))            # state compression food
        c.add("h", (0,))
        c.add("cx", (0, 1))
        c.add("rz", (0,), (0.3,))
        c.add("rz", (0,), (-0.3,))  # cancels
        c.measure_all()
        return c

    def test_reaches_fixed_point_and_accounts(self):
        manager = build_pass_manager("full")
        c = self._bell_with_junk()
        out = manager.run(c)
        assert manager.converged
        assert manager.iterations <= DEFAULT_MAX_ITERATIONS
        assert manager.gates_removed() == len(c) - len(out)
        rows = manager.stats_rows()
        assert [row[0] for row in rows] == [
            p.name for p in preset_passes("full")
        ]
        assert all(row[1] >= 1 for row in rows)  # every pass ran
        _assert_same_distribution(c, out)

    def test_idempotent_on_own_output(self):
        manager = build_pass_manager("full")
        once = manager.run(self._bell_with_junk())
        second = build_pass_manager("full")
        twice = second.run(once)
        assert list(twice) == list(once)
        assert second.iterations == 1  # no rewrites: first sweep is clean

    def test_strict_recorder_passes_clean_pipeline(self):
        manager = build_pass_manager("full", device="unit-test")
        recorder = ContractRecorder(ContractMode.STRICT)
        manager.run(self._bell_with_junk(), recorder=recorder)

    def test_distribution_violation_raises_opt001(self):
        bad = CircuitPass(
            "bad-flip",
            lambda c: Circuit(
                c.num_qubits,
                instructions=[i for i in c if i.name != "h"],
                name=c.name,
            ),
        )
        manager = PassManager([bad], device="unit-test")
        recorder = ContractRecorder(ContractMode.STRICT)
        with pytest.raises(PassDistributionError) as err:
            manager.run(self._bell_with_junk(), recorder=recorder)
        assert err.value.code == "OPT001"

    def test_monotonicity_violation_raises_opt002(self):
        def add_cx(c):
            out = Circuit(c.num_qubits, instructions=list(c), name=c.name)
            out.add("cx", (0, 1))
            out.add("cx", (0, 1))
            return out

        manager = PassManager([CircuitPass("bad-grow", add_cx)])
        recorder = ContractRecorder(ContractMode.STRICT)
        c = Circuit(2)
        c.add("h", (0,))
        with pytest.raises(PassMonotonicityError) as err:
            manager.run(c, recorder=recorder)
        assert err.value.code == "OPT002"

    def test_nonconvergence_raises_opt003(self):
        def oscillate(c):
            # Flips x <-> y forever: never reaches a fixed point.
            out = Circuit(c.num_qubits, name=c.name)
            out.add("y" if c.instructions[0].name == "x" else "x", (0,))
            return out

        manager = PassManager(
            [CircuitPass("oscillator", oscillate)], max_iterations=3
        )
        c = Circuit(1)
        c.add("x", (0,))
        out = manager.run(c)  # no recorder: guard trips silently
        assert not manager.converged
        recorder = ContractRecorder(ContractMode.STRICT)
        with pytest.raises(PassConvergenceError) as err:
            manager.run(out, recorder=recorder)
        assert err.value.code == "OPT003"

    def test_warn_mode_records_instead_of_raising(self):
        def drop_h(c):
            return Circuit(
                c.num_qubits,
                instructions=[i for i in c if i.name != "h"],
                name=c.name,
            )

        manager = PassManager([CircuitPass("bad-flip", drop_h)])
        recorder = ContractRecorder(ContractMode.WARN)
        manager.run(self._bell_with_junk(), recorder=recorder)
        assert any("OPT001" in v for v in recorder.violations)

    def test_max_iterations_validated(self):
        with pytest.raises(ValueError):
            PassManager([], max_iterations=0)


class TestErrorCodeRegistry:
    def test_opt_codes_registered(self):
        for code in ("OPT001", "OPT002", "OPT003"):
            assert code in ERROR_CODES

