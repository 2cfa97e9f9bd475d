"""Property tests for the batched statevector engine (Hypothesis).

Three families of invariants over randomly drawn states, gates, and
circuits:

* **Batch independence / linearity** — the batch dimension is inert:
  row ``i`` of ``apply_unitary_batch`` equals the scalar
  ``apply_unitary`` on row ``i`` (bit for bit, the engine's core
  promise), each row of a batch with injected Pauli faults has the
  scalar faulty run's ``|amplitude|**2`` bit for bit, and concatenating
  two batches equals concatenating their results.
* **Pauli gathers** — every 2Q Pauli pair a noise location draws, Y
  on either qubit included, matches the scalar faulty run in
  ``|amplitude|**2``.
* **Permutation invariance** — reordering the fault sets of
  ``simulate_statevector_batch`` just reorders the output rows.
* **Density-matrix agreement** — on 2-qubit circuits the clean batched
  probabilities match :mod:`repro.sim.density`'s exact pure-state
  density evolution.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.contracts.fuzz import random_circuit
from repro.ir import Circuit, gate_matrix
from repro.ir.instruction import Instruction
from repro.sim.batch import (
    apply_unitary_batch,
    probabilities_from_states,
    simulate_statevector_batch,
    zero_states,
)
from repro.sim.density import apply_unitary_to_density, zero_density
from repro.sim.noise import _candidate_paulis
from repro.sim.statevector import apply_unitary, simulate_statevector

#: Gate pool with representative arities (params where required).
_GATES = [
    ("x", 1, ()),
    ("h", 1, ()),
    ("t", 1, ()),
    ("rz", 1, (0.7,)),
    ("cx", 2, ()),
    ("cz", 2, ()),
]


def _random_states(seed: int, batch: int, num_qubits: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(batch, 2**num_qubits)) + 1j * rng.normal(
        size=(batch, 2**num_qubits)
    )
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def _pauli_injections(num_qubits: int, length: int):
    """Strategy: one row's ``(position, Pauli)`` injections."""
    return st.lists(
        st.tuples(
            st.integers(0, length - 1),
            st.sampled_from("xyz"),
            st.integers(0, num_qubits - 1),
        ).map(lambda t: (t[0], Instruction(t[1], (t[2],)))),
        max_size=6,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 7),
    num_qubits=st.integers(1, 6),
    gate=st.sampled_from(_GATES),
    data=st.data(),
)
def test_batch_rows_match_scalar_kernel(seed, batch, num_qubits, gate, data):
    """Row ``i`` of the batched kernel, and of a faulty batched run,
    matches the scalar engine bit for bit — with the wide-GEMM
    self-check run for real (it passes on the BLAS builds CI uses) and
    with it forced to fail (the per-row scalar fallback)."""
    import repro.sim.batch as batch_module

    name, arity, params = gate
    if arity > num_qubits:
        num_qubits = arity
    qubits = data.draw(
        st.permutations(range(num_qubits)).map(lambda p: tuple(p[:arity]))
    )
    states = _random_states(seed, batch, num_qubits)
    matrix = gate_matrix(name, params)

    # Fault injection: drawn rows (several Paulis may share a row and
    # position) that all carry one shared (pauli, qubit), one row per
    # Pauli per qubit, and a non-Pauli injection on either side of an X
    # (order-sensitive even in |amplitude|**2).
    circuit = Circuit(num_qubits)
    for _ in range(data.draw(st.integers(1, 5))):
        g_name, g_arity, g_params = data.draw(
            st.sampled_from([g for g in _GATES if g[1] <= num_qubits])
        )
        g_qubits = data.draw(
            st.permutations(range(num_qubits)).map(
                lambda p, a=g_arity: tuple(p[:a])
            )
        )
        circuit.append(Instruction(g_name, g_qubits, g_params))
    length = len(circuit)
    shared = data.draw(_pauli_injections(num_qubits, length).filter(bool))[0]
    fault_sets = [
        [shared] + data.draw(_pauli_injections(num_qubits, length))
        for _ in range(batch)
    ] + [
        [(length - 1, Instruction(pauli, (qubit,)))]
        for pauli in "xyz"
        for qubit in range(num_qubits)
    ] + [
        [(0, Instruction("h", (0,))), (0, Instruction("x", (0,)))],
        [(0, Instruction("x", (0,))), (0, Instruction("h", (0,)))],
    ]
    initial = states[0]

    for verified in (None, False):
        with mock.patch.object(
            batch_module, "_WIDE_KERNEL_VERIFIED", verified
        ):
            batched = apply_unitary_batch(states, matrix, qubits, num_qubits)
            for i in range(batch):
                scalar = apply_unitary(states[i], matrix, qubits, num_qubits)
                assert np.array_equal(batched[i], scalar)

            rows = simulate_statevector_batch(circuit, fault_sets, initial)
        for row, faults in zip(rows, fault_sets):
            scalar = simulate_statevector(
                circuit, initial_state=initial, faults=faults
            )
            # |amplitude|**2 bitwise: a Pauli may flip an exact zero's
            # sign, which no probability can see.
            assert (np.abs(row) ** 2).tobytes() == (
                np.abs(scalar) ** 2
            ).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    split=st.integers(1, 5),
    num_qubits=st.integers(2, 4),
)
def test_batch_concatenation_is_linear(seed, split, num_qubits):
    """Concatenating batches then applying == applying then
    concatenating: the kernel acts on each row independently."""
    states = _random_states(seed, split + 3, num_qubits)
    matrix = gate_matrix("cx")
    qubits = (0, 1)
    whole = apply_unitary_batch(states, matrix, qubits, num_qubits)
    parts = np.concatenate(
        [
            apply_unitary_batch(states[:split], matrix, qubits, num_qubits),
            apply_unitary_batch(states[split:], matrix, qubits, num_qubits),
        ]
    )
    assert np.array_equal(whole, parts)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_batch_order_permutation_invariance(seed):
    """Permuting the fault sets permutes the rows, nothing else."""
    rng = random.Random(seed)
    circuit = random_circuit(rng, 3, 8, name="perm")
    fault_sets = [
        None,
        [(0, Instruction("x", (0,)))],
        [(1, Instruction("z", (1,)))],
        [(0, Instruction("x", (0,))), (2, Instruction("y", (2,)))],
    ]
    order = list(range(len(fault_sets)))
    rng.shuffle(order)
    direct = simulate_statevector_batch(circuit, fault_sets)
    permuted = simulate_statevector_batch(
        circuit, [fault_sets[i] for i in order]
    )
    for row, original in enumerate(order):
        assert np.array_equal(permuted[row], direct[original])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_agrees_with_density_on_two_qubit_circuits(seed):
    """Clean batched evolution == exact density-matrix evolution."""
    rng = random.Random(seed)
    circuit = random_circuit(rng, 2, 6, name="dens")
    states = simulate_statevector_batch(circuit, [None, None])
    rho = zero_density(2)
    for inst in circuit:
        if inst.is_unitary:
            rho = apply_unitary_to_density(
                rho, gate_matrix(inst.name, inst.params), inst.qubits, 2
            )
    probabilities = probabilities_from_states(states)
    diagonal = np.real(np.diag(rho))
    for row in probabilities:
        np.testing.assert_allclose(row, diagonal, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_qubits=st.integers(2, 5),
    data=st.data(),
)
def test_two_qubit_pauli_pairs_match_scalar(seed, num_qubits, data):
    """Every 2Q Pauli pair a noise location can draw (Y on either qubit
    included), several per row and position, composes into one gather
    per position whose ``|amplitude|**2`` equals the scalar engine's."""
    rng = random.Random(seed)
    circuit = random_circuit(rng, num_qubits, 8, name="pairs")
    length = len(circuit)
    pairs = [
        (position, _candidate_paulis(qubits)[choice])
        for position, qubits, choice in data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, length - 1),
                    st.permutations(range(num_qubits)).map(
                        lambda p: tuple(p[:2])
                    ),
                    st.integers(0, 14),
                ),
                min_size=1,
                max_size=8,
            )
        )
    ]
    fault_sets = [
        [(position, pauli) for position, paulis in pairs[:cut]
         for pauli in paulis]
        for cut in range(len(pairs) + 1)
    ] + [
        # Every pair on qubits (0, 1) after the last instruction.
        [(length - 1, pauli) for pauli in paulis]
        for paulis in _candidate_paulis((0, 1))
    ]
    rows = simulate_statevector_batch(circuit, fault_sets)
    for row, faults in zip(rows, fault_sets):
        scalar = simulate_statevector(circuit, faults=faults)
        assert (np.abs(row) ** 2).tobytes() == (
            np.abs(scalar) ** 2
        ).tobytes()


def test_zero_states_are_ground_states():
    states = zero_states(3, 2)
    assert states.shape == (3, 4)
    assert np.array_equal(states[:, 0], np.ones(3))
    assert not states[:, 1:].any()


class TestBlasSelfCheck:
    """The wide-GEMM width-invariance is verified at runtime, not assumed.

    Bit-identity of the batched kernel rests on an empirical BLAS
    property (widening a matmul leaves existing columns unchanged).
    The module checks it once per process on this interpreter's BLAS
    and falls back to the per-row scalar path when it does not hold, so
    the reproducibility contract survives any BLAS build.
    """

    def test_self_check_runs_and_caches(self, monkeypatch):
        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "_WIDE_KERNEL_VERIFIED", None)
        first = batch._wide_kernel_bit_identical()
        assert isinstance(first, bool)
        assert batch._WIDE_KERNEL_VERIFIED is first
        assert batch._wide_kernel_bit_identical() is first

    def test_failed_self_check_falls_back_to_scalar(self, monkeypatch):
        import repro.sim.batch as batch

        monkeypatch.setattr(batch, "_WIDE_KERNEL_VERIFIED", False)
        states = _random_states(19, 3, 4)
        matrix = gate_matrix("u3", (0.2, 0.4, 0.6))
        out = batch.apply_unitary_batch(states.copy(), matrix, (1,), 4)
        for i in range(states.shape[0]):
            assert np.array_equal(
                out[i], apply_unitary(states[i], matrix, (1,), 4)
            )
