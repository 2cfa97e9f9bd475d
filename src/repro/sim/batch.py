"""Batched dense state-vector simulation: one kernel, many states.

The Monte-Carlo paths in :mod:`repro.sim.trajectories` and
:mod:`repro.sim.success` simulate many *fault configurations* of the
same circuit: every configuration runs the identical gate sequence and
differs only in a handful of injected Pauli instructions.  Simulating
them one at a time pays the Python-level per-gate overhead (gate-matrix
lookup, reshape, tensordot dispatch) once per configuration; stacking
the configurations into one ``(batch, 2**n)`` array pays it once per
*gate*, applying each unitary to the whole batch with a single
tensordot kernel.

Bit-compatibility contract: for every row, the batched kernels produce
the **bit-identical** ``complex128`` amplitudes the scalar
:func:`repro.sim.statevector.apply_unitary` produces.  Two mechanisms
guarantee it:

* for gates where the scalar path already hands BLAS a matrix of at
  least :data:`_MIN_GEMM_COLUMNS` columns (``2**(n - k) >= 4``),
  widening the matmul with more batch columns does not change existing
  columns, so the batched tensordot reproduces the scalar result
  exactly.  That width-invariance is an *empirical* BLAS property, so
  it is not assumed: the first wide-path call runs a one-off self-check
  (:func:`_wide_kernel_bit_identical`) comparing the batched kernel
  against the scalar engine bit for bit on this interpreter's BLAS,
  and a mismatch permanently drops the module to the per-row scalar
  path — slower, but the reproducibility contract survives any BLAS
  build (``tests/test_kernel_equivalence.py`` then exercises whichever
  path was selected);
* smaller shapes (2-qubit circuits, 2Q gates on 3-qubit circuits) hit
  BLAS's narrow-matrix special cases, whose rounding differs from the
  wide kernel — those fall back to the scalar kernel row by row, which
  is trivially bit-identical (and cheap: the states have <= 8
  amplitudes).

The wide kernel hands BLAS the very call ``np.tensordot`` makes
(:func:`_apply_unitary_batch_gemm`): the same ``(2**k, 2**k)`` matrix
times the same transposed ``(2**k, -1)`` copy of the batch, through
``np.dot``.  Only the Python around it differs — the axis permutations
are memoised per ``(qubits, num_qubits)`` — so BLAS sees identical
operands and rounds identically.

Fault injections are applied per circuit position.  A row's Pauli
injections at one position compose into one Pauli string, whose effect
is a signed permutation of the amplitudes: ``new[i] = phase[i] *
old[perm[i]]``, with X and Y flipping a qubit's bit and Y and Z
multiplying by ±i or ±1 (:func:`_pauli_gather`, memoised per string
and register width).  Every row's string at a position then goes in
one gather, ``states[rows] = states[rows, perm] * phase``.  Every
product there is by ±1 or ±i and nothing is summed, so nothing rounds:
the amplitudes equal the scalar tensordot's bit for bit, except that
an exact zero may carry the other sign — which no ``|amplitude|**2``,
and so no probability or success float, can see.  Any other injected
instruction goes through :func:`apply_instruction_batch` on its rows
and inherits its bit-compatibility.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.circuit import Circuit
from repro.ir.gates import gate_matrix
from repro.ir.instruction import Instruction
from repro.sim.statevector import apply_unitary

#: Below this many trailing (non-batch, non-gate) columns the scalar
#: matmul takes a narrow-matrix BLAS path whose rounding is not
#: width-invariant; the batched kernel must fall back to per-row scalar
#: application to stay bit-identical.
_MIN_GEMM_COLUMNS = 4

#: Upper bound on distinct fault configurations simulated (and their
#: outcome distributions held) at once by the Monte-Carlo estimator and
#: trajectory sampling.  Bounds the batch's working set; keeps a
#: 16-qubit batch under ~256 MB.
DEFAULT_MAX_CONFIGS_IN_FLIGHT = 256

#: Idle trailing qubits the self-check appends to compare a narrow
#: register against a wide one (2**8 times the GEMM columns).
_IDLE_CHECK_QUBITS = 8

#: Lazily computed result of the width-invariance self-check (None
#: until the first wide-path call).  False drops every batch to the
#: per-row scalar path for the life of the process.
_WIDE_KERNEL_VERIFIED: Optional[bool] = None


@lru_cache(maxsize=None)
def _gemm_axes(
    qubits: Tuple[int, ...], num_qubits: int
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """``np.tensordot``'s operand permutation of a ``(batch,) +
    (2,) * n`` state tensor (gate axes first, then batch and the other
    qubits in order), and the permutation putting the product's axes
    back.  Keyed on the register shape only, never on the batch size.
    """
    axes = [q + 1 for q in qubits]
    operand = tuple(axes + [a for a in range(num_qubits + 1) if a not in axes])
    return operand, tuple(int(a) for a in np.argsort(operand))


def _apply_unitary_batch_gemm(
    states: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """The wide kernel, with no self-check or fallback.

    Makes ``np.tensordot``'s own ``np.dot`` call without its per-call
    axis bookkeeping.
    """
    k = len(qubits)
    batch = states.shape[0]
    operand, restore = _gemm_axes(tuple(qubits), num_qubits)
    gate = np.ascontiguousarray(matrix, dtype=complex).reshape(2**k, 2**k)
    psi = states.reshape((batch,) + (2,) * num_qubits).transpose(operand)
    psi = np.dot(gate, psi.reshape(2**k, -1))
    psi = psi.reshape((2,) * k + (batch,) + (2,) * (num_qubits - k))
    return np.ascontiguousarray(psi.transpose(restore)).reshape(batch, -1)


def _wide_kernel_bit_identical() -> bool:
    """One-off self-check: is the wide GEMM width-invariant here?

    Applies fixed 1Q and 2Q unitaries with irrational entries to a
    deterministic batch of states at the narrowest shapes the wide path
    accepts (``2**(n - k) == _MIN_GEMM_COLUMNS``) and compares every
    amplitude bitwise against the scalar engine — once on the narrow
    register and once with :data:`_IDLE_CHECK_QUBITS` idle trailing
    qubits appended, the shape a device-wide register presents to
    :func:`compact_register`'s narrow one.  Cached for the life of the
    process; costs under a millisecond once.
    """
    global _WIDE_KERNEL_VERIFIED
    if _WIDE_KERNEL_VERIFIED is None:
        rng = np.random.default_rng(191)
        ok = True
        # (num_qubits, gate qubits): 1Q gate on 3 qubits and 2Q gate on
        # 4 qubits both hand BLAS exactly _MIN_GEMM_COLUMNS columns.
        for n, gate_qubits in ((3, (1,)), (4, (2, 0))):
            k = len(gate_qubits)
            matrix = (
                gate_matrix("u3", (0.3, 0.7, 1.1))
                if k == 1
                else gate_matrix("xx", (0.7,))
            )
            states = rng.standard_normal((3, 2**n)) + 1j * (
                rng.standard_normal((3, 2**n))
            )
            wide = _apply_unitary_batch_gemm(states, matrix, gate_qubits, n)
            idle = np.zeros((2**n, 2**_IDLE_CHECK_QUBITS), dtype=complex)
            for i in range(states.shape[0]):
                row = apply_unitary(states[i], matrix, gate_qubits, n)
                if not np.array_equal(wide[i], row):
                    ok = False
                idle[:, 0] = states[i]
                padded = apply_unitary(
                    idle.reshape(-1), matrix, gate_qubits,
                    n + _IDLE_CHECK_QUBITS,
                ).reshape(idle.shape)
                if not np.array_equal(padded[:, 0], row):
                    ok = False
        _WIDE_KERNEL_VERIFIED = ok
    return _WIDE_KERNEL_VERIFIED


def zero_states(batch: int, num_qubits: int) -> np.ndarray:
    """``batch`` copies of |0...0> as a ``(batch, 2**n)`` array."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    states = np.zeros((batch, 2**num_qubits), dtype=complex)
    states[:, 0] = 1.0
    return states


def apply_unitary_batch(
    states: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply one k-qubit unitary to every state of a ``(batch, 2**n)``
    array with a single tensordot kernel.

    Row ``i`` of the result is bit-identical to
    ``apply_unitary(states[i], matrix, qubits, num_qubits)`` (see the
    module docstring for why, and the scalar fallback below for the
    narrow shapes — or the rare BLAS builds — where the wide kernel
    would break that promise).
    """
    k = len(qubits)
    batch = states.shape[0]
    if (
        2 ** (num_qubits - k) < _MIN_GEMM_COLUMNS
        or not _wide_kernel_bit_identical()
    ):
        # Narrow-matrix shapes (or a BLAS that failed the width
        # invariance self-check): replay the scalar kernel per row.
        out = np.empty_like(states)
        for i in range(batch):
            out[i] = apply_unitary(states[i], matrix, qubits, num_qubits)
        return out
    return _apply_unitary_batch_gemm(states, matrix, qubits, num_qubits)


@lru_cache(maxsize=4096)
def _gate_operator(name: str, params: Tuple[float, ...]) -> np.ndarray:
    """:func:`gate_matrix` as the read-only contiguous ``(2**k, 2**k)``
    operand the wide kernel hands BLAS, built once per gate value."""
    matrix = gate_matrix(name, params)
    operator = np.ascontiguousarray(matrix, dtype=complex).reshape(
        matrix.shape[0], -1
    )
    operator.flags.writeable = False
    return operator


def apply_instruction_batch(
    states: np.ndarray, inst: Instruction, num_qubits: int
) -> np.ndarray:
    """Apply one unitary instruction to a batch (measure/barrier no-op)."""
    if not inst.is_unitary:
        return states
    matrix = _gate_operator(inst.name, inst.params)
    return apply_unitary_batch(states, matrix, inst.qubits, num_qubits)


#: Each Pauli's factor on an amplitude whose qubit bit is 0 or 1,
#: applied after the bit flip (X and Y flip it, Z does not).
_PAULI_FACTORS = {"x": (1, 1), "y": (-1j, 1j), "z": (1, -1)}

#: A composed run of Pauli injections: ``(name, qubit)`` in order.
PauliString = Tuple[Tuple[str, int], ...]


@lru_cache(maxsize=256)
def _pauli_gather(
    paulis: PauliString, num_qubits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The signed permutation of a Pauli string on ``num_qubits``:
    after the string, amplitude ``i`` is ``phase[i] * old[perm[i]]``.

    Composes the Paulis in order; every phase is a product of ±1 and
    ±i, which never rounds.  A compacted register's strings (3 per
    qubit, 15 per qubit pair) fit the bound many times over.
    """
    index = np.arange(2**num_qubits)
    perm = index
    phase = np.ones(index.size, dtype=complex)
    for name, qubit in paulis:
        bit = 1 << (num_qubits - 1 - qubit)
        source = index if name == "z" else index ^ bit
        low, high = _PAULI_FACTORS[name]
        factor = np.where(index & bit, high, low).astype(complex)
        perm = perm[source]
        phase = factor * phase[source]
    perm.flags.writeable = phase.flags.writeable = False
    return perm, phase


FaultInjections = Sequence[Tuple[int, Instruction]]


#: One round of injections at a position: the rows taking a Pauli
#: string and each one's string id, and the rows of each other
#: instruction.
_Round = Tuple[List[int], List[int], Dict[Instruction, List[int]]]


def _injection_rounds(
    fault_sets: Sequence[Optional[FaultInjections]],
) -> Tuple[Dict[int, List[_Round]], Dict[PauliString, int]]:
    """position -> rounds, and the id of every Pauli string used.

    A row's consecutive Pauli injections at one position compose into
    one :data:`PauliString`; any other injection stands alone.  Round
    ``j`` holds each row's ``j``-th of those at that position, so a
    row's injections keep their order and a round touches each row at
    most once.
    """
    strings: Dict[PauliString, int] = {}
    rounds: Dict[int, List[_Round]] = {}
    for row, injections in enumerate(fault_sets):
        if not injections:
            continue
        ops: Dict[int, list] = {}
        for position, fault in injections:
            at = ops.setdefault(position, [])
            if fault.name in _PAULI_FACTORS:
                pauli = ((fault.name, fault.qubits[0]),)
                if at and type(at[-1]) is tuple:
                    at[-1] += pauli
                else:
                    at.append(pauli)
            else:
                at.append(fault)
        for position, at in ops.items():
            slots = rounds.setdefault(position, [])
            for j, op in enumerate(at):
                if j == len(slots):
                    slots.append(([], [], {}))
                rows, kinds, others = slots[j]
                if type(op) is tuple:
                    rows.append(row)
                    kinds.append(strings.setdefault(op, len(strings)))
                else:
                    others.setdefault(op, []).append(row)
    return rounds, strings


def simulate_statevector_batch(
    circuit: Circuit,
    fault_sets: Sequence[Optional[FaultInjections]],
    initial_state: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Final states of one circuit under a batch of fault configurations.

    Args:
        circuit: the circuit to run (shared by every batch member).
        fault_sets: one entry per batch member — the ``(position,
            instruction)`` injection pairs of that member's fault
            configuration (None or empty for a clean run).
        initial_state: starting vector shared by all members (default
            |0...0>).

    Row ``i`` is bit-identical to
    ``simulate_statevector(circuit, faults=fault_sets[i])``, except
    that an injected Pauli may flip the sign of an exact zero (see the
    module docstring), so every ``|amplitude|**2`` matches bit for bit.
    """
    batch = len(fault_sets)
    n = circuit.num_qubits
    if initial_state is None:
        states = zero_states(batch, n)
    else:
        states = np.tile(
            np.asarray(initial_state, dtype=complex).reshape(1, -1),
            (batch, 1),
        )
    rounds, strings = _injection_rounds(fault_sets)
    if strings:
        tables = [_pauli_gather(paulis, n) for paulis in strings]
        perms = np.stack([perm for perm, _ in tables])
        phases = np.stack([phase for _, phase in tables])
    for idx, inst in enumerate(circuit):
        states = apply_instruction_batch(states, inst, n)
        for rows, kinds, others in rounds.get(idx, ()):
            if rows:
                # Every Pauli string of the round in one gather.
                picked = np.array(rows)[:, None]
                kind = np.array(kinds)
                states[picked[:, 0]] = states[picked, perms[kind]] * (
                    phases[kind]
                )
            for fault, fault_rows in others.items():
                states[fault_rows] = apply_instruction_batch(
                    states[fault_rows], fault, n
                )
    return states


def compact_register(
    circuit: Circuit,
) -> Optional[Tuple[Circuit, Dict[int, int]]]:
    """``circuit`` on only the qubits it touches, or None if no smaller.

    Keeps the qubits some gate or measurement acts on (barriers do not
    count), in ascending order, then pads the register with idle
    trailing qubits up to ``max gate arity + 2`` so every gate still
    hands BLAS at least :data:`_MIN_GEMM_COLUMNS` columns.  Returns the
    rewritten circuit (same instruction positions, barriers emptied)
    and the original -> compact qubit index.

    Why the amplitudes come out bit-identical: untouched qubits stay
    |0>, so every amplitude of the full register with an untouched bit
    set is exactly zero, and the rest are the compact register's
    amplitudes, in the same relative order.  Each gate computes a GEMM
    column from that column's values alone (the width invariance
    :func:`_wide_kernel_bit_identical` checks), so both registers
    produce the same floats; callers that need bit-identity must check
    it before using the compact register.
    """
    touched = sorted(
        {q for inst in circuit if not inst.is_barrier for q in inst.qubits}
    )
    arity = max(
        (inst.num_qubits for inst in circuit if inst.is_unitary), default=1
    )
    width = max(len(touched), arity + _MIN_GEMM_COLUMNS.bit_length() - 1)
    if width >= circuit.num_qubits:
        return None
    index = {qubit: i for i, qubit in enumerate(touched)}
    compact = Circuit(width, name=circuit.name)
    for inst in circuit:
        compact.append(
            Instruction("barrier", ()) if inst.is_barrier
            else inst.remap(index)
        )
    return compact, index


def probabilities_from_states(states: np.ndarray) -> np.ndarray:
    """Row-normalized outcome probabilities of a batch of states.

    Each row replays the scalar expressions ``p = np.abs(state) ** 2;
    p = p / p.sum()`` so the floats match the legacy per-state path
    bit for bit.
    """
    out = np.empty((states.shape[0], states.shape[1]), dtype=float)
    for i in range(states.shape[0]):
        probabilities = np.abs(states[i]) ** 2
        out[i] = probabilities / probabilities.sum()
    return out


def chunked(items: Sequence, size: int) -> Iterable[Sequence]:
    """Yield successive slices of at most ``size`` items."""
    if size < 1:
        raise ValueError("chunk size must be at least 1")
    for start in range(0, len(items), size):
        yield items[start : start + size]
