"""Fixed-point optimization pass manager (ROADMAP item 4).

Quilc-style (arXiv:2003.13961) circuit optimization organised as a
:class:`PassManager` that iterates a pipeline of independent rewrite
passes until the circuit stops changing (or a max-iteration guard
trips).  The passes operate at the post-routing CNOT level of
:class:`~repro.compiler.pipeline.TriQCompiler` — where routing
artifacts are visible — so the only 2Q gate they see in production is
``cx``; the commutation tables nevertheless cover ``cz``/``xx`` so
the passes stay sound on arbitrary IR circuits (property tests, fuzzing).

Passes:

``state-compression``
    Removes gates that act trivially on the known |0...0> initial
    state: diagonal 1Q gates on still-|0> qubits, ``cx`` whose control
    is |0>, ``cz``/``ccx`` with a |0> operand, ``swap`` of two |0>
    qubits.
``peephole``
    The existing adjacent-gate canceller
    (:func:`repro.compiler.peephole.cancel_adjacent_gates`).
``commute-rotations``
    The existing forward commutation of 1Q rotations through 2Q gates
    (:func:`repro.compiler.commute.commute_rotations_forward`).
``commute-cancel``
    Cancels self-inverse pairs and merges rotations separated by gates
    that *commute* with the moving gate (Z-rotations through a ``cx``
    control or ``cz``, X-rotations through a ``cx`` target or ``xx``,
    CNOTs sharing a control or sharing a target, ...), which plain
    adjacency-based peepholing cannot see.
``block-resynthesis``
    Collects maximal 2Q blocks on a qubit pair and resynthesizes them
    KAK-free via the quaternion machinery when the block's 4x4 unitary
    is (up to global phase) the identity, a tensor product of 1Q
    rotations, or a single CNOT times local rotations.
``coalesce-1q``
    Merges runs of 1Q gates per qubit into at most ``rz·ry·rz`` via the
    quaternion composition used by the backend 1Q optimizer, keeping
    the original run whenever the merged form is not strictly shorter
    (which also guarantees fixed-point stability).

Every pass must preserve the ideal output distribution and never
increase the 2Q-gate count; with contracts enabled the manager checks
both after each rewrite and reports violations under stable ``OPT###``
codes (see :mod:`repro.contracts.errors`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compiler.commute import commute_rotations_forward
from repro.compiler.peephole import cancel_adjacent_gates
from repro.contracts.errors import (
    PassConvergenceError,
    PassDistributionError,
    PassMonotonicityError,
)
from repro.ir.circuit import Circuit
from repro.ir.gates import VIRTUAL_Z_GATES
from repro.ir.instruction import Instruction
from repro.obs.tracer import span as obs_span
from repro.rotations import Quaternion, quaternion_to_zyz
from repro.rotations.su2 import unitary_to_quaternion

#: Valid values of the ``--opt`` preset knob, mirroring ``MAPPER_METHODS``.
OPT_PRESETS: Tuple[str, ...] = ("none", "basic", "full")

#: Iteration ceiling for the fixed-point loop.  Every structural rewrite
#: strictly shrinks the circuit and pure gate motion reaches its own
#: fixed point, so real pipelines converge in a handful of iterations;
#: the guard only exists to bound pathological inputs.
DEFAULT_MAX_ITERATIONS = 16

#: Angles below this (radians) are treated as zero when emitting gates.
_ANGLE_EPS = 1e-9

#: Numerical tolerance for the block-resynthesis unitary tests.  Tight
#: enough that accepted rewrites are exact to fp error, loose enough to
#: absorb the matrix products involved.
_BLOCK_ATOL = 1e-9

#: Diagonal 1Q gates: identity on a qubit known to be |0> (any phase
#: they impart to a |0> product factor is a global phase).
_DIAGONAL_1Q = frozenset(VIRTUAL_Z_GATES)

#: Z-axis / X-axis 1Q rotations used by the commutation table.
_Z_AXIS_1Q = frozenset(set(VIRTUAL_Z_GATES) - {"id"})
_X_AXIS_1Q = frozenset({"x", "rx"})

#: Gates that cancel against an identical copy of themselves.
_SELF_INVERSE = frozenset({"h", "x", "y", "z", "cx", "cz", "swap"})

#: Single-parameter rotations whose angles add under composition.
_MERGEABLE_ROTATIONS = frozenset({"rz", "rx", "ry", "u1"})

#: 1Q gates the coalescer knows how to fold into a quaternion.
_COALESCEABLE_1Q = frozenset(
    {
        "id",
        "h",
        "x",
        "y",
        "z",
        "s",
        "sdg",
        "t",
        "tdg",
        "rx",
        "ry",
        "rz",
        "u1",
        "u2",
        "u3",
        "rxy",
    }
)


def _is_trivial_angle(theta: float) -> bool:
    """True when a rotation by ``theta`` is the identity."""
    return abs(math.remainder(theta, 2.0 * math.pi)) < _ANGLE_EPS


# ----------------------------------------------------------------------
# Pass: state-aware compression of the |0...0> prefix
# ----------------------------------------------------------------------


def compress_initial_state(circuit: Circuit) -> Circuit:
    """Drop gates that act trivially on qubits still in |0>.

    Tracks, in program order, the set of qubits provably still in the
    computational |0> state.  While a qubit is in that set:

    * diagonal 1Q gates on it only contribute a global phase — dropped;
    * ``cx`` with it as control is the identity — dropped;
    * ``cz`` (or ``ccx`` with it as a control) is the identity — dropped;
    * ``swap`` of two |0> qubits is the identity — dropped (a mixed
      swap is kept but exchanges the two qubits' membership).

    Any other gate on the qubit evicts it from the set.
    """
    known: Set[int] = set(range(circuit.num_qubits))
    out: List[Instruction] = []
    for inst in circuit:
        if not inst.is_unitary:
            out.append(inst)
            continue
        name, qubits = inst.name, inst.qubits
        if len(qubits) == 1:
            if qubits[0] in known:
                if name in _DIAGONAL_1Q:
                    continue
                known.discard(qubits[0])
            out.append(inst)
            continue
        if name == "cx":
            control, target = qubits
            if control in known:
                continue
            known.discard(target)
        elif name == "cz":
            if qubits[0] in known or qubits[1] in known:
                continue
        elif name == "swap":
            a, b = qubits
            if a in known and b in known:
                continue
            a_known, b_known = a in known, b in known
            known.discard(a)
            known.discard(b)
            if b_known:
                known.add(a)
            if a_known:
                known.add(b)
        elif name == "ccx":
            c1, c2, target = qubits
            if c1 in known or c2 in known:
                continue
            known.discard(target)
        else:
            known.difference_update(qubits)
        out.append(inst)
    if len(out) == len(circuit):
        return circuit
    return Circuit(
        circuit.num_qubits, instructions=out, name=circuit.name
    )


# ----------------------------------------------------------------------
# Pass: commutation-driven cancellation through CZ/CNOT
# ----------------------------------------------------------------------


def _pair_commutes(a: Instruction, b: Instruction) -> bool:
    """True when instructions ``a`` and ``b`` provably commute.

    Conservative structured table: disjoint supports always commute;
    overlapping gates commute only in the listed algebraic cases.
    """
    if not set(a.qubits) & set(b.qubits):
        return a.is_unitary and b.is_unitary
    if not (a.is_unitary and b.is_unitary):
        return False
    # Normalize so the 1Q gate (if any) is `a`.
    if a.num_qubits > b.num_qubits:
        a, b = b, a
    if a.num_qubits == 1 and b.num_qubits == 1:
        # Same qubit: diagonal gates commute, X-axis gates commute.
        return (a.name in _Z_AXIS_1Q and b.name in _Z_AXIS_1Q) or (
            a.name in _X_AXIS_1Q and b.name in _X_AXIS_1Q
        )
    if a.num_qubits == 1 and b.num_qubits == 2:
        q = a.qubits[0]
        if b.name == "cx":
            control, target = b.qubits
            return (a.name in _Z_AXIS_1Q and q == control) or (
                a.name in _X_AXIS_1Q and q == target
            )
        if b.name == "cz":
            return a.name in _Z_AXIS_1Q
        if b.name == "xx":
            return a.name in _X_AXIS_1Q
        return False
    if a.num_qubits == 2 and b.num_qubits == 2:
        if a.name == "cx" and b.name == "cx":
            if a.qubits == b.qubits:
                return True
            # CNOTs sharing only the control, or only the target, commute.
            return (
                a.qubits[0] == b.qubits[0] and a.qubits[1] != b.qubits[1]
            ) or (a.qubits[1] == b.qubits[1] and a.qubits[0] != b.qubits[0])
        if {a.name, b.name} == {"cx", "cz"}:
            cx = a if a.name == "cx" else b
            cz = b if a.name == "cx" else a
            # cz is diagonal; it commutes with cx unless it touches the
            # cx target, where Z and X clash.
            return cx.qubits[1] not in cz.qubits
        if a.name == "cz" and b.name == "cz":
            return True
        if a.name == "xx" and b.name == "xx":
            return True
    return False


def _find_commuting_partner(
    insts: Sequence[Optional[Instruction]], start: int
) -> Optional[int]:
    """Index of a cancel/merge partner reachable by commutation, if any."""
    inst = insts[start]
    assert inst is not None
    for j in range(start + 1, len(insts)):
        other = insts[j]
        if other is None:
            continue
        if other.is_barrier:
            return None
        if other.name == inst.name and other.qubits == inst.qubits:
            return j
        if not _pair_commutes(inst, other):
            return None
    return None


def cancel_commuting_gates(circuit: Circuit) -> Circuit:
    """Cancel/merge gate pairs separated only by commuting gates.

    Like :func:`~repro.compiler.peephole.cancel_adjacent_gates`, but an
    intervening instruction does not block the pair as long as it
    provably commutes with the moving gate, so e.g. two ``cx (0, 1)``
    cancel through an ``rz`` on the control, and two CNOTs sharing a
    control cancel through each other.
    """
    insts: List[Optional[Instruction]] = list(circuit)
    changed_any = False
    changed = True
    while changed:
        changed = False
        for i, inst in enumerate(insts):
            if inst is None:
                continue
            name = inst.name
            if name in _SELF_INVERSE:
                j = _find_commuting_partner(insts, i)
                if j is None:
                    continue
                insts[i] = None
                insts[j] = None
                changed = changed_any = True
            elif name in _MERGEABLE_ROTATIONS:
                j = _find_commuting_partner(insts, i)
                if j is None:
                    continue
                partner = insts[j]
                assert partner is not None
                total = inst.params[0] + partner.params[0]
                insts[j] = None
                if _is_trivial_angle(total):
                    insts[i] = None
                else:
                    insts[i] = Instruction(name, inst.qubits, (total,))
                changed = changed_any = True
    if not changed_any:
        return circuit
    kept = [inst for inst in insts if inst is not None]
    return Circuit(
        circuit.num_qubits, instructions=kept, name=circuit.name
    )


# ----------------------------------------------------------------------
# Pass: 2Q-block collection with KAK-free resynthesis
# ----------------------------------------------------------------------

# CNOT matrices on a local 2-qubit wire, for both orientations, in the
# |q0 q1> basis of repro.ir.gates (qubit 0 most significant).
_CX_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
_CX_10 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def _tensor_factors(
    unitary: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Split a 4x4 unitary into ``A (x) B`` if it is a tensor product.

    Uses the realignment criterion: reshuffling ``U[(ra rb), (ca cb)]``
    into ``M[(ra ca), (rb cb)]`` turns a tensor product into a rank-1
    matrix whose factors are (vectorized) ``A`` and ``B``.
    """
    realigned = (
        unitary.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    )
    u, s, vh = np.linalg.svd(realigned)
    if s[1] > _BLOCK_ATOL * max(1.0, s[0]):
        return None
    factor_a = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    factor_b = (vh[0, :] * math.sqrt(s[0])).reshape(2, 2)
    return factor_a, factor_b


def _local_rotations(qubit: int, matrix: np.ndarray) -> List[Instruction]:
    """Emit a 1Q unitary (up to phase) as at most ``rz·ry·rz``."""
    return _emit_quaternion(qubit, unitary_to_quaternion(matrix))


def _emit_quaternion(qubit: int, quat: Quaternion) -> List[Instruction]:
    """Minimal IR rotation sequence realizing a quaternion on a qubit."""
    quat = quat.normalized()
    if quat.is_identity():
        return []
    if quat.is_z_rotation():
        angles = quaternion_to_zyz(quat)
        theta = math.remainder(angles.alpha + angles.gamma, 2.0 * math.pi)
        if _is_trivial_angle(theta):
            return []
        return [Instruction("rz", (qubit,), (theta,))]
    angles = quaternion_to_zyz(quat)
    out: List[Instruction] = []
    if not _is_trivial_angle(angles.alpha):
        out.append(Instruction("rz", (qubit,), (angles.alpha,)))
    if not _is_trivial_angle(angles.beta):
        out.append(Instruction("ry", (qubit,), (angles.beta,)))
    if not _is_trivial_angle(angles.gamma):
        out.append(Instruction("rz", (qubit,), (angles.gamma,)))
    return out


def _block_unitary(
    block: Sequence[Instruction], pair: Tuple[int, int]
) -> np.ndarray:
    """4x4 unitary of a block on ``pair``, in local |q0 q1> order."""
    local = {pair[0]: 0, pair[1]: 1}
    mini = Circuit(2)
    for inst in block:
        mini.append(inst.remap(local))
    from repro.sim.statevector import circuit_unitary

    return circuit_unitary(mini)


def _resynthesize_block(
    block: Sequence[Instruction], pair: Tuple[int, int]
) -> Optional[List[Instruction]]:
    """A <=1-CNOT replacement for a 2Q block, or None if out of reach.

    Handles, up to global phase: identity, tensor products of 1Q
    rotations, and ``CX·(A(x)B)`` / ``(A(x)B)·CX`` for either CNOT
    orientation.  Deeper blocks (2-3 CNOT classes) would need a full
    KAK decomposition and are deliberately left alone.
    """
    unitary = _block_unitary(block, pair)
    phase = unitary[np.unravel_index(np.argmax(np.abs(unitary)), (4, 4))]
    if abs(abs(phase) - 1.0) < 1e-6 and np.allclose(
        unitary, phase * np.eye(4), atol=_BLOCK_ATOL
    ):
        return []
    factors = _tensor_factors(unitary)
    if factors is not None:
        return _local_rotations(pair[0], factors[0]) + _local_rotations(
            pair[1], factors[1]
        )
    for cx_local, cx_qubits in (
        (_CX_01, (pair[0], pair[1])),
        (_CX_10, (pair[1], pair[0])),
    ):
        cnot = Instruction("cx", cx_qubits)
        # U = (A (x) B) . CX  ->  apply CX first, locals after.
        factors = _tensor_factors(unitary @ cx_local.conj().T)
        if factors is not None:
            return [cnot] + _local_rotations(
                pair[0], factors[0]
            ) + _local_rotations(pair[1], factors[1])
        # U = CX . (A (x) B)  ->  locals first, CX after.
        factors = _tensor_factors(cx_local.conj().T @ unitary)
        if factors is not None:
            return _local_rotations(pair[0], factors[0]) + _local_rotations(
                pair[1], factors[1]
            ) + [cnot]
    return None


def resynthesize_blocks(circuit: Circuit) -> Circuit:
    """Collapse multi-CNOT 2Q blocks that reduce to <=1 CNOT.

    Scans for maximal runs of gates supported on a single qubit pair
    (instructions on disjoint qubits may interleave and are left in
    place), computes the block's 4x4 unitary, and replaces the block
    when :func:`_resynthesize_block` finds a strictly cheaper form.
    Only blocks with at least two 2Q gates are considered, so every
    rewrite strictly reduces the 2Q count.
    """
    insts: List[Optional[Instruction]] = list(circuit)
    changed = False
    i = 0
    while i < len(insts):
        inst = insts[i]
        if (
            inst is None
            or inst.num_qubits != 2
            or not inst.is_unitary
            or inst.name == "swap"
        ):
            i += 1
            continue
        pair = inst.qubits
        support = set(pair)
        block_idx = [i]
        two_q = 1
        j = i + 1
        while j < len(insts):
            other = insts[j]
            if other is None:
                j += 1
                continue
            if other.is_barrier:
                break
            overlap = set(other.qubits) & support
            if not overlap:
                j += 1
                continue
            if not other.is_unitary or not set(other.qubits) <= support:
                break
            if other.name == "swap":
                break
            block_idx.append(j)
            two_q += other.num_qubits == 2
            j += 1
        if two_q >= 2:
            block = [insts[k] for k in block_idx]
            replacement = _resynthesize_block(block, pair)
            if replacement is not None:
                for k in block_idx[1:]:
                    insts[k] = None
                insts[i] = replacement  # type: ignore[assignment]
                changed = True
                i = j
                continue
        i += 1
    if not changed:
        return circuit
    kept: List[Instruction] = []
    for entry in insts:
        if entry is None:
            continue
        if isinstance(entry, list):
            kept.extend(entry)
        else:
            kept.append(entry)
    return Circuit(
        circuit.num_qubits, instructions=kept, name=circuit.name
    )


# ----------------------------------------------------------------------
# Pass: IR-level 1Q coalescing
# ----------------------------------------------------------------------


def coalesce_rotations(circuit: Circuit) -> Circuit:
    """Merge per-qubit runs of 1Q gates into at most ``rz·ry·rz``.

    Runs may span instructions on other qubits; they end at a barrier,
    a measurement of the qubit, or a multi-qubit gate touching it.  A
    run is rewritten only when the merged form is strictly shorter,
    which both avoids churn and makes the pass a no-op on its own
    output (fixed-point stability).
    """
    from repro.compiler.onequbit import gate_quaternion

    out: List[Instruction] = []
    pending: Dict[int, Tuple[Quaternion, List[Instruction]]] = {}
    changed = False

    def flush(qubit: int) -> None:
        nonlocal changed
        quat, run = pending.pop(qubit)
        merged = _emit_quaternion(qubit, quat)
        if len(merged) < len(run):
            out.extend(merged)
            changed = True
        else:
            out.extend(run)

    for inst in circuit:
        if (
            inst.is_unitary
            and inst.num_qubits == 1
            and inst.name in _COALESCEABLE_1Q
        ):
            qubit = inst.qubits[0]
            quat, run = pending.get(qubit, (Quaternion.identity(), []))
            rotation = gate_quaternion(inst.name, inst.params)
            pending[qubit] = (rotation * quat, run + [inst])
            continue
        if inst.is_barrier:
            for qubit in sorted(pending):
                flush(qubit)
        else:
            for qubit in inst.qubits:
                if qubit in pending:
                    flush(qubit)
        out.append(inst)
    for qubit in sorted(pending):
        flush(qubit)
    if not changed:
        return circuit
    return Circuit(
        circuit.num_qubits, instructions=out, name=circuit.name
    )


# ----------------------------------------------------------------------
# The pass manager
# ----------------------------------------------------------------------


@dataclass
class PassStats:
    """Cumulative cost accounting for one pass across all iterations."""

    name: str
    runs: int = 0
    rewrites: int = 0
    gates_in: int = 0
    gates_out: int = 0
    two_qubit_in: int = 0
    two_qubit_out: int = 0
    wall_s: float = 0.0

    def row(self) -> Tuple[str, int, int, int, int, int, int, float]:
        return (
            self.name,
            self.runs,
            self.rewrites,
            self.gates_in,
            self.gates_out,
            self.two_qubit_in,
            self.two_qubit_out,
            self.wall_s,
        )


@dataclass(frozen=True)
class CircuitPass:
    """A named circuit-to-circuit rewrite."""

    name: str
    fn: Callable[[Circuit], Circuit]

    def run(self, circuit: Circuit) -> Circuit:
        return self.fn(circuit)


STATE_COMPRESSION = CircuitPass("state-compression", compress_initial_state)
PEEPHOLE = CircuitPass("peephole", cancel_adjacent_gates)
COMMUTE_ROTATIONS = CircuitPass("commute-rotations", commute_rotations_forward)
COMMUTE_CANCEL = CircuitPass("commute-cancel", cancel_commuting_gates)
BLOCK_RESYNTHESIS = CircuitPass("block-resynthesis", resynthesize_blocks)
COALESCE_1Q = CircuitPass("coalesce-1q", coalesce_rotations)

#: Pass pipelines behind each ``--opt`` preset.
PRESET_PIPELINES: Dict[str, Tuple[CircuitPass, ...]] = {
    "none": (),
    "basic": (STATE_COMPRESSION, PEEPHOLE, COALESCE_1Q),
    "full": (
        STATE_COMPRESSION,
        PEEPHOLE,
        COMMUTE_ROTATIONS,
        COMMUTE_CANCEL,
        BLOCK_RESYNTHESIS,
        COALESCE_1Q,
    ),
}


def validate_preset(preset: str) -> str:
    """Normalize/validate an ``--opt`` preset name."""
    if preset not in OPT_PRESETS:
        known = ", ".join(OPT_PRESETS)
        raise ValueError(
            f"unknown optimization preset {preset!r}; choose from {known}"
        )
    return preset


def preset_passes(preset: str) -> Tuple[CircuitPass, ...]:
    """The pass pipeline behind a preset name."""
    return PRESET_PIPELINES[validate_preset(preset)]


def _same_instructions(a: Circuit, b: Circuit) -> bool:
    if len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a, b))


def _check_rewrite(
    pass_name: str,
    before: Circuit,
    after: Circuit,
    device: Optional[str],
    atol: float,
) -> None:
    """Per-pass contract: 2Q monotonicity and distribution preservation."""
    two_q_before = before.num_two_qubit_gates()
    two_q_after = after.num_two_qubit_gates()
    if two_q_after > two_q_before:
        raise PassMonotonicityError(
            f"pass {pass_name!r} increased the 2Q-gate count from "
            f"{two_q_before} to {two_q_after}",
            pass_name=pass_name,
            device=device,
        )
    from repro.contracts.checks import (
        DEFAULT_SEMANTIC_QUBIT_LIMIT,
        compact_circuit,
    )
    from repro.sim.statevector import ideal_distribution
    from repro.verify import distribution_distance

    if not any(inst.is_measurement for inst in before):
        return
    src = compact_circuit(before)
    dst = compact_circuit(after)
    if max(src.num_qubits, dst.num_qubits) > DEFAULT_SEMANTIC_QUBIT_LIMIT:
        return
    distance = distribution_distance(
        ideal_distribution(src), ideal_distribution(dst)
    )
    if distance > atol:
        raise PassDistributionError(
            f"pass {pass_name!r} changed the ideal output distribution "
            f"(total-variation distance {distance:.3e} > {atol:.1e})",
            pass_name=pass_name,
            device=device,
        )


class PassManager:
    """Iterates a pass pipeline to a fixed point, with accounting.

    Args:
        passes: the pipeline, applied in order each iteration.
        max_iterations: fixed-point guard; exceeding it records/raises
            ``OPT003`` via the recorder (when contracts are enabled).
        device: device name, threaded into contract error context.
        atol: distribution-preservation tolerance for the per-pass check.
    """

    def __init__(
        self,
        passes: Sequence[CircuitPass],
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        device: Optional[str] = None,
        atol: float = 1e-6,
    ) -> None:
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        self.passes = tuple(passes)
        self.max_iterations = max_iterations
        self.device = device
        self.atol = atol
        self.stats: Dict[str, PassStats] = {
            p.name: PassStats(p.name) for p in self.passes
        }
        self.iterations = 0
        self.converged = True

    def run(self, circuit: Circuit, recorder=None) -> Circuit:
        """Apply the pipeline until the circuit stops changing.

        ``recorder`` is an optional
        :class:`~repro.contracts.mode.ContractRecorder`; when given,
        every rewrite is checked for distribution preservation (OPT001)
        and 2Q monotonicity (OPT002), and failure to converge within
        ``max_iterations`` reports OPT003.
        """
        self.iterations = 0
        self.converged = True
        for _ in range(self.max_iterations):
            self.iterations += 1
            changed = False
            for compiler_pass in self.passes:
                stats = self.stats[compiler_pass.name]
                before = circuit
                start = time.perf_counter()
                with obs_span(
                    f"opt.{compiler_pass.name}", pass_name=compiler_pass.name
                ) as span:
                    after = compiler_pass.run(before)
                    rewrote = not _same_instructions(before, after)
                    if span is not None:
                        span.set(
                            gates_in=len(before),
                            gates_out=len(after),
                            two_qubit_delta=after.num_two_qubit_gates()
                            - before.num_two_qubit_gates(),
                            rewrote=rewrote,
                        )
                wall = time.perf_counter() - start
                stats.runs += 1
                stats.gates_in += len(before)
                stats.gates_out += len(after)
                stats.two_qubit_in += before.num_two_qubit_gates()
                stats.two_qubit_out += after.num_two_qubit_gates()
                stats.wall_s += wall
                if rewrote:
                    stats.rewrites += 1
                    changed = True
                    if recorder is not None:
                        recorder.run(
                            lambda b=before, a=after, n=compiler_pass.name: (
                                _check_rewrite(n, b, a, self.device, self.atol)
                            )
                        )
                    circuit = after
            if not changed:
                return circuit
        self.converged = False
        if recorder is not None:
            recorder.run(self._raise_convergence)
        return circuit

    def _raise_convergence(self) -> None:
        raise PassConvergenceError(
            f"pass pipeline did not reach a fixed point within "
            f"{self.max_iterations} iterations",
            device=self.device,
        )

    def stats_rows(
        self,
    ) -> Tuple[Tuple[str, int, int, int, int, int, int, float], ...]:
        """Accounting rows, one per pass, in pipeline order.

        Row shape: ``(pass, runs, rewrites, gates_in, gates_out,
        two_qubit_in, two_qubit_out, wall_s)``.
        """
        return tuple(self.stats[p.name].row() for p in self.passes)

    def gates_removed(self) -> int:
        """Net gates removed across all rewriting runs."""
        return sum(
            s.gates_in - s.gates_out for s in self.stats.values()
        )

    def two_qubit_removed(self) -> int:
        """Net 2Q gates removed across all rewriting runs."""
        return sum(
            s.two_qubit_in - s.two_qubit_out for s in self.stats.values()
        )


def build_pass_manager(
    preset: str,
    *,
    device: Optional[str] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> Optional[PassManager]:
    """A :class:`PassManager` for a preset, or None for ``"none"``."""
    passes = preset_passes(preset)
    if not passes:
        return None
    return PassManager(passes, max_iterations=max_iterations, device=device)
