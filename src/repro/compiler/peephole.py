"""Peephole cleanup: cancel adjacent inverse gate pairs.

Routing and translation can leave obviously redundant structure — two
identical CNOTs back to back (e.g. where a swap chain meets the gate it
was inserted for), double Hadamards from direction fixing, paired
self-inverse 1Q gates.  This pass removes them:

* adjacent identical self-inverse gates cancel (``cx``/``cz``/``swap``
  on the same qubits, ``h``/``x``/``y``/``z`` on the same qubit),
* adjacent ``rz``/``rx``/``ry`` pairs on the same qubit merge, and
  vanish when the merged angle is a multiple of 2*pi,
* "adjacent" means no intervening instruction touches any shared qubit.

The pass iterates to a fixed point, so cascades collapse fully.  It is
semantics-preserving by construction and runs as the ``peephole`` pass
of the ``--opt basic``/``full`` presets (:mod:`repro.compiler.passes`).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.ir.circuit import Circuit
from repro.ir.instruction import Instruction

#: Self-inverse gates that cancel with an identical copy of themselves.
_SELF_INVERSE = {"h", "x", "y", "z", "cx", "cz", "swap"}
#: Rotation gates whose adjacent pairs merge by angle addition.
_MERGEABLE_ROTATIONS = {"rz", "rx", "ry", "u1"}

_TWO_PI = 2.0 * math.pi


def _is_trivial_angle(theta: float, atol: float = 1e-12) -> bool:
    return abs(math.remainder(theta, _TWO_PI)) <= atol


def _find_partner(
    instructions: List[Optional[Instruction]], start: int
) -> Optional[int]:
    """The next instruction sharing qubits with ``start``, if adjacent.

    Returns the partner index when no intervening instruction touches
    any of the start instruction's qubits; None otherwise.
    """
    inst = instructions[start]
    assert inst is not None
    qubits = set(inst.qubits)
    for later in range(start + 1, len(instructions)):
        other = instructions[later]
        if other is None:
            continue
        if other.is_barrier:
            return None
        overlap = qubits & set(other.qubits)
        if not overlap:
            continue
        if overlap == qubits == set(other.qubits):
            return later
        return None  # partial overlap blocks cancellation
    return None


def cancel_adjacent_gates(circuit: Circuit) -> Circuit:
    """Remove adjacent inverse pairs and merge adjacent rotations."""
    instructions: List[Optional[Instruction]] = list(circuit.instructions)
    changed = True
    while changed:
        changed = False
        for index, inst in enumerate(instructions):
            if inst is None or not inst.is_unitary:
                continue
            name = inst.name
            if name not in _SELF_INVERSE and name not in _MERGEABLE_ROTATIONS:
                continue
            partner_index = _find_partner(instructions, index)
            if partner_index is None:
                continue
            partner = instructions[partner_index]
            assert partner is not None
            if name in _SELF_INVERSE:
                if partner.name == name and partner.qubits == inst.qubits:
                    instructions[index] = None
                    instructions[partner_index] = None
                    changed = True
            elif (
                partner.name == name and partner.qubits == inst.qubits
            ):
                merged_angle = inst.params[0] + partner.params[0]
                instructions[partner_index] = None
                if _is_trivial_angle(merged_angle):
                    instructions[index] = None
                else:
                    instructions[index] = Instruction(
                        name, inst.qubits, (merged_angle,), inst.cbits
                    )
                changed = True
    return Circuit(
        circuit.num_qubits,
        name=circuit.name,
        instructions=[inst for inst in instructions if inst is not None],
    )
