"""The :class:`Circuit` container: an ordered list of instructions.

Program order on each qubit defines the data dependencies; the
:mod:`repro.ir.dag` module recovers the explicit dependency graph used
for scheduling.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ir.gates import is_two_qubit
from repro.ir.instruction import Instruction


class Circuit:
    """A quantum circuit over ``num_qubits`` program qubits.

    The builder methods (``h``, ``cx``, ...) append gates and return
    ``self`` so calls can be chained::

        circ = Circuit(2, name="bell").h(0).cx(0, 1).measure_all()
    """

    #: ``(num_qubits, instruction count, digest)`` of the last
    #: :attr:`fingerprint`.  Instructions are append-only, so the same
    #: counts mean the same content; never pickled or copied.
    _fingerprint: Optional[Tuple[int, int, str]] = None

    def __init__(
        self,
        num_qubits: int,
        name: str = "circuit",
        instructions: Optional[Iterable[Instruction]] = None,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name
        self._instructions: List[Instruction] = []
        if instructions is not None:
            for inst in instructions:
                self.append(inst)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, idx: int) -> Instruction:
        return self._instructions[idx]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def append(self, inst: Instruction) -> "Circuit":
        """Append an instruction, validating qubit indices."""
        for qubit in inst.qubits:
            if not 0 <= qubit < self.num_qubits:
                raise ValueError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit "
                    f"circuit (instruction {inst})"
                )
        self._instructions.append(inst)
        return self

    @property
    def fingerprint(self) -> str:
        """Cache-key digest of the circuit structure, computed once per
        content (see :func:`repro.cache.keys.circuit_fingerprint`)."""
        shape = (self.num_qubits, len(self._instructions))
        memo = self._fingerprint
        if memo is None or memo[:2] != shape:
            from repro.cache.keys import circuit_fingerprint  # imports this module

            memo = self._fingerprint = shape + (circuit_fingerprint(self),)
        return memo[2]

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_fingerprint", None)
        return state

    def add(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[float] = (),
    ) -> "Circuit":
        """Append gate ``name`` on ``qubits`` with ``params``."""
        return self.append(Instruction(name, tuple(qubits), tuple(params)))

    # Convenience builders for the common gates.
    def h(self, q: int) -> "Circuit":
        return self.add("h", (q,))

    def x(self, q: int) -> "Circuit":
        return self.add("x", (q,))

    def y(self, q: int) -> "Circuit":
        return self.add("y", (q,))

    def z(self, q: int) -> "Circuit":
        return self.add("z", (q,))

    def s(self, q: int) -> "Circuit":
        return self.add("s", (q,))

    def sdg(self, q: int) -> "Circuit":
        return self.add("sdg", (q,))

    def t(self, q: int) -> "Circuit":
        return self.add("t", (q,))

    def tdg(self, q: int) -> "Circuit":
        return self.add("tdg", (q,))

    def rx(self, theta: float, q: int) -> "Circuit":
        return self.add("rx", (q,), (theta,))

    def ry(self, theta: float, q: int) -> "Circuit":
        return self.add("ry", (q,), (theta,))

    def rz(self, theta: float, q: int) -> "Circuit":
        return self.add("rz", (q,), (theta,))

    def rxy(self, theta: float, phi: float, q: int) -> "Circuit":
        return self.add("rxy", (q,), (theta, phi))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.add("cx", (control, target))

    def cz(self, control: int, target: int) -> "Circuit":
        return self.add("cz", (control, target))

    def xx(self, chi: float, a: int, b: int) -> "Circuit":
        return self.add("xx", (a, b), (chi,))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.add("swap", (a, b))

    def ccx(self, a: int, b: int, target: int) -> "Circuit":
        return self.add("ccx", (a, b, target))

    def cswap(self, control: int, a: int, b: int) -> "Circuit":
        return self.add("cswap", (control, a, b))

    def measure(self, q: int, cbit: Optional[int] = None) -> "Circuit":
        bit = q if cbit is None else cbit
        return self.append(Instruction("measure", (q,), (), (bit,)))

    def measure_all(self) -> "Circuit":
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def barrier(self) -> "Circuit":
        return self.append(Instruction("barrier", ()))

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def count_ops(self) -> Counter:
        """Gate-name histogram."""
        return Counter(inst.name for inst in self._instructions)

    def num_two_qubit_gates(self) -> int:
        """Count of 2Q unitary gates (the dominant error source)."""
        return sum(
            1
            for inst in self._instructions
            if inst.is_unitary and is_two_qubit(inst.name)
        )

    def num_single_qubit_gates(self) -> int:
        """Count of 1Q unitary gates."""
        return sum(
            1
            for inst in self._instructions
            if inst.is_unitary and inst.num_qubits == 1
        )

    def depth(self) -> int:
        """Circuit depth: longest chain of dependent operations."""
        frontier: Dict[int, int] = {}
        depth = 0
        for inst in self._instructions:
            if inst.is_barrier:
                level = max(frontier.values(), default=0)
                frontier = {q: level for q in range(self.num_qubits)}
                continue
            level = 1 + max((frontier.get(q, 0) for q in inst.qubits), default=0)
            for q in inst.qubits:
                frontier[q] = level
            depth = max(depth, level)
        return depth

    def used_qubits(self) -> Tuple[int, ...]:
        """Sorted qubits touched by at least one instruction."""
        used = sorted({q for inst in self._instructions for q in inst.qubits})
        return tuple(used)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        return Circuit(
            self.num_qubits,
            name=self.name if name is None else name,
            instructions=self._instructions,
        )

    def remap(self, mapping, num_qubits: Optional[int] = None) -> "Circuit":
        """Relabel qubits through ``mapping`` (dict or sequence)."""
        if num_qubits is None:
            num_qubits = self.num_qubits
        out = Circuit(num_qubits, name=self.name)
        for inst in self._instructions:
            out.append(inst.remap(mapping))
        return out

    def compose(self, other: "Circuit") -> "Circuit":
        """Append another circuit's instructions (same qubit space)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError(
                f"cannot compose {other.num_qubits}-qubit circuit into "
                f"{self.num_qubits}-qubit circuit"
            )
        for inst in other:
            self.append(inst)
        return self

    def repeated(self, times: int, name: Optional[str] = None) -> "Circuit":
        """Concatenate the unitary part ``times`` times, then measure.

        Used to build the looped Toffoli / Fredkin sequences of paper
        Figure 11(e, f).  Existing measurements are moved to the end.
        """
        if times < 1:
            raise ValueError("repetition count must be >= 1")
        body = [inst for inst in self._instructions if inst.is_unitary]
        measures = [inst for inst in self._instructions if inst.is_measurement]
        out = Circuit(
            self.num_qubits,
            name=name if name is not None else f"{self.name}_x{times}",
        )
        for _ in range(times):
            for inst in body:
                out.append(inst)
        for inst in measures:
            out.append(inst)
        return out

    def without_measurements(self) -> "Circuit":
        """Copy with measurement/barrier pseudo-ops removed."""
        out = Circuit(self.num_qubits, name=self.name)
        for inst in self._instructions:
            if inst.is_unitary:
                out.append(inst)
        return out

    def __str__(self) -> str:
        body = "\n".join(f"  {inst}" for inst in self._instructions)
        return f"Circuit {self.name!r} ({self.num_qubits} qubits):\n{body}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_instructions={len(self)})"
        )
