"""Structured diagnostics for the compiler pipeline.

Every invariant the contracts layer enforces raises a subclass of
:class:`ContractError` carrying machine-readable context: a stable
error code (the README's error-code table), the pass that produced the
bad output, the offending instruction/qubits when one exists, the
device, and a remediation hint.  Subclasses that replace historical
bare ``ValueError``/``RuntimeError`` raises also inherit the old type,
so existing ``except ValueError`` call sites keep working.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ContractError(Exception):
    """A compiler pass emitted output that violates its contract.

    Attributes:
        code: stable error code, e.g. ``"ROUTE001"``.
        pass_name: the pipeline stage whose output failed the check.
        device: device name the compile targeted (None if unknown).
        instruction: string form of the offending instruction, if any.
        qubits: qubit indices involved in the violation, if any.
        hint: one-line remediation suggestion.
    """

    code: str = "CONTRACT000"
    pass_name: str = "unknown"
    default_hint: str = "re-run with --contracts off to bypass (unsafe)"

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        pass_name: Optional[str] = None,
        device: Optional[str] = None,
        instruction: Optional[str] = None,
        qubits: Tuple[int, ...] = (),
        hint: Optional[str] = None,
    ) -> None:
        self.code = code or type(self).code
        self.pass_name = pass_name or type(self).pass_name
        self.device = device
        self.instruction = instruction
        self.qubits = tuple(qubits)
        self.hint = hint or type(self).default_hint
        self.message = message
        super().__init__(message)

    def describe(self) -> str:
        """The full diagnostic, one field per line."""
        lines = [f"[{self.code}] {self.pass_name}: {self.message}"]
        if self.device is not None:
            lines.append(f"  device: {self.device}")
        if self.instruction is not None:
            lines.append(f"  instruction: {self.instruction}")
        if self.qubits:
            lines.append(f"  qubits: {self.qubits}")
        lines.append(f"  hint: {self.hint}")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line form, the shape recorded in sweep cell results."""
        return f"{self.code} {self.pass_name}: {self.message}"


class MappingContractError(ContractError, ValueError):
    """The placement pass produced an invalid program->hardware map."""

    code = "MAP001"
    pass_name = "mapping"
    default_hint = (
        "check InitialMapping.placement covers every program qubit with "
        "a distinct in-range hardware qubit"
    )


class MapperDivergenceError(MappingContractError):
    """The mapper portfolio's heuristic and exact solvers diverged
    beyond the differential bound (or the heuristic claimed an
    objective better than the proven optimum, which is unsound)."""

    code = "MAP002"
    pass_name = "mapping"
    default_hint = (
        "re-run with --mapper=exact to confirm the optimum; a genuine "
        "heuristic regression needs the differential bound re-blessed "
        "(see TESTING.md, 'Mapper differential gate')"
    )


class RoutingContractError(ContractError, RuntimeError):
    """Routing emitted a 2Q gate on an uncoupled hardware pair."""

    code = "ROUTE001"
    pass_name = "routing"
    default_hint = (
        "the router must insert swaps until both operands share a "
        "coupling-graph edge"
    )


class SchedulingContractError(ContractError, RuntimeError):
    """The scheduled circuit is not a dependency-preserving reordering
    of the source program."""

    code = "SCHED001"
    pass_name = "scheduling"
    default_hint = (
        "per-qubit instruction order must match the source DAG; only "
        "swap insertion and terminal-measurement deferral may differ"
    )


class TranslationContractError(ContractError, ValueError):
    """Translation left a gate outside the device's software-visible
    gate set (or on an unsupported hardware direction)."""

    code = "TRANS001"
    pass_name = "translation"
    default_hint = (
        "run translate_two_qubit_gates plus a 1Q translation before "
        "emitting device code"
    )


class OneQubitContractError(ContractError, ValueError):
    """1Q coalescing changed the unitary of some rotation run."""

    code = "OPT1Q001"
    pass_name = "1q-optimization"
    default_hint = (
        "the coalesced quaternion must equal the product of the "
        "absorbed rotations up to global phase"
    )


class CodegenContractError(ContractError, ValueError):
    """Emitted executable text does not round-trip to the same circuit."""

    code = "CODEGEN001"
    pass_name = "codegen"
    default_hint = "emit and parse must be exact inverses for this format"


class CodegenEmitError(CodegenContractError):
    """A circuit reached the emitter without full translation."""

    code = "CODEGEN002"
    pass_name = "codegen"
    default_hint = "translate the circuit to the vendor gate set first"


class CodegenParseError(CodegenContractError):
    """Malformed executable text, with source position.

    Attributes:
        line_number: 1-based line of the offending text (None if the
            failure is global, e.g. a missing declaration).
        text: the offending source line.
    """

    code = "CODEGEN003"
    pass_name = "codegen-parse"
    default_hint = "fix the malformed line or regenerate the executable"

    def __init__(
        self,
        message: str,
        *,
        line_number: Optional[int] = None,
        text: Optional[str] = None,
        **kwargs,
    ) -> None:
        self.line_number = line_number
        self.text = text
        location = "" if line_number is None else f"line {line_number}: "
        detail = "" if text is None else f" in {text!r}"
        super().__init__(f"{location}{message}{detail}", **kwargs)


class SemanticsContractError(ContractError, AssertionError):
    """The compiled program's output distribution diverged from the
    source program's (end-to-end miscompile)."""

    code = "SEM001"
    pass_name = "semantics"
    default_hint = (
        "shrink with `repro fuzz` to find the minimal miscompiling "
        "circuit, then bisect the pipeline stage checks"
    )


#: Every contract error class, keyed by code prefix — the README table.
class PassDistributionError(ContractError, AssertionError):
    """An optimization pass changed the ideal output distribution."""

    code = "OPT001"
    pass_name = "pass-manager"
    default_hint = (
        "the offending rewrite is unsound; report the circuit with "
        "`repro fuzz` so it can be shrunk to a reproducer"
    )


class PassMonotonicityError(ContractError, AssertionError):
    """An optimization pass increased the 2Q-gate count."""

    code = "OPT002"
    pass_name = "pass-manager"
    default_hint = (
        "passes must be monotone in 2Q count; a rewrite that trades "
        "2Q gates upward belongs in routing, not optimization"
    )


class PassConvergenceError(ContractError, RuntimeError):
    """The pass pipeline failed to reach a fixed point."""

    code = "OPT003"
    pass_name = "pass-manager"
    default_hint = (
        "two passes are undoing each other's rewrites; raise "
        "max_iterations or drop one of them from the preset"
    )


ERROR_CODES = {
    "MAP001": MappingContractError,
    "MAP002": MapperDivergenceError,
    "ROUTE001": RoutingContractError,
    "SCHED001": SchedulingContractError,
    "TRANS001": TranslationContractError,
    "OPT1Q001": OneQubitContractError,
    "CODEGEN001": CodegenContractError,
    "CODEGEN002": CodegenEmitError,
    "CODEGEN003": CodegenParseError,
    "SEM001": SemanticsContractError,
    "OPT001": PassDistributionError,
    "OPT002": PassMonotonicityError,
    "OPT003": PassConvergenceError,
}
