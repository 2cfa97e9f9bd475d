"""Pass contracts for the TriQ pipeline: machine-checkable invariants
on every compiler stage, structured diagnostics, and fault injection.

* :mod:`repro.contracts.errors` — the :class:`ContractError` hierarchy
  (stable error codes, pass names, offending instruction/qubits,
  remediation hints).
* :mod:`repro.contracts.mode` — :class:`ContractMode` (strict / warn /
  off) and the :class:`ContractRecorder` that applies it.
* :mod:`repro.contracts.checks` — one ``check_*`` per pipeline stage.
* :mod:`repro.contracts.inject` — ``REPRO_CONTRACT_FAULT`` corruption
  hook proving the checks catch broken passes.
* :mod:`repro.contracts.fuzz` — the differential fuzzing harness
  (imported lazily: it pulls in the experiment runner).
"""

from repro.contracts.errors import (
    ContractError,
    MapperDivergenceError,
    MappingContractError,
    RoutingContractError,
    SchedulingContractError,
    TranslationContractError,
    OneQubitContractError,
    CodegenContractError,
    CodegenEmitError,
    CodegenParseError,
    SemanticsContractError,
    ERROR_CODES,
)
from repro.contracts.mode import ContractMode, ContractRecorder
from repro.contracts.checks import (
    check_mapper_divergence,
    check_mapping,
    check_routing,
    check_scheduling,
    check_translation,
    check_onequbit,
    check_codegen,
    check_semantics,
    check_compiled_program,
)
from repro.contracts.inject import CONTRACT_FAULT_ENV, injected_stage

__all__ = [
    "ContractError",
    "MapperDivergenceError",
    "MappingContractError",
    "RoutingContractError",
    "SchedulingContractError",
    "TranslationContractError",
    "OneQubitContractError",
    "CodegenContractError",
    "CodegenEmitError",
    "CodegenParseError",
    "SemanticsContractError",
    "ERROR_CODES",
    "ContractMode",
    "ContractRecorder",
    "check_mapper_divergence",
    "check_mapping",
    "check_routing",
    "check_scheduling",
    "check_translation",
    "check_onequbit",
    "check_codegen",
    "check_semantics",
    "check_compiled_program",
    "CONTRACT_FAULT_ENV",
    "injected_stage",
]
