"""Differential fuzzing harness for the compiler pipeline.

Seeded random circuits are pushed through every (device, compiler)
pair under pass contracts, and each outcome is classified:

``contract``
    A pass contract fired (strict mode raised a
    :class:`~repro.contracts.errors.ContractError`, or warn mode
    recorded violations on the compiled program).
``crash``
    The compiler raised anything *other* than a contract error — a
    bare bug the contracts layer did not anticipate.
``differential``
    Compilation "succeeded" but the ideal output distribution of the
    compiled program disagrees with the source circuit's — the
    cross-check that catches wrong-answer bugs contracts miss.

Every finding is shrunk by greedy instruction deletion (ddmin-style,
one-at-a-time) to a minimal circuit that still reproduces the same
failure kind, then written as a replayable JSON artifact;
:func:`replay_reproducer` re-runs one artifact and reports whether it
still fails.  The whole harness is deterministic in
``FuzzConfig.seed``: circuit *i* is generated from its own derived RNG,
so findings replay regardless of which devices or compilers ran.

This module is deliberately *not* imported from
:mod:`repro.contracts`'s ``__init__`` — it pulls in the experiment
runner (and hence the full device library), which plain contract users
should not pay for.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.compiler.options import CompileOptions
from repro.compiler.passes import OPT_PRESETS
from repro.contracts.errors import ContractError
from repro.ir.circuit import Circuit
from repro.ir.decompose import decompose_to_basis
from repro.ir.instruction import Instruction

#: Artifact schema version; bump on incompatible layout changes.
ARTIFACT_VERSION = 1

#: Parameter-free 1Q gates in the generator pool.
_FIXED_1Q = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
#: Parameterized 1Q rotations (one uniform angle in (-pi, pi]).
_PARAM_1Q = ("rx", "ry", "rz")
#: 2Q gates (``swap``/``cz`` exercise the decompose pass too).
_TWO_Q = ("cx", "cx", "cz", "swap")

#: Large odd multiplier decorrelating per-circuit RNG streams.
_SEED_STRIDE = 1_000_003

#: Fuzzing's default compile options: strict contracts, otherwise the
#: paper's pipeline.
STRICT_OPTIONS = CompileOptions(contracts="strict")


@dataclass
class FuzzConfig:
    """One fuzzing campaign's knobs (all deterministic in ``seed``)."""

    circuits: int = 50
    seed: int = 0
    min_qubits: int = 2
    max_qubits: int = 4
    max_gates: int = 12
    #: Devices to target: :class:`~repro.devices.device.Device` objects
    #: or library names; None means all seven machines of the study.
    devices: Optional[Sequence[Any]] = None
    #: Compiler labels (TriQ levels and/or "Qiskit"/"Quil"); None means
    #: all four TriQ levels plus both vendor baselines.
    compilers: Optional[Sequence[Any]] = None
    #: Compile options for every attempt.  A "portfolio" mapper also
    #: exercises the MAP002 heuristic-vs-exact divergence check.
    options: CompileOptions = STRICT_OPTIONS
    #: Draw each circuit's ``opt`` preset from its own RNG, after the
    #: circuit, so the generated circuits match a fixed-preset run's.
    sample_opt: bool = False
    #: Total-variation tolerance of the differential cross-check.
    atol: float = 1e-6
    shrink: bool = True
    #: Compile-attempt budget per finding during shrinking.
    max_shrink_attempts: int = 200
    #: Where reproducer JSON artifacts go; None disables writing.
    artifact_dir: Optional[Union[str, Path]] = None


@dataclass
class FuzzFinding:
    """One classified failure, after shrinking."""

    kind: str
    device: str
    compiler: str
    circuit_index: int
    error: str
    original_instructions: int
    shrunk_instructions: int
    artifact_path: Optional[str] = None


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign."""

    attempts: int
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def random_circuit(
    rng: random.Random,
    num_qubits: int,
    num_gates: int,
    name: str = "fuzz",
) -> Circuit:
    """One random circuit over the generator's gate pool, measured.

    Ends with ``measure_all`` so both the semantics contract and the
    differential cross-check have observable output.
    """
    circuit = Circuit(num_qubits, name=name)
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.35:
            gate = rng.choice(_FIXED_1Q)
            circuit.add(gate, (rng.randrange(num_qubits),))
        elif roll < 0.55:
            gate = rng.choice(_PARAM_1Q)
            angle = rng.uniform(-math.pi, math.pi)
            circuit.add(gate, (rng.randrange(num_qubits),), (angle,))
        elif roll < 0.95 or num_qubits < 3:
            gate = rng.choice(_TWO_Q)
            a, b = rng.sample(range(num_qubits), 2)
            circuit.add(gate, (a, b))
        else:
            a, b, c = rng.sample(range(num_qubits), 3)
            circuit.add("ccx", (a, b, c))
    circuit.measure_all()
    return circuit


def circuit_to_payload(circuit: Circuit) -> Dict[str, Any]:
    """JSON-safe description of a circuit (inverse of
    :func:`circuit_from_payload`)."""
    return {
        "name": circuit.name,
        "num_qubits": circuit.num_qubits,
        "instructions": [
            [
                inst.name,
                list(inst.qubits),
                list(inst.params),
                list(inst.cbits),
            ]
            for inst in circuit
        ],
    }


def circuit_from_payload(payload: Dict[str, Any]) -> Circuit:
    """Rebuild a circuit from :func:`circuit_to_payload` output."""
    instructions = [
        Instruction(name, tuple(qubits), tuple(params), tuple(cbits))
        for name, qubits, params, cbits in payload["instructions"]
    ]
    return Circuit(
        payload["num_qubits"],
        name=payload.get("name", "reproducer"),
        instructions=instructions,
    )


def classify(
    circuit: Circuit,
    device,
    compiler,
    options: CompileOptions = STRICT_OPTIONS,
    atol: float = 1e-6,
) -> Optional[Tuple[str, str]]:
    """Compile one circuit and classify the outcome.

    Returns ``(kind, error)`` for a failure, or None when the circuit
    compiles cleanly and the compiled program's ideal distribution
    matches the source's.  A portfolio mapper additionally classifies
    MAP002 heuristic-vs-exact divergences as contract findings; an
    engaged pass-manager preset surfaces a miscompiling rewrite as a
    differential finding even with contracts off.
    """
    # Deferred: the runner drags in the device library and cache stack.
    from repro.experiments.runner import compile_with
    from repro.sim import ideal_distribution
    from repro.verify import distribution_distance

    try:
        program = compile_with(circuit, device, compiler, options=options)
    except ContractError as exc:
        return ("contract", exc.summary())
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        return ("crash", f"{type(exc).__name__}: {exc}")
    if program.contract_violations:
        return ("contract", "; ".join(program.contract_violations))
    if not any(inst.is_measurement for inst in circuit):
        # No observable output (can happen after shrinking deletes the
        # measurements); the differential check is vacuous.
        return None
    # Differential cross-check, independent of the contracts layer:
    # simulate the decomposed source (the compiler's own entry basis)
    # against the compiled hardware circuit.
    expected = ideal_distribution(decompose_to_basis(circuit))
    actual = ideal_distribution(program.circuit)
    distance = distribution_distance(expected, actual)
    if distance > atol:
        return (
            "differential",
            f"ideal distributions differ: total variation {distance:.3e} "
            f"> atol {atol:g}",
        )
    return None


def shrink_circuit(
    circuit: Circuit,
    device,
    compiler,
    kind: str,
    options: CompileOptions = STRICT_OPTIONS,
    atol: float = 1e-6,
    max_attempts: int = 200,
) -> Circuit:
    """Greedy one-at-a-time instruction deletion preserving ``kind``.

    Classic ddmin degenerates to this granularity for instruction
    lists; one-at-a-time is simpler and the circuits are small.  Each
    candidate costs one compile, bounded by ``max_attempts``.
    """
    current = list(circuit.instructions)
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for index in range(len(current)):
            if attempts >= max_attempts:
                break
            candidate_insts = current[:index] + current[index + 1:]
            try:
                candidate = Circuit(
                    circuit.num_qubits,
                    name=circuit.name,
                    instructions=candidate_insts,
                )
            except ValueError:
                continue
            attempts += 1
            outcome = classify(
                candidate, device, compiler, options=options, atol=atol
            )
            if outcome is not None and outcome[0] == kind:
                current = candidate_insts
                progress = True
                break
    return Circuit(
        circuit.num_qubits, name=circuit.name, instructions=current
    )


def write_reproducer(
    path: Union[str, Path],
    circuit: Circuit,
    finding: FuzzFinding,
    options: CompileOptions,
    atol: float,
) -> Path:
    """Write one finding's replayable JSON artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": ARTIFACT_VERSION,
        "kind": finding.kind,
        "device": finding.device,
        "compiler": finding.compiler,
        "contracts": options.contracts.value,
        "atol": atol,
        "mapper": options.mapper,
        "opt": options.opt,
        "circuit_index": finding.circuit_index,
        "error": finding.error,
        "original_instructions": finding.original_instructions,
        "circuit": circuit_to_payload(circuit),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def replay_reproducer(path: Union[str, Path]) -> Optional[Tuple[str, str]]:
    """Re-run one artifact; ``(kind, error)`` if it still fails, else None."""
    from repro.devices import device_by_name
    from repro.experiments.runner import resolve_compiler

    payload = json.loads(Path(path).read_text())
    circuit = circuit_from_payload(payload["circuit"])
    device = device_by_name(payload["device"], day=0)
    compiler = resolve_compiler(payload["compiler"])
    # Artifacts predating the mapper/opt knobs simply lack them.
    options = CompileOptions.from_params({"contracts": "strict", **payload})
    return classify(
        circuit, device, compiler, options=options,
        atol=payload.get("atol", 1e-6),
    )


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run one fuzzing campaign and return its classified findings."""
    from repro.devices import all_devices, device_by_name
    from repro.experiments.runner import compiler_label, resolve_compiler

    if config.devices is None:
        devices = all_devices(day=0)
    else:
        devices = [
            device_by_name(d, day=0) if isinstance(d, str) else d
            for d in config.devices
        ]
    if config.compilers is None:
        from repro.compiler import OptimizationLevel

        compilers = list(OptimizationLevel) + ["Qiskit", "Quil"]
    else:
        compilers = [resolve_compiler(compiler_label(c)) for c in config.compilers]

    attempts = 0
    findings: List[FuzzFinding] = []
    for index in range(config.circuits):
        rng = random.Random(config.seed * _SEED_STRIDE + index)
        num_qubits = rng.randint(config.min_qubits, config.max_qubits)
        num_gates = rng.randint(1, config.max_gates)
        circuit = random_circuit(
            rng, num_qubits, num_gates, name=f"fuzz-{config.seed}-{index}"
        )
        # Sampled *after* generation from the same per-circuit RNG, so
        # sampling fuzzes the same circuits a fixed-preset run sees.
        options = config.options
        if config.sample_opt:
            options = replace(options, opt=rng.choice(OPT_PRESETS))
        for device in devices:
            if circuit.num_qubits > device.num_qubits:
                continue
            for compiler in compilers:
                attempts += 1
                outcome = classify(
                    circuit, device, compiler, options=options,
                    atol=config.atol,
                )
                if outcome is None:
                    continue
                kind, error = outcome
                label = compiler_label(compiler)
                reduced = circuit
                if config.shrink:
                    reduced = shrink_circuit(
                        circuit,
                        device,
                        compiler,
                        kind,
                        options=options,
                        atol=config.atol,
                        max_attempts=config.max_shrink_attempts,
                    )
                finding = FuzzFinding(
                    kind=kind,
                    device=device.name,
                    compiler=label,
                    circuit_index=index,
                    error=error,
                    original_instructions=len(circuit.instructions),
                    shrunk_instructions=len(reduced.instructions),
                )
                if config.artifact_dir is not None:
                    safe_device = device.name.replace(" ", "_")
                    artifact = write_reproducer(
                        Path(config.artifact_dir)
                        / f"fuzz-{config.seed}-{index}-{safe_device}-{label}.json",
                        reduced,
                        finding,
                        options,
                        config.atol,
                    )
                    finding.artifact_path = str(artifact)
                findings.append(finding)
    return FuzzReport(attempts=attempts, findings=findings)
