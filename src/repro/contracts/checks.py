"""Machine-checkable invariants for every compiler stage.

Each ``check_*`` function inspects one stage's output and raises the
matching :mod:`repro.contracts.errors` exception when the contract is
violated:

* :func:`check_mapping` — every program qubit on a distinct, in-range
  hardware qubit.
* :func:`check_mapper_divergence` — when the solver portfolio ran both
  heuristics and a finished exact solve, the heuristic objective stays
  within the blessed differential bound of the proven optimum.
* :func:`check_routing` — 2Q gates only on coupled pairs; swap count
  and final placement consistent with the emitted swap gates.
* :func:`check_scheduling` — the routed circuit is a
  dependency-preserving reordering of the source program: per program
  qubit, the instruction stream (reconstructed by replaying swaps) is
  identical, with only terminal measurements deferred.
* :func:`check_translation` — only device software-visible gates, in
  hardware-supported directions.
* :func:`check_onequbit` — 1Q coalescing preserved each rotation run's
  unitary (quaternion comparison, global phase discarded).
* :func:`check_codegen` — emitted executable text parses back to the
  same circuit for the device's vendor format.
* :func:`check_semantics` — end-to-end: the compiled circuit's ideal
  output distribution matches the source program's (small circuits).

The checks are pure observers: they never mutate their inputs, and the
pipeline only invokes them when a :class:`~repro.contracts.mode.
ContractMode` asks for them.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.compiler.mapping import InitialMapping
from repro.compiler.onequbit import gate_quaternion
from repro.compiler.routing import RoutedCircuit
from repro.contracts.errors import (
    CodegenContractError,
    MapperDivergenceError,
    MappingContractError,
    OneQubitContractError,
    RoutingContractError,
    SchedulingContractError,
    SemanticsContractError,
    TranslationContractError,
)
from repro.devices.device import Device
from repro.devices.gatesets import VendorFamily
from repro.ir.circuit import Circuit
from repro.rotations import Quaternion

#: Quaternion comparison tolerance for coalesced rotation runs.
_QUAT_ATOL = 1e-6

#: Angle tolerance for codegen round-trips.  The UMDTI assembly prints
#: angles as 6-decimal multiples of pi, so its quantization error is
#: bounded by pi * 5e-7.
_ANGLE_ATOL = 5e-6

#: Largest hardware-qubit count the end-to-end semantic check will
#: simulate (after compacting the compiled circuit to its used qubits).
DEFAULT_SEMANTIC_QUBIT_LIMIT = 12


# ----------------------------------------------------------------------
# Mapping
# ----------------------------------------------------------------------
def check_mapping(
    mapping: InitialMapping, circuit: Circuit, device: Device
) -> None:
    """The placement covers every program qubit, injectively, in range."""
    placement = mapping.placement
    if len(placement) != circuit.num_qubits:
        raise MappingContractError(
            f"placement has {len(placement)} entries for a "
            f"{circuit.num_qubits}-qubit program",
            device=device.name,
            qubits=tuple(range(circuit.num_qubits)),
        )
    if len(set(placement)) != len(placement):
        seen: Dict[int, int] = {}
        for program, hw in enumerate(placement):
            if hw in seen:
                raise MappingContractError(
                    f"program qubits {seen[hw]} and {program} both placed "
                    f"on hardware qubit {hw}",
                    device=device.name,
                    qubits=(seen[hw], program),
                )
            seen[hw] = program
    for program, hw in enumerate(placement):
        if not 0 <= hw < device.num_qubits:
            raise MappingContractError(
                f"program qubit {program} placed on hardware qubit {hw}, "
                f"outside the device's {device.num_qubits} qubits",
                device=device.name,
                qubits=(program,),
            )


#: The differential quality bound: whenever the exact solver finishes,
#: the portfolio's best heuristic objective must reach at least this
#: fraction of the proven optimum (the bound the differential gate
#: suite blesses; see tests/test_mapper_portfolio.py).
DEFAULT_MAPPER_DIVERGENCE_RATIO = 0.95


def _solver_run_fields(run) -> Tuple[str, float, bool]:
    """(name, objective, finished) from a SolverRun or its plain tuple.

    :class:`~repro.compiler.mapping.InitialMapping` stores runs as
    plain ``(name, objective, nodes, time_s, finished)`` tuples for
    payload round-trips; live :class:`~repro.smt.solver.SolverRun`
    records are accepted too.
    """
    if hasattr(run, "objective"):
        return str(run.name), float(run.objective), bool(run.finished)
    name, objective, _nodes, _time_s, finished = run
    return str(name), float(objective), bool(finished)


def check_mapper_divergence(
    mapping: InitialMapping,
    device: Device,
    min_ratio: float = DEFAULT_MAPPER_DIVERGENCE_RATIO,
) -> None:
    """Heuristic and exact solver answers agree up to the blessed bound.

    Applies only when a portfolio race recorded both a *finished* exact
    run (a proven optimum) and heuristic runs.  Two invariants:

    * soundness — no heuristic objective may exceed the proven optimum
      (scoring disagreement between the solvers);
    * quality — when no heuristic run was truncated by a deadline, the
      best heuristic objective must reach ``min_ratio`` of the optimum
      (the differential gate's bound).
    """
    runs = [
        _solver_run_fields(run)
        for run in getattr(mapping, "solver_runs", ()) or ()
    ]
    exact = [run for run in runs if run[0] == "exact" and run[2]]
    heuristics = [run for run in runs if run[0] != "exact"]
    if not exact or not heuristics:
        return
    optimum = exact[-1][1]
    best = max(run[1] for run in heuristics)
    if best > optimum + 1e-9:
        raise MapperDivergenceError(
            f"heuristic objective {best:.6g} exceeds the exact solver's "
            f"proven optimum {optimum:.6g} — the solvers score "
            "assignments differently",
            device=device.name,
        )
    untruncated = all(run[2] for run in heuristics)
    if optimum > 0 and untruncated and best < min_ratio * optimum - 1e-12:
        raise MapperDivergenceError(
            f"best heuristic objective {best:.6g} fell below "
            f"{min_ratio:g}x the proven optimum {optimum:.6g} "
            f"(ratio {best / optimum:.4f})",
            device=device.name,
        )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
def _replay_swaps(
    routed: RoutedCircuit,
) -> Tuple[Dict[int, int], int]:
    """Replay swap gates; final ``hardware -> program`` map + swap count."""
    hw_to_program = {
        hw: program
        for program, hw in enumerate(routed.initial_mapping.placement)
    }
    swaps = 0
    for inst in routed.circuit:
        if inst.name == "swap":
            a, b = inst.qubits
            pa, pb = hw_to_program.pop(a, None), hw_to_program.pop(b, None)
            if pb is not None:
                hw_to_program[a] = pb
            if pa is not None:
                hw_to_program[b] = pa
            swaps += 1
    return hw_to_program, swaps


def check_routing(routed: RoutedCircuit, device: Device) -> None:
    """2Q gates only on coupled pairs; bookkeeping matches the gates."""
    for inst in routed.circuit:
        if inst.is_unitary and inst.num_qubits == 2:
            a, b = inst.qubits
            if not device.topology.are_coupled(a, b):
                raise RoutingContractError(
                    f"2Q gate on uncoupled hardware pair ({a}, {b})",
                    device=device.name,
                    instruction=str(inst),
                    qubits=(a, b),
                )
    hw_to_program, swaps = _replay_swaps(routed)
    if swaps != routed.num_swaps:
        raise RoutingContractError(
            f"routing reports {routed.num_swaps} swaps but emitted {swaps}",
            code="ROUTE002",
            device=device.name,
        )
    program_to_hw = {p: hw for hw, p in hw_to_program.items()}
    for program, hw in enumerate(routed.final_placement):
        if program_to_hw.get(program) != hw:
            raise RoutingContractError(
                f"final placement says program qubit {program} is on "
                f"hardware qubit {hw}, but replaying the emitted swaps "
                f"puts it on {program_to_hw.get(program)}",
                code="ROUTE003",
                device=device.name,
                qubits=(program,),
            )


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
_BARRIER_MARK = ("barrier", (), ())


def _program_streams(
    circuit: Circuit,
    num_program_qubits: int,
    initial_placement: Optional[Tuple[int, ...]] = None,
    device: Optional[Device] = None,
) -> Tuple[Dict[int, List[Tuple]], Dict[int, List[Tuple[int, ...]]]]:
    """Per-program-qubit streams of (name, params, program-qubit tuple).

    With ``initial_placement`` the circuit is a routed hardware circuit:
    swap gates update the live hardware->program map and are excluded
    from the streams; every other instruction is translated back to
    program-qubit indices.  Returns ``(unitary_streams, measurements)``
    where measurements maps program qubit -> list of cbit tuples.
    """
    if initial_placement is None:
        hw_to_program = {q: q for q in range(circuit.num_qubits)}
    else:
        hw_to_program = {
            hw: program for program, hw in enumerate(initial_placement)
        }
    streams: Dict[int, List[Tuple]] = {
        q: [] for q in range(num_program_qubits)
    }
    measures: Dict[int, List[Tuple[int, ...]]] = {}
    for inst in circuit:
        if initial_placement is not None and inst.name == "swap":
            a, b = inst.qubits
            pa, pb = hw_to_program.pop(a, None), hw_to_program.pop(b, None)
            if pb is not None:
                hw_to_program[a] = pb
            if pa is not None:
                hw_to_program[b] = pa
            continue
        if inst.is_barrier:
            for q in streams:
                streams[q].append(_BARRIER_MARK)
            continue
        program_qubits = []
        for q in inst.qubits:
            program = hw_to_program.get(q)
            if program is None:
                raise SchedulingContractError(
                    f"instruction touches hardware qubit {q}, which holds "
                    "no program data",
                    code="SCHED002",
                    device=device.name if device is not None else None,
                    instruction=str(inst),
                    qubits=inst.qubits,
                )
            program_qubits.append(program)
        if inst.is_measurement:
            measures.setdefault(program_qubits[0], []).append(inst.cbits)
            continue
        entry = (inst.name, inst.params, tuple(program_qubits))
        for program in program_qubits:
            streams[program].append(entry)
    return streams, measures


def check_scheduling(
    source: Circuit, routed: RoutedCircuit, device: Device
) -> None:
    """The routed circuit preserves the source DAG's dependencies.

    Per program qubit, the reconstructed instruction stream (swaps
    replayed out) must equal the source stream exactly; measurements
    may only be deferred, and only when they are terminal in the source
    (the IR contract).
    """
    src_streams, src_measures = _program_streams(source, source.num_qubits)
    routed_streams, routed_measures = _program_streams(
        routed.circuit,
        source.num_qubits,
        initial_placement=routed.initial_mapping.placement,
        device=device,
    )
    for q in range(source.num_qubits):
        if src_streams[q] != routed_streams[q]:
            raise SchedulingContractError(
                f"program qubit {q}'s instruction stream changed: source "
                f"has {len(src_streams[q])} ops, routed has "
                f"{len(routed_streams[q])} (first divergence at position "
                f"{_first_divergence(src_streams[q], routed_streams[q])})",
                device=device.name,
                qubits=(q,),
            )
    if src_measures != routed_measures:
        raise SchedulingContractError(
            f"measurement wiring changed: source measures "
            f"{sorted(src_measures)} but routed measures "
            f"{sorted(routed_measures)} (or cbits differ)",
            code="SCHED003",
            device=device.name,
        )
    # Deferral is only sound when source measurements are terminal.
    seen_measure = set()
    for inst in source:
        if inst.is_measurement:
            seen_measure.add(inst.qubits[0])
        elif inst.is_unitary:
            for q in inst.qubits:
                if q in seen_measure:
                    raise SchedulingContractError(
                        f"source measures qubit {q} mid-circuit; deferring "
                        "that measurement changes semantics",
                        code="SCHED003",
                        device=device.name,
                        instruction=str(inst),
                        qubits=(q,),
                    )


def _first_divergence(a: List, b: List) -> int:
    for index, (left, right) in enumerate(zip(a, b)):
        if left != right:
            return index
    return min(len(a), len(b))


# ----------------------------------------------------------------------
# Translation
# ----------------------------------------------------------------------
def check_translation(circuit: Circuit, device: Device) -> None:
    """Every gate is software-visible and hardware-direction legal."""
    gate_set = device.gate_set
    for inst in circuit:
        if not gate_set.supports(inst.name):
            raise TranslationContractError(
                f"gate {inst.name!r} is not in the "
                f"{gate_set.family.value} software-visible set "
                f"{gate_set.software_visible}",
                device=device.name,
                instruction=str(inst),
                qubits=inst.qubits,
            )
        if inst.is_unitary and inst.num_qubits == 2:
            a, b = inst.qubits
            if gate_set.family is VendorFamily.IBM:
                if not device.topology.supports_direction(a, b):
                    raise TranslationContractError(
                        f"cx {a}->{b} is not a hardware-supported "
                        "direction",
                        code="TRANS002",
                        device=device.name,
                        instruction=str(inst),
                        qubits=(a, b),
                    )
            elif not device.topology.are_coupled(a, b):
                raise TranslationContractError(
                    f"2Q gate on uncoupled pair ({a}, {b})",
                    code="TRANS002",
                    device=device.name,
                    instruction=str(inst),
                    qubits=(a, b),
                )


# ----------------------------------------------------------------------
# 1Q coalescing
# ----------------------------------------------------------------------
def _rotation_segments(
    circuit: Circuit,
) -> Tuple[List[Tuple[Tuple, Dict[int, Quaternion]]], Dict[int, Quaternion]]:
    """Accumulated 1Q rotations, flushed at each non-1Q boundary.

    Returns ``(boundaries, final)`` where each boundary is the non-1Q
    instruction's identity plus the quaternions flushed at it, and
    ``final`` holds each qubit's trailing rotation.
    """
    pending: Dict[int, Quaternion] = {}
    boundaries: List[Tuple[Tuple, Dict[int, Quaternion]]] = []
    for inst in circuit:
        if inst.is_unitary and inst.num_qubits == 1:
            q = inst.qubits[0]
            rotation = gate_quaternion(inst.name, inst.params)
            pending[q] = (
                rotation * pending.get(q, Quaternion.identity())
            ).normalized()
            continue
        flushed = (
            sorted(pending) if inst.is_barrier else list(inst.qubits)
        )
        snapshot = {
            q: pending.pop(q, Quaternion.identity()) for q in flushed
        }
        key = (inst.name, inst.qubits, inst.params, inst.cbits)
        boundaries.append((key, snapshot))
    return boundaries, pending


def _quaternions_match(a: Quaternion, b: Quaternion) -> bool:
    """Equal up to global phase (the quaternion double cover)."""
    negated = Quaternion(-b.w, -b.x, -b.y, -b.z)
    return a.approx_equal(b, atol=_QUAT_ATOL) or a.approx_equal(
        negated, atol=_QUAT_ATOL
    )


def check_onequbit(before: Circuit, after: Circuit, device: Device) -> None:
    """1Q translation/coalescing preserved each rotation run's unitary."""
    src_bounds, src_final = _rotation_segments(before)
    out_bounds, out_final = _rotation_segments(after)
    if [k for k, _ in src_bounds] != [k for k, _ in out_bounds]:
        raise OneQubitContractError(
            "1Q optimization changed the sequence of non-1Q instructions "
            f"({len(src_bounds)} boundaries before, {len(out_bounds)} "
            "after)",
            code="OPT1Q002",
            device=device.name,
        )
    for index, ((key, src_snap), (_, out_snap)) in enumerate(
        zip(src_bounds, out_bounds)
    ):
        for q in set(src_snap) | set(out_snap):
            left = src_snap.get(q, Quaternion.identity())
            right = out_snap.get(q, Quaternion.identity())
            if not _quaternions_match(left, right):
                raise OneQubitContractError(
                    f"rotation run on qubit {q} before boundary {index} "
                    f"({key[0]} {key[1]}) changed unitary: {left} vs "
                    f"{right}",
                    device=device.name,
                    qubits=(q,),
                )
    for q in set(src_final) | set(out_final):
        left = src_final.get(q, Quaternion.identity())
        right = out_final.get(q, Quaternion.identity())
        if not _quaternions_match(left, right):
            raise OneQubitContractError(
                f"trailing rotation run on qubit {q} changed unitary: "
                f"{left} vs {right}",
                device=device.name,
                qubits=(q,),
            )


# ----------------------------------------------------------------------
# Codegen round-trip
# ----------------------------------------------------------------------
def _parse_executable(text: str, device: Device) -> Circuit:
    # Imported lazily: repro.backends itself imports the contract error
    # types, so a module-level import here would be circular.
    from repro.backends import parse_openqasm, parse_quil, parse_umdti_asm

    family = device.gate_set.family
    if family is VendorFamily.IBM:
        return parse_openqasm(text)
    if family is VendorFamily.RIGETTI:
        return parse_quil(text, num_qubits=device.num_qubits)
    return parse_umdti_asm(text, num_qubits=device.num_qubits)


def check_codegen(circuit: Circuit, device: Device) -> None:
    """Emit -> parse -> same circuit, for the device's vendor format."""
    from repro.backends import generate_code
    from repro.contracts.inject import maybe_corrupt_text

    text = maybe_corrupt_text("codegen", generate_code(circuit, device))
    parsed = _parse_executable(text, device)
    if parsed.num_qubits != circuit.num_qubits:
        raise CodegenContractError(
            f"round-trip changed qubit count: emitted "
            f"{circuit.num_qubits}, parsed {parsed.num_qubits}",
            device=device.name,
        )
    if len(parsed) != len(circuit):
        raise CodegenContractError(
            f"round-trip changed instruction count: emitted "
            f"{len(circuit)}, parsed back {len(parsed)}",
            device=device.name,
        )
    for index, (emitted, recovered) in enumerate(zip(circuit, parsed)):
        if (
            emitted.name != recovered.name
            or emitted.qubits != recovered.qubits
            or emitted.cbits != recovered.cbits
            or len(emitted.params) != len(recovered.params)
            # Emitters print angles on the canonical (-pi, pi] branch,
            # so compare on the circle, not the real line.
            or any(
                not angles_equal(a, b)
                for a, b in zip(emitted.params, recovered.params)
            )
        ):
            raise CodegenContractError(
                f"instruction {index} changed in round-trip: emitted "
                f"{emitted}, parsed back {recovered}",
                device=device.name,
                instruction=str(emitted),
                qubits=emitted.qubits,
            )


# ----------------------------------------------------------------------
# End-to-end semantics
# ----------------------------------------------------------------------
def semantic_distance(
    source: Circuit,
    compiled: Circuit,
    max_qubits: int = DEFAULT_SEMANTIC_QUBIT_LIMIT,
) -> Optional[Tuple[float, Dict[str, float], Dict[str, float]]]:
    """TV distance between the noise-free distributions of ``source``
    and ``compiled``, and both distributions; None (skipped) when
    ``source`` measures nothing or either circuit touches more than
    ``max_qubits`` qubits."""
    if not any(inst.is_measurement for inst in source) or any(
        len(c.used_qubits()) > max_qubits for c in (source, compiled)
    ):
        return None
    # Lazy import: repro.verify imports the compiler pipeline, which
    # imports this package.
    from repro.sim.plan import ideal_distribution
    from repro.verify import distribution_distance

    expected = ideal_distribution(source)
    actual = ideal_distribution(compiled)
    return distribution_distance(expected, actual), expected, actual


def check_semantics(
    source: Circuit,
    compiled: Circuit,
    device: Device,
    atol: float = 1e-6,
    max_qubits: int = DEFAULT_SEMANTIC_QUBIT_LIMIT,
) -> None:
    """The compiled circuit computes the source program.

    Both circuits are simulated noiselessly and their classical output
    distributions compared (:func:`semantic_distance`).  Skipped —
    contracts must never turn a working compile into a failure — when
    the source measures nothing or either circuit is too large.
    """
    if source.num_qubits > max_qubits:
        return
    compared = semantic_distance(source, compiled, max_qubits)
    if compared is None:
        return
    distance, expected, actual = compared
    if distance > atol:
        from repro.verify import divergence_detail

        raise SemanticsContractError(
            f"output distribution diverged (TV distance {distance:.3g}; "
            f"{divergence_detail(expected, actual, 3)})",
            device=device.name,
        )


# ----------------------------------------------------------------------
# Convenience: check a finished CompiledProgram in one call.
# ----------------------------------------------------------------------
def check_compiled_program(source: Circuit, program) -> List[str]:
    """Run the post-hoc checks on a finished compile.

    Used by ``repro check`` and the fuzz harness, where only the final
    :class:`~repro.compiler.pipeline.CompiledProgram` is available (the
    intermediate stage outputs are gone).  Returns the violations found
    (empty = clean) instead of raising.
    """
    violations: List[str] = []
    device = program.device
    for check in (
        lambda: check_mapper_divergence(program.initial_mapping, device),
        lambda: check_translation(program.circuit, device),
        lambda: check_codegen(program.circuit, device),
        lambda: check_semantics(source, program.circuit, device),
    ):
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - collect, don't abort
            summary = getattr(exc, "summary", None)
            violations.append(
                summary() if callable(summary) else f"{type(exc).__name__}: {exc}"
            )
    return violations


def angles_equal(a: float, b: float, atol: float = _ANGLE_ATOL) -> bool:
    """Rotation-angle equality on the circle (2*pi periodic)."""
    diff = (a - b) % (2.0 * math.pi)
    return min(diff, 2.0 * math.pi - diff) <= atol
