"""Per-layer replay: one input through each layer's public functions.

:func:`compile_cell` calls the pipeline stages in the order
``TriQCompiler.compile`` runs them, timing each call from here; the
program itself is not instrumented.  The caller compares the replay's
executable (and success rate) with the untraced API result for the
same input, so a replay that drifted from the pipeline fails the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from common import Layers

#: The mapper budget ``compile_with`` gives ``TriQCompiler``.
NODE_LIMIT = 200_000
TIME_LIMIT_S = 30.0

#: Layers timed by the replay, in pipeline order.
LAYERS = (
    "ir",
    "compiler.reliability",
    "smt",
    "compiler.routing",
    "compiler.passes",
    "compiler.translate",
    "compiler.onequbit",
    "contracts",
    "backends",
    "sim",
)


@dataclass
class Replayed:
    executable: str
    two_qubit_gates: int
    success_rate: Optional[float] = None


def reliability_source(
    layers: Layers, memo: Optional[Dict[Tuple, object]] = None
) -> Callable:
    """``(device, noise_aware, day) -> ReliabilityMatrix``, timed.

    With ``memo`` the matrix is computed once per (device, day,
    noise-awareness), as a sweep or the service does through the
    active cache; without it, once per compile, as an uncached API
    compile does.
    """
    from repro.compiler.reliability import compute_reliability

    def get(device, noise_aware: bool, day: int):
        key = (device.name, noise_aware, day)
        if memo is not None and key in memo:
            return memo[key]
        layers.add("compiler.reliability.calls")
        matrix = layers.call(
            "compiler.reliability", compute_reliability, device,
            noise_aware=noise_aware, day=day,
        )
        if memo is not None:
            memo[key] = matrix
        return matrix

    return get


def compile_cell(layers: Layers, cell, reliability: Callable):
    """Compile one cell stage by stage; returns ``(device, final, text)``."""
    from repro import api
    from repro.backends import generate_code
    from repro.compiler.mapping import default_mapping, smt_mapping
    from repro.compiler.onequbit import (
        count_pulses,
        optimize_single_qubit_gates,
    )
    from repro.compiler.passes import build_pass_manager
    from repro.compiler.routing import route_circuit
    from repro.compiler.translate import (
        naive_translate_1q,
        translate_two_qubit_gates,
    )
    from repro.contracts import checks
    from repro.contracts.mode import ContractRecorder
    from repro.devices import device_by_name
    from repro.ir.decompose import decompose_to_basis
    from repro.programs.scaffold_sources import SCAFFOLD_SUITE

    if cell.scaffold:
        source, defines, _ = SCAFFOLD_SUITE[cell.benchmark]
        circuit, _ = api.build_program(scaffold=source, defines=defines)
    else:
        circuit, _ = api.build_program(benchmark=cell.benchmark)
    device = device_by_name(cell.device, day=cell.day)
    level = api.resolve_level(cell.level)
    strict = cell.contracts == "strict"

    def check(fn, *args):
        if strict:
            layers.call("contracts", fn, *args)

    decomposed = layers.call("ir", decompose_to_basis, circuit)
    layers.add("ir.gates_out", len(decomposed))
    matrix = reliability(device, level.noise_aware, cell.day)
    if level.optimizes_communication:
        mapping = layers.call(
            "smt", smt_mapping, decomposed, device, matrix,
            node_limit=NODE_LIMIT, time_limit_s=TIME_LIMIT_S,
            warm_hint=None, mapper=cell.mapper,
        )
    else:
        mapping = layers.call("smt", default_mapping, decomposed, device)
    layers.add("smt.solver_nodes", mapping.solver_nodes)
    layers.add("smt.degraded", int(mapping.degraded))
    check(checks.check_mapping, mapping, decomposed, device)
    check(checks.check_mapper_divergence, mapping, device)
    routed = layers.call(
        "compiler.routing", route_circuit, decomposed, device, mapping,
        matrix,
    )
    layers.add("compiler.routing.swaps", routed.num_swaps)
    check(checks.check_routing, routed, device)
    check(checks.check_scheduling, decomposed, routed, device)
    routed_circuit = routed.circuit
    if cell.opt != "none":
        manager = build_pass_manager(cell.opt, device=device.name)
        lowered = layers.call(
            "compiler.passes", decompose_to_basis, routed_circuit
        )
        recorder = ContractRecorder(cell.contracts)
        routed_circuit = layers.call(
            "compiler.passes", manager.run, lowered, recorder=recorder
        )
        layers.add("compiler.passes.gates_removed", manager.gates_removed())
        layers.add(
            "compiler.passes.two_qubit_removed", manager.two_qubit_removed()
        )
    translated = layers.call(
        "compiler.translate", translate_two_qubit_gates, routed_circuit,
        device,
    )
    if level.optimizes_1q:
        final = layers.call(
            "compiler.onequbit", optimize_single_qubit_gates, translated,
            device.gate_set,
        )
    else:
        final = layers.call(
            "compiler.onequbit", naive_translate_1q, translated,
            device.gate_set,
        )
    layers.add("compiler.onequbit.pulses", count_pulses(final))
    check(checks.check_onequbit, translated, final, device)
    check(checks.check_translation, final, device)
    check(checks.check_codegen, final, device)
    check(checks.check_semantics, decomposed, final, device)
    text = layers.call("backends", generate_code, final, device)
    layers.add("backends.bytes", len(text.encode("utf-8")))
    return device, final, text


def run_cell(
    layers: Layers,
    cell,
    reliability: Callable,
    fault_samples: Optional[int],
) -> Replayed:
    """Compile one cell, then (with ``fault_samples``) estimate success."""
    from repro.programs import benchmark_by_name
    from repro.sim import monte_carlo_success_rate

    device, final, text = compile_cell(layers, cell, reliability)
    replayed = Replayed(text, final.num_two_qubit_gates())
    if fault_samples is None:
        return replayed
    _, correct = benchmark_by_name(cell.benchmark).build()
    estimate = layers.call(
        "sim", monte_carlo_success_rate, final, device, correct,
        day=cell.day, fault_samples=fault_samples,
    )
    layers.add("sim.runs")
    layers.add("sim.state_qubits", final.num_qubits)
    layers.add("sim.fault_samples", estimate.fault_samples)
    replayed.success_rate = estimate.success_rate
    return replayed
