"""End-to-end compilation pipeline and the Table 1 optimization levels."""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.cache.active import get_active_cache
from repro.cache.keys import reliability_key, warm_hint_key
from repro.devices.device import Device
from repro.ir.circuit import Circuit
from repro.ir.instruction import Instruction
from repro.ir.decompose import decompose_to_basis
from repro.compiler.mapping import InitialMapping, default_mapping, smt_mapping
from repro.compiler.onequbit import count_pulses, optimize_single_qubit_gates
from repro.compiler.reliability import ReliabilityMatrix, compute_reliability
from repro.compiler.routing import route_circuit
from repro.compiler.translate import (
    naive_translate_1q,
    translate_two_qubit_gates,
)
# Module objects (not names) so the circular package-init dance stays
# safe: repro.contracts.checks itself imports compiler submodules.
from repro.contracts import checks as contract_checks
from repro.contracts import inject as contract_inject
from repro.contracts.mode import ContractRecorder
from repro.compiler.options import DEFAULT_OPTIONS, CompileOptions
from repro.compiler.passes import build_pass_manager
# Only the tracer module: the pipeline must not pay for the metrics or
# profiling imports, and obs_span is free when no tracer is active.
from repro.obs.tracer import span as obs_span

logger = logging.getLogger("repro.compiler")


class OptimizationLevel(str, enum.Enum):
    """The compiler configurations of paper Table 1."""

    #: No optimization, default qubit mapping, naive gate translation.
    N = "TriQ-N"
    #: 1Q gate optimization, default qubit mapping.
    OPT_1Q = "TriQ-1QOpt"
    #: 1Q opt + communication-optimized mapping (noise-unaware).
    OPT_1QC = "TriQ-1QOptC"
    #: 1Q opt + communication- and noise-optimized mapping.
    OPT_1QCN = "TriQ-1QOptCN"

    @property
    def optimizes_1q(self) -> bool:
        return self is not OptimizationLevel.N

    @property
    def optimizes_communication(self) -> bool:
        return self in (OptimizationLevel.OPT_1QC, OptimizationLevel.OPT_1QCN)

    @property
    def noise_aware(self) -> bool:
        return self is OptimizationLevel.OPT_1QCN


@dataclass(frozen=True)
class CompiledProgram:
    """Output of the TriQ pipeline (or a baseline) for one circuit.

    ``level`` is an :class:`OptimizationLevel` for TriQ configurations
    and a plain label string (``"Qiskit"``, ``"Quil"``) for the vendor
    baselines.
    """

    circuit: Circuit
    source_name: str
    device: Device
    level: Union[OptimizationLevel, str]
    initial_mapping: InitialMapping
    final_placement: Tuple[int, ...]
    num_swaps: int
    compile_time_s: float
    #: One-line contract-violation summaries recorded when the compile
    #: ran with warn-mode contracts (empty when strict/off or clean).
    contract_violations: Tuple[str, ...] = ()
    #: Optimization preset the compile ran with ("none" when the pass
    #: manager was not engaged).
    opt: str = DEFAULT_OPTIONS.opt
    #: Per-pass accounting rows from the pass manager — ``(pass, runs,
    #: rewrites, gates_in, gates_out, two_qubit_in, two_qubit_out,
    #: wall_s)`` — empty at ``opt="none"``.
    opt_stats: Tuple[Tuple[Any, ...], ...] = ()

    # ------------------------------------------------------------------
    # The metrics the paper's figures plot.
    # ------------------------------------------------------------------
    def two_qubit_gate_count(self) -> int:
        """Hardware 2Q gates after all lowering (Figures 10, 11a)."""
        return self.circuit.num_two_qubit_gates()

    def one_qubit_pulse_count(self) -> int:
        """Physical X/Y pulses (Figure 8)."""
        return count_pulses(self.circuit)

    def depth(self) -> int:
        return self.circuit.depth()

    def executable(self) -> str:
        """Device-specific executable code (OpenQASM / Quil / UMDTI ASM)."""
        from repro.backends import generate_code

        return generate_code(self.circuit, self.device)

    # ------------------------------------------------------------------
    # Artifact serialization (the compile cache's storage format).
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """Plain-data artifact for the on-disk compile cache.

        The device is deliberately excluded: the cache key already pins
        device identity and calibration content, and the loader
        reattaches the caller's live :class:`Device`.
        """
        return {
            "instructions": [
                (inst.name, inst.qubits, inst.params, inst.cbits)
                for inst in self.circuit
            ],
            "num_qubits": self.circuit.num_qubits,
            "circuit_name": self.circuit.name,
            "source_name": self.source_name,
            "level": (
                self.level.value
                if isinstance(self.level, OptimizationLevel)
                else self.level
            ),
            "placement": tuple(self.initial_mapping.placement),
            "num_hardware_qubits": self.initial_mapping.num_hardware_qubits,
            "objective": self.initial_mapping.objective,
            "solver_nodes": self.initial_mapping.solver_nodes,
            "solver_time_s": self.initial_mapping.solver_time_s,
            "degraded": self.initial_mapping.degraded,
            "mapper_method": self.initial_mapping.method,
            "bound_trajectory": [
                list(event) for event in self.initial_mapping.bound_trajectory
            ],
            "solver_runs": [
                list(run) for run in self.initial_mapping.solver_runs
            ],
            "bound_shared": self.initial_mapping.bound_shared,
            "final_placement": tuple(self.final_placement),
            "num_swaps": self.num_swaps,
            "compile_time_s": self.compile_time_s,
            "contract_violations": list(self.contract_violations),
            "opt": self.opt,
            "opt_stats": [list(row) for row in self.opt_stats],
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, Any], device: Device
    ) -> "CompiledProgram":
        """Rebuild a compiled program from :meth:`to_payload` output."""
        circuit = Circuit(
            payload["num_qubits"],
            name=payload["circuit_name"],
            instructions=(
                Instruction(name, tuple(qubits), tuple(params), tuple(cbits))
                for name, qubits, params, cbits in payload["instructions"]
            ),
        )
        level: Union[OptimizationLevel, str]
        try:
            level = OptimizationLevel(payload["level"])
        except ValueError:
            level = payload["level"]
        mapping = InitialMapping(
            placement=tuple(payload["placement"]),
            num_hardware_qubits=payload["num_hardware_qubits"],
            objective=payload["objective"],
            solver_nodes=payload["solver_nodes"],
            solver_time_s=payload["solver_time_s"],
            # Entries written before the flag existed default to False.
            degraded=payload.get("degraded", False),
            # Entries written before the mapper portfolio existed were
            # all exact solves (or the default placement, which never
            # reports an objective).
            method=payload.get(
                "mapper_method",
                "default" if payload["objective"] is None else "exact",
            ),
            bound_trajectory=tuple(
                (str(source), float(objective), float(elapsed))
                for source, objective, elapsed in payload.get(
                    "bound_trajectory", ()
                )
            ),
            solver_runs=tuple(
                (str(name), float(obj), int(nodes), float(t), bool(done))
                for name, obj, nodes, t, done in payload.get(
                    "solver_runs", ()
                )
            ),
            bound_shared=payload.get("bound_shared", False),
        )
        return cls(
            circuit=circuit,
            source_name=payload["source_name"],
            device=device,
            level=level,
            initial_mapping=mapping,
            final_placement=tuple(payload["final_placement"]),
            num_swaps=payload["num_swaps"],
            compile_time_s=payload["compile_time_s"],
            # Entries written before the contracts layer lack the field.
            contract_violations=tuple(payload.get("contract_violations", ())),
            # Entries written before the pass manager were unoptimized.
            opt=payload.get("opt", "none"),
            opt_stats=tuple(
                tuple(row) for row in payload.get("opt_stats", ())
            ),
        )


def _memoized_reliability(
    device: Device, noise_aware: bool, day: Optional[int]
) -> ReliabilityMatrix:
    """Compute a reliability matrix, consulting the active cache."""
    cache = get_active_cache()
    if cache is None:
        return compute_reliability(device, noise_aware=noise_aware, day=day)
    key = reliability_key(device, noise_aware, day)
    payload = cache.get(key)
    if payload is not None:
        return ReliabilityMatrix(**payload)
    matrix = compute_reliability(device, noise_aware=noise_aware, day=day)
    cache.put(
        key,
        {
            "matrix": matrix.matrix,
            "swap_reliability": matrix.swap_reliability,
            "next_hop": matrix.next_hop,
            "gate_reliability": matrix.gate_reliability,
            "readout": matrix.readout,
        },
    )
    return matrix


class TriQCompiler:
    """The TriQ toolflow for one target device (paper Figure 4).

    Device-specific attributes — topology, gate set, noise data — are
    inputs; the passes themselves are vendor-neutral.
    """

    def __init__(
        self,
        device: Device,
        level: OptimizationLevel = OptimizationLevel.OPT_1QCN,
        day: Optional[int] = None,
        node_limit: int = 200_000,
        time_limit_s: Optional[float] = 30.0,
        router: str = "basic",
        options: CompileOptions = DEFAULT_OPTIONS,
    ) -> None:
        if router not in ("basic", "lookahead"):
            raise ValueError(
                f"unknown router {router!r}; choose 'basic' (per-gate "
                "most-reliable path, the paper's) or 'lookahead'"
            )
        self.device = device
        self.level = level
        self.day = day
        self.node_limit = node_limit
        self.time_limit_s = time_limit_s
        self.router = router
        #: Contracts, mapper backend, pass-manager preset and warm
        #: starts (see :class:`repro.compiler.options.CompileOptions`).
        #: Warm hints only take effect when a cache is active: they are
        #: stored under a calibration-free key so a placement solved on
        #: one day seeds the solver's bound on every other day.
        self.options = options
        #: Whether the most recent :meth:`map_qubits` consumed a hint
        #: (surfaced on the ``map`` obs span).
        self.last_map_warm_started = False
        self._reliability_unaware: Optional[ReliabilityMatrix] = None
        self._reliability_aware: Optional[ReliabilityMatrix] = None

    # ------------------------------------------------------------------
    def reliability(self, noise_aware: bool) -> ReliabilityMatrix:
        """The (cached) reliability matrix for this device and day.

        Memoized per compiler instance, and — when a cache is active
        (see :mod:`repro.cache.active`) — persistently on disk, so
        repeated sweeps and pool workers share one computation per
        (device, calibration day, noise-awareness) triple.
        """
        if noise_aware:
            if self._reliability_aware is None:
                self._reliability_aware = _memoized_reliability(
                    self.device, True, self.day
                )
            return self._reliability_aware
        if self._reliability_unaware is None:
            self._reliability_unaware = _memoized_reliability(
                self.device, False, self.day
            )
        return self._reliability_unaware

    def _warm_hint(self, circuit: Circuit):
        """(hint placement or None, hint key or None, cache or None).

        Hints live in the active cache under a calibration-free key
        (:func:`repro.cache.keys.warm_hint_key`), so a placement solved
        against one day's calibration warm-starts the same circuit on
        every other day.  Anything malformed in a stored payload is
        treated as a miss — the hint layer must never fail a compile.
        """
        if not self.options.warm_start:
            return None, None, None
        cache = get_active_cache()
        if cache is None or not cache.enabled:
            return None, None, None
        key = warm_hint_key(
            circuit,
            self.device,
            getattr(self.level, "value", str(self.level)),
        )
        hint = None
        payload = cache.get(key)
        if payload is not None:
            try:
                hint = tuple(int(v) for v in payload["placement"])
            except (KeyError, TypeError, ValueError):
                hint = None
        return hint, key, cache

    def map_qubits(self, circuit: Circuit) -> InitialMapping:
        """The placement pass for the configured level.

        A solver that exhausts its budget already degrades internally
        (it returns its greedy incumbent, flagged ``degraded``); a
        solver that *raises* degrades here to the default placement so
        one pathological mapping problem cannot abort a whole sweep.
        Either way the degradation is recorded on the mapping.
        """
        self.last_map_warm_started = False
        if not self.level.optimizes_communication:
            return default_mapping(circuit, self.device)
        reliability = self.reliability(self.level.noise_aware)
        hint, hint_key, hint_cache = self._warm_hint(circuit)
        try:
            mapping = smt_mapping(
                circuit,
                self.device,
                reliability,
                node_limit=self.node_limit,
                time_limit_s=self.time_limit_s,
                warm_hint=hint,
                mapper=self.options.mapper,
            )
        except Exception:  # noqa: BLE001 - degrade, don't abort
            logger.warning(
                "SMT mapping failed for %r on %s; degrading to the "
                "default placement",
                circuit.name, self.device.name, exc_info=True,
            )
            return replace(
                default_mapping(circuit, self.device), degraded=True
            )
        self.last_map_warm_started = hint is not None
        if hint_cache is not None and not mapping.degraded:
            hint_cache.put(
                hint_key,
                {
                    "placement": list(mapping.placement),
                    "objective": mapping.objective,
                },
            )
        return mapping

    def compile(self, circuit: Circuit) -> CompiledProgram:
        """Run the full pipeline on one program.

        When :attr:`contracts` is enabled, every stage output is checked
        against its machine-checkable invariant (strict mode raises a
        :class:`~repro.contracts.errors.ContractError`; warn mode logs
        and records one-line summaries on the returned program).  The
        ``REPRO_CONTRACT_FAULT`` hook (:mod:`repro.contracts.inject`)
        can deliberately corrupt one stage to prove the checks fire.
        """
        started = time.monotonic()
        options = self.options
        recorder = ContractRecorder(options.contracts)
        # The corruption hook only fires when contracts are enabled: it
        # exists to prove the checks catch a broken pass, so with the
        # checks off it must not perturb compilation at all.
        injecting = (
            options.contracts.enabled
            and contract_inject.injected_stage() is not None
        )
        device = self.device
        with obs_span(
            "compile",
            circuit=circuit.name,
            device=device.name,
            level=getattr(self.level, "value", str(self.level)),
        ) as compile_span:
            with obs_span("decompose") as sp:
                decomposed = decompose_to_basis(circuit)
                if sp:
                    sp.set(gates_in=len(circuit), gates_out=len(decomposed))
            with obs_span("map") as sp:
                mapping = self.map_qubits(decomposed)
                if sp:
                    sp.set(
                        objective=mapping.objective,
                        solver_nodes=mapping.solver_nodes,
                        solver_time_s=mapping.solver_time_s,
                        degraded=mapping.degraded,
                        warm_started=self.last_map_warm_started,
                        mapper=options.mapper,
                        method=mapping.method,
                        bound_shared=mapping.bound_shared,
                        bound_trajectory=[
                            list(event)
                            for event in mapping.bound_trajectory
                        ],
                        solver_runs=[
                            list(run) for run in mapping.solver_runs
                        ],
                    )
            pristine_mapping = mapping
            if injecting:
                mapping = contract_inject.maybe_corrupt_mapping(mapping)
            recorder.run(
                lambda: contract_checks.check_mapping(mapping, decomposed, device)
            )
            recorder.run(
                lambda: contract_checks.check_mapper_divergence(
                    mapping, device
                )
            )
            if injecting and recorder.violations:
                # Warn mode reached here with a corrupted placement, which
                # cannot route; continue with the pristine artifact so the
                # recorded violation still rides on a finished program.
                mapping = pristine_mapping
            # The route span covers gate scheduling too: routing replays
            # the scheduled per-qubit DAG order while inserting swaps.
            with obs_span("route", router=self.router) as sp:
                routing_reliability = self.reliability(self.level.noise_aware)
                if self.router == "lookahead":
                    from repro.compiler.lookahead import lookahead_route

                    routed = lookahead_route(
                        decomposed, self.device, mapping, routing_reliability
                    )
                else:
                    routed = route_circuit(
                        decomposed, self.device, mapping, routing_reliability
                    )
                if sp:
                    sp.set(
                        swaps=routed.num_swaps,
                        depth_in=decomposed.depth(),
                        depth_out=routed.circuit.depth(),
                    )
            if injecting:
                routed = contract_inject.maybe_corrupt_routed(routed)
            recorder.run(lambda: contract_checks.check_routing(routed, device))
            recorder.run(
                lambda: contract_checks.check_scheduling(decomposed, routed, device)
            )
            routed_circuit = routed.circuit
            opt_stats: Tuple[Tuple[Any, ...], ...] = ()
            if options.opt != "none":
                # Optimize at the CNOT level, where routing artifacts
                # (swap chains meeting their gate) are visible: routing
                # and scheduling contracts have already run, and the
                # end-to-end semantics check still covers the result.
                manager = build_pass_manager(options.opt, device=device.name)
                with obs_span("optimize", preset=options.opt) as sp:
                    lowered = decompose_to_basis(routed_circuit)
                    routed_circuit = manager.run(lowered, recorder=recorder)
                    if sp:
                        sp.set(
                            gates_in=len(lowered),
                            gates_out=len(routed_circuit),
                            two_qubit_delta=(
                                routed_circuit.num_two_qubit_gates()
                                - lowered.num_two_qubit_gates()
                            ),
                            iterations=manager.iterations,
                            converged=manager.converged,
                        )
                opt_stats = manager.stats_rows()
            with obs_span("translate") as sp:
                translated = translate_two_qubit_gates(routed_circuit, self.device)
                if sp:
                    sp.set(two_qubit_gates=translated.num_two_qubit_gates())
            if injecting:
                translated = contract_inject.maybe_corrupt_translated(translated)
            with obs_span("1qopt", optimizing=self.level.optimizes_1q) as sp:
                if self.level.optimizes_1q:
                    final = optimize_single_qubit_gates(
                        translated, self.device.gate_set
                    )
                else:
                    final = naive_translate_1q(translated, self.device.gate_set)
                if sp:
                    sp.set(pulses=count_pulses(final))
            if injecting:
                final = contract_inject.maybe_corrupt_final(
                    final, self.device.gate_set
                )
            with obs_span("contracts", mode=options.contracts.value):
                recorder.run(
                    lambda: contract_checks.check_onequbit(translated, final, device)
                )
                recorder.run(
                    lambda: contract_checks.check_translation(final, device)
                )
                recorder.run(lambda: contract_checks.check_codegen(final, device))
                recorder.run(
                    lambda: contract_checks.check_semantics(decomposed, final, device)
                )
            elapsed = time.monotonic() - started
            if compile_span:
                compile_span.set(
                    swaps=routed.num_swaps,
                    depth=final.depth(),
                    two_qubit_gates=final.num_two_qubit_gates(),
                    violations=len(recorder.violations),
                )
        return CompiledProgram(
            circuit=final,
            source_name=circuit.name,
            device=self.device,
            level=self.level,
            initial_mapping=mapping,
            final_placement=routed.final_placement,
            num_swaps=routed.num_swaps,
            compile_time_s=elapsed,
            contract_violations=tuple(recorder.violations),
            opt=options.opt,
            opt_stats=opt_stats,
        )


def compile_circuit(
    circuit: Circuit,
    device: Device,
    level: OptimizationLevel = OptimizationLevel.OPT_1QCN,
    day: Optional[int] = None,
    **solver_options,
) -> CompiledProgram:
    """One-shot convenience wrapper around :class:`TriQCompiler`."""
    compiler = TriQCompiler(device, level=level, day=day, **solver_options)
    return compiler.compile(circuit)
