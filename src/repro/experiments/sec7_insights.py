"""Section 7: the architecture implications, derived from measured data.

The paper closes its evaluation with four qualitative design insights.
This experiment re-derives each one quantitatively from the repo's own
substrates, so the claims are checked rather than quoted:

1. *Native gates should be software-visible*: an arbitrary-axis 1Q gate
   (UMDTI's Rxy) lets the compiler emit one pulse per coalesced
   rotation where a fixed X90-based interface needs up to two.
2. *Communication topology matters*: the same program needs strictly
   more 2Q gates on sparser topologies (line > grid > full).
3. *Noise-aware compilation pays even on low-error machines*: the
   noise-aware mapping's minimum-edge reliability beats the
   noise-unaware placement's on UMDTI.
4. *Recompile against fresh calibration*: placements chosen for one
   day's data are sub-optimal for another day's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.compiler import (
    OptimizationLevel,
    TriQCompiler,
    compile_circuit,
    compute_reliability,
)
from repro.devices import (
    Topology,
    ibmq14_melbourne,
    umd_trapped_ion,
)
from repro.devices.gatesets import GATESET_BY_FAMILY, VendorFamily
from repro.devices.library import _machine
from repro.devices.device import Device
from repro.experiments.tables import format_table
from repro.ir.decompose import decompose_to_basis
from repro.programs import bernstein_vazirani, qft_benchmark


@dataclass
class Sec7Result:
    #: Insight 1: pulses per coalesced rotation, by vendor.
    pulses_by_vendor: Dict[str, int]
    #: Insight 2: QFT4 2Q gate count by topology shape.
    gates_by_topology: Dict[str, int]
    #: Insight 3: min mapped-edge reliability, unaware vs aware, UMDTI.
    umdti_min_reliability: Tuple[float, float]
    #: Insight 4: day-0 placement quality evaluated on later days vs
    #: fresh placements (average min reliability).
    stale_vs_fresh: Tuple[float, float]


def _topology_device(topology: Topology, name: str) -> Device:
    return _machine(
        name, VendorFamily.RIGETTI, topology, (0.05, 0.003, 0.04), seed=17,
        coherence_time_us=20.0,
    )


def run() -> Sec7Result:
    # Insight 1: a worst-case coalesced rotation per vendor interface.
    from repro.compiler.onequbit import count_pulses, emit_rotation
    from repro.ir.circuit import Circuit
    from repro.rotations import Quaternion

    rotation = Quaternion.rx(0.9) * Quaternion.ry(0.4) * Quaternion.rz(1.3)
    pulses_by_vendor = {}
    for family, gate_set in GATESET_BY_FAMILY.items():
        emitted = Circuit(1, instructions=emit_rotation(0, rotation, gate_set))
        pulses_by_vendor[family.value] = count_pulses(emitted)

    # Insight 2: QFT4 across line / grid / fully-connected 8-qubit
    # devices with identical error statistics.
    circuit, _ = qft_benchmark(4)
    gates_by_topology = {}
    for label, topology in (
        ("line", Topology.line(8)),
        ("grid", Topology.grid(2, 4)),
        ("full", Topology.full(8)),
    ):
        device = _topology_device(topology, f"8q {label}")
        program = compile_circuit(
            circuit, device, level=OptimizationLevel.OPT_1QC
        )
        gates_by_topology[label] = program.two_qubit_gate_count()

    # Insight 3: minimum mapped-edge reliability on UMDTI.  A 3-qubit
    # program on 5 ions leaves real placement freedom.
    from repro.programs import toffoli_benchmark

    device = umd_trapped_ion()
    calibration = device.calibration()
    toffoli, _ = toffoli_benchmark()
    decomposed = decompose_to_basis(toffoli)

    def min_edge_reliability(level: OptimizationLevel) -> float:
        compiler = TriQCompiler(device, level=level)
        mapping = compiler.map_qubits(decomposed)
        from repro.ir.dag import interaction_pairs

        return min(
            calibration.edge_reliability(
                mapping.placement[a], mapping.placement[b]
            )
            for a, b in (tuple(p) for p in interaction_pairs(decomposed))
        )

    umdti_min = (
        min_edge_reliability(OptimizationLevel.OPT_1QC),
        min_edge_reliability(OptimizationLevel.OPT_1QCN),
    )

    # Insight 4: stale vs fresh placements on IBMQ14 across days.
    bv6, _ = bernstein_vazirani(6)
    decomposed6 = decompose_to_basis(bv6)
    day0 = ibmq14_melbourne(0)
    compiler0 = TriQCompiler(day0, level=OptimizationLevel.OPT_1QCN, day=0)
    stale_placement = compiler0.map_qubits(decomposed6)

    def placement_quality(placement, day: int) -> float:
        device = ibmq14_melbourne(day)
        reliability = compute_reliability(device, day=day)
        sym = reliability.symmetric()
        from repro.ir.dag import interaction_pairs

        return min(
            sym[placement[a], placement[b]]
            for a, b in (tuple(p) for p in interaction_pairs(decomposed6))
        )

    stale_scores, fresh_scores = [], []
    for day in range(1, 6):
        stale_scores.append(
            placement_quality(stale_placement.placement, day)
        )
        compiler = TriQCompiler(
            ibmq14_melbourne(day),
            level=OptimizationLevel.OPT_1QCN,
            day=day,
        )
        fresh = compiler.map_qubits(decomposed6)
        fresh_scores.append(placement_quality(fresh.placement, day))
    stale_vs_fresh = (
        sum(stale_scores) / len(stale_scores),
        sum(fresh_scores) / len(fresh_scores),
    )

    return Sec7Result(
        pulses_by_vendor=pulses_by_vendor,
        gates_by_topology=gates_by_topology,
        umdti_min_reliability=umdti_min,
        stale_vs_fresh=stale_vs_fresh,
    )


def format_result(result: Sec7Result) -> str:
    sections = [
        format_table(
            ["Vendor interface", "Pulses per coalesced rotation"],
            sorted(result.pulses_by_vendor.items()),
            title="Insight 1: software-visible native gates (section 7)",
        ),
        format_table(
            ["Topology (8 qubits)", "QFT4 2Q gates"],
            sorted(result.gates_by_topology.items()),
            title="Insight 2: communication topology",
        ),
        (
            "Insight 3: noise-awareness on a low-error machine (UMDTI)\n"
            f"  min mapped-edge reliability, noise-unaware: "
            f"{result.umdti_min_reliability[0]:.4f}\n"
            f"  min mapped-edge reliability, noise-aware:   "
            f"{result.umdti_min_reliability[1]:.4f}"
        ),
        (
            "Insight 4: recompile against fresh calibration (IBMQ14)\n"
            f"  avg min reliability, day-0 placement reused: "
            f"{result.stale_vs_fresh[0]:.4f}\n"
            f"  avg min reliability, fresh daily placement:  "
            f"{result.stale_vs_fresh[1]:.4f}"
        ),
    ]
    return "\n\n".join(sections)
