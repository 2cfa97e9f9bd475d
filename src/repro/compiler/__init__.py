"""The TriQ compiler core (paper section 4).

The pipeline mirrors Figure 4:

1. :mod:`repro.compiler.reliability` — distill topology + noise data
   into the 2Q reliability matrix and readout vector.
2. :mod:`repro.compiler.mapping` — place program qubits on hardware
   qubits by constrained optimization (max-min reliability).
3. :mod:`repro.compiler.routing` — schedule gates topologically and
   insert swaps along most-reliable paths.
4. :mod:`repro.compiler.translate` — implement IR gates in each
   vendor's software-visible gate set (CNOT / CZ+rotations / XX+rotations,
   direction orientation on IBM).
5. :mod:`repro.compiler.onequbit` — coalesce 1Q gate runs via
   quaternions into two virtual-Z rotations plus at most one physical
   pulse pair.
6. :mod:`repro.compiler.pipeline` — the four optimization levels of
   paper Table 1 glued end to end, producing a :class:`CompiledProgram`.

:mod:`repro.compiler.passes` adds a Quilc-style fixed-point pass
manager on top (the ``--opt {none,basic,full}`` presets), and
:mod:`repro.compiler.options` bundles the post-paper knobs into one
:class:`CompileOptions` value.
"""

from repro.compiler.reliability import ReliabilityMatrix, compute_reliability
from repro.compiler.mapping import InitialMapping, default_mapping, smt_mapping
from repro.compiler.routing import route_circuit, RoutedCircuit
from repro.compiler.translate import translate_two_qubit_gates, naive_translate_1q
from repro.compiler.onequbit import (
    gate_quaternion,
    optimize_single_qubit_gates,
    count_pulses,
)
from repro.compiler.pipeline import (
    OptimizationLevel,
    CompiledProgram,
    TriQCompiler,
    compile_circuit,
)
from repro.compiler.options import DEFAULT_OPTIONS, CompileOptions
from repro.compiler.commute import commute_rotations_forward
from repro.compiler.passes import (
    OPT_PRESETS,
    PassManager,
    build_pass_manager,
    preset_passes,
)

__all__ = [
    "OPT_PRESETS",
    "PassManager",
    "build_pass_manager",
    "preset_passes",
    "ReliabilityMatrix",
    "compute_reliability",
    "InitialMapping",
    "default_mapping",
    "smt_mapping",
    "route_circuit",
    "RoutedCircuit",
    "translate_two_qubit_gates",
    "naive_translate_1q",
    "gate_quaternion",
    "optimize_single_qubit_gates",
    "count_pulses",
    "OptimizationLevel",
    "CompiledProgram",
    "TriQCompiler",
    "compile_circuit",
    "commute_rotations_forward",
    "CompileOptions",
    "DEFAULT_OPTIONS",
]
