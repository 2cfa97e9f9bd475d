"""The benchmark registry: the paper's 12-program suite with answers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.ir.circuit import Circuit
from repro.programs.adder import cuccaro_adder
from repro.programs.bv import bernstein_vazirani
from repro.programs.gates3q import (
    fredkin_benchmark,
    or_benchmark,
    peres_benchmark,
    toffoli_benchmark,
)
from repro.programs.hiddenshift import hidden_shift
from repro.programs.qft import qft_benchmark


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: a circuit factory plus its correct output."""

    name: str
    factory: Callable[[], Tuple[Circuit, str]]
    #: Short description of the interaction-graph shape (paper 6.2).
    interaction_shape: str

    def build(self) -> Tuple[Circuit, str]:
        """Fresh ``(circuit, correct_output)`` pair."""
        circuit, correct = self.factory()
        return circuit, correct

    @property
    def num_qubits(self) -> int:
        circuit, _ = self.factory()
        return circuit.num_qubits


def standard_suite() -> List[Benchmark]:
    """The 12 benchmarks, in the paper's figure order."""
    return [
        Benchmark("BV4", lambda: bernstein_vazirani(4), "4-qubit star"),
        Benchmark("BV6", lambda: bernstein_vazirani(6), "6-qubit star"),
        Benchmark("BV8", lambda: bernstein_vazirani(8), "8-qubit star"),
        Benchmark("HS2", lambda: hidden_shift(2), "disjoint 2-qubit edges"),
        Benchmark("HS4", lambda: hidden_shift(4), "disjoint 2-qubit edges"),
        Benchmark("HS6", lambda: hidden_shift(6), "disjoint 2-qubit edges"),
        Benchmark("Toffoli", toffoli_benchmark, "3-qubit triangle"),
        Benchmark("Fredkin", fredkin_benchmark, "3-qubit triangle"),
        Benchmark("Or", or_benchmark, "3-qubit triangle"),
        Benchmark("Peres", peres_benchmark, "3-qubit triangle"),
        Benchmark("QFT", lambda: qft_benchmark(4), "all-to-all"),
        Benchmark("Adder", lambda: cuccaro_adder(), "3-qubit triangle + tail"),
    ]


def benchmark_by_name(name: str) -> Benchmark:
    """Case-insensitive lookup into the standard suite."""
    for benchmark in standard_suite():
        if benchmark.name.lower() == name.lower():
            return benchmark
    known = ", ".join(b.name for b in standard_suite())
    raise KeyError(f"unknown benchmark {name!r}; known benchmarks: {known}")
