"""Compilation verification: does the compiled program still compute
the source program?

The test suite checks this invariant constantly; this module makes it a
public API a downstream user can run on their own programs:

* :func:`verify_compilation` — the compiled hardware circuit, simulated
  noiselessly, must produce the same classical output distribution as
  the source circuit (measurement wiring keeps classical bits in
  program-qubit order through any mapping and routing).
* :func:`assert_distributions_close` — the underlying comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.compiler.pipeline import CompiledProgram
from repro.ir.circuit import Circuit
from repro.sim.plan import ideal_distribution


class CompilationError(AssertionError):
    """The compiled program's semantics diverged from the source."""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification run."""

    source_name: str
    device_name: str
    total_variation_distance: float
    max_pointwise_error: float

    @property
    def ok(self) -> bool:
        return self.total_variation_distance < 1e-6


def distribution_distance(
    expected: Dict[str, float], actual: Dict[str, float]
) -> float:
    """Total variation distance between two output distributions."""
    keys = set(expected) | set(actual)
    return 0.5 * sum(
        abs(expected.get(k, 0.0) - actual.get(k, 0.0)) for k in keys
    )


def divergence_detail(
    expected: Dict[str, float], actual: Dict[str, float], top: int
) -> str:
    """The ``top`` outcomes whose probabilities differ most, each as
    ``bits: expected vs actual``."""
    worst = sorted(
        set(expected) | set(actual),
        key=lambda k: -abs(expected.get(k, 0.0) - actual.get(k, 0.0)),
    )[:top]
    return ", ".join(
        f"{k}: {expected.get(k, 0.0):.4f} vs {actual.get(k, 0.0):.4f}"
        for k in worst
    )


def assert_distributions_close(
    expected: Dict[str, float],
    actual: Dict[str, float],
    atol: float = 1e-9,
) -> None:
    """Raise :class:`CompilationError` when two distributions differ."""
    distance = distribution_distance(expected, actual)
    if distance > atol:
        raise CompilationError(
            f"output distributions differ (TV distance {distance:.3g}); "
            f"largest discrepancies: {divergence_detail(expected, actual, 5)}"
        )


def verify_compilation(
    source: Circuit,
    program: CompiledProgram,
    atol: float = 1e-9,
) -> VerificationReport:
    """Check a compiled program against its source circuit.

    Both circuits are simulated noiselessly and their classical output
    distributions compared.  Sources without measurements cannot be
    verified this way (there is no observable output); add measurements
    first.
    """
    expected = ideal_distribution(source)
    actual = ideal_distribution(program.circuit)
    keys = set(expected) | set(actual)
    max_pointwise = max(
        abs(expected.get(k, 0.0) - actual.get(k, 0.0)) for k in keys
    )
    report = VerificationReport(
        source_name=source.name,
        device_name=program.device.name,
        total_variation_distance=distribution_distance(expected, actual),
        max_pointwise_error=max_pointwise,
    )
    assert_distributions_close(expected, actual, atol=atol)
    return report
