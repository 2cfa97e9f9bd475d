"""The mapper portfolio's differential gate, scale smoke, and MAP002.

Every device of the study races the anytime heuristics against the
exact solver on the *identical* assignment problems the compiler sees
(via :func:`repro.compiler.mapping.mapping_problem` on decomposed
circuits):

* **Bit-identity** — a portfolio whose exact stage finishes must return
  the bit-identical placement of a cold exact solve (the bound-only
  warm-hint guarantee, PR 5).
* **Differential bound** — the pure-heuristic mapper must exact-match
  the proven optimum on the small machines (<= 8 hardware qubits, where
  the exhaustive stage enumerates every placement) and stay within
  0.95x of it everywhere else.  See TESTING.md, "Mapper differential
  gate", before touching these thresholds.
* **Scale smoke** — on 50/72/100-qubit grids the portfolio stays inside
  a sub-10s wall budget and beats the budget-cut exact incumbent, while
  exact alone cannot prove optimality under the same budget.
* **MAP002** — the divergence contract turns any breach of the above
  into a stable structured diagnostic instead of a silent quality loss.
"""

import time

import pytest

from repro.compiler.mapping import InitialMapping, mapping_problem, smt_mapping
from repro.compiler.options import CompileOptions
from repro.compiler.pipeline import OptimizationLevel, TriQCompiler
from repro.compiler.reliability import compute_reliability
from repro.contracts import (
    ERROR_CODES,
    ContractError,
    MapperDivergenceError,
    check_mapper_divergence,
)
from repro.contracts.fuzz import classify
from repro.devices.library import (
    all_devices,
    example_8q_device,
    google_bristlecone_72,
    ibmq5_tenerife,
    synthetic_grid,
)
from repro.ir.decompose import decompose_to_basis
from repro.programs.bv import bernstein_vazirani
from repro.programs.gates3q import toffoli_benchmark
from repro.programs.registry import standard_suite
from repro.smt import MaxMinSolver, PortfolioSolver

#: Devices small enough that the portfolio's exhaustive stage covers
#: every injective placement — there the heuristic answer must *equal*
#: the proven optimum, not just approximate it.
EXACT_MATCH_MAX_QUBITS = 8

#: Differential bound for the big machines: the heuristic mapper keeps
#: at least this fraction of the proven-optimal objective.  Measured
#: floor across the full matrix when this gate landed: 0.9923.
MIN_HEURISTIC_RATIO = 0.95


def fitting_problems(device):
    """(benchmark name, assignment problem) for every suite cell that fits."""
    reliability = compute_reliability(device)
    for benchmark in standard_suite():
        circuit, _ = benchmark.build()
        if circuit.num_qubits > device.num_qubits:
            continue
        decomposed = decompose_to_basis(circuit)
        yield benchmark.name, mapping_problem(decomposed, device, reliability)


class TestDifferentialGate:
    """7 paper devices x 12 benchmarks, three clauses per fitting cell."""

    @pytest.mark.parametrize(
        "device", all_devices(), ids=lambda d: d.name.replace(" ", "-")
    )
    def test_every_fitting_benchmark(self, device):
        checked = 0
        for name, problem in fitting_problems(device):
            exact = MaxMinSolver(problem).solve()
            assert exact.stats.proven_optimal, (device.name, name)

            # Clause 1: portfolio with a finishing exact stage is
            # bit-identical to the cold exact solve.
            raced = PortfolioSolver(problem).solve()
            assert raced.stats.proven_optimal, (device.name, name)
            assert raced.assignment == exact.assignment, (device.name, name)
            assert raced.objective == exact.objective, (device.name, name)
            assert raced.method == "exact"
            assert raced.bound_shared

            # Clause 2/3: the pure-heuristic mapper against the proven
            # optimum — exact-match on small machines, differentially
            # bounded on the big ones.
            heuristic = PortfolioSolver(problem, include_exact=False).solve()
            problem.validate(heuristic.assignment)
            assert heuristic.method == "heuristic"
            if device.num_qubits <= EXACT_MATCH_MAX_QUBITS:
                assert heuristic.objective == pytest.approx(
                    exact.objective, abs=1e-9
                ), (device.name, name)
            else:
                assert (
                    heuristic.objective
                    >= MIN_HEURISTIC_RATIO * exact.objective - 1e-12
                ), (
                    device.name,
                    name,
                    heuristic.objective / exact.objective,
                )
            checked += 1
        assert checked >= 5, f"suite barely exercised {device.name}"


class TestMappingSurface:
    """The ``mapper`` knob at the smt_mapping level."""

    def test_unknown_mapper_rejected(self):
        device = example_8q_device()
        circuit, _ = toffoli_benchmark()
        with pytest.raises(ValueError, match="unknown mapper"):
            smt_mapping(
                circuit, device, compute_reliability(device), mapper="z3"
            )

    def test_portfolio_mapping_matches_exact_mapping(self):
        device = example_8q_device()
        reliability = compute_reliability(device)
        circuit = decompose_to_basis(toffoli_benchmark()[0])
        exact = smt_mapping(circuit, device, reliability, mapper="exact")
        raced = smt_mapping(circuit, device, reliability, mapper="portfolio")
        assert raced.placement == exact.placement
        assert raced.method == "exact"
        assert raced.bound_shared and not exact.bound_shared
        names = [run[0] for run in raced.solver_runs]
        assert names[0] == "greedy" and names[-1] == "exact"
        objectives = [event[1] for event in raced.bound_trajectory]
        assert objectives == sorted(objectives)

    def test_heuristic_mapping_is_anytime_not_degraded(self):
        device = example_8q_device()
        reliability = compute_reliability(device)
        circuit = decompose_to_basis(toffoli_benchmark()[0])
        mapping = smt_mapping(circuit, device, reliability, mapper="heuristic")
        assert mapping.method == "heuristic"
        assert not mapping.degraded
        assert "exact" not in {run[0] for run in mapping.solver_runs}


class TestScaleSmoke:
    """BV12-class instances where exact alone hits the wall (paper 6.5)."""

    def _bv12_problem(self, device):
        circuit, _ = bernstein_vazirani(12)
        return mapping_problem(
            decompose_to_basis(circuit), device, compute_reliability(device)
        )

    def test_portfolio_beats_budget_cut_exact_on_72q(self):
        problem = self._bv12_problem(google_bristlecone_72())
        started = time.monotonic()
        raced = PortfolioSolver(problem, time_limit_s=8.0).solve()
        raced_wall = time.monotonic() - started
        started = time.monotonic()
        exact = MaxMinSolver(problem, time_limit_s=8.0).solve()
        exact_wall = time.monotonic() - started
        # Both respect the budget, but exact alone cannot finish the
        # instance — and its budget-cut incumbent scores below the
        # portfolio's anytime answer.
        assert raced_wall < 10.0 and exact_wall < 10.0
        assert not exact.stats.proven_optimal
        problem.validate(raced.assignment)
        assert raced.method == "heuristic"
        assert not raced.degraded
        assert raced.objective >= exact.objective - 1e-12

    @pytest.mark.parametrize("rows,cols", [(5, 10), (10, 10)])
    def test_portfolio_feasible_on_grids(self, rows, cols):
        problem = self._bv12_problem(synthetic_grid(rows, cols))
        started = time.monotonic()
        solution = PortfolioSolver(problem, time_limit_s=3.0).solve()
        assert time.monotonic() - started < 10.0
        problem.validate(solution.assignment)
        assert solution.objective > 0
        assert solution.trajectory, "the race must record its bounds"

    def test_end_to_end_72q_portfolio_compile(self):
        # The acceptance scenario: BV and Toffoli through the full
        # pipeline on the 72-qubit grid with --mapper=portfolio, mapping
        # capped under 10 s.
        device = google_bristlecone_72()
        compiler = TriQCompiler(
            device, time_limit_s=8.0,
            options=CompileOptions(mapper="portfolio"),
        )
        for circuit, _ in [bernstein_vazirani(12), toffoli_benchmark()]:
            started = time.monotonic()
            program = compiler.compile(circuit)
            wall = time.monotonic() - started
            mapping = program.initial_mapping
            assert mapping.solver_time_s < 10.0, circuit.name
            assert len(program.circuit) > 0
            assert mapping.method in ("exact", "heuristic")
            assert not mapping.degraded
            assert wall < 60.0, (circuit.name, wall)


class TestMapperDivergenceContract:
    """MAP002: heuristic-vs-exact divergence as a structured diagnostic."""

    DEVICE = ibmq5_tenerife()

    def _mapping(self, runs):
        return InitialMapping(
            placement=(0, 1),
            num_hardware_qubits=5,
            objective=0.9,
            solver_runs=tuple(runs),
        )

    def test_registered_error_code(self):
        assert ERROR_CODES["MAP002"] is MapperDivergenceError
        assert issubclass(MapperDivergenceError, ContractError)
        error = MapperDivergenceError("boom", device="d")
        assert error.code == "MAP002"
        assert "TESTING.md" in error.hint

    def test_unsound_heuristic_raises(self):
        # A heuristic claiming to beat the proven optimum means the
        # solvers score assignments differently — always an error.
        mapping = self._mapping(
            [
                ("annealing", 0.95, 10, 0.01, True),
                ("exact", 0.9, 100, 0.02, True),
            ]
        )
        with pytest.raises(MapperDivergenceError, match="exceeds"):
            check_mapper_divergence(mapping, self.DEVICE)

    def test_quality_breach_raises(self):
        mapping = self._mapping(
            [
                ("greedy", 0.5, 0, 0.0, True),
                ("exact", 0.9, 100, 0.02, True),
            ]
        )
        with pytest.raises(MapperDivergenceError, match="fell below"):
            check_mapper_divergence(mapping, self.DEVICE)

    def test_truncated_heuristic_exempt_from_quality_clause(self):
        # A deadline-cut annealing run may legitimately score low; only
        # finished heuristics are held to the differential bound.
        mapping = self._mapping(
            [
                ("annealing", 0.5, 10, 0.01, False),
                ("exact", 0.9, 100, 0.02, True),
            ]
        )
        check_mapper_divergence(mapping, self.DEVICE)

    def test_soundness_clause_applies_even_when_truncated(self):
        mapping = self._mapping(
            [
                ("annealing", 0.95, 10, 0.01, False),
                ("exact", 0.9, 100, 0.02, True),
            ]
        )
        with pytest.raises(MapperDivergenceError, match="exceeds"):
            check_mapper_divergence(mapping, self.DEVICE)

    def test_skipped_without_exact_or_heuristic_runs(self):
        # Unfinished exact (no proven optimum), exact-only (nothing to
        # compare), and default mappings (no runs at all) are all out
        # of scope for the check.
        check_mapper_divergence(
            self._mapping(
                [
                    ("greedy", 0.1, 0, 0.0, True),
                    ("exact", 0.9, 100, 0.02, False),
                ]
            ),
            self.DEVICE,
        )
        check_mapper_divergence(
            self._mapping([("exact", 0.9, 100, 0.02, True)]), self.DEVICE
        )
        check_mapper_divergence(
            InitialMapping((0, 1), num_hardware_qubits=5), self.DEVICE
        )

    def test_strict_portfolio_compile_is_clean(self):
        # End-to-end: the real portfolio on a real device passes the
        # contract gate — and the fuzz classifier (which drives the
        # same strict pipeline) agrees.
        device = self.DEVICE
        compiler = TriQCompiler(
            device,
            options=CompileOptions(mapper="portfolio", contracts="strict"),
        )
        circuit = decompose_to_basis(toffoli_benchmark()[0])
        program = compiler.compile(circuit)
        assert program.initial_mapping.method == "exact"
        assert (
            classify(
                toffoli_benchmark()[0],
                device,
                OptimizationLevel.OPT_1QCN,
                options=CompileOptions(mapper="portfolio", contracts="strict"),
            )
            is None
        )
