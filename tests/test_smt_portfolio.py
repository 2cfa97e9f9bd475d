"""Tests for the anytime mapper portfolio (greedy / annealing / race).

Three properties anchor the whole PR and each gets a hypothesis suite:

* **Seeded-schedule determinism** — the annealer's walk is a pure
  function of ``(problem, start, seed, steps)``, never of wall clock.
* **Relabeling invariance** — ``greedy_assignment`` orders variables by
  structural keys, so permuting program-qubit labels cannot change the
  achieved objective (when score masses are distinct, which random
  float scores are almost surely).
* **Anytime monotonicity** — ``Solution.trajectory`` objectives are
  strictly increasing by construction.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    MAPPER_METHODS,
    AssignmentProblem,
    MaxMinSolver,
    PortfolioSolver,
)
from repro.smt.portfolio import (
    SimulatedAnnealingRefiner,
    exhaustive_assignment,
    greedy_assignment,
)


def symmetric_scores(n: int, rng: np.random.Generator) -> np.ndarray:
    mat = rng.uniform(0.3, 0.99, (n, n))
    mat = (mat + mat.T) / 2
    np.fill_diagonal(mat, 1.0)
    return mat


def random_problem(seed: int) -> AssignmentProblem:
    """A random chain-plus-extras instance, like the solver tests use."""
    rng = np.random.default_rng(seed)
    num_vars = int(rng.integers(2, 6))
    num_values = int(rng.integers(num_vars, 9))
    problem = AssignmentProblem(num_vars, num_values)
    scores = symmetric_scores(num_values, rng)
    for a in range(num_vars - 1):
        problem.add_pair_term(a, a + 1, scores)
    extras = list(itertools.combinations(range(num_vars), 2))[num_vars:]
    for a, b in extras[: int(rng.integers(0, len(extras) + 1))]:
        problem.add_pair_term(a, b, scores)
    problem.add_unary_term(0, rng.uniform(0.5, 0.99, num_values))
    return problem


def brute_force_maxmin(problem: AssignmentProblem) -> float:
    return max(
        problem.min_score(perm)
        for perm in itertools.permutations(
            range(problem.num_values), problem.num_vars
        )
    )


class TestGreedyAssignment:
    @pytest.mark.parametrize("seed", range(6))
    def test_valid_and_deterministic(self, seed):
        problem = random_problem(seed)
        first = greedy_assignment(problem)
        problem.validate(first)
        assert greedy_assignment(problem) == first

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_objective_invariant_under_relabeling(self, seed):
        """Permuting variable labels cannot change the greedy objective.

        The variable order key (degree, incident score mass) and the
        value tie-break are label-free; per-term random score matrices
        make mass ties measure-zero (the invariance is only promised
        for distinct masses — a shared matrix ties interior chain
        variables), so the relabeled run places corresponding variables
        identically.
        """
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 6))
        num_values = int(rng.integers(num_vars, 9))
        problem = AssignmentProblem(num_vars, num_values)
        for a in range(num_vars - 1):
            problem.add_pair_term(a, a + 1, symmetric_scores(num_values, rng))
        for var in range(num_vars):
            problem.add_unary_term(var, rng.uniform(0.5, 0.99, num_values))
        rng = np.random.default_rng(seed + 424_242)
        perm = [int(v) for v in rng.permutation(problem.num_vars)]
        relabeled = AssignmentProblem(problem.num_vars, problem.num_values)
        for term in problem.pair_terms:
            relabeled.add_pair_term(
                perm[term.var_u], perm[term.var_v], term.scores
            )
        for term in problem.unary_terms:
            relabeled.add_unary_term(perm[term.var], term.scores)
        original = problem.min_score(greedy_assignment(problem))
        permuted = relabeled.min_score(greedy_assignment(relabeled))
        assert permuted == pytest.approx(original)


class TestExhaustive:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_optimum(self, seed):
        problem = random_problem(seed)
        assignment, objective = exhaustive_assignment(problem)
        problem.validate(assignment)
        assert objective == pytest.approx(brute_force_maxmin(problem))
        assert objective == pytest.approx(problem.min_score(assignment))


class TestAnnealer:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 100))
    def test_seeded_schedule_determinism(self, problem_seed, anneal_seed):
        """Same (problem, start, seed, steps) -> bit-identical result."""
        problem = random_problem(problem_seed)
        start = greedy_assignment(problem)
        runs = [
            SimulatedAnnealingRefiner(
                problem, seed=anneal_seed, steps=400
            ).refine(start)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        best, objective, steps_done, finished = runs[0]
        problem.validate(best)
        assert objective == pytest.approx(problem.min_score(best))
        assert steps_done == 400 and finished

    @pytest.mark.parametrize("seed", range(4))
    def test_never_worse_than_start(self, seed):
        problem = random_problem(seed)
        start = greedy_assignment(problem)
        _, objective, _, _ = SimulatedAnnealingRefiner(
            problem, seed=seed, steps=300
        ).refine(start)
        assert objective >= problem.min_score(start) - 1e-12

    def test_expired_deadline_truncates_not_crashes(self):
        problem = random_problem(1)
        start = greedy_assignment(problem)
        best, objective, steps_done, finished = SimulatedAnnealingRefiner(
            problem, seed=0, steps=500
        ).refine(start, deadline=time.monotonic() - 1.0)
        assert not finished
        assert steps_done == 0
        problem.validate(best)
        assert objective == pytest.approx(problem.min_score(start))


class TestPortfolioRace:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_cold_exact_when_exact_finishes(self, seed):
        problem = random_problem(seed)
        cold = MaxMinSolver(problem).solve()
        assert cold.stats.proven_optimal
        raced = PortfolioSolver(problem).solve()
        assert raced.stats.proven_optimal
        assert raced.assignment == cold.assignment
        assert raced.objective == cold.objective
        assert raced.method == "exact"
        assert raced.bound_shared

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_hint_is_certificate_only(self, seed):
        """Any valid hint may skip work but never changes the answer."""
        problem = random_problem(seed)
        cold = PortfolioSolver(problem).solve()
        rng = np.random.default_rng(seed + 7)
        for _ in range(3):
            hint = tuple(
                int(v)
                for v in rng.permutation(problem.num_values)[
                    : problem.num_vars
                ]
            )
            warm = PortfolioSolver(problem).solve(warm_hint=hint)
            assert warm.assignment == cold.assignment
            assert warm.objective == cold.objective

    def test_solver_run_names_and_shapes(self):
        problem = random_problem(0)
        solution = PortfolioSolver(problem).solve()
        # The greedy-seeded first exact stage proves this instance, so
        # the race ends there with exact as its only run.
        names = [run.name for run in solution.runs]
        assert names == ["exact"]
        assert solution.runs[0].finished
        for run in solution.runs:
            assert run.time_s >= 0
            assert run.nodes >= 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_trajectory_monotone_strictly_increasing(self, seed):
        problem = random_problem(seed)
        solution = PortfolioSolver(problem).solve()
        objectives = [event.objective for event in solution.trajectory]
        assert objectives, "the race must record at least the greedy bound"
        assert all(b > a for a, b in zip(objectives, objectives[1:]))
        elapsed = [event.elapsed_s for event in solution.trajectory]
        assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
        assert solution.trajectory[-1].objective == pytest.approx(
            solution.objective
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_heuristic_only_mode_matches_optimum_on_tiny_instances(
        self, seed
    ):
        # include_exact=False is --mapper=heuristic; tiny instances take
        # the exhaustive branch, so the heuristic answer IS the optimum
        # even though nothing is proven.
        problem = random_problem(seed)
        solution = PortfolioSolver(problem, include_exact=False).solve()
        problem.validate(solution.assignment)
        assert solution.method == "heuristic"
        assert not solution.stats.proven_optimal
        assert not solution.degraded
        assert solution.objective == pytest.approx(
            brute_force_maxmin(problem)
        )
        assert "exact" not in {run.name for run in solution.runs}

    def test_exhausted_budget_degrades_to_anytime_answer(self):
        # With the whole wall budget already spent, the exact stage is
        # skipped entirely: the race returns its best heuristic answer,
        # flagged method="heuristic" and NOT degraded.
        problem = random_problem(2)
        solver = PortfolioSolver(problem, time_limit_s=1e-9)
        solution = solver.solve()
        problem.validate(solution.assignment)
        assert solution.method == "heuristic"
        assert not solution.degraded
        assert not solution.stats.proven_optimal
        assert "exact" not in {run.name for run in solution.runs}

    def test_mapper_method_names(self):
        assert MAPPER_METHODS == ("exact", "portfolio", "heuristic")
