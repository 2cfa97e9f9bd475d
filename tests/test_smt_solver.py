"""Tests for the max-min assignment solver (the Z3 stand-in)."""

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.mapping import mapping_problem
from repro.compiler.reliability import compute_reliability
from repro.devices.library import all_devices
from repro.ir.decompose import decompose_to_basis
from repro.programs.registry import standard_suite
from repro.smt import AssignmentProblem, MaxMinSolver, ProductSolver
from repro.smt.solver import SolverStats


def symmetric_scores(n: int, rng: np.random.Generator) -> np.ndarray:
    mat = rng.uniform(0.3, 0.99, (n, n))
    mat = (mat + mat.T) / 2
    np.fill_diagonal(mat, 1.0)
    return mat


def brute_force_maxmin(problem: AssignmentProblem):
    best, best_score = None, -1.0
    for perm in itertools.permutations(
        range(problem.num_values), problem.num_vars
    ):
        score = problem.min_score(perm)
        if score > best_score:
            best, best_score = perm, score
    return best, best_score


# ----------------------------------------------------------------------
# Search identity.  Literal values recorded from the ndarray-domain
# oracle that preceded the bitset one: any change to the variable
# order, value order, pruning or node counting shows up here as a
# changed number, not just as a slower solve.

#: (nodes, feasibility checks, assignment) of a cold
#: ``MaxMinSolver(problem).solve()`` per (device, benchmark) problem.
COLD_SOLVE_PINS = {
    ("IBM Q5 Tenerife", "BV4"): (35, 4, (0, 1, 3, 2)),
    ("IBM Q5 Tenerife", "HS2"): (3, 2, (1, 0)),
    ("IBM Q5 Tenerife", "HS4"): (15, 3, (1, 0, 4, 3)),
    ("IBM Q5 Tenerife", "Toffoli"): (15, 3, (1, 0, 2)),
    ("IBM Q5 Tenerife", "Fredkin"): (15, 3, (1, 0, 2)),
    ("IBM Q5 Tenerife", "Or"): (15, 3, (1, 0, 2)),
    ("IBM Q5 Tenerife", "Peres"): (15, 3, (1, 0, 2)),
    ("IBM Q5 Tenerife", "QFT"): (78, 4, (0, 2, 3, 4)),
    ("IBM Q5 Tenerife", "Adder"): (35, 4, (0, 2, 1, 3)),
    ("IBM Q14 Melbourne", "BV4"): (44, 3, (2, 11, 13, 12)),
    ("IBM Q14 Melbourne", "BV6"): (763, 5, (1, 3, 11, 12, 13, 2)),
    ("IBM Q14 Melbourne", "BV8"): (11138, 5, (0, 1, 3, 4, 11, 12, 13, 2)),
    ("IBM Q14 Melbourne", "HS2"): (10, 3, (6, 8)),
    ("IBM Q14 Melbourne", "HS4"): (51, 4, (6, 8, 2, 1)),
    ("IBM Q14 Melbourne", "HS6"): (279, 4, (6, 8, 2, 1, 11, 12)),
    ("IBM Q14 Melbourne", "Toffoli"): (108, 5, (1, 2, 13)),
    ("IBM Q14 Melbourne", "Fredkin"): (108, 5, (1, 2, 13)),
    ("IBM Q14 Melbourne", "Or"): (108, 5, (1, 2, 13)),
    ("IBM Q14 Melbourne", "Peres"): (108, 5, (1, 2, 13)),
    ("IBM Q14 Melbourne", "QFT"): (239, 5, (2, 3, 11, 12)),
    ("IBM Q14 Melbourne", "Adder"): (124, 5, (2, 1, 13, 0)),
    ("IBM Q16 Rueschlikon", "BV4"): (60, 3, (5, 7, 11, 6)),
    ("IBM Q16 Rueschlikon", "BV6"): (1262, 5, (5, 6, 10, 11, 13, 12)),
    ("IBM Q16 Rueschlikon", "BV8"): (17721, 5, (3, 4, 5, 11, 12, 14, 15, 13)),
    ("IBM Q16 Rueschlikon", "HS2"): (11, 3, (11, 12)),
    ("IBM Q16 Rueschlikon", "HS4"): (60, 3, (11, 12, 14, 13)),
    ("IBM Q16 Rueschlikon", "HS6"): (613, 4, (11, 12, 14, 13, 5, 6)),
    ("IBM Q16 Rueschlikon", "Toffoli"): (196, 5, (3, 4, 14)),
    ("IBM Q16 Rueschlikon", "Fredkin"): (196, 5, (3, 4, 14)),
    ("IBM Q16 Rueschlikon", "Or"): (196, 5, (3, 4, 14)),
    ("IBM Q16 Rueschlikon", "Peres"): (196, 5, (3, 4, 14)),
    ("IBM Q16 Rueschlikon", "QFT"): (316, 5, (11, 6, 5, 12)),
    ("IBM Q16 Rueschlikon", "Adder"): (197, 5, (4, 3, 14, 2)),
    ("Rigetti Agave", "BV4"): (24, 3, (2, 0, 3, 1)),
    ("Rigetti Agave", "HS2"): (3, 2, (1, 2)),
    ("Rigetti Agave", "HS4"): (17, 3, (0, 1, 2, 3)),
    ("Rigetti Agave", "Toffoli"): (18, 3, (1, 2, 3)),
    ("Rigetti Agave", "Fredkin"): (18, 3, (1, 2, 3)),
    ("Rigetti Agave", "Or"): (18, 3, (1, 2, 3)),
    ("Rigetti Agave", "Peres"): (18, 3, (1, 2, 3)),
    ("Rigetti Agave", "QFT"): (46, 3, (1, 2, 3, 0)),
    ("Rigetti Agave", "Adder"): (18, 3, (2, 1, 3, 0)),
    ("Rigetti Aspen1", "BV4"): (124, 3, (2, 12, 14, 13)),
    ("Rigetti Aspen1", "BV6"): (598, 5, (1, 3, 4, 12, 13, 2)),
    ("Rigetti Aspen1", "BV8"): (18565, 5, (0, 1, 2, 8, 12, 13, 15, 14)),
    ("Rigetti Aspen1", "HS2"): (19, 3, (4, 3)),
    ("Rigetti Aspen1", "HS4"): (43, 4, (3, 4, 8, 15)),
    ("Rigetti Aspen1", "HS6"): (182, 4, (1, 14, 3, 4, 8, 15)),
    ("Rigetti Aspen1", "Toffoli"): (203, 5, (4, 3, 2)),
    ("Rigetti Aspen1", "Fredkin"): (203, 5, (4, 3, 2)),
    ("Rigetti Aspen1", "Or"): (203, 5, (4, 3, 2)),
    ("Rigetti Aspen1", "Peres"): (203, 5, (4, 3, 2)),
    ("Rigetti Aspen1", "QFT"): (287, 4, (1, 2, 13, 14)),
    ("Rigetti Aspen1", "Adder"): (203, 5, (3, 4, 2, 5)),
    ("Rigetti Aspen3", "BV4"): (123, 5, (1, 3, 13, 2)),
    ("Rigetti Aspen3", "BV6"): (482, 5, (0, 2, 3, 7, 14, 1)),
    ("Rigetti Aspen3", "BV8"): (13751, 5, (0, 2, 3, 7, 13, 14, 15, 1)),
    ("Rigetti Aspen3", "HS2"): (6, 3, (6, 7)),
    ("Rigetti Aspen3", "HS4"): (41, 4, (6, 7, 0, 1)),
    ("Rigetti Aspen3", "HS6"): (148, 4, (0, 1, 3, 4, 6, 7)),
    ("Rigetti Aspen3", "Toffoli"): (171, 5, (6, 7, 5)),
    ("Rigetti Aspen3", "Fredkin"): (171, 5, (6, 7, 5)),
    ("Rigetti Aspen3", "Or"): (171, 5, (6, 7, 5)),
    ("Rigetti Aspen3", "Peres"): (171, 5, (6, 7, 5)),
    ("Rigetti Aspen3", "QFT"): (273, 4, (0, 1, 2, 14)),
    ("Rigetti Aspen3", "Adder"): (155, 5, (6, 5, 7, 4)),
    ("UMD Trapped Ion", "BV4"): (43, 4, (0, 1, 2, 3)),
    ("UMD Trapped Ion", "HS2"): (3, 2, (1, 3)),
    ("UMD Trapped Ion", "HS4"): (22, 3, (1, 4, 2, 3)),
    ("UMD Trapped Ion", "Toffoli"): (35, 4, (0, 2, 3)),
    ("UMD Trapped Ion", "Fredkin"): (35, 4, (0, 2, 3)),
    ("UMD Trapped Ion", "Or"): (35, 4, (0, 2, 3)),
    ("UMD Trapped Ion", "Peres"): (35, 4, (0, 2, 3)),
    ("UMD Trapped Ion", "QFT"): (75, 3, (1, 4, 0, 3)),
    ("UMD Trapped Ion", "Adder"): (36, 4, (2, 0, 3, 4)),
}

#: Every 7th candidate threshold, one ``feasible`` check each under
#: ``node_limit=5000``: (thresholds probed, total nodes, budget-cut
#: checks, sha256 prefix of the ``repr`` of the per-threshold
#: ``(nodes, proven, result)`` list).
ORACLE_NODE_LIMIT = 5000
ORACLE_PINS = {
    ("IBM Q5 Tenerife", "BV4"): (3, 9, 0, "f8d1be316c525886"),
    ("IBM Q5 Tenerife", "HS2"): (3, 4, 0, "8641aee6e00f6bc6"),
    ("IBM Q5 Tenerife", "HS4"): (3, 11, 0, "ddea236469698f3e"),
    ("IBM Q5 Tenerife", "Toffoli"): (3, 8, 0, "c8ca6aed885a3aa4"),
    ("IBM Q5 Tenerife", "Fredkin"): (3, 8, 0, "c8ca6aed885a3aa4"),
    ("IBM Q5 Tenerife", "Or"): (3, 8, 0, "c8ca6aed885a3aa4"),
    ("IBM Q5 Tenerife", "Peres"): (3, 8, 0, "c8ca6aed885a3aa4"),
    ("IBM Q5 Tenerife", "QFT"): (3, 9, 0, "be4355f8ef9e8fed"),
    ("IBM Q5 Tenerife", "Adder"): (3, 9, 0, "df36073e85f76b96"),
    ("IBM Q14 Melbourne", "BV4"): (16, 90, 0, "0006655fc83fb3a5"),
    ("IBM Q14 Melbourne", "BV6"): (16, 353, 0, "96c7090f97801d77"),
    ("IBM Q14 Melbourne", "BV8"): (16, 8865, 1, "8b1f9a313d93ab52"),
    ("IBM Q14 Melbourne", "HS2"): (16, 34, 0, "461dc6108db226dc"),
    ("IBM Q14 Melbourne", "HS4"): (16, 74, 0, "6157878611d3d7dd"),
    ("IBM Q14 Melbourne", "HS6"): (16, 102, 0, "72238f606e53c823"),
    ("IBM Q14 Melbourne", "Toffoli"): (16, 104, 0, "19e75c8a29e77767"),
    ("IBM Q14 Melbourne", "Fredkin"): (16, 104, 0, "19e75c8a29e77767"),
    ("IBM Q14 Melbourne", "Or"): (16, 104, 0, "19e75c8a29e77767"),
    ("IBM Q14 Melbourne", "Peres"): (16, 104, 0, "19e75c8a29e77767"),
    ("IBM Q14 Melbourne", "QFT"): (16, 201, 0, "58a22ccb777afbc5"),
    ("IBM Q14 Melbourne", "Adder"): (16, 120, 0, "d1ee8f4c89ab0034"),
    ("IBM Q16 Rueschlikon", "BV4"): (20, 160, 0, "d64720ba695c1963"),
    ("IBM Q16 Rueschlikon", "BV6"): (20, 926, 0, "fbf45c695048e99c"),
    ("IBM Q16 Rueschlikon", "BV8"): (20, 18983, 1, "4b96a991e966e11b"),
    ("IBM Q16 Rueschlikon", "HS2"): (20, 47, 0, "f0808973d7ac632c"),
    ("IBM Q16 Rueschlikon", "HS4"): (20, 105, 0, "b232616b65b4f622"),
    ("IBM Q16 Rueschlikon", "HS6"): (20, 350, 0, "03d612c4f66b246d"),
    ("IBM Q16 Rueschlikon", "Toffoli"): (20, 233, 0, "169f96b4b9ffec3f"),
    ("IBM Q16 Rueschlikon", "Fredkin"): (20, 233, 0, "169f96b4b9ffec3f"),
    ("IBM Q16 Rueschlikon", "Or"): (20, 233, 0, "169f96b4b9ffec3f"),
    ("IBM Q16 Rueschlikon", "Peres"): (20, 233, 0, "169f96b4b9ffec3f"),
    ("IBM Q16 Rueschlikon", "QFT"): (20, 247, 0, "586a4f43167391cc"),
    ("IBM Q16 Rueschlikon", "Adder"): (20, 247, 0, "6b16e99fe73f2c85"),
    ("Rigetti Agave", "BV4"): (2, 5, 0, "66811378d8b30710"),
    ("Rigetti Agave", "HS2"): (2, 3, 0, "a1a8d2db882fe43d"),
    ("Rigetti Agave", "HS4"): (2, 5, 0, "da189ebe7cc8d24f"),
    ("Rigetti Agave", "Toffoli"): (2, 4, 0, "efc5d80d8f69d4d2"),
    ("Rigetti Agave", "Fredkin"): (2, 4, 0, "efc5d80d8f69d4d2"),
    ("Rigetti Agave", "Or"): (2, 4, 0, "efc5d80d8f69d4d2"),
    ("Rigetti Agave", "Peres"): (2, 4, 0, "efc5d80d8f69d4d2"),
    ("Rigetti Agave", "QFT"): (2, 5, 0, "da189ebe7cc8d24f"),
    ("Rigetti Agave", "Adder"): (2, 5, 0, "d853b3b76a0621ac"),
    ("Rigetti Aspen1", "BV4"): (20, 196, 0, "653278d5b3a69c00"),
    ("Rigetti Aspen1", "BV6"): (20, 421, 0, "e2ca4a892c03d70d"),
    ("Rigetti Aspen1", "BV8"): (20, 12795, 1, "c8a533efe26c2522"),
    ("Rigetti Aspen1", "HS2"): (20, 48, 0, "93bf7f3cfb06d469"),
    ("Rigetti Aspen1", "HS4"): (20, 87, 0, "c5ddcfc3e9dd85ad"),
    ("Rigetti Aspen1", "HS6"): (20, 127, 0, "326250983c4fde32"),
    ("Rigetti Aspen1", "Toffoli"): (20, 164, 0, "2703739653198eea"),
    ("Rigetti Aspen1", "Fredkin"): (20, 164, 0, "2703739653198eea"),
    ("Rigetti Aspen1", "Or"): (20, 164, 0, "2703739653198eea"),
    ("Rigetti Aspen1", "Peres"): (20, 164, 0, "2703739653198eea"),
    ("Rigetti Aspen1", "QFT"): (20, 284, 0, "4d83b20fea8c4c38"),
    ("Rigetti Aspen1", "Adder"): (20, 179, 0, "108def5445fddb85"),
    ("Rigetti Aspen3", "BV4"): (20, 129, 0, "59d624c4b0afb8a6"),
    ("Rigetti Aspen3", "BV6"): (20, 206, 0, "274fe77af273ea33"),
    ("Rigetti Aspen3", "BV8"): (20, 6364, 0, "c941ab6be3b2f015"),
    ("Rigetti Aspen3", "HS2"): (20, 39, 0, "d42550104325a87c"),
    ("Rigetti Aspen3", "HS4"): (20, 75, 0, "21b731b0bac9b2d3"),
    ("Rigetti Aspen3", "HS6"): (20, 167, 0, "9930a22d2343fc7a"),
    ("Rigetti Aspen3", "Toffoli"): (20, 116, 0, "cda1dc9fc2cc784b"),
    ("Rigetti Aspen3", "Fredkin"): (20, 116, 0, "cda1dc9fc2cc784b"),
    ("Rigetti Aspen3", "Or"): (20, 116, 0, "cda1dc9fc2cc784b"),
    ("Rigetti Aspen3", "Peres"): (20, 116, 0, "cda1dc9fc2cc784b"),
    ("Rigetti Aspen3", "QFT"): (20, 211, 0, "2af4500f8af95761"),
    ("Rigetti Aspen3", "Adder"): (20, 136, 0, "0c7835620b76a4e0"),
    ("UMD Trapped Ion", "BV4"): (3, 14, 0, "a90999f43a5aa7e3"),
    ("UMD Trapped Ion", "HS2"): (3, 5, 0, "c8a7261a96abc561"),
    ("UMD Trapped Ion", "HS4"): (3, 16, 0, "99de979aca5e9f74"),
    ("UMD Trapped Ion", "Toffoli"): (3, 11, 0, "c3cfb31b1637c7a2"),
    ("UMD Trapped Ion", "Fredkin"): (3, 11, 0, "c3cfb31b1637c7a2"),
    ("UMD Trapped Ion", "Or"): (3, 11, 0, "c3cfb31b1637c7a2"),
    ("UMD Trapped Ion", "Peres"): (3, 11, 0, "c3cfb31b1637c7a2"),
    ("UMD Trapped Ion", "QFT"): (3, 12, 0, "66d7ec1e733de3d5"),
    ("UMD Trapped Ion", "Adder"): (3, 12, 0, "98ebbb0af2e63af9"),
}


@functools.lru_cache(maxsize=None)
def paper_mapping_problems():
    """((device, benchmark), problem) for every fitting paper cell."""
    problems = []
    for device in all_devices():
        reliability = compute_reliability(device)
        for benchmark in standard_suite():
            circuit, _ = benchmark.build()
            if circuit.num_qubits > device.num_qubits:
                continue
            problems.append((
                (device.name, benchmark.name),
                mapping_problem(decompose_to_basis(circuit), device, reliability),
            ))
    return tuple(problems)


class TestSearchIdentity:
    def test_pins_cover_every_paper_problem(self):
        keys = [key for key, _ in paper_mapping_problems()]
        assert len(keys) == 75
        assert set(keys) == set(COLD_SOLVE_PINS) == set(ORACLE_PINS)

    def test_cold_solves_match_pins(self):
        for key, problem in paper_mapping_problems():
            solution = MaxMinSolver(problem).solve()
            assert solution.stats.proven_optimal, key
            got = (
                solution.stats.nodes,
                solution.stats.feasibility_checks,
                solution.assignment,
            )
            assert got == COLD_SOLVE_PINS[key], key

    def test_oracle_per_threshold_matches_pins(self):
        for key, problem in paper_mapping_problems():
            solver = MaxMinSolver(problem, node_limit=ORACLE_NODE_LIMIT)
            rows = []
            for threshold in problem.candidate_thresholds()[::7]:
                stats = SolverStats()
                result = solver.feasible(float(threshold), stats)
                rows.append((stats.nodes, stats.proven_optimal, result))
            got = (
                len(rows),
                sum(row[0] for row in rows),
                sum(1 for row in rows if not row[1]),
                hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
            )
            assert got == ORACLE_PINS[key], key


class TestProblem:
    def test_rejects_more_vars_than_values(self):
        with pytest.raises(ValueError, match="injectively"):
            AssignmentProblem(4, 3)

    def test_rejects_bad_unary_shape(self):
        problem = AssignmentProblem(2, 3)
        with pytest.raises(ValueError, match="length 3"):
            problem.add_unary_term(0, [0.5, 0.5])

    def test_rejects_out_of_range_scores(self):
        problem = AssignmentProblem(2, 3)
        with pytest.raises(ValueError, match="reliabilities"):
            problem.add_unary_term(0, [0.5, 0.0, 0.5])

    def test_rejects_same_var_pair(self):
        problem = AssignmentProblem(2, 3)
        with pytest.raises(ValueError, match="distinct"):
            problem.add_pair_term(1, 1, np.full((3, 3), 0.5))

    def test_min_score_no_terms(self):
        problem = AssignmentProblem(2, 3)
        assert problem.min_score([0, 1]) == 1.0

    def test_validate_catches_duplicates(self):
        problem = AssignmentProblem(2, 3)
        with pytest.raises(ValueError, match="injective"):
            problem.validate([1, 1])

    def test_candidate_thresholds_sorted_unique(self):
        problem = AssignmentProblem(2, 3)
        problem.add_unary_term(0, [0.5, 0.7, 0.5])
        thresholds = problem.candidate_thresholds()
        assert list(thresholds) == sorted(set(thresholds))


class TestGreedy:
    def test_greedy_is_valid(self):
        rng = np.random.default_rng(0)
        problem = AssignmentProblem(4, 6)
        scores = symmetric_scores(6, rng)
        problem.add_pair_term(0, 1, scores)
        problem.add_pair_term(1, 2, scores)
        problem.add_pair_term(2, 3, scores)
        assignment = MaxMinSolver(problem).greedy()
        problem.validate(assignment)


class TestSolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_vs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 5))
        num_values = int(rng.integers(num_vars, 7))
        problem = AssignmentProblem(num_vars, num_values)
        scores = symmetric_scores(num_values, rng)
        for a in range(num_vars - 1):
            problem.add_pair_term(a, a + 1, scores)
        problem.add_unary_term(0, rng.uniform(0.5, 0.99, num_values))
        solution = MaxMinSolver(problem).solve()
        _, brute = brute_force_maxmin(problem)
        assert solution.objective == pytest.approx(brute)
        assert solution.stats.proven_optimal

    def test_feasible_threshold_query(self):
        problem = AssignmentProblem(2, 3)
        problem.add_unary_term(0, [0.9, 0.5, 0.5])
        problem.add_unary_term(1, [0.5, 0.9, 0.5])
        assert MaxMinSolver(problem).feasible(0.8) == (0, 1)
        assert MaxMinSolver(problem).feasible(0.95) is None

    def test_node_limit_still_returns_valid(self):
        rng = np.random.default_rng(3)
        problem = AssignmentProblem(6, 8)
        scores = symmetric_scores(8, rng)
        for a in range(5):
            problem.add_pair_term(a, a + 1, scores)
        solution = MaxMinSolver(problem, node_limit=5).solve()
        problem.validate(solution.assignment)
        assert solution.objective > 0

    def test_stats_populated(self):
        problem = AssignmentProblem(2, 3)
        problem.add_unary_term(0, [0.9, 0.5, 0.5])
        solution = MaxMinSolver(problem).solve()
        # Greedy may already hit the optimum (no search needed), but the
        # result must be exact and timing recorded.
        assert solution.objective == pytest.approx(0.9)
        assert solution.stats.wall_time_s >= 0
        assert solution.stats.proven_optimal

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_instances_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        num_vars = int(rng.integers(2, 4))
        num_values = int(rng.integers(num_vars, 6))
        problem = AssignmentProblem(num_vars, num_values)
        scores = symmetric_scores(num_values, rng)
        pairs = list(itertools.combinations(range(num_vars), 2))
        for a, b in pairs[: int(rng.integers(1, len(pairs) + 1))]:
            problem.add_pair_term(a, b, scores)
        solution = MaxMinSolver(problem).solve()
        _, brute = brute_force_maxmin(problem)
        assert solution.objective == pytest.approx(brute)


class TestWarmHint:
    """The hint is bound-only: it may skip work, never steer the answer."""

    def _chain_with_many_optima(self):
        # A 3-variable chain where greedy's optimistic neighbor estimate
        # is a trap (it places var1 on value 0 for the 0.9 edge, which
        # the chain cannot realize twice) and several distinct
        # assignments attain the true optimum of 0.5.
        scores = np.array(
            [
                [1.0, 0.9, 0.3, 0.3],
                [0.9, 1.0, 0.5, 0.5],
                [0.3, 0.5, 1.0, 0.8],
                [0.3, 0.5, 0.8, 1.0],
            ]
        )
        problem = AssignmentProblem(3, 4)
        problem.add_pair_term(0, 1, scores)
        problem.add_pair_term(1, 2, scores)
        return problem

    def test_equal_objective_hint_returns_cold_assignment(self):
        # The reviewer scenario: a hint that already attains the
        # optimal objective (say, from another calibration day) must
        # not be returned verbatim — warm and cold solves must produce
        # the bit-identical assignment, or compiled outputs would
        # depend on cache state.
        problem = self._chain_with_many_optima()
        cold = MaxMinSolver(problem).solve()
        _, brute = brute_force_maxmin(problem)
        assert cold.objective == pytest.approx(brute)
        optima = [
            perm
            for perm in itertools.permutations(range(4), 3)
            if problem.min_score(perm) == cold.objective
        ]
        assert len(optima) > 1  # the scenario needs equal-objective ties
        greedy_objective = problem.min_score(MaxMinSolver(problem).greedy())
        assert greedy_objective < cold.objective  # hints beat the seed
        for hint in optima:
            warm = MaxMinSolver(problem).solve(warm_hint=hint)
            assert warm.assignment == cold.assignment
            assert warm.objective == cold.objective
            assert warm.stats.proven_optimal

    @pytest.mark.parametrize("seed", range(6))
    def test_any_valid_hint_never_changes_assignment(self, seed):
        rng = np.random.default_rng(seed + 1000)
        num_vars = int(rng.integers(2, 5))
        num_values = int(rng.integers(num_vars, 7))
        problem = AssignmentProblem(num_vars, num_values)
        scores = symmetric_scores(num_values, rng)
        for a in range(num_vars - 1):
            problem.add_pair_term(a, a + 1, scores)
        problem.add_unary_term(0, rng.uniform(0.5, 0.99, num_values))
        cold = MaxMinSolver(problem).solve()
        for _ in range(4):
            hint = tuple(
                int(v) for v in rng.permutation(num_values)[:num_vars]
            )
            warm = MaxMinSolver(problem).solve(warm_hint=hint)
            assert warm.assignment == cold.assignment
            assert warm.objective == cold.objective

    def test_invalid_hints_ignored(self):
        problem = self._chain_with_many_optima()
        cold = MaxMinSolver(problem).solve()
        for bad in [(0, 0, 1), (0, 1), (0, 1, 9)]:
            warm = MaxMinSolver(problem).solve(warm_hint=bad)
            assert warm.assignment == cold.assignment
            assert warm.objective == cold.objective


class TestProductSolver:
    @pytest.mark.parametrize("seed", range(5))
    def test_optimal_vs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        problem = AssignmentProblem(3, 5)
        scores = symmetric_scores(5, rng)
        problem.add_pair_term(0, 1, scores)
        problem.add_pair_term(1, 2, scores)
        solution = ProductSolver(problem).solve()
        brute = max(
            problem.product_score(p)
            for p in itertools.permutations(range(5), 3)
        )
        assert solution.objective == pytest.approx(brute)

    def test_product_explores_more_nodes_than_maxmin(self):
        # The paper's scalability argument: the product objective cannot
        # prune until qubits are placed, so it searches more.
        rng = np.random.default_rng(11)
        problem = AssignmentProblem(5, 8)
        scores = symmetric_scores(8, rng)
        for a in range(4):
            problem.add_pair_term(a, a + 1, scores)
        maxmin = MaxMinSolver(problem).solve()
        product = ProductSolver(problem).solve()
        assert product.stats.nodes > maxmin.stats.nodes
