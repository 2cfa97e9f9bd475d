"""Max-min assignment solver.

Maximizes the *minimum* term score of an injective assignment — the
objective TriQ's mapper uses because it admits aggressive pruning: any
partial assignment that already created a term below the incumbent bound
can be discarded without placing the remaining qubits (paper 4.3).

The implementation realizes that pruning as a binary search over the
finite lattice of term scores.  For a threshold ``t`` the *feasibility
oracle* runs forward-checking backtracking search: every domain value
whose unary score is below ``t`` is deleted up front, and assigning a
variable immediately deletes all neighbor values whose pair score drops
below ``t`` — the search never explores a subtree containing a
too-unreliable gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.smt.problem import AssignmentProblem


@dataclass
class SolverStats:
    """Search-effort counters, for the scaling study."""

    nodes: int = 0
    feasibility_checks: int = 0
    wall_time_s: float = 0.0
    #: False when a node/time budget cut a feasibility check short, in
    #: which case the answer is a (still valid) lower bound.
    proven_optimal: bool = True


@dataclass(frozen=True)
class SolverRun:
    """One solver's contribution inside a portfolio race."""

    name: str
    objective: float
    nodes: int
    time_s: float
    #: Exact: the solve proved optimality.  Heuristics: the schedule ran
    #: to completion (a deadline did not truncate it).
    finished: bool


@dataclass(frozen=True)
class BoundEvent:
    """One best-so-far improvement on the anytime race timeline."""

    source: str
    objective: float
    elapsed_s: float


@dataclass(frozen=True)
class Solution:
    """An assignment and its objective value.

    ``method`` names the solver that produced the returned assignment:
    ``"exact"`` for the branch-and-bound binary search, ``"heuristic"``
    for a portfolio answer whose exact stage did not finish (or was
    never run).  ``trajectory`` and ``runs`` are populated by the
    portfolio driver; a plain exact solve leaves them empty.
    """

    assignment: Tuple[int, ...]
    objective: float
    stats: SolverStats
    method: str = "exact"
    #: Best-so-far improvements in race order (monotone objectives).
    trajectory: Tuple[BoundEvent, ...] = field(default=())
    #: Per-solver effort breakdown for the race.
    runs: Tuple[SolverRun, ...] = field(default=())
    #: True when a heuristic bound was shared into the exact solver's
    #: binary search (the PR 5 bound-only warm-hint mechanism).
    bound_shared: bool = False

    @property
    def degraded(self) -> bool:
        """True when a node/time budget cut the *exact* solve short.

        The assignment is still valid (at worst the greedy seed): the
        solver degrades to its heuristic incumbent rather than failing,
        and callers record the degradation instead of hiding it.  A
        portfolio answer that deliberately returns its best heuristic
        (``method="heuristic"``) is an anytime result, not a degraded
        one — only an exact solve that ran out of budget reads True.
        """
        return self.method == "exact" and not self.stats.proven_optimal


def _row_masks(allowed: np.ndarray) -> List[int]:
    """Each row of a boolean matrix as an int bitset (bit ``j`` = column ``j``).

    One ``packbits`` call packs the whole matrix; rows of up to 64
    columns then come out as Python ints through a single ``uint64``
    view, so small devices pay no per-row Python loop.
    """
    packed = np.packbits(allowed, axis=1, bitorder="little")
    rows, width = packed.shape
    if width <= 8:
        words = np.zeros((rows, 8), dtype=np.uint8)
        words[:, :width] = packed
        return words.view("<u8").ravel().tolist()
    data = packed.tobytes()
    return [
        int.from_bytes(data[row * width:(row + 1) * width], "little")
        for row in range(rows)
    ]


class _FeasibilitySearch:
    """Backtracking oracle: is there an assignment with all terms >= t?

    Domains are int bitsets (bit ``value`` set while ``value`` is still
    allowed).  Each pair constraint becomes, per value of one variable,
    the bitset of the neighbor's values it allows, so forward checking
    is one AND per neighbor and MRV is a popcount.
    """

    def __init__(
        self,
        problem: AssignmentProblem,
        threshold: float,
        node_limit: int,
        deadline: Optional[float],
    ) -> None:
        self.problem = problem
        self.threshold = threshold
        self.node_limit = node_limit
        self.deadline = deadline
        self.nodes = 0
        self.exhausted_budget = False
        num_vars, num_values = problem.num_vars, problem.num_values
        # Terms often share one score array (every pair of a mapping
        # problem scores against the same reliability matrix), so masks
        # are built once per distinct array.
        unary_masks: Dict[int, int] = {}
        pair_masks: Dict[int, Tuple[List[int], List[int]]] = {}
        # Initial domains: unary terms filter values up front.
        self.domains = [(1 << num_values) - 1] * num_vars
        for term in problem.unary_terms:
            key = id(term.scores)
            if key not in unary_masks:
                allowed = (term.scores >= threshold)[np.newaxis, :]
                unary_masks[key] = _row_masks(allowed)[0]
            self.domains[term.var] &= unary_masks[key]
        # Pair constraints oriented (var, neighbor): rows[value] is the
        # bitset of neighbor values allowed next to ``var = value``.
        self.adjacency: List[List[Tuple[int, List[int]]]] = [
            [] for _ in range(num_vars)
        ]
        for term in problem.pair_terms:
            key = id(term.scores)
            if key not in pair_masks:
                allowed = term.scores >= threshold
                pair_masks[key] = (_row_masks(allowed), _row_masks(allowed.T))
            forward, backward = pair_masks[key]
            self.adjacency[term.var_u].append((term.var_v, forward))
            self.adjacency[term.var_v].append((term.var_u, backward))
        self.neg_degree = [-len(edges) for edges in self.adjacency]

    def run(self) -> Optional[List[int]]:
        if not all(self.domains):
            return None
        assignment: List[int] = [-1] * self.problem.num_vars
        if self._search(assignment, self.domains):
            return assignment
        return None

    def _select_variable(self, assignment: List[int], domains: List[int]) -> int:
        """MRV heuristic, ties broken by term-graph degree then index."""
        best_var, best_key = -1, None
        for var, domain in enumerate(domains):
            if assignment[var] >= 0:
                continue
            key = (domain.bit_count(), self.neg_degree[var])
            # Strict ``<`` keeps the lowest index among equal keys.
            if best_key is None or key < best_key:
                best_var, best_key = var, key
        return best_var

    def _search(self, assignment: List[int], domains: List[int]) -> bool:
        var = self._select_variable(assignment, domains)
        if var < 0:
            return True  # every variable assigned
        unassigned = [
            v for v, placed in enumerate(assignment) if placed < 0 and v != var
        ]
        candidates = domains[var]
        while candidates:
            bit = candidates & -candidates  # ascending value order
            candidates ^= bit
            self.nodes += 1
            if self.nodes > self.node_limit or (
                self.deadline is not None and time.monotonic() > self.deadline
            ):
                self.exhausted_budget = True
                return False
            value = bit.bit_length() - 1
            new_domains = self._assign(
                assignment, var, value, domains, unassigned
            )
            if new_domains is None:
                continue
            assignment[var] = value
            if self._search(assignment, new_domains):
                return True
            assignment[var] = -1
            if self.exhausted_budget:
                return False
        return False

    def _assign(
        self,
        assignment: List[int],
        var: int,
        value: int,
        domains: List[int],
        unassigned: List[int],
    ) -> Optional[List[int]]:
        """Domains after ``var = value``, or None if one of them empties."""
        bit = 1 << value
        new_domains = list(domains)
        new_domains[var] = bit
        # Injectivity: the value is consumed.
        for other in unassigned:
            remaining = domains[other] & ~bit
            if not remaining:
                return None
            new_domains[other] = remaining
        # Forward-check pair constraints of the newly assigned var.
        # Assigned neighbors need no check: assigning them already
        # filtered this variable's domain by the same constraint.
        for other, rows in self.adjacency[var]:
            if assignment[other] < 0:
                remaining = new_domains[other] & rows[value]
                if not remaining:
                    return None
                new_domains[other] = remaining
        return new_domains


class MaxMinSolver:
    """Binary search over the score lattice with a feasibility oracle."""

    def __init__(
        self,
        problem: AssignmentProblem,
        node_limit: int = 200_000,
        time_limit_s: Optional[float] = None,
    ) -> None:
        self.problem = problem
        self.node_limit = node_limit
        self.time_limit_s = time_limit_s

    # ------------------------------------------------------------------
    def greedy(self) -> Tuple[int, ...]:
        """Constructive heuristic: highest-degree variables first, each
        placed on the value that maximizes its worst incident score.

        Always succeeds (injectivity is the only hard constraint) and
        seeds the binary search with a lower bound.
        """
        problem = self.problem
        adjacency = problem.neighbors()
        unary: Dict[int, List[np.ndarray]] = {}
        for term in problem.unary_terms:
            unary.setdefault(term.var, []).append(term.scores)
        order = sorted(
            range(problem.num_vars),
            key=lambda v: (-len(adjacency[v]), v),
        )
        assignment = [-1] * problem.num_vars
        used = np.zeros(problem.num_values, dtype=bool)
        for var in order:
            best_value, best_key = -1, None
            for value in range(problem.num_values):
                if used[value]:
                    continue
                worst = 1.0
                total = 0.0
                for scores in unary.get(var, ()):
                    worst = min(worst, float(scores[value]))
                    total += float(scores[value])
                for other, scores in adjacency[var]:
                    if assignment[other] >= 0:
                        s = float(scores[value, assignment[other]])
                    else:
                        # Optimistic: the neighbor may still take the
                        # best remaining value.
                        free = ~used
                        free[value] = False
                        s = float(scores[value, free].max())
                    worst = min(worst, s)
                    total += s
                key = (worst, total, -value)
                if best_key is None or key > best_key:
                    best_value, best_key = value, key
            assignment[var] = best_value
            used[best_value] = True
        return tuple(assignment)

    def feasible(
        self,
        threshold: float,
        stats: Optional[SolverStats] = None,
        deadline: Optional[float] = None,
    ) -> Optional[Tuple[int, ...]]:
        """An assignment with every term score >= ``threshold``, if found.

        ``deadline`` (absolute, ``time.monotonic`` scale) caps this one
        check; when omitted the solver's own ``time_limit_s`` applies.
        ``solve`` passes its overall deadline so a budgeted solve never
        overshoots its wall budget by more than one search node.
        """
        if deadline is None and self.time_limit_s is not None:
            deadline = time.monotonic() + self.time_limit_s
        search = _FeasibilitySearch(
            self.problem, threshold, self.node_limit, deadline
        )
        result = search.run()
        if stats is not None:
            stats.nodes += search.nodes
            stats.feasibility_checks += 1
            if search.exhausted_budget:
                stats.proven_optimal = False
        return tuple(result) if result is not None else None

    def _prove_max_feasible(
        self,
        thresholds: np.ndarray,
        certified: float,
        deadline: Optional[float],
        stats: SolverStats,
    ) -> Optional[float]:
        """The maximal feasible threshold value, *proven*, or ``None``.

        ``certified`` is an objective already witnessed feasible (by a
        validated warm hint).  Only thresholds strictly above it are
        searched, and the lowest open threshold is probed first: hints
        are usually optimal already, so a single infeasible probe
        closes the whole range.  The proof is all-or-nothing — if a
        node budget or the deadline cuts any infeasibility check short,
        this returns ``None`` rather than a guess, and the caller runs
        the plain cold search.

        Search effort is merged into ``stats`` (nodes, check count) but
        a budget cut here never marks the overall solve degraded: the
        main search below still runs to completion on its own budget.
        """
        scratch = SolverStats()
        lo = int(np.searchsorted(thresholds, certified, side="right"))
        hi = len(thresholds) - 1
        proven: Optional[float] = float(certified)
        first = True
        while lo <= hi:
            if deadline is not None and time.monotonic() > deadline:
                proven = None
                break
            mid = lo if first else (lo + hi) // 2
            first = False
            result = self.feasible(
                float(thresholds[mid]), scratch, deadline=deadline
            )
            if not scratch.proven_optimal:
                # A budget-cut "infeasible" is not a proof.
                proven = None
                break
            if result is not None:
                proven = self.problem.min_score(result)
                lo = max(
                    int(np.searchsorted(thresholds, proven, side="right")),
                    mid + 1,
                )
            else:
                hi = mid - 1
        stats.nodes += scratch.nodes
        stats.feasibility_checks += scratch.feasibility_checks
        return proven

    def solve(
        self,
        warm_hint: Optional[Tuple[int, ...]] = None,
        on_improve: Optional[Callable[[float], None]] = None,
    ) -> Solution:
        """Maximize the minimum term score.

        ``on_improve`` is an optional callback invoked with the new
        best objective each time the binary search raises its incumbent
        (used by the portfolio driver to record the bound trajectory);
        it observes the search and must not mutate the problem.

        Always returns a valid injective assignment: the greedy
        incumbent seeds the search, so a blown deadline or node budget
        degrades to the best assignment found so far (flagged via
        ``Solution.degraded``) instead of raising — the heavy-tailed
        solve-time distribution must not take a sweep down.

        ``warm_hint`` is an optional previously solved assignment (for
        example, the same circuit mapped under another calibration day).
        It is **bound-only**: the hint assignment itself is never
        returned.  Re-scored against *this* problem, it certifies that
        its objective is feasible, and :meth:`_prove_max_feasible`
        pins down the maximal feasible threshold up front; the main
        binary search then replays the exact cold probe sequence,
        answering probes at proven-infeasible thresholds without
        running the oracle.  Every oracle call it does make is one the
        cold search makes too, so a solve that stays within its node
        budget returns the **bit-identical assignment** with or without
        the hint — the hint only skips work, it cannot steer the
        answer.  (If the node budget fires, the cold path may merely be
        *flagged* degraded where the warm path, holding a proof, is
        not; the assignment is still identical.  A wall-clock
        ``time_limit_s`` makes any solve timing-dependent, hint or
        not.)  An invalid hint (wrong size, not injective, out of
        range) is silently ignored.
        """
        started = time.monotonic()
        stats = SolverStats()
        problem = self.problem
        best = self.greedy()
        problem.validate(best)
        best_objective = problem.min_score(best)
        if on_improve is not None:
            on_improve(best_objective)
        thresholds = problem.candidate_thresholds()
        overall_deadline = (
            started + self.time_limit_s if self.time_limit_s is not None else None
        )
        proven_max: Optional[float] = None
        if warm_hint is not None:
            hint = tuple(int(value) for value in warm_hint)
            try:
                problem.validate(hint)
            except ValueError:
                pass
            else:
                hint_objective = problem.min_score(hint)
                if hint_objective > best_objective:
                    proven_max = self._prove_max_feasible(
                        thresholds, hint_objective, overall_deadline, stats
                    )
        # The cold binary search, replayed exactly.  ``proven_max``
        # only answers probes whose infeasibility it already proved;
        # the hint assignment never enters ``best``.
        lo = int(np.searchsorted(thresholds, best_objective, side="right"))
        hi = len(thresholds) - 1
        while lo <= hi:
            if overall_deadline is not None and time.monotonic() > overall_deadline:
                stats.proven_optimal = False
                break
            mid = (lo + hi) // 2
            threshold = float(thresholds[mid])
            if proven_max is not None and threshold > proven_max:
                result = None
            else:
                result = self.feasible(
                    threshold, stats, deadline=overall_deadline
                )
            if result is not None:
                best = result
                best_objective = problem.min_score(result)
                if on_improve is not None:
                    on_improve(best_objective)
                lo = (
                    int(np.searchsorted(thresholds, best_objective, side="right"))
                )
                lo = max(lo, mid + 1)
            else:
                hi = mid - 1
        stats.wall_time_s = time.monotonic() - started
        return Solution(
            assignment=best, objective=best_objective, stats=stats
        )
