"""Constrained l1 sound design over the brightness order.

Given a target timbre p and a brightness bound b, find a timbre x no brighter
than b that is l1-closest to p, that minimises the summed distance to both, or
that is closest to b among the points closest to p.  Each problem becomes one
linear program by the usual absolute-value split;
simplex membership (sum 1, nonnegativity) is part of the constraint set so
that the solution is itself a timbre.

No design problem is infeasible or unbounded: x = b, or for closest-to-bound
the closed-form point at distance 2D from p, is feasible, and each objective
sums nonnegative variables.  So a solve fails only numerically, and a
solution is optimal exactly when it carries a point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .orders import Comparison, _integer, check_tolerance
from .simplex import LPResult, LPStandardForm, LPStatus, lp_solve
from .spectra import MAX_HARMONICS
from .timbre import (
    TimbralVector,
    _check_power,
    _check_same_n,
    _infimum_power,
    brightness_compare,
    brightness_matrix,
    infimum,
    suffix_profile,
    tv_distance,
)

STAGE_TWO_SLACK = 1e-9
# largest disagreement between an LP objective and its closed form
CERTIFICATE_TOL = 1e-9
# brightness tolerance of solution_no_brighter_than_target
NO_BRIGHTER_TOL = 1e-6


class Variant(enum.Enum):
    CLOSEST_TO_TARGET = "l1min"
    BI_OBJECTIVE = "l1min2"
    CLOSEST_TO_BOUND = "closest-to-bound"


class DesignStatus(enum.Enum):
    OPTIMAL = "optimal"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True, eq=False)
class DesignProblem:
    target: TimbralVector
    bound: TimbralVector
    variant: Variant = Variant.CLOSEST_TO_TARGET

    def __post_init__(self) -> None:
        _check_same_n(self.target, self.bound)

    @property
    def n(self) -> int:
        return self.target.n


@dataclass(frozen=True, eq=False)
class DesignSolution:
    x: TimbralVector | None
    objective: float

    @property
    def status(self) -> DesignStatus:
        return DesignStatus.NUMERICAL_FAILURE if self.x is None else DesignStatus.OPTIMAL


def to_lp(problem: DesignProblem) -> LPStandardForm:
    """Reformulate as an LP over (x, u) or (x, u, w).

    u bounds |x - target| and w bounds |x - bound|; the objective sums u
    (closest-to-target), u and w (bi-objective) or w alone (closest-to-bound).
    Inequalities: the two-sided splits, then the suffix-sum rows keeping x no
    brighter than the bound, then for closest-to-bound the budget row
    sum(u) <= 2D + STAGE_TWO_SLACK (:func:`solve_closest_to_bound`).  One
    equality pins the total power to 1.
    """
    n = problem.n
    p = problem.target.power
    b = problem.bound.power
    stage_two = problem.variant is Variant.CLOSEST_TO_BOUND
    bi = stage_two or problem.variant is Variant.BI_OBJECTIVE
    n_vars = 3 * n if bi else 2 * n

    # 0.0 - eye, not -eye, so that every zero is +0.0
    eye, neg, zero = np.eye(n), 0.0 - np.eye(n), np.zeros((n, n))
    suffix, ceiling = brightness_matrix(n), suffix_profile(problem.bound)
    # each split aux >= |x - ref| is x - aux <= ref over -x - aux <= -ref
    if bi:
        rows = [[eye, neg, zero], [neg, neg, zero], [eye, zero, neg], [neg, zero, neg],
                [suffix, zero, zero]]
        b_ub = np.concatenate([p, -p, b, -b, ceiling])
    else:
        rows = [[eye, neg], [neg, neg], [suffix, zero]]
        b_ub = np.concatenate([p, -p, ceiling])
    if stage_two:
        rows.append([np.zeros((1, n)), np.ones((1, n)), np.zeros((1, n))])
        budget = closest_to_target_optimum(problem.target, problem.bound) + STAGE_TWO_SLACK
        b_ub = np.append(b_ub, budget)
    # what np.block does, at half its cost for small n
    a_ub = np.concatenate([np.concatenate(row, axis=1) for row in rows])
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :n] = 1.0
    c = np.zeros(n_vars)
    c[2 * n if stage_two else n :] = 1.0
    return LPStandardForm(c, a_ub, b_ub, a_eq, np.array([1.0]))


def _certified(problem: DesignProblem, result: LPResult) -> DesignSolution:
    """The LP's answer, certified on its cost and on its point, in O(n).

    Each variant's optimum is proved in closed form (:func:`solve_design`,
    :func:`solve_closest_to_bound`); the closest-to-bound LP may undercut it
    by its slack.  An LP short of optimal gives no point and a NaN objective.
    Any other answer is a numerical failure, which keeps the rejected LP
    objective and no point, unless within ``CERTIFICATE_TOL`` that objective
    lies in that range, and the point x is a timbre no brighter than the
    bound, S(x) <= S(b), whose own objective attains the optimum: ||x - p||_1
    for closest-to-target, ||x - p||_1 + ||x - b||_1 for bi-objective, and
    ||x - b||_1 within the budget ||x - p||_1 <= 2D + STAGE_TWO_SLACK for
    closest-to-bound.  A feasible point that attains a proved lower bound is
    optimal, whatever the simplex did.  The LP objective is reported, or
    ||x - p||_1 for closest-to-bound.
    """
    if result.status is not LPStatus.OPTIMAL:
        return DesignSolution(None, float("nan"))
    try:
        x = TimbralVector(result.x[: problem.n])
    except ValueError:
        return DesignSolution(None, result.cost)
    p, b = problem.target, problem.bound
    least, direct = closest_to_target_optimum(p, b), 2 * tv_distance(p, b)
    to_p, to_b = 2 * tv_distance(x, p), 2 * tv_distance(x, b)
    # the optimum, the slack below it, the objective at x, the bound on to_p, the reported objective
    optimum, slack, attained, budget, reported = {
        Variant.CLOSEST_TO_TARGET: (least, 0.0, to_p, least, result.cost),
        Variant.BI_OBJECTIVE: (direct, 0.0, to_p + to_b, np.inf, result.cost),
        Variant.CLOSEST_TO_BOUND: (direct - least, STAGE_TWO_SLACK, to_b, least + STAGE_TWO_SLACK, to_p),
    }[problem.variant]
    tol = CERTIFICATE_TOL
    if (
        optimum - slack - tol <= result.cost <= optimum + tol
        and attained <= optimum + tol
        and to_p <= budget + tol
        and not (suffix_profile(x) > suffix_profile(b) + tol).any()
    ):
        return DesignSolution(x, reported)
    return DesignSolution(None, result.cost)


def solve_design(problem: DesignProblem) -> DesignSolution:
    """Optimal solution of the reformulated LP, certified by its closed form.

    The reported objective is in raw l1 units (the summed split variables);
    halve it for total variation distance.  It is checked against 2D
    (:func:`closest_to_target_optimum`) or, bi-objective, ||p - b||_1 (the
    triangle inequality, attained at x = b), and so is the distance measured
    from the returned point (:func:`_certified`).  Closest-to-bound problems
    go to :func:`solve_closest_to_bound`.  Solutions need not be unique; the
    deterministic pivot rule fixes which vertex is returned.
    """
    if problem.variant is Variant.CLOSEST_TO_BOUND:
        return solve_closest_to_bound(problem)
    return _certified(problem, lp_solve(to_lp(problem)))


def closest_to_target_optimum(target: TimbralVector, bound: TimbralVector) -> float:
    """Optimum of the closest-to-target LP in closed form: 2D, where
    D = max_k (S(p)_k - S(b)_k)_+ over the suffix profiles S of p and b.

    Lower bound: x and p both sum to one, so for every k and every feasible x,
    ||x - p||_1 >= 2 (S(p)_k - S(x)_k) >= 2 (S(p)_k - S(b)_k).
    Attained: moving mass D from the top harmonics of p down to the
    fundamental costs 2D and leaves S(x)_k = max(S(p)_k - D, 0) <= S(b)_k, k < n.
    """
    _check_same_n(target, bound)
    return _closest_to_target_optimum(suffix_profile(target), suffix_profile(bound))


def _closest_to_target_optimum(target_profile: np.ndarray, bound_profile: np.ndarray) -> float:
    """2D from the suffix profiles of target and bound."""
    excess = float((target_profile - bound_profile).max())
    return 2.0 * max(excess, 0.0)


def solve_closest_to_bound(problem: DesignProblem) -> DesignSolution:
    """Among minimisers of the distance to the target, get closest to the bound.

    Stage one is the closed form: the least distance to the target is
    2D = :func:`closest_to_target_optimum`, with no LP.  Stage two is the one
    LP that :func:`to_lp` builds for the closest-to-bound variant: minimise
    ||x - b||_1 subject to the closest-to-target constraints plus a budget
    ||x - p||_1 <= 2D + STAGE_TWO_SLACK (exact equality on a floating optimum
    is brittle).  Its optimum is ||p - b||_1 - 2D, less at most the slack:
    the triangle inequality bounds it below, and a feasible point between p
    and b coordinatewise at distance 2D from p attains it (its suffix profile
    is S(p) less the unimodal upper envelope of S(p) - S(b)).  An LP objective
    outside that range is a numerical failure, and so is a returned point that
    breaks the budget or is farther from b than that optimum
    (:func:`_certified`).  The reported objective is the distance to the
    target at the returned point.
    """
    if problem.variant is not Variant.CLOSEST_TO_BOUND:
        raise ValueError("two-stage refinement applies to the closest-to-bound variant")
    return _certified(problem, lp_solve(to_lp(problem)))


def solution_no_brighter_than_target(problem: DesignProblem, solution: DesignSolution) -> bool:
    """Whether the solution sits at or below the target in the brightness order,
    within ``NO_BRIGHTER_TOL``."""
    if solution.x is None:
        raise ValueError("check applies to optimal solutions only")
    verdict = brightness_compare(solution.x, problem.target, NO_BRIGHTER_TOL)
    return verdict in (Comparison.LESS, Comparison.EQUAL)


# randomized search for instances where the lattice infimum is suboptimal ----


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Outcome of the randomized infimum-gap search; deterministic per seed."""

    n: int
    trials: int
    seed: int
    gap_tol: float
    trial_index: int | None = None
    target: np.ndarray | None = None
    bound: np.ndarray | None = None
    infimum_point: np.ndarray | None = None
    objective_at_infimum: float | None = None
    lp_objective: float | None = None

    @property
    def found(self) -> bool:
        return self.trial_index is not None

    @property
    def gap(self) -> float | None:
        if not self.found:
            return None
        return self.objective_at_infimum - self.lp_objective


def counterexample_search(
    n: int, trials: int, seed: int, gap_tol: float = 1e-4
) -> SearchReport:
    """Sample (target, bound) pairs uniformly on the simplex and hunt for an
    instance where the dominance infimum of bound and target is farther from
    the target than the LP optimum by more than ``gap_tol``.

    A gap counts only above ``CERTIFICATE_TOL`` too, whatever ``gap_tol``:
    that is the resolution at which the certificate LP can confirm it.  So
    rounding noise at n <= 3, where the infimum is optimal, is never
    reported, and a reported gap is never negative.

    Each trial draws target and bound as the two rows of one Dirichlet draw,
    checks both as :class:`TimbralVector` would, and is decided from their
    suffix profiles by the formulas behind :func:`timbre.infimum` and
    :func:`closest_to_target_optimum`, with no vector built.  A hit builds the
    vectors and the infimum, and is certified by one ``solve_design``, whose
    objective is reported and which checks itself against the same closed
    form; a solution without a point raises RuntimeError.  Stops at the first
    hit; reports not-found when the budget runs out, which is inconclusive
    rather than a refutation.  ``n``, ``trials`` and ``seed`` are integers,
    or integral floats such as 4.0.
    """
    n = _integer(n, "n must be an integer")
    trials = _integer(trials, "trials must be an integer")
    seed = _integer(seed, "seed must be an integer")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 2 <= n <= MAX_HARMONICS:
        raise ValueError(f"n must be at least 2 and at most {MAX_HARMONICS}, got {n}")
    check_tolerance(gap_tol, "gap_tol")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    floor = max(gap_tol, CERTIFICATE_TOL)
    rng = np.random.default_rng(seed)
    alpha = np.ones(n)
    for trial in range(trials):
        # the rows are the draws of two successive rng.dirichlet(alpha) calls
        draws = rng.dirichlet(alpha, size=2)
        _check_power(draws)
        p, b = draws
        profile_p, profile_b = draws[:, ::-1].cumsum(axis=1)
        objective_z = float(np.abs(_infimum_power(profile_b, profile_p) - p).sum())
        optimum = _closest_to_target_optimum(profile_p, profile_b)
        if objective_z - optimum <= floor:
            continue
        tp, tb = TimbralVector(p), TimbralVector(b)
        z = infimum(tb, tp)
        solution = solve_design(DesignProblem(tp, tb))
        if solution.x is None:
            raise RuntimeError(f"trial {trial}: the certificate LP gives {solution.status.value} "
                               f"objective {solution.objective!r}, the closed form {optimum!r}")
        return SearchReport(
            n=n,
            trials=trials,
            seed=seed,
            gap_tol=gap_tol,
            trial_index=trial,
            target=tp.power,
            bound=tb.power,
            infimum_point=z.power,
            objective_at_infimum=objective_z,
            lp_objective=solution.objective,
        )
    return SearchReport(n=n, trials=trials, seed=seed, gap_tol=gap_tol)
