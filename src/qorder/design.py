"""Constrained l1 sound design over the brightness order.

Given a target timbre p and a brightness bound b, find a timbre x no brighter
than b that is l1-closest to p, that minimises the summed distance to both, or
that is closest to b among the points closest to p.  The first two problems
each become one linear program by the usual absolute-value split; simplex
membership (sum 1, nonnegativity) is part of the constraint set so that the
solution is itself a timbre.  The third is answered by a point in closed form,
with no LP.

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
from .simplex import LPStandardForm, LPStatus, lp_solve
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

# largest disagreement between an answer's distances and their closed forms
CERTIFICATE_TOL = 1e-9
# brightness tolerance of solution_no_brighter_than_target
NO_BRIGHTER_TOL = 1e-6
# largest block of trials the counterexample search draws and checks at once
_SEARCH_BLOCK_BYTES = 1 << 16


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
    (closest-to-target) or u and w (bi-objective).  Inequalities: the
    two-sided splits, then the suffix-sum rows keeping x no brighter than the
    bound.  One equality pins the total power to 1.  A closest-to-bound
    problem has no LP here (:func:`solve_closest_to_bound`) and raises
    ValueError.
    """
    if problem.variant is Variant.CLOSEST_TO_BOUND:
        raise ValueError("closest-to-bound is answered in closed form, with no LP")
    n = problem.n
    p, b = problem.target.power, problem.bound.power
    bi = problem.variant is Variant.BI_OBJECTIVE
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
    # what np.block does, at half its cost for small n
    a_ub = np.concatenate([np.concatenate(row, axis=1) for row in rows])
    a_eq = np.zeros((1, n_vars))
    a_eq[0, :n] = 1.0
    c = np.zeros(n_vars)
    c[n:] = 1.0
    return LPStandardForm(c, a_ub, b_ub, a_eq, np.array([1.0]))


def _certified(problem: DesignProblem, x: np.ndarray, objective: float) -> DesignSolution:
    """The answer x, reporting ``objective``, certified on its own terms in O(n).

    Each variant's optimum is proved in closed form (:func:`solve_design`,
    :func:`solve_closest_to_bound`).  The answer is a numerical failure, which
    keeps the objective and no point, unless within ``CERTIFICATE_TOL`` the
    objective is the closed form of the variant's first distance, and x is a
    timbre no brighter than the bound, S(x) <= S(b), whose own distances
    attain their optima: ||x - p||_1 = 2D for closest-to-target,
    ||x - p||_1 + ||x - b||_1 = ||p - b||_1 for bi-objective, and for
    closest-to-bound ||x - p||_1 = 2D, then ||x - b||_1 = ||p - b||_1 - 2D.
    A feasible point that attains a proved lower bound is optimal, however it
    was computed.
    """
    try:
        point = TimbralVector(x)
    except ValueError:
        return DesignSolution(None, objective)
    p, b = problem.target, problem.bound
    least, direct = closest_to_target_optimum(p, b), 2 * tv_distance(p, b)
    to_p, to_b = 2 * tv_distance(point, p), 2 * tv_distance(point, b)
    # the distances at x that the variant minimises, in order, and their optima
    attained, optimum = {
        Variant.CLOSEST_TO_TARGET: ((to_p,), (least,)),
        Variant.BI_OBJECTIVE: ((to_p + to_b,), (direct,)),
        Variant.CLOSEST_TO_BOUND: ((to_p, to_b), (least, direct - least)),
    }[problem.variant]
    tol = CERTIFICATE_TOL
    certified = (
        abs(objective - optimum[0]) <= tol
        and all(got <= best + tol for got, best in zip(attained, optimum))
        and not (suffix_profile(point) > suffix_profile(b) + tol).any()
    )
    return DesignSolution(point if certified else None, objective)


def solve_design(problem: DesignProblem) -> DesignSolution:
    """Optimal solution of the reformulated LP, certified by its closed form.

    The reported objective is in raw l1 units (the summed split variables);
    halve it for total variation distance.  It is checked against 2D
    (:func:`closest_to_target_optimum`) or, bi-objective, ||p - b||_1 (the
    triangle inequality, attained at x = b), and so is the distance measured
    from the returned point (:func:`_certified`).  An LP short of optimal
    gives no point and a NaN objective.  Closest-to-bound problems go to
    :func:`solve_closest_to_bound`, which solves no LP.  Solutions need not be
    unique; the deterministic pivot rule fixes which vertex is returned.
    """
    if problem.variant is Variant.CLOSEST_TO_BOUND:
        return solve_closest_to_bound(problem)
    result = lp_solve(to_lp(problem))
    if result.status is not LPStatus.OPTIMAL:
        return DesignSolution(None, float("nan"))
    return _certified(problem, result.x[: problem.n], result.cost)


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
    """Among minimisers of the distance to the target, the point closest to
    the bound, in closed form and with no LP.

    Write S for suffix profiles, S_k the power in the top k harmonics, with
    S_0 = 0 and S_n = 1, and p_(k) for the k-th harmonic from the top.  Let
    e_k = (S(p)_k - S(b)_k)_+, so D = max_k e_k and e_0 = e_n = 0, and let
    env be the least unimodal sequence above e:
    env_k = min(max_{j<=k} e_j, max_{j>=k} e_j).  It rises to D and then
    falls, with env_0 = env_n = 0.  The answer x* has S(x*) = S(p) - env;
    its k-th harmonic from the top is p_(k) - (env_k - env_{k-1}).

    - x* is a timbre.  Its total is S(p)_n - env_n = 1.  Where env rises at k,
      env_k = e_k > 0 and env_{k-1} >= e_{k-1} >= S(p)_{k-1} - S(b)_{k-1}, so
      the rise is at most p_(k) - b_(k): then b_(k) <= x*_(k) <= p_(k), and
      x*_(k) >= 0.  Where env falls at k, env_{k-1} = e_{k-1} > 0 and
      env_k >= e_k, so the fall is at most b_(k) - p_(k): then
      p_(k) <= x*_(k) <= b_(k).  Elsewhere x*_(k) = p_(k).
    - x* is no brighter than b.  env >= e, so S(x*) <= S(p) - e <= S(b).
    - Both bounds are attained.  ||x* - p||_1 is the total variation of env,
      2D for a unimodal sequence from 0 up to D and back to 0; that is the
      least distance to the target (:func:`closest_to_target_optimum`).
      Every harmonic of x* lies between those of p and b, so
      ||x* - b||_1 = ||p - b||_1 - 2D, which by the triangle inequality no
      point at distance 2D from p can undercut.

    The point is certified like an LP answer (:func:`_certified`).  The
    reported objective is its distance to the target, 2D.
    """
    if problem.variant is not Variant.CLOSEST_TO_BOUND:
        raise ValueError("the closed-form point answers the closest-to-bound variant only")
    profile = suffix_profile(problem.target)
    excess = np.maximum(profile - suffix_profile(problem.bound), 0.0)
    envelope = np.minimum(np.maximum.accumulate(excess), np.maximum.accumulate(excess[::-1])[::-1])
    x = np.diff(profile - envelope, prepend=0.0)[::-1]
    return _certified(problem, x, float(np.abs(x - problem.target.power).sum()))


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

    Trials are drawn in blocks of ``_SEARCH_BLOCK_BYTES``: k = 2**16 // (16 n)
    trials come from one ``rng.dirichlet(ones(n), size=2k)`` call, and all
    their rows are checked at once as :class:`TimbralVector` would check
    them.  A block's rows are bit for bit the draws of k successive
    ``size=2`` calls, so trial t's target and bound are rows 2t and 2t + 1
    of the stream whatever the block size.  Each trial is then decided from
    the suffix profiles of its two rows by the formulas behind
    :func:`timbre.infimum` and :func:`closest_to_target_optimum`, with no
    vector built.  A hit builds the vectors and the infimum, and is certified
    by one ``solve_design``, whose objective is reported and which checks
    itself against the same closed form; a solution without a point raises
    RuntimeError.  Stops at the first hit; reports not-found when the budget
    runs out, which is inconclusive rather than a refutation.  ``n``,
    ``trials`` and ``seed`` are integers below 2**63 in magnitude, or
    integral floats such as 4.0.
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
    block = max(1, _SEARCH_BLOCK_BYTES // (16 * n))
    for start in range(0, trials, block):
        # the block's rows are those of successive rng.dirichlet(alpha) calls
        draws = rng.dirichlet(alpha, size=2 * min(block, trials - start))
        _check_power(draws)
        for offset in range(len(draws) // 2):
            trial = start + offset
            pair = draws[2 * offset : 2 * offset + 2]
            p, b = pair
            profile_p, profile_b = pair[:, ::-1].cumsum(axis=1)
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
