"""Reference oracles for the design problems.

An exhaustive search over a grid on the probability simplex: slow and
approximate, but independent of the LP formulation and the simplex.  The
constraint rows of the LPs written one entry at a time.  The
closest-to-bound LP, which the library answers in closed form instead.  And
the counterexample search with one Dirichlet draw per trial, which the
library draws in blocks instead.
"""

import numpy as np

from qorder.design import (
    CERTIFICATE_TOL,
    DesignProblem,
    DesignSolution,
    SearchReport,
    Variant,
    _closest_to_target_optimum,
    closest_to_target_optimum,
    solve_design,
)
from qorder.simplex import LPStandardForm
from qorder.timbre import TimbralVector, _check_power, _infimum_power, infimum, suffix_profile

# the closest-to-bound LP's budget slack: exact equality on a floating optimum is brittle
STAGE_TWO_SLACK = 1e-9


def simplex_grid(n: int, steps: int) -> list[tuple[int, ...]]:
    """Every composition of ``steps`` into ``n`` nonnegative integer parts."""
    if n == 1:
        return [(steps,)]
    return [(i, *rest) for i in range(steps + 1) for rest in simplex_grid(n - 1, steps - i)]


def grid_solve(problem: DesignProblem, resolution: float) -> DesignSolution:
    """Best grid point that is no brighter than the bound.

    The grid always holds the point putting all power in the fundamental,
    which is feasible, so a point is always returned.  The returned objective
    can exceed the LP optimum by at most n * resolution.
    """
    if problem.n > 4:
        raise ValueError("grid oracle supports n <= 4 only")
    if resolution not in (0.01, 0.02, 0.05):
        raise ValueError("resolution must be one of 0.01, 0.02, 0.05")
    steps = round(1.0 / resolution)
    grid = np.asarray(simplex_grid(problem.n, steps), dtype=float) / steps
    profiles = np.cumsum(grid[:, ::-1], axis=1)
    points = grid[np.all(profiles <= suffix_profile(problem.bound) + 1e-12, axis=1)]
    cost = np.abs(points - problem.target.power).sum(axis=1)
    if problem.variant is Variant.BI_OBJECTIVE:
        cost = cost + np.abs(points - problem.bound.power).sum(axis=1)
    best = int(np.argmin(cost))
    return DesignSolution(TimbralVector(points[best]), float(cost[best]))


def abs_split_rows(n: int, n_vars: int, x_at: int, aux_at: int) -> np.ndarray:
    """Rows encoding aux >= |x - ref|: x - aux <= ref and -x - aux <= -ref."""
    rows = np.zeros((2 * n, n_vars))
    for i in range(n):
        rows[i, x_at + i] = 1.0
        rows[i, aux_at + i] = -1.0
        rows[n + i, x_at + i] = -1.0
        rows[n + i, aux_at + i] = -1.0
    return rows


def suffix_rows(n: int, n_vars: int) -> np.ndarray:
    """Rows whose product with (x, ...) gives the suffix profile of x."""
    rows = np.zeros((n, n_vars))
    for i in range(n):
        rows[i, n - 1 - i : n] = 1.0
    return rows


def loop_a_ub(n: int, variant: Variant) -> np.ndarray:
    """The inequality matrix of ``design.to_lp``, or for closest-to-bound of
    :func:`stage_two_lp`, entry by entry."""
    bi = variant is not Variant.CLOSEST_TO_TARGET
    n_vars = 3 * n if bi else 2 * n
    blocks = [abs_split_rows(n, n_vars, 0, n)]
    if bi:
        blocks.append(abs_split_rows(n, n_vars, 0, 2 * n))
    blocks.append(suffix_rows(n, n_vars))
    if variant is Variant.CLOSEST_TO_BOUND:
        budget = np.zeros((1, n_vars))
        for i in range(n):
            budget[0, n + i] = 1.0
        blocks.append(budget)
    return np.vstack(blocks)


def stage_two_lp(problem: DesignProblem) -> LPStandardForm:
    """The closest-to-bound LP over (x, u, w): minimise sum(w), with w
    bounding |x - bound|, subject to the bi-objective LP's constraints and the
    budget row sum(u) <= 2D + STAGE_TWO_SLACK.  Its optimum is
    ||p - b||_1 - 2D, less at most the slack."""
    n = problem.n
    p, b = problem.target.power, problem.bound.power
    budget = closest_to_target_optimum(problem.target, problem.bound) + STAGE_TWO_SLACK
    b_ub = np.concatenate([p, -p, b, -b, suffix_profile(problem.bound), [budget]])
    a_eq = np.zeros((1, 3 * n))
    a_eq[0, :n] = 1.0
    c = np.zeros(3 * n)
    c[2 * n :] = 1.0
    return LPStandardForm(c, loop_a_ub(n, Variant.CLOSEST_TO_BOUND), b_ub, a_eq, [1.0])


def reference_counterexample_search(n: int, trials: int, seed: int, gap_tol: float) -> SearchReport:
    """``design.counterexample_search`` with one ``size=2`` Dirichlet draw and
    one check per trial, for valid arguments only."""
    floor = max(gap_tol, CERTIFICATE_TOL)
    rng = np.random.default_rng(seed)
    alpha = np.ones(n)
    for trial in range(trials):
        draws = rng.dirichlet(alpha, size=2)
        _check_power(draws)
        p, b = draws
        profile_p, profile_b = draws[:, ::-1].cumsum(axis=1)
        objective_z = float(np.abs(_infimum_power(profile_b, profile_p) - p).sum())
        if objective_z - _closest_to_target_optimum(profile_p, profile_b) <= floor:
            continue
        tp, tb = TimbralVector(p), TimbralVector(b)
        solution = solve_design(DesignProblem(tp, tb))
        return SearchReport(n, trials, seed, gap_tol, trial, tp.power, tb.power,
                            infimum(tb, tp).power, objective_z, solution.objective)
    return SearchReport(n, trials, seed, gap_tol)
