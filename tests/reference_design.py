"""Reference oracles for the design LPs.

An exhaustive search over a grid on the probability simplex: slow and
approximate, but independent of the LP formulation and the simplex.  And the
constraint rows of the LP written one entry at a time.
"""

import numpy as np

from qorder.design import DesignProblem, DesignSolution, Variant
from qorder.timbre import TimbralVector, suffix_profile


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
    """The inequality matrix of ``design.to_lp``, entry by entry."""
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
