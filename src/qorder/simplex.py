"""Dense LP solving in standard form.

``LPStandardForm`` carries ``minimise c.v`` subject to ``A v <= u``,
``E v = d`` and ``v >= 0``.  The solver is a self-contained two-phase primal
simplex on a dense tableau with Bland's anti-cycling rule, so termination is
guaranteed.  It starts from the slack basis: an inequality row whose
right-hand side is nonnegative starts on its own slack, and only the other
rows start on an artificial variable, so phase 1 drives out only those.  The
design LPs have 2n or 3n variables for n harmonics, so up to 3072 at the
1024-harmonic cap, and the tableau is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import LPStatus

# reduced costs and pivot entries within this of zero count as zero
PIVOT_TOL = 1e-9


def _as_matrix(m, n_vars: int) -> np.ndarray:
    arr = np.array(m, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, n_vars)
    if arr.ndim != 2 or arr.shape[1] != n_vars:
        raise ValueError(f"constraint matrix shape {arr.shape} incompatible with {n_vars} variables")
    return arr


@dataclass(frozen=True, eq=False)
class LPStandardForm:
    """minimise objective.v  s.t.  a_ub v <= b_ub, a_eq v = b_eq, v >= 0."""

    objective: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.objective, dtype=float).ravel()
        if c.size == 0:
            raise ValueError("objective must have at least one variable")
        a_ub = _as_matrix(self.a_ub, c.size)
        a_eq = _as_matrix(self.a_eq, c.size)
        b_ub = np.array(self.b_ub, dtype=float).ravel()
        b_eq = np.array(self.b_eq, dtype=float).ravel()
        if b_ub.size != a_ub.shape[0] or b_eq.size != a_eq.shape[0]:
            raise ValueError("right-hand side lengths disagree with constraint rows")
        for name, arr in (("objective", c), ("a_ub", a_ub), ("b_ub", b_ub),
                          ("a_eq", a_eq), ("b_eq", b_eq)):
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite entries in {name}")
            arr.setflags(write=False)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "a_ub", a_ub)
        object.__setattr__(self, "b_ub", b_ub)
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)


@dataclass(frozen=True, eq=False)
class LPResult:
    x: np.ndarray
    cost: float
    status: LPStatus


def equality_form(lp: LPStandardForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's tableau t, costs c and starting basis.

    The system is minimise c.v s.t. a v = b, v >= 0, b >= 0, with
    a = t[:-1, :-1] and b = t[:-1, -1]; the last row, which the kernel fills
    with its objective, is zero.  One slack column per inequality row follows
    the original variables; rows with a negative right-hand side are negated.
    The system is written straight into the tableau, in place, so no second
    copy of it is ever held.

    ``basis[i]`` is the slack column of inequality row i when that row was not
    negated (its slack is then a unit column with a nonnegative value), and
    otherwise the artificial index n + i, n being the column count of a.  So
    negated rows, whose slack coefficient is -1, and equality rows start on an
    artificial.  A right-hand side of -0.0 is not negated.
    """
    nv = lp.n_vars
    mu = lp.a_ub.shape[0]
    me = lp.a_eq.shape[0]
    t = np.zeros((mu + me + 1, nv + mu + 1))
    t[:mu, :nv] = lp.a_ub
    slack = np.arange(mu)
    t[slack, nv + slack] = 1.0
    t[mu:-1, :nv] = lp.a_eq
    b = t[:-1, -1]
    b[:mu] = lp.b_ub
    b[mu:] = lp.b_eq
    negated = b < 0
    t[:-1] *= np.where(negated, -1.0, 1.0)[:, None]
    np.abs(b, out=b)
    c = np.concatenate([lp.objective, np.zeros(mu)])
    basis = nv + np.arange(mu + me)
    basis[:mu][negated[:mu]] += mu
    basis[mu:] += mu
    return t, c, basis


def iteration_budget(t: np.ndarray) -> int:
    """Pivot limit for the tableau ``t`` of an equality system."""
    return 200 + 50 * (t.shape[0] + t.shape[1] - 2)


def lp_solve(lp: LPStandardForm) -> LPResult:
    """Solve to an optimal basic feasible solution.

    Deterministic: Bland's rule fixes the pivot sequence, so repeated solves
    of the same instance return the same vertex.
    """
    nv = lp.n_vars
    t, c, basis = equality_form(lp)
    status, v = _kernels.simplex_solve(t, c, basis, PIVOT_TOL, iteration_budget(t))
    x = np.asarray(v[:nv], dtype=float)
    if status is LPStatus.OPTIMAL:
        cost = float(lp.objective @ x)
    else:
        x = np.zeros(nv)
        cost = float("nan")
    return LPResult(x, cost, status)
