"""Reference oracle for the simplex kernel.

A scalar, loop-by-loop form of ``qorder._kernels.simplex_solve``: the same
tableau, Bland's rule and pivot sequence, written one entry at a time.  The
kernel's row operations must reproduce it bit for bit.
"""

import numpy as np

from qorder import _kernels
from qorder._kernels import LPStatus


def loop_equality_form(lp):
    """(a, b, c, basis) of ``qorder.simplex.equality_form``, one entry at a
    time: the inequality rows with one slack column each, then the equality
    rows, each row negated when its right-hand side is negative.  An
    inequality row that was not negated starts on its slack; every other row
    starts on its artificial, index nv + mu + i."""
    nv, mu, me = lp.n_vars, lp.a_ub.shape[0], lp.a_eq.shape[0]
    a = np.zeros((mu + me, nv + mu))
    b = np.zeros(mu + me)
    basis = np.zeros(mu + me, np.int64)
    for i in range(mu + me):
        rhs = lp.b_ub[i] if i < mu else lp.b_eq[i - mu]
        sign = -1.0 if rhs < 0 else 1.0
        basis[i] = nv + i if i < mu and sign > 0 else nv + mu + i
        for j in range(nv):
            a[i, j] = sign * (lp.a_ub[i, j] if i < mu else lp.a_eq[i - mu, j])
        for j in range(mu):
            a[i, nv + j] = sign * (1.0 if j == i else 0.0)
        b[i] = abs(rhs)
    c = np.zeros(nv + mu)
    for j in range(nv):
        c[j] = lp.objective[j]
    return a, b, c, basis


def loop_simplex_solve(a, b, c, start, tol, max_iter):
    """Minimise c.v subject to a.v = b (b >= 0), v >= 0.

    Slack/surplus columns must already be part of ``a``.  Row i starts on
    ``start[i]``: a unit column of ``a`` or the artificial n + i.  One
    artificial column per artificial row is appended here, and the first
    phase drives those rows out.  Bland's rule (lowest eligible entering
    column; ratio ties broken by the lowest basis variable) guarantees
    termination.  Returns (LPStatus, v).
    """
    m, n = a.shape
    width = n + m + 1
    t = np.zeros((m + 1, width))
    basis = np.empty(m, np.int64)
    for i in range(m):
        for j in range(n):
            t[i, j] = a[i, j]
        basis[i] = start[i]
        if basis[i] >= n:
            t[i, n + i] = 1.0
        t[i, width - 1] = b[i]
    # phase-1 objective (sum of artificials) in reduced form
    for i in range(m):
        if basis[i] >= n:
            t[m, :] -= t[i, :]

    iters = 0
    for phase in range(2):
        if phase == 1:
            if -t[m, width - 1] > _kernels._FEAS_TOL:
                return LPStatus.INFEASIBLE, np.zeros(n)
            # drive leftover artificials out of the basis; zero redundant rows
            for r in range(m):
                if basis[r] >= n:
                    found = -1
                    for j in range(n):
                        if t[r, j] > tol or t[r, j] < -tol:
                            found = j
                            break
                    if found >= 0:
                        piv = t[r, found]
                        t[r, :] /= piv
                        for i in range(m + 1):
                            if i != r:
                                f = t[i, found]
                                if f != 0.0:
                                    t[i, :] -= f * t[r, :]
                        for i in range(m + 1):
                            t[i, found] = 0.0
                        t[r, found] = 1.0
                        basis[r] = found
                    else:
                        t[r, :] = 0.0
            # rebuild the objective row from the real costs
            t[m, :] = 0.0
            for j in range(n):
                t[m, j] = c[j]
            for r in range(m):
                jb = basis[r]
                if jb < n and c[jb] != 0.0:
                    t[m, :] -= c[jb] * t[r, :]

        while True:
            if iters >= max_iter:
                return LPStatus.ITERATION_LIMIT, np.zeros(n)
            enter = -1
            for j in range(n):  # artificial columns never re-enter
                if t[m, j] < -tol:
                    enter = j
                    break
            if enter < 0:
                break
            leave = -1
            best_ratio = 0.0
            best_var = -1
            for i in range(m):
                coef = t[i, enter]
                if coef > tol:
                    ratio = t[i, width - 1] / coef
                    if leave < 0 or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < best_var
                    ):
                        leave = i
                        best_ratio = ratio
                        best_var = basis[i]
            if leave < 0:
                return LPStatus.UNBOUNDED, np.zeros(n)
            piv = t[leave, enter]
            t[leave, :] /= piv
            for i in range(m + 1):
                if i != leave:
                    f = t[i, enter]
                    if f != 0.0:
                        t[i, :] -= f * t[leave, :]
            # write the unit column exactly so basic reduced costs stay 0
            for i in range(m + 1):
                t[i, enter] = 0.0
            t[leave, enter] = 1.0
            basis[leave] = enter
            iters += 1

    v = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            v[basis[r]] = t[r, width - 1]
    return LPStatus.OPTIMAL, v
