"""Hot numeric kernels in numpy.

``canonical_masks`` and ``subset_leq_matrix`` are the bitmask kernels behind
set-class enumeration and the class subset order; ``simplex_solve`` is the
pivot loop behind every LP, started from a basis its caller gives, so that
rows whose slack is already feasible skip phase 1.  The tests check the
simplex against a scalar loop form of the same pivot sequence
(``tests/reference_simplex.py``).

``simplex_solve`` reports its outcome as an ``LPStatus``.
"""

import enum

import numpy as np


class LPStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


_FEAS_TOL = 1e-7
# largest row block one pivot updates at once; the update's two temporaries
# are each this size at most
_PIVOT_BLOCK_BYTES = 1 << 20

# rows of the subset relation filled per block; 64 beat 256 and 1024 at
# K = 3244 to 10724
_BLOCK_ROWS = 64


# ---------------------------------------------------------------------------
# transposition orbits of bitmask pitch class sets
# ---------------------------------------------------------------------------


def canonical_masks(n):
    """Minimum over the n cyclic bit-rotations, for every mask < 2**n.

    Masks are held in the narrowest unsigned dtype that fits n bits, the
    dtype of the result.  Each rotation by one more bit is made in place in
    one scratch array, with its wrapped bits in a second, so memory is three
    arrays of 2**n masks.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    full, one, wrap = dtype.type((1 << n) - 1), dtype.type(1), dtype.type(max(n - 1, 0))
    best = np.arange(1 << n, dtype=dtype)
    rot = best.copy()
    high = np.empty_like(best)
    for _ in range(1, n):
        np.right_shift(rot, wrap, out=high)
        rot <<= one
        rot |= high
        rot &= full
        np.minimum(best, rot, out=best)
    return best


def subset_leq_matrix(masks, n):
    """out[i, j]: some rotation of masks[i] is a bit-subset of masks[j].

    Masks are held in the narrowest unsigned dtype that fits n bits.  The
    K x K result is filled in blocks of ``_BLOCK_ROWS`` rows: a rotation is a
    subset of masks[j] when it has no bit outside masks[j].  Beyond the result,
    memory is the (n, K) rotations and (_BLOCK_ROWS, K) buffers.
    """
    dtype = np.min_scalar_type((1 << n) - 1)
    full = dtype.type((1 << n) - 1)
    masks = np.asarray(masks).astype(dtype)
    count = masks.shape[0]
    rots = np.empty((n, count), dtype)
    rots[0] = masks
    for t in range(1, n):
        # rotation 0 is the mask itself, so no shift is by the full width n;
        # bits shifted above n are cleared by ``outside``
        rots[t] = (masks << dtype.type(t)) | (masks >> dtype.type(n - t))
    outside = ~masks & full
    out = np.zeros((count, count), dtype=bool)
    tmp = np.empty((_BLOCK_ROWS, count), dtype)
    for start in range(0, count, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        block = out[rows]
        buf = tmp[: block.shape[0]]
        for t in range(n):
            np.bitwise_and(rots[t, rows, None], outside, out=buf)
            block |= buf == 0
    return out


# ---------------------------------------------------------------------------
# dense two-phase primal simplex, Bland's rule
# ---------------------------------------------------------------------------


def _pivot(t, r, col, block_rows):
    """Make column ``col`` the unit vector with its 1 in row ``r``.

    Only rows with a nonzero entry in ``col`` are updated, ``block_rows`` at a
    time so that the update's temporaries stay small beside the tableau; the
    unit column is written exactly so that basic reduced costs stay 0.
    """
    f = t[:, col].copy()
    row = t[r] / f[r]
    t[r] = row
    f[r] = 0.0
    rows = f.nonzero()[0]
    while len(rows) > block_rows:
        block, rows = rows[:block_rows], rows[block_rows:]
        t[block] -= f[block, None] * row
    t[rows] -= f[rows, None] * row
    t[:, col] = 0.0
    t[r, col] = 1.0


def simplex_solve(t, c, basis, tol, max_iter):
    """Minimise c.v subject to a.v = b (b >= 0), v >= 0, in place.

    ``t`` is the (m + 1) x (n + 1) tableau: a in ``t[:m, :n]``, b in
    ``t[:m, n]`` and a zero last row; the solve overwrites it.
    Slack/surplus columns must already be part of ``a``.  ``basis`` gives the
    starting basic variable of each row: a column j < n that is the unit
    vector of that row, such as a slack, or the artificial index n + i for
    row i.  Artificial rows alone make the phase-1 objective, and the first
    phase drives them out.  Artificial columns never enter and no pivot
    decision reads them, so the tableau leaves them out.  Bland's rule
    (lowest eligible entering column; ratio ties broken by the lowest basis
    variable) guarantees termination.  Returns (LPStatus, v).
    """
    m, n = t.shape[0] - 1, t.shape[1] - 1
    block_rows = max(1, _PIVOT_BLOCK_BYTES // t[0].nbytes)
    basis = np.array(basis, dtype=np.intp)
    # phase-1 objective (sum of artificials) in reduced form, subtracted one
    # artificial row at a time in row order; a basic unit column already has
    # reduced cost 0
    for i in (basis >= n).nonzero()[0]:
        t[m] -= t[i]
    body = t[:m]
    rhs = t[:m, n]
    costs = t[m, :n]

    iters = 0
    for phase in range(2):
        if phase == 1:
            if -t[m, n] > _FEAS_TOL:
                return LPStatus.INFEASIBLE, np.zeros(n)
            # drive leftover artificials out of the basis; zero redundant rows
            for r in (basis >= n).nonzero()[0]:
                found = (np.abs(t[r, :n]) > tol).nonzero()[0]
                if len(found):
                    _pivot(t, r, found[0], block_rows)
                    basis[r] = found[0]
                else:
                    t[r] = 0.0
            # rebuild the objective row from the real costs
            t[m] = 0.0
            t[m, :n] = c
            for r in range(m):
                jb = basis[r]
                if jb < n and c[jb] != 0.0:
                    t[m] -= c[jb] * t[r]

        while True:
            if iters >= max_iter:
                return LPStatus.ITERATION_LIMIT, np.zeros(n)
            eligible = (costs < -tol).nonzero()[0]
            if not len(eligible):
                break
            enter = eligible[0]
            col = body[:, enter]
            rows = (col > tol).nonzero()[0]
            if not len(rows):
                return LPStatus.UNBOUNDED, np.zeros(n)
            ratios = rhs[rows] / col[rows]
            ties = rows[ratios == ratios.min()]
            leave = ties[basis[ties].argmin()]
            _pivot(t, leave, enter, block_rows)
            basis[leave] = enter
            iters += 1

    v = np.zeros(n)
    real = basis < n
    v[basis[real]] = rhs[real]
    return LPStatus.OPTIMAL, v
