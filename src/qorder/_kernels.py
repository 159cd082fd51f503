"""Hot numeric kernels in numpy.

``canonical_masks`` and ``subset_leq_matrix`` are the bitmask kernels behind
set-class enumeration and the class subset order, both built on one rotation
minimum, the first deciding the orbit set by returning each orbit's least
mask; ``simplex_solve`` is the pivot loop behind every LP, started from a
basis its caller gives, so that rows whose slack is already feasible skip
phase 1, and reports its outcome as an ``LPStatus``.  The tests check them
against the oracles in ``tests/reference_setclass.py`` and
``tests/reference_simplex.py``.
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
# largest temporary of one block of the subset order's level pass
_ORDER_BLOCK_BYTES = 1 << 17
# masks whose least rotations are taken at once: the orbit kernel's
# three scratch arrays are each this long at most
_ORBIT_BLOCK = 1 << 18


# ---------------------------------------------------------------------------
# transposition orbits of bitmask pitch class sets
# ---------------------------------------------------------------------------


def _least_rotation(masks, n):
    """Minimum over the n cyclic bit-rotations of each n-bit mask, in place:
    each rotation by one more bit is made in place in one scratch array, with
    its wrapped bits in a second, so memory is three arrays like ``masks``."""
    full, one, wrap = map(masks.dtype.type, ((1 << n) - 1, 1, max(n - 1, 0)))
    rot, high = masks.copy(), np.empty_like(masks)
    for _ in range(1, n):
        np.right_shift(rot, wrap, out=high)
        rot <<= one
        rot |= high
        rot &= full
        np.minimum(masks, rot, out=masks)
    return masks


def canonical_masks(n):
    """Least mask of every transposition orbit of n-bit masks, ascending, in the
    narrowest dtype for n bits: the masks < 2**n equal to their own least
    rotation, taken ``_ORBIT_BLOCK`` masks at a time."""
    dtype = np.min_scalar_type((1 << n) - 1)
    found = []
    for lo in range(0, 1 << n, _ORBIT_BLOCK):
        hi = min(lo + _ORBIT_BLOCK, 1 << n)
        least = _least_rotation(np.arange(lo, hi, dtype=dtype), n)
        found.append(least[least == np.arange(lo, hi, dtype=dtype)])
        del least  # else it is a fourth block beside the next block's three
    return np.concatenate(found)


def _orbit_keys(masks, n):
    """Keys size * 2**n + least rotation, in the narrowest signed dtype, of each
    mask's orbit, and in column y of its orbit with bit y added (-1 if set)."""
    bits = np.left_shift(1, np.arange(n), dtype=np.int64).astype(masks.dtype)
    keys = _least_rotation(np.hstack([masks[:, None], masks[:, None] | bits]), n)
    keys = keys.astype(np.min_scalar_type(-((n + 2) << n)))
    size = np.unpackbits(masks.astype("<u4").view(np.uint8)).reshape(-1, 32).sum(axis=1, dtype=keys.dtype)
    keys |= (size[:, None] + (np.arange(n + 1) > 0)) << n
    keys[:, 1:][(masks[:, None] & bits) != 0] = -1
    return keys[:, 0].copy(), keys[:, 1:]


def _orbit_parents(masks, n):
    """(starts, row, links, parent) over the sorted keys of the input orbits,
    size s from ``starts[s]``: each input's orbit, and from ``links[s]`` the
    parents of each orbit of size s, n - s rows of the size above each."""
    row_keys, up_keys = _orbit_keys(masks, n)
    keys, first, row = np.unique(row_keys, return_index=True, return_inverse=True)
    up_keys = up_keys[first]
    grown = up_keys[up_keys >= 0]
    # numpy's binary search runs several times faster on sorted needles
    order = grown.argsort()
    at = np.empty_like(order)
    at[order] = np.searchsorted(keys, grown[order])
    missing = keys.take(at, mode="clip") != grown
    if missing.any():
        i, y = divmod(int(np.flatnonzero(up_keys >= 0)[missing.argmax()]), n)
        named = "{" + ",".join(str(x) for x in range(n) if int(masks[first[i]]) >> x & 1) + "}"
        raise ValueError(f"family not closed under adding a member: {named} plus pitch class {y} leaves it")
    starts = np.searchsorted(keys >> n, np.arange(n + 2))
    links = np.cumsum(np.diff(starts, prepend=0) * np.arange(n + 1, -1, -1))
    at -= starts[grown >> n]
    return starts.tolist(), row, links.tolist(), at.astype(np.min_scalar_type(-keys.size))


def subset_leq_matrix(masks, n):
    """Packed rows of the class subset order: bit j of out[i], at word j >> 6,
    bit j & 63, is set when some rotation of masks[i] is a bit-subset of
    masks[j].  ``out`` is a (K, ceil(K / 64)) ``'<u8'`` array.

    The masks must be closed under adding a member, as a bounded-step family
    is; other lists raise ValueError, naming a mask and a bit that leave
    them.  The inputs above an orbit o, Up(o), are those in o and Up(o + y)
    for each y outside o: o is below o + y, and if a rotation r of o is a
    proper subset of masks[j], a bit of masks[j] outside r, rotated back, is
    a y with o + y below masks[j].  So Up is filled as bitsets of
    ceil(K / 64) words over the C <= K input orbits, one size at a time from
    the full mask down, keeping only the size above, and each input's row is
    its orbit's bitset, in C * n * K / 64 words of work and, beside the
    result, K * (n + 1) keys, two sizes' bitsets, C * n parents and
    ``_ORDER_BLOCK_BYTES`` blocks of memory.
    """
    masks = np.asarray(masks).astype(np.min_scalar_type((1 << n) - 1))
    count, words = masks.size, -(-masks.size // 64)
    starts, row, links, parent = _orbit_parents(masks, n)
    by_row = row.argsort()
    bounds = np.searchsorted(row[by_row], starts).tolist()
    out, above = np.empty((count, words), "<u8"), np.zeros((0, words), "<u8")
    for size in range(n, starts.count(0) - 2, -1):  # starts[s] is 0 up to the least size
        lo, hi = starts[size], starts[size + 1]
        parents = parent[links[size]:links[size + 1]].reshape(hi - lo, n - size)
        up = np.empty((hi - lo, words), "<u8")
        step = max(1, _ORDER_BLOCK_BYTES // (8 * words * max(1, n - size)))
        for r in range(0, hi - lo, step):
            np.bitwise_or.reduce(above[parents[r:r + step]], axis=1, out=up[r:r + step])
        j = by_row[bounds[size]:bounds[size + 1]]
        np.bitwise_or.at(up, (row[j] - lo, j >> 6), np.uint64(1) << (j & 63).astype(np.uint64))
        step = max(1, _ORDER_BLOCK_BYTES // (8 * words))
        for r in range(0, j.size, step):
            out[j[r:r + step]] = up[row[j[r:r + step]] - lo]
        above = up
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
