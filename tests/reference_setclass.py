"""Reference forms of the set-class enumeration's fast paths.

The orbit kernel as an int64 loop with a temporary per rotation over all 2**n
masks, whose fixed points are the orbits' least masks; the subset order as
the dense test of every rotation of every pair of masks, and its
precondition as a search upwards from the masks, one added bit at a time;
and the bounded-step family as a filter over every class of Z_N:
canonicalise all classes, then keep those whose every adjacent step is at
most the bound.
"""

import numpy as np

from qorder.setclass import span_profile


def least_rotations(masks, n):
    """Minimum over the n cyclic bit-rotations of each n-bit mask, in int64."""
    masks = np.asarray(masks, dtype=np.int64)
    full = np.int64((1 << n) - 1)
    best = masks.copy()
    for t in range(1, n):
        rot = ((masks << t) | (masks >> (n - t))) & full
        np.minimum(best, rot, out=best)
    return best


def int64_orbit_minima(n):
    """The masks < 2**n equal to their own least rotation, ascending: the least
    mask of each transposition orbit."""
    best = least_rotations(np.arange(1 << n), n)
    return np.flatnonzero(best == np.arange(best.size))


def dense_subset_leq_matrix(masks, n):
    """out[i, j]: some rotation of masks[i] is a bit-subset of masks[j].

    Every rotation of every row is tested against every column, 64 rows at a
    time: a rotation is a subset of masks[j] when it has no bit outside
    masks[j].  Masks are held in the narrowest unsigned dtype.
    """
    block_rows = 64
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
    tmp = np.empty((block_rows, count), dtype)
    for start in range(0, count, block_rows):
        rows = slice(start, start + block_rows)
        block = out[rows]
        buf = tmp[: block.shape[0]]
        for t in range(n):
            np.bitwise_and(rots[t, rows, None], outside, out=buf)
            block |= buf == 0
    return out


def up_closure(masks, n):
    """``masks`` followed by the least mask of each orbit above them that no
    mask of ``masks`` is in, ascending: as long as ``masks`` exactly when
    ``masks`` is closed under adding a member.

    Breadth first: each level adds every bit to every orbit the level before
    found, and keeps the least rotations not seen yet.
    """
    seen = set(least_rotations(masks, n).tolist())
    level, added = sorted(seen), []
    while level:
        above = np.array(level, dtype=np.int64)[:, None] | (1 << np.arange(n, dtype=np.int64))
        level = sorted(set(least_rotations(above.ravel(), n).tolist()) - seen)
        seen.update(level)
        added += level
    return [*masks, *sorted(added)]


def filtered_family(classes, edo, max_second):
    """The classes among ``classes`` (every class of Z_edo) whose every step
    spans at most ``max_second``, in the order given."""
    out = []
    for cls in classes:
        # k steps of at most max_second reach round the octave only if k * max_second >= edo
        if cls.cardinality * max_second < edo:
            continue
        if max(span_profile(cls).seconds) <= max_second:
            out.append(cls)
    return out
