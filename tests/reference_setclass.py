"""Reference forms of the set-class enumeration's fast paths.

The orbit kernel as an int64 loop with a temporary per rotation, and the
bounded-step family as a filter over every class of Z_N: canonicalise all
classes, then keep those whose every adjacent step is at most the bound.
"""

import numpy as np

from qorder.setclass import span_profile


def int64_canonical_masks(n):
    """Minimum over the n cyclic bit-rotations, for every mask < 2**n, in int64."""
    masks = np.arange(1 << n, dtype=np.int64)
    full = np.int64((1 << n) - 1)
    best = masks.copy()
    for t in range(1, n):
        rot = ((masks << t) | (masks >> (n - t))) & full
        np.minimum(best, rot, out=best)
    return best


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
