"""Pitch class sets in N-tone equal temperament and their transposition classes.

Sets live in Z_N as bitmasks.  A set class is a transposition orbit, and a
:class:`SetClass` is the orbit's canonical representative: the set whose
ascending members are lexicographically least among the N transpositions, so
nonempty classes always start at 0.  It is read off the least cyclic rotation
of the set's step sequence, and every class is that one object, built once.
The subset order on classes ("some transposition embeds") is realised as a
relation of packed 64-bit rows so the generic order utilities apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from operator import add, attrgetter, sub
from typing import Sequence

import numpy as np

from . import _kernels
from .orders import FiniteRelation, _integer, _integers, minimal_elements

MAX_EDO = 24
# largest family whose subset order is built: a 128 MiB table of packed rows
MAX_ORDER_CLASSES = 32768


def _checked_edo(edo) -> int:
    """``edo`` as an int of at least 1: integers, and integral floats such as 12.0."""
    value = _integer(edo, "edo must be an integer")
    if value < 1:
        raise ValueError("edo must be at least 1")
    return value


def _supported_edo(edo) -> int:
    """``edo`` as an int in 1..``MAX_EDO``, the edos whose classes are enumerated."""
    value = _checked_edo(edo)
    if value > MAX_EDO:
        raise ValueError(f"edo {value} outside supported range 1..{MAX_EDO}")
    return value


@dataclass(frozen=True, slots=True)
class PitchClassSet:
    """A subset of Z_N; ``members`` is the sorted residue tuple."""

    edo: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        edo = _checked_edo(self.edo)
        members = _integers(tuple(self.members), "pitch classes must be integers")
        if members.ndim != 1:
            raise ValueError(f"pitch classes must be a flat sequence, got shape {members.shape}")
        members = tuple(sorted(members.tolist()))
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate pitch classes in {members}")
        if members and (members[0] < 0 or members[-1] >= edo):
            x = next(x for x in members if not 0 <= x < edo)
            raise ValueError(f"pitch class {x} out of range for edo {edo}")
        object.__setattr__(self, "edo", edo)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_mask(cls, edo: int, mask: int) -> "PitchClassSet":
        """The set of bit positions below ``edo`` that are set in ``mask``."""
        edo = _checked_edo(edo)
        mask &= (1 << edo) - 1
        return cls(edo, tuple(x for x in range(mask.bit_length()) if mask >> x & 1))

    @property
    def mask(self) -> int:
        out = 0
        for x in self.members:
            out |= 1 << x
        return out

    @property
    def cardinality(self) -> int:
        return len(self.members)

    def transpose(self, t: int) -> "PitchClassSet":
        return PitchClassSet(self.edo, tuple((x + t) % self.edo for x in self.members))

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.members) + "}"


@dataclass(frozen=True, slots=True)
class SetClass(PitchClassSet):
    """A transposition orbit, stored as its canonical representative: any
    member of the orbit given to the constructor (or to ``from_mask``) is
    replaced by that representative.  A class never equals a plain set."""

    def __post_init__(self) -> None:
        # zero-argument super() fails in a slots=True dataclass, which is a new class
        PitchClassSet.__post_init__(self)
        object.__setattr__(self, "members", canonical_form(self).members)


def _derived(kind: type, edo: int, members: tuple[int, ...]):
    """A set or a class of type ``kind``, built without the constructors' checks.

    Only for values valid by construction: ``members`` sorted, distinct ints
    below ``edo``, an int that the constructors have already accepted, and for
    a class the canonical members.
    """
    out = object.__new__(kind)
    object.__setattr__(out, "edo", edo)
    object.__setattr__(out, "members", members)
    return out


def canonical_form(pcs: PitchClassSet) -> SetClass:
    """Set class of ``pcs``: equal outputs exactly for transpositionally related inputs.

    The least transposition starts at 0, so it carries some member to 0, and
    its members are the prefix sums of the cyclic steps read from that member.
    Those prefix sums order as the step sequences do, so the representative
    accumulates the least rotation of the steps, which begins with a least step.
    """
    members, edo = pcs.members, pcs.edo
    if members:
        steps = span_profile(pcs).seconds
        low, k, twice = min(steps), len(steps), steps + steps
        least = min([twice[i : i + k] for i, s in enumerate(steps) if s == low])
        members = (0, *accumulate(least[:-1]))
    return _derived(SetClass, edo, members)


def burnside_count(edo: int) -> int:
    """Number of transposition orbits of subsets of Z_N, by orbit counting.

    Independent of the enumerator: (1/N) * sum over divisors d of
    phi(d) * 2^(N/d).
    """
    edo = _checked_edo(edo)
    total = 0
    for d in range(1, edo + 1):
        if edo % d == 0:
            phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
            total += phi * (2 ** (edo // d))
    return total // edo


def count_set_classes(edo: int) -> int:
    """Number of set classes of Z_N, empty class included, for a supported
    edo: the number of orbit-minimum masks, with no class built."""
    return _kernels.canonical_masks(_supported_edo(edo)).size


def _step_bounded(edo, max_second) -> tuple[int, int]:
    """``edo`` and ``max_second`` as ints, the edo checked first: a supported
    edo, and a step bound in 1..edo."""
    edo = _supported_edo(edo)
    max_second = _integer(max_second, "max_second must be an integer")
    if not 1 <= max_second <= edo:
        raise ValueError(f"max_second {max_second} outside 1..{edo}")
    return edo, max_second


def enumerate_set_classes(edo: int, max_second: int | None = None, *,
                          _for_order: bool = False) -> list[SetClass]:
    """Set classes of Z_N sorted by representative: all of them, empty class
    included, or with ``max_second`` the nonempty classes whose every
    adjacent step spans at most ``max_second``.

    The step bound is transposition-invariant, so it is decided on each
    orbit's least mask, and only the classes that meet it are built.
    ``_for_order`` first refuses a family too large for ``subset_order``.
    """
    # classes below are built without checks, so with a plain int edo
    if max_second is None:
        edo = _supported_edo(edo)
    else:
        edo, max_second = _step_bounded(edo, max_second)
    orbit_masks = _kernels.canonical_masks(edo)
    if max_second is not None:
        # every step spans at most S exactly when every run of S pitch classes
        # holds a member: the OR of the rotations right by t < S is full
        full, runs = (1 << edo) - 1, orbit_masks.copy()
        for t in range(1, max_second):
            runs |= (orbit_masks >> t) | (orbit_masks << (edo - t))
        orbit_masks = orbit_masks[(runs & full) == full]
    if _for_order:
        _check_order_size(orbit_masks.size)
    # the members of every orbit minimum from one (K, width) bit matrix, read
    # row by row as bytes: each byte is a member, ascending within a row
    dtype = np.min_scalar_type((1 << edo) - 1).newbyteorder("<")
    bits = np.unpackbits(orbit_masks.astype(dtype).view(np.uint8), bitorder="little")
    bits = bits.reshape(orbit_masks.size, -1).view(bool)
    positions = np.arange(bits.shape[1], dtype=np.uint8)
    members = np.broadcast_to(positions, bits.shape)[bits].tobytes()
    ends = np.cumsum(bits.sum(axis=1)).tolist()
    classes = [canonical_form(_derived(PitchClassSet, edo, tuple(members[lo:hi])))
               for lo, hi in zip([0, *ends], ends)]
    classes.sort(key=attrgetter("members"))
    return classes


def _check_order_size(count: int) -> None:
    """Raise ValueError for a family of more than ``MAX_ORDER_CLASSES`` classes."""
    if count > MAX_ORDER_CLASSES:
        raise ValueError(
            f"family of {count} classes exceeds the subset order's limit of "
            f"{MAX_ORDER_CLASSES} (its table would take {count * -(-count // 64) * 8} bytes)"
        )


def subset_order(classes: Sequence[SetClass]) -> FiniteRelation:
    """Subset order, as packed rows, over a family of classes of one edo that
    is closed under adding a member, as bounded-step families are; else, or
    past ``MAX_ORDER_CLASSES`` classes, raises ValueError before allocating.
    K classes of edo n cost K * n * K / 64 words of work and, beside the
    K * K / 8 bytes of rows, two cardinalities' rows and memory in K * n.
    """
    if not classes:
        return FiniteRelation(0, np.zeros((0, 0), dtype=bool))
    _check_order_size(len(classes))
    edo = classes[0].edo
    for c in classes:
        if c.edo != edo:
            raise ValueError("all classes must share an edo")
    # OR each class's member bits; a 0 past the last keeps a trailing empty class in range
    members = [c.members for c in classes]
    sizes = np.fromiter(map(len, members), np.int64, len(members))
    bits = np.left_shift(1, np.frombuffer(b"".join(map(bytes, members)), np.uint8), dtype=np.int64)
    ored = np.bitwise_or.reduceat(np.append(bits, 0), np.cumsum(sizes) - sizes)
    masks = np.where(sizes > 0, ored, 0)  # an empty class's segment is not its own
    rows = _kernels.subset_leq_matrix(masks, edo)
    rows.setflags(write=False)  # so the relation adopts it without a copy
    return FiniteRelation.from_rows(len(classes), rows)


@dataclass(frozen=True, slots=True)
class SpanProfile:
    """Cyclic step spans of a nonempty set; each next-but-one span sums two adjacent."""

    seconds: tuple[int, ...]

    @property
    def thirds(self) -> tuple[int, ...]:
        seconds = self.seconds
        return tuple(map(add, seconds, seconds[1:] + seconds[:1]))

    @property
    def min_third(self) -> int:
        return min(self.thirds)


def span_profile(pcs: PitchClassSet) -> SpanProfile:
    """Cyclic step spans of a set, walking the full octave once.

    For a single pitch class the lone step wraps the whole octave.  A
    :class:`SetClass` is its canonical representative, so that is where its
    profile is taken; other representatives give a cyclic rotation of it.
    """
    if not pcs.members:
        raise ValueError("span profile of the empty set is undefined")
    return SpanProfile(tuple(map(sub, pcs.members[1:] + (pcs.members[0] + pcs.edo,), pcs.members)))


def span_limited_classes(edo: int, max_second: int, *, _for_order: bool = False) -> list[SetClass]:
    """Nonempty classes whose every adjacent step spans at most ``max_second``."""
    return enumerate_set_classes(*_step_bounded(edo, max_second), _for_order=_for_order)


def _family_minimal(edo: int, max_second: int) -> tuple[list[SetClass], set[int]]:
    """The bounded-step family and the indices of its minimal classes, found
    through the generic order machinery (packed relation + minimal element
    scan), not through any structural shortcut."""
    family = span_limited_classes(edo, max_second, _for_order=True)
    return family, minimal_elements(subset_order(family))


def span_limited_minimal(edo: int, max_second: int) -> list[SetClass]:
    """Minimal classes of the subset order restricted to the bounded-step family."""
    family, minimal = _family_minimal(edo, max_second)
    return [family[i] for i in sorted(minimal)]


def thirds_criterion_holds(edo: int, max_second: int) -> bool:
    """Check that the minimal bounded-step classes are exactly those whose
    two-step spans all exceed the step bound."""
    family, minimal = _family_minimal(edo, max_second)
    for i, cls in enumerate(family):
        predicted = span_profile(cls).min_third >= max_second + 1
        if predicted != (i in minimal):
            return False
    return True


# JSON wire format ------------------------------------------------------------


def class_to_json(cls: SetClass) -> dict:
    return {"edo": cls.edo, "members": list(cls.members)}


def class_from_json(data: dict) -> SetClass:
    try:
        return SetClass(data["edo"], tuple(data["members"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed set class JSON: {exc}") from exc
