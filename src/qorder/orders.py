"""Finite relations, permutation group actions, and quotient orders.

The ground set is always an explicit index set ``0..size-1``.  A relation is
stored as packed 64-bit rows, one bit per pair, which the algorithms that need
a dense boolean table unpack; a group action is an explicit array of
permutations that must contain the identity and be closed under composition.
The quotient machinery builds the universal ("strong") and existential ("weak")
relations on the orbit space and checks the axioms that decide when those are
genuine orders.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# largest ground set read from JSON; order check at this size peaked near 1 GB resident
MAX_GROUND_SIZE = 8192


class Comparison(enum.Enum):
    """Four-way outcome of comparing two elements of a partial order."""

    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"

    def __str__(self) -> str:
        return self.value


def check_tolerance(tol: float, name: str) -> None:
    """Refuse a tolerance ``name`` that is not finite and nonnegative.

    A negative or NaN tolerance would break reflexivity; an infinite one
    would relate everything.  The message names each rule ``tol`` breaks.
    """
    if not 0 <= tol < math.inf:
        broken = [rule for rule, ok in (("finite", math.isfinite(tol)), ("nonnegative", tol >= 0))
                  if not ok]
        raise ValueError("; ".join(f"{name} must be {rule}, got {tol}" for rule in broken))


def componentwise_verdict(
    u: np.ndarray,
    v: np.ndarray,
    images: Callable[[], tuple[np.ndarray, np.ndarray]],
    tol: float,
) -> Comparison:
    """Compare ``u`` and ``v`` by the component-wise order on their images,
    the pair that ``images()`` returns, within ``tol``.

    EQUAL is decided first, on the raw vectors: every component within
    ``tol``; only otherwise are the images asked for.  Then both image
    directions holding within tolerance is EQUAL too.  ``tol`` must pass
    :func:`check_tolerance`.
    """
    check_tolerance(tol, "tol")
    if (np.abs(u - v) <= tol).all():
        return Comparison.EQUAL
    u, v = images()
    le = bool((u <= v + tol).all())
    ge = bool((v <= u + tol).all())
    if le and ge:
        return Comparison.EQUAL
    if le:
        return Comparison.LESS
    if ge:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


# word of a relation's packed rows: bit j of a row is column j, little-endian on any host
_WORD = np.dtype("<u8")


@dataclass(frozen=True, eq=False, init=False)
class FiniteRelation:
    """A boolean relation over ``0..size-1``; i precedes j when bit j of row i is set.

    ``rows`` is the only storage: a read-only (size, ceil(size / 64))
    ``'<u8'`` array, bit j of row i at word j >> 6, bit j & 63, with no bit
    set from column ``size`` on.  ``FiniteRelation(size, table)`` packs a
    (size, size) table; :meth:`from_rows` takes packed rows.  ``holds`` is the
    table, unpacked afresh on each access.  No axioms are assumed at
    construction: use :func:`relation_axioms` to find out what the relation
    actually satisfies.
    """

    size: int
    rows: np.ndarray

    def __init__(self, size: int, table) -> None:
        table = np.asarray(table, dtype=bool)
        if table.shape != (size, size):
            raise ValueError(f"relation table has shape {table.shape}, expected {(size, size)}")
        rows = np.zeros((size, -(-size // 64) * 8), np.uint8)
        rows[:, :-(-size // 8)] = np.packbits(table, axis=1, bitorder="little")
        rows = rows.view(_WORD)
        rows.setflags(write=False)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, size: int, rows) -> "FiniteRelation":
        """The relation whose packed rows are ``rows``.  A ``'<u8'`` ndarray
        that no array in its base chain lets anyone write is adopted as it is;
        anything else is copied into a read-only array."""
        if not (isinstance(rows, np.ndarray) and rows.dtype == _WORD and _frozen(rows)):
            rows = np.array(rows, dtype=_WORD)
            rows.setflags(write=False)
        if rows.shape != (size, -(-size // 64)):
            raise ValueError(f"relation rows have shape {rows.shape}, expected {(size, -(-size // 64))}")
        if size % 64 and (rows[:, -1] >> np.uint64(size % 64)).any():
            raise ValueError(f"relation rows set bits past column {size - 1}")
        rel = object.__new__(cls)
        object.__setattr__(rel, "size", size)
        object.__setattr__(rel, "rows", rows)
        return rel

    @property
    def holds(self) -> np.ndarray:
        """The read-only (size, size) ``bool`` table; ``holds[i, j]`` means i precedes j."""
        words = np.ascontiguousarray(self.rows).view(np.uint8)
        table = np.unpackbits(words, axis=1, count=self.size, bitorder="little").view(bool)
        table.setflags(write=False)
        return table

    @classmethod
    def from_pairs(cls, size: int, pairs: Iterable[tuple[int, int]]) -> "FiniteRelation":
        table = np.zeros((size, size), dtype=bool)
        for i, j in pairs:
            if not (0 <= i < size and 0 <= j < size):
                raise ValueError(f"pair ({i}, {j}) out of range for size {size}")
            table[i, j] = True
        return cls(size, table)

    def pairs(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in np.argwhere(self.holds)]


def _frozen(array: np.ndarray) -> bool:
    """True when neither ``array`` nor any array it views is writeable."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None


@dataclass(frozen=True)
class RelationAxioms:
    reflexive: bool
    antisymmetric: bool
    transitive: bool

    @property
    def partial_order(self) -> bool:
        return self.reflexive and self.antisymmetric and self.transitive

    @property
    def preorder(self) -> bool:
        return self.reflexive and self.transitive


@dataclass(frozen=True)
class ActionProperties:
    increasing: bool
    transverse: bool


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A finite permutation group acting on ``0..size-1``.

    Construction fails unless the permutation list contains the identity and
    is closed under composition, which makes a finite set a group.  ``perms``
    becomes the read-only (G, size) intp array of the distinct permutations,
    rows in ascending order.  The closure check finds a generating set on the
    way, kept as ``_generators``.
    """

    size: int
    perms: np.ndarray
    _generators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        listed = np.unique(_permutation_array(self.size, self.perms), axis=0)
        allowed = set(map(bytes, listed))
        generated = {bytes(np.arange(self.size, dtype=listed.dtype))}
        if not generated <= allowed:
            raise ValueError("action must contain the identity permutation")
        # every listed permutation not generated yet becomes a generator; the
        # subgroup at least doubles each time, so there are log|G| re-closures
        gens: list[int] = []
        for i, perm in enumerate(listed):
            if bytes(perm) not in generated:
                gens.append(i)
                generated = _closure(listed[gens], allowed)
        listed.setflags(write=False)
        object.__setattr__(self, "perms", listed)
        object.__setattr__(self, "_generators", listed[gens])

    def __len__(self) -> int:
        return len(self.perms)


def _integers(values, rule: str) -> np.ndarray:
    """``values`` as an intp array: integers below 2**63 in magnitude, and
    integral floats such as 1.0.  Anything else, strings and booleans
    included, raises ValueError: ``rule below 2**63 in magnitude, got N`` or
    ``rule, got ...``."""
    try:
        array = np.asarray(values)
    except ValueError:  # rows of different lengths
        raise ValueError(f"{rule}, got rows of different lengths") from None
    kind = array.dtype.kind
    if kind in "fuO":  # what numpy makes of lists with an integer past int64
        for x in np.asarray(values, dtype=object).ravel().tolist():
            if isinstance(x, numbers.Integral) and not -(2**63) <= x < 2**63:
                raise ValueError(f"{rule} below 2**63 in magnitude, got {x}")
    if kind in "fi" and array.ndim and not isinstance(values, np.ndarray):
        # numpy reads a list that mixes booleans with numbers as numbers
        items = values
        for _ in range(array.ndim - 1):
            items = itertools.chain.from_iterable(items)
        if not {bool, np.bool_}.isdisjoint(map(type, items)):
            kind = "b"
    if kind == "f":
        whole = (np.trunc(array) == array) & (np.abs(array) < 2.0**63)
        if not whole.all():
            raise ValueError(f"{rule}, got {array[~whole][0]}")
    elif kind not in "iu":
        if array.ndim == 0:
            raise ValueError(f"{rule}, got {values!r}")
        got = {"U": "strings", "S": "strings", "b": "booleans"}.get(kind, f"{array.dtype} values")
        raise ValueError(f"{rule}, got {got}")
    return array.astype(np.intp, copy=False)


def _integer(value, rule: str) -> int:
    """One integer, by the rule of :func:`_integers`."""
    array = _integers(value, rule)
    if array.ndim:
        raise ValueError(f"{rule}, got an array of shape {array.shape}")
    return int(array)


def _permutation_array(size: int, perms: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The (m, size) intp array of ``perms``; ValueError unless each row permutes 0..size-1."""
    array = _integers(perms, "permutation entries: expected integers")
    if array.shape == (0,):  # no rows at all
        array = array.reshape(0, size)
    if array.ndim != 2 or array.shape[1] != size:
        raise ValueError(f"each permutation must have {size} entries, got shape {array.shape}")
    wrong = (np.sort(array, axis=1) != np.arange(size)).any(axis=1)
    if wrong.any():
        row = tuple(array[wrong.argmax()].tolist())
        raise ValueError(f"{row} is not a permutation of 0..{size - 1}")
    return array


def _closure(gens: np.ndarray, allowed: set[bytes]) -> set[bytes]:
    """The group generated by the rows of the (k, size) array ``gens``, as row keys.

    Breadth first from the identity: each level composes every generator
    after each element found by the level before.  A composite whose key is
    not in ``allowed`` raises.
    """
    size = gens.shape[1]
    frontier = np.arange(size, dtype=gens.dtype)[None, :]
    seen = {bytes(frontier[0])}
    while len(frontier):
        # products[j * F + f] = gens[j] o frontier[f]
        products = gens[:, frontier].reshape(len(gens) * len(frontier), size)
        fresh = []
        for r, key in enumerate(map(bytes, products)):
            if key in seen:
                continue
            if key not in allowed:
                p, q = gens[r // len(frontier)].tolist(), frontier[r % len(frontier)].tolist()
                raise ValueError(f"action is not closed under composition: {tuple(p)} o {tuple(q)}")
            seen.add(key)
            fresh.append(r)
        frontier = products[fresh]
    return seen


@dataclass(frozen=True, eq=False)
class QuotientStructure:
    """Orbit partition of the ground set, optionally with a relation on orbits."""

    class_index: tuple[int, ...]
    orbits: tuple[tuple[int, ...], ...]
    relation: FiniteRelation | None = None


def orbits(action: GroupAction) -> QuotientStructure:
    """Partition the ground set into orbits of the action, numbered by least member."""
    # column x of the (G, size) permutation array lists the orbit of x
    _, class_index = np.unique(action.perms.min(axis=0), return_inverse=True)
    members = np.argsort(class_index, kind="stable")
    ends = np.cumsum(np.bincount(class_index)).tolist()
    orbit_list = tuple(tuple(members[lo:hi].tolist()) for lo, hi in zip([0] + ends, ends))
    return QuotientStructure(tuple(class_index.tolist()), orbit_list)


def induced_relations(
    rel: FiniteRelation, action: GroupAction
) -> tuple[QuotientStructure, QuotientStructure]:
    """The (strong, weak) relations on the orbit space, quantified over representatives.

    Strong relates orbits A, B when every a in A precedes some b in B; weak
    when some a in A precedes some b in B.  Both come from the same float32
    products with the orbit indicator, exact as in :func:`_two_step`.
    """
    if rel.size != action.size:
        raise ValueError(f"size mismatch: relation {rel.size}, action {action.size}")
    quotient = orbits(action)
    k = len(quotient.orbits)
    indicator = np.zeros((rel.size, k), dtype=np.float32)
    indicator[np.arange(rel.size), quotient.class_index] = 1
    # reach[a, B]: a precedes some b in orbit B
    reach = (rel.holds.astype(np.float32) @ indicator) > 0
    # hits[A, B]: how many a in A precede some b in B; strong when that is
    # every a in A, weak when it is at least one
    hits = indicator.T @ reach.astype(np.float32)
    sizes = np.bincount(quotient.class_index, minlength=k)
    strong, weak = (
        QuotientStructure(quotient.class_index, quotient.orbits, FiniteRelation(k, table))
        for table in (hits == sizes[:, None], hits > 0)
    )
    return strong, weak


def action_properties(rel: FiniteRelation, action: GroupAction) -> ActionProperties:
    """Whether the action preserves the relation, and whether Ta <= a forces Ta = a."""
    if rel.size != action.size:
        raise ValueError(f"size mismatch: relation {rel.size}, action {action.size}")
    holds, perms = rel.holds, action.perms
    elements = np.arange(rel.size)
    # holds[np.ix_(p, p)][a, b] == holds[Ta, Tb]; a relation that every
    # generator preserves is preserved by each composite, so the whole group
    increasing = all(not (holds & ~holds[np.ix_(p, p)]).any() for p in action._generators)
    transverse = not bool((holds[perms, elements] & (perms != elements)).any())
    return ActionProperties(increasing, transverse)


def _two_step(table: np.ndarray) -> np.ndarray:
    """Pairs (i, j) joined through some k: a BLAS float32 product, exact
    because a sum of non-negative terms is positive exactly when one is."""
    weights = table.astype(np.float32)
    return (weights @ weights) > 0


def relation_axioms(rel: FiniteRelation) -> RelationAxioms:
    holds = rel.holds
    n = rel.size
    eye = np.eye(n, dtype=bool)
    reflexive = bool(holds[eye].all()) if n else True
    antisymmetric = not bool((holds & holds.T & ~eye).any())
    two_step = _two_step(holds)
    transitive = not bool((two_step & ~holds).any())
    return RelationAxioms(reflexive, antisymmetric, transitive)


# rows of one block of the word scans below: about this many bytes of words
_SCAN_BLOCK_BYTES = 1 << 17


def _strict_blocks(rel: FiniteRelation):
    """(first row, block) over the rows of ``rel`` with their diagonal bits
    cleared, copied a block of about ``_SCAN_BLOCK_BYTES`` at a time."""
    step = max(1, _SCAN_BLOCK_BYTES // (8 * max(1, rel.rows.shape[1])))
    for lo in range(0, rel.size, step):
        block = rel.rows[lo:lo + step].copy()
        i = np.arange(lo, lo + len(block))
        block[i - lo, i >> 6] &= ~(np.uint64(1) << (i & 63).astype(np.uint64))
        yield lo, block


def minimal_elements(rel: FiniteRelation) -> set[int]:
    """Elements with no distinct predecessor: the bits left clear by the OR
    of every row, diagonal bits cleared, in size * ceil(size / 64) word
    operations.  The caller is responsible for ``rel`` being a partial order."""
    below = np.zeros(rel.rows.shape[1], _WORD)
    for _, block in _strict_blocks(rel):
        below |= np.bitwise_or.reduce(block, axis=0)
    bits = np.unpackbits(below.view(np.uint8), count=rel.size, bitorder="little")
    return set(np.flatnonzero(bits == 0).tolist())


def maximal_elements(rel: FiniteRelation) -> set[int]:
    """Elements with no distinct successor, the rows with no bit set off the
    diagonal, under the same contract and in the same word operations."""
    bounded = np.empty(rel.size, dtype=bool)
    for lo, block in _strict_blocks(rel):
        bounded[lo:lo + len(block)] = block.any(axis=1)
    return set(np.flatnonzero(~bounded).tolist())


def transitive_reduction(rel: FiniteRelation) -> FiniteRelation:
    """Cover relation of a partial order: reflexive pairs and implied edges dropped."""
    axioms = relation_axioms(rel)
    if not axioms.partial_order:
        raise ValueError("transitive reduction requires a partial order")
    strict = rel.holds & ~np.eye(rel.size, dtype=bool)
    two_step = _two_step(strict)
    return FiniteRelation(rel.size, strict & ~two_step)


def submajorize_compare(
    a: Sequence[float], b: Sequence[float], tol: float = 1e-9
) -> Comparison:
    """Compare two real multisets by descending prefix sums.

    Sort each multiset in descending order and form running sums; ``a`` is
    below ``b`` when its running sums are component-wise below, within an
    absolute tolerance.  EQUAL means the sorted multisets coincide.
    """
    left = np.sort(np.asarray(a, dtype=float))[::-1]
    right = np.sort(np.asarray(b, dtype=float))[::-1]
    if left.shape != right.shape:
        raise ValueError(f"size mismatch: {left.size} vs {right.size}")
    if left.size == 0:
        raise ValueError("multisets must be nonempty")
    return componentwise_verdict(left, right, lambda: (np.cumsum(left), np.cumsum(right)), tol)


# JSON wire formats ---------------------------------------------------------


def _ground_size(data: dict, kind: str) -> int:
    """The checked ``size`` of a relation or action JSON object."""
    try:
        size = _integer(data["size"], "size: expected integers")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} JSON: {exc}") from exc
    if not 0 <= size <= MAX_GROUND_SIZE:
        raise ValueError(f"size must be between 0 and {MAX_GROUND_SIZE}, got {size}")
    return size


def relation_from_json(data: dict) -> FiniteRelation:
    size = _ground_size(data, "relation")
    try:  # unpacked here, so that a row that is not a pair reads as malformed
        pairs = [(i, j) for i, j in _integers(data["pairs"], "pair entries: expected integers").tolist()]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed relation JSON: {exc}") from exc
    return FiniteRelation.from_pairs(size, pairs)


def action_from_json(data: dict) -> GroupAction:
    size = _ground_size(data, "action")
    try:
        perms = data["perms"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed action JSON: {exc}") from exc
    return GroupAction(size, perms)
