"""Timbral vectors and the brighter-than dominance order.

A timbre is a probability vector of harmonic power proportions.  One timbre is
brighter than another when it carries at least as much power in the top i
harmonics for every i, which is stochastic dominance of the induced harmonic
distributions.  The order is a lattice; the infimum is recovered from the
component-wise minimum of the two suffix profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .orders import (
    Comparison,
    FiniteRelation,
    check_tolerance,
    componentwise_verdict,
    maximal_elements,
    minimal_elements,
    transitive_reduction,
)

SUM_TOL = 1e-9


def _check_power(arr: np.ndarray) -> None:
    """Refuse ``arr`` unless each row along its last axis is a timbre, and
    clip tiny negative components to zero in place."""
    if bool((arr < -SUM_TOL).any()):
        raise ValueError(f"negative power component in {arr}")
    arr[arr < 0.0] = 0.0
    # written so that a NaN or infinite component, whose sum is NaN or
    # infinite, fails it too
    sums = arr.sum(axis=-1)
    if not bool((np.abs(sums - 1.0) <= SUM_TOL).all()):
        raise ValueError(f"power sums to {sums}, expected 1")


@dataclass(frozen=True, eq=False)
class TimbralVector:
    """Nonnegative power proportions over ``n`` harmonics, summing to one."""

    power: np.ndarray
    name: str | None = None

    def __post_init__(self) -> None:
        arr = np.array(self.power, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("power must be a nonempty 1-d vector")
        _check_power(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "power", arr)

    @property
    def n(self) -> int:
        return int(self.power.size)

    @cached_property
    def profile(self) -> np.ndarray:
        """The read-only suffix profile, computed on first use: entry i-1 is
        the power in the top i harmonics."""
        profile = np.cumsum(self.power[::-1])
        profile.setflags(write=False)
        return profile


def suffix_profile(vector: TimbralVector) -> np.ndarray:
    """Cumulative power from the top: the timbre's own read-only
    :attr:`TimbralVector.profile`."""
    return vector.profile


def brightness_matrix(n: int) -> np.ndarray:
    """The 0/1 matrix whose product with a timbre gives its suffix profile."""
    if n < 1:
        raise ValueError("n must be positive")
    return np.triu(np.ones((n, n)))[::-1].copy()


def _check_same_n(a: TimbralVector, b: TimbralVector) -> None:
    if a.n != b.n:
        raise ValueError(f"harmonic count mismatch: {a.n} vs {b.n} harmonics")


def brightness_compare(
    a: TimbralVector, b: TimbralVector, tol: float = 1e-9
) -> Comparison:
    """LESS when ``b`` is brighter than ``a``: every top-i power sum of ``a``
    is at most that of ``b`` within ``tol``.  Equality is decided first, on
    the raw vectors."""
    _check_same_n(a, b)
    return componentwise_verdict(a.power, b.power, lambda: (a.profile, b.profile), tol)


def h_compare(
    h: np.ndarray, a: TimbralVector, b: TimbralVector, tol: float = 1e-9
) -> Comparison:
    """Verdict from comparing H a and H b component-wise, for a nonnegative
    nonsingular square H.  The brightness order is the special case where H
    takes suffix sums."""
    _check_same_n(a, b)
    matrix = np.asarray(h, dtype=float)
    if matrix.shape != (a.n, a.n):
        raise ValueError(f"H has shape {matrix.shape}, expected {(a.n, a.n)}")
    if bool((matrix < 0).any()):
        raise ValueError("H must be nonnegative")
    if np.linalg.matrix_rank(matrix) < a.n:
        raise ValueError("H must be nonsingular")
    return componentwise_verdict(
        a.power, b.power, lambda: (matrix @ a.power, matrix @ b.power), tol
    )


def infimum(x: TimbralVector, y: TimbralVector) -> TimbralVector:
    """Greatest lower bound in the dominance lattice.

    The result's suffix profile is the component-wise minimum of the two
    input profiles; the minimum of two nondecreasing profiles ending at 1 is
    again such a profile, so the inverse suffix sums form a valid timbre.
    """
    _check_same_n(x, y)
    return TimbralVector(_infimum_power(suffix_profile(x), suffix_profile(y)))


def _infimum_power(profile_x: np.ndarray, profile_y: np.ndarray) -> np.ndarray:
    """Power of the infimum of two timbres, from their suffix profiles, as a
    reversed view."""
    low = np.zeros(profile_x.size + 1)
    np.minimum(profile_x, profile_y, out=low[1:])
    return (low[1:] - low[:-1])[::-1]


def tv_distance(x: TimbralVector, y: TimbralVector) -> float:
    """Total variation distance: half the l1 distance, equivalently the
    largest power discrepancy over any set of harmonics."""
    _check_same_n(x, y)
    return 0.5 * float(np.abs(x.power - y.power).sum())


@dataclass(frozen=True, eq=False)
class BrightnessHasse:
    """Cover relation of a named collection under the brightness order."""

    names: tuple[str, ...]
    cover: FiniteRelation
    maximal: tuple[str, ...]
    minimal: tuple[str, ...]
    near_equal: tuple[tuple[str, str], ...]


def brightness_hasse(
    collection: Sequence[TimbralVector], tol: float = 1e-9
) -> BrightnessHasse:
    """Pairwise-compare a collection and reduce to cover edges.

    Vectors that compare EQUAL within tolerance stay distinct nodes; such
    pairs are reported in ``near_equal`` and contribute no order edge.
    ``tol`` must pass :func:`check_tolerance`, whatever the collection's size.
    """
    check_tolerance(tol, "tol")
    names = []
    for v in collection:
        if v.name is None:
            raise ValueError("every vector in a collection needs a name")
        names.append(v.name)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate names in collection: {sorted(names)}")
    for v in collection:
        _check_same_n(collection[0], v)
    k = len(collection)
    table = np.eye(k, dtype=bool)
    near: list[tuple[str, str]] = []
    for i in range(k):
        for j in range(i + 1, k):
            verdict = brightness_compare(collection[i], collection[j], tol)
            if verdict is Comparison.LESS:
                table[i, j] = True
            elif verdict is Comparison.GREATER:
                table[j, i] = True
            elif verdict is Comparison.EQUAL:
                near.append((names[i], names[j]))
    relation = FiniteRelation(k, table)
    cover = transitive_reduction(relation)
    top = sorted(names[i] for i in maximal_elements(relation))
    bottom = sorted(names[i] for i in minimal_elements(relation))
    return BrightnessHasse(tuple(names), cover, tuple(top), tuple(bottom), tuple(near))
