"""Shared constructions for the test suite: structured posets, random
instances, and independent brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np

from qorder.orders import FiniteRelation, GroupAction, _permutation_array, _two_step
from qorder.setclass import PitchClassSet


def transitive_closure(rel: FiniteRelation) -> FiniteRelation:
    """Smallest transitive relation containing ``rel``, by repeated squaring
    with the product kernel's :func:`qorder.orders._two_step`."""
    closure = rel.holds.copy()
    while True:
        step = closure | _two_step(closure)
        if bool((step == closure).all()):
            break
        closure = step
    return FiniteRelation(rel.size, closure)


def reflexive_closure(rel: FiniteRelation) -> FiniteRelation:
    return FiniteRelation(rel.size, rel.holds | np.eye(rel.size, dtype=bool))


def unpacked_rows(rows: np.ndarray, size: int) -> np.ndarray:
    """The (size, size) bool table of packed relation rows, bit j of row i
    at word j >> 6, bit j & 63; AssertionError unless the rows are
    (size, ceil(size / 64)) '<u8' words with no bit set from column ``size`` on."""
    assert rows.dtype == np.dtype("<u8") and rows.shape == (size, -(-size // 64)), (rows.dtype, rows.shape)
    # a little-endian word's bytes hold its bits 0-7, 8-15, ... in order
    bits = np.unpackbits(np.ascontiguousarray(rows).view(np.uint8), axis=1, bitorder="little")
    assert not bits[:, size:].any(), "bits set past the last column"
    return bits[:, :size].astype(bool)


def unbounded_elements(holds: np.ndarray, axis: int) -> set[int]:
    """Elements related to no other along ``axis`` of a dense table: a column
    reduction counts predecessors, a row reduction successors, the diagonal
    taken out."""
    others = holds.sum(axis=axis, dtype=np.int32) - np.diagonal(holds)
    return set(np.flatnonzero(others == 0).tolist())


def relation_to_json(rel: FiniteRelation) -> dict:
    """The wire format that ``relation_from_json`` reads."""
    return {"size": rel.size, "pairs": sorted(rel.pairs())}


def action_to_json(action: GroupAction) -> dict:
    """The wire format that ``action_from_json`` reads."""
    return {"size": action.size, "perms": action.perms.tolist()}


def group_from_generators(size: int, generators) -> GroupAction:
    """The group generated by ``generators``, identity included: closed breadth
    first, one composite at a time, then built by the checking constructor."""
    gens = [tuple(g) for g in _permutation_array(size, generators).tolist()]
    identity = tuple(range(size))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for g in gens:
            for f in frontier:
                composite = tuple(g[i] for i in f)
                if composite not in seen:
                    seen.add(composite)
                    fresh.append(composite)
        frontier = fresh
    return GroupAction(size, sorted(seen))


def powerset_inclusion(n: int) -> tuple[FiniteRelation, GroupAction]:
    """Inclusion order on all subsets of Z_n, with the rotation action.

    Element i is the subset with bitmask i; the action rotates residues.
    """
    size = 1 << n
    full = size - 1
    masks = np.arange(size)
    table = (masks[:, None] & masks[None, :]) == masks[:, None]
    rotate = tuple(((m << 1) | (m >> (n - 1))) & full for m in range(size))
    action = group_from_generators(size, [rotate])
    return FiniteRelation(size, table), action


def class_leq(a: PitchClassSet, b: PitchClassSet) -> bool:
    """True when some transposition of ``a`` is a subset of ``b``: the subset
    order on their classes, one pair at a time, over every rotation."""
    if a.edo != b.edo:
        raise ValueError(f"edo mismatch: {a.edo} vs {b.edo}")
    edo = a.edo
    full = (1 << edo) - 1
    am, bm = a.mask, b.mask
    for t in range(edo):
        rot = ((am << t) | (am >> (edo - t))) & full
        if rot & bm == rot:
            return True
    return False


def random_partial_order(rng: np.random.Generator, size: int, p: float = 0.35) -> FiniteRelation:
    """Random DAG edges along a random topological order, closed to a partial order."""
    order = rng.permutation(size)
    table = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < p:
                table[order[i], order[j]] = True
    return reflexive_closure(transitive_closure(FiniteRelation(size, table)))


def random_group_action(rng: np.random.Generator, size: int) -> GroupAction:
    """A small random permutation group: identity, an involution, or a random perm."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return GroupAction(size, (tuple(range(size)),))
    if kind == 1:
        perm = list(range(size))
        i, j = rng.choice(size, size=2, replace=False)
        perm[i], perm[j] = perm[j], perm[i]
        return group_from_generators(size, [tuple(perm)])
    return group_from_generators(size, [tuple(int(x) for x in rng.permutation(size))])


def reference_group_perms(size: int, perms) -> tuple[tuple[int, ...], ...]:
    """The sorted distinct permutations, after checking identity, inverses and
    every pairwise composite one at a time; ValueError when one is missing."""
    seen = set()
    normalized = []
    for perm in perms:
        p = tuple(int(x) for x in perm)
        if sorted(p) != list(range(size)):
            raise ValueError(f"{p} is not a permutation of 0..{size - 1}")
        if p not in seen:
            seen.add(p)
            normalized.append(p)
    normalized.sort()
    if tuple(range(size)) not in seen:
        raise ValueError("action must contain the identity permutation")
    for p in normalized:
        inv = tuple(int(x) for x in np.argsort(p))
        if inv not in seen:
            raise ValueError(f"action is not closed under inverse: {p}")
        for q in normalized:
            comp = tuple(p[q[i]] for i in range(size))
            if comp not in seen:
                raise ValueError(f"action is not closed under composition: {p} o {q}")
    return tuple(normalized)


def reference_orbits(action: GroupAction) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(class index, orbits), one element at a time, orbits numbered by least member."""
    assignment = [-1] * action.size
    orbit_list: list[tuple[int, ...]] = []
    for element in range(action.size):
        if assignment[element] >= 0:
            continue
        members = sorted({perm[element] for perm in action.perms})
        oid = len(orbit_list)
        for x in members:
            assignment[x] = oid
        orbit_list.append(tuple(members))
    return tuple(assignment), tuple(orbit_list)


def reference_induced_table(rel: FiniteRelation, action: GroupAction, mode: str) -> np.ndarray:
    """The strong or weak relation on orbits, one block of ``rel`` per orbit pair."""
    _, orbit_list = reference_orbits(action)
    k = len(orbit_list)
    table = np.zeros((k, k), dtype=bool)
    for a in range(k):
        for b in range(k):
            block = rel.holds[np.ix_(orbit_list[a], orbit_list[b])]
            if mode == "strong":
                table[a, b] = bool(block.any(axis=1).all())
            else:
                table[a, b] = bool(block.any())
    return table


def reference_action_properties(rel: FiniteRelation, action: GroupAction) -> tuple[bool, bool]:
    """(increasing, transverse), one permutation at a time."""
    holds = rel.holds
    increasing = True
    transverse = True
    for perm in action.perms:
        p = np.asarray(perm)
        permuted = holds[np.ix_(p, p)]  # permuted[a, b] == holds[Ta, Tb]
        if increasing and bool((holds & ~permuted).any()):
            increasing = False
        if transverse:
            moved = p != np.arange(rel.size)
            if bool(holds[p[moved], np.arange(rel.size)[moved]].any()):
                transverse = False
    return increasing, transverse


def force_increasing(rel: FiniteRelation, action: GroupAction) -> FiniteRelation:
    """Smallest action-invariant preorder containing ``rel``."""
    table = rel.holds.copy()
    for perm in action.perms:
        p = np.asarray(perm)
        # if (a, b) related, relate (Ta, Tb) as well
        src = np.argwhere(rel.holds)
        for a, b in src:
            table[p[a], p[b]] = True
    return reflexive_closure(transitive_closure(FiniteRelation(rel.size, table)))


def tv_subset_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Largest power discrepancy over every subset of indices, by enumeration."""
    d = np.asarray(x, float) - np.asarray(y, float)
    n = d.size
    best = 0.0
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            if (mask >> i) & 1:
                total += d[i]
        best = max(best, abs(total))
    return best


def lp_vertex_oracle(c, a_ub, b_ub, a_eq, b_eq, tol: float = 1e-9):
    """Minimum of c.v over the polytope {a_ub v <= b_ub, a_eq v = b_eq, v >= 0}
    by enumerating candidate vertices (active-set intersections).

    Intended for tiny instances only; returns (best_cost, best_x) or
    (None, None) when no feasible vertex exists.
    """
    c = np.asarray(c, float)
    a_ub = np.asarray(a_ub, float).reshape(-1, c.size)
    b_ub = np.asarray(b_ub, float).ravel()
    a_eq = np.asarray(a_eq, float).reshape(-1, c.size)
    b_eq = np.asarray(b_eq, float).ravel()
    nv = c.size
    rows = [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    rows += [(a_eq[i], b_eq[i]) for i in range(a_eq.shape[0])]
    for i in range(nv):
        bound = np.zeros(nv)
        bound[i] = 1.0
        rows.append((bound, 0.0))
    best_cost, best_x = None, None
    for combo in itertools.combinations(range(len(rows)), nv):
        a = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if (x < -tol).any():
            continue
        if a_ub.shape[0] and (a_ub @ x > b_ub + tol).any():
            continue
        if a_eq.shape[0] and (np.abs(a_eq @ x - b_eq) > tol).any():
            continue
        cost = float(c @ x)
        if best_cost is None or cost < best_cost:
            best_cost, best_x = cost, x
    return best_cost, best_x


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def brighten(rng: np.random.Generator, power: np.ndarray) -> np.ndarray:
    """Move a chunk of mass from a lower harmonic to a higher one."""
    power = np.array(power, float)
    donors = np.flatnonzero(power > 1e-6)
    i = int(donors[rng.integers(0, donors.size - 1)]) if donors.size > 1 else int(donors[0])
    if i == power.size - 1:
        i = int(donors[0])
    if i == power.size - 1:
        return power
    j = int(rng.integers(i + 1, power.size))
    amount = power[i] * (0.3 + 0.6 * rng.random())
    power[i] -= amount
    power[j] += amount
    return power
