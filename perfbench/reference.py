"""Reference checks for every op's output, computed by the benchmark itself.

Nothing here calls qorder.  Set classes are checked against the two-step-span
criterion and the orbit-counting formula; design and counterexample answers
against a HiGHS optimum (scipy, used only as an oracle) on an independent LP
formulation; Hasse diagrams against a broadcast dominance table and a
matrix-product reduction.  A check returns None when the output is accepted,
else the reason it was rejected.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from math import gcd

import numpy as np

TOL = 1e-9  # the CLI's default comparison tolerance
LP_MATCH = 1e-7  # objective agreement with the oracle


# -- set classes --------------------------------------------------------------


def burnside(edo: int) -> int:
    return sum(
        sum(1 for k in range(1, d + 1) if gcd(k, d) == 1) * 2 ** (edo // d)
        for d in range(1, edo + 1) if edo % d == 0
    ) // edo


def steps(edo: int, mask: int) -> list[int]:
    """Cyclic adjacent-step spans of a nonempty set given as a bitmask."""
    members = [i for i in range(edo) if mask >> i & 1]
    return [b - a for a, b in zip(members, members[1:] + [members[0] + edo])]


@lru_cache(maxsize=None)
def _rotation_classes(edo: int) -> np.ndarray:
    """Least rotation of every mask; equal entries mark one transposition class."""
    masks = np.arange(1 << edo, dtype=np.int64)
    full = (1 << edo) - 1
    least = masks.copy()
    for t in range(1, edo):
        np.minimum(least, ((masks << t) | (masks >> (edo - t))) & full, out=least)
    return least


@lru_cache(maxsize=None)
def _expected_minimal(edo: int, max_second: int) -> frozenset[int] | str:
    classes = np.unique(_rotation_classes(edo))
    if len(classes) != burnside(edo):
        return f"{len(classes)} classes, orbit counting gives {burnside(edo)}"
    out = set()
    for mask in classes[1:].tolist():  # skip the empty class
        s = steps(edo, mask)
        if max(s) <= max_second and min(a + b for a, b in zip(s, s[1:] + s[:1])) > max_second:
            out.add(mask)
    return frozenset(out)


def check_setclass(edo: int, max_second: int, data) -> str | None:
    expected = _expected_minimal(edo, max_second)
    if isinstance(expected, str):
        return expected
    if (data.get("edo"), data.get("max_second")) != (edo, max_second):
        return "echoed edo/max_second differ from the request"
    least = _rotation_classes(edo)
    got = []
    for cls in data["classes"]:
        members = cls["members"]
        if cls["edo"] != edo or sorted(set(members)) != members or not members:
            return f"malformed class {members}"
        if any(not 0 <= x < edo for x in members):
            return f"pitch class out of range in {members}"
        rotations = (sorted((x + t) % edo for x in members) for t in range(edo))
        if members != min(rotations):
            return f"{members} is not its class's lexicographically least representative"
        got.append(int(least[sum(1 << x for x in members)]))
    if len(set(got)) != len(got):
        return "a class is listed twice"
    if set(got) != expected:
        return (f"{len(set(got) - expected)} listed classes are not minimal, "
                f"{len(expected - set(got))} minimal classes missing")
    return None


# -- design and counterexample ------------------------------------------------


def suffix(x: np.ndarray) -> np.ndarray:
    return np.cumsum(x[::-1])


def _suffix_matrix(n: int) -> np.ndarray:
    return np.fliplr(np.tril(np.ones((n, n))))


def _highs(c, a_ub, b_ub, a_eq, b_eq):
    from scipy.optimize import linprog

    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return res


def oracle_design(p: np.ndarray, b: np.ndarray, variant: str) -> dict:
    """Optima by HiGHS on the equality-split form x - p = d+ - d-.

    Variables (x, d+, d-, e+, e-), e for x - b.  ``l1`` is min ||x - p||_1,
    ``bi`` min ||x - p||_1 + ||x - b||_1, and ``second`` min ||x - b||_1 over
    the points whose distance to p is within 1e-9 of ``l1``.
    """
    n = p.size
    eye, zero = np.eye(n), np.zeros((n, n))
    a_eq = np.vstack([
        np.hstack([eye, -eye, eye, zero, zero]),
        np.hstack([eye, zero, zero, -eye, eye]),
        np.concatenate([np.ones(n), np.zeros(4 * n)])[None, :],
    ])
    b_eq = np.concatenate([p, b, [1.0]])
    a_ub = np.hstack([_suffix_matrix(n), np.zeros((n, 4 * n))])
    b_ub = suffix(b)
    near = np.concatenate([np.zeros(n), np.ones(2 * n), np.zeros(2 * n)])
    far = np.concatenate([np.zeros(3 * n), np.ones(2 * n)])
    out = {"l1": _highs(near, a_ub, b_ub, a_eq, b_eq).fun}
    if variant == "l1min2":
        out["bi"] = _highs(near + far, a_ub, b_ub, a_eq, b_eq).fun
    if variant == "closest-to-bound":
        budget = np.vstack([a_ub, near])
        out["second"] = _highs(far, budget, np.append(b_ub, out["l1"] + 1e-9), a_eq, b_eq).fun
    return out


def normalized(raw: np.ndarray) -> np.ndarray:
    """The CSV powers as the CLI reads them: scaled to total one."""
    return raw / float(raw.sum())


def check_design(p_raw, b_raw, variant: str, data, oracle: dict) -> str | None:
    p, b = normalized(p_raw), normalized(b_raw)
    if data.get("status") != "optimal":
        return f"status {data.get('status')!r}, the bound itself is feasible"
    x = np.asarray(data["x"], dtype=float)
    if x.shape != p.shape:
        return f"x has {x.size} entries, expected {p.size}"
    if x.min() < -TOL or abs(x.sum() - 1.0) > TOL:
        return f"x is not a probability vector (min {x.min():.3g}, sum {x.sum():.12g})"
    if np.any(suffix(x) > suffix(b) + TOL):
        return "x is brighter than the bound"
    to_p, to_b = float(np.abs(x - p).sum()), float(np.abs(x - b).sum())
    claimed = to_p + to_b if variant == "l1min2" else to_p
    if abs(data["objective"] - claimed) > TOL:
        return f"objective {data['objective']!r} differs from its l1 sum {claimed!r}"
    if abs(data["tv_distance"] - data["objective"] / 2) > TOL:
        return "tv_distance is not half the objective"
    optimum = oracle["bi"] if variant == "l1min2" else oracle["l1"]
    if abs(data["objective"] - optimum) > LP_MATCH:
        return f"objective {data['objective']!r} vs HiGHS optimum {optimum!r}"
    if variant == "closest-to-bound" and to_b > oracle["second"] + LP_MATCH:
        return f"distance to bound {to_b!r} above the HiGHS optimum {oracle['second']!r}"
    below = bool(np.all(np.abs(x - p) <= 1e-6) or np.all(suffix(x) <= suffix(p) + 1e-6))
    if data["x_leq_p"] is not below:
        return f"x_leq_p is {data['x_leq_p']}, dominance gives {below}"
    return None


def check_counterexample(n: int, trials: int, seed: int, gap_tol: float, data) -> str | None:
    if (data["n"], data["trials"], data["seed"]) != (n, trials, seed):
        return "echoed n/trials/seed differ from the request"
    if not data["found"]:
        return None  # inconclusive by definition; n = 3 always lands here
    if n <= 3:
        return f"n={n} reported an infimum gap, which the paper rules out"
    p, b = np.asarray(data["target"]), np.asarray(data["bound"])
    low = np.minimum(suffix(p), suffix(b))
    z = np.diff(np.concatenate(([0.0], low)))[::-1]
    if np.abs(z - np.asarray(data["infimum"])).max() > TOL:
        return "reported infimum is not the suffix-minimum of target and bound"
    at_z = float(np.abs(z - p).sum())
    if abs(at_z - data["objective_at_infimum"]) > TOL:
        return "objective_at_infimum is not the l1 distance of the infimum"
    optimum = oracle_design(p, b, "l1min")["l1"]
    if abs(data["lp_objective"] - optimum) > LP_MATCH:
        return f"lp_objective {data['lp_objective']!r} vs HiGHS optimum {optimum!r}"
    if at_z - optimum <= gap_tol:
        return f"re-solved gap {at_z - optimum!r} is not above gap_tol"
    return None


# -- hasse --------------------------------------------------------------------


def expected_hasse(names: list[str], raws: list[np.ndarray]) -> dict | str:
    """The CLI's JSON answer, from a broadcast dominance table."""
    vec = np.array([normalized(r) for r in raws])
    prof = np.cumsum(vec[:, ::-1], axis=1)
    same = np.all(np.abs(vec[:, None, :] - vec[None, :, :]) <= TOL, axis=2)
    le = np.all(prof[:, None, :] <= prof[None, :, :] + TOL, axis=2)
    k = len(names)
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    equal = upper & (same | (le & le.T))
    strict = (upper & le & ~equal) | (upper & le.T & ~equal).T
    table = strict | np.eye(k, dtype=bool)
    two_step = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0
    if np.any(two_step & ~table):
        return "the tolerance comparisons are not transitive on this collection"
    cover = strict & ~two_step
    return {
        "names": sorted(names),
        "maximal": sorted(names[i] for i in np.flatnonzero(~strict.any(axis=1))),
        "minimal": sorted(names[i] for i in np.flatnonzero(~strict.any(axis=0))),
        "edges": sorted([names[i], names[j]] for i, j in zip(*np.nonzero(cover))),
        "near_equal": [[names[i], names[j]] for i, j in zip(*np.nonzero(equal))],
    }


def check_hasse(expected: dict | str, data, dot_text: str) -> str | None:
    if isinstance(expected, str):
        return expected
    for key, want in expected.items():
        if data.get(key) != want:
            return f"{key} differ from the reference dominance table"
    edges = sorted(list(e) for e in re.findall(r'^  "(.+)" -> "(.+)";$', dot_text, re.M))
    if edges != expected["edges"]:
        return "the DOT file's edges differ from the reference"
    return None


def parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"
