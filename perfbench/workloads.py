"""The benchmark's workloads and their seeded inputs.

Every workload is one qorder CLI command over a fixed mix of inputs.  A run is
made of whole rounds; each round holds every entry of the mix once, in a
seeded order, so the share of each entry in a run does not depend on where
the clock stopped.  The seed picks the concrete inputs (vectors, spectra,
search seeds) and the order; the program receives only the generated files
and flags.

Each mix weights the values each command is run with equally.  No
record of how qorder is used exists, so the equal weights are an assumption,
as are the share of near-duplicate spectra and the counterexample trial
counts; the constants below hold them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

ROUNDS = 64  # distinct round orders; a longer run cycles through them


@dataclass
class Plan:
    ops: list[list[str]] = field(default_factory=list)
    refs: list[tuple] = field(default_factory=list)
    rounds: list[list[int]] = field(default_factory=list)
    warmup: int = 0
    data: dict = field(default_factory=dict)

    def add(self, argv: list[str], ref: tuple) -> int:
        self.ops.append(argv)
        self.refs.append(ref)
        return len(self.ops) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[np.random.Generator, Path], Plan]  # writes inputs under workdir
    tail_pct: float  # fixed per workload so runs compare like with like
    trace_rounds: int


def _shuffled_rounds(rng: np.random.Generator, round_ops) -> list[list[int]]:
    return [[int(i) for i in rng.permutation(round_ops(r))] for r in range(ROUNDS)]


def _write_spectrum(path: Path, powers: np.ndarray) -> None:
    rows = "".join(f"{h},{float(v)!r}\n" for h, v in enumerate(powers, start=1))
    path.write_text("harmonic,power\n" + rows)


# -- set classes --------------------------------------------------------------

# Largest max_second per edo whose op completes under CAP_BYTES, measured at
# the seed: (16, 7) already raises MemoryError (its dense (E, K, K) temporary
# is 1.78 GiB, and the rest of the op does not fit beside it), as do (17, 4)
# and (18, 4).  A round holds every fitting pair once: 66 ops.
FITTING_MAX_SECOND = {12: 12, 13: 13, 14: 14, 15: 15, 16: 6, 17: 3, 18: 3}
MINIMAL_ROUND = tuple((e, s) for e, top in FITTING_MAX_SECOND.items() for s in range(1, top + 1))
# Pairs whose temporary exceeds the cap: every op
# fails with MemoryError until the subset relation stops materialising the
# dense temporary.  Not in BENCHMARK.json, whose workloads must run without
# failed ops.
LARGE_ROUND = ((17, 4), (17, 5), (18, 4), (18, 5), (20, 3))


def _setclass_plan(pairs, warmup, rng: np.random.Generator) -> Plan:
    plan = Plan()
    index = {}
    for edo, max_second in dict.fromkeys(pairs):
        index[edo, max_second] = plan.add(
            ["setclass", "minimal", "--edo", str(edo), "--max-second", str(max_second),
             "--format", "json"],
            ("setclass", edo, max_second),
        )
    plan.warmup = index[warmup]
    plan.rounds = _shuffled_rounds(rng, lambda r: [index[p] for p in pairs])
    return plan


def build_setclass_minimal(rng, workdir: Path) -> Plan:
    return _setclass_plan(MINIMAL_ROUND, (12, 2), rng)


def build_setclass_large(rng, workdir: Path) -> Plan:
    return _setclass_plan(LARGE_ROUND, (17, 4), rng)


# -- design -------------------------------------------------------------------

HARMONICS = (4, 16, 64)
VARIANTS = ("l1min", "l1min2", "closest-to-bound")
# Seeded (target, bound) instances per harmonic count; a round uses the next
# one for all three variants.  Pivot counts, and so op times, differ by up to
# 20% between instances, so a run samples many.
DESIGN_POOL = 32


def build_design(rng, workdir: Path) -> Plan:
    plan = Plan()
    index = {}
    for n in HARMONICS:
        for i in range(DESIGN_POOL):
            target, bound = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            t_path, b_path = workdir / f"P_{n}_{i}.csv", workdir / f"B_{n}_{i}.csv"
            _write_spectrum(t_path, target)
            _write_spectrum(b_path, bound)
            plan.data[n, i] = (target, bound)
            for variant in VARIANTS:
                index[n, i, variant] = plan.add(
                    ["timbre", "design", "--target", str(t_path), "--bound", str(b_path),
                     "--variant", variant],
                    ("design", (n, i), variant),
                )
    plan.warmup = index[4, 0, "l1min"]
    plan.rounds = _shuffled_rounds(rng, lambda r: [
        index[n, r % DESIGN_POOL, v] for n in HARMONICS for v in VARIANTS
    ])
    return plan


# -- counterexample -----------------------------------------------------------

# A round: n = 3 at 100 and at 1000 trials (the infimum is optimal there, so
# every trial runs), and one n = 4 search at the CLI's default 10000 trials,
# which stops at its first hit, usually within a few dozen trials.
COUNTEREXAMPLE_ROUND = ((3, 100), (3, 1000), (4, 10_000))
GAP_TOL = 1e-4


def build_counterexample(rng, workdir: Path) -> Plan:
    plan = Plan()

    def op(n, trials, seed):
        return plan.add(
            ["timbre", "counterexample", "--n", str(n), "--trials", str(trials),
             "--seed", str(seed), "--gap-tol", repr(GAP_TOL), "--format", "json"],
            ("counterexample", n, trials, seed, GAP_TOL),
        )

    plan.warmup = op(3, 20, int(rng.integers(2**31)))
    plan.rounds = _shuffled_rounds(rng, lambda r: [
        op(n, trials, int(rng.integers(2**31))) for n, trials in COUNTEREXAMPLE_ROUND
    ])
    return plan


# -- hasse --------------------------------------------------------------------

HASSE_SIZES = ((50, 8), (50, 32), (300, 8), (300, 32))  # (spectra k, harmonics n)
HASSE_POOL = 4  # seeded directories per size; a round uses the next one
DUPLICATE_SHARE = 0.2
DUPLICATE_JITTER = 0.01


def _collection(rng: np.random.Generator, k: int, n: int) -> list[np.ndarray]:
    """Instrument-like spectra: power falling as h^-alpha with per-harmonic
    scatter.  A share are repeated recordings of an earlier spectrum: the
    same powers at another gain, half of them also with a small jitter."""
    harmonics = np.arange(1, n + 1)
    out = []
    for i in range(k):
        if i >= 5 and rng.random() < DUPLICATE_SHARE:
            powers = out[int(rng.integers(i))] * rng.uniform(0.25, 4.0)
            if rng.random() < 0.5:
                powers = powers * rng.lognormal(0.0, DUPLICATE_JITTER, n)
        else:
            powers = harmonics ** -rng.uniform(0.3, 2.5) * rng.lognormal(0.0, 0.4, n)
        out.append(powers)
    return out


def build_hasse(rng, workdir: Path) -> Plan:
    plan = Plan()
    index = {}
    for k, n in HASSE_SIZES:
        for i in range(HASSE_POOL):
            directory = workdir / f"spectra_{k}_{n}_{i}"
            directory.mkdir()
            spectra = _collection(rng, k, n)
            names = [f"{j:03d}" for j in range(k)]
            for name, powers in zip(names, spectra):
                _write_spectrum(directory / f"{name}.csv", powers)
            dot = workdir / f"spectra_{k}_{n}_{i}.dot"
            plan.data[k, n, i] = (names, spectra, dot)
            index[k, n, i] = plan.add(
                ["timbre", "hasse", str(directory), "--format", "json", "--dot", str(dot)],
                ("hasse", (k, n, i)),
            )
    plan.warmup = index[50, 8, 0]
    plan.rounds = _shuffled_rounds(rng, lambda r: [
        index[k, n, r % HASSE_POOL] for k, n in HASSE_SIZES
    ])
    return plan


# The tail percentile is fixed per workload so that runs compare like with
# like: the highest percentile that left at least ten ops beyond it in a run
# of BENCHMARK.json's run_seconds at the seed commit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("setclass-minimal", build_setclass_minimal, tail_pct=84.0, trace_rounds=1),
        Workload("setclass-large", build_setclass_large, tail_pct=50.0, trace_rounds=1),
        Workload("design", build_design, tail_pct=96.0, trace_rounds=4),
        Workload("counterexample", build_counterexample, tail_pct=92.0, trace_rounds=2),
        Workload("hasse", build_hasse, tail_pct=72.0, trace_rounds=2),
    )
}
