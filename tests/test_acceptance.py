"""Acceptance suite.

Each test prints one ``[A##] PASS/FAIL`` line (visible with ``pytest -s``)
and enforces the stated runtime budget where one applies.  Budgets are
measured after a warm-up pass so that one-time import and first-call costs
are not billed to any single criterion.
"""

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import qorder as q
from qorder.cli import main as cli_main
from qorder.design import DesignStatus, Variant
from qorder.orders import Comparison
from qorder.setclass import PitchClassSet, canonical_form, span_profile

from reference_design import grid_solve
from structures import (
    force_increasing,
    powerset_inclusion,
    random_group_action,
    random_partial_order,
    random_simplex,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SEARCH_SEED = 0  # documented seed for the randomized infimum-gap search


@contextmanager
def criterion(tag, limit=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit is not None and elapsed >= limit:
            raise AssertionError(f"{tag} took {elapsed:.2f}s, budget {limit}s")
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        print(f"[{tag}] {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    q.span_limited_minimal(4, 2)
    tiny = q.DesignProblem(q.TimbralVector([0.3, 0.7]), q.TimbralVector([0.5, 0.5]))
    q.solve_design(tiny)
    q.counterexample_search(3, 2, seed=0)


def cls12(members):
    return canonical_form(PitchClassSet(12, tuple(members)))


# the published twelve-tone catalogue of minimal classes per step bound;
# the five-note pentatonic replaces the misprinted six-note spelling
CATALOGUE = {
    2: [(0, 1, 3, 4, 6, 7, 9, 10), (0, 2, 3, 5, 7, 9, 11),
        (0, 2, 4, 5, 7, 9, 11), (0, 2, 4, 6, 8, 10)],
    3: [(0, 1, 4, 5, 8, 9), (0, 2, 4, 6, 8, 10), (0, 2, 4, 7, 9),
        (0, 2, 4, 7, 10), (0, 3, 4, 7, 9), (0, 3, 4, 7, 10), (0, 3, 6, 9)],
    4: [(0, 3, 6, 9), (0, 3, 6, 10), (0, 3, 7, 10), (0, 4, 6, 10),
        (0, 4, 7, 10), (0, 4, 7, 11), (0, 4, 8)],
    5: [(0, 3, 6, 9), (0, 3, 7), (0, 4, 6, 10), (0, 4, 7), (0, 4, 8),
        (0, 5, 6, 11), (0, 5, 10)],
}


def test_a01_minimal_class_catalogue_via_cli():
    runner = CliRunner()
    with criterion("A01 twelve-tone minimal classes, CLI", limit=2.0):
        for max_second, expected_members in CATALOGUE.items():
            result = runner.invoke(
                cli_main,
                ["setclass", "minimal", "--edo", "12", "--max-second", str(max_second)],
                catch_exceptions=False,
            )
            assert result.exit_code == 0
            got = {
                cls12(int(x) for x in line.strip("{}").split(","))
                for line in result.output.splitlines()
            }
            expected = {cls12(m) for m in expected_members}
            assert got == expected, f"max_second={max_second}"
        assert [len(CATALOGUE[k]) for k in (2, 3, 4, 5)] == [4, 7, 7, 7]


def test_a02_minimality_equals_thirds_criterion_everywhere():
    with criterion("A02 minimal = thirds criterion, all N<=12", limit=30.0):
        for edo in range(1, 13):
            for max_second in range(1, edo + 1):
                family = q.span_limited_classes(edo, max_second)
                minimal = set(q.span_limited_minimal(edo, max_second))
                predicted = {
                    c for c in family
                    if span_profile(c).min_third >= max_second + 1
                }
                assert minimal == predicted, (edo, max_second)


def test_a03_class_counts_match_orbit_formula():
    with criterion("A03 class counts vs orbit counting", limit=10.0):
        for edo in range(2, 17):
            count = len(q.enumerate_set_classes(edo))
            assert count == q.burnside_count(edo), edo
        assert len(q.enumerate_set_classes(12)) == 352


def test_a04_quotient_order_property_suite():
    with criterion("A04 quotient-order properties, 500 instances", limit=10.0):
        rng = np.random.default_rng(20260808)
        increasing_seen = transverse_seen = 0
        for index in range(500):
            if index % 100 == 0:
                rel, action = powerset_inclusion(2 + (index // 100) % 2)
            else:
                size = int(rng.integers(2, 9))
                rel = random_partial_order(rng, size)
                action = random_group_action(rng, size)
            strong, weak = (quotient.relation for quotient in q.induced_relations(rel, action))
            assert q.relation_axioms(strong).preorder
            props = q.action_properties(rel, action)
            if props.increasing:
                increasing_seen += 1
                assert (strong.holds == weak.holds).all()
            if props.transverse:
                transverse_seen += 1
                assert q.relation_axioms(strong).antisymmetric
            forced = force_increasing(rel, action)
            s2, w2 = (quotient.relation for quotient in q.induced_relations(forced, action))
            assert (s2.holds == w2.holds).all()
        assert increasing_seen > 20 and transverse_seen > 20


def _subset_bits(n):
    masks = np.arange(1 << n)[:, None]
    return ((masks >> np.arange(n)[None, :]) & 1).astype(float)


def test_a05_brightness_order_property_suite():
    with criterion("A05 brightness-order properties", limit=30.0):
        flip = {
            Comparison.LESS: Comparison.GREATER,
            Comparison.GREATER: Comparison.LESS,
            Comparison.EQUAL: Comparison.EQUAL,
            Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
        }
        rng = np.random.default_rng(5150)
        for n in (3, 8, 20):
            h = q.brightness_matrix(n)
            bits = _subset_bits(n) if n <= 12 else None
            for _ in range(1000):
                a = q.TimbralVector(random_simplex(rng, n))
                b = q.TimbralVector(random_simplex(rng, n))
                c = q.TimbralVector(random_simplex(rng, n))
                # order axioms
                assert q.brightness_compare(a, a) is Comparison.EQUAL
                vab = q.brightness_compare(a, b)
                assert q.brightness_compare(b, a) is flip[vab]
                assert q.h_compare(h, a, b) is vab
                # transitivity through the lattice: inf(a,b) below both, and
                # chained infima stay comparable
                z = q.infimum(a, b)
                assert q.brightness_compare(z, a) in (Comparison.LESS, Comparison.EQUAL)
                assert q.brightness_compare(z, b) in (Comparison.LESS, Comparison.EQUAL)
                z2 = q.infimum(z, c)
                assert q.brightness_compare(z2, z) in (Comparison.LESS, Comparison.EQUAL)
                assert q.brightness_compare(z2, a) in (Comparison.LESS, Comparison.EQUAL)
                # infimum is the greatest lower bound (1e-12 identity)
                low = np.minimum(q.suffix_profile(a), q.suffix_profile(b))
                assert np.all(np.abs(q.suffix_profile(z) - low) <= 1e-12)
                scale = np.sort(rng.uniform(0.2, 1.0, size=n))
                scale[-1] = 1.0
                w = q.TimbralVector(np.diff(np.concatenate(([0.0], low * scale)))[::-1])
                assert q.brightness_compare(w, z) in (Comparison.LESS, Comparison.EQUAL)
                # total variation metric axioms
                dab = q.tv_distance(a, b)
                assert dab >= 0.0
                assert dab == q.tv_distance(b, a)
                assert q.tv_distance(a, c) <= dab + q.tv_distance(b, c) + 1e-12
                assert q.tv_distance(a, a) == 0.0
                if bits is not None:
                    subset_max = float(np.abs(bits @ (a.power - b.power)).max())
                    assert abs(dab - subset_max) <= 1e-12


def test_a06_lp_optimum_within_grid_oracle_gap():
    with criterion("A06 LP vs grid oracle", limit=60.0):
        rng = np.random.default_rng(606)
        for n, runs in ((3, 50), (4, 20)):
            for _ in range(runs):
                prob = q.DesignProblem(
                    q.TimbralVector(random_simplex(rng, n)),
                    q.TimbralVector(random_simplex(rng, n)),
                )
                sol = q.solve_design(prob)
                assert sol.status is DesignStatus.OPTIMAL
                grid = grid_solve(prob, 0.01)
                assert sol.objective <= grid.objective + 1e-9
                assert grid.objective - sol.objective <= n * 0.01


def test_a07_solutions_never_brighter_than_target():
    with criterion("A07 solutions sit below the target"):
        rng = np.random.default_rng(707)
        for index in range(200):
            n = (3, 4, 5)[index % 3]
            prob = q.DesignProblem(
                q.TimbralVector(random_simplex(rng, n)),
                q.TimbralVector(random_simplex(rng, n)),
            )
            sol = q.solve_design(prob)
            assert sol.status is DesignStatus.OPTIMAL
            assert q.solution_no_brighter_than_target(prob, sol)


def test_a08_two_stage_solution_is_the_infimum_for_three_harmonics():
    with criterion("A08 closest-to-bound = infimum at n=3"):
        rng = np.random.default_rng(808)
        for _ in range(100):
            prob = q.DesignProblem(
                q.TimbralVector(random_simplex(rng, 3)),
                q.TimbralVector(random_simplex(rng, 3)),
                Variant.CLOSEST_TO_BOUND,
            )
            sol = q.solve_closest_to_bound(prob)
            assert sol.status is DesignStatus.OPTIMAL
            z = q.infimum(prob.bound, prob.target)
            assert np.all(np.abs(sol.x.power - z.power) <= 1e-6)


def test_a09_biobjective_cost_attained_at_infimum():
    with criterion("A09 infimum attains the bi-objective optimum"):
        rng = np.random.default_rng(909)
        for index in range(100):
            n = 3 + index % 6
            prob = q.DesignProblem(
                q.TimbralVector(random_simplex(rng, n)),
                q.TimbralVector(random_simplex(rng, n)),
                Variant.BI_OBJECTIVE,
            )
            sol = q.solve_design(prob)
            assert sol.status is DesignStatus.OPTIMAL
            z = q.infimum(prob.bound, prob.target)
            cost_at_z = float(
                np.abs(z.power - prob.target.power).sum()
                + np.abs(z.power - prob.bound.power).sum()
            )
            assert abs(cost_at_z - sol.objective) <= 1e-6


def test_a10_infimum_fails_for_four_harmonics():
    with criterion("A10 infimum suboptimal at n=4 (seeded search)"):
        report = q.counterexample_search(4, 10_000, seed=SEARCH_SEED)
        if not report.found:
            pytest.skip("search inconclusive: no instance within the trial budget")
        assert report.gap > 1e-4
        # the found instance is the committed regression fixture
        committed = json.loads((DATA / "infimum_gap_n4.json").read_text())
        assert committed["seed"] == SEARCH_SEED
        assert committed["trial_index"] == report.trial_index
        assert np.allclose(committed["target"], report.target, atol=1e-15)
        assert np.allclose(committed["bound"], report.bound, atol=1e-15)
        # and it reproduces from the stored vectors alone
        p = q.TimbralVector(np.asarray(committed["target"]))
        b = q.TimbralVector(np.asarray(committed["bound"]))
        z = q.infimum(b, p)
        sol = q.solve_design(q.DesignProblem(p, b))
        assert float(np.abs(z.power - p.power).sum()) - sol.objective > 1e-4


@pytest.mark.parametrize("n", [4, 8, 16, 64])
def test_a10_fixed_witness_infimum_gap(n):
    # suffix excesses e = (0.2, 0, 0.1) have an interior valley, so the
    # infimum sits 0.6 from the target against the optimum 2 * 0.2; zero-power
    # harmonics above the fourth keep the same gap at every n
    with criterion(f"A10 infimum suboptimal at n={n} (fixed witness)"):
        pad = np.zeros(n - 4)
        p = q.TimbralVector(np.concatenate([[0.1, 0.4, 0.1, 0.4], pad]))
        b = q.TimbralVector(np.concatenate([[0.2, 0.2, 0.4, 0.2], pad]))
        z = q.infimum(b, p)
        sol = q.solve_design(q.DesignProblem(p, b))
        assert sol.status is DesignStatus.OPTIMAL
        assert float(np.abs(z.power - p.power).sum()) == pytest.approx(0.6, abs=1e-12)
        assert sol.objective == pytest.approx(0.4, abs=1e-12)
        assert q.closest_to_target_optimum(p, b) == pytest.approx(0.4, abs=1e-12)


def test_a11_fixture_hasse_matches_committed_diagram():
    with criterion("A11 fixture brightness diagram"):
        vectors = q.load_fixture_collection()
        diagram = q.brightness_hasse(vectors)
        assert diagram.maximal == (
            "synthetic_flute", "synthetic_oboe", "synthetic_trumpet",
        )
        assert diagram.minimal == (
            "synthetic_clarinet", "synthetic_horn", "synthetic_sax",
        )
        by_name = {v.name: v for v in vectors}
        dominates = lambda hi, lo: q.brightness_compare(by_name[lo], by_name[hi]) is Comparison.LESS
        for top in ("synthetic_flute", "synthetic_oboe"):
            for low in ("synthetic_clarinet", "synthetic_horn", "synthetic_sax"):
                assert dominates(top, low), (top, low)
        assert dominates("synthetic_trumpet", "synthetic_horn")
        assert not dominates("synthetic_trumpet", "synthetic_sax")
        assert not dominates("synthetic_trumpet", "synthetic_clarinet")
        dot = q.export_dot(diagram.cover, diagram.names)
        assert dot == (GOLDEN / "fixture_hasse.dot").read_text()


def test_a12_fixture_design_tight_and_slack_structure():
    with criterion("A12 fixture design follows bound where tight, target where slack"):
        by_name = {v.name: v for v in q.load_fixture_collection()}
        target = by_name["synthetic_oboe"]
        bound = by_name["synthetic_trumpet"]
        prob = q.DesignProblem(target, bound)
        sol = q.solve_design(prob)
        assert sol.status is DesignStatus.OPTIMAL
        assert sol.objective > 1e-3  # the bound genuinely binds
        n = target.n
        profile_x = q.suffix_profile(sol.x)
        profile_b = q.suffix_profile(bound)
        residual = profile_b - profile_x
        assert (residual >= -1e-7).all()
        tight = residual <= 1e-7
        assert tight.any()
        # where the constraint is tight, the solution's profile is the bound's
        assert np.all(np.abs(profile_x[tight] - profile_b[tight]) <= 1e-6)
        # where both adjacent suffix rows are slack, the harmonic matches the
        # target exactly (row n - j + 1 first includes harmonic j)
        slack_checked = 0
        for harmonic in range(1, n + 1):
            row_hi = n - harmonic + 1
            row_lo = n - harmonic
            hi_slack = residual[row_hi - 1] > 1e-6
            lo_slack = row_lo == 0 or residual[row_lo - 1] > 1e-6
            if hi_slack and lo_slack:
                slack_checked += 1
                assert abs(sol.x.power[harmonic - 1] - target.power[harmonic - 1]) <= 1e-7
        assert slack_checked > 0
