import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qorder import design
from qorder.design import (
    DesignProblem,
    DesignSolution,
    DesignStatus,
    Variant,
    closest_to_target_optimum,
    counterexample_search,
    solution_no_brighter_than_target,
    solve_closest_to_bound,
    solve_design,
    to_lp,
)
from qorder.orders import Comparison
from qorder.simplex import LPResult, LPStatus
from qorder.spectra import MAX_HARMONICS
from qorder.timbre import (
    TimbralVector,
    brightness_compare,
    infimum,
    suffix_profile,
    tv_distance,
)

import counterexample_hits
from reference_design import grid_solve, loop_a_ub
from structures import random_simplex

DATA = Path(__file__).parent / "data"

# random instances per harmonic count for the closed-form checks, 204 in all
CLOSED_FORM_INSTANCES = {2: 60, 3: 60, 4: 40, 8: 30, 16: 10, 64: 4}


def tv(*power):
    return TimbralVector(np.asarray(power, dtype=float))


def problem(p, b, variant=Variant.CLOSEST_TO_TARGET):
    return DesignProblem(tv(*p), tv(*b), variant)


def random_problem(rng, n, variant=Variant.CLOSEST_TO_TARGET):
    return DesignProblem(
        TimbralVector(random_simplex(rng, n)),
        TimbralVector(random_simplex(rng, n)),
        variant,
    )


def check_feasible(prob, sol, tol=1e-7):
    x = sol.x.power
    assert (x >= -tol).all()
    assert abs(x.sum() - 1.0) <= tol
    assert (suffix_profile(sol.x) <= suffix_profile(prob.bound) + tol).all()


class TestToLp:
    def test_shape_counts_closest(self):
        lp = to_lp(problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2]))
        assert lp.n_vars == 6
        assert lp.a_ub.shape == (9, 6)
        assert lp.a_eq.shape == (1, 6)

    def test_shape_counts_biobjective(self):
        lp = to_lp(problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2], Variant.BI_OBJECTIVE))
        assert lp.n_vars == 9
        assert lp.a_ub.shape == (15, 9)

    def test_blocks_match_loop_rows_bit_for_bit(self):
        # signed zeros included: a -0.0 would change the tableau's bytes
        rng = np.random.default_rng(64)
        for n in range(1, 65):
            target, bound = random_simplex(rng, n), random_simplex(rng, n)
            for variant in Variant:
                lp = to_lp(problem(target, bound, variant))
                expected = loop_a_ub(n, variant)
                assert lp.a_ub.dtype == expected.dtype and lp.a_ub.shape == expected.shape
                assert lp.a_ub.tobytes() == expected.tobytes(), (n, variant)
                assert not np.signbit(lp.a_ub[lp.a_ub == 0]).any()

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_closest_to_bound_matches_hand_assembly(self, n):
        # the stage-two LP as it was assembled beside to_lp: the bi-objective
        # LP, a budget row on u, and costs on w only
        rng = np.random.default_rng(300 + n)
        prob = random_problem(rng, n, Variant.CLOSEST_TO_BOUND)
        bi = to_lp(DesignProblem(prob.target, prob.bound, Variant.BI_OBJECTIVE))
        budget = np.zeros((1, 3 * n))
        budget[0, n : 2 * n] = 1.0
        c = np.zeros(3 * n)
        c[2 * n :] = 1.0
        optimum = closest_to_target_optimum(prob.target, prob.bound)
        expected = (c, np.vstack([bi.a_ub, budget]),
                    np.concatenate([bi.b_ub, [optimum + design.STAGE_TWO_SLACK]]), bi.a_eq, bi.b_eq)
        lp = to_lp(prob)
        for got, want in zip((lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq), expected):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()

    def test_target_equal_bound_is_free(self):
        prob = problem([0.3, 0.3, 0.4], [0.3, 0.3, 0.4])
        sol = solve_design(prob)
        assert sol.status is DesignStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.x.power, prob.target.power, atol=1e-9)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="harmonics"):
            DesignProblem(tv(0.5, 0.5), tv(0.2, 0.2, 0.6))


class TestSolveDesign:
    def test_feasible_target_returned_exactly(self):
        # bound brighter than target: the target itself is feasible
        prob = problem([0.6, 0.2, 0.2], [0.2, 0.2, 0.6])
        sol = solve_design(prob)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.x.power, prob.target.power, atol=1e-9)

    def test_three_harmonic_instance(self):
        prob = problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2])
        sol = solve_design(prob)
        assert sol.status is DesignStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.8, abs=1e-9)
        check_feasible(prob, sol)

    def test_biobjective_attained_by_infimum(self):
        prob = problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2], Variant.BI_OBJECTIVE)
        sol = solve_design(prob)
        z = infimum(prob.bound, prob.target)
        cost_at_z = float(
            np.abs(z.power - prob.target.power).sum()
            + np.abs(z.power - prob.bound.power).sum()
        )
        assert sol.objective == pytest.approx(0.8, abs=1e-9)
        assert sol.objective == pytest.approx(cost_at_z, abs=1e-6)

    def test_feasibility_and_objective_consistency_randomized(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            variant = Variant.BI_OBJECTIVE if rng.random() < 0.5 else Variant.CLOSEST_TO_TARGET
            prob = random_problem(rng, n, variant)
            sol = solve_design(prob)
            assert sol.status is DesignStatus.OPTIMAL
            check_feasible(prob, sol)
            direct = float(np.abs(sol.x.power - prob.target.power).sum())
            if variant is Variant.BI_OBJECTIVE:
                direct += float(np.abs(sol.x.power - prob.bound.power).sum())
            assert sol.objective == pytest.approx(direct, abs=1e-7)

    def test_biobjective_infimum_is_optimal_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            prob = random_problem(rng, n, Variant.BI_OBJECTIVE)
            sol = solve_design(prob)
            z = infimum(prob.bound, prob.target)
            cost_at_z = float(
                np.abs(z.power - prob.target.power).sum()
                + np.abs(z.power - prob.bound.power).sum()
            )
            assert cost_at_z >= sol.objective - 1e-9
            assert cost_at_z == pytest.approx(sol.objective, abs=1e-6)
            # triangle bound: can never beat the direct distance
            assert sol.objective >= tv_distance(prob.target, prob.bound) * 2 - 1e-7

    def test_padding_preserves_solution_on_support(self):
        rng = np.random.default_rng(102)
        for _ in range(25):
            p = random_simplex(rng, 3)
            b = random_simplex(rng, 3)
            base = DesignProblem(TimbralVector(p), TimbralVector(b))
            padded = DesignProblem(
                TimbralVector(np.concatenate([p, [0.0, 0.0]])),
                TimbralVector(np.concatenate([b, [0.0, 0.0]])),
            )
            sol = solve_design(base)
            sol_padded = solve_design(padded)
            assert sol_padded.objective == pytest.approx(sol.objective, abs=1e-9)
            assert np.allclose(sol_padded.x.power[3:], 0.0, atol=1e-9)
            assert np.allclose(sol_padded.x.power[:3], sol.x.power, atol=1e-7)


class TestSolveClosestToBound:
    def test_returns_target_when_feasible(self):
        prob = problem([0.6, 0.2, 0.2], [0.2, 0.2, 0.6], Variant.CLOSEST_TO_BOUND)
        sol = solve_closest_to_bound(prob)
        assert np.allclose(sol.x.power, prob.target.power, atol=1e-8)

    def test_three_harmonic_instance_hits_infimum(self):
        prob = problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2], Variant.CLOSEST_TO_BOUND)
        sol = solve_closest_to_bound(prob)
        assert np.allclose(sol.x.power, [0.6, 0.2, 0.2], atol=1e-8)

    def test_matches_infimum_for_three_harmonics(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            prob = random_problem(rng, 3, Variant.CLOSEST_TO_BOUND)
            sol = solve_closest_to_bound(prob)
            z = infimum(prob.bound, prob.target)
            assert sol.status is DesignStatus.OPTIMAL
            assert np.allclose(sol.x.power, z.power, atol=1e-6)

    def test_variant_guard(self):
        for variant in (Variant.CLOSEST_TO_TARGET, Variant.BI_OBJECTIVE):
            with pytest.raises(ValueError, match="closest-to-bound variant"):
                solve_closest_to_bound(problem([1.0], [1.0], variant))

    def test_solve_design_answers_closest_to_bound(self):
        rng = np.random.default_rng(110)
        for n in (3, 4, 8):
            prob = random_problem(rng, n, Variant.CLOSEST_TO_BOUND)
            via_design, direct = solve_design(prob), solve_closest_to_bound(prob)
            assert via_design.status is direct.status is DesignStatus.OPTIMAL
            assert via_design.objective == direct.objective
            assert via_design.x.power.tobytes() == direct.x.power.tobytes()


class TestClosedForms:
    """The LP optima against the suffix-profile formulas.  With
    D = max_k (S(p)_k - S(b)_k)_+, l1min is 2D, l1min2 is ||p - b||_1 and the
    closest-to-bound point is at most ||p - b||_1 - 2D from the bound."""

    def test_known_values(self):
        assert closest_to_target_optimum(tv(0.2, 0.2, 0.6), tv(0.6, 0.2, 0.2)) == pytest.approx(0.8)
        # a bound brighter than the target leaves the target feasible
        assert closest_to_target_optimum(tv(0.6, 0.2, 0.2), tv(0.2, 0.2, 0.6)) == 0.0
        assert closest_to_target_optimum(tv(0.3, 0.7), tv(0.3, 0.7)) == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="harmonics"):
            closest_to_target_optimum(tv(0.5, 0.5), tv(0.2, 0.2, 0.6))

    @pytest.mark.parametrize("n", sorted(CLOSED_FORM_INSTANCES))
    def test_lp_matches_closed_forms(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(CLOSED_FORM_INSTANCES[n]):
            prob = random_problem(rng, n)
            optimum = closest_to_target_optimum(prob.target, prob.bound)
            direct = float(np.abs(prob.target.power - prob.bound.power).sum())
            assert abs(solve_design(prob).objective - optimum) <= 1e-9
            bi = solve_design(DesignProblem(prob.target, prob.bound, Variant.BI_OBJECTIVE))
            assert abs(bi.objective - direct) <= 1e-9
            x = solve_closest_to_bound(DesignProblem(prob.target, prob.bound, Variant.CLOSEST_TO_BOUND)).x.power
            assert float(np.abs(x - prob.bound.power).sum()) <= direct - optimum + 1e-8


class TestCertificate:
    """Every design LP answer is checked against its closed form."""

    @pytest.fixture
    def lp_calls(self, monkeypatch):
        calls = []
        solve = design.lp_solve

        def record(lp, *args, **kwargs):
            calls.append(lp)
            return solve(lp, *args, **kwargs)

        monkeypatch.setattr(design, "lp_solve", record)
        return calls

    @pytest.fixture(params=[1e-6, -1e-6], ids=["high", "low"])
    def skewed_lp(self, request, monkeypatch):
        costs = []
        solve = design.lp_solve

        def skewed(lp, *args, **kwargs):
            res = solve(lp, *args, **kwargs)
            costs.append(res.cost + request.param)
            return LPResult(res.x, costs[-1], res.status)

        monkeypatch.setattr(design, "lp_solve", skewed)
        return costs

    @pytest.mark.parametrize("solve", [
        lambda prob: solve_design(prob),
        lambda prob: solve_design(DesignProblem(prob.target, prob.bound, Variant.BI_OBJECTIVE)),
        lambda prob: solve_closest_to_bound(DesignProblem(prob.target, prob.bound, Variant.CLOSEST_TO_BOUND)),
    ], ids=["l1min", "l1min2", "closest-to-bound"])
    def test_wrong_objective_is_numerical_failure(self, skewed_lp, solve):
        for prob in (problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2]),
                     problem([0.6, 0.2, 0.2], [0.2, 0.2, 0.6])):
            sol = solve(prob)
            assert sol.status is DesignStatus.NUMERICAL_FAILURE
            # the rejected objective is kept for diagnosis
            assert sol.x is None and sol.objective == skewed_lp[-1]

    # each point replaces the LP's own x, which keeps its true cost, on
    # p = (0.1, 0.4, 0.1, 0.4) and b = (0.2, 0.2, 0.4, 0.2), where 2D = 0.4 and
    # ||p - b||_1 = 0.8: the variants that the point solves, if any
    @pytest.mark.parametrize("point, solves", [
        ((0.1, 0.4, 0.1, 0.4), ()),  # the target itself: brighter than b
        ((0.5, 0.5, 0.5, 0.5), ()),  # not a timbre
        ((1.0, 0.0, 0.0, 0.0), ()),  # feasible, and far from both
        ((0.3, 0.4, 0.1, 0.2), (Variant.CLOSEST_TO_TARGET,)),  # 0.6 from b
        ((0.2, 0.2, 0.4, 0.2), (Variant.BI_OBJECTIVE,)),  # b: 0.8 from p
    ], ids=["target", "not-a-timbre", "fundamental", "top-removal", "bound"])
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_returned_point_is_certified(self, monkeypatch, point, solves, variant):
        prob = problem([0.1, 0.4, 0.1, 0.4], [0.2, 0.2, 0.4, 0.2], variant)
        assert solve_design(prob).status is DesignStatus.OPTIMAL
        solve = design.lp_solve

        def swapped(lp, *args, **kwargs):
            res = solve(lp, *args, **kwargs)
            return LPResult(np.concatenate([point, res.x[4:]]), res.cost, res.status)

        monkeypatch.setattr(design, "lp_solve", swapped)
        sol = solve_design(prob)
        if variant in solves:
            assert sol.status is DesignStatus.OPTIMAL
            assert sol.x.power.tolist() == list(point)
        else:
            assert sol.status is DesignStatus.NUMERICAL_FAILURE
            assert sol.x is None

    def test_closest_to_bound_solves_one_lp(self, lp_calls):
        rng = np.random.default_rng(108)
        for n in (2, 3, 4, 16):
            prob = random_problem(rng, n, Variant.CLOSEST_TO_BOUND)
            lp_calls.clear()
            assert solve_closest_to_bound(prob).status is DesignStatus.OPTIMAL
            assert len(lp_calls) == 1
            # the stage-two LP: 3n variables and a budget row after the bi-objective rows
            assert lp_calls[0].n_vars == 3 * n
            assert lp_calls[0].b_ub[-1] == closest_to_target_optimum(prob.target, prob.bound) + design.STAGE_TWO_SLACK

    def test_certified_answers_sit_within_tolerance(self):
        rng = np.random.default_rng(109)
        for n in (2, 3, 5, 8, 32):
            for _ in range(5):
                prob = random_problem(rng, n)
                optimum = closest_to_target_optimum(prob.target, prob.bound)
                assert abs(solve_design(prob).objective - optimum) <= design.CERTIFICATE_TOL
                sol = solve_closest_to_bound(DesignProblem(prob.target, prob.bound, Variant.CLOSEST_TO_BOUND))
                assert sol.status is DesignStatus.OPTIMAL
                assert abs(sol.objective - optimum) <= 1e-8

    # no design LP is infeasible or unbounded, so every LP status short of
    # optimal is a numerical failure
    @pytest.mark.parametrize("status", [LPStatus.INFEASIBLE, LPStatus.UNBOUNDED, LPStatus.ITERATION_LIMIT],
                             ids=lambda s: s.value)
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_lp_short_of_optimal_is_numerical_failure(self, monkeypatch, status, variant):
        monkeypatch.setattr(design, "lp_solve", lambda lp: LPResult(np.zeros(lp.n_vars), math.nan, status))
        sol = solve_design(problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2], variant))
        assert sol.status is DesignStatus.NUMERICAL_FAILURE
        assert sol.x is None and math.isnan(sol.objective)


class TestOracle:
    def test_target_equal_bound(self):
        sol = grid_solve(problem([0.3, 0.3, 0.4], [0.3, 0.3, 0.4]), 0.02)
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_three_harmonic_instance(self):
        sol = grid_solve(problem([0.2, 0.2, 0.6], [0.6, 0.2, 0.2]), 0.01)
        assert sol.objective == pytest.approx(0.8, abs=0.03)

    def test_always_returns_a_point(self):
        rng = np.random.default_rng(104)
        for _ in range(10):
            prob = random_problem(rng, 4)
            sol = grid_solve(prob, 0.05)
            assert sol.status is DesignStatus.OPTIMAL

    def test_guards(self):
        prob5 = DesignProblem(
            TimbralVector(np.full(5, 0.2)), TimbralVector(np.full(5, 0.2))
        )
        with pytest.raises(ValueError, match="n <= 4"):
            grid_solve(prob5, 0.05)
        with pytest.raises(ValueError, match="resolution"):
            grid_solve(problem([1.0], [1.0]), 0.3)

    def test_oracle_vs_lp_gap(self):
        rng = np.random.default_rng(105)
        for n, runs in ((3, 15), (4, 6)):
            for _ in range(runs):
                prob = random_problem(rng, n)
                lp = solve_design(prob)
                grid = grid_solve(prob, 0.01)
                assert lp.objective <= grid.objective + 1e-9
                assert grid.objective - lp.objective <= n * 0.01


class TestTargetDominanceClaims:
    def test_solutions_sit_below_target(self):
        rng = np.random.default_rng(106)
        for _ in range(60):
            n = int(rng.integers(3, 6))
            prob = random_problem(rng, n)
            sol = solve_design(prob)
            assert solution_no_brighter_than_target(prob, sol)

    def test_solutions_sit_below_infimum(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            n = int(rng.integers(3, 6))
            prob = random_problem(rng, n)
            sol = solve_design(prob)
            z = infimum(prob.bound, prob.target)
            assert brightness_compare(sol.x, z, 1e-6) in (Comparison.LESS, Comparison.EQUAL)

    def test_guard_on_non_optimal(self):
        prob = problem([0.5, 0.5], [0.5, 0.5])
        bad = solve_design(prob)
        object.__setattr__(bad, "x", None)
        with pytest.raises(ValueError, match="optimal"):
            solution_no_brighter_than_target(prob, bad)


class TestAnswerStructure:
    """A design answer is its point, and a search report its hit's index."""

    def test_design_solution_is_point_and_objective(self):
        assert tuple(f.name for f in dataclasses.fields(DesignSolution)) == ("x", "objective")
        assert [s.value for s in DesignStatus] == ["optimal", "numerical_failure"]
        assert DesignSolution(None, 0.5).status is DesignStatus.NUMERICAL_FAILURE
        assert DesignSolution(tv(1.0, 0.0), 0.5).status is DesignStatus.OPTIMAL

    def test_search_report_found_is_its_trial_index(self):
        assert "found" not in {f.name for f in dataclasses.fields(design.SearchReport)}
        hit, miss = counterexample_search(4, 100, seed=0), counterexample_search(3, 20, seed=0)
        for report in (hit, miss):
            assert report.found == (report.trial_index is not None)
        assert hit.found and hit.trial_index == 18 and hit.gap > 0
        assert not miss.found and miss.gap is None


class TestCounterexampleSearch:
    def test_three_harmonics_never_finds(self):
        trials = 1_500
        report = counterexample_search(3, trials, seed=0)
        assert not report.found

    # the infimum is optimal for n <= 3, so rounding noise must not count as a
    # gap even at gap_tol = 0; the noise hits came within the first 16 trials
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_hit_below_certificate_resolution(self, n):
        for seed in range(40):
            assert not counterexample_search(n, 200, seed, gap_tol=0.0).found, seed

    def test_four_harmonics_finds(self):
        report = counterexample_search(4, 2_000, seed=0)
        assert report.found
        assert report.gap > 1e-4

    def test_deterministic_for_seed(self):
        a = counterexample_search(4, 500, seed=5)
        b = counterexample_search(4, 500, seed=5)
        assert a.found and b.found
        assert a.trial_index == b.trial_index
        assert (a.target == b.target).all()
        assert a.lp_objective == b.lp_objective

    def test_committed_regression_instance(self):
        data = json.loads((DATA / "infimum_gap_n4.json").read_text())
        p = TimbralVector(np.asarray(data["target"]))
        b = TimbralVector(np.asarray(data["bound"]))
        z = infimum(b, p)
        assert np.allclose(z.power, data["infimum"], atol=1e-12)
        sol = solve_design(DesignProblem(p, b))
        objective_at_z = float(np.abs(z.power - p.power).sum())
        assert objective_at_z - sol.objective > 1e-4
        assert objective_at_z == pytest.approx(data["objective_at_infimum"], abs=1e-12)
        assert sol.objective == pytest.approx(data["lp_objective"], abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            counterexample_search(4, 0, seed=1)
        with pytest.raises(ValueError, match="n must be"):
            counterexample_search(1, 10, seed=1)

    @pytest.mark.parametrize("args", [(4.0, 2_000, 0), (4, 2_000.0, 0), (4, 2_000, 0.0)])
    def test_integral_floats_accepted(self, args):
        report = counterexample_search(*args)
        expected = counterexample_search(4, 2_000, 0)
        assert report.found and report.trial_index == expected.trial_index
        assert report.target.tobytes() == expected.target.tobytes()
        assert (report.n, report.trials, report.seed) == (4, 2_000, 0)
        assert (type(report.n), type(report.trials), type(report.seed)) == (int, int, int)

    @pytest.mark.parametrize("args, message", [
        ((4.5, 10, 0), "n must be an integer, got 4.5"),
        ((4, 10.5, 0), "trials must be an integer, got 10.5"),
        ((4, 10, 1.5), "seed must be an integer, got 1.5"),
        (("4", 10, 0), "n must be an integer, got '4'"),
        ((4, None, 0), "trials must be an integer, got None"),
        ((4, 10, [0]), "seed must be an integer, got an array of shape (1,)"),
    ])
    def test_non_integers_rejected(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            counterexample_search(*args)

    def test_bounds_checked_before_allocating(self, monkeypatch):
        # every trial starts with the generator's Dirichlet draw
        class NoTrial:
            def dirichlet(self, *args, **kwargs):
                raise AssertionError("trial run for a rejected search")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoTrial())
        with pytest.raises(AssertionError, match="trial run"):
            counterexample_search(3, 10, seed=1)
        with pytest.raises(ValueError, match=f"at most {MAX_HARMONICS}, got {MAX_HARMONICS + 1}"):
            counterexample_search(MAX_HARMONICS + 1, 10, seed=1)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="gap_tol must be finite"):
                counterexample_search(3, 10, seed=1, gap_tol=bad)
        with pytest.raises(ValueError, match="gap_tol must be nonnegative, got -1.0"):
            counterexample_search(3, 10, seed=1, gap_tol=-1.0)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1$"):
            counterexample_search(3, 10, seed=-1)

    @pytest.mark.parametrize("bad, message", [
        ([0.5, 0.5 + 1e-6], "power sums to"),
        ([1.0 + 1e-6, -1e-6], "negative power component"),
    ])
    def test_every_draw_checked(self, monkeypatch, bad, message):
        # valid pairs for three trials, then a bound that is not a timbre
        class Draws:
            def __init__(self):
                self.pairs = [[[0.5, 0.5], [0.5, 0.5]]] * 3 + [[[0.5, 0.5], bad]]

            def dirichlet(self, alpha, size):
                return np.array(self.pairs.pop(0))

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        with pytest.raises(ValueError, match=message):
            counterexample_search(2, 10, seed=0, gap_tol=0.0)

    def test_one_lp_per_hit(self, monkeypatch):
        calls = {"lp_solve": [], "infimum": [], "TimbralVector": []}
        for name, log in calls.items():
            def record(*args, log=log, func=getattr(design, name)):
                log.append(args)
                return func(*args)

            monkeypatch.setattr(design, name, record)
        assert not counterexample_search(3, 200, seed=0).found
        assert calls == {"lp_solve": [], "infimum": [], "TimbralVector": []}
        report = counterexample_search(4, 10_000, seed=0)
        assert report.trial_index == 18
        assert len(calls["lp_solve"]) == 1
        [(bound, target)] = calls["infimum"]
        assert target.power.tobytes() == report.target.tobytes()
        assert bound.power.tobytes() == report.bound.tobytes()
        # the hit's target and bound, then the certified LP point
        made = [args[0] for args in calls["TimbralVector"]]
        assert len(made) == 3
        assert made[0].tobytes() == report.target.tobytes()
        assert made[1].tobytes() == report.bound.tobytes()

    # a wrong LP objective fails solve_design's own certificate, and so the hit
    @pytest.mark.parametrize("name, certificate, objective", [
        ("lp_solve", lambda res: LPResult(res.x, res.cost + 1e-6, res.status), r"0\.6844856\d*"),
        ("solve_design", lambda sol: DesignSolution(None, float("nan")), "nan"),
    ], ids=["wrong-objective", "not-optimal"])
    def test_certificate_disagreement_raises(self, monkeypatch, name, certificate, objective):
        solve = getattr(design, name)
        monkeypatch.setattr(design, name, lambda *args: certificate(solve(*args)))
        with pytest.raises(RuntimeError, match="trial 18: the certificate LP gives numerical_failure "
                           rf"objective {objective}, the closed form 0\.6844846\d*$"):
            counterexample_search(4, 100, seed=0)

    # the closed-form decision finds the instances an LP per trial finds, with the same numbers
    @pytest.mark.parametrize("n, seed, trial, gap, lp_objective", [
        (4, 0, 18, 0.6207650299699017, 0.6844846458143048),
        (4, 3, 9, 0.03728182889775433, 0.1307037328929999),
        (5, 1, 8, 0.03956629606723472, 0.6503490204143125),
        (4, 5, 41, 0.08246726350066069, 0.7885385166303649),
    ])
    def test_first_hits(self, n, seed, trial, gap, lp_objective):
        report = counterexample_search(n, 10_000, seed)
        assert report.trial_index == trial
        assert report.gap == gap
        assert report.lp_objective == lp_objective

    # every first hit of a grid of searches, bit for bit
    @pytest.mark.parametrize("n", counterexample_hits.SIZES)
    def test_recorded_first_hits(self, n):
        recorded = json.loads(counterexample_hits.PATH.read_text())
        cases = [case for case in counterexample_hits.cases() if case[0] == n]
        assert [record for record in recorded if record["n"] == n] == [
            counterexample_hits.record(*case) for case in cases
        ]
