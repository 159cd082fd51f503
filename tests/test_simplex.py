import numpy as np
import pytest

from qorder.simplex import LPStandardForm, LPStatus, lp_solve

from structures import lp_vertex_oracle


def solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    nv = len(c)
    lp = LPStandardForm(
        c,
        a_ub if a_ub is not None else np.zeros((0, nv)),
        b_ub if b_ub is not None else [],
        a_eq if a_eq is not None else np.zeros((0, nv)),
        b_eq if b_eq is not None else [],
    )
    return lp_solve(lp)


class TestBasics:
    def test_lower_bounded_single_var(self):
        # minimise x subject to x >= 1
        result = solve([1.0], a_ub=[[-1.0]], b_ub=[-1.0])
        assert result.status is LPStatus.OPTIMAL
        assert result.cost == pytest.approx(1.0, abs=1e-9)

    def test_box_maximisation(self):
        result = solve([-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        assert result.status is LPStatus.OPTIMAL
        assert result.cost == pytest.approx(-1.0, abs=1e-9)

    def test_equality_constraint(self):
        result = solve([2.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert result.status is LPStatus.OPTIMAL
        assert result.x == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_infeasible(self):
        # x <= -1 with x >= 0
        result = solve([1.0], a_ub=[[1.0]], b_ub=[-1.0])
        assert result.status is LPStatus.INFEASIBLE

    def test_unbounded(self):
        result = solve([-1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert result.status is LPStatus.UNBOUNDED

    def test_no_constraints(self):
        assert solve([1.0, 2.0]).status is LPStatus.OPTIMAL
        assert solve([-1.0]).status is LPStatus.UNBOUNDED

    @pytest.mark.parametrize("c", [[1.0, 2.0], [0.0], [-1e-12, 3.0]])
    def test_no_constraints_optimal_at_origin(self, c):
        # a cost within tol of zero does not enter
        result = solve(c)
        assert result.status is LPStatus.OPTIMAL
        assert result.x.tolist() == [0.0] * len(c)
        assert result.cost == 0.0

    @pytest.mark.parametrize("c", [[-1.0], [2.0, -0.5]])
    def test_no_constraints_unbounded(self, c):
        result = solve(c)
        assert result.status is LPStatus.UNBOUNDED
        assert np.isnan(result.cost)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LPStandardForm([1.0], [[1.0, 2.0]], [1.0], np.zeros((0, 1)), [])


class TestDegenerate:
    def test_redundant_constraint_terminates_and_matches_oracle(self):
        # duplicated rows make the vertex degenerate
        c = [-1.0, -1.0, 0.0]
        a_ub = [
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
        ]
        b_ub = [1.0, 1.0, 2.0]
        result = solve(c, a_ub=a_ub, b_ub=b_ub)
        assert result.status is LPStatus.OPTIMAL
        oracle_cost, _ = lp_vertex_oracle(c, a_ub, b_ub, np.zeros((0, 3)), [])
        assert result.cost == pytest.approx(oracle_cost, abs=1e-9)

    def test_classic_cycling_instance(self):
        # a tableau known to cycle under naive pivoting; Bland's rule must finish
        c = [-0.75, 150.0, -0.02, 6.0]
        a_ub = [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
        b_ub = [0.0, 0.0, 1.0]
        result = solve(c, a_ub=a_ub, b_ub=b_ub)
        assert result.status is LPStatus.OPTIMAL
        oracle_cost, _ = lp_vertex_oracle(c, a_ub, b_ub, np.zeros((0, 4)), [])
        assert result.cost == pytest.approx(oracle_cost, abs=1e-9)


class TestRandomizedAgainstVertexOracle:
    def test_small_random_instances(self):
        rng = np.random.default_rng(42)
        solved = 0
        for _ in range(60):
            nv = int(rng.integers(2, 5))
            rows = int(rng.integers(1, 5))
            a_ub = rng.normal(size=(rows, nv))
            # keep the feasible region bounded: cap the simplex sum
            a_ub = np.vstack([a_ub, np.ones((1, nv))])
            b_ub = np.concatenate([rng.uniform(0.2, 2.0, size=rows), [3.0]])
            c = rng.normal(size=nv)
            result = solve(c, a_ub=a_ub, b_ub=b_ub)
            oracle_cost, _ = lp_vertex_oracle(c, a_ub, b_ub, np.zeros((0, nv)), [])
            if oracle_cost is None:
                assert result.status is LPStatus.INFEASIBLE
                continue
            assert result.status is LPStatus.OPTIMAL
            assert result.cost == pytest.approx(oracle_cost, abs=1e-7)
            solved += 1
        assert solved >= 40

    def test_with_equality_rows(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            nv = 3
            a_eq = np.ones((1, nv))
            b_eq = [1.0]
            a_ub = rng.normal(size=(2, nv))
            b_ub = rng.uniform(0.1, 1.5, size=2)
            c = rng.normal(size=nv)
            result = solve(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
            oracle_cost, _ = lp_vertex_oracle(c, a_ub, b_ub, a_eq, b_eq)
            if oracle_cost is None:
                assert result.status is LPStatus.INFEASIBLE
            else:
                assert result.status is LPStatus.OPTIMAL
                assert result.cost == pytest.approx(oracle_cost, abs=1e-7)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(44)
        a_ub = rng.normal(size=(3, 4))
        b_ub = rng.uniform(0.5, 2.0, size=3)
        c = rng.normal(size=4)
        first = solve(c, a_ub=a_ub, b_ub=b_ub)
        second = solve(c, a_ub=a_ub, b_ub=b_ub)
        assert first.status is second.status
        if first.status is LPStatus.OPTIMAL:
            assert (first.x == second.x).all()
