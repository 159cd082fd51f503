"""The numpy kernels against independent scalar oracles.

The simplex kernel must follow the loop oracle in ``reference_simplex`` pivot
for pivot, so status and solution agree bit for bit; the bitmask kernels are
checked against brute force over rotations, against ``class_leq`` and, for
the subset order, its packed rows unpacked, against the dense test of
every rotation in ``reference_setclass``.
"""

import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder import _kernels, design
from qorder.design import DesignProblem, Variant
from qorder.setclass import PitchClassSet, span_limited_classes
from qorder.simplex import LPStandardForm, LPStatus, equality_form, iteration_budget, lp_solve
from qorder.timbre import TimbralVector

from reference_design import stage_two_lp
from reference_setclass import dense_subset_leq_matrix, int64_orbit_minima, least_rotations, up_closure
from reference_simplex import loop_equality_form, loop_simplex_solve
from structures import class_leq, random_simplex, unpacked_rows

# design instances per harmonic count; each yields three LPs, 1242 in all
DESIGN_INSTANCES = {2: 120, 3: 120, 4: 120, 8: 40, 16: 12, 64: 2}


def assert_same_solve(lp, tol=1e-9, max_iter=None):
    """Solve ``lp``'s tableau with the kernel and its system with the loop
    oracle; the system and its starting basis are first checked against the
    loop-form builder."""
    t, c, basis = equality_form(lp)
    a, b, ref_c, ref_basis = loop_equality_form(lp)
    assert t[:-1, :-1].tobytes() == a.tobytes()
    assert t[:-1, -1].tobytes() == b.tobytes()
    assert c.tobytes() == ref_c.tobytes()
    assert basis.tobytes() == ref_basis.tobytes()
    assert not t[-1].any()
    assert iteration_budget(t) == 200 + 50 * sum(a.shape)
    if max_iter is None:
        max_iter = iteration_budget(t)
    status, v = _kernels.simplex_solve(t, c, basis, tol, max_iter)
    ref_status, ref_v = loop_simplex_solve(a, b, c, ref_basis, tol, max_iter)
    assert status is ref_status
    assert v.tobytes() == ref_v.tobytes()
    return status


def recorded_design_lps(monkeypatch, n, count, seed):
    """Every LP for ``count`` random instances, one per ``Variant``: those
    that ``solve_design`` builds through ``to_lp``, and the closest-to-bound
    LP that the library answers in closed form, from ``reference_design``."""
    lps = []
    solve = design.lp_solve

    def record(lp, *args, **kwargs):
        lps.append(lp)
        return solve(lp, *args, **kwargs)

    monkeypatch.setattr(design, "lp_solve", record)
    rng = np.random.default_rng(seed)
    for _ in range(count):
        target = TimbralVector(random_simplex(rng, n))
        bound = TimbralVector(random_simplex(rng, n))
        design.solve_design(DesignProblem(target, bound))
        lps.append(stage_two_lp(DesignProblem(target, bound, Variant.CLOSEST_TO_BOUND)))
        design.solve_design(DesignProblem(target, bound, Variant.BI_OBJECTIVE))
    monkeypatch.undo()
    return lps


class TestSimplexMatchesLoopOracle:
    @pytest.mark.parametrize("n", sorted(DESIGN_INSTANCES))
    def test_design_lps(self, monkeypatch, n):
        lps = recorded_design_lps(monkeypatch, n, DESIGN_INSTANCES[n], seed=n)
        assert len(lps) == 3 * DESIGN_INSTANCES[n]
        widths = {lp.n_vars for lp in lps}
        assert widths == {2 * n, 3 * n}
        for lp in lps:
            assert assert_same_solve(lp) is LPStatus.OPTIMAL

    def test_random_general_lps(self):
        # small integer data makes degenerate vertices and exact ratio ties
        rng = np.random.default_rng(11)
        seen = set()
        for trial in range(600):
            nv = int(rng.integers(1, 7))
            mu = int(rng.integers(0, 6))
            me = int(rng.integers(0, 3))
            if mu + me == 0:
                mu = 1
            if trial % 2:
                draw = lambda *shape: rng.integers(-2, 3, size=shape).astype(float)
            else:
                draw = lambda *shape: rng.normal(size=shape)
            lp = LPStandardForm(draw(nv), draw(mu, nv), draw(mu), draw(me, nv), draw(me))
            seen.add(assert_same_solve(lp))
        assert seen == {
            LPStatus.OPTIMAL,
            LPStatus.INFEASIBLE,
            LPStatus.UNBOUNDED,
        }

    def test_negative_zero_right_hand_side(self):
        # -0.0 is not negated, so its slack starts basic, but the kernel
        # still sees +0.0
        lp = LPStandardForm([1.0, -1.0], [[1.0, 1.0], [-1.0, 2.0]], [-0.0, 3.0],
                            np.zeros((0, 2)), [])
        assert equality_form(lp)[2].tolist() == [2, 3]
        assert assert_same_solve(lp) is LPStatus.OPTIMAL

    def test_start_basis_of_design_lp(self):
        # slacks of the rows with a nonnegative right-hand side; artificials
        # (index 2n + row) on the negated rows and the equality row
        rng = np.random.default_rng(15)
        n = 5
        lp = design.to_lp(DesignProblem(TimbralVector(random_simplex(rng, n)),
                                        TimbralVector(random_simplex(rng, n))))
        mu = lp.a_ub.shape[0]
        width = lp.n_vars + mu
        rows = np.arange(mu + 1)
        negated = np.append(lp.b_ub < 0, True)
        expected = np.where(negated, width + rows, lp.n_vars + rows)
        assert equality_form(lp)[2].tolist() == expected.tolist()
        assert negated.sum() == n + 1

    def test_every_row_starts_artificial(self):
        # every right-hand side is negative, so phase 1 starts with no slack
        # basic and must drive out every row
        lp = LPStandardForm([1.0, 2.0, 0.5],
                            [[-1.0, -1.0, 0.0], [0.0, -1.0, -2.0]], [-1.0, -0.5],
                            [[-1.0, -1.0, -1.0]], [-3.0])
        assert equality_form(lp)[2].tolist() == [5, 6, 7]
        assert assert_same_solve(lp) is LPStatus.OPTIMAL
        result = lp_solve(lp)
        assert result.cost == pytest.approx(2.0)
        assert result.x.tolist() == pytest.approx([1.0, 0.0, 2.0])

    def test_iteration_limit(self):
        rng = np.random.default_rng(13)
        target = TimbralVector(random_simplex(rng, 8))
        bound = TimbralVector(random_simplex(rng, 8))
        lp = design.to_lp(DesignProblem(target, bound))
        for max_iter in range(4):
            status = assert_same_solve(lp, max_iter=max_iter)
            assert status is LPStatus.ITERATION_LIMIT

    def test_peak_memory(self):
        # the system is built in the tableau and pivots update it in blocks,
        # so one solve holds little beside the tableau
        rng = np.random.default_rng(17)
        n = 192
        target = TimbralVector(random_simplex(rng, n))
        bound = TimbralVector(random_simplex(rng, n))
        lp = design.to_lp(DesignProblem(target, bound, Variant.BI_OBJECTIVE))
        rows = lp.a_ub.shape[0] + lp.a_eq.shape[0]
        tableau_bytes = (rows + 1) * (lp.n_vars + lp.a_ub.shape[0] + 1) * 8
        tracemalloc.start()
        try:
            result = lp_solve(lp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.status is LPStatus.OPTIMAL
        assert peak <= 1.5 * tableau_bytes
        # one block of the pivot update and its product, and small vectors
        assert peak <= tableau_bytes + 3 * _kernels._PIVOT_BLOCK_BYTES


# pivots per solve of one n = 64 instance, at the slack start basis, the
# closest-to-bound LP being reference_design's; an all-artificial start took
# 369, 491 and 958
PIVOTS_N64 = {
    Variant.CLOSEST_TO_TARGET: 130,
    Variant.BI_OBJECTIVE: 228,
    Variant.CLOSEST_TO_BOUND: 279,
}


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_pivot_count_n64(monkeypatch, variant):
    rng = np.random.default_rng(64)
    problem = DesignProblem(TimbralVector(random_simplex(rng, 64)),
                            TimbralVector(random_simplex(rng, 64)), variant)
    lp = stage_two_lp(problem) if variant is Variant.CLOSEST_TO_BOUND else design.to_lp(problem)
    pivots = []
    pivot = _kernels._pivot

    def count(*args):
        pivots.append(args[1:3])
        return pivot(*args)

    monkeypatch.setattr(_kernels, "_pivot", count)
    assert lp_solve(lp).status is LPStatus.OPTIMAL
    assert len(pivots) <= PIVOTS_N64[variant]


# the (edo, max_second) pairs of the setclass-minimal benchmark workload
BENCHMARK_FAMILIES = [(e, s) for e, top in {12: 12, 13: 13, 14: 14, 15: 15, 16: 6, 17: 3, 18: 3}.items()
                      for s in range(1, top + 1)]


@st.composite
def mask_lists(draw):
    """n of 1 to 24 and at most 32 n-bit masks, each missing at most 4 bits
    so that their up-closure adds at most 32 * 2**4 orbits: 0 for n up to
    4, the full mask, duplicates, rotations of an earlier mask, and lists
    both closed and not closed under adding a member."""
    n = draw(st.integers(1, 24))
    full = (1 << n) - 1
    holes = st.sets(st.integers(0, n - 1), max_size=4).map(lambda ys: full - sum(1 << y for y in ys))
    masks = []
    for mask in draw(st.lists(holes, max_size=32)):
        if masks and draw(st.booleans()):
            earlier, t = draw(st.sampled_from(masks)), draw(st.integers(0, n - 1))
            mask = ((earlier << t) | (earlier >> (n - t))) & full
        masks.append(mask)
    return n, masks


def refused_unless_closed(masks, n):
    """The up-closure of the list ``masks``.  When that is longer, the kernel
    must refuse ``masks``, naming one of them and a bit outside it that
    together are in no orbit of the list."""
    closure = up_closure(masks, n)
    if len(closure) > len(masks):
        with pytest.raises(ValueError, match="not closed under adding a member") as refused:
            _kernels.subset_leq_matrix(np.array(masks, dtype=np.int64), n)
        named, y = re.search(r"\{([\d,]*)\} plus pitch class (\d+) leaves it$", str(refused.value)).groups()
        mask, bit = sum(1 << int(x) for x in named.split(",") if x), 1 << int(y)
        assert mask in masks and not mask & bit
        assert least_rotations([mask | bit], n)[0] not in least_rotations(masks, n)
    return closure


def rotation_minimum(mask, n):
    full = (1 << n) - 1
    return min(((mask << t) | (mask >> (n - t))) & full for t in range(n))


class TestBitmaskKernels:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_canonical_masks_is_rotation_minimum(self, n):
        expected = [m for m in range(1 << n) if rotation_minimum(m, n) == m]
        assert _kernels.canonical_masks(n).tolist() == expected

    @pytest.mark.parametrize("n, dtype", [
        (1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
        (17, np.uint32), (20, np.uint32),
    ])
    def test_canonical_masks_narrow_dtype(self, n, dtype):
        assert _kernels.canonical_masks(n).dtype == dtype

    @pytest.mark.parametrize("n", (8, 9, 16, 17, 20))
    def test_canonical_masks_matches_int64_loop(self, n):
        assert np.array_equal(_kernels.canonical_masks(n), int64_orbit_minima(n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_canonical_masks_across_blocks(self, monkeypatch, n):
        # blocks of 8 masks: one partial block for n < 3, and up to 512 blocks
        monkeypatch.setattr(_kernels, "_ORBIT_BLOCK", 8)
        assert np.array_equal(_kernels.canonical_masks(n), int64_orbit_minima(n))

    def test_canonical_masks_peak_memory(self):
        # the three scratch blocks of the rotation pass beside the result, with
        # no array of all 2**20 masks
        tracemalloc.start()
        try:
            least = _kernels.canonical_masks(20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert least.size == 52488 and least.dtype == np.uint32
        assert peak <= 3 * _kernels._ORBIT_BLOCK * least.itemsize + least.nbytes + (64 << 10)

    # 8/9, 16/17 and 24 straddle the uint8, uint16 and uint32 mask dtypes
    @pytest.mark.parametrize("n", (3, 7, 8, 9, 12, 16, 17, 24))
    def test_subset_leq_matrix_matches_class_leq(self, n):
        # the full mask and 40 masks each missing 1 to 3 bits, then their up-closure
        rng = np.random.default_rng(19 + n)
        full = (1 << n) - 1
        holes = np.bitwise_or.reduce(1 << rng.integers(0, n, size=(40, 3)), axis=1)
        masks = refused_unless_closed([full, *(full & ~holes).tolist()], n)
        sets = [PitchClassSet.from_mask(n, m) for m in masks]
        table = unpacked_rows(_kernels.subset_leq_matrix(np.array(masks, dtype=np.int64), n), len(masks))
        expected = [[class_leq(x, y) for y in sets] for x in sets]
        assert table.tolist() == expected

    def test_subset_leq_matrix_refuses_early(self):
        # the empty and full masks and 10 random ones at n = 24: closing them
        # would visit all 699,252 orbits
        n = 24
        masks = [0, (1 << n) - 1, *np.random.default_rng(0).integers(0, 1 << n, size=10).tolist()]
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match=r"^family not closed under adding a member: "
                                                 r"\{\} plus pitch class 0 leaves it$"):
                _kernels.subset_leq_matrix(np.array(masks, dtype=np.int64), n)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1 << 20, (elapsed, peak)

    def test_subset_leq_matrix_peak_memory(self):
        # the benchmark's largest families, K = 3608 and 3244
        for edo, max_second in ((16, 6), (18, 3)):
            masks = np.array([c.mask for c in span_limited_classes(edo, max_second)], dtype=np.int64)
            count = len(masks)
            tracemalloc.start()
            try:
                rows = _kernels.subset_leq_matrix(masks, edo)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the packed result and 2 MB, no K x K table
            assert rows.shape == (count, -(-count // 64))
            assert peak < count * -(-count // 64) * 8 + (2 << 20)

    @pytest.mark.parametrize("n", range(1, 4))
    def test_subset_leq_matrix_every_short_list(self, n):
        # each list is refused, or closed under adding a member and answered
        for k in range(4):
            for masks in itertools.product(range(1 << n), repeat=k):
                if len(refused_unless_closed(list(masks), n)) == k:
                    masks = np.array(masks, dtype=np.int64)
                    table = unpacked_rows(_kernels.subset_leq_matrix(masks, n), k)
                    assert np.array_equal(table, dense_subset_leq_matrix(masks, n)), masks

    @pytest.mark.parametrize("n", (1, 8, 9, 24))
    def test_subset_leq_matrix_no_masks(self, n):
        rows = _kernels.subset_leq_matrix(np.zeros(0, dtype=np.int64), n)
        assert rows.shape == (0, 0) and rows.dtype == np.dtype("<u8")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mask_lists(), st.randoms(use_true_random=False))
    def test_subset_leq_matrix_matches_dense(self, drawn, random):
        # the drawn list is refused unless closed; its closure, in any order, is answered
        n, masks = drawn
        masks = refused_unless_closed(masks, n)
        random.shuffle(masks)
        masks = np.array(masks, dtype=np.int64)
        table = unpacked_rows(_kernels.subset_leq_matrix(masks, n), len(masks))
        assert np.array_equal(table, dense_subset_leq_matrix(masks, n))

    @pytest.mark.parametrize("edo, max_second", BENCHMARK_FAMILIES)
    def test_subset_leq_matrix_benchmark_families(self, edo, max_second):
        masks = np.array([c.mask for c in span_limited_classes(edo, max_second)], dtype=np.int64)
        table = unpacked_rows(_kernels.subset_leq_matrix(masks, edo), len(masks))
        assert np.array_equal(table, dense_subset_leq_matrix(masks, edo))
