import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder.orders import Comparison
from qorder.timbre import (
    TimbralVector,
    brightness_compare,
    brightness_hasse,
    brightness_matrix,
    h_compare,
    infimum,
    suffix_profile,
    tv_distance,
)

from structures import brighten, random_simplex, tv_subset_oracle


def tv(*power, name=None):
    return TimbralVector(np.asarray(power, dtype=float), name)


def recomputed_brightness_compare(a, b, tol):
    """The brightness verdict with both suffix profiles computed afresh: the
    running sums of the reversed powers, compared component-wise within
    ``tol`` once the raw vectors differ by more than ``tol`` somewhere."""
    u, v = a.power[::-1], b.power[::-1]
    if (np.abs(u - v) <= tol).all():
        return Comparison.EQUAL
    u, v = np.cumsum(u), np.cumsum(v)
    le, ge = bool((u <= v + tol).all()), bool((v <= u + tol).all())
    if le and ge:
        return Comparison.EQUAL
    return Comparison.LESS if le else Comparison.GREATER if ge else Comparison.INCOMPARABLE


@st.composite
def timbre_pairs(draw):
    """Two timbres over 1 to 64 harmonics: independent Dirichlet draws, a
    draw and a brighter copy of it, or a draw and a rescaled near-duplicate."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = draw(st.sampled_from([0.2, 1.0, 5.0]))
    a = rng.dirichlet(np.full(n, alpha))
    spread = draw(st.sampled_from(["independent", "brighter", 0.0, 1e-12, 1e-9, 1e-6, 0.05]))
    if spread == "independent":
        b = rng.dirichlet(np.full(n, alpha))
    elif spread == "brighter":
        b = brighten(rng, a)
    else:
        b = a * (1.0 + rng.uniform(-spread, spread, n))
        b /= b.sum()
    return TimbralVector(a), TimbralVector(b)


class TestTimbralVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            tv(0.5, -0.2, 0.7)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sums"):
            tv(0.5, 0.4)

    @pytest.mark.parametrize("power, problem", [
        ([np.nan, 1.0], "sums to nan"), ([0.5, np.nan], "sums to nan"),
        ([np.inf, 1.0], "sums to inf"), ([1.0, -np.inf], "negative"),
    ])
    def test_rejects_non_finite(self, power, problem):
        with pytest.raises(ValueError, match=problem):
            TimbralVector(power)

    def test_clamps_float_noise(self):
        v = TimbralVector([1.0 + 5e-10, -5e-10])
        assert v.power[1] == 0.0

    def test_immutable(self):
        v = tv(0.5, 0.5)
        with pytest.raises(ValueError):
            v.power[0] = 1.0


class TestSuffixProfile:
    def test_is_the_timbres_own_read_only_profile(self):
        rng = np.random.default_rng(12)
        for n in (1, 3, 64):
            v = TimbralVector(random_simplex(rng, n))
            profile = suffix_profile(v)
            assert profile.tobytes() == np.cumsum(v.power[::-1]).tobytes()
            assert suffix_profile(v) is profile
            assert v.profile is profile
            with pytest.raises(ValueError, match="read-only"):
                profile[0] = 0.0

    def test_examples(self):
        assert np.allclose(suffix_profile(tv(0.5, 0.5, 0.0)), [0.0, 0.5, 1.0])
        assert np.allclose(suffix_profile(tv(0.0, 0.0, 1.0)), [1.0, 1.0, 1.0])
        assert np.allclose(suffix_profile(tv(0.25, 0.25, 0.5)), [0.5, 0.75, 1.0])

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(4)
        for n in (2, 5, 11):
            h = brightness_matrix(n)
            for _ in range(20):
                v = TimbralVector(random_simplex(rng, n))
                assert np.allclose(suffix_profile(v), h @ v.power, atol=1e-12)


class TestBrightnessCompare:
    def test_examples(self):
        assert brightness_compare(tv(0.5, 0.5, 0.0), tv(0.5, 0.0, 0.5)) is Comparison.LESS
        assert brightness_compare(tv(0.5, 0.0, 0.5), tv(0.0, 1.0, 0.0)) is Comparison.INCOMPARABLE
        a = tv(0.3, 0.3, 0.4)
        assert brightness_compare(a, a) is Comparison.EQUAL
        assert brightness_compare(a, a, 0.0) is Comparison.EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            brightness_compare(tv(1.0), tv(0.5, 0.5))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(timbre_pairs(), st.sampled_from([0.0, 1e-9, 0.05]))
    def test_matches_recomputed_profiles(self, pair, tol):
        a, b = pair
        assert brightness_compare(a, b, tol) is recomputed_brightness_compare(a, b, tol)
        assert brightness_compare(b, a, tol) is recomputed_brightness_compare(b, a, tol)

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
    def test_rejects_negative_or_nan_tol(self, tol):
        # at a negative tol a timbre would not equal itself
        a = tv(0.3, 0.3, 0.4)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            brightness_compare(a, a, tol)
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            h_compare(brightness_matrix(3), a, a, tol)

    @pytest.mark.parametrize("tol", [float("inf"), float("-inf")])
    def test_rejects_infinite_tol(self, tol):
        # at an infinite tol every pair would compare EQUAL
        a, b = tv(0.3, 0.3, 0.4), tv(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=f"tol must be finite, got {tol}"):
            brightness_compare(a, b, tol)
        with pytest.raises(ValueError, match=f"tol must be finite, got {tol}"):
            h_compare(brightness_matrix(3), a, b, tol)

    def test_order_axioms_randomized(self):
        rng = np.random.default_rng(6)
        for n in (3, 8, 20):
            for _ in range(150):
                a = TimbralVector(random_simplex(rng, n))
                b = TimbralVector(random_simplex(rng, n))
                va = brightness_compare(a, b)
                vb = brightness_compare(b, a)
                flip = {
                    Comparison.LESS: Comparison.GREATER,
                    Comparison.GREATER: Comparison.LESS,
                    Comparison.EQUAL: Comparison.EQUAL,
                    Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
                }
                assert vb is flip[va]

    def test_transitivity_on_chains(self):
        rng = np.random.default_rng(8)
        for n in (3, 8, 20):
            for _ in range(80):
                a = TimbralVector(random_simplex(rng, n))
                b = TimbralVector(brighten(rng, a.power))
                c = TimbralVector(brighten(rng, b.power))
                assert brightness_compare(a, b) in (Comparison.LESS, Comparison.EQUAL)
                assert brightness_compare(b, c) in (Comparison.LESS, Comparison.EQUAL)
                assert brightness_compare(a, c) in (Comparison.LESS, Comparison.EQUAL)


class TestHCompare:
    def test_identity_matrix_gives_componentwise(self):
        h = np.eye(3)
        assert h_compare(h, tv(0.2, 0.3, 0.5), tv(0.2, 0.3, 0.5)) is Comparison.EQUAL
        assert h_compare(h, tv(0.2, 0.3, 0.5), tv(0.2, 0.3, 0.5), 0.0) is Comparison.EQUAL
        assert h_compare(h, tv(0.2, 0.3, 0.5), tv(0.5, 0.3, 0.2)) is Comparison.INCOMPARABLE

    def test_two_by_two_oracle(self):
        h = np.array([[1.0, 0.0], [1.0, 1.0]])
        # H a = (0.4, 1.0) <= H b = (0.6, 1.0) component-wise
        assert h_compare(h, tv(0.4, 0.6), tv(0.6, 0.4)) is Comparison.LESS

    def test_brightness_matrix_agrees(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 8, 14, 20):
            h = brightness_matrix(n)
            for _ in range(50):
                a = TimbralVector(random_simplex(rng, n))
                b = TimbralVector(random_simplex(rng, n))
                assert h_compare(h, a, b) is brightness_compare(a, b)

    def test_rejects_negative_or_singular(self):
        with pytest.raises(ValueError, match="nonnegative"):
            h_compare(np.array([[1.0, -0.1], [0.0, 1.0]]), tv(0.5, 0.5), tv(0.5, 0.5))
        with pytest.raises(ValueError, match="nonsingular"):
            h_compare(np.ones((2, 2)), tv(0.5, 0.5), tv(0.5, 0.5))


class TestInfimum:
    def test_example(self):
        z = infimum(tv(0.5, 0.0, 0.5), tv(0.0, 1.0, 0.0))
        assert np.allclose(z.power, [0.5, 0.5, 0.0], atol=1e-12)

    def test_idempotent(self):
        x = tv(0.25, 0.25, 0.5)
        assert np.allclose(infimum(x, x).power, x.power, atol=1e-15)

    def test_absorbs_dominated(self):
        x = tv(0.5, 0.5, 0.0)
        y = tv(0.0, 0.5, 0.5)
        assert brightness_compare(x, y) is Comparison.LESS
        assert np.allclose(infimum(x, y).power, x.power, atol=1e-15)

    def test_profile_is_exact_min(self):
        rng = np.random.default_rng(12)
        for n in (3, 8, 20):
            for _ in range(100):
                x = TimbralVector(random_simplex(rng, n))
                y = TimbralVector(random_simplex(rng, n))
                z = infimum(x, y)
                expected = np.minimum(suffix_profile(x), suffix_profile(y))
                assert np.allclose(suffix_profile(z), expected, atol=1e-12)

    def test_greatest_lower_bound(self):
        rng = np.random.default_rng(13)
        for n in (3, 8, 20):
            for _ in range(60):
                x = TimbralVector(random_simplex(rng, n))
                y = TimbralVector(random_simplex(rng, n))
                z = infimum(x, y)
                assert brightness_compare(z, x) in (Comparison.LESS, Comparison.EQUAL)
                assert brightness_compare(z, y) in (Comparison.LESS, Comparison.EQUAL)
                # any other common lower bound sits below z
                low = np.minimum(suffix_profile(x), suffix_profile(y))
                scale = np.sort(rng.uniform(0.2, 1.0, size=n))
                scale[-1] = 1.0
                w_profile = low * scale
                w = TimbralVector(np.diff(np.concatenate(([0.0], w_profile)))[::-1])
                assert brightness_compare(w, x) in (Comparison.LESS, Comparison.EQUAL)
                assert brightness_compare(w, y) in (Comparison.LESS, Comparison.EQUAL)
                assert brightness_compare(w, z) in (Comparison.LESS, Comparison.EQUAL)

    def test_commutative_associative(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            x = TimbralVector(random_simplex(rng, 6))
            y = TimbralVector(random_simplex(rng, 6))
            w = TimbralVector(random_simplex(rng, 6))
            assert np.allclose(infimum(x, y).power, infimum(y, x).power, atol=1e-15)
            assert np.allclose(
                infimum(infimum(x, y), w).power,
                infimum(x, infimum(y, w)).power,
                atol=1e-12,
            )


class TestTvDistance:
    def test_examples(self):
        assert tv_distance(tv(1, 0, 0), tv(0, 0, 1)) == pytest.approx(1.0)
        x = tv(0.3, 0.3, 0.4)
        assert tv_distance(x, x) == 0.0
        assert tv_distance(tv(0.5, 0.5, 0.0), tv(0.25, 0.25, 0.5)) == pytest.approx(0.5)

    def test_metric_axioms(self):
        rng = np.random.default_rng(15)
        for n in (3, 8, 20):
            for _ in range(80):
                x = TimbralVector(random_simplex(rng, n))
                y = TimbralVector(random_simplex(rng, n))
                w = TimbralVector(random_simplex(rng, n))
                dxy = tv_distance(x, y)
                assert dxy >= 0.0
                assert dxy == pytest.approx(tv_distance(y, x), abs=1e-15)
                assert tv_distance(x, w) <= dxy + tv_distance(y, w) + 1e-12

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(16)
        for n in (3, 6, 9, 12):
            for _ in range(25):
                x = random_simplex(rng, n)
                y = random_simplex(rng, n)
                direct = tv_distance(TimbralVector(x), TimbralVector(y))
                assert direct == pytest.approx(tv_subset_oracle(x, y), abs=1e-12)


class TestBrightnessHasse:
    def test_chain(self):
        a = tv(1.0, 0.0, 0.0, name="a")
        b = tv(0.4, 0.6, 0.0, name="b")
        c = tv(0.2, 0.3, 0.5, name="c")
        diagram = brightness_hasse([a, b, c])
        assert set(diagram.cover.pairs()) == {(0, 1), (1, 2)}
        assert diagram.maximal == ("c",)
        assert diagram.minimal == ("a",)

    def test_antichain(self):
        a = tv(0.5, 0.0, 0.5, name="a")
        b = tv(0.0, 1.0, 0.0, name="b")
        c = tv(0.45, 0.2, 0.35, name="c")
        diagram = brightness_hasse([a, b, c])
        assert diagram.cover.pairs() == []
        assert diagram.maximal == ("a", "b", "c")
        assert diagram.minimal == ("a", "b", "c")

    def test_near_equal_reported_not_ordered(self):
        a = tv(0.5, 0.5, name="a")
        b = TimbralVector([0.5 + 2e-10, 0.5 - 2e-10], "b")
        diagram = brightness_hasse([a, b])
        assert diagram.near_equal == (("a", "b"),)
        assert diagram.cover.pairs() == []

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            brightness_hasse([tv(1.0, 0.0, name="x"), tv(0.0, 1.0, name="x")])

    def test_harmonic_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="harmonic count mismatch: 2 vs 3 harmonics"):
            brightness_hasse([tv(1.0, 0.0, name="x"), tv(0.0, 0.0, 1.0, name="y")])

    def test_unnamed_rejected(self):
        with pytest.raises(ValueError, match="name"):
            brightness_hasse([tv(1.0, 0.0)])

    @pytest.mark.parametrize("tol, message", [
        (float("nan"), "tol must be finite, got nan"),
        (-1.0, "tol must be nonnegative, got -1.0"),
        (float("inf"), "tol must be finite, got inf"),
    ])
    def test_tol_checked_for_one_vector(self, tol, message):
        # a single vector is compared with nothing, so only the entry check sees tol
        with pytest.raises(ValueError, match=message):
            brightness_hasse([TimbralVector([1.0], "a")], tol)
