import collections
import itertools
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder import _kernels, setclass
from qorder.orders import relation_axioms
from qorder.setclass import (
    PitchClassSet,
    SetClass,
    SpanProfile,
    burnside_count,
    canonical_form,
    class_from_json,
    class_to_json,
    enumerate_set_classes,
    span_limited_classes,
    span_limited_minimal,
    span_profile,
    subset_order,
    thirds_criterion_holds,
)

from reference_setclass import filtered_family, least_rotations
from structures import class_leq

# orbit counts for 2 colours (hand-checked against the counting formula)
EXPECTED_COUNTS = {
    1: 2, 2: 3, 3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36,
    9: 60, 10: 108, 11: 188, 12: 352, 13: 632, 14: 1182, 15: 2192, 16: 4116,
}


def pcs(edo, members):
    return PitchClassSet(edo, tuple(members))


def cls(edo, members):
    return canonical_form(pcs(edo, members))


def rotate_and_sort(p):
    """Reference canonical members: the least sorted transposition, tried one by one."""
    best = p.members
    for t in range(1, p.edo):
        candidate = tuple(sorted((x + t) % p.edo for x in p.members))
        if candidate < best:
            best = candidate
    return best


@st.composite
def pitch_class_sets(draw):
    edo = draw(st.integers(1, 24))
    return PitchClassSet.from_mask(edo, draw(st.integers(0, (1 << edo) - 1)))


@st.composite
def small_masks(draw):
    """An edo of at most 14 and a mask below it."""
    edo = draw(st.integers(1, 14))
    return edo, draw(st.integers(0, (1 << edo) - 1))


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


class TestPitchClassSet:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pcs(12, (0, 12))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            PitchClassSet(12, (0, 0, 4))

    @pytest.mark.parametrize("members, message", [
        ((4, 0, 4), "duplicate pitch classes in (0, 4, 4)"),
        ((5, -3, -1), "pitch class -3 out of range for edo 12"),
        ((15, 0, 13, 12), "pitch class 12 out of range for edo 12"),
    ])
    def test_error_texts(self, members, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PitchClassSet(12, members)

    def test_members_sorted_ints(self):
        a = PitchClassSet(12, (np.int64(7), 4.0, 0))
        assert a.members == (0, 4, 7)
        assert all(type(x) is int for x in a.members)
        assert PitchClassSet(12, {7, 4, 0}) == PitchClassSet(12, iter([4, 0, 7])) == a

    @pytest.mark.parametrize("member", [0.5, 4.7, float("inf"), float("nan")])
    def test_rejects_non_integer_members(self, member):
        with pytest.raises(ValueError, match="pitch classes must be integers"):
            PitchClassSet(12, (0, member))
        with pytest.raises(ValueError, match="pitch classes must be integers"):
            class_from_json({"edo": 12, "members": [member, 7]})

    @pytest.mark.parametrize("members, big", [((0, 2**64), 2**64), ((0, 2**63), 2**63),
                                              ((2**63,), 2**63), ((-(2**63) - 1, 3), -(2**63) - 1)])
    def test_names_integers_past_int64(self, members, big):
        # numpy reads these as float64, an object or a wrapped uint64
        message = f"pitch classes must be integers below 2**63 in magnitude, got {big}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PitchClassSet(12, members)

    @pytest.mark.parametrize("edo, members, message", [
        (12, (0, True), "pitch classes must be integers, got booleans"),
        (12, (False, True), "pitch classes must be integers, got booleans"),
        (12, (np.True_, 3), "pitch classes must be integers, got booleans"),
        (True, (0,), "edo must be an integer, got True"),
    ])
    def test_rejects_booleans(self, edo, members, message):
        # numpy reads (0, True) as the integers (0, 1)
        for build in (lambda: PitchClassSet(edo, members),
                      lambda: class_from_json({"edo": edo, "members": list(members)})):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    @pytest.mark.parametrize("edo", [12.5, 12.7, float("inf"), float("nan"), None])
    def test_rejects_non_integer_edo(self, edo):
        with pytest.raises(ValueError, match="edo must be an integer"):
            PitchClassSet(edo, (0, 4))
        with pytest.raises(ValueError, match="edo must be an integer"):
            class_from_json({"edo": edo, "members": [0, 4]})

    def test_integral_edo_becomes_int(self):
        for edo in (12.0, np.int64(12), np.uint8(12)):
            a = PitchClassSet(edo, (4, 0))
            assert a.edo == 12 and type(a.edo) is int
            assert class_to_json(class_from_json({"edo": edo, "members": [0, 4]}))["edo"] == 12

    def test_accepts_numpy_ints(self):
        a = PitchClassSet(12, (np.int64(7), np.int32(4), np.uint8(0)))
        assert a.members == (0, 4, 7)
        assert all(type(x) is int for x in a.members)
        blob = {"edo": 12, "members": [np.int64(4), np.int64(0)]}
        assert class_to_json(class_from_json(blob)) == {"edo": 12, "members": [0, 4]}

    def test_mask_round_trip(self):
        a = pcs(12, (0, 4, 7))
        assert PitchClassSet.from_mask(12, a.mask) == a

    def test_from_mask_ignores_bits_above_edo(self):
        assert PitchClassSet.from_mask(5, 0b1100001).members == (0,)
        assert PitchClassSet.from_mask(5, -1).members == (0, 1, 2, 3, 4)
        with pytest.raises(ValueError, match="edo must be at least 1"):
            PitchClassSet.from_mask(-1, 3)

    def test_from_mask_follows_the_edo_rule(self):
        a = PitchClassSet.from_mask(12.0, 5)
        assert a == PitchClassSet(12, (0, 2)) and type(a.edo) is int
        with pytest.raises(ValueError, match="edo must be an integer"):
            PitchClassSet.from_mask(12.5, 5)
        with pytest.raises(ValueError, match="edo must be an integer"):
            PitchClassSet.from_mask("12", 5)

    def test_rejects_nested_members(self):
        with pytest.raises(ValueError, match="flat sequence"):
            PitchClassSet(12, ((0, 4),))

    def test_strings_are_not_integers(self):
        with pytest.raises(ValueError, match="edo must be an integer"):
            PitchClassSet("12", (0, 4))
        with pytest.raises(ValueError, match="pitch classes must be integers"):
            PitchClassSet(12, (0, "4"))


class TestCanonicalForm:
    def test_transposition_collapse(self):
        assert cls(12, (2, 6, 9)) == cls(12, (0, 4, 7))
        assert cls(12, (1, 5, 9)) == cls(12, (0, 4, 8))
        assert cls(12, (1, 5, 9)).members == (0, 4, 8)

    def test_empty(self):
        assert cls(12, ()).members == ()

    def test_nonempty_rep_contains_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            members = tuple(np.flatnonzero(rng.random(12) < 0.4))
            c = cls(12, members)
            if members:
                assert c.members[0] == 0

    def test_rep_is_lexicographically_least(self):
        a = pcs(12, (0, 4, 7))
        rotations = sorted(
            tuple(sorted((x + t) % 12 for x in a.members)) for t in range(12)
        )
        assert cls(12, a.members).members == rotations[0]

    def test_matches_rotate_and_sort_exhaustive(self):
        for edo in range(1, 15):
            for mask in range(1 << edo):
                p = PitchClassSet.from_mask(edo, mask)
                assert canonical_form(p).members == rotate_and_sort(p), (edo, mask)

    @PROPERTY
    @given(pitch_class_sets(), st.integers(-30, 30))
    def test_transposition_invariant(self, p, t):
        assert canonical_form(p.transpose(t)) == canonical_form(p)

    @PROPERTY
    @given(pitch_class_sets())
    def test_idempotent_and_starts_at_zero(self, p):
        c = canonical_form(p)
        assert canonical_form(c) == c
        assert c.cardinality == p.cardinality
        if p.members:
            assert c.members[0] == 0

    def test_invariance_exhaustive_small(self):
        for edo in range(1, 8):
            for mask in range(1 << edo):
                base = PitchClassSet.from_mask(edo, mask)
                expected = canonical_form(base)
                for t in range(edo):
                    assert canonical_form(base.transpose(t)) == expected

    def test_invariance_randomized_twelve(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            members = tuple(np.flatnonzero(rng.random(12) < 0.5))
            base = pcs(12, members)
            t = int(rng.integers(0, 12))
            assert canonical_form(base.transpose(t)) == canonical_form(base)

    def test_json_round_trip(self):
        c = cls(12, (2, 6, 9))
        blob = class_to_json(c)
        assert blob == {"edo": 12, "members": [0, 3, 8]}
        assert class_from_json(blob) == c
        # non-canonical members canonicalize on the way in
        assert class_from_json({"edo": 12, "members": [2, 6, 9]}) == c


class TestSetClassIsItsCanonicalSet:
    @PROPERTY
    @given(small_masks())
    def test_every_constructor_canonicalises(self, drawn):
        edo, mask = drawn
        p = PitchClassSet.from_mask(edo, mask)
        c = SetClass(edo, p.members)
        assert c == canonical_form(p)
        assert canonical_form(c) == c
        assert SetClass.from_mask(edo, mask) == canonical_form(p)

    def test_non_canonical_members_are_replaced(self):
        c = SetClass(12, (4, 7, 11))
        assert c.members == (0, 3, 7) and str(c) == "{0,3,7}"
        assert class_from_json({"edo": 12, "members": [11, 4, 7]}) == c

    @PROPERTY
    @given(small_masks(), st.integers(-30, 30))
    def test_never_equals_a_plain_set(self, drawn, t):
        c = SetClass.from_mask(*drawn)
        plain = PitchClassSet(c.edo, c.members)
        assert c != plain and plain != c
        moved = c.transpose(t)
        assert type(moved) is PitchClassSet
        assert canonical_form(moved) == c

    @pytest.mark.parametrize("edo, members", [
        (12, (0, 12)),
        (12, (4, 0, 4)),
        (12, (5, -3, -1)),
        (12, (0, 0.5)),
        (12, (0, float("nan"))),
        (12, (0, "4")),
        (12, ((0, 4),)),
        (12, 5),
        (12.5, (0,)),
        ("12", (0,)),
        (None, ()),
        (0, ()),
        (-1, (0,)),
    ])
    def test_refuses_what_a_set_refuses(self, edo, members):
        with pytest.raises((ValueError, TypeError)) as plain:
            PitchClassSet(edo, members)
        with pytest.raises((ValueError, TypeError)) as klass:
            SetClass(edo, members)
        assert type(klass.value) is type(plain.value)
        assert str(klass.value) == str(plain.value)

    def test_one_object_with_the_sets_fields(self):
        assert [f.name for f in fields(SetClass)] == [f.name for f in fields(PitchClassSet)]
        assert not vars(SetClass).get("__annotations__")
        assert [f.name for f in fields(SpanProfile)] == ["seconds"]
        assert SpanProfile((2, 2, 1)).thirds == (4, 3, 3)


class TestEnumeration:
    def test_small_counts_match_oracle_table(self):
        for edo, expected in EXPECTED_COUNTS.items():
            assert len(enumerate_set_classes(edo)) == expected
            assert burnside_count(edo) == expected

    def test_three_tone_brute_force(self):
        # group the 8 subsets of Z_3 by pairwise transposition equivalence
        subsets = [PitchClassSet.from_mask(3, m) for m in range(8)]
        seen = []
        for s in subsets:
            images = {tuple(sorted((x + t) % 3 for x in s.members)) for t in range(3)}
            if not any(tuple(sorted(r.members)) in images for r in seen):
                seen.append(s)
        classes = enumerate_set_classes(3)
        assert len(classes) == len(seen) == 4
        assert [c.members for c in classes] == [(), (0,), (0, 1), (0, 1, 2)]

    def test_counts_match_orbit_formula_to_twenty(self):
        for edo in range(1, 21):
            assert len(enumerate_set_classes(edo)) == burnside_count(edo), edo

    def test_classes_equal_validated_rebuilds(self):
        # the enumerator builds its values without the constructors' checks
        for edo in range(1, 15):
            for c in enumerate_set_classes(edo):
                rebuilt = SetClass(edo, c.members)
                assert c == rebuilt and hash(c) == hash(rebuilt), (edo, c)
                assert type(c) is SetClass and type(c.edo) is int
                assert canonical_form(c) == c, (edo, c)

    def test_every_entry_point_follows_the_edo_rule(self):
        assert enumerate_set_classes(12.0) == enumerate_set_classes(12)
        assert burnside_count(12.0) == burnside_count(12) == 352
        assert span_limited_minimal(12.0, 3.0) == span_limited_minimal(12, 3)
        calls = (enumerate_set_classes, burnside_count, lambda edo: span_limited_classes(edo, 2))
        for bad, call in itertools.product((12.5, "12", None), calls):
            with pytest.raises(ValueError, match="edo must be an integer"):
                call(bad)
        with pytest.raises(ValueError, match="max_second must be an integer"):
            span_limited_classes(12, 2.5)
        with pytest.raises(ValueError, match="edo must be at least 1"):
            burnside_count(0)

    def test_numpy_edo_gives_plain_ints(self):
        classes = enumerate_set_classes(np.int64(6))
        assert classes == enumerate_set_classes(6)
        assert all(type(c.edo) is int for c in classes)

    def test_includes_empty_class(self):
        assert enumerate_set_classes(5)[0].cardinality == 0

    def test_cap(self):
        with pytest.raises(ValueError, match="range"):
            enumerate_set_classes(30)


class TestClassLeq:
    def test_identity_embedding(self):
        assert class_leq(cls(12, (0, 4, 7)), cls(12, (0, 4, 7, 10)))

    def test_minor_triad_not_in_dominant_seventh(self):
        # oracle: the three-element subclasses of {0,4,7,10}
        parent = (0, 4, 7, 10)
        subclasses = {
            cls(12, combo) for combo in itertools.combinations(parent, 3)
        }
        assert cls(12, (0, 3, 7)) not in subclasses
        assert not class_leq(cls(12, (0, 3, 7)), cls(12, parent))
        # and the full subset test agrees with the oracle for members
        for combo in itertools.combinations(parent, 3):
            assert class_leq(cls(12, combo), cls(12, parent))

    def test_empty_below_everything(self):
        empty = cls(12, ())
        for c in enumerate_set_classes(12)[:40]:
            assert class_leq(empty, c)

    def test_edo_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            class_leq(cls(12, (0,)), cls(7, (0,)))

    def test_partial_order_on_all_twelve_tone_classes(self):
        classes = enumerate_set_classes(12)
        rel = subset_order(classes)
        axioms = relation_axioms(rel)
        assert axioms.partial_order

    def test_subset_order_holds_one_table(self):
        for edo, max_second in ((16, 6), (18, 3)):
            classes = span_limited_classes(edo, max_second)
            count = len(classes)
            tracemalloc.start()
            try:
                rel = subset_order(classes)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rel.size == count
            assert peak < count * -(-count // 64) * 8 + (2 << 20)

    def test_subset_order_family_limit(self, monkeypatch):
        classes = enumerate_set_classes(6)
        monkeypatch.setattr(setclass, "MAX_ORDER_CLASSES", len(classes))
        assert subset_order(classes).size == len(classes)

        def no_allocation(masks, n):
            raise AssertionError("kernel reached above the family limit")

        monkeypatch.setattr(setclass, "MAX_ORDER_CLASSES", len(classes) - 1)
        monkeypatch.setattr(_kernels, "subset_leq_matrix", no_allocation)
        with pytest.raises(ValueError, match=f"limit of {len(classes) - 1}"):
            subset_order(classes)

    def test_subset_order_refuses_a_family_not_closed(self):
        # without its full class, Z_12 is refused at its one class of 11 members
        message = "family not closed under adding a member: {0,1,2,3,4,5,6,7,8,9,10} plus pitch class 11"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} leaves it$"):
            subset_order([c for c in enumerate_set_classes(12) if c.cardinality < 12])
        # the major triad alone, named by its representative
        with pytest.raises(ValueError, match=re.escape("{0,3,8} plus pitch class 1 leaves it")):
            subset_order([cls(12, (0, 4, 7))])
        # without the empty class, the family is still closed
        assert subset_order(enumerate_set_classes(12)[1:]).size == 351

    @pytest.mark.parametrize("edo, max_second", [*((edo, None) for edo in range(1, 13)), (24, 2)])
    def test_order_masks_are_the_class_masks(self, monkeypatch, edo, max_second):
        # the masks that subset_order hands its kernel, with the empty class
        # first and last, and at (24, 2) classes holding bit 23
        seen = []

        def record(masks, n):
            seen.append(masks.tolist())
            return np.zeros((len(masks), -(-len(masks) // 64)), "<u8")

        monkeypatch.setattr(_kernels, "subset_leq_matrix", record)
        classes = enumerate_set_classes(edo, max_second)
        for family in (classes, classes[::-1]):
            subset_order(family)
            assert seen.pop() == [c.mask for c in family]
        assert any(c.mask >> 23 for c in classes) == (edo == 24)

    def test_cardinality_monotone(self):
        rng = np.random.default_rng(17)
        classes = enumerate_set_classes(10)
        for _ in range(300):
            a, b = rng.choice(len(classes), size=2)
            if class_leq(classes[a], classes[b]):
                assert classes[a].cardinality <= classes[b].cardinality

    def test_agrees_with_quotient_relation_small(self):
        # the set-class order is the quotient of inclusion on the full
        # powerset: weak and strong quotient relations equal the subset order,
        # and, up to edo 6, the direct class-level subset test
        from qorder.orders import induced_relations
        from structures import powerset_inclusion

        for edo in range(2, 11):
            rel, action = powerset_inclusion(edo)
            classes = enumerate_set_classes(edo)
            position = {c: i for i, c in enumerate(classes)}
            order = subset_order(classes).holds
            for mode, quotient in zip(("strong", "weak"), induced_relations(rel, action)):
                matched = [canonical_form(PitchClassSet.from_mask(edo, orbit[0]))
                           for orbit in quotient.orbits]
                ids = [position[c] for c in matched]
                assert sorted(ids) == list(range(len(classes)))
                assert np.array_equal(quotient.relation.holds, order[np.ix_(ids, ids)]), (edo, mode)
                if edo > 6:
                    continue
                for a_id, ca in enumerate(matched):
                    for b_id, cb in enumerate(matched):
                        assert quotient.relation.holds[a_id, b_id] == class_leq(ca, cb), (
                            edo, mode, ca, cb,
                        )


class TestSpanProfile:
    def test_diatonic_spelling(self):
        profile = span_profile(pcs(12, (0, 2, 4, 5, 7, 9, 11)))
        assert profile.seconds == (2, 2, 1, 2, 2, 2, 1)
        assert profile.thirds == (4, 3, 3, 4, 4, 3, 3)

    def test_augmented_symmetry(self):
        profile = span_profile(cls(12, (0, 4, 8)))
        assert profile.seconds == (4, 4, 4)
        assert profile.thirds == (8, 8, 8)

    def test_singleton_wraps_octave(self):
        assert span_profile(cls(12, (0,))).seconds == (12,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            span_profile(cls(12, ()))

    def test_seconds_sum_to_octave(self):
        for c in enumerate_set_classes(9):
            if c.cardinality:
                assert sum(span_profile(c).seconds) == 9

    @PROPERTY
    @given(pitch_class_sets(), st.integers(-30, 30))
    def test_transposed_profile_is_a_rotation(self, p, t):
        if not p.members:
            return
        base, moved = span_profile(p), span_profile(p.transpose(t))
        assert any(
            moved.seconds == base.seconds[i:] + base.seconds[:i]
            and moved.thirds == base.thirds[i:] + base.thirds[:i]
            for i in range(len(base.seconds))
        )

    def test_thirds_are_adjacent_sums(self):
        for c in enumerate_set_classes(8):
            if not c.cardinality:
                continue
            profile = span_profile(c)
            n = len(profile.seconds)
            for i in range(n):
                assert profile.thirds[i] == profile.seconds[i] + profile.seconds[(i + 1) % n]


class TestSpanLimitedFamilies:
    def test_chromatic_only_at_one(self):
        family = span_limited_classes(12, 1)
        assert [c.members for c in family] == [tuple(range(12))]

    def test_diatonic_in_two(self):
        assert cls(12, (0, 2, 4, 5, 7, 9, 11)) in span_limited_classes(12, 2)

    def test_cluster_excluded_by_wrap(self):
        assert cls(12, (0, 1, 2)) not in span_limited_classes(12, 2)

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="max_second"):
            span_limited_classes(12, 0)
        # a wrong edo is reported before the max_second it bounds
        with pytest.raises(ValueError, match="edo must be at least 1"):
            span_limited_classes(0, 1)
        with pytest.raises(ValueError, match="edo 30 outside supported range"):
            span_limited_classes(30, 40)

    def test_cardinality_screen_drops_no_class(self):
        for edo in range(1, 15):
            classes = enumerate_set_classes(edo)
            for max_second in range(1, edo + 1):
                unscreened = [c for c in classes
                              if c.cardinality and max(span_profile(c).seconds) <= max_second]
                assert span_limited_classes(edo, max_second) == unscreened, (edo, max_second)


class TestStepBoundPerOrbit:
    """``enumerate_set_classes(edo, max_second)`` decides the bound on orbit
    minima and canonicalises only the family; the reference filters every
    canonicalised class."""

    @pytest.mark.parametrize("edo", range(1, 17))
    def test_every_bound_matches_the_filter(self, edo):
        classes = enumerate_set_classes(edo)
        for max_second in range(1, edo + 1):
            expected = filtered_family(classes, edo, max_second)
            assert enumerate_set_classes(edo, max_second) == expected, max_second
            assert span_limited_classes(edo, max_second) == expected, max_second

    @pytest.mark.parametrize("edo", range(17, 21))
    def test_small_bounds_match_the_filter_above_16(self, edo):
        classes = enumerate_set_classes(edo)
        for max_second in range(1, 5):
            expected = filtered_family(classes, edo, max_second)
            assert enumerate_set_classes(edo, max_second) == expected, max_second

    @pytest.mark.parametrize("max_second, size", [(1, 1), (3, 3244)])
    def test_only_the_family_is_canonicalised(self, monkeypatch, max_second, size):
        # one step profile per class, taken by canonical_form, and no set
        # object for an orbit that the mask test rejects
        calls = collections.Counter()
        originals = {name: getattr(setclass, name) for name in ("canonical_form", "span_profile", "_derived")}

        def counted(name):
            def call(*args):
                calls[args[0].__name__ if name == "_derived" else name] += 1
                return originals[name](*args)

            return call

        for name in originals:
            monkeypatch.setattr(setclass, name, counted(name))
        family = span_limited_classes(18, max_second)
        assert len(family) == size
        assert dict(calls) == {"canonical_form": size, "span_profile": size,
                               "PitchClassSet": size, "SetClass": size}

    def test_oversized_family_refused_before_any_class(self, monkeypatch):
        # edo 12, steps up to 12: 351 nonempty classes
        def no_class(pcs):
            raise AssertionError("a class was built above the family limit")

        monkeypatch.setattr(setclass, "MAX_ORDER_CLASSES", 100)
        # the family itself is not limited
        assert len(span_limited_classes(12, 12)) == len(enumerate_set_classes(12, 12)) == 351
        monkeypatch.setattr(setclass, "canonical_form", no_class)
        # the packed table of 351 classes: 351 rows of 6 words
        refusal = r"family of 351 classes exceeds the subset order's limit of 100 \(its table would take 16848 bytes\)"
        for call in (span_limited_minimal, thirds_criterion_holds):
            with pytest.raises(ValueError, match=refusal):
                call(12, 12)

    @pytest.mark.parametrize("edo, max_second, message", [
        (0, 1, "edo must be at least 1"),
        (30, 40, "edo 30 outside supported range"),
        (12.5, 1, "edo must be an integer, got 12.5"),
        (12, 0, "max_second 0 outside 1..12"),
        (12, 13, "max_second 13 outside 1..12"),
        (12, 2.5, "max_second must be an integer, got 2.5"),
        (12, "2", "max_second must be an integer, got '2'"),
    ])
    def test_same_errors_through_both_entry_points(self, edo, max_second, message):
        errors = []
        for entry in (enumerate_set_classes, span_limited_classes):
            with pytest.raises(ValueError, match=re.escape(message)) as info:
                entry(edo, max_second)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_integral_float_bound_accepted(self):
        assert enumerate_set_classes(12.0, 2.0) == span_limited_classes(12, 2)


TABLE_MINIMAL = {
    2: [
        (0, 1, 3, 4, 6, 7, 9, 10),   # octatonic scale
        (0, 2, 3, 5, 7, 9, 11),      # melodic minor scale
        (0, 2, 4, 5, 7, 9, 11),      # diatonic scale
        (0, 2, 4, 6, 8, 10),         # whole tone scale
    ],
    3: [
        (0, 1, 4, 5, 8, 9),          # symmetric scale
        (0, 2, 4, 6, 8, 10),         # whole tone scale
        (0, 2, 4, 7, 9),             # pentatonic scale (printed with a spurious 11)
        (0, 2, 4, 7, 10),            # dominant ninth chord
        (0, 3, 4, 7, 9),             # a blues scale
        (0, 3, 4, 7, 10),            # dominant seventh sharp nine
        (0, 3, 6, 9),                # diminished chord
    ],
    4: [
        (0, 3, 6, 9),                # diminished chord
        (0, 3, 6, 10),               # half-diminished chord
        (0, 3, 7, 10),               # minor seventh chord
        (0, 4, 6, 10),               # dominant seventh flat five
        (0, 4, 7, 10),               # dominant seventh chord
        (0, 4, 7, 11),               # major seventh chord
        (0, 4, 8),                   # augmented triad
    ],
    5: [
        (0, 3, 6, 9),                # diminished chord
        (0, 3, 7),                   # minor triad
        (0, 4, 6, 10),               # dominant seventh flat five
        (0, 4, 7),                   # major triad
        (0, 4, 8),                   # augmented triad
        (0, 5, 6, 11),               # symmetric chord
        (0, 5, 10),                  # quartal triad
    ],
}


class TestMinimalClasses:
    @pytest.mark.parametrize("max_second", [2, 3, 4, 5])
    def test_twelve_tone_catalogue(self, max_second):
        got = set(span_limited_minimal(12, max_second))
        expected = {cls(12, members) for members in TABLE_MINIMAL[max_second]}
        assert got == expected

    def test_counts(self):
        assert [len(span_limited_minimal(12, k)) for k in (2, 3, 4, 5)] == [4, 7, 7, 7]

    def test_only_the_minimal_classes_are_canonicalised(self, monkeypatch):
        calls = []
        original = setclass.canonical_form

        def counted(pcs):
            calls.append(pcs)
            return original(pcs)

        monkeypatch.setattr(setclass, "canonical_form", counted)
        result = span_limited_minimal(16, 6)
        assert len(calls) == len(result) > 0
        assert all(type(c) is SetClass for c in result)
        assert [c.members for c in result] == sorted(c.members for c in result)


class TestLeastMaskOrder:
    """The order path runs on each orbit's least-mask set, not on its class."""

    @pytest.mark.parametrize("edo, max_second", [(12, 3), (15, 7), (16, 6)])
    def test_order_family_is_ascending_least_masks(self, edo, max_second):
        family = span_limited_classes(edo, max_second, _for_order=True)
        assert {type(p) for p in family} == {PitchClassSet}
        masks = np.array([p.mask for p in family])
        assert (np.diff(masks) > 0).all()
        assert np.array_equal(least_rotations(masks, edo), masks)
        # one set for each class of the family
        members = sorted(canonical_form(p).members for p in family)
        assert members == [c.members for c in span_limited_classes(edo, max_second)]

    @pytest.mark.parametrize("edo, max_second", [(12, 3), (15, 7), (16, 6)])
    def test_subset_order_takes_any_representative(self, edo, max_second):
        classes = span_limited_classes(edo, max_second)
        shifts = np.random.default_rng(edo * 100 + max_second).integers(edo, size=len(classes))
        moved = [c.transpose(int(t)) for c, t in zip(classes, shifts)]
        assert [canonical_form(p) for p in moved] == classes
        assert sum(p.members != c.members for p, c in zip(moved, classes)) > len(classes) // 2
        assert np.array_equal(subset_order(moved).rows, subset_order(classes).rows)


class TestThirdsCriterion:
    @pytest.mark.parametrize("max_second", [2, 3, 4, 5])
    def test_twelve_tone(self, max_second):
        assert thirds_criterion_holds(12, max_second)

    def test_seven_tone(self):
        assert thirds_criterion_holds(7, 2)

    # beyond A02's N <= 12: the uint16 and uint32 mask paths end to end
    @pytest.mark.parametrize("edo, max_second", [(16, 6), (17, 3)])
    def test_large_systems(self, edo, max_second):
        assert thirds_criterion_holds(edo, max_second)

    def test_all_small_systems(self):
        for edo in range(1, 11):
            for k in range(1, edo + 1):
                assert thirds_criterion_holds(edo, k), (edo, k)
