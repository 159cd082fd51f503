import itertools
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorder import orders
from qorder.orders import (
    MAX_GROUND_SIZE,
    Comparison,
    FiniteRelation,
    GroupAction,
    action_from_json,
    action_properties,
    induced_relations,
    minimal_elements,
    maximal_elements,
    orbits,
    relation_axioms,
    relation_from_json,
    submajorize_compare,
    transitive_reduction,
)

from structures import (
    action_to_json,
    force_increasing,
    group_from_generators,
    powerset_inclusion,
    random_group_action,
    random_partial_order,
    reference_action_properties,
    reference_group_perms,
    reference_induced_table,
    reference_orbits,
    reflexive_closure,
    relation_to_json,
    transitive_closure,
    unbounded_elements,
    unpacked_rows,
)


def as_tuples(perms):
    return tuple(map(tuple, perms.tolist()))


def chain(n):
    table = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i, n):
            table[i, j] = True
    return FiniteRelation(n, table)


class TestGroupAction:
    def test_requires_identity(self):
        with pytest.raises(ValueError, match="identity"):
            GroupAction(2, ((1, 0),))

    def test_requires_closure(self):
        # 3-cycle without its square is not closed
        with pytest.raises(ValueError, match="closed"):
            GroupAction(3, ((0, 1, 2), (1, 2, 0)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            GroupAction(2, ((0, 0),))

    def test_permutation_check_matches_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            size = int(rng.integers(0, 6))
            rows = rng.integers(-1, size + 1, size=(int(rng.integers(0, 4)), size))
            rows[rng.random(len(rows)) < 0.5] = rng.permutation(size)
            valid = all(sorted(row) == list(range(size)) for row in rows.tolist())
            if valid:
                assert np.array_equal(orders._permutation_array(size, rows), rows)
            else:
                with pytest.raises(ValueError, match="not a permutation"):
                    orders._permutation_array(size, rows)

    def test_from_generators_closes(self):
        action = group_from_generators(3, [(1, 2, 0)])
        assert len(action) == 3

    def test_from_generators_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            group_from_generators(3, [(1, 2)])
        with pytest.raises(ValueError, match="permutation"):
            group_from_generators(2, [(-1, 0)])

    @pytest.mark.parametrize("size, gens", [
        (12, [tuple(np.roll(range(12), 1))]),
        (9, [tuple(np.roll(range(9), 1)), tuple((-np.arange(9)) % 9)]),
        (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
    ], ids=["cyclic", "dihedral", "s5"])
    def test_from_generators_matches_constructor(self, size, gens):
        caller = np.array(gens, dtype=np.intp)
        action = group_from_generators(size, caller)
        assert caller.flags.writeable
        checked = GroupAction(size, action.perms.tolist())
        assert action.size == checked.size
        assert action.perms.dtype == np.intp and not action.perms.flags.writeable
        assert np.array_equal(action.perms, checked.perms)
        rng = np.random.default_rng(size)
        member = action.perms[int(rng.integers(len(action)))]
        for rel in (FiniteRelation(size, rng.random((size, size)) < 0.3),
                    force_increasing(chain(size), group_from_generators(size, [member])),
                    force_increasing(chain(size), action)):
            assert action_properties(rel, action) == action_properties(rel, checked)

    def test_json_round_trip(self):
        action = group_from_generators(3, [(1, 2, 0)])
        again = action_from_json(action_to_json(action))
        assert as_tuples(again.perms) == as_tuples(action.perms)

    def test_empty_ground_set(self):
        action = GroupAction(0, ((),))
        assert as_tuples(action.perms) == ((),)
        assert orbits(action).orbits == ()
        _, weak = induced_relations(FiniteRelation(0, np.zeros((0, 0))), action)
        assert weak.relation.size == 0

    def test_every_s3_subset_with_identity(self):
        identity, *others = itertools.permutations(range(3))
        accepted = 0
        for r in range(len(others) + 1):
            for chosen in itertools.combinations(others, r):
                accepted += agrees_with_reference(3, (identity, *chosen), np.random.default_rng(r))
        # the six subgroups of S3
        assert accepted == 6

    def test_random_s4_subsets(self):
        rng = np.random.default_rng(44)
        perms = list(itertools.permutations(range(4)))
        accepted = 0
        for trial in range(500):
            if trial % 2:
                chosen = [p for p in perms[1:] if rng.random() < rng.uniform(0.0, 0.4)]
            else:
                gens = [perms[i] for i in rng.choice(24, size=int(rng.integers(1, 3)))]
                chosen = list(as_tuples(group_from_generators(4, gens).perms[1:]))
                if trial % 4 and chosen:  # a subgroup less one element
                    chosen.pop(int(rng.integers(len(chosen))))
            order = rng.permutation(len(chosen) + 1)
            listed = [(perms[0], *chosen)[i] for i in order]
            accepted += agrees_with_reference(4, listed, rng)
        assert 100 < accepted < 400

    def test_all_of_s7_under_a_second(self):
        perms = list(itertools.permutations(range(7)))
        start = time.perf_counter()
        action = GroupAction(7, tuple(reversed(perms)))
        assert time.perf_counter() - start < 1.0
        assert as_tuples(action.perms) == tuple(perms)
        assert action.perms.dtype == np.intp and not action.perms.flags.writeable
        with pytest.raises(ValueError, match="closed"):
            GroupAction(7, tuple(perms[:2000] + perms[2001:]))

    def test_all_of_s8_under_five_seconds(self):
        start = time.perf_counter()
        action = group_from_generators(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])
        assert time.perf_counter() - start < 5.0
        assert len(action) == 40320


def agrees_with_reference(size, listed, rng):
    """Whether ``listed`` is a group; raises AssertionError when the action
    or its orbits, quotients or properties disagree with the loop references."""
    try:
        expected = reference_group_perms(size, listed)
    except ValueError as exc:
        with pytest.raises(ValueError, match="closed"):
            GroupAction(size, tuple(listed))
        assert "closed" in str(exc)
        return False
    action = GroupAction(size, tuple(listed))
    assert as_tuples(action.perms) == expected
    quotient = orbits(action)
    assert (quotient.class_index, quotient.orbits) == reference_orbits(action)
    rel = FiniteRelation(size, rng.random((size, size)) < rng.uniform(0.0, 0.7))
    for mode, induced in zip(("strong", "weak"), induced_relations(rel, action)):
        assert np.array_equal(induced.relation.holds, reference_induced_table(rel, action, mode))
    props = action_properties(rel, action)
    assert (props.increasing, props.transverse) == reference_action_properties(rel, action)
    assert_generator_check_agrees(rel, action, rng)
    return True


def assert_generator_check_agrees(rel, action, rng):
    """The generators the closure walk keeps generate the group, and the
    generator-only "increasing" check agrees with the all-permutation loop on
    a relation preserved by the subgroup of one random member."""
    generated = group_from_generators(action.size, action._generators)
    assert as_tuples(generated.perms) == as_tuples(action.perms)
    member = action.perms[int(rng.integers(len(action)))]
    invariant = force_increasing(rel, group_from_generators(action.size, [member]))
    props = action_properties(invariant, action)
    assert (props.increasing, props.transverse) == reference_action_properties(invariant, action)


class TestOrbits:
    def test_swap_identifies(self):
        action = GroupAction(2, ((0, 1), (1, 0)))
        assert orbits(action).orbits == ((0, 1),)

    def test_trivial_group_singletons(self):
        action = GroupAction(3, ((0, 1, 2),))
        assert orbits(action).orbits == ((0,), (1,), (2,))

    def test_z2_subsets_under_rotation(self):
        _, action = powerset_inclusion(2)
        # masks: 0 = {}, 1 = {0}, 2 = {1}, 3 = {0,1}
        assert orbits(action).orbits == ((0,), (1, 2), (3,))


class TestInducedRelation:
    def test_matches_reference_on_random_relations(self):
        rng = np.random.default_rng(300)
        for _ in range(300):
            size = int(rng.integers(1, 10))
            # two generators often give all of S_size: keep the reference quick
            gens = [rng.permutation(size) for _ in range(1 if size > 5 else 2)]
            action = group_from_generators(size, gens)
            assert agrees_with_reference(size, action.perms, rng)

    def test_matches_reference_on_powersets(self):
        for n in range(1, 7):
            rel, action = powerset_inclusion(n)
            for mode, quotient in zip(("strong", "weak"), induced_relations(rel, action)):
                assert np.array_equal(quotient.relation.holds, reference_induced_table(rel, action, mode))

    def test_z2_subsets_chain_both_modes(self):
        rel, action = powerset_inclusion(2)
        for quotient in induced_relations(rel, action):
            axioms = relation_axioms(quotient.relation)
            assert axioms.partial_order
            # [{}] <= [{0}] <= [{0,1}] with orbit ids 0, 1, 2
            assert quotient.relation.holds[0, 1]
            assert quotient.relation.holds[1, 2]
            assert quotient.relation.holds[0, 2]
            assert not quotient.relation.holds[1, 0]

    def test_weak_without_strong(self):
        # reflexive + 0 <= 1; action swaps (0 2)(1 3)
        rel = reflexive_closure(FiniteRelation.from_pairs(4, [(0, 1)]))
        action = group_from_generators(4, [(2, 3, 0, 1)])
        strong, weak = (quotient.relation for quotient in induced_relations(rel, action))
        a = orbits(action).class_index[0]
        b = orbits(action).class_index[1]
        assert weak.holds[a, b]
        assert not strong.holds[a, b]
        # consistent with the action not being increasing
        assert not action_properties(rel, action).increasing

    def test_trivial_action_quotient_is_identity(self):
        rng = np.random.default_rng(7)
        rel = random_partial_order(rng, 5)
        action = GroupAction(5, (tuple(range(5)),))
        for quotient in induced_relations(rel, action):
            assert (quotient.relation.holds == rel.holds).all()

    def test_size_mismatch(self):
        rel = chain(3)
        action = GroupAction(2, ((0, 1),))
        with pytest.raises(ValueError, match="mismatch"):
            induced_relations(rel, action)


class TestActionProperties:
    def test_swap_on_chain(self):
        rel = reflexive_closure(FiniteRelation.from_pairs(2, [(0, 1)]))
        action = GroupAction(2, ((0, 1), (1, 0)))
        props = action_properties(rel, action)
        assert not props.increasing
        assert not props.transverse

    def test_z4_subsets_increasing_and_transverse(self):
        rel, action = powerset_inclusion(4)
        props = action_properties(rel, action)
        assert props.increasing
        assert props.transverse

    def test_trivial_action(self):
        rng = np.random.default_rng(3)
        rel = random_partial_order(rng, 6)
        action = GroupAction(6, (tuple(range(6)),))
        props = action_properties(rel, action)
        assert props.increasing and props.transverse

    def test_empty_ground_set(self):
        props = action_properties(FiniteRelation(0, np.zeros((0, 0))), GroupAction(0, ((),)))
        assert props.increasing and props.transverse

    def test_cyclic_1024_under_half_a_second(self):
        # a relation every rotation preserves, so no permutation can stop the check early
        n = 1024
        action = group_from_generators(n, [tuple(range(1, n)) + (0,)])
        gap = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
        rel = FiniteRelation(n, gap < 3)
        start = time.perf_counter()
        props = action_properties(rel, action)
        assert time.perf_counter() - start < 0.5
        assert props.increasing and not props.transverse


class TestFiniteRelationTable:
    def test_writeable_input_is_copied(self):
        table = np.eye(3, dtype=bool)
        rel = FiniteRelation(3, table)
        table[0, 1] = True
        assert not rel.holds[0, 1]
        assert not rel.holds.flags.writeable

    def test_table_is_packed_into_rows(self):
        table = np.eye(3, dtype=bool)
        table[0, 2] = True
        rel = FiniteRelation(3, table)
        assert rel.rows.dtype == np.dtype("<u8") and rel.rows.tolist() == [[5], [2], [4]]
        assert not rel.rows.flags.writeable
        # unpacked afresh each time, no copy kept
        assert rel.holds is not rel.holds
        assert np.array_equal(rel.holds, table)

    def test_read_only_packed_rows_are_adopted(self):
        rows = np.array([[1], [3], [4]], dtype="<u8")
        rows.setflags(write=False)
        assert FiniteRelation.from_rows(3, rows).rows is rows
        reversed_rows = FiniteRelation.from_rows(3, rows[::-1])
        assert reversed_rows.rows.base is rows
        assert reversed_rows.pairs() == [(0, 2), (1, 0), (1, 1), (2, 0)]

    def test_writeable_rows_are_copied(self):
        # writeable, and a read-only view of writeable rows
        rows = np.array([[1], [2], [4]], dtype="<u8")
        view = rows.view()
        view.setflags(write=False)
        relations = [FiniteRelation.from_rows(3, rows), FiniteRelation.from_rows(3, view)]
        rows[0, 0] = 3
        for rel in relations:
            assert rel.pairs() == [(0, 0), (1, 1), (2, 2)]
            assert not rel.rows.flags.writeable

    def test_rows_of_the_wrong_shape_refused(self):
        with pytest.raises(ValueError, match=r"rows have shape \(3, 2\), expected \(3, 1\)"):
            FiniteRelation.from_rows(3, np.zeros((3, 2), dtype="<u8"))
        with pytest.raises(ValueError, match=r"rows have shape \(0, 1\), expected \(0, 0\)"):
            FiniteRelation.from_rows(0, np.zeros((0, 1), dtype="<u8"))

    def test_bits_past_the_last_column_refused(self):
        with pytest.raises(ValueError, match="bits past column 2"):
            FiniteRelation.from_rows(3, np.array([[1], [2], [8]], dtype="<u8"))
        rows = np.zeros((64, 1), dtype="<u8")
        rows[0, 0] = 1 << 63
        assert FiniteRelation.from_rows(64, rows).pairs() == [(0, 63)]

    def test_read_only_view_of_writeable_table_is_copied(self):
        table = np.eye(3, dtype=bool)
        view = table.view()
        view.setflags(write=False)
        rel = FiniteRelation(3, view)
        table[0, 1] = True
        assert not rel.holds[0, 1]

    def test_read_only_table_over_a_writeable_buffer_is_copied(self):
        buffer = bytearray(np.eye(3, dtype=bool).tobytes())
        flat = np.frombuffer(buffer, dtype=bool)
        flat.setflags(write=False)
        table = flat.reshape(3, 3)
        rel = FiniteRelation(3, table)
        buffer[1] = 1
        assert not rel.holds[0, 1]

    def test_read_only_non_bool_table_is_copied(self):
        table = np.eye(3, dtype=np.int8)
        table.setflags(write=False)
        rel = FiniteRelation(3, table)
        assert rel.holds.dtype == bool
        assert rel.holds.tolist() == np.eye(3, dtype=bool).tolist()


class TestRelationAxioms:
    def test_equality_relation(self):
        rel = FiniteRelation(3, np.eye(3, dtype=bool))
        axioms = relation_axioms(rel)
        assert axioms.reflexive and axioms.antisymmetric and axioms.transitive

    def test_two_cycle_not_antisymmetric(self):
        rel = FiniteRelation.from_pairs(2, [(0, 1), (1, 0)])
        assert not relation_axioms(rel).antisymmetric

    def test_missing_hop_not_transitive(self):
        rel = FiniteRelation.from_pairs(3, [(0, 1), (1, 2)])
        assert not relation_axioms(rel).transitive


@st.composite
def bool_tables(draw):
    """A square bool table of a size at a word boundary or beside one, with a
    diagonal that is full, empty or random: sparse, about 0 to 4 pairs a
    column so that some columns and rows are empty, or of any density."""
    size = draw(st.sampled_from([0, 1, 63, 64, 65, 127, 128, 129]))
    sparse = st.floats(0, 4).map(lambda per_column: per_column / max(size, 1))
    density = draw(st.one_of(sparse, st.floats(0, 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.random((size, size)) < density
    diagonal = draw(st.sampled_from(["reflexive", "irreflexive", "random"]))
    if diagonal != "random":
        np.fill_diagonal(table, diagonal == "reflexive")
    return table


class TestMinimalElements:
    def test_chain(self):
        assert minimal_elements(chain(3)) == {0}
        assert maximal_elements(chain(3)) == {2}

    def test_antichain(self):
        rel = FiniteRelation(3, np.eye(3, dtype=bool))
        assert minimal_elements(rel) == {0, 1, 2}

    def test_matches_brute_force(self):
        # any relation, reflexive or not: whole ground sets, and relations
        # restricted to a subset with np.ix_, the subset drawn with repeats
        rng = np.random.default_rng(23)
        for trial in range(300):
            size = int(rng.integers(0, 10))
            holds = rng.random((size, size)) < rng.uniform(0.0, 0.6)
            if trial % 3:
                drawn = rng.integers(0, max(size, 1), size=int(rng.integers(0, 2 * size + 1)))
                ids = np.unique(drawn[drawn < size])
                holds = holds[np.ix_(ids, ids)]
            rel = FiniteRelation(len(holds), holds)
            ids = range(len(holds))
            below = {i for i in ids if not any(holds[j, i] for j in ids if j != i)}
            above = {i for i in ids if not any(holds[i, j] for j in ids if j != i)}
            assert minimal_elements(rel) == below
            assert maximal_elements(rel) == above

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(bool_tables())
    def test_word_scans_match_dense_oracle(self, table):
        size = len(table)
        rel = FiniteRelation(size, table)
        assert np.array_equal(unpacked_rows(rel.rows, size), table)
        assert np.array_equal(rel.holds, table)
        assert minimal_elements(rel) == unbounded_elements(table, axis=0)
        assert maximal_elements(rel) == unbounded_elements(table, axis=1)

    def test_word_scans_across_blocks(self, monkeypatch):
        # blocks of three rows: diagonal bits at every offset within a block
        monkeypatch.setattr(orders, "_SCAN_BLOCK_BYTES", 3 * 16)
        rng = np.random.default_rng(29)
        for size in (65, 100, 129):
            table = rng.random((size, size)) < 1.5 / size
            np.fill_diagonal(table, True)
            rel = FiniteRelation(size, table)
            assert minimal_elements(rel) == unbounded_elements(table, axis=0)
            assert maximal_elements(rel) == unbounded_elements(table, axis=1)


def warshall_closure(holds):
    closure = holds.copy()
    for k in range(len(closure)):
        for i in range(len(closure)):
            if closure[i, k]:
                closure[i] |= closure[k]
    return closure


class TestTwoStepProducts:
    def test_closure_and_transitivity_match_warshall(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            size = int(rng.integers(1, 40))
            holds = rng.random((size, size)) < rng.uniform(0.0, 0.2)
            rel = FiniteRelation(size, holds)
            expected = warshall_closure(holds)
            assert np.array_equal(transitive_closure(rel).holds, expected)
            assert relation_axioms(rel).transitive == np.array_equal(holds, expected)

    def test_counts_past_narrow_integers(self):
        # 0 reaches 257 through each of 256 middle elements, and not directly
        pairs = [(0, m) for m in range(1, 257)] + [(m, 257) for m in range(1, 257)]
        rel = FiniteRelation.from_pairs(258, pairs)
        assert not relation_axioms(rel).transitive
        assert transitive_closure(rel).holds[0, 257]


class TestTransitiveReduction:
    def test_chain_covers(self):
        assert set(transitive_reduction(chain(3)).pairs()) == {(0, 1), (1, 2)}

    def test_antichain_no_edges(self):
        rel = FiniteRelation(3, np.eye(3, dtype=bool))
        assert transitive_reduction(rel).pairs() == []

    def test_diamond(self):
        rel = reflexive_closure(
            transitive_closure(
                FiniteRelation.from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
            )
        )
        assert set(transitive_reduction(rel).pairs()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_rejects_preorder_with_cycle(self):
        rel = reflexive_closure(FiniteRelation.from_pairs(2, [(0, 1), (1, 0)]))
        with pytest.raises(ValueError):
            transitive_reduction(rel)

    def test_round_trip_with_closure(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rel = random_partial_order(rng, int(rng.integers(2, 8)))
            cover = transitive_reduction(rel)
            rebuilt = reflexive_closure(transitive_closure(cover))
            assert (rebuilt.holds == rel.holds).all()


class TestSubmajorize:
    def test_examples(self):
        assert submajorize_compare([0, 0], [1, 0]) is Comparison.LESS
        assert submajorize_compare([2, 0], [1, 1]) is Comparison.GREATER
        assert submajorize_compare([3, 0], [2, 2]) is Comparison.INCOMPARABLE
        assert submajorize_compare([1, 2], [2, 1]) is Comparison.EQUAL

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            submajorize_compare([1], [1, 2])

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
    def test_rejects_negative_or_nan_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            submajorize_compare([1, 2], [1, 2], tol)
        assert submajorize_compare([1, 2], [1, 2], 0.0) is Comparison.EQUAL

    def test_rejects_infinite_tol(self):
        with pytest.raises(ValueError, match="tol must be finite, got inf"):
            submajorize_compare([1, 2], [1, 2], float("inf"))

    def test_equal_inputs_take_no_prefix_sums(self):
        # the prefix sums of these would overflow with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert submajorize_compare([1e308, 1e308], [1e308, 1e308]) is Comparison.EQUAL

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            expected = submajorize_compare(a, b)
            assert submajorize_compare(rng.permutation(a), rng.permutation(b)) is expected

    def test_transitivity_on_constructed_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = rng.normal(size=5)
            b = a + rng.uniform(0.01, 1.0, size=5)
            c = b + rng.uniform(0.01, 1.0, size=5)
            assert submajorize_compare(a, b) is Comparison.LESS
            assert submajorize_compare(b, c) is Comparison.LESS
            assert submajorize_compare(a, c) is Comparison.LESS


class TestQuotientOrderFacts:
    """Randomized checks of the quotient-order facts on small instances."""

    def test_randomized_suite(self):
        rng = np.random.default_rng(20260808)
        seen_transverse = 0
        for _ in range(60):
            size = int(rng.integers(2, 9))
            rel = random_partial_order(rng, size)
            action = random_group_action(rng, size)
            strong, weak = (quotient.relation for quotient in induced_relations(rel, action))
            assert np.array_equal(strong.holds, reference_induced_table(rel, action, "strong"))
            assert np.array_equal(weak.holds, reference_induced_table(rel, action, "weak"))
            axioms = relation_axioms(strong)
            assert axioms.preorder
            props = action_properties(rel, action)
            assert (props.increasing, props.transverse) == reference_action_properties(rel, action)
            quotient = orbits(action)
            assert (quotient.class_index, quotient.orbits) == reference_orbits(action)
            if props.increasing:
                assert (strong.holds == weak.holds).all()
            if props.transverse:
                seen_transverse += 1
                assert axioms.antisymmetric
                for orbit in orbits(action).orbits:
                    block = rel.holds[np.ix_(orbit, orbit)]
                    off_diag = block & ~np.eye(len(orbit), dtype=bool)
                    assert not off_diag.any()
            assert_generator_check_agrees(rel, action, rng)
            # an invariant preorder makes the action increasing by construction
            invariant = force_increasing(rel, action)
            assert action_properties(invariant, action).increasing
            s2, w2 = (quotient.relation for quotient in induced_relations(invariant, action))
            assert (s2.holds == w2.holds).all()
        assert seen_transverse > 5

    def test_structured_transverse_instances(self):
        for n in (2, 3):
            rel, action = powerset_inclusion(n)
            props = action_properties(rel, action)
            assert props.increasing and props.transverse
            strong, _ = induced_relations(rel, action)
            assert relation_axioms(strong.relation).partial_order


class TestRelationJson:
    def test_round_trip(self):
        rel = reflexive_closure(FiniteRelation.from_pairs(3, [(0, 1), (1, 2)]))
        again = relation_from_json(relation_to_json(rel))
        assert (again.holds == rel.holds).all()

    def test_malformed(self):
        with pytest.raises(ValueError, match="malformed"):
            relation_from_json({"size": 2})

    @pytest.mark.parametrize("size", [-1, MAX_GROUND_SIZE + 1, 10**6])
    def test_size_bound_checked_before_allocating(self, size, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(FiniteRelation, "from_pairs", no_allocation)
        monkeypatch.setattr(orders, "GroupAction", no_allocation)
        with pytest.raises(ValueError, match=f"size must be between 0 and {MAX_GROUND_SIZE}"):
            relation_from_json({"size": size, "pairs": []})
        with pytest.raises(ValueError, match=f"size must be between 0 and {MAX_GROUND_SIZE}"):
            action_from_json({"size": size, "perms": [list(range(max(size, 0)))]})

    def test_integral_floats_accepted(self):
        rel = relation_from_json({"size": 2.0, "pairs": [[0, 1.0]]})
        assert rel.pairs() == [(0, 1)]
        action = action_from_json({"size": 2, "perms": [[0.0, 1.0], [1, 0]]})
        assert as_tuples(action.perms) == ((0, 1), (1, 0))

    @pytest.mark.parametrize("data", [
        {"size": 2, "pairs": [[0, 1.9]]},
        {"size": 2, "pairs": [[0, "1"]]},
        {"size": "2", "pairs": []},
        {"size": 2, "pairs": [[0, None]]},
        {"size": 2, "pairs": [[0, float("nan")]]},
        {"size": 2, "pairs": [[0, 1e30]]},
        {"size": 2, "pairs": [[0, 1], [1]]},
        {"size": 2, "pairs": [0, 1]},
        {"size": [2], "pairs": []},
    ])
    def test_relation_refuses_non_integers(self, data):
        with pytest.raises(ValueError):
            relation_from_json(data)

    @pytest.mark.parametrize("perms", [
        [[0.4, 1.2], [1.7, 0.3]],
        [[0, "1"]],
        [["0", "1"]],
        [[0, 1], [1]],
        [[0, float("inf")]],
    ])
    def test_action_refuses_non_integers(self, perms):
        with pytest.raises(ValueError, match="integers"):
            action_from_json({"size": 2, "perms": perms})
        with pytest.raises(ValueError, match="integers"):
            GroupAction(2, perms)

    def test_size_at_bound_accepted(self):
        assert relation_from_json({"size": MAX_GROUND_SIZE, "pairs": [[0, 1]]}).holds[0, 1]
