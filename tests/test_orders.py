import itertools
import time

import numpy as np
import pytest

from qorder import orders
from qorder.orders import (
    MAX_GROUND_SIZE,
    Comparison,
    FiniteRelation,
    GroupAction,
    action_from_json,
    action_properties,
    action_to_json,
    induced_relation,
    minimal_elements,
    maximal_elements,
    orbits,
    reflexive_closure,
    relation_axioms,
    relation_from_json,
    relation_to_json,
    submajorize_compare,
    transitive_closure,
    transitive_reduction,
)

from structures import (
    force_increasing,
    powerset_inclusion,
    random_group_action,
    random_partial_order,
    reference_action_properties,
    reference_group_perms,
    reference_induced_table,
    reference_orbits,
)


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

    def test_from_generators_closes(self):
        action = GroupAction.from_generators(3, [(1, 2, 0)])
        assert len(action) == 3

    def test_from_generators_cap(self):
        with pytest.raises(ValueError, match="cap"):
            GroupAction.from_generators(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)], cap=10)

    def test_from_generators_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            GroupAction.from_generators(3, [(1, 2)])
        with pytest.raises(ValueError, match="permutation"):
            GroupAction.from_generators(2, [(-1, 0)])

    def test_json_round_trip(self):
        action = GroupAction.from_generators(3, [(1, 2, 0)])
        again = action_from_json(action_to_json(action))
        assert again.perms == action.perms

    def test_empty_ground_set(self):
        action = GroupAction(0, ((),))
        assert action.perms == ((),)
        assert orbits(action).orbits == ()
        assert induced_relation(FiniteRelation(0, np.zeros((0, 0))), action, "weak").relation.size == 0

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
                chosen = list(GroupAction.from_generators(4, gens).perms[1:])
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
        assert action.perms == tuple(perms)
        with pytest.raises(ValueError, match="closed"):
            GroupAction(7, tuple(perms[:2000] + perms[2001:]))

    def test_all_of_s8_under_five_seconds(self):
        start = time.perf_counter()
        action = GroupAction.from_generators(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])
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
    assert action.perms == expected
    quotient = orbits(action)
    assert (quotient.class_index, quotient.orbits) == reference_orbits(action)
    rel = FiniteRelation(size, rng.random((size, size)) < rng.uniform(0.0, 0.7))
    for mode in ("strong", "weak"):
        table = induced_relation(rel, action, mode).relation.holds
        assert np.array_equal(table, reference_induced_table(rel, action, mode))
    props = action_properties(rel, action)
    assert (props.increasing, props.transverse) == reference_action_properties(rel, action)
    assert_generator_check_agrees(rel, action, rng)
    return True


def assert_generator_check_agrees(rel, action, rng):
    """The generators the closure walk keeps generate the group, and the
    generator-only "increasing" check agrees with the all-permutation loop on
    a relation preserved by the subgroup of one random member."""
    assert GroupAction.from_generators(action.size, action._generators).perms == action.perms
    member = action.perms[int(rng.integers(len(action)))]
    invariant = force_increasing(rel, GroupAction.from_generators(action.size, [member]))
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
            action = GroupAction.from_generators(size, gens)
            assert agrees_with_reference(size, action.perms, rng)

    def test_matches_reference_on_powersets(self):
        for n in range(1, 7):
            rel, action = powerset_inclusion(n)
            for mode in ("strong", "weak"):
                table = induced_relation(rel, action, mode).relation.holds
                assert np.array_equal(table, reference_induced_table(rel, action, mode))

    def test_z2_subsets_chain_both_modes(self):
        rel, action = powerset_inclusion(2)
        for mode in ("strong", "weak"):
            quotient = induced_relation(rel, action, mode)
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
        action = GroupAction.from_generators(4, [(2, 3, 0, 1)])
        weak = induced_relation(rel, action, "weak").relation
        strong = induced_relation(rel, action, "strong").relation
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
        for mode in ("strong", "weak"):
            quotient = induced_relation(rel, action, mode)
            assert (quotient.relation.holds == rel.holds).all()

    def test_size_mismatch(self):
        rel = chain(3)
        action = GroupAction(2, ((0, 1),))
        with pytest.raises(ValueError, match="mismatch"):
            induced_relation(rel, action, "strong")

    def test_bad_mode(self):
        rel = chain(2)
        action = GroupAction(2, ((0, 1),))
        with pytest.raises(ValueError, match="mode"):
            induced_relation(rel, action, "both")


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
        action = GroupAction.from_generators(n, [tuple(range(1, n)) + (0,)])
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

    def test_read_only_bool_table_is_adopted(self):
        table = np.eye(3, dtype=bool)
        table.setflags(write=False)
        assert FiniteRelation(3, table).holds is table
        assert FiniteRelation(3, table.T).holds.base is table

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


class TestMinimalElements:
    def test_chain(self):
        assert minimal_elements(chain(3)) == {0}
        assert maximal_elements(chain(3)) == {2}

    def test_antichain(self):
        rel = FiniteRelation(3, np.eye(3, dtype=bool))
        assert minimal_elements(rel) == {0, 1, 2}

    def test_subset_argument(self):
        assert minimal_elements(chain(4), subset={2, 3}) == {2}

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            minimal_elements(chain(3), subset={5})
        with pytest.raises(ValueError, match="element id -1 out of range"):
            minimal_elements(chain(3), subset=[0, -1, 0])

    def test_matches_brute_force(self):
        # any relation, reflexive or not; subsets drawn with repeats
        rng = np.random.default_rng(23)
        for trial in range(300):
            size = int(rng.integers(0, 10))
            holds = rng.random((size, size)) < rng.uniform(0.0, 0.6)
            rel = FiniteRelation(size, holds)
            if trial % 3 == 0:
                subset = None
                ids = set(range(size))
            else:
                subset = rng.integers(0, max(size, 1), size=int(rng.integers(0, 2 * size + 1)))
                subset = subset[subset < size].tolist()
                ids = set(subset)
            expected = {i for i in ids if not any(holds[j, i] for j in ids if j != i)}
            assert minimal_elements(rel, subset) == expected

    def test_validate_checks_only_the_subset(self):
        # 0 and 1 form a cycle; the subset {1, 2} is a chain
        rel = reflexive_closure(FiniteRelation.from_pairs(3, [(0, 1), (1, 0), (1, 2)]))
        assert minimal_elements(rel, subset=[2, 1, 2], validate=True) == {1}

    def test_validate_rejects_non_order(self):
        rel = FiniteRelation.from_pairs(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="partial order"):
            minimal_elements(rel, validate=True)


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
            strong = induced_relation(rel, action, "strong").relation
            weak = induced_relation(rel, action, "weak").relation
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
            s2 = induced_relation(invariant, action, "strong").relation
            w2 = induced_relation(invariant, action, "weak").relation
            assert (s2.holds == w2.holds).all()
        assert seen_transverse > 5

    def test_structured_transverse_instances(self):
        for n in (2, 3):
            rel, action = powerset_inclusion(n)
            props = action_properties(rel, action)
            assert props.increasing and props.transverse
            strong = induced_relation(rel, action, "strong").relation
            assert relation_axioms(strong).partial_order


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

    def test_size_at_bound_accepted(self):
        assert relation_from_json({"size": MAX_GROUND_SIZE, "pairs": [[0, 1]]}).holds[0, 1]
