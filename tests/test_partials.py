"""Partial tuple sets, their completions, and the membership characterization.

The membership characterization is the load-bearing claim: a tuple set
belongs to the relation exactly when every partial inside it completes
inside it. Most tests here pit the table against direct membership, either
exhaustively over all tuple sets or on randomized relations.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from paramcsp import (
    CapacityError,
    CWRelation,
    ExplicitRelation,
    UsageError,
    WeightSet,
    WRelation,
    characterize_membership,
    completions,
    compute_partials,
    relation_membership,
)

ODD3 = WRelation(WeightSet.odd(), 3)

# Frozen from a direct minimal-superset scan over all 2**3 tuple sets.
ODD3_TABLE = {
    (): ((1,), (2,), (3,)),
    (1, 2): ((1, 2, 3),),
    (1, 3): ((1, 2, 3),),
    (2, 3): ((1, 2, 3),),
}


def random_explicit(rng: random.Random, arity: int, member_size: int = 4) -> ExplicitRelation:
    members = []
    for _ in range(rng.randint(0, 12)):
        size = rng.randint(0, min(member_size, arity))
        members.append(tuple(rng.sample(range(1, arity + 1), size)))
    return ExplicitRelation(arity, tuple(members))


def all_subsets(arity: int):
    for size in range(arity + 1):
        yield from map(frozenset, combinations(range(1, arity + 1), size))


def minimal_supersets_oracle(rel, positions):
    """Brute scan: member supersets filtered to the inclusion-minimal ones."""
    pset = frozenset(positions)
    supersets = [
        t for t in all_subsets(rel.arity) if pset < t and relation_membership(rel, t)
    ]
    return sorted(
        (tuple(sorted(t)) for t in supersets
         if not any(u < t for u in supersets)),
    )


class TestCompletions:
    def test_singletons_complete_the_empty_set(self):
        assert completions(ODD3, ()) == ((1,), (2,), (3,))

    def test_pair_completes_to_the_full_set(self):
        assert completions(ODD3, {1, 2}) == ((1, 2, 3),)

    def test_no_member_contains_the_probe(self):
        rel = ExplicitRelation(4, ((1,), (2, 3)))
        assert completions(rel, {4}) == ()

    def test_members_have_no_completions_by_decree(self):
        with pytest.raises(UsageError):
            completions(ODD3, {2})

    def test_agrees_with_the_brute_scan(self):
        rng = random.Random(2024)
        for _ in range(80):
            arity = rng.randint(1, 7)
            rel = random_explicit(rng, arity)
            for t in all_subsets(arity):
                if relation_membership(rel, t):
                    continue
                assert list(completions(rel, t)) == minimal_supersets_oracle(rel, t)

    def test_capacity_guards_non_explicit_relations(self):
        wide = WRelation(WeightSet.odd(), 13)
        with pytest.raises(CapacityError):
            completions(wide, ())
        with pytest.raises(CapacityError):
            completions(WRelation(WeightSet.odd(), 15), (), capacity=40)
        # Explicit relations scan their member list, no cap needed.
        sparse = ExplicitRelation(40, ((7,),))
        assert completions(sparse, ()) == ((7,),)


class TestComputePartials:
    def test_odd3_table_is_frozen(self):
        table = compute_partials(ODD3)
        assert table.partials == tuple(sorted(ODD3_TABLE))
        assert dict(table.completions) == ODD3_TABLE

    def test_empty_set_is_partial_iff_not_a_member(self):
        assert () not in compute_partials(WRelation(WeightSet.even(), 2)).partials
        assert () in compute_partials(WRelation(WeightSet.odd(), 2)).partials

    def test_partials_are_never_members(self):
        rng = random.Random(7)
        for _ in range(40):
            rel = random_explicit(rng, rng.randint(1, 7))
            for t in compute_partials(rel).partials:
                assert not relation_membership(rel, t)

    def test_minimal_non_members_are_always_partial(self):
        rng = random.Random(8)
        for _ in range(40):
            arity = rng.randint(1, 6)
            rel = random_explicit(rng, arity)
            partials = set(compute_partials(rel).partials)
            for t in all_subsets(arity):
                if relation_membership(rel, t):
                    continue
                proper_subsets_all_members = all(
                    relation_membership(rel, s)
                    for s in all_subsets(arity)
                    if s < t
                )
                if proper_subsets_all_members:
                    assert tuple(sorted(t)) in partials

    def test_completion_minimality(self):
        rng = random.Random(9)
        for _ in range(30):
            arity = rng.randint(1, 6)
            rel = random_explicit(rng, arity)
            table = compute_partials(rel)
            for t in table.partials:
                tset = frozenset(t)
                for u in table.completions[t]:
                    uset = frozenset(u)
                    assert tset < uset
                    assert relation_membership(rel, uset)
                    for mid in all_subsets(arity):
                        if tset < mid < uset:
                            assert not relation_membership(rel, mid)

    def test_capacity_applies_to_every_variant(self):
        with pytest.raises(CapacityError):
            compute_partials(WRelation(WeightSet.even(), 13))
        with pytest.raises(CapacityError):
            compute_partials(ExplicitRelation(13, ((1,),)))
        with pytest.raises(CapacityError):
            compute_partials(WRelation(WeightSet.even(), 4), capacity=3)
        with pytest.raises(CapacityError, match="arity 15 above the exhaustive bound 14"):
            compute_partials(WRelation(WeightSet.even(), 15), capacity=40)


class TestCharacterization:
    def test_members_always_pass(self):
        table = compute_partials(ODD3)
        for d in all_subsets(3):
            if relation_membership(ODD3, d):
                assert characterize_membership(table, d)

    def test_frozen_counterexample(self):
        assert characterize_membership(compute_partials(ODD3), {1, 2}) is False

    def test_empty_set_passes_when_it_is_a_member(self):
        table = compute_partials(WRelation(WeightSet.even(), 2))
        assert characterize_membership(table, ()) is True

    @pytest.mark.parametrize(
        "rel",
        [
            WRelation(WeightSet.finite([0, 2]), 4),
            WRelation(WeightSet.cofinite([1]), 4),
            WRelation(WeightSet.even(), 5),
            WRelation(WeightSet.odd(), 4),
            CWRelation(WeightSet.finite([1]), 1, 3),
            CWRelation(WeightSet.finite([1, 2]), 2, 3),
            CWRelation(WeightSet.finite([1]), 2, 0),
            ExplicitRelation(3, ()),
        ],
    )
    def test_characterization_equals_membership_exhaustively(self, rel):
        table = compute_partials(rel)
        for d in all_subsets(rel.arity):
            assert characterize_membership(table, d) == relation_membership(rel, d)

    def test_characterization_on_random_explicit_relations(self):
        rng = random.Random(10)
        for _ in range(60):
            arity = rng.randint(1, 8)
            rel = random_explicit(rng, arity)
            table = compute_partials(rel)
            for d in all_subsets(arity):
                assert characterize_membership(table, d) == relation_membership(rel, d)


class TestMemberSizeBounds:
    def test_witnesses_inside_members(self):
        # Every member contains a completion of each partial below it.
        rng = random.Random(11)
        for _ in range(40):
            arity = rng.randint(1, 7)
            rel = random_explicit(rng, arity)
            table = compute_partials(rel)
            comp = dict(table.completions)
            for member in rel.members:
                mset = frozenset(member)
                for t in table.partials:
                    if frozenset(t) < mset:
                        assert any(frozenset(u) <= mset for u in comp[t])

    def test_completions_never_exceed_the_member_size(self):
        rng = random.Random(12)
        for _ in range(40):
            arity = rng.randint(1, 8)
            rel = random_explicit(rng, arity, member_size=3)
            d = max((len(m) for m in rel.members), default=0)
            table = compute_partials(rel)
            for t in table.partials:
                for u in table.completions[t]:
                    assert len(u) <= d
                if len(t) >= d:
                    assert table.completions[t] == ()
