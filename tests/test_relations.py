"""Weight sets, relation membership, and the membership cost model."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from paramcsp import (
    AffineCost,
    CostModel,
    CWRelation,
    DomainError,
    ExplicitRelation,
    ValidationError,
    WeightSet,
    WeightSetKind,
    WRelation,
    default_checker_cost,
    relation_membership,
)
from paramcsp.relations import _ceil_log2

finite_values = st.sets(st.integers(0, 30), max_size=8)


def subsets_of(arity: int):
    return st.sets(st.integers(1, arity), max_size=arity).map(frozenset)


class TestWeightSet:
    def test_contains_examples(self):
        assert WeightSet.even().contains(0) is True
        assert WeightSet.finite([1]).contains(2) is False
        assert WeightSet.cofinite([0]).contains(5) is True

    def test_values_normalize_sorted_and_deduped(self):
        assert WeightSet.finite([2, 1, 1, 2]).values == (1, 2)
        assert WeightSet.cofinite(range(3, 0, -1)).values == (1, 2, 3)

    def test_structural_equality(self):
        assert WeightSet.finite([3, 1]) == WeightSet.finite({1, 3})
        assert WeightSet.finite([1]) != WeightSet.cofinite([1])

    @pytest.mark.parametrize("bad", [-1, True, "2", 1.5])
    def test_rejects_non_weight_values(self, bad):
        with pytest.raises(ValidationError):
            WeightSet.finite([0, bad])

    def test_kind_must_be_a_weight_set_kind(self):
        # Any other kind would fall through to the odd branch of membership.
        with pytest.raises(ValidationError, match="^weight-set kind must be a WeightSetKind, got str$"):
            WeightSet("finite", (1,))

    @pytest.mark.parametrize("ws", [WeightSet.even, WeightSet.odd])
    def test_parity_kinds_carry_no_values(self, ws):
        with pytest.raises(ValidationError):
            WeightSet(ws().kind, (2,))

    def test_contains_rejects_bad_weights(self):
        with pytest.raises(DomainError):
            WeightSet.finite([1]).contains(-1)
        with pytest.raises(DomainError):
            WeightSet.even().contains(True)

    @given(values=finite_values, w=st.integers(0, 40))
    def test_finite_and_cofinite_are_complements(self, values, w):
        assert WeightSet.finite(values).contains(w) != WeightSet.cofinite(values).contains(w)

    @given(w=st.integers(0, 40))
    def test_parity_kinds_partition_the_weights(self, w):
        assert WeightSet.even().contains(w) != WeightSet.odd().contains(w)


class TestRelationMembership:
    def test_w_relation_counts_positions(self):
        rel = WRelation(WeightSet.finite([1]), 3)
        assert relation_membership(rel, {2}) is True
        assert relation_membership(rel, {1, 3}) is False

    def test_cw_relation_examples(self):
        rel = CWRelation(WeightSet.finite([1]), head=2, tail=3)
        assert relation_membership(rel, {1, 2, 4}) is True
        # Head incomplete: vacuously a member regardless of the tail.
        assert relation_membership(rel, {1, 4, 5}) is True
        assert relation_membership(rel, {1, 2, 4, 5}) is False

    def test_cw_with_empty_tail_forbids_the_head(self):
        rel = CWRelation(WeightSet.finite([1]), head=2, tail=0)
        assert relation_membership(rel, {1, 2}) is False
        assert relation_membership(rel, {1}) is True

    def test_explicit_relation_lists_its_members(self):
        rel = ExplicitRelation(3, ((1,), (2, 3)))
        assert relation_membership(rel, {1}) is True
        assert relation_membership(rel, {2, 3}) is True
        assert relation_membership(rel, {1, 2}) is False
        assert relation_membership(rel, set()) is False

    @pytest.mark.parametrize("positions", [{0}, {4}, {1, "2"}])
    def test_positions_outside_the_arity_fail(self, positions):
        rel = WRelation(WeightSet.even(), 3)
        with pytest.raises(DomainError):
            relation_membership(rel, positions)

    @given(
        values=finite_values,
        tail=st.integers(1, 6),
        data=st.data(),
    )
    def test_cw_with_empty_head_degenerates_to_w(self, values, tail, data):
        ws = WeightSet.finite(values)
        positions = data.draw(subsets_of(tail))
        cw = CWRelation(ws, head=0, tail=tail)
        w = WRelation(ws, tail)
        assert relation_membership(cw, positions) == relation_membership(w, positions)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_full_initial_segment_is_disjunction(self, m):
        rel = WRelation(WeightSet.finite(range(1, m + 1)), m)
        for size in range(m + 1):
            for combo in combinations(range(1, m + 1), size):
                assert relation_membership(rel, combo) == (len(combo) > 0)

    @given(
        arity=st.integers(1, 6),
        raw_members=st.lists(st.sets(st.integers(1, 6)), max_size=8),
        data=st.data(),
    )
    def test_explicit_membership_agrees_with_member_scan(self, arity, raw_members, data):
        members = [frozenset(p for p in m if p <= arity) for m in raw_members]
        rel = ExplicitRelation(arity, tuple(tuple(sorted(m)) for m in members))
        probe = data.draw(subsets_of(arity))
        assert relation_membership(rel, probe) == (probe in members)


class TestRelationConstruction:
    def test_arity_must_be_positive(self):
        with pytest.raises(ValidationError):
            WRelation(WeightSet.even(), 0)
        with pytest.raises(ValidationError):
            CWRelation(WeightSet.even(), head=0, tail=0)
        with pytest.raises(ValidationError):
            ExplicitRelation(0)

    def test_cw_blocks_negative(self):
        with pytest.raises(ValidationError):
            CWRelation(WeightSet.even(), head=-1, tail=2)

    def test_index_defaults_to_the_arity(self):
        assert WRelation(WeightSet.even(), 5).index == 5
        assert CWRelation(WeightSet.even(), head=2, tail=3).index == 5
        assert WRelation(WeightSet.even(), 5, index=9).index == 9

    def test_index_must_be_positive(self):
        with pytest.raises(ValidationError):
            WRelation(WeightSet.even(), 2, index=0)

    def test_explicit_members_canonicalize(self):
        rel = ExplicitRelation(3, ((3, 1), (2,), (1, 3)))
        assert rel.members == ((1, 3), (2,))

    def test_explicit_member_positions_validate(self):
        with pytest.raises(ValidationError):
            ExplicitRelation(2, ((3,),))


class TestCostModel:
    def test_ceil_log2_values(self):
        assert [_ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9, 1024)] == [
            0, 1, 2, 2, 3, 3, 4, 10,
        ]
        with pytest.raises(DomainError):
            _ceil_log2(0)

    def test_exponent_zero_kills_the_index_factor(self):
        cm = CostModel(exponent=0)
        rel = WRelation(WeightSet.even(), 4, index=1000)
        assert cm.cost(rel.index, 0) == default_checker_cost(0)

    def test_exponent_one_small_index(self):
        cm = CostModel(exponent=1)
        rel = WRelation(WeightSet.even(), 2, index=1)
        assert cm.cost(rel.index, 2) == default_checker_cost(2)

    def test_quadratic_exponent_example(self):
        # _ceil_log2(7 + 1) = 3, squared is 9; default base cost of a
        # three-position tuple is 4.
        cm = CostModel(exponent=2)
        rel = WRelation(WeightSet.even(), 3, index=7)
        assert cm.cost(rel.index, 3) == 36

    def test_affine_checker_cost(self):
        assert AffineCost(slope=2, offset=3)(5) == 13
        cm = CostModel(exponent=1, checker_cost=AffineCost(0, 2))
        assert cm.cost(3, 10) == 2 * 2

    def test_affine_rejects_negative_coefficients(self):
        with pytest.raises(ValidationError):
            AffineCost(slope=-1)

    def test_cost_validates_its_arguments(self):
        cm = CostModel()
        with pytest.raises(DomainError):
            cm.cost(0, 1)
        with pytest.raises(DomainError):
            cm.cost(1, -1)
        with pytest.raises(ValidationError):
            CostModel(exponent=-1)

    @pytest.mark.parametrize(
        "checker_cost, type_name",
        [
            (lambda w: w + 1, "function"),
            (lambda w: True, "function"),
            (max, "builtin_function_or_method"),
            (None, "NoneType"),
        ],
    )
    def test_only_the_default_and_affine_checker_costs_are_accepted(self, checker_cost, type_name):
        message = f"^checker_cost must be default_checker_cost or an AffineCost, got {type_name}$"
        with pytest.raises(ValidationError, match=message):
            CostModel(exponent=1, checker_cost=checker_cost)

    @given(
        w1=st.integers(0, 20),
        w2=st.integers(0, 20),
        index=st.integers(1, 200),
        exponent=st.integers(0, 3),
    )
    def test_default_cost_nondecreasing_in_weight(self, w1, w2, index, exponent):
        lo, hi = sorted((w1, w2))
        cm = CostModel(exponent=exponent)
        assert cm.cost(index, lo) <= cm.cost(index, hi)
