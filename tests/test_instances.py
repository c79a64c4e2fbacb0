"""Instances: satisfaction, parameters, the brute-force oracle, reductions,
and the seeded generator."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paramcsp import (
    CapacityError,
    Constraint,
    CWRelation,
    DomainError,
    Instance,
    InstanceConfig,
    NotApplicableError,
    UsageError,
    ValidationError,
    WeightKind,
    WeightParameter,
    WeightSet,
    WeightSetKind,
    WRelation,
    brute_force_solve,
    lift_kle_to_k,
    parse_instance,
    param_e,
    param_t,
    param_u,
    random_instance,
    reduce_parity_multiplicity,
    satisfies,
    serialize_instance,
    weight_relation,
)
from corpus_helpers import atmost_config, instances, parity_config
from oracles import validate_in_order

EXACT = WeightKind.EXACT
ATMOST = WeightKind.ATMOST


def w(values, arity):
    return WRelation(WeightSet.finite(values), arity)


def xyz_instance():
    return Instance(
        ("x", "y", "z"),
        WeightParameter(EXACT, 1),
        (Constraint(w([1], 3), ("x", "y", "z")),),
    )


class Name(str):
    pass


class UnhashableName(str):
    __hash__ = None


NAME = st.text(alphabet="xyz", min_size=1, max_size=2)
ODD_NAME = st.one_of(
    st.just(""),
    NAME.map(Name),
    NAME.map(UnhashableName),
    st.integers(0, 2),
    st.none(),
    st.binary(max_size=1),
    st.lists(NAME, max_size=1),
)


def outcome(check):
    """The exception class and message ``check`` raises, or None."""
    try:
        check()
    except (TypeError, ValidationError) as exc:
        return type(exc), str(exc)
    return None


class TestValidation:
    def test_weight_kind_must_be_a_weight_kind(self):
        # Any other kind would read as at-most, so brute force would answer
        # frozenset() for an instance asking for exactly one variable.
        with pytest.raises(ValidationError, match="^weight kind must be a WeightKind, got str$"):
            WeightParameter("exact", 1)

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValidationError):
            Instance(("x", "x"), WeightParameter(EXACT, 0))

    def test_empty_variable_names_rejected(self):
        with pytest.raises(ValidationError):
            Instance(("",), WeightParameter(EXACT, 0))

    def test_undeclared_scope_variable_rejected(self):
        with pytest.raises(ValidationError, match="constraint 1"):
            Instance(
                ("x",),
                WeightParameter(EXACT, 0),
                (Constraint(w([0], 1), ("y",)),),
            )

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_reports_the_first_fault_in_declaration_order(self, data):
        # Names may be empty, duplicated, non-str, unhashable or str subclasses,
        # and scopes may use undeclared names, several faults per input.
        names = data.draw(st.lists(NAME, max_size=6))
        for _ in range(data.draw(st.integers(0, 2))):
            names.insert(data.draw(st.integers(0, len(names))), data.draw(ODD_NAME))
        declared = [st.sampled_from(names)] * 4 if names else []
        element = st.one_of(*declared, NAME, ODD_NAME)
        scopes = data.draw(st.lists(st.lists(element, min_size=1, max_size=3), max_size=3))
        body = tuple(Constraint(WRelation(WeightSet.even(), len(s)), tuple(s)) for s in scopes)
        got = outcome(lambda: Instance(tuple(names), WeightParameter(EXACT, 0), body))
        assert got == outcome(lambda: validate_in_order(names, body))

    def test_scope_length_must_match_arity(self):
        with pytest.raises(ValidationError):
            Constraint(w([1], 2), ("x",))

    def test_negative_weight_bound_rejected(self):
        with pytest.raises(ValidationError):
            WeightParameter(EXACT, -1)

    def test_selected_positions_counts_repeats(self):
        c = Constraint(w([1], 3), ("x", "y", "x"))
        assert c.selected_positions(frozenset({"x"})) == frozenset({1, 3})


class TestSortedVariables:
    def test_a_sorted_declaration_is_kept_as_is(self):
        inst = xyz_instance()
        assert inst.sorted_variables is inst.variables
        generated = random_instance(3, InstanceConfig(n=1200, k0=2, profile="w-odd", body_len=3))
        assert generated.sorted_variables is generated.variables

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=8, unique=True))
    def test_any_declaration_sorts_once(self, names):
        inst = Instance(tuple(names), WeightParameter(EXACT, 1))
        assert inst.sorted_variables == tuple(sorted(names))
        assert inst.variables == tuple(names)

    def test_takes_no_part_in_equality_hashing_or_repr(self):
        shuffled = Instance(("z", "x", "y"), WeightParameter(EXACT, 1))
        ordered = Instance(("x", "y", "z"), WeightParameter(EXACT, 1))
        assert shuffled.sorted_variables == ordered.sorted_variables
        assert shuffled != ordered
        object.__setattr__(ordered, "sorted_variables", ("stale",))
        assert ordered == Instance(("x", "y", "z"), WeightParameter(EXACT, 1))
        assert hash(ordered) == hash(Instance(("x", "y", "z"), WeightParameter(EXACT, 1)))
        assert "sorted_variables" not in repr(shuffled)
        assert repr(shuffled).startswith("Instance(variables=('z', 'x', 'y'), weight=")
        assert repr(shuffled).endswith(", body=())")

    def test_survives_replace(self):
        inst = Instance(("z", "x", "y"), WeightParameter(EXACT, 1))
        body = (Constraint(w([1], 1), ("y",)),)
        assert replace(inst, body=body).sorted_variables == ("x", "y", "z")
        renamed = replace(inst, variables=("b", "a"), body=())
        assert renamed.sorted_variables == ("a", "b")

    def test_documents_round_trip_byte_identical(self):
        for names in (("z", "x", "y"), ("x", "y", "z")):
            inst = Instance(names, WeightParameter(EXACT, 1), (Constraint(w([1], 2), ("y", "z")),))
            text = serialize_instance(inst)
            parsed = parse_instance(text)
            assert parsed == inst and parsed.variables == names
            assert serialize_instance(parsed) == text
            assert '"variables": [' in text and "sorted_variables" not in text


class TestSatisfies:
    def test_exact_weight_and_body(self):
        inst = xyz_instance()
        assert satisfies(inst, {"y"}) is True
        assert satisfies(inst, set()) is False
        assert satisfies(inst, {"x", "y"}) is False

    def test_horn_clause_blocks_an_unsupported_head(self):
        inst = Instance(
            ("x", "y"),
            WeightParameter(EXACT, 1),
            (Constraint(CWRelation(WeightSet.finite([1]), 1, 1), ("x", "y")),),
        )
        assert satisfies(inst, {"x"}) is False
        assert satisfies(inst, {"y"}) is True

    def test_atmost_weight(self):
        inst = Instance(("x", "y"), WeightParameter(ATMOST, 1))
        assert satisfies(inst, set()) is True
        assert satisfies(inst, {"x"}) is True
        assert satisfies(inst, {"x", "y"}) is False

    def test_foreign_variables_are_a_domain_error(self):
        with pytest.raises(DomainError):
            satisfies(xyz_instance(), {"nope"})

    def test_the_variable_set_is_never_built(self, monkeypatch):
        reads = []
        built = Instance.variable_set.fget
        monkeypatch.setattr(Instance, "variable_set", property(lambda inst: reads.append(1) or built(inst)))
        inst = xyz_instance()
        assert satisfies(inst, {"y"}) is True
        with pytest.raises(DomainError, match=r"assignment uses undeclared variables: \['a', 'nope'\]"):
            satisfies(inst, {"y", "nope", "a"})
        assert reads == []

    def test_undeclared_members_of_any_type_are_named_in_sorted_order(self):
        # A non-str member is never compared with the declared names.
        inst = xyz_instance()
        for assignment, extras in (({1, 3}, "[1, 3]"), ({"y", ("x",)}, "[('x',)]"), ({"w", "a"}, "['a', 'w']")):
            message = re.escape(f"assignment uses undeclared variables: {extras}")
            with pytest.raises(DomainError, match=f"^{message}$"):
                satisfies(inst, assignment)
        assert satisfies(Instance((), WeightParameter(EXACT, 0)), ()) is True
        with pytest.raises(DomainError):
            satisfies(Instance((), WeightParameter(EXACT, 0)), {"x"})


class TestParameters:
    def test_double_occurrences_in_two_constraints(self):
        inst = Instance(
            ("x", "y"),
            WeightParameter(EXACT, 1),
            (
                Constraint(w([1], 3), ("x", "x", "y")),
                Constraint(w([1], 2), ("x", "x")),
            ),
        )
        assert param_u(inst) == 3
        assert param_t(inst) == 4
        assert param_e(inst) == 2

    def test_empty_body(self):
        inst = Instance(("x",), WeightParameter(EXACT, 0))
        assert (param_u(inst), param_t(inst), param_e(inst)) == (1, 0, 0)

    def test_all_distinct_scope_has_e_one(self):
        names = ("a", "b", "c", "d", "e")
        inst = Instance(
            names,
            WeightParameter(EXACT, 1),
            (Constraint(w([1], 5), names),),
        )
        assert param_e(inst) == 1

    def test_t_dominates_e_and_both_vanish_only_without_a_body(self):
        for _, inst in instances(200, atmost_config, salt=5):
            t, e = param_t(inst), param_e(inst)
            assert t >= e >= 0
            assert (t == 0) == (e == 0) == (len(inst.body) == 0)


class TestBruteForce:
    def test_returns_the_lexicographically_least_witness(self):
        inst = Instance(
            ("x", "y"),
            WeightParameter(EXACT, 1),
            (Constraint(w([1], 2), ("x", "y")),),
        )
        assert brute_force_solve(inst) == frozenset({"x"})

    def test_contradictory_weights(self):
        inst = Instance(
            ("x",),
            WeightParameter(EXACT, 1),
            (Constraint(w([0], 1), ("x",)),),
        )
        assert brute_force_solve(inst) is None

    def test_exact_bound_above_the_variable_count(self):
        assert brute_force_solve(Instance(("x",), WeightParameter(EXACT, 2))) is None

    def test_exact_bound_beyond_the_index_range(self):
        assert brute_force_solve(Instance(("x",), WeightParameter(EXACT, 2**63))) is None

    def test_atmost_prefers_the_empty_assignment(self):
        inst = Instance(("x", "y"), WeightParameter(ATMOST, 2))
        assert brute_force_solve(inst) == frozenset()

    def test_reads_the_variable_set_at_most_once(self, monkeypatch):
        reads = []

        def counting(inst):
            reads.append(inst)
            return frozenset(inst.variables)

        monkeypatch.setattr(Instance, "variable_set", property(counting))
        names = tuple(f"v{i:02d}" for i in range(30))
        unsat = Instance(names, WeightParameter(EXACT, 2), (Constraint(w([1], 2), ("v00", "v00")),))
        assert brute_force_solve(unsat) is None
        assert len(reads) <= 1
        reads.clear()
        sat = Instance(names, WeightParameter(EXACT, 1), (Constraint(w([1], 1), ("v29",)),))
        assert brute_force_solve(sat) == frozenset({"v29"})
        assert len(reads) <= 1

    def test_every_witness_satisfies(self):
        sat = 0
        for _, inst in instances(150, atmost_config, salt=6):
            witness = brute_force_solve(inst)
            if witness is not None:
                sat += 1
                assert satisfies(inst, witness)
        assert sat > 0


class TestLift:
    def test_lift_requires_an_atmost_instance(self):
        with pytest.raises(UsageError):
            lift_kle_to_k(xyz_instance())

    def test_empty_body_example(self):
        lifted = lift_kle_to_k(Instance(("x",), WeightParameter(ATMOST, 1)))
        assert len(lifted.variables) == 2
        assert lifted.weight == WeightParameter(EXACT, 1)
        assert brute_force_solve(lifted) is not None

    def test_padding_past_the_guess_bound_is_refused_before_it_is_built(self):
        at_cap = lift_kle_to_k(Instance(("x",), WeightParameter(ATMOST, 2**16)))
        assert len(at_cap.variables) == 1 + 2**16
        for k0 in (2**16 + 1, 2**63):
            with pytest.raises(CapacityError, match=f"^at-most bound {k0} above the padding bound 65536$"):
                lift_kle_to_k(Instance(("x",), WeightParameter(ATMOST, k0)))

    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.text(alphabet="_padx", min_size=1, max_size=5), max_size=8, unique=True))
    def test_padding_takes_the_shortest_prefix_no_name_starts_with(self, names):
        lifted = lift_kle_to_k(Instance(tuple(names), WeightParameter(ATMOST, 1)))
        (pad,) = lifted.variables[len(names):]
        prefix = pad.removesuffix("001")
        assert prefix.lstrip("_") == "pad"
        assert not any(v.startswith(prefix) for v in names)
        assert prefix == "pad" or any(v.startswith(prefix[1:]) for v in names)

    def test_padding_avoids_name_collisions(self):
        inst = Instance(("pad001", "x"), WeightParameter(ATMOST, 1))
        lifted = lift_kle_to_k(inst)
        fresh = set(lifted.variables) - set(inst.variables)
        assert fresh == {"_pad001"}

    def test_padding_variables_touch_no_constraint(self):
        for _, inst in instances(100, atmost_config, salt=7):
            lifted = lift_kle_to_k(inst)
            pads = set(lifted.variables) - set(inst.variables)
            assert len(pads) == inst.weight.k0
            for c in lifted.body:
                assert not pads.intersection(c.scope)

    def test_preserves_satisfiability(self):
        # The defining property: the lifted instance is exactly as solvable.
        for _, inst in instances(500, atmost_config, salt=8):
            lifted = lift_kle_to_k(inst)
            assert lifted.weight.kind is EXACT
            before = brute_force_solve(inst)
            after = brute_force_solve(lifted)
            assert (before is None) == (after is None)
            if after is not None:
                assert len(after) == inst.weight.k0


class TestParityReduction:
    def test_even_occurrences_cancel(self):
        inst = Instance(
            ("x", "y", "z"),
            WeightParameter(EXACT, 1),
            (Constraint(WRelation(WeightSet.odd(), 4), ("x", "x", "y", "z")),),
        )
        (reduced,) = reduce_parity_multiplicity(inst).body
        assert reduced.relation == WRelation(WeightSet.odd(), 2)
        assert reduced.scope == ("y", "z")

    def test_fully_cancelled_even_constraint_is_dropped(self):
        inst = Instance(
            ("x",),
            WeightParameter(EXACT, 0),
            (Constraint(WRelation(WeightSet.even(), 2), ("x", "x")),),
        )
        assert reduce_parity_multiplicity(inst).body == ()

    def test_fully_cancelled_odd_constraint_is_a_contradiction(self):
        inst = Instance(
            ("x", "y"),
            WeightParameter(ATMOST, 2),
            (Constraint(WRelation(WeightSet.odd(), 2), ("y", "y")),),
        )
        reduced = reduce_parity_multiplicity(inst)
        assert brute_force_solve(reduced) is None
        # The replacement body stays inside the parity language.
        assert all(
            c.relation.weights.kind in (WeightSetKind.EVEN, WeightSetKind.ODD)
            for c in reduced.body
        )

    def test_rejects_non_parity_bodies(self):
        with pytest.raises(NotApplicableError):
            reduce_parity_multiplicity(xyz_instance())

    def test_preserves_satisfiability_and_flattens_e(self):
        for _, inst in instances(500, parity_config, salt=9):
            reduced = reduce_parity_multiplicity(inst)
            assert param_e(reduced) <= 1
            assert (brute_force_solve(inst) is None) == (
                brute_force_solve(reduced) is None
            )


class TestWeightRelation:
    def test_exact_materializes_a_singleton(self):
        rel = weight_relation(Instance(("x", "y"), WeightParameter(EXACT, 2)))
        assert rel == WRelation(WeightSet.finite([2]), 2)

    def test_atmost_materializes_an_initial_range(self):
        rel = weight_relation(Instance(("x", "y", "z"), WeightParameter(ATMOST, 2)))
        assert rel == WRelation(WeightSet.finite([0, 1, 2]), 3)

    def test_needs_at_least_one_variable(self):
        with pytest.raises(UsageError):
            weight_relation(Instance((), WeightParameter(EXACT, 0)))

    def test_atmost_above_the_guess_cap_is_refused_before_listing(self):
        # It once overflowed listing 2**63 + 1 weights.
        needle = f"^at-most bound {2**63} above the materialization bound 65536$"
        with pytest.raises(CapacityError, match=needle):
            weight_relation(Instance(("x",), WeightParameter(ATMOST, 2**63)))

    def test_atmost_at_the_guess_cap_still_materializes(self):
        rel = weight_relation(Instance(("x",), WeightParameter(ATMOST, 2**16)))
        assert rel == WRelation(WeightSet.finite(range(2**16 + 1)), 1)


class TestRandomInstance:
    def test_same_seed_same_instance(self):
        cfg = InstanceConfig(n=6, k0=2, profile="mixed", body_len=3)
        assert random_instance(41, cfg) == random_instance(41, cfg)

    def test_instances_share_their_name_objects(self):
        first = random_instance(1, InstanceConfig(n=12, k0=1, profile="w-odd", body_len=3))
        second = random_instance(2, InstanceConfig(n=12, k0=2, profile="cw", body_len=3))
        assert first.variables is second.variables
        declared = {id(v) for v in second.variables}
        assert all(id(v) in declared for c in second.body for v in c.scope)
        other = random_instance(1, InstanceConfig(n=13, k0=1, profile="w-odd", body_len=3))
        assert other.variables is not first.variables
        assert other.variables[:12] == first.variables

    def test_different_seeds_differ(self):
        cfg = InstanceConfig(n=6, k0=2, profile="mixed", body_len=3)
        assert random_instance(1, cfg) != random_instance(2, cfg)

    def test_explicit_profile_honors_the_member_size_cap(self):
        cfg = InstanceConfig(
            n=5, k0=1, profile="explicit", body_len=4, member_size=2, max_members=6
        )
        for seed in range(30):
            for c in random_instance(seed, cfg).body:
                assert all(len(m) <= 2 for m in c.relation.members)

    def test_w_finite_profile_shares_the_given_values(self):
        cfg = InstanceConfig(
            n=5, k0=1, profile="w-finite", body_len=3, finite_values=(1, 2)
        )
        inst = random_instance(3, cfg)
        assert len(inst.body) == 3
        for c in inst.body:
            assert c.relation.weights == WeightSet.finite([1, 2])

    def test_mixed_profile_honours_empty_finite_values(self):
        cfg = InstanceConfig(n=4, k0=1, profile="mixed", body_len=3, finite_values=())
        first = random_instance(2, cfg).body[0].relation
        assert first == WRelation(WeightSet.finite(()), 1)

    def test_cw_profile_shares_one_tail_bound(self):
        cfg = InstanceConfig(n=6, k0=2, profile="cw", body_len=4, cw_bound=2)
        for seed in range(10):
            for c in random_instance(seed, cfg).body:
                assert isinstance(c.relation, CWRelation)
                assert c.relation.weights == WeightSet.finite([1, 2])

    def test_bad_configs_are_usage_errors(self):
        with pytest.raises(UsageError):
            InstanceConfig(n=0, k0=0)
        with pytest.raises(UsageError):
            InstanceConfig(n=3, k0=-1)
        with pytest.raises(UsageError):
            InstanceConfig(n=3, k0=1, profile="nonsense")
        with pytest.raises(UsageError):
            InstanceConfig(n=3, k0=1, min_arity=3, max_arity=2)
