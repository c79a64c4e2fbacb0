"""Profile-class solvers for bodies sharing a single weight set."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, islice, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramcsp
from paramcsp import (
    Constraint,
    CWRelation,
    Instance,
    NotApplicableError,
    ParamCSPError,
    SolveStats,
    WeightKind,
    WeightParameter,
    WeightSet,
    WRelation,
    brute_force_solve,
    lift_kle_to_k,
    param_e,
    reduce_appearance,
    satisfies,
    simulate,
    solve_w_kt,
    solve_w_kt_with_stats,
    solve_w_kue,
    solve_w_kue_with_stats,
)
from paramcsp.fpt_solvers import _cap, _feasible, _profile_classes, _shared_weight_set
from corpus_helpers import SOLVER_PROFILES, instances, solver_config
from oracles import dense_profile_classes

EXACT = WeightKind.EXACT
ATMOST = WeightKind.ATMOST


def single_constraint(weights: WeightSet, scope: tuple[str, ...], k0: int, kind=EXACT):
    names = tuple(sorted(set(scope)))
    return Instance(
        names,
        WeightParameter(kind, k0),
        (Constraint(WRelation(weights, len(scope)), scope),),
    )


class TestSharedWeightSet:
    def test_empty_body_has_no_shared_set(self):
        assert _shared_weight_set(Instance(("x",), WeightParameter(EXACT, 0))) is None

    def test_mixed_weight_sets_are_not_applicable(self):
        inst = Instance(
            ("x", "y"),
            WeightParameter(EXACT, 1),
            (
                Constraint(WRelation(WeightSet.finite([1]), 1), ("x",)),
                Constraint(WRelation(WeightSet.finite([0]), 1), ("y",)),
            ),
        )
        with pytest.raises(NotApplicableError):
            _shared_weight_set(inst)

    def test_non_weight_relations_are_not_applicable(self):
        inst = Instance(
            ("x", "y"),
            WeightParameter(EXACT, 1),
            (Constraint(CWRelation(WeightSet.finite([1]), 1, 1), ("x", "y")),),
        )
        with pytest.raises(NotApplicableError):
            _shared_weight_set(inst)
        with pytest.raises(NotApplicableError):
            solve_w_kue(inst)


class TestManyProfileClasses:
    def test_more_classes_than_the_recursion_limit(self):
        # 1,500 distinct unary constraints give 1,500 profile classes.
        names = tuple(f"v{i:04d}" for i in range(1500))
        body = tuple(Constraint(WRelation(WeightSet.cofinite((2,)), 1), (v,)) for v in names)
        inst = Instance(names, WeightParameter(WeightKind.EXACT, 1), body)
        witness, stats = solve_w_kue_with_stats(inst)
        assert witness == frozenset({"v0000"})
        assert stats.class_count == 1500
        assert stats.multisets_enumerated == 1


class TestFeasibilityInvariant:
    def test_parity_cap_holds_under_optimization(self):
        # A count above the cap h under a parity set breaks the module's premise.
        with pytest.raises(ParamCSPError, match="^parity sets cannot hit the cap$"):
            _feasible(WeightSet.even(), 0, [((1,), ["a"])], (1,), 1)
        code = (
            "from paramcsp import WeightSet\n"
            "from paramcsp.fpt_solvers import _feasible\n"
            "print(_feasible(WeightSet.even(), 0, [((1,), ['a'])], (1,), 1))\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__))},
        )
        assert done.returncode != 0, done.stdout
        assert "ParamCSPError: parity sets cannot hit the cap" in done.stderr


class TestComputeH:
    def test_finite_maximum_wins_over_the_occurrence_bound(self):
        inst = single_constraint(WeightSet.finite([1]), ("x",) * 5, 1)
        assert param_e(inst) == 5
        assert _cap(inst, WeightSet.finite([1])) == 1

    def test_cofinite_largest_excluded_value(self):
        inst = single_constraint(WeightSet.cofinite([0]), ("x",) * 3, 1)
        assert _cap(inst, WeightSet.cofinite([0])) == 0

    def test_parity_falls_back_to_the_occurrence_bound(self):
        inst = single_constraint(WeightSet.even(), ("x", "x", "y"), 1)
        assert _cap(inst, WeightSet.even()) == 2


class TestProfileClasses:
    def test_groups_variables_by_capped_occurrences(self):
        inst = Instance(
            ("a", "b", "c", "d"),
            WeightParameter(EXACT, 1),
            (Constraint(WRelation(WeightSet.even(), 4), ("a", "a", "a", "b")),),
        )
        classes = _profile_classes(inst, h=2)
        profiles = dict(classes)
        # Three occurrences cap to the sentinel h + 1 = 3.
        assert profiles == {(0,): ["c", "d"], (1,): ["b"], (3,): ["a"]}
        assert sum(len(names) for _, names in classes) == 4

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), h=st.integers(0, 3))
    def test_matches_the_dense_profiles(self, data, h):
        # Names are declared in drawn order, scopes repeat entries and leave
        # variables untouched, and bodies may be empty.
        names = data.draw(st.lists(
            st.text(alphabet="abcxyz", min_size=1, max_size=3),
            min_size=1, max_size=10, unique=True,
        ))
        pool = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
        scopes = data.draw(st.lists(
            st.lists(st.sampled_from(pool), min_size=1, max_size=6), max_size=5,
        ))
        inst = Instance(
            tuple(names),
            WeightParameter(EXACT, 1),
            tuple(Constraint(WRelation(WeightSet.even(), len(s)), tuple(s)) for s in scopes),
        )
        assert _profile_classes(inst, h) == dense_profile_classes(inst, h)

    def test_many_untouched_variables_declared_out_of_order(self):
        names = [f"v{i:03d}" for i in range(600)]
        random.Random(7).shuffle(names)
        scopes = (("v599", "v010", "v599"), ("v010", "v300"), ("v000",))
        inst = Instance(
            tuple(names),
            WeightParameter(EXACT, 2),
            tuple(Constraint(WRelation(WeightSet.odd(), len(s)), s) for s in scopes),
        )
        classes = _profile_classes(inst, 1)
        assert classes == dense_profile_classes(inst, 1)
        profile, untouched = classes[0]
        assert profile == (0, 0, 0) and len(untouched) == 596
        assert untouched == sorted(set(names) - {"v000", "v010", "v300", "v599"})


class TestSolveKue:
    def test_singleton_witness(self):
        inst = single_constraint(WeightSet.finite([1]), ("x", "y", "z"), 1)
        assert solve_w_kue(inst) == frozenset({"x"})

    def test_positive_clause_instance(self):
        inst = single_constraint(WeightSet.cofinite([0]), ("x", "y"), 1)
        assert solve_w_kue(inst) == frozenset({"x"})

    def test_atmost_tries_smaller_weights_first(self):
        inst = single_constraint(WeightSet.even(), ("x", "y"), 2, kind=ATMOST)
        assert solve_w_kue(inst) == frozenset()

    def test_atmost_finds_intermediate_weights(self):
        inst = single_constraint(WeightSet.finite([2]), ("x", "y", "z"), 3, kind=ATMOST)
        assert solve_w_kue(inst) == frozenset({"x", "y"})

    def test_atmost_bounds_past_the_variable_count_walk_only_reachable_weights(self):
        # Listing every weight up to k0 once overflowed at 2**63; no count
        # vector sums past the variable count.
        body = (Constraint(WRelation(WeightSet.finite([1]), 1), ("x",)),)
        results = []
        for k0 in (2**63, 3, 5):
            inst = Instance(("x", "y", "z"), WeightParameter(ATMOST, k0), body)
            assert solve_w_kue(inst) == solve_w_kt(inst) == frozenset({"x"})
            results.append(solve_w_kue_with_stats(inst))
        assert results == results[:1] * 3

    def test_empty_body(self):
        assert solve_w_kue(Instance(("x",), WeightParameter(EXACT, 2))) is None
        assert solve_w_kue(Instance(("x", "y"), WeightParameter(EXACT, 2))) == frozenset(
            {"x", "y"}
        )

    @pytest.mark.parametrize("profile", SOLVER_PROFILES)
    def test_matches_brute_force(self, profile):
        for case, inst in instances(120, solver_config, profile, salt=20):
            expected = brute_force_solve(inst)
            got = solve_w_kue(inst)
            assert (got is None) == (expected is None), f"case {case} ({profile})"
            if got is not None:
                assert satisfies(inst, got)

    @pytest.mark.parametrize("profile", SOLVER_PROFILES)
    def test_decision_survives_variable_renaming(self, profile):
        # Variables with equal occurrence profiles are interchangeable, so
        # relabeling must never flip the decision.
        for case, inst in instances(60, solver_config, profile, salt=21):
            names = sorted(inst.variables)
            rotation = dict(zip(names, names[1:] + names[:1]))
            renamed = Instance(
                tuple(rotation[v] for v in inst.variables),
                inst.weight,
                tuple(
                    Constraint(c.relation, tuple(rotation[v] for v in c.scope))
                    for c in inst.body
                ),
            )
            assert (solve_w_kue(inst) is None) == (solve_w_kue(renamed) is None)

    @pytest.mark.parametrize("profile", SOLVER_PROFILES)
    def test_enumeration_work_is_parameter_bounded(self, profile):
        for _, inst in instances(60, solver_config, profile, salt=22):
            _, stats = solve_w_kue_with_stats(inst)
            k0 = inst.weight.k0
            classes = stats.class_count
            assert classes <= (stats.h + 2) ** max(len(inst.body), 1)
            assert stats.multisets_enumerated <= (k0 + 1) * comb(k0 + classes, classes)

    def test_work_does_not_grow_with_the_variable_count(self):
        reference: SolveStats | None = None
        for n in (5, 50, 200):
            fillers = tuple(f"f{i:03d}" for i in range(n - 2))
            inst = Instance(
                ("a", "b") + fillers,
                WeightParameter(EXACT, 2),
                (Constraint(WRelation(WeightSet.finite([1]), 2), ("a", "b")),),
            )
            witness, stats = solve_w_kue_with_stats(inst)
            assert witness is not None and satisfies(inst, witness)
            if reference is None:
                reference = stats
            else:
                assert stats == reference


class TestSolveKt:
    def test_prunes_oversized_bodies_without_enumerating(self):
        names = tuple(f"v{i}" for i in range(10))
        inst = Instance(
            names,
            WeightParameter(EXACT, 2),
            tuple(
                Constraint(WRelation(WeightSet.finite([1]), 1), (v,)) for v in names
            ),
        )
        witness, stats = solve_w_kt_with_stats(inst)
        assert witness is None
        assert stats == SolveStats(h=1, class_count=0, multisets_enumerated=0, pruned=True)
        assert brute_force_solve(inst) is None

    def test_small_bodies_delegate(self):
        inst = single_constraint(WeightSet.finite([1]), ("x", "y"), 1)
        assert solve_w_kt(inst) == solve_w_kue(inst) == frozenset({"x"})

    @pytest.mark.parametrize(
        "weights",
        [WeightSet.finite([0, 1]), WeightSet.cofinite([1]), WeightSet.even()],
    )
    def test_weight_sets_containing_zero_are_rejected(self, weights):
        inst = single_constraint(weights, ("x", "y"), 1)
        with pytest.raises(NotApplicableError):
            solve_w_kt(inst)

    def test_empty_body_is_fine(self):
        assert solve_w_kt(Instance(("x", "y"), WeightParameter(ATMOST, 1))) == frozenset()

    def test_matches_brute_force_where_applicable(self):
        ran = 0
        for profile in ("w-finite", "w-cofinite", "w-odd"):
            for case, inst in instances(120, solver_config, profile, salt=23):
                weights = _shared_weight_set(inst)
                if weights is not None and weights.contains(0):
                    with pytest.raises(NotApplicableError):
                        solve_w_kt(inst)
                    continue
                ran += 1
                expected = brute_force_solve(inst)
                got = solve_w_kt(inst)
                assert (got is None) == (expected is None), f"case {case} ({profile})"
                if got is not None:
                    assert satisfies(inst, got)
        assert ran >= 150


# Every weight set over small weights: finite or cofinite over each subset of
# {0..3}, even and odd (34 sets).
SMALL_WEIGHTS = [
    make(values)
    for make in (WeightSet.finite, WeightSet.cofinite)
    for size in range(5)
    for values in combinations(range(4), size)
] + [WeightSet.even(), WeightSet.odd()]


def small_scope_bodies(every_pair=1):
    """Weight-set bodies over a, b, c: for each weight set, each constraint
    of arity 1-3 (names may repeat) alone and, every ``every_pair``-th in
    order, in unordered pairs of distinct constraints sharing that set."""
    scopes = [scope for arity in range(1, 4) for scope in product("abc", repeat=arity)]
    bodies = []
    for weights in SMALL_WEIGHTS:
        ones = [Constraint(WRelation(weights, len(scope)), scope) for scope in scopes]
        bodies += [(c,) for c in ones] + list(islice(combinations(ones, 2), 0, None, every_pair))
    return bodies


def assert_small_scope(bodies):
    """Over universe a-d, with d in no constraint, ``k0`` from 0 to 3, exact
    and at-most: both fpt solvers (the count bound only on weight sets without
    0) agree with brute force on the accept bit and give satisfying witnesses,
    and the appearance machine of the lifted instance accepts as brute force
    does, with brute force's witness on exact instances."""
    for body in bodies:
        solvers = (solve_w_kue,) if body[0].relation.weights.contains(0) else (solve_w_kue, solve_w_kt)
        for kind in (EXACT, ATMOST):
            for k0 in range(4):
                inst = Instance(tuple("abcd"), WeightParameter(kind, k0), body)
                want = brute_force_solve(inst)
                for solve in solvers:
                    got = solve(inst)
                    assert (got is None) == (want is None), (solve.__name__, inst)
                    assert got is None or satisfies(inst, got), (solve.__name__, inst)
                result = simulate(reduce_appearance(inst if kind is EXACT else lift_kle_to_k(inst)))
                assert result.accepted == (want is not None), inst
                if result.accepted:
                    witness = result.witness.intersection(inst.variables)
                    assert (witness == want) if kind is EXACT else satisfies(inst, witness), inst


class TestSmallScope:
    """Every small weight-set instance, after the small-scope hypothesis
    (Jackson, Software Abstractions, 2006): tier-1 runs the one-constraint
    bodies and every tenth pair, the ``slow`` run all pairs."""

    def test_one_constraint_and_every_tenth_pair(self):
        bodies = small_scope_bodies(every_pair=10)
        assert len(bodies) * 8 == 31_008
        assert_small_scope(bodies)

    @pytest.mark.slow
    def test_every_pair(self):
        bodies = small_scope_bodies()
        assert len(bodies) * 8 == 212_160
        assert_small_scope(bodies)
