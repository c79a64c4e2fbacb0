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
    WeightSetKind,
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
from paramcsp.fpt_solvers import _count_vectors, _profile_classes, _shared_weight_set
from corpus_helpers import SOLVER_PROFILES, instances, solver_config
from oracles import dense_profile_classes, literal_count_vectors

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


class TestCountVectors:
    def test_every_small_caps_tuple_matches_the_literal_product(self):
        # Order and placement: every caps tuple of up to 5 classes, caps 0-3.
        for width in range(6):
            for caps in product(range(4), repeat=width):
                for target in range(6):
                    assert list(_count_vectors(list(caps), target)) == literal_count_vectors(caps, target), (caps, target)


class TestFeasibilityInvariant:
    def test_parity_cap_holds_under_optimization(self, monkeypatch):
        # A count above the cap h under a parity set breaks the module's premise.
        monkeypatch.setattr(paramcsp.fpt_solvers, "_profile_classes", lambda inst, weights: (0, [((1,), 1, ["x"])]))
        with pytest.raises(ParamCSPError, match="^parity sets cannot hit the cap$"):
            solve_w_kue(single_constraint(WeightSet.even(), ("x",), 1))
        code = (
            "import paramcsp.fpt_solvers as fpt\n"
            "from paramcsp import Constraint, Instance, WeightKind, WeightParameter, WeightSet, WRelation\n"
            "fpt._profile_classes = lambda inst, weights: (0, [((1,), 1, ['x'])])\n"
            "body = (Constraint(WRelation(WeightSet.even(), 1), ('x',)),)\n"
            "print(fpt.solve_w_kue(Instance(('x',), WeightParameter(WeightKind.EXACT, 1), body)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__))},
        )
        assert done.returncode != 0, done.stdout
        assert "ParamCSPError: parity sets cannot hit the cap" in done.stderr


def cap(inst: Instance, weights: WeightSet | None) -> int:
    """The occurrence cap read densely: ``param_e`` against the largest value
    of a finite or cofinite set."""
    h = param_e(inst)
    if weights is not None and weights.kind in (WeightSetKind.FINITE, WeightSetKind.COFINITE) and weights.values:
        h = min(h, max(weights.values))
    return h


def assert_matches_the_dense_classes(inst: Instance, weights: WeightSet | None) -> None:
    """``_profile_classes`` gives the dense cap and the dense classes'
    profiles, sizes and first names: all of them, but only ``min(k0, size)``
    of the all-zero class."""
    h, classes = _profile_classes(inst, weights)
    assert h == cap(inst, weights)
    dense = dense_profile_classes(inst, h)
    assert [(profile, size) for profile, size, _ in classes] == [(p, len(names)) for p, names in dense]
    for (profile, size, names), (_, all_names) in zip(classes, dense):
        kept = min(inst.weight.k0, size) if not any(profile) else size
        assert names == all_names[:kept]


class TestComputeH:
    def test_finite_maximum_wins_over_the_occurrence_bound(self):
        inst = single_constraint(WeightSet.finite([1]), ("x",) * 5, 1)
        assert param_e(inst) == 5
        assert _profile_classes(inst, WeightSet.finite([1]))[0] == 1

    def test_cofinite_largest_excluded_value(self):
        inst = single_constraint(WeightSet.cofinite([0]), ("x",) * 3, 1)
        assert _profile_classes(inst, WeightSet.cofinite([0]))[0] == 0

    def test_parity_falls_back_to_the_occurrence_bound(self):
        inst = single_constraint(WeightSet.even(), ("x", "x", "y"), 1)
        assert _profile_classes(inst, WeightSet.even())[0] == 2

    def test_an_empty_body_has_cap_zero(self):
        assert _profile_classes(Instance(("x", "y"), WeightParameter(EXACT, 1)), None) == (0, [((), 2, ["x"])])


class TestProfileClasses:
    def test_groups_variables_by_capped_occurrences(self):
        weights = WeightSet.finite([0, 1, 2])
        inst = Instance(
            ("a", "b", "c", "d"),
            WeightParameter(EXACT, 1),
            (Constraint(WRelation(weights, 4), ("a", "a", "a", "b")),),
        )
        h, classes = _profile_classes(inst, weights)
        # Three occurrences cap to the sentinel h + 1 = 3; the all-zero
        # class counts c and d but holds only k0 = 1 of them.
        assert h == 2
        assert classes == [((0,), 2, ["c"]), ((1,), 1, ["b"]), ((3,), 1, ["a"])]
        assert_matches_the_dense_classes(inst, weights)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k0=st.integers(0, 4))
    def test_matches_the_dense_profiles(self, data, k0):
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
        weights = data.draw(st.sampled_from(SMALL_WEIGHTS))
        inst = Instance(
            tuple(names),
            WeightParameter(EXACT, k0),
            tuple(Constraint(WRelation(weights, len(s)), tuple(s)) for s in scopes),
        )
        assert_matches_the_dense_classes(inst, weights if scopes else None)

    def test_many_untouched_variables_declared_out_of_order(self):
        names = [f"v{i:03d}" for i in range(600)]
        random.Random(7).shuffle(names)
        scopes = (("v599", "v010", "v599"), ("v010", "v300"), ("v000",))
        weights = WeightSet.odd()
        inst = Instance(
            tuple(names),
            WeightParameter(EXACT, 2),
            tuple(Constraint(WRelation(weights, len(s)), s) for s in scopes),
        )
        assert_matches_the_dense_classes(inst, weights)
        profile, size, untouched = _profile_classes(inst, weights)[1][0]
        assert profile == (0, 0, 0) and size == 596
        assert untouched == ["v001", "v002"]


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


def dense_solve(inst: Instance, weights: WeightSet | None) -> tuple[frozenset[str] | None, SolveStats]:
    """The profile-class solve read densely: the dense cap and classes, every
    class holding all its names, and the count vectors in order, each decided
    by ``satisfies`` on its representative witness rather than the solver's
    own feasibility test. The vectors come from the literal product, not
    the solver's enumeration."""
    h = cap(inst, weights)
    classes = dense_profile_classes(inst, h)
    k0 = inst.weight.k0
    targets = (k0,) if inst.weight.kind is EXACT else range(min(k0, len(inst.variables)) + 1)
    tested = 0
    for target in targets:
        for vector in literal_count_vectors([len(names) for _, names in classes], target):
            tested += 1
            witness = frozenset(v for (_, names), n in zip(classes, vector) for v in names[:n])
            if satisfies(inst, witness):
                return witness, SolveStats(h, len(classes), tested)
    return None, SolveStats(h, len(classes), tested)


# Untouched names that sort before, between and after the generated x001..x014.
FILLERS = ("a", "x0025", "y")


def shuffled(case: int, inst: Instance) -> Instance:
    """``inst`` with the fillers added and every name declared in a shuffled order."""
    names = list(inst.variables + FILLERS)
    random.Random(case).shuffle(names)
    return Instance(tuple(names), inst.weight, inst.body)


# ``solve_w_kue``'s (h, class_count, multisets_enumerated) on shuffled cases
# 0-9 of the solver corpus (salt 25), whether ``solve_w_kt`` applies (where
# it does, it gives the same witness and stats), and the witness's sorted
# names or None. Recorded while the classes were still built by sorting and
# filtering every declared name.
RECORDED = {
    "w-finite": [
        (0, 1, 1, True, ''),
        (1, 2, 1, False, ''),
        (1, 3, 4, False, 'a x002'),
        (3, 5, 32, True, None),
        (1, 5, 16, True, None),
        (0, 1, 1, True, ''),
        (1, 3, 2, True, 'x008'),
        (2, 4, 7, True, 'x005 x010'),
        (1, 4, 1, True, 'x003 x007 x010'),
        (1, 5, 87, True, None),
    ],
    "w-cofinite": [
        (0, 1, 1, True, ''),
        (1, 2, 3, True, None),
        (1, 3, 1, True, 'x001 x005'),
        (3, 5, 1, False, ''),
        (1, 5, 1, False, 'x001 x002 x004 x005'),
        (0, 1, 1, True, ''),
        (1, 3, 1, False, 'x006'),
        (2, 4, 12, True, None),
        (1, 4, 8, False, 'a x001 x002'),
        (1, 5, 1, False, ''),
    ],
    "w-even": [
        (0, 1, 1, True, ''),
        (1, 2, 1, False, ''),
        (2, 3, 2, False, 'a x005'),
        (3, 4, 1, False, ''),
        (1, 5, 16, False, 'a x0025 x003 x005'),
        (0, 1, 1, True, ''),
        (1, 2, 2, False, 'a'),
        (2, 4, 1, False, ''),
        (1, 3, 4, False, 'a x001 x002'),
        (1, 4, 1, False, ''),
    ],
    "w-odd": [
        (0, 1, 1, True, ''),
        (1, 2, 2, True, 'x002'),
        (2, 3, 4, True, None),
        (3, 4, 13, True, 'x003 x004 x006'),
        (1, 5, 1, True, 'x001 x002 x004 x007'),
        (0, 1, 1, True, ''),
        (1, 2, 1, True, 'x007'),
        (2, 4, 3, True, 'x007'),
        (1, 3, 1, True, 'a x003 x010'),
        (1, 4, 14, True, 'x005 x006 x007'),
    ],
}


@st.composite
def shuffled_instances(draw):
    """Shared-weight-set bodies over some of the names a-j, every name
    declared in a drawn order, so untouched names fall before, between and
    after the touched ones."""
    names = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=10, unique=True))
    pool = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
    scopes = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=5), max_size=4))
    weights = draw(st.sampled_from(SMALL_WEIGHTS))
    weight = WeightParameter(draw(st.sampled_from((EXACT, ATMOST))), draw(st.integers(0, 4)))
    body = tuple(Constraint(WRelation(weights, len(s)), tuple(s)) for s in scopes)
    return Instance(tuple(names), weight, body), weights if body else None


class TestShuffledDeclarations:
    @settings(max_examples=400, deadline=None)
    @given(drawn=shuffled_instances())
    def test_both_solvers_match_brute_force_and_the_dense_solve(self, drawn):
        # Brute force gives the accept bit; the dense solve gives the exact
        # witness, a class's lex-least names, and the stats.
        inst, weights = drawn
        want = brute_force_solve(inst)
        dense = dense_solve(inst, weights)
        declared_sorted = Instance(tuple(sorted(inst.variables)), inst.weight, inst.body)
        solvers = [solve_w_kue_with_stats]
        if weights is None or not weights.contains(0):
            solvers.append(solve_w_kt_with_stats)
        for solve in solvers:
            witness, stats = got = solve(inst)
            assert (witness is None) == (want is None), solve.__name__
            assert witness is None or satisfies(inst, witness), solve.__name__
            if stats.pruned:
                assert got == (None, SolveStats(cap(inst, weights), 0, 0, pruned=True))
            else:
                assert got == dense, solve.__name__
            # Declared order never changes a witness or a count.
            assert solve(declared_sorted) == got, solve.__name__

    @pytest.mark.parametrize("profile", SOLVER_PROFILES)
    def test_witnesses_and_stats_match_the_recorded_values(self, profile):
        got = []
        for case, inst in instances(10, solver_config, profile, salt=25):
            inst = shuffled(case, inst)
            witness, stats = solve_w_kue_with_stats(inst)
            assert (witness is None) == (brute_force_solve(inst) is None), case
            try:
                kt = solve_w_kt_with_stats(inst)
            except NotApplicableError:
                kt = None
            else:
                assert kt == (witness, stats), case
            names = None if witness is None else " ".join(sorted(witness))
            got.append((stats.h, stats.class_count, stats.multisets_enumerated, kt is not None, names))
        assert got == RECORDED[profile]
