"""Tests for machine compilation, counting tables, and the reduction pipeline."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial, reduce
from itertools import combinations, combinations_with_replacement, islice, product
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus_helpers import (
    cw_config,
    explicit_config,
    instances,
    machine_config,
    pipeline_config,
    seed_for,
)
from oracles import (
    binding_invariant_holds,
    completion_witness,
    delta_set,
    direct_union_count,
    head_image,
    literal_check_cap,
    literal_combined_check,
    literal_cw_budget,
    literal_cw_check,
    literal_simulate,
    literal_union,
    tail_image,
    union_premise_holds,
)
from paramcsp import (
    AffineCost,
    AlwaysReject,
    AppearanceChecker,
    BudgetExceededError,
    CapacityError,
    CombinedChecker,
    Constraint,
    CostModel,
    CWChecker,
    CWRelation,
    DomainError,
    ExplicitRelation,
    GuessCheckMachine,
    Instance,
    InstanceConfig,
    NotApplicableError,
    ParamCSPError,
    SimulationResult,
    UsageError,
    ValidationError,
    WeightKind,
    WeightParameter,
    WeightSet,
    WRelation,
    brute_force_solve,
    build_cw_tables,
    combine_machines,
    completion_reduction,
    explicitize_w_body,
    inclusion_exclusion_union,
    lift_kle_to_k,
    param_e,
    param_t,
    parse_machine,
    random_instance,
    reduce_appearance,
    reduce_cw,
    relation_membership,
    satisfies,
    serialize_instance,
    serialize_machine,
    simulate,
    solve_wd_pipeline,
)
import paramcsp
from paramcsp.cli import run
from paramcsp._sets import guesses, lex_subsets, subsets_by_size
from paramcsp.machines import _cw_budget, _rank, _tail_scans

WS0 = WeightSet.finite((0,))
WS1 = WeightSet.finite((1,))
WS12 = WeightSet.finite((1, 2))


def exact(names, k0, *body):
    return Instance(
        variables=tuple(names),
        weight=WeightParameter(WeightKind.EXACT, k0),
        body=tuple(body),
    )


@st.composite
def finite_bodies(draw, kinds=("W", "explicit")):
    """Exact instances over at most five variables whose relations of arity at
    most 4 are drawn from ``kinds``: finite-weight, explicit, or any other
    (cofinite-weight or conditional-weight, which the completion reduction
    refuses). Scopes may repeat variables; indices run to 300."""
    names = tuple(f"v{i}" for i in range(draw(st.integers(1, 5))))
    body = []
    for _ in range(draw(st.integers(0, 4))):
        arity = draw(st.integers(1, 4))
        index = draw(st.integers(1, 300))
        kind = draw(st.sampled_from(kinds))
        if kind == "W":
            values = draw(st.sets(st.integers(0, 4), max_size=3))
            rel = WRelation(WeightSet.finite(values), arity, index)
        elif kind == "explicit":
            member = st.sets(st.integers(1, arity), max_size=3)
            rel = ExplicitRelation(arity, tuple(tuple(m) for m in draw(st.lists(member, max_size=5))), index)
        else:
            rel = draw(st.sampled_from([
                WRelation(WeightSet.cofinite((1,)), arity, index),
                CWRelation(WS1, 1, arity - 1, index),
            ]))
        body.append(Constraint(rel, tuple(draw(st.sampled_from(names)) for _ in range(arity))))
    return exact(names, draw(st.integers(0, 3)), *body)


@st.composite
def cost_models(draw):
    """The default and affine cost models, the only two there are."""
    exponent = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return CostModel(exponent)
    return CostModel(exponent, AffineCost(draw(st.integers(0, 5)), draw(st.integers(0, 5))))


def trivial_cw_checker():
    """A checker with no stored counts; it accepts every guess."""
    return CWChecker(b=0, delta_sizes={}, lambda_caps={}, delta_empty={}, sum_bound=0)


NAMES = "abcdefgh"
name_sets = st.frozensets(st.sampled_from(NAMES), max_size=4)


@st.composite
def hand_built_tables(draw):
    """Checkers over the names a-h with arbitrary stored keys: heads stored in
    any one table, tails of up to four names whatever ``b`` is, zero counts,
    caps on either side of ``b``, and a ``sum_bound`` small enough to escape.
    Heads come from few names, so that rows fill up."""
    b = draw(st.integers(0, 3))
    heads = st.frozensets(st.sampled_from("abh"), max_size=2)
    keys = st.tuples(heads, name_sets)
    counts = st.sampled_from(range(5))
    return CWChecker(
        b=b,
        delta_sizes=draw(st.dictionaries(keys, counts, min_size=2, max_size=16)),
        lambda_caps=draw(st.dictionaries(keys, st.sampled_from(range(b + 3)), max_size=4)),
        delta_empty=draw(st.dictionaries(heads, counts, max_size=4)),
        sum_bound=draw(st.sampled_from(range(5))),
    )


def guesses_of(names):
    """Sorted guesses of distinct ``names``, each name in about half of them."""
    picks = st.lists(st.booleans(), min_size=len(names), max_size=len(names))
    return picks.map(lambda chosen: tuple(n for n, pick in zip(names, chosen) if pick))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the class and message it raises."""
    try:
        return fn(*args)
    except ParamCSPError as exc:
        return type(exc), str(exc)


# One positive clause on x over universe {x, y}. Budget works out to
# 1 (guess) + 1 (occurrence list) + 1*(1 + 2) (positions and check) + 1 (d walk).
POSITIVE_X = exact("xy", 1, Constraint(WRelation(WS1, 1), ("x",)))

# Single conditional constraint "if x then exactly one of y, z".
ONE_OF_TWO = exact(
    "xyz", 2, Constraint(CWRelation(WS1, head=1, tail=2), ("x", "y", "z"))
)


class TestGuessCheckMachine:
    def test_universe_must_be_sorted(self):
        with pytest.raises(ValidationError, match="sorted"):
            GuessCheckMachine(("b", "a"), 1, 0, AlwaysReject())

    def test_universe_must_be_duplicate_free(self):
        with pytest.raises(ValidationError, match="duplicate"):
            GuessCheckMachine(("a", "a"), 1, 0, AlwaysReject())

    @pytest.mark.parametrize("universe", [("",), ("", "a"), ("b", "")], ids=["alone", "first", "unsorted"])
    def test_universe_names_must_be_nonempty(self, universe):
        # Instances refuse the empty name; a machine over it once accepted the
        # guess {""}, printed as the empty witness of a k0 = 0 machine.
        with pytest.raises(ValidationError, match="^machine universe names must be nonempty strings, got ''$"):
            GuessCheckMachine(universe, 1, 0, AlwaysReject())

    @pytest.mark.parametrize("universe", [(1, 2), ("a", 1), (1, "a")], ids=["numbers", "after", "before"])
    def test_universe_names_must_be_strings(self, universe):
        # (1, 2) once built a machine, and ("a", 1) raised a bare TypeError.
        with pytest.raises(ValidationError, match="^machine universe names must be nonempty strings, got 1$"):
            GuessCheckMachine(universe, 1, 0, AlwaysReject())

    @pytest.mark.parametrize("universe, kind", [(5, "int"), ("ab", "str"), ({"a"}, "set"), (None, "NoneType")])
    def test_universe_must_be_a_tuple_or_a_list(self, universe, kind):
        # 5 once raised a bare TypeError, and "ab" built a machine over ("a", "b").
        with pytest.raises(ValidationError, match=f"^machine universe must be a tuple or a list, got {kind}$"):
            GuessCheckMachine(universe, 1, 0, AlwaysReject())

    def test_a_list_universe_is_kept_as_a_tuple(self):
        assert GuessCheckMachine(["a", "b"], 1, 0, AlwaysReject()).universe == ("a", "b")

    @pytest.mark.parametrize("k0", [-1, True, "2"])
    def test_rejects_bad_guess_bounds(self, k0):
        with pytest.raises(ValidationError):
            GuessCheckMachine(("a",), k0, 0, AlwaysReject())

    def test_rejects_negative_budget(self):
        with pytest.raises(ValidationError, match="budget"):
            GuessCheckMachine(("a",), 1, -3, AlwaysReject())

    def test_rejects_boolean_budget(self):
        with pytest.raises(ValidationError, match="budget"):
            GuessCheckMachine(("x",), 0, True, AlwaysReject())

    def test_exact_branch_rejects_wrong_size(self):
        m = GuessCheckMachine(("a", "b"), 2, 10, trivial_cw_checker())
        assert m.run_branch(("a",)) == (False, 1)

    def test_budget_overrun_raises(self):
        m = GuessCheckMachine(("a",), 1, 0, trivial_cw_checker())
        with pytest.raises(BudgetExceededError, match="budget 0"):
            simulate(m)

    def test_exact_guess_larger_than_universe(self):
        m = GuessCheckMachine(("a",), 2, 5, trivial_cw_checker())
        assert simulate(m) == SimulationResult(False, None, 0, 0)

    def test_exact_guess_beyond_the_index_range(self):
        m = GuessCheckMachine(("a",), 2**63, 5, trivial_cw_checker())
        assert simulate(m) == SimulationResult(False, None, 0, 0)

    def test_atmost_guesses_go_deeper_than_the_recursion_limit(self):
        deep = list(islice(lex_subsets(range(2000), 2000), 1500))
        assert deep[0] == ()
        assert deep[-1] == tuple(range(1499))


class TestSubsetsBySize:
    @pytest.mark.parametrize("n", range(5))
    def test_matches_the_nested_combinations(self, n):
        items = tuple("dbca"[:n])
        every = [frozenset(c) for size in range(n + 1) for c in combinations(items, size)]
        for max_size in range(-1, n + 2):
            want = [s for s in every if len(s) <= max_size]
            assert subsets_by_size(items, max_size) == want, (n, max_size)


class TestCheckerInvariants:
    def test_partial_sum_bound_holds_under_optimization(self):
        # A stored count of 5 escapes a sum bound of 0 on the first term.
        code = (
            "from paramcsp import CWChecker\n"
            "key = (frozenset(), frozenset({'a'}))\n"
            "ck = CWChecker(b=1, delta_sizes={key: 5}, lambda_caps={key: 1},"
            " delta_empty={}, sum_bound=0)\n"
            "print(ck.check(('a',), 0))\n"
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
        assert "ParamCSPError: partial sum escaped its bound" in done.stderr

    def test_a_reimport_frees_the_previous_classes(self):
        # The benchmark imports the package afresh several times in one
        # process; no module-level alias may keep the old classes alive.
        code = (
            "import gc, importlib, sys, weakref\n"
            "import paramcsp\n"
            "old = [weakref.ref(paramcsp.CWChecker), weakref.ref(paramcsp.WRelation)]\n"
            "for name in [m for m in sys.modules if m.split('.')[0] == 'paramcsp']:\n"
            "    del sys.modules[name]\n"
            "del paramcsp\n"
            "importlib.import_module('paramcsp')\n"
            "gc.collect()\n"
            "print([ref() is None for ref in old])\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__))},
        )
        assert (done.returncode, done.stdout) == (0, "[True, True]\n"), done.stderr


class TestReduceAppearance:
    def test_requires_exact_weight(self):
        inst = Instance(
            variables=("x",),
            weight=WeightParameter(WeightKind.ATMOST, 1),
            body=(Constraint(WRelation(WS1, 1), ("x",)),),
        )
        with pytest.raises(NotApplicableError, match="lift first"):
            reduce_appearance(inst)

    def test_positive_clause_frozen(self):
        m = reduce_appearance(POSITIVE_X)
        assert m.universe == ("x", "y")
        assert m.budget == 6
        assert m.checker.e_v == {"x": (1,)}
        assert m.checker.d_set == (1,)
        assert simulate(m) == SimulationResult(True, frozenset({"x"}), 6, 1)

    def test_empty_rejecting_constraints_collected(self):
        inst = exact(
            "xy",
            1,
            Constraint(WRelation(WS1, 2), ("x", "y")),
            Constraint(WRelation(WeightSet.even(), 1), ("x",)),
        )
        m = reduce_appearance(inst)
        # The parity constraint accepts the empty tuple, so only the clause
        # lands in the must-touch list.
        assert m.checker.d_set == (1,)
        assert m.checker.e_v == {"x": (1, 2), "y": (1,)}
        assert m.budget == 15

    def test_too_many_empty_rejectors_means_reject(self):
        body = tuple(
            Constraint(WRelation(WS1, 1), (v,)) for v in ("x", "y", "z")
        )
        m = reduce_appearance(exact("xyz", 1, *body))
        assert m.checker == AlwaysReject()
        assert m.budget == 0
        assert simulate(m) == SimulationResult(False, None, 0, 0)
        assert brute_force_solve(exact("xyz", 1, *body)) is None

    def test_checker_derives_its_tables_from_its_constraints(self):
        body = (
            Constraint(WRelation(WS1, 3), ("y", "x", "y")),
            Constraint(WRelation(WeightSet.even(), 1), ("x",)),
        )
        ck = AppearanceChecker(body, CostModel())
        assert ck.e_v == {"x": (1, 2), "y": (1,)}
        assert ck.d_set == (1,)
        assert ck.occurrences == {"x": ((1, (2,)), (2, (1,))), "y": ((1, (1, 3)),)}
        assert ck == reduce_appearance(exact("xy", 1, *body)).checker
        with pytest.raises(TypeError):
            AppearanceChecker(body, CostModel(), e_v={}, d_set=())

    @settings(max_examples=300, deadline=None)
    @given(inst=finite_bodies(), cm=cost_models(), k0=st.integers(1, 4))
    def test_budget_matches_the_literal_check_cap(self, inst, cm, k0):
        # The budget reads the costliest check at the largest index (and, for
        # the default and affine costs, at weight_cap alone); the oracle scans
        # every constraint at every weight.
        inst = replace(inst, weight=WeightParameter(WeightKind.EXACT, k0))
        m = reduce_appearance(inst, cm)
        if m.checker == AlwaysReject():
            return
        kt = k0 * param_t(inst)
        weight_cap = k0 * param_e(inst)
        assert m.budget == k0 + 2 * kt + kt * (weight_cap + literal_check_cap(inst, cm, weight_cap))

    def test_huge_guesses_are_priced_at_once(self):
        body = (Constraint(WRelation(WS1, 1), ("x",)),)
        affine = CostModel(checker_cost=AffineCost(1, 1))
        assert reduce_appearance(exact("xy", 2**63, *body), affine).budget > 0
        assert reduce_appearance(exact("xy", 2**63, *body), CostModel()).budget > 0

    @settings(max_examples=200, deadline=None)
    @given(inst=finite_bodies(("W", "explicit", "other")), cm=cost_models())
    def test_every_appearance_machine_round_trips(self, inst, cm):
        m = reduce_appearance(inst, cm)
        text = serialize_machine(m)
        back = parse_machine(text)
        assert back == m
        assert serialize_machine(back) == text

    def test_huge_index_factor_is_refused_before_the_power(self):
        # Arity 3 gives index 3, whose factor ceil_log2(4) ** exponent has 2**63 + 1 bits.
        body = (Constraint(WRelation(WS1, 3), ("x", "y", "z")),)
        with pytest.raises(CapacityError, match=rf"^index factor 2\*\*{2**63} above the bound of 65536 bits$"):
            reduce_appearance(exact("xyz", 1, *body), CostModel(2**63))
        with pytest.raises(CapacityError):
            CostModel(2**63).cost(3, 0)
        # A factor of 1, from index 1 or exponent 0, builds at any size.
        unit = (Constraint(WRelation(WS1, 3, index=1), ("x", "y", "z")),)
        cheap = reduce_appearance(exact("xyz", 1, *unit), CostModel(2**63))
        assert cheap.checker.index_factors == (1,)
        assert simulate(cheap).witness == frozenset({"x"})
        huge_index = (Constraint(WRelation(WS1, 3, index=2**63), ("x", "y", "z")),)
        flat = reduce_appearance(exact("xyz", 1, *huge_index), CostModel(0))
        assert flat.checker.index_factors == (1,)

    def test_cost_model_is_threaded_through(self):
        cm = CostModel(exponent=2)
        m = reduce_appearance(POSITIVE_X, cm)
        assert m.checker.cost_model is cm

    def test_occurrence_lists_respect_parameters(self):
        for case, inst in instances(60, machine_config, salt=14):
            m = reduce_appearance(inst)
            if m.checker == AlwaysReject():
                continue
            t0 = param_t(inst)
            for v, hit in m.checker.e_v.items():
                assert len(hit) <= t0, f"case {case}: {v} appears too often"
                assert list(hit) == sorted(set(hit))
            assert list(m.checker.d_set) == sorted(m.checker.d_set)
            assert all(1 <= i <= len(inst.body) for i in m.checker.d_set)

    def test_agrees_with_brute_force(self):
        checked = 0
        for case, inst in instances(150, machine_config, salt=14):
            got = simulate(reduce_appearance(inst))
            want = brute_force_solve(inst)
            assert got.accepted == (want is not None), f"case {case}"
            if got.accepted:
                assert got.witness == want, f"case {case}"
                assert satisfies(inst, got.witness)
                checked += 1
            assert got.max_branch_steps <= reduce_appearance(inst).budget
        assert checked >= 30


class TestCombineMachines:
    def test_universe_mismatch(self):
        a = GuessCheckMachine(("a",), 1, 1, trivial_cw_checker())
        b = GuessCheckMachine(("b",), 1, 1, trivial_cw_checker())
        with pytest.raises(UsageError, match="universe"):
            combine_machines(a, b)

    def test_guess_bound_mismatch(self):
        a = GuessCheckMachine(("a",), 1, 1, trivial_cw_checker())
        b = GuessCheckMachine(("a",), 2, 1, trivial_cw_checker())
        with pytest.raises(UsageError, match="guess bound"):
            combine_machines(a, b)

    @pytest.mark.parametrize(
        "second,needle",
        [
            (GuessCheckMachine(("b",), 1, 1, AlwaysReject()), "machines disagree on the universe"),
            (GuessCheckMachine(("a",), 2, 1, AlwaysReject()), "machines disagree on the guess bound"),
        ],
        ids=["universe", "guess-bound"],
    )
    def test_a_directly_built_checker_refuses_disagreeing_parts(self, second, needle):
        first = GuessCheckMachine(("a",), 1, 1, trivial_cw_checker())
        with pytest.raises(UsageError, match=f"^{needle}$"):
            CombinedChecker(first, second)

    def test_budget_is_sum_plus_one_guess(self):
        m = reduce_appearance(POSITIVE_X)
        both = combine_machines(m, m)
        assert both.budget == m.budget * 2 + 1
        assert isinstance(both.checker, CombinedChecker)
        assert both.checker.first is m

    def test_self_conjunction_matches_single(self):
        m = reduce_appearance(POSITIVE_X)
        res = simulate(combine_machines(m, m))
        assert res.accepted
        assert res.witness == frozenset({"x"})
        assert res.max_branch_steps == m.budget * 2 + 1

    def test_rejecting_first_part_rejects_everything(self):
        m = reduce_appearance(POSITIVE_X)
        reject = GuessCheckMachine(m.universe, m.k0, 0, AlwaysReject())
        res = simulate(combine_machines(reject, m))
        assert not res.accepted
        assert res.witness is None
        assert res.branches_explored == 2

    def test_an_always_reject_part_counts_the_guess_it_is_charged(self):
        # Each part is charged k0 for its guess, the always-reject one too,
        # though its budget is 0: the conditional-weight part accepts {x} at
        # its whole budget, so the combined branch once overran by k0.
        cw = reduce_cw(exact("xy", 1, Constraint(CWRelation(WS1, 0, 1), ("x",))))
        reject = reduce_appearance(exact("xy", 1, *(Constraint(WRelation(WS1, 1), (v,)) for v in "xyx")))
        assert reject.checker == AlwaysReject() and cw.run_branch(("x",)) == (True, cw.budget)
        both = combine_machines(cw, reject)
        assert both.budget == cw.budget + 2 == 23
        assert simulate(both) == SimulationResult(False, None, 23, 2)

    def test_nesting_up_to_the_bound_simulates(self):
        m = reduce_appearance(POSITIVE_X)
        nested = reduce(combine_machines, [m] * 65)  # 64 levels
        res = simulate(nested)
        assert res.accepted
        assert res.witness == frozenset({"x"})
        assert res.max_branch_steps == nested.budget == 65 * m.budget + 64

    @pytest.mark.parametrize("deep_first", [True, False])
    def test_nesting_past_the_bound_is_refused(self, deep_first):
        # 600 levels once built, then died in simulate with RecursionError.
        m = reduce_appearance(POSITIVE_X)
        nested = reduce(combine_machines, [m] * 65)  # 64 levels
        parts = (nested, m) if deep_first else (m, nested)
        with pytest.raises(CapacityError, match="^combined machines nest 65 deep, above the bound 64$"):
            combine_machines(*parts)

    def test_self_conjunction_agrees_on_corpus(self):
        for case, inst in instances(40, machine_config, salt=16):
            m = reduce_appearance(inst)
            if m.checker == AlwaysReject():
                continue
            single = simulate(m)
            double = simulate(combine_machines(m, m))
            assert single.accepted == double.accepted, f"case {case}"
            assert single.witness == double.witness, f"case {case}"


# Three conditional constraints over (x, y, z) with tail bound 1:
#   1: if x then one of {y, z}      2: if x then z (twice)
#   3: if {x, y} then z
CW_TRIO = exact(
    "xyz",
    2,
    Constraint(CWRelation(WS1, 1, 2), ("x", "y", "z")),
    Constraint(CWRelation(WS1, 1, 2), ("x", "z", "z")),
    Constraint(CWRelation(WS1, 2, 1), ("x", "y", "z")),
)


class TestDeltaSet:
    @pytest.mark.parametrize(
        "head,tail,want",
        [
            ({"x"}, set(), (1, 2)),
            ({"x"}, {"z"}, (1, 2)),
            ({"x"}, {"y"}, (1,)),
            ({"x", "y"}, {"z"}, (3,)),
            ({"y"}, set(), ()),
        ],
    )
    def test_trio_lookups(self, head, tail, want):
        assert delta_set(CW_TRIO, head, tail) == want

    def test_undeclared_head_variable(self):
        with pytest.raises(DomainError, match="head set"):
            delta_set(CW_TRIO, {"q"}, set())

    def test_undeclared_tail_variable(self):
        with pytest.raises(DomainError, match="tail set"):
            delta_set(CW_TRIO, {"x"}, {"q"})

    def test_needs_conditional_body(self):
        with pytest.raises(NotApplicableError, match="not a conditional-weight"):
            delta_set(POSITIVE_X, {"x"}, set())

    def test_needs_initial_segment_weights(self):
        inst = exact(
            "xy", 1, Constraint(CWRelation(WeightSet.finite((2,)), 1, 1), ("x", "y"))
        )
        with pytest.raises(NotApplicableError, match="initial segment"):
            delta_set(inst, {"x"}, set())

    def test_needs_one_shared_bound(self):
        inst = exact(
            "xyz",
            1,
            Constraint(CWRelation(WS1, 1, 1), ("x", "y")),
            Constraint(CWRelation(WS12, 1, 2), ("x", "y", "z")),
        )
        with pytest.raises(NotApplicableError, match="differ"):
            delta_set(inst, {"x"}, set())

    def test_matches_direct_scan(self):
        for case, inst in instances(60, cw_config, salt=17):
            if not inst.body:
                continue
            rng = random.Random(seed_for(case, salt=18))
            c = inst.body[rng.randrange(len(inst.body))]
            head = head_image(c)
            tail_pool = sorted(tail_image(c))
            tail = frozenset(rng.sample(tail_pool, min(len(tail_pool), rng.randint(0, 2))))
            want = tuple(
                i
                for i, cc in enumerate(inst.body, start=1)
                if head_image(cc) == head and tail <= tail_image(cc)
            )
            assert delta_set(inst, head, tail) == want, f"case {case}"


class TestBuildCwTables:
    def test_single_constraint_tables(self):
        t = build_cw_tables(ONE_OF_TWO, 2)
        x = frozenset({"x"})
        assert t.b == 1
        assert t.delta_empty == {x: 1}
        assert t.delta_sizes == {
            (x, frozenset({"y"})): 1,
            (x, frozenset({"z"})): 1,
            (x, frozenset({"y", "z"})): 1,
        }
        assert t.lambda_caps == {
            (x, frozenset({"y"})): 1,
            (x, frozenset({"z"})): 1,
            (x, frozenset({"y", "z"})): 2,
        }
        assert t.sum_bound == 6

    def test_tail_subsets_capped_by_guess_bound(self):
        t = build_cw_tables(ONE_OF_TWO, 1)
        assert sorted(len(g) for _, g in t.delta_sizes) == [1, 1]
        assert t.sum_bound == 3

    def test_wide_heads_are_skipped(self):
        inst = exact("xyz", 1, Constraint(CWRelation(WS1, 2, 1), ("x", "y", "z")))
        t = build_cw_tables(inst, 1)
        assert t.delta_empty == {}
        assert t.delta_sizes == {}

    def test_empty_body(self):
        t = build_cw_tables(exact("xy", 1), 1)
        assert t.b == 0
        assert t.delta_sizes == {}
        assert t.sum_bound == 0

    @pytest.mark.parametrize("k0", [-1, True])
    def test_rejects_bad_guess_bounds(self, k0):
        with pytest.raises(DomainError, match="k0"):
            build_cw_tables(ONE_OF_TWO, k0)

    def test_stored_keys_and_size_cap(self):
        for case, inst in instances(80, cw_config, salt=18):
            k0 = inst.weight.k0
            t = build_cw_tables(inst, k0)
            n_size = max(len(inst.variables), len(inst.body), 1)
            cap = n_size * sum(comb(n_size, i) for i in range(t.b + 2))
            assert len(t.delta_empty) + len(t.delta_sizes) <= cap, f"case {case}"
            for bset, g in t.delta_sizes:
                assert len(bset) <= k0
                assert 1 <= len(g) <= min(t.b + 1, k0)
            assert set(t.lambda_caps) == set(t.delta_sizes)


class TestInclusionExclusionUnion:
    def test_no_candidates_means_zero(self):
        t = build_cw_tables(ONE_OF_TWO, 2)
        assert inclusion_exclusion_union(t, {"x"}, set(), 1) == 0

    def test_zero_bound_means_zero(self):
        t = build_cw_tables(ONE_OF_TWO, 2)
        assert inclusion_exclusion_union(t, {"x"}, {"y"}, 0) == 0

    @pytest.mark.parametrize("head", [{"w"}, {"x", "w"}])
    def test_a_head_name_in_no_key_means_zero(self, head):
        # w is in no table key, so no stored head holds it.
        t = build_cw_tables(ONE_OF_TWO, 2)
        assert "w" not in t.bits
        assert inclusion_exclusion_union(t, head, {"y", "z"}, 2) == literal_union(t, head, {"y", "z"}, 2) == 0

    @pytest.mark.parametrize(
        "head,cands,want", [({"x"}, {"y"}, 1), ({"x"}, {"z"}, 1), ({"y"}, {"z"}, 0)]
    )
    def test_single_candidate_counts(self, head, cands, want):
        t = build_cw_tables(ONE_OF_TWO, 2)
        assert inclusion_exclusion_union(t, head, cands, 1) == want

    def test_partial_sums_escaping_the_bound_raise(self):
        # The union takes the check's sum, so it refuses the same escape.
        key = (frozenset({"x"}), frozenset({"y"}))
        tables = CWChecker(b=1, delta_sizes={key: 1}, lambda_caps={key: 1}, delta_empty={}, sum_bound=0)
        with pytest.raises(ParamCSPError, match="partial sum escaped its bound"):
            inclusion_exclusion_union(tables, {"x"}, {"y"}, 1)

    def test_only_the_stored_row_is_read(self):
        # The subsets of 40 candidates of at most 40 names are 2**40 sets; the
        # head's row holds three tails. A child process under a 30 s time-out
        # and a 1 GiB address-space cap runs it, so a scan of every subset
        # fails instead of filling memory.
        code = (
            "import resource, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from paramcsp import *\n"
            "names = tuple(f'c{i:02d}' for i in range(40))\n"
            "rel = CWRelation(WeightSet.finite((1,)), 1, 2)\n"
            "inst = Instance(('h',) + names, WeightParameter(WeightKind.EXACT, 2),"
            " (Constraint(rel, ('h', 'c00', 'c01')),))\n"
            "tables = build_cw_tables(inst, 2)\n"
            "started = time.monotonic()\n"
            "print(inclusion_exclusion_union(tables, {'h'}, set(names), 40),"
            " inclusion_exclusion_union(tables, {'h'}, set(names[1:]), 40),"
            " inclusion_exclusion_union(tables, {'h', 'c05'}, set(names), 40),"
            " time.monotonic() - started < 1)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=30,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__))},
        )
        assert (done.returncode, done.stdout) == (0, "1 1 0 True\n"), done.stderr

    def test_tails_are_summed_in_scan_order(self):
        # Scan order is {a}, {c}, {a, b}: the partial sums run 3, 6 and escape
        # a bound of 4. In the order of the masks a, b, c get as the keys are
        # read ({a}, {a, b}, {c}), they would run 3, 0, 3 and stay inside.
        a, ab, c = frozenset("a"), frozenset("ab"), frozenset("c")
        tables = CWChecker(
            b=2,
            delta_sizes={(frozenset(), a): 3, (frozenset(), ab): 3, (frozenset(), c): 3},
            lambda_caps={},
            delta_empty={frozenset(): 3},
            sum_bound=4,
        )
        with pytest.raises(ParamCSPError, match="partial sum escaped its bound"):
            inclusion_exclusion_union(tables, set(), {"a", "b", "c"}, 2)
        with pytest.raises(ParamCSPError, match="partial sum escaped its bound"):
            literal_union(tables, set(), {"a", "b", "c"}, 2)
        assert_matches_literal_check(tables, [("a", "b")])
        with pytest.raises(ParamCSPError, match="partial sum escaped its bound"):
            tables.check(("a", "b", "c"), 3)

    @settings(max_examples=200, deadline=None)
    @given(tables=hand_built_tables(), data=st.data())
    def test_matches_the_literal_union(self, tables, data):
        # The head is mostly a stored one, and the candidates cover some of
        # its stored tails, plus other names.
        head = data.draw(st.sampled_from([h for h, _ in tables.delta_sizes] + [frozenset("bh")]))
        tails = [g for h, g in tables.delta_sizes if h == head]
        covered = data.draw(st.lists(st.sampled_from(tails), max_size=3)) if tails else []
        cands = set(data.draw(guesses_of(NAMES))).union(*covered)
        bound = data.draw(st.sampled_from(range(-1, 9)))
        want = outcome(literal_union, tables, head, cands, bound)
        assert outcome(inclusion_exclusion_union, tables, head, cands, bound) == want

    def test_matches_direct_counts_under_premise(self):
        """Whenever no tail image meets the candidate set more than b times,
        the alternating sum counts exactly the constraints whose tail meets
        the candidates at all."""
        made = 0
        for case, inst in instances(600, cw_config, salt=11):
            if made == 150:
                break
            if not inst.body:
                continue
            b = len(inst.body[0].relation.weights.values)
            rng = random.Random(seed_for(case, salt=19))
            head = head_image(inst.body[rng.randrange(len(inst.body))])
            names = sorted(inst.variables)
            cands = frozenset(rng.sample(names, min(len(names), rng.randint(1, 3))))
            if not union_premise_holds(inst, head, cands, b):
                continue
            tables = build_cw_tables(inst, max(len(cands), len(head), 1))
            got = inclusion_exclusion_union(tables, head, cands, b)
            assert got == direct_union_count(inst, head, cands), f"case {case}"
            made += 1
        assert made == 150


class TestReduceCw:
    def test_requires_exact_weight(self):
        inst = Instance(
            variables=("x", "y"),
            weight=WeightParameter(WeightKind.ATMOST, 1),
            body=(Constraint(CWRelation(WS1, 1, 1), ("x", "y")),),
        )
        with pytest.raises(NotApplicableError, match="lift first"):
            reduce_cw(inst)

    def test_requires_conditional_body(self):
        with pytest.raises(NotApplicableError):
            reduce_cw(POSITIVE_X)

    def test_one_of_two_frozen(self):
        m = reduce_cw(ONE_OF_TWO)
        assert m.budget == 94
        assert simulate(m) == SimulationResult(True, frozenset({"x", "y"}), 94, 1)

    def test_forced_chain_is_unsatisfiable(self):
        inst = exact(
            "xyz",
            2,
            Constraint(CWRelation(WS1, 0, 1), ("x",)),
            Constraint(CWRelation(WS1, 1, 1), ("x", "y")),
            Constraint(CWRelation(WS1, 1, 1), ("x", "z")),
        )
        res = simulate(reduce_cw(inst))
        assert not res.accepted
        assert res.witness is None
        assert res.branches_explored == 3
        assert brute_force_solve(inst) is None

    def test_agrees_with_brute_force(self):
        accepted = 0
        for case, inst in instances(150, cw_config, salt=15):
            m = reduce_cw(inst)
            got = simulate(m)
            want = brute_force_solve(inst)
            assert got.accepted == (want is not None), f"case {case}"
            if got.accepted:
                assert got.witness == want, f"case {case}"
                assert satisfies(inst, got.witness)
                # Accepting branches run the full table check, so they cost
                # exactly the precomputed budget.
                assert got.max_branch_steps == m.budget, f"case {case}"
                accepted += 1
        assert accepted >= 30


def block_of_one(checker, combo, steps):
    """``combo`` judged as the walk judges it: its last name as a block of
    one, from its prefix's state grown from the root; returns (accepted, steps)."""
    prefix = combo[:-1]
    found, top = checker.check_block(reduce(checker.grow, prefix, None), prefix, combo[-1:], steps)
    return found is not None, top


def assert_matches_literal_check(checker, combos):
    """Every combo costs the same steps and gets the same verdict as the
    literal check, through ``check`` and, unless it is empty, as a block of one."""
    for combo in combos:
        steps = len(combo)
        want = literal_cw_check(checker, combo, steps)
        assert checker.check(combo, steps) == want, combo
        if combo:
            assert block_of_one(checker, combo, steps) == want, combo


def pipeline_cw_part(inst):
    """The conditional-weight half of the combined machine of ``solve_wd_pipeline(inst, 1)``."""
    lifted = lift_kle_to_k(completion_reduction(explicitize_w_body(inst, 1), 1).instance)
    return replace(
        lifted, body=tuple(c for c in lifted.body if isinstance(c.relation, CWRelation))
    )


class TestCWCheckerSkipsUnstoredHeads:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 7),
        k0=st.integers(0, 4),
        bound=st.integers(1, 3),
        body=st.integers(0, 6),
        max_arity=st.integers(1, 4),
    )
    def test_cw_profile_every_branch_of_every_size(self, seed, n, k0, bound, body, max_arity):
        cfg = InstanceConfig(
            n=n, k0=k0, profile="cw", body_len=body, max_arity=max_arity, cw_bound=bound
        )
        inst = random_instance(seed, cfg)
        checker = reduce_cw(inst).checker
        assert_matches_literal_check(checker, guesses(inst.variables, k0, exact=False))

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        k0=st.integers(0, 1),
        body=st.integers(1, 3),
        max_arity=st.integers(1, 3),
    )
    def test_pipeline_cw_part_every_branch(self, seed, n, k0, body, max_arity):
        cfg = InstanceConfig(
            n=n, k0=k0, profile="w-finite", body_len=body, max_arity=max_arity, finite_values=(1,)
        )
        part = pipeline_cw_part(random_instance(seed, cfg))
        checker = reduce_cw(part).checker
        assert_matches_literal_check(checker, guesses(sorted(part.variables), part.weight.k0, exact=False))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 6), data=st.data())
    def test_pipeline_cw_part_sampled_size_six_branches(self, seed, n, data):
        # k0 = 2 guesses 6 names out of about 17; every branch would take
        # minutes of literal checking, so a sample of them is compared.
        cfg = InstanceConfig(
            n=n, k0=2, profile="w-finite", body_len=2, max_arity=2, finite_values=(1,)
        )
        part = pipeline_cw_part(random_instance(seed, cfg))
        checker = reduce_cw(part).checker
        names = st.lists(st.sampled_from(part.variables), max_size=6, unique=True)
        combos = [tuple(sorted(data.draw(names))) for _ in range(8)]
        assert_matches_literal_check(checker, combos)

    def test_a_head_stored_only_in_a_tail_row_is_still_checked(self):
        # The only row caps 2 positions of y under head x against a tail bound
        # of 1. Head {x} has no empty-tail row, so a skip rule reading heads
        # from delta_empty alone would accept {x, y}.
        row = {"count": 0, "head": ["x"], "max_positions": 2, "tail": ["y"]}
        machine = parse_machine(json.dumps({
            "format_version": "1",
            "machine": {
                "b": 1, "budget": 94, "exact": True, "k0": 2, "kind": "cw",
                "sum_bound": 0, "tables": [row], "universe": ["x", "y"],
            },
        }))
        assert frozenset({"x"}) not in machine.checker.delta_empty
        assert simulate(machine) == SimulationResult(False, None, 18, 1)
        assert machine.checker.check(("x", "y"), 2) == literal_cw_check(machine.checker, ("x", "y"), 2)

    def test_a_head_failing_past_its_first_pair_is_charged_up_to_that_pair(self):
        # Head {x} is stored and passes; head {y} first exceeds its cap at
        # G = {x, z}, the sixth of the seven tail sets of at most b + 1 names.
        inst = exact(
            "xyz",
            3,
            Constraint(CWRelation(WS1, head=1, tail=1), ("x", "y")),
            Constraint(CWRelation(WS1, head=1, tail=2), ("y", "x", "z")),
        )
        checker = reduce_cw(inst).checker
        assert_matches_literal_check(checker, lex_subsets(("x", "y", "z"), 3))
        assert checker.lambda_caps[(frozenset("y"), frozenset("xz"))] == 2
        # 3 to write the guess, 16 for head {}, 1 * 7 + 16 for head {x}, and
        # six pairs of head {y} at |B| + |G| + 1 = 2 * 6 + (0 + 1 + 1 + 1 + 2 + 2).
        assert checker.check(("x", "y", "z"), 3) == (False, 61)
        assert literal_cw_check(checker, ("x", "y", "z"), 3) == (False, 61)
        assert simulate(reduce_cw(inst)) == SimulationResult(False, None, 61, 1)

    @pytest.mark.parametrize("table", ["delta_sizes", "lambda_caps", "delta_empty"])
    def test_each_table_alone_marks_its_heads_stored(self, table):
        x, y = frozenset({"x"}), frozenset({"y"})
        tables = {"delta_sizes": {}, "lambda_caps": {}, "delta_empty": {}}
        if table == "delta_empty":
            tables[table][x] = 1
        else:
            tables[table][(x, y)] = 2
        checker = CWChecker(b=1, sum_bound=2, **tables)
        assert checker.rows.keys() | checker.over_cap.keys() == {checker.bits["x"]}
        assert_matches_literal_check(checker, lex_subsets(("x", "y", "z"), 3))
        assert not checker.check(("x", "y"), 0)[0]

    @pytest.mark.parametrize("field_name", ["b", "sum_bound"])
    @pytest.mark.parametrize("value", [-1, True, 1.0])
    def test_bounds_must_be_nonnegative_integers(self, field_name, value):
        # A negative bound would fail a head that reads zero everywhere.
        with pytest.raises(ValidationError):
            replace(trivial_cw_checker(), **{field_name: value})


class TestMaskCheck:
    @settings(max_examples=300, deadline=None)
    @given(tables=hand_built_tables(), combo=guesses_of(NAMES[:6]))
    def test_hand_built_tables_match_the_literal_check(self, tables, combo):
        # Guesses draw from a-f, so keys naming g or h lie partly outside.
        want = outcome(literal_cw_check, tables, combo, len(combo))
        assert outcome(tables.check, combo, len(combo)) == want
        if combo:
            assert outcome(block_of_one, tables, combo, len(combo)) == want

    def test_check_lists_no_subsets(self, monkeypatch):
        checker = reduce_cw(ONE_OF_TWO).checker
        calls = []

        def counting(*args):
            calls.append(args)
            return subsets_by_size(*args)

        monkeypatch.setattr(paramcsp.machines, "subsets_by_size", counting)
        monkeypatch.setattr(paramcsp._sets, "subsets_by_size", counting)
        assert_matches_literal_check(checker, lex_subsets(("x", "y", "z"), 3))
        assert calls == []

    def test_names_in_no_key_get_bits_of_their_own(self):
        # A name in no key must not fold into the mask of a stored head: with
        # w unstored, {x, w} is not the head {x} and {w} is not the tail {y}.
        checker = reduce_cw(ONE_OF_TWO).checker
        assert "w" not in checker.bits
        assert_matches_literal_check(checker, lex_subsets(("w", "x", "y", "z"), 4))

    def test_bits_go_to_names_in_sorted_order(self):
        part = pipeline_cw_part(random_instance(3, InstanceConfig(
            n=5, k0=1, profile="w-finite", body_len=3, max_arity=2, finite_values=(1,)
        )))
        checker = reduce_cw(part).checker
        names = list(checker.bits)
        assert len(names) > 2
        assert names == sorted(names)
        assert list(checker.bits.values()) == [1 << i for i in range(len(names))]

    def test_derived_tables_do_not_depend_on_the_hash_seed(self):
        # Four-name head and two-name tail sets iterate in a seed-dependent
        # order; the bits, and every table keyed by them, must not.
        code = (
            "from paramcsp import CWChecker\n"
            "h, g = frozenset('pqrs'), frozenset('tu')\n"
            "ck = CWChecker(b=1, delta_sizes={(h, g): 1}, lambda_caps={(h, g): 2},"
            " delta_empty={h: 1, frozenset(): 1}, sum_bound=9)\n"
            "print(ck.bits, ck.rows, ck.over_cap, ck.cap_unions, ck.empty_tails)\n"
        )
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                encoding="utf-8",
                timeout=60,
                check=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__)),
                },
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("b", range(4))
    @pytest.mark.parametrize("k", range(9))
    def test_scan_plan_matches_literal_sums(self, k, b):
        # A guess that passes the cap scan and misses the empty head's row:
        # decided from its prefix, or walked when a tail outside the guess
        # could let a partial sum escape. Both charge the closed form.
        subsets = subsets_by_size(range(k), k)
        pairs = [g for g in subsets if len(g) <= b + 1]
        pair_scan = sum(len(g) + 1 for g in pairs)
        term_scan = sum(len(g) + 2 for g in subsets if 1 <= len(g) <= b) + 2
        # Every head's pairs, then the terms of the empty head, which has no names.
        miss = sum(len(head) * len(pairs) + pair_scan for head in subsets) + term_scan
        e, outside = frozenset(), frozenset("z")
        for delta_sizes in ({}, {(e, outside): 1}):
            checker = CWChecker(b=b, delta_sizes=delta_sizes, lambda_caps={}, delta_empty={e: 1}, sum_bound=0)
            assert (checker.empty_tails is None) == (b > 0 and bool(delta_sizes))
            assert checker.check(tuple(NAMES[:k]), 0) == (False, miss)
            if k:
                assert block_of_one(checker, tuple(NAMES[:k]), 0) == (False, miss)

    def test_rank_matches_subsets_by_size(self):
        for k in range(11):
            before = 0
            for rank, subset in enumerate(subsets_by_size(range(k), k)):
                assert _rank(k, sorted(subset)) == (rank, before), (k, subset)
                before += len(subset)


@st.composite
def prefix_tables(draw):
    """Checkers over the names a-h whose empty head is often stored: caps of
    the empty head on singletons, empty-head rows on either side of
    ``sum_bound`` (up to 40), or no empty head at all."""
    b = draw(st.integers(0, 3))
    heads = st.sampled_from([frozenset(), frozenset(), frozenset("a"), frozenset("bh")])
    keys = st.tuples(heads, name_sets)
    counts = st.sampled_from(range(5))
    delta_empty = draw(st.dictionaries(heads, st.integers(1, 6), max_size=3))
    if draw(st.booleans()):
        delta_empty.pop(frozenset(), None)
    return CWChecker(
        b=b,
        delta_sizes=draw(st.dictionaries(keys, counts, max_size=16)),
        lambda_caps=draw(st.dictionaries(keys, st.sampled_from(range(b + 3)), max_size=4)),
        delta_empty=delta_empty,
        sum_bound=draw(st.sampled_from([0, 1, 3, 8, 40])),
    )


@st.composite
def one_name_head_tables(draw):
    """Checkers over the names a-f whose heads are the empty one and heads of
    one name, so that a prefix meets some rows and leaves others unmet, a
    last name completes or changes them, and some rows' counts sum past
    ``sum_bound``."""
    b = draw(st.integers(1, 2))
    heads = st.sampled_from([frozenset()] + [frozenset(v) for v in "abcd"])
    keys = st.tuples(heads, st.frozensets(st.sampled_from(NAMES[:6]), min_size=1, max_size=2))
    return CWChecker(
        b=b,
        delta_sizes=draw(st.dictionaries(keys, st.integers(1, 2), max_size=12)),
        lambda_caps=draw(st.dictionaries(keys, st.sampled_from(range(b + 2)), max_size=2)),
        delta_empty={frozenset(): 1, **draw(st.dictionaries(heads, st.integers(0, 2), max_size=5))},
        sum_bound=draw(st.sampled_from([1, 2, 4, 40])),
    )


@st.composite
def guess_sequences(draw):
    """Sorted guesses over a-f in the orders a checker may meet them: a lex
    run of one size, the at-most order of changing sizes, and either one
    shuffled, with repeats."""
    names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES[:6]), max_size=6))))
    k = draw(st.integers(0, 4))
    combos = list(combinations(names, k) if draw(st.booleans()) else lex_subsets(names, k))
    order = draw(st.sampled_from(["as listed", "shuffled", "repeated"]))
    if order == "shuffled":
        combos = draw(st.permutations(combos))
    elif order == "repeated":
        combos = [c for c in combos for _ in range(draw(st.integers(1, 2)))]
    return combos


class TestPrefixCache:
    @settings(max_examples=300, deadline=None)
    @given(tables=prefix_tables(), combos=guess_sequences())
    def test_a_sequence_through_one_checker_matches_fresh_literal_checks(self, tables, combos):
        # One checker sees every guess in turn, in any order, and grows each
        # guess's prefix state afresh; the literal check of a fresh copy of
        # the tables is the reference.
        for combo in combos:
            want = outcome(literal_cw_check, replace(tables), combo, len(combo))
            assert outcome(tables.check, combo, len(combo)) == want, combo
            if combo:
                assert outcome(block_of_one, tables, combo, len(combo)) == want, combo

    def test_a_lex_run_builds_one_state_per_prefix(self, monkeypatch):
        # Every name is keyed, so each grown state goes through _grow. A state
        # stays alive while its children grow, so its id names its prefix.
        machine = reduce_cw(_counting_unsat(6))
        want = literal_simulate(fresh_copy(machine))
        name_of = {bit: name for name, bit in machine.checker.bits.items()}
        prefix_of: dict[int, tuple[str, ...]] = {}
        built = []
        real = CWChecker._grow

        def counting(self, parent, bit, name):
            state = real(self, parent, bit, name)
            built.append(prefix_of.get(id(parent), ()) + (name_of[bit],))
            prefix_of[id(state)] = built[-1]
            return state

        monkeypatch.setattr(CWChecker, "_grow", counting)
        assert simulate(machine) == want
        combos = list(combinations(machine.universe, 3))
        # Each proper prefix of a guess grows once, parents first.
        assert built == sorted({combo[:i] for combo in combos for i in (1, 2)})

    def test_a_name_in_no_key_leaves_the_state_as_it_is(self):
        # Only c is keyed; a, b and d read zero everywhere.
        caps = {(frozenset(), frozenset("c")): 2}
        checker = CWChecker(b=1, delta_sizes={}, lambda_caps=caps, delta_empty={}, sum_bound=2)
        state = checker.grow(None, "c")
        assert checker.grow(state, "d") is state
        assert checker.grow(checker.root, "a") is checker.root

    def test_a_cap_failure_is_priced_from_its_place_in_the_prefix(self):
        # a and b are in no key, so the state of (a, b, c) is that of (c,);
        # the cap fails at the pair ({}, {c}), the fourth pair of the empty
        # head's scan: 2 * 4 - 1 = 7 steps after the 4 already charged.
        caps = {(frozenset(), frozenset("c")): 2}
        checker = CWChecker(b=1, delta_sizes={}, lambda_caps=caps, delta_empty={frozenset(): 1}, sum_bound=2)
        prefix = ("a", "b", "c")
        state = reduce(checker.grow, prefix, None)
        assert checker.check_block(state, prefix, ("d", "e"), 4) == (None, 11)
        for last in "de":
            assert literal_cw_check(checker, prefix + (last,), 4) == (False, 11)

    @pytest.mark.parametrize("build", ["cap", "row"])
    def test_decided_branches_skip_the_scan(self, build, monkeypatch):
        # Every guess of the counting-unsat family fails the empty head's cap
        # at its first name. With x the one tail of ``CW(d=0){1}``, {a, b},
        # {a, c} and {a, d} pass the cap scan and fail the empty head's row.
        # As blocks of one, none of them reaches the scan.
        if build == "cap":
            inst = _counting_unsat(5)
        else:
            inst = exact("abcdx", 2, Constraint(CWRelation(WS1, head=0, tail=1), ("x",)))
        checker = reduce_cw(inst).checker
        combos = list(combinations(inst.variables, inst.weight.k0))[:3]
        want = [literal_cw_check(checker, combo, 2) for combo in combos]
        checked = counted_scans(monkeypatch)
        assert [block_of_one(checker, combo, 2) for combo in combos] == want
        assert checked == []

    @pytest.mark.parametrize("head", ["", "a"])
    def test_a_last_name_completing_an_over_cap_pair_keeps_the_scan(self, head):
        # The empty head's row misses on every guess, but ``head`` over c is
        # over its cap: {a, c} must fail the cap scan, not the row, while
        # {a, b} and {a, d} fail the row.
        e, c = frozenset(), frozenset("c")
        checker = CWChecker(
            b=1, delta_sizes={}, lambda_caps={(frozenset(head), c): 2}, delta_empty={e: 1}, sum_bound=2
        )
        combos = [("a", "b"), ("a", "c"), ("a", "d")]
        assert_matches_literal_check(checker, combos)
        assert literal_cw_check(checker, ("a", "c"), 2) != literal_cw_check(checker, ("a", "b"), 2)

    def test_rows_whose_counts_could_escape_keep_the_scan(self):
        # The empty head's counts sum to 5 in absolute value against a bound
        # of 4, so only the scan may judge the row, and it raises at {a, c}.
        e, a, c = frozenset(), frozenset("a"), frozenset("c")
        checker = CWChecker(
            b=1, delta_sizes={(e, a): 1, (e, c): 4}, lambda_caps={}, delta_empty={e: 1}, sum_bound=4
        )
        assert checker.empty_tails is None
        assert checker.check(("a", "b"), 2) == literal_cw_check(checker, ("a", "b"), 2)
        with pytest.raises(ParamCSPError, match="partial sum escaped its bound"):
            checker.check(("a", "c"), 2)

    @pytest.mark.parametrize("build", ["counting", "pipeline"])
    def test_simulation_leaves_equality_and_bytes_unchanged(self, build):
        if build == "counting":
            machine = reduce_cw(_counting_unsat(8))
        else:
            cfg = InstanceConfig(n=5, k0=1, profile="w-finite", body_len=3, max_arity=2, finite_values=(1,))
            machine = reduce_cw(pipeline_cw_part(random_instance(3, cfg)))
        fresh = replace(machine.checker)
        text = serialize_machine(machine)
        simulate(machine)
        assert machine.checker == fresh
        assert machine == replace(machine, checker=fresh)
        assert serialize_machine(machine) == text
        assert repr(machine.checker) == repr(fresh)


def _counting_unsat(n):
    """``n`` copies of ``CW(d=0){1}`` on ``(v, v)``: every name is over its cap."""
    names = tuple(f"v{i}" for i in range(n))
    body = tuple(Constraint(CWRelation(WS1, 0, 2), (v, v)) for v in names)
    return exact(names, 3, *body)


def grown_blocks(checker, names, k0):
    """The ``(k0 - 1)``-prefixes of the ``k0``-guesses of ``names``, in lex
    order, as ``(state, prefix, lasts)``: the checker's state of the prefix
    grown from the root by :meth:`grow`, and the names after the prefix."""
    if k0 < 1:
        return
    for prefix in combinations(names[:-1], k0 - 1):
        lasts = names[names.index(prefix[-1]) + 1 :] if prefix else names
        yield reduce(checker.grow, prefix, None), prefix, lasts


def per_last_block(check, prefix, lasts, steps):
    """``check_block`` read as the per-last loop: each guess in turn until one accepts."""
    top = 0
    for i, last in enumerate(lasts):
        accepted, charged = check(prefix + (last,), steps)
        top = max(top, charged)
        if accepted:
            return i, top
    return None, top


def needs_scan(tables, prefix, last):
    """Whether the block walk must scan ``prefix + (last,)``, read from the
    tables by name. A cap failure of the empty head at ``{}`` or at a prefix
    name decides the whole block. Otherwise the guess is scanned when a
    subset of it is the union of an over-cap pair. Else the heads ``{}`` and
    ``{p}``, for each prefix name ``p`` in turn, are read up to the first
    whose counts on tails of 1 to ``b`` names can escape ``sum_bound``; a
    head with no row reads as met. The first whose row the prefix leaves
    unmet decides the guess unless the last name completes that row or
    changes the row of a met head before it. With none unmet, nothing
    decides."""
    b, e = tables.b, frozenset()
    firsts = [e] + [frozenset({v}) for v in prefix]
    if any(tables.lambda_caps.get((e, g), 0) > b for g in firsts):
        return False
    unions = {bset | g for (bset, g), cap in tables.lambda_caps.items() if cap > b and len(g) <= b + 1}
    guess = prefix + (last,)
    subsets = {frozenset(c) for size in range(len(guess) + 1) for c in combinations(guess, size)}
    if unions & subsets:
        return True
    changed = False
    for head in firsts:
        row = {
            g: d if len(g) % 2 else -d
            for (bset, g), d in tables.delta_sizes.items()
            if bset == head and 0 < len(g) <= b and d
        }
        if sum(map(abs, row.values())) > tables.sum_bound:
            break
        missing = tables.delta_empty.get(head, 0) - sum(d for g, d in row.items() if g <= set(prefix))
        reach = sum(d for g, d in row.items() if last in g and g <= set(guess))
        if missing:
            return changed or reach == missing
        changed = changed or reach != 0
    return True


@st.composite
def block_machines(draw):
    """Machines of every checker kind, with their own budgets or hand-picked
    ones that some branch may overrun: built conditional-weight machines;
    hand-built tables, including forged ones whose partial sums escape;
    appearance machines under any cost model; appearance and
    conditional-weight machines combined; combined machines nested up to
    three levels deep (:func:`combined_machines`); and the always-rejecting
    machine."""
    kind = draw(st.sampled_from(["cw", "tables", "appearance", "combined", "nested", "reject"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "nested":
        machine = draw(combined_machines())
    elif kind in ("cw", "combined"):
        cfg = InstanceConfig(
            n=draw(st.integers(1, 7)), k0=draw(st.integers(0, 4)), profile="cw",
            body_len=draw(st.integers(0, 8)), max_arity=draw(st.integers(1, 4)),
            cw_bound=draw(st.integers(1, 3)),
        )
        inst = random_instance(seed, cfg)
        machine = reduce_cw(inst)
        if kind == "combined":
            machine = combine_machines(reduce_appearance(inst), machine)
    elif kind == "appearance":
        machine = reduce_appearance(draw(finite_bodies(("W", "explicit", "other"))), draw(cost_models()))
    else:
        names = tuple(sorted(draw(st.sets(st.sampled_from(NAMES[:6]), max_size=6))))
        checker = AlwaysReject()
        if kind == "tables":
            checker = draw(st.one_of(hand_built_tables(), prefix_tables(), one_name_head_tables()))
        machine = GuessCheckMachine(names, draw(st.integers(0, 4)), 10**6, checker)
    if draw(st.booleans()):
        machine = replace(machine, budget=draw(st.integers(0, max(machine.budget, 400))))
    return machine


def serialized(machine):
    """The machine document, or the refusal serializing raises (hand-built
    tables need not have a cap for every stored count)."""
    try:
        return serialize_machine(machine)
    except ValidationError as exc:
        return repr(exc)


def fresh_copy(machine):
    """``machine`` with checkers that have seen no guess."""
    checker = machine.checker
    if isinstance(checker, CombinedChecker):
        checker = CombinedChecker(fresh_copy(checker.first), fresh_copy(checker.second))
    return replace(machine, checker=replace(checker))


@st.composite
def combined_machines(draw):
    """Combined machines nested up to three levels deep, over the names of one
    drawn conditional-weight instance. Parts are its appearance machine, the
    conditional-weight machines of it and of a second instance over the same
    names, and the always-rejecting machine."""
    cfg = InstanceConfig(
        n=draw(st.integers(1, 6)), k0=draw(st.integers(0, 3)), profile="cw",
        body_len=draw(st.integers(0, 6)), max_arity=draw(st.integers(1, 3)),
        cw_bound=draw(st.integers(1, 2)),
    )
    first, second = (random_instance(draw(st.integers(0, 2**32 - 1)), cfg) for _ in range(2))
    cw = reduce_cw(first)
    reject = GuessCheckMachine(cw.universe, cw.k0, 0, AlwaysReject())
    leaves = [reduce_appearance(first), cw, reduce_cw(second), reject]

    def part(depth):
        if depth and draw(st.booleans()):
            return combine_machines(part(depth - 1), part(depth - 1))
        return draw(st.sampled_from(leaves))

    return combine_machines(part(2), part(2))


class TestCombinedCheck:
    @settings(max_examples=150, deadline=None)
    @given(machine=combined_machines())
    def test_built_machines_stay_within_their_budgets(self, machine):
        # simulate raises BudgetExceededError on the first branch over budget.
        assert simulate(machine).max_branch_steps <= machine.budget

    @settings(max_examples=150, deadline=None)
    @given(machine=combined_machines())
    def test_check_matches_the_parts_own_branches(self, machine):
        # Every guess of every size, and every sibling block, against the
        # parts' own run_branch on a fresh copy: accept bit and steps.
        reference = fresh_copy(machine).checker
        checker = machine.checker
        for size in range(len(machine.universe) + 1):
            for combo in combinations(machine.universe, size):
                want = outcome(literal_combined_check, reference, combo, size)
                assert outcome(checker.check, combo, size) == want, combo
        literal = partial(literal_combined_check, reference)
        for state, prefix, lasts in grown_blocks(checker, machine.universe, machine.k0):
            steps = len(prefix) + 1
            want = outcome(per_last_block, literal, prefix, lasts, steps)
            assert outcome(checker.check_block, state, prefix, lasts, steps) == want, prefix


    def test_blocks_of_the_wrong_guess_size_reject_as_check_does(self):
        # k0 = 2: blocks under a prefix of 0 or 2 names judge guesses of 1 or 3.
        inst = exact("abcd", 2, Constraint(CWRelation(WS1, head=0, tail=1), ("a",)))
        checker = combine_machines(reduce_appearance(inst), reduce_cw(inst)).checker
        for prefix, lasts in [((), ("a", "b", "c", "d")), (("a", "b"), ("c", "d"))]:
            for steps in (0, 5):
                want = per_last_block(checker.check, prefix, lasts, steps)
                assert want == (None, steps + len(prefix) + 1)
                assert checker.check_block(reduce(checker.grow, prefix, None), prefix, lasts, steps) == want


class TestBlockWalk:
    @settings(max_examples=400, deadline=None)
    @given(machine=block_machines())
    def test_simulation_matches_the_per_branch_loop(self, machine):
        # The result, or the raised error and its message, of the literal
        # per-branch loop on a fresh copy; budgets, equality and serialized
        # bytes stay as they were.
        fresh = fresh_copy(machine)
        text = serialized(machine)
        want = outcome(literal_simulate, fresh)
        assert outcome(simulate, machine) == want
        assert machine == fresh
        assert serialized(machine) == text

    @settings(max_examples=300, deadline=None)
    @given(
        tables=st.one_of(hand_built_tables(), prefix_tables(), one_name_head_tables()),
        k0=st.integers(1, 4),
    )
    def test_cw_blocks_match_the_literal_per_last_loop(self, tables, k0):
        # Checked directly, not through simulate, whose re-walk of a raising
        # or overrunning block would hide a wrong block result.
        reference = replace(tables)
        for state, prefix, lasts in grown_blocks(tables, tuple(NAMES[:6]), k0):
            steps = len(prefix) + 1
            want = outcome(per_last_block, reference.check, prefix, lasts, steps)
            literal = outcome(per_last_block, partial(literal_cw_check, reference), prefix, lasts, steps)
            assert want == literal
            assert outcome(tables.check_block, state, prefix, lasts, steps) == want, prefix

    @settings(max_examples=100, deadline=None)
    @given(inst=finite_bodies(("W", "explicit", "other")), cm=cost_models())
    def test_appearance_blocks_match_the_per_last_loop(self, inst, cm):
        checker = AppearanceChecker(inst.body, cm)
        k0 = max(inst.weight.k0, 1)
        for state, prefix, lasts in grown_blocks(checker, inst.variables, k0):
            steps = len(prefix) + 1
            want = per_last_block(checker.check, prefix, lasts, steps)
            assert checker.check_block(state, prefix, lasts, steps) == want, prefix

    def test_appearance_walk_judges_each_touched_set_once(self, monkeypatch):
        # Only a0 is in a constraint, so every guess holding a0 has the
        # touched set (a0,) and every other one (): each is judged once.
        body = (Constraint(WRelation(WS1, 1), ("a0",)), Constraint(WRelation(WS0, 1), ("a0",)))
        machine = reduce_appearance(exact(("a0", "f1", "f2", "f3", "f4"), 2, *body))
        want = literal_simulate(fresh_copy(machine))
        checked = counted_checks(monkeypatch)
        assert simulate(machine) == want
        assert checked == [("a0",), ()]

    @settings(max_examples=300, deadline=None)
    @given(
        tables=st.one_of(prefix_tables(), hand_built_tables(), one_name_head_tables()),
        names=st.sets(st.sampled_from(NAMES[:6]), max_size=6),
        k0=st.integers(0, 4),
    )
    def test_check_runs_only_on_the_lasts_that_need_the_scan(self, tables, names, k0):
        machine = GuessCheckMachine(tuple(sorted(names)), k0, 10**9, tables)
        result = outcome(literal_simulate, fresh_copy(machine))
        assume(isinstance(result, SimulationResult))  # a raising block is walked again branch by branch
        walked = list(islice(guesses(machine.universe, k0, True), result.branches_explored))
        with pytest.MonkeyPatch.context() as patch:
            checked = counted_scans(patch)
            assert simulate(machine) == result
        assert checked == [g for g in walked if not g or needs_scan(tables, g[:-1], g[-1])]

    def test_a_built_machine_scans_only_what_its_row_leaves_open(self, monkeypatch):
        # With x the one tail of CW(d=0){1}, every guess without x misses the
        # empty head's row; only {a, x} is scanned, and it accepts.
        machine = reduce_cw(exact("abcdx", 2, Constraint(CWRelation(WS1, head=0, tail=1), ("x",))))
        want = literal_simulate(fresh_copy(machine))
        checked = counted_scans(monkeypatch)
        result = simulate(machine)
        assert result == want
        assert (result.witness, result.branches_explored) == (frozenset("ax"), 4)
        assert checked == [("a", "x")]

    def test_an_overrun_inside_a_bulk_decided_block_names_its_first_guess(self):
        # {a, b} is scanned (b closes the over-cap pair {a} over {b}) and fails
        # early; {a, c} misses the empty head's row and is charged without a
        # call, more than {a, b}. A budget between the two is overrun first at
        # {a, c}, inside the bulk-decided part of the block.
        e, a, b, z = frozenset(), frozenset("a"), frozenset("b"), frozenset("z")
        tables = CWChecker(
            b=1, delta_sizes={(e, z): 1}, lambda_caps={(a, b): 2}, delta_empty={e: 1}, sum_bound=1
        )
        scanned = literal_cw_check(tables, ("a", "b"), 2)[1]
        decided = literal_cw_check(tables, ("a", "c"), 2)[1]
        assert scanned < decided
        machine = GuessCheckMachine(("a", "b", "c", "z"), 2, scanned, tables)
        assert tables.check_block(tables.grow(None, "a"), ("a",), ("b", "c"), 2) == (None, decided)
        message = f"branch ('a', 'c') used {decided} steps against budget {scanned}"
        with pytest.raises(BudgetExceededError) as raised:
            simulate(machine)
        assert str(raised.value) == message
        assert outcome(literal_simulate, fresh_copy(machine)) == (BudgetExceededError, message)

    def test_a_pair_column_moves_a_last_onto_the_row(self, monkeypatch):
        # Under b = 2, {a, c} reaches the empty head's row only through the
        # pair {a, c}: 1 + 2 - 1 = 2. {a, b} misses it without a scan.
        e, a, c = frozenset(), frozenset("a"), frozenset("c")
        tables = CWChecker(
            b=2, delta_sizes={(e, a): 1, (e, c): 2, (e, a | c): 1}, lambda_caps={},
            delta_empty={e: 2}, sum_bound=4,
        )
        machine = GuessCheckMachine(("a", "b", "c"), 2, _cw_budget(2, 2), tables)
        want = literal_simulate(fresh_copy(machine))
        assert (want.witness, want.branches_explored) == (a | c, 2)
        checked = counted_scans(monkeypatch)
        assert simulate(machine) == want
        assert checked == [("a", "c")]

    def test_the_first_unmet_one_name_head_decides(self, monkeypatch):
        # The prefix (a, b) meets the empty head and head {a}, and leaves
        # head {b} unmet. {a, b, c} misses {b}'s row without a scan; d changes
        # the met row of {a}, and e completes {b}'s row, so both are scanned,
        # and {a, b, e} accepts.
        e, a, b = frozenset(), frozenset("a"), frozenset("b")
        tables = CWChecker(
            b=1,
            delta_sizes={(e, a): 1, (a, b): 1, (a, frozenset("d")): 1, (b, frozenset("e")): 1},
            lambda_caps={},
            delta_empty={e: 1, a: 1, b: 1},
            sum_bound=2,
        )
        machine = GuessCheckMachine(tuple("abcde"), 3, _cw_budget(3, 1), tables)
        want = literal_simulate(fresh_copy(machine))
        assert (want.witness, want.branches_explored) == (frozenset("abe"), 3)
        state = reduce(tables.grow, "ab", None)
        assert (state.head, state.missing) == ("b", 1)
        block = per_last_block(partial(literal_cw_check, tables), ("a", "b"), "cde", 3)
        assert tables.check_block(state, ("a", "b"), "cde", 3) == block
        checked = counted_scans(monkeypatch)
        assert simulate(machine) == want
        assert checked == [("a", "b", "d"), ("a", "b", "e")]

    @pytest.mark.parametrize("names", ["abce", "abcd"])
    def test_a_one_name_head_whose_counts_can_escape_decides_nothing(self, names, monkeypatch):
        # Head {a}'s counts sum to 2 against a bound of 1, so no head after it
        # decides: both guesses under (a, b) are scanned, and fail at the
        # unmet head {b}. Over a-e, {a, c, e} accepts; over a-d, {a, c, d}
        # escapes the bound at {a}.
        e, a = frozenset(), frozenset("a")
        tables = CWChecker(
            b=1,
            delta_sizes={(e, a): 1, (a, frozenset("c")): 1, (a, frozenset("d")): 1},
            lambda_caps={},
            delta_empty={e: 1, a: 1, frozenset("b"): 1},
            sum_bound=1,
        )
        machine = GuessCheckMachine(tuple(names), 3, _cw_budget(3, 1), tables)
        state = reduce(tables.grow, "ab", None)
        assert (state.sums, state.missing, state.head) == (None, 0, "")
        want = outcome(literal_simulate, fresh_copy(machine))
        assert want == {
            "abce": SimulationResult(True, frozenset("ace"), machine.budget, 3),
            "abcd": (ParamCSPError, "partial sum escaped its bound"),
        }[names]
        checked = counted_scans(monkeypatch)
        assert outcome(simulate, machine) == want
        assert checked[:2] == [("a", "b", names[2]), ("a", "b", names[3])]

    @settings(max_examples=100, deadline=None)
    @given(
        tables=st.one_of(prefix_tables(), hand_built_tables(), one_name_head_tables()),
        prefix=guesses_of(NAMES[:8]),
    )
    def test_a_state_holds_sums_only_while_an_unmet_head_decides(self, tables, prefix):
        # One rule decides a block: the first unmet gated head. A state with
        # no such head holds no sums, so no met row decides any last.
        for i in range(len(prefix) + 1):
            state = reduce(tables.grow, prefix[:i], None) or tables.root
            assert state.sums is None or state.missing != 0, prefix[:i]

    def test_a_one_name_head_decides_when_the_empty_head_has_no_row(self, monkeypatch):
        # No constraint has the empty head. The prefix (a,) leaves head {a}
        # unmet, and no last reaches its one tail z, so every last misses it.
        a = frozenset("a")
        tables = CWChecker(
            b=1, delta_sizes={(a, frozenset("z")): 1}, lambda_caps={}, delta_empty={a: 1}, sum_bound=1
        )
        state = tables.grow(None, "a")
        assert (state.head, state.missing) == ("a", 1)
        block = per_last_block(partial(literal_cw_check, tables), ("a",), "bcd", 2)
        checked = counted_scans(monkeypatch)
        assert tables.check_block(state, ("a",), "bcd", 2) == block
        assert checked == []

    def test_a_prefix_meeting_every_gated_head_scans_every_last(self, monkeypatch):
        # The prefix (a,) meets the empty head's row, and each last changes
        # it, so every guess misses it; with no unmet head, each is scanned.
        e = frozenset()
        tables = CWChecker(
            b=1,
            delta_sizes={(e, frozenset(v)): 1 for v in "abcd"},
            lambda_caps={},
            delta_empty={e: 1},
            sum_bound=4,
        )
        state = tables.grow(None, "a")
        assert (state.sums, state.missing) == (None, 0)
        block = per_last_block(partial(literal_cw_check, tables), ("a",), "bcd", 2)
        assert block[0] is None
        checked = counted_scans(monkeypatch)
        assert tables.check_block(state, ("a",), "bcd", 2) == block
        assert checked == [("a", "b"), ("a", "c"), ("a", "d")]

    def test_an_unsatisfiable_pipeline_instance_scans_nothing(self, monkeypatch):
        # Every guess that passes the weight part misses the first unmet head
        # of at most one name of its prefix.
        machine = k2_unsat_pipeline()
        checked = counted_scans(monkeypatch)
        assert simulate(machine) == SimulationResult(False, None, 17209, 462)
        assert checked == []

    def test_an_inclusion_exclusion_bound_on_the_empty_head_may_not_skip(self):
        # Tables no instance produces: a tail's count counts constraints whose
        # tail image contains it, yet {x, y} counts 1 where {y} counts 0.
        # Under the first name p the alive names are
        # p q r x y, and S1 - S2 + S3 over them reads 1 + 1 - 1 = 1, below
        # the empty head's count of 2; yet {p, q, x} meets the empty head's
        # row, so a subtree rule skipping on that bound would reject.
        rows = [
            {"count": 2, "head": [], "tail": []},
            {"count": 1, "head": [], "max_positions": 1, "tail": ["p"]},
            {"count": 1, "head": [], "max_positions": 1, "tail": ["x"]},
            {"count": 1, "head": [], "max_positions": 2, "tail": ["x", "y"]},
            {"count": 1, "head": ["a"], "tail": []},
        ]
        machine = parse_machine(json.dumps({
            "format_version": "1",
            "machine": {
                "b": 2, "budget": 527, "exact": True, "k0": 3, "kind": "cw",
                "sum_bound": 12, "tables": rows, "universe": list("apqrxy"),
            },
        }))
        want = SimulationResult(True, frozenset("pqx"), 527, 12)
        assert simulate(machine) == want
        assert literal_simulate(machine) == want

    @settings(max_examples=300, deadline=None)
    @given(machine=block_machines())
    def test_branches_explored_has_a_closed_form(self, machine):
        # Guesses are walked in lex order: a rejecting run explores all
        # C(n, k0) of them, an accepting one the witness's lex rank plus one,
        # which the combinatorial number system gives from its positions.
        assume(not isinstance(machine.checker, AlwaysReject))
        n, k0 = len(machine.universe), machine.k0
        assume(k0 <= n)
        result = outcome(simulate, machine)
        assume(isinstance(result, SimulationResult))  # an overrun or escaping sum raises
        want = comb(n, k0)
        if result.accepted:
            positions = sorted(map(machine.universe.index, result.witness))
            want -= sum(comb(n - 1 - p, k0 - i) for i, p in enumerate(positions))
        assert result.branches_explored == want

    def test_an_overrun_before_a_raising_branch_is_named_first(self):
        # {a, c} misses the empty head's row and is charged without a scan;
        # {a, d} reaches it, then head {a} sums 2 against a bound of 1 and
        # raises. With room for neither, the overrun at {a, c} comes first.
        e, a, d = frozenset(), frozenset("a"), frozenset("d")
        tables = CWChecker(
            b=1, delta_sizes={(e, d): 1, (a, d): 2}, lambda_caps={}, delta_empty={e: 1}, sum_bound=1
        )
        assert tables.empty_tails is not None
        decided = literal_cw_check(tables, ("a", "c"), 2)[1]
        state = tables.grow(None, "a")
        assert tables.check_block(state, ("a",), ("c",), 2) == (None, decided)
        with pytest.raises(ParamCSPError, match="^partial sum escaped its bound$"):
            tables.check_block(state, ("a",), ("c", "d"), 2)
        overrun = f"branch ('a', 'c') used {decided} steps against budget {decided - 1}"
        for budget, want in [
            (10**6, (ParamCSPError, "partial sum escaped its bound")),
            (decided - 1, (BudgetExceededError, overrun)),
        ]:
            machine = GuessCheckMachine(("a", "c", "d"), 2, budget, tables)
            assert outcome(literal_simulate, fresh_copy(machine)) == want
            assert outcome(simulate, machine) == want

    def test_an_overrun_at_a_blocks_first_guess_is_named(self):
        # {a, b}, {a, c} and {a, d} miss the empty head's row at one charge.
        machine = reduce_cw(exact("abcdx", 2, Constraint(CWRelation(WS1, head=0, tail=1), ("x",))))
        checker = machine.checker
        decided = literal_cw_check(checker, ("a", "b"), 2)[1]
        block = per_last_block(partial(literal_cw_check, checker), ("a",), "bcd", 2)
        assert block == (None, decided)
        assert checker.check_block(checker.grow(None, "a"), ("a",), "bcd", 2) == block
        tight = replace(machine, budget=decided - 1)
        message = f"branch ('a', 'b') used {decided} steps against budget {decided - 1}"
        assert outcome(literal_simulate, fresh_copy(tight)) == (BudgetExceededError, message)
        assert outcome(simulate, tight) == (BudgetExceededError, message)

    @pytest.mark.parametrize("kind", ["appearance", "cw", "combined"])
    def test_a_fault_in_a_block_check_propagates(self, kind, monkeypatch):
        # Only a ParamCSPError (a partial sum out of bound) sends a block back
        # through run_branch. Any other exception is a fault in the block path;
        # run_branch runs other code for appearance and combined checkers, so
        # walking the block again there would turn the fault into an answer.
        appearance = reduce_appearance(POSITIVE_X)
        machine = {
            "appearance": appearance,
            "cw": reduce_cw(CW_TRIO),
            "combined": combine_machines(appearance, reduce_appearance(POSITIVE_X)),
        }[kind]

        def planted(self, state, prefix, lasts, steps):
            raise TypeError("planted")

        monkeypatch.setattr(type(machine.checker), "check_block", planted)
        with pytest.raises(TypeError, match="^planted$"):
            simulate(machine)

    def test_the_literal_walk_does_not_share_the_block_path(self, monkeypatch):
        # One step planted on every block that check_block returns without an
        # accept must show against the literal per-branch walk, which judges
        # each guess by the literal scan and so does not see the plant.
        machines = [reduce_cw(_counting_unsat(5)), k2_unsat_pipeline()]
        wants = [literal_simulate(fresh_copy(machine)) for machine in machines]
        assert not any(want.accepted for want in wants)
        real = CWChecker.check_block

        def planted(self, state, prefix, lasts, steps):
            found, top = real(self, state, prefix, lasts, steps)
            return found, top + (found is None)

        monkeypatch.setattr(CWChecker, "check_block", planted)
        for machine, want in zip(machines, wants):
            assert literal_simulate(fresh_copy(machine)) == want
            assert outcome(simulate, machine) != want

    @pytest.mark.parametrize("fault", ["overrun", "raise"])
    @pytest.mark.parametrize("kind", ["appearance", "cw"])
    def test_a_block_its_re_walk_disagrees_with_is_a_fault(self, kind, fault, monkeypatch, tmp_path, capsys):
        # A block over the budget, or raising, is walked again branch by
        # branch. When no branch overruns or raises there, the block path is
        # at fault: simulate raises, and the CLI exits 4 with one error line.
        cfg = InstanceConfig(n=6, k0=2, profile="w-finite", body_len=2, finite_values=(1,))
        machine = {
            "appearance": reduce_appearance(random_instance(3, cfg)),
            "cw": reduce_cw(_counting_unsat(5)),
        }[kind]
        path = tmp_path / "machine.json"
        path.write_text(serialize_machine(machine), encoding="utf-8")
        real = type(machine.checker).check_block

        def planted(self, state, prefix, lasts, steps):
            if fault == "raise":
                raise ParamCSPError("partial sum escaped its bound")
            found, top = real(self, state, prefix, lasts, steps)
            return found, top + 10**6

        monkeypatch.setattr(type(machine.checker), "check_block", planted)
        prefix = machine.universe[: machine.k0 - 1]
        message = f"the block after {prefix!r} overran or raised, but none of its guesses does"
        with pytest.raises(ParamCSPError) as raised:
            simulate(machine)
        assert (type(raised.value), str(raised.value)) == (ParamCSPError, message)
        capsys.readouterr()
        assert run(["simulate", str(path)]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")


def unsat_pipeline(n, k0):
    """The combined machine :func:`solve_wd_pipeline` simulates on ``n``
    names, ``k0`` and a weight-one clause on the last name repeated, which
    never holds."""
    names = tuple(f"x{i:03d}" for i in range(1, n + 1))
    inst = exact(names, k0, Constraint(WRelation(WS1, 2), (names[-1], names[-1])))
    lifted = lift_kle_to_k(completion_reduction(inst, 1).instance)
    weight, *conditional = lifted.body
    parts = reduce_appearance(replace(lifted, body=(weight,))), reduce_cw(replace(lifted, body=tuple(conditional)))
    return combine_machines(*parts)


def k1_unsat_pipeline():
    """:func:`unsat_pipeline` in the wd-pipeline slot k1-unsat's shape."""
    return unsat_pipeline(4, 1)


def k2_unsat_pipeline():
    """:func:`unsat_pipeline` in the wd-pipeline slot k2-unsat's shape."""
    return unsat_pipeline(3, 2)


def counted_scans(patch):
    """The guesses :meth:`CWChecker._scan` is called on from now until
    ``patch`` is undone, in call order."""
    checked = []
    real = CWChecker._scan

    def counting(self, guess, combo, steps):
        checked.append(combo)
        return real(self, guess, combo, steps)

    patch.setattr(CWChecker, "_scan", counting)
    return checked


def counted_checks(patch):
    """The guesses :meth:`AppearanceChecker.check` is called on from now
    until ``patch`` is undone, in call order."""
    checked = []
    real = AppearanceChecker.check

    def counting(self, combo, steps):
        checked.append(combo)
        return real(self, combo, steps)

    patch.setattr(AppearanceChecker, "check", counting)
    return checked


@st.composite
def scattered_bodies(draw):
    """:func:`finite_bodies` instances with up to four more names in no
    constraint, sorting before, between or after the others."""
    inst = draw(finite_bodies())
    extra = draw(st.sets(st.sampled_from(["u", "v", "v0u", "v2u", "w"]), max_size=4))
    return replace(inst, variables=tuple(sorted(inst.variables + tuple(extra))))


@st.composite
def cw_over(draw, inst):
    """A conditional-weight instance over ``inst``'s names and ``k0``: up to
    three constraints of arity 1-3 sharing a tail bound of 1 or 2."""
    weights = WeightSet.finite(range(1, draw(st.integers(1, 2)) + 1))
    body = []
    for _ in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(1, 3))
        head = draw(st.integers(0, arity))
        scope = tuple(draw(st.sampled_from(inst.variables)) for _ in range(arity))
        body.append(Constraint(CWRelation(weights, head, arity - head), scope))
    return replace(inst, body=tuple(body))


class TestTouchedSetMemo:
    """``AppearanceChecker`` judges each touched-name set once and keeps the
    verdict in ``memo``; walks and blocks still equal the literal per-branch
    reading on fresh copies."""

    @settings(max_examples=200, deadline=None)
    @given(inst=scattered_bodies(), cm=cost_models())
    def test_appearance_walks_match_the_literal_walk(self, inst, cm):
        machine = reduce_appearance(inst, cm)
        want = literal_simulate(fresh_copy(machine))
        assert simulate(machine) == want
        assert simulate(machine) == want  # now through the first walk's memo

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_combined_walks_match_the_literal_walk(self, data):
        inst = data.draw(scattered_bodies())
        appearance, cw = reduce_appearance(inst), reduce_cw(data.draw(cw_over(inst)))
        for machine in (combine_machines(appearance, cw), combine_machines(cw, appearance)):
            want = outcome(literal_simulate, fresh_copy(machine))
            assert outcome(simulate, machine) == want
            assert outcome(simulate, machine) == want

    @settings(max_examples=150, deadline=None)
    @given(inst=scattered_bodies(), cm=cost_models())
    def test_a_walk_judges_each_touched_set_once(self, inst, cm):
        machine = reduce_appearance(inst, cm)
        assume(isinstance(machine.checker, AppearanceChecker))
        want = literal_simulate(fresh_copy(machine))
        walked = islice(guesses(machine.universe, machine.k0, True), want.branches_explored)
        occurrences = machine.checker.occurrences
        with pytest.MonkeyPatch.context() as patch:
            checked = counted_checks(patch)
            assert simulate(machine) == want
        assert len(checked) == len(set(checked))
        assert set(checked) == {tuple(filter(occurrences.__contains__, combo)) for combo in walked}

    @settings(max_examples=150, deadline=None)
    @given(inst=scattered_bodies(), cm=cost_models(), data=st.data())
    def test_blocks_in_any_order_match_fresh_checks(self, inst, cm, data):
        # One checker meets blocks of every guess size, shuffled and repeated;
        # a fresh checker's check of each guess is the reference.
        checker = AppearanceChecker(inst.body, cm)
        blocks = [block for k0 in range(1, 5) for block in grown_blocks(checker, inst.variables, k0)]
        blocks = data.draw(st.permutations(blocks)) + data.draw(st.lists(st.sampled_from(blocks), max_size=6))
        for state, prefix, lasts in blocks:
            steps = len(prefix) + 1 + data.draw(st.integers(0, 3))
            want = per_last_block(replace(checker).check, prefix, lasts, steps)
            assert checker.check_block(state, prefix, lasts, steps) == want, prefix

    @settings(max_examples=100, deadline=None)
    @given(inst=scattered_bodies(), cm=cost_models())
    def test_an_all_touched_walk_stores_nothing(self, inst, cm):
        # A constraint over every name, as a materialized weight constraint is.
        names = inst.variables
        every = Constraint(WRelation(WeightSet.finite((inst.weight.k0,)), len(names)), names)
        machine = reduce_appearance(replace(inst, body=inst.body + (every,)), cm)
        assume(isinstance(machine.checker, AppearanceChecker))
        assert simulate(machine) == literal_simulate(fresh_copy(machine))
        assert machine.checker.memo == {}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), case=st.integers(0, 5))
    def test_a_pipeline_walk_stores_at_most_the_touched_subsets(self, seed, case):
        # The machine solve_wd_pipeline simulates: its appearance part reads
        # only the original names, never the indicators or the padding.
        lifted = lift_kle_to_k(completion_reduction(random_instance(seed, pipeline_config(case)), 1).instance)
        weight, *conditional = lifted.body
        first = reduce_appearance(replace(lifted, body=(weight,)))
        machine = combine_machines(first, reduce_cw(replace(lifted, body=tuple(conditional))))
        assert simulate(machine) == literal_simulate(fresh_copy(machine))
        touched, k0 = len(first.checker.occurrences), machine.k0
        assert len(first.checker.memo) <= sum(comb(touched, j) for j in range(k0))


@st.composite
def inert_name_machines(draw):
    """Appearance and conditional-weight machines over one drawn instance,
    combined in both orders and nested two deep, whose universes hold names
    no checker reads: the pads of a lifted at-most instance, one contiguous
    run, or names scattered before, between and after the others. The
    conditional-weight body reads only the instance's own names. ``k0``
    runs to 5, so that prefixes run three places past the first."""
    base = draw(finite_bodies())
    base = replace(base, weight=WeightParameter(WeightKind.EXACT, draw(st.integers(0, 5))))
    if draw(st.booleans()):
        inst = lift_kle_to_k(replace(base, weight=replace(base.weight, kind=WeightKind.ATMOST)))
    else:
        extra = draw(st.sets(st.sampled_from(["u", "v", "v0u", "v2u", "w"]), max_size=4))
        inst = replace(base, variables=tuple(sorted(base.variables + tuple(extra))))
    cw = replace(draw(cw_over(base)), variables=inst.variables)
    appearance, cw = reduce_appearance(inst), reduce_cw(cw)
    pair, swapped = combine_machines(appearance, cw), combine_machines(cw, appearance)
    return [appearance, cw, pair, swapped, combine_machines(pair, swapped), combine_machines(appearance, swapped)]


class TestReusedStates:
    """A name that changes nothing makes ``grow`` return its state itself,
    and :func:`simulate` reuses the children it grew from the last state a
    name left as it was; walks still equal the literal per-branch reading."""

    @settings(max_examples=150, deadline=None)
    @given(machines=inert_name_machines())
    def test_walks_over_inert_names_match_the_literal_walk(self, machines):
        for machine in machines:
            want = outcome(literal_simulate, fresh_copy(machine))
            assert outcome(simulate, machine) == want
            assert outcome(simulate, machine) == want  # now through warm checkers

    def test_grow_returns_its_state_for_a_name_that_changes_nothing(self):
        # Only b is read: the appearance part touches it, the tables key it.
        appearance = reduce_appearance(exact("abc", 2, Constraint(WRelation(WS1, 1), ("b",))))
        caps = {(frozenset(), frozenset("b")): 2}
        cw = GuessCheckMachine(appearance.universe, 2, 0, CWChecker(1, {}, caps, {}, sum_bound=2))
        combined = combine_machines(appearance, cw)
        nested = combine_machines(combined, combine_machines(cw, appearance))
        for machine in (appearance, cw, combined, nested):
            grow = machine.checker.grow
            assert grow(None, "a") is None
            state = grow(None, "b")
            assert state is not None
            assert grow(state, "a") is state
            assert grow(state, "c") is state
        big = 10**30  # an int no cache shares
        assert appearance.checker.grow(big, "c") is big
        assert AlwaysReject().grow(None, "a") is None

    def test_a_pipeline_walk_reuses_the_states_its_pads_leave(self, monkeypatch):
        machine = k2_unsat_pipeline()
        want = literal_simulate(fresh_copy(machine))
        grown = []
        real = CombinedChecker.grow

        def counting(self, state, name):
            grown.append(name)
            return real(self, state, name)

        monkeypatch.setattr(CombinedChecker, "grow", counting)
        assert simulate(machine) == want == SimulationResult(False, None, 17209, 462)
        # A walk growing each prefix from its parent grows 461 times.
        assert len(grown) == 91

    def test_an_unsatisfiable_k1_pipeline_walk(self):
        machine = k1_unsat_pipeline()
        want = literal_simulate(fresh_copy(machine))
        assert want == SimulationResult(False, None, 357, 84)
        assert simulate(machine) == want


def small_scope_bodies(every_pair=1):
    """Conditional-weight bodies over a, b, c: each constraint of arity 1-3
    (names may repeat, every head length), alone and, every
    ``every_pair``-th in order, in unordered pairs with repeats."""
    ones = [
        (head, scope)
        for arity in range(1, 4)
        for scope in product("abc", repeat=arity)
        for head in range(arity + 1)
    ]
    pairs = islice(combinations_with_replacement(ones, 2), 0, None, every_pair)
    return [(c,) for c in ones] + list(pairs)


def assert_small_scope(bodies):
    """Over universe a-d, with d in no constraint, tail bounds 1 and 2 and
    ``k0`` from 0 to 4: the block walk equals the per-branch walk on a fresh
    copy, and its witness is brute force's."""
    for b in (1, 2):
        weights = WeightSet.finite(range(1, b + 1))
        for body in bodies:
            constraints = [Constraint(CWRelation(weights, head, len(scope) - head), scope) for head, scope in body]
            for k0 in range(5):
                inst = exact("abcd", k0, *constraints)
                machine = reduce_cw(inst)
                want = literal_simulate(fresh_copy(machine))
                got = simulate(machine)
                assert got == want, (b, body, k0)
                assert got.witness == brute_force_solve(inst), (b, body, k0)


class TestSmallScope:
    """Every small conditional-weight instance, after the small-scope
    hypothesis (Jackson, Software Abstractions, 2006): tier-1 runs the
    one-constraint bodies and every tenth pair, the ``slow`` run all pairs."""

    def test_one_constraint_and_every_tenth_pair(self):
        bodies = small_scope_bodies(every_pair=10)
        assert len(bodies) == 141 + 1002
        assert_small_scope(bodies)

    @pytest.mark.slow
    def test_every_pair(self):
        bodies = small_scope_bodies()
        assert len(bodies) == 141 + 141 * 142 // 2
        assert_small_scope(bodies)


class TestCwBudget:
    def test_closed_form_equals_the_head_by_head_sum(self):
        for k0 in range(40):
            for b in range(12):
                assert _cw_budget(k0, b) == literal_cw_budget(k0, b), (k0, b)

    @pytest.mark.parametrize("k0", range(6))
    @pytest.mark.parametrize("b", range(4))
    def test_an_accepting_branch_charges_exactly_the_budget(self, k0, b):
        names = tuple("abcdef"[:k0])
        m = GuessCheckMachine(names, k0, _cw_budget(k0, b), replace(trivial_cw_checker(), b=b))
        assert simulate(m) == SimulationResult(True, frozenset(names), m.budget, 1)

    def test_tail_scans_sum_the_binomials(self):
        for k in range(25):
            for b in range(25):
                pair_sizes = [comb(k, j) for j in range(min(b + 1, k) + 1)]
                term_sizes = pair_sizes[1 : min(b, k) + 1]
                assert _tail_scans(k, b) == (
                    sum(pair_sizes),
                    sum(count * (j + 1) for j, count in enumerate(pair_sizes)),
                    sum(term_sizes),
                    sum(count * (j + 2) for j, count in enumerate(term_sizes, start=1)) + 2,
                ), (k, b)

    def test_large_guesses_are_priced_without_a_loop_over_heads(self):
        # With b = 0 each head B meets G = {} and one singleton G per name:
        # k + sum over B of (|B| + 1) + k * (|B| + 2) + (|B| + 2) in all. The
        # head-by-head sum took tens of seconds at k = 15,000.
        def tail_bound_zero(k):
            return k + (k + 2) * k * 2**k // 2 + (2 * k + 3) * 2**k

        assert all(tail_bound_zero(k) == literal_cw_budget(k, 0) for k in range(20))
        assert _cw_budget(15_000, 0) == tail_bound_zero(15_000)


class TestExplicitizeWBody:
    def test_weight_one_clause(self):
        out = explicitize_w_body(exact("xy", 1, Constraint(WRelation(WS1, 2), ("x", "y"))), 1)
        rel = out.body[0].relation
        assert isinstance(rel, ExplicitRelation)
        assert rel.arity == 2
        assert set(rel.members) == {(1,), (2,)}

    def test_two_weights(self):
        inst = exact(
            "xyz", 1, Constraint(WRelation(WeightSet.finite((0, 2)), 3), ("x", "y", "z"))
        )
        rel = explicitize_w_body(inst, 2).body[0].relation
        assert set(rel.members) == {(), (1, 2), (1, 3), (2, 3)}

    def test_weight_beyond_arity_leaves_no_members(self):
        inst = exact("x", 0, Constraint(WRelation(WeightSet.finite((2,)), 1), ("x",)))
        rel = explicitize_w_body(inst, 2).body[0].relation
        assert rel.members == ()

    def test_explicit_constraints_pass_through(self):
        c = Constraint(ExplicitRelation(1, ((1,),)), ("x",))
        out = explicitize_w_body(exact("x", 1, c), 1)
        assert out.body[0] is c

    def test_weight_above_bound(self):
        inst = exact("xy", 1, Constraint(WRelation(WeightSet.finite((3,)), 2), ("x", "y")))
        with pytest.raises(UsageError, match="above the bound 2"):
            explicitize_w_body(inst, 2)

    @pytest.mark.parametrize(
        "rel",
        [
            WRelation(WeightSet.cofinite((0,)), 2),
            WRelation(WeightSet.odd(), 2),
            CWRelation(WS1, 1, 1),
        ],
    )
    def test_only_finite_weight_sets_convert(self, rel):
        inst = exact("xy", 1, Constraint(rel, ("x", "y")))
        with pytest.raises(NotApplicableError, match="only finite"):
            explicitize_w_body(inst, 3)

    def test_membership_is_preserved(self):
        rng = random.Random(4242)
        for case in range(50):
            arity = rng.randint(1, 5)
            values = tuple(sorted(rng.sample(range(arity + 1), rng.randint(1, arity))))
            rel = WRelation(WeightSet.finite(values), arity)
            inst = exact(
                [f"v{i}" for i in range(arity)],
                1,
                Constraint(rel, tuple(f"v{i}" for i in range(arity))),
            )
            out = explicitize_w_body(inst, max(values))
            conv = out.body[0].relation
            for bits in range(2**arity):
                t = frozenset(p + 1 for p in range(arity) if bits >> p & 1)
                assert relation_membership(conv, t) == relation_membership(rel, t), (
                    f"case {case}: {sorted(t)}"
                )


# The running reduction example: choose exactly one of (u, v) subject to
# "the chosen set must be {u}".
CHOOSE_U = exact("uv", 1, Constraint(ExplicitRelation(2, ((1,),)), ("u", "v")))


class TestCompletionReduction:
    def test_choose_u_frozen(self):
        red = completion_reduction(CHOOSE_U, 1)
        inst = red.instance
        assert inst.variables == ("u", "v", "lam001", "lam002", "lam003")
        assert inst.weight == WeightParameter(WeightKind.ATMOST, 3)
        assert red.bound == 2
        assert red.indicator_keys == {
            "lam001": frozenset(),
            "lam002": frozenset({"u"}),
            "lam003": frozenset({"u", "v"}),
        }
        assert inst.body == (
            Constraint(WRelation(WS1, 2), ("u", "v")),
            Constraint(CWRelation(WS12, 1, 1), ("lam001", "lam002")),
            Constraint(CWRelation(WS12, 1, 0), ("lam003",)),
            Constraint(CWRelation(WS12, 0, 1), ("lam001",)),
            Constraint(CWRelation(WS12, 1, 1), ("u", "lam002")),
            Constraint(CWRelation(WS12, 1, 1), ("lam002", "u")),
            Constraint(CWRelation(WS12, 2, 1), ("u", "v", "lam003")),
            Constraint(CWRelation(WS12, 1, 1), ("lam003", "u")),
            Constraint(CWRelation(WS12, 1, 1), ("lam003", "v")),
        )

    def test_choose_u_solutions_line_up(self):
        red = completion_reduction(CHOOSE_U, 1)
        want = frozenset({"u", "lam001", "lam002"})
        assert completion_witness(red, 1) == want
        direct = brute_force_solve(red.instance)
        assert direct == want
        assert binding_invariant_holds(red, direct)

    def test_duplicate_constraints_collapse(self):
        c = Constraint(ExplicitRelation(2, ((1,), (2,))), ("u", "v"))
        once = completion_reduction(exact("uv", 1, c), 1)
        twice = completion_reduction(exact("uv", 1, c, c), 1)
        assert once.instance == twice.instance

    def test_indicator_names_avoid_collisions(self):
        inst = exact(
            ["lam001", "x"],
            1,
            Constraint(ExplicitRelation(1, ((1,),)), ("x",)),
        )
        red = completion_reduction(inst, 1)
        fresh = set(red.indicator_keys)
        assert fresh
        assert all(name.startswith("_lam") for name in fresh)
        assert "lam001" in red.instance.variables

    def test_requires_exact_weight(self):
        inst = replace(CHOOSE_U, weight=WeightParameter(WeightKind.ATMOST, 1))
        with pytest.raises(NotApplicableError, match="exact weight"):
            completion_reduction(inst, 1)

    @pytest.mark.parametrize("rel", [WRelation(WS1, 1), CWRelation(WS1, 0, 1)])
    def test_requires_explicit_relations(self, rel):
        # Explicit and finite-weight relations reduce; every other one is refused.
        inst = exact("x", 1, Constraint(rel, ("x",)))
        if isinstance(rel, WRelation):
            assert completion_reduction(inst, 1) == completion_reduction(explicitize_w_body(inst, 1), 1)
        else:
            with pytest.raises(NotApplicableError, match="constraint 1: only finite"):
                completion_reduction(inst, 1)

    @settings(max_examples=200, deadline=None)
    @given(
        inst=finite_bodies(kinds=("W", "explicit", "explicit", "W", "other")),
        d=st.integers(1, 3),
    )
    def test_finite_weight_bodies_reduce_as_their_listed_members(self, inst, d):
        def outcome(reduce):
            try:
                red = reduce()
            except ParamCSPError as exc:
                return type(exc), str(exc)
            return serialize_instance(red.instance), red.indicator_keys, red.bound

        direct = outcome(lambda: completion_reduction(inst, d))
        listed = outcome(lambda: completion_reduction(explicitize_w_body(inst, d), d))
        assert direct == listed

    def test_guess_the_cw_machine_would_refuse_is_refused_first(self):
        at_cap = replace(CHOOSE_U, weight=WeightParameter(WeightKind.EXACT, 15))
        assert completion_reduction(at_cap, 1).instance.weight.k0 == 15 + 2**15
        for k0 in (16, 2**63):
            big = replace(CHOOSE_U, weight=WeightParameter(WeightKind.EXACT, k0))
            want = rf"^reduced guess size {k0} \+ 2\*\*{k0} above the conditional-weight bound 65536$"
            with pytest.raises(CapacityError, match=want):
                completion_reduction(big, 1)

    def test_member_above_bound(self):
        inst = exact("xy", 1, Constraint(ExplicitRelation(2, ((1, 2),)), ("x", "y")))
        with pytest.raises(UsageError, match="size 2, above the bound 1"):
            completion_reduction(inst, 1)

    @pytest.mark.parametrize(
        "rel, d, want",
        [
            # The first oversized member in canonical order, not the largest.
            (ExplicitRelation(3, ((1, 2), (1, 2, 3))), 1, "constraint 1 has a member of size 2, above the bound 1"),
            (WRelation(WeightSet.finite((1, 3)), 3), 2, "constraint 1: weight 3 above the bound 2"),
        ],
    )
    def test_body_bound_errors_name_the_offending_size(self, rel, d, want):
        inst = exact("xyz", 1, Constraint(rel, ("x", "y", "z")))
        with pytest.raises(UsageError) as info:
            completion_reduction(inst, d)
        assert str(info.value) == want

    @pytest.mark.parametrize("d", [0, -1, True, 1.5])
    def test_rejects_bad_bounds(self, d):
        with pytest.raises(UsageError, match="positive integer"):
            completion_reduction(CHOOSE_U, d)

    def test_bound_above_the_partial_capacity(self):
        # Bounds up to the capacity still reduce; above it the 2**d tail weights are refused.
        assert completion_reduction(CHOOSE_U, 12).bound == 4096
        with pytest.raises(CapacityError, match="bound 13 is above the exhaustive bound 12"):
            completion_reduction(CHOOSE_U, 13)

    def test_needs_a_variable(self):
        empty = Instance(
            variables=(), weight=WeightParameter(WeightKind.EXACT, 0), body=()
        )
        with pytest.raises(UsageError, match="at least one variable"):
            completion_reduction(empty, 1)

    def test_output_shape_invariants(self):
        for case, inst in instances(30, explicit_config, salt=13):
            sizes = [len(m) for c in inst.body for m in c.relation.members]
            d = max(sizes, default=1) or 1
            red = completion_reduction(inst, d)
            out = red.instance
            k0 = inst.weight.k0
            assert out.weight == WeightParameter(WeightKind.ATMOST, k0 + 2**k0)
            assert red.bound == 2**d
            tail_ws = WeightSet.finite(range(1, 2**d + 1))

            w_part = [c for c in out.body if isinstance(c.relation, WRelation)]
            assert len(w_part) == 1 and w_part[0] is out.body[0]
            assert w_part[0].scope == inst.variables
            assert w_part[0].relation.weights == WeightSet.finite((k0,))
            seen: dict[str, int] = {}
            for c in w_part:
                for v in c.scope:
                    seen[v] = seen.get(v, 0) + 1
            assert all(n <= 2 for n in seen.values()), f"case {case}"

            for c in out.body[1:]:
                assert isinstance(c.relation, CWRelation), f"case {case}"
                assert c.relation.weights == tail_ws

            assert list(red.indicator_keys) == sorted(red.indicator_keys)
            for name, key in red.indicator_keys.items():
                scope = tuple(sorted(key)) + (name,)
                forward = [
                    c
                    for c in out.body
                    if c.scope == scope
                    and c.relation.head == len(key)
                    and c.relation.tail == 1
                ]
                assert len(forward) == 1, f"case {case}: {name}"
                for x in sorted(key):
                    back = Constraint(CWRelation(tail_ws, 1, 1), (name, x))
                    assert back in out.body, f"case {case}: {name} -> {x}"

    def test_preserves_satisfiability(self):
        sat = 0
        for case, inst in instances(60, explicit_config, salt=19):
            sizes = [len(m) for c in inst.body for m in c.relation.members]
            d = max(sizes, default=1) or 1
            red = completion_reduction(inst, d)
            want = brute_force_solve(inst)
            got = completion_witness(red, inst.weight.k0)
            assert (want is None) == (got is None), f"case {case}"
            if got is not None:
                assert satisfies(red.instance, got)
                sat += 1
        assert sat >= 15

    def test_reduced_instance_has_no_stray_solutions(self):
        """On small cases a full search of the reduced instance agrees with
        the indicator-propagation oracle, and its witnesses respect the
        binding constraints."""
        for case, inst in instances(25, _tiny_explicit, salt=13):
            d = max(
                [len(m) for c in inst.body for m in c.relation.members], default=1
            ) or 1
            red = completion_reduction(inst, d)
            direct = brute_force_solve(red.instance)
            via_oracle = completion_witness(red, inst.weight.k0)
            assert (direct is None) == (via_oracle is None), f"case {case}"
            if direct is not None:
                assert binding_invariant_holds(red, direct), f"case {case}"


def _tiny_explicit(case):
    return replace(explicit_config(case), n=2 + case % 3, k0=case % 2)


class TestSolveWdPipeline:
    def test_the_witness_is_projected_without_the_variable_set(self, monkeypatch):
        reads = []
        built = Instance.variable_set.fget
        monkeypatch.setattr(Instance, "variable_set", property(lambda inst: reads.append(1) or built(inst)))
        inst = exact("xyz", 1, Constraint(WRelation(WS1, 2), ("x", "y")))
        assert solve_wd_pipeline(inst, 1) == brute_force_solve(inst) == frozenset({"x"})
        assert reads == []

    def test_zero_bound_picks_outside_forbidden_scopes(self):
        inst = exact(
            "xyz", 1, Constraint(WRelation(WeightSet.finite((0,)), 2), ("x", "y"))
        )
        assert solve_wd_pipeline(inst, 0) == frozenset({"z"})
        for k0 in (2, 2**63):  # the scan of allowed names stops at the name count
            assert solve_wd_pipeline(replace(inst, weight=WeightParameter(WeightKind.EXACT, k0)), 0) is None

    def test_zero_bound_empty_weight_set_is_contradiction(self):
        inst = exact("x", 0, Constraint(WRelation(WeightSet.finite(()), 1), ("x",)))
        assert solve_wd_pipeline(inst, 0) is None

    def test_zero_bound_rejects_positive_weights(self):
        with pytest.raises(UsageError, match="above the bound 0"):
            solve_wd_pipeline(POSITIVE_X, 0)

    def test_zero_bound_accepts_listed_relations_of_empty_members(self):
        inst = exact("xy", 1, Constraint(ExplicitRelation(1, ((),)), ("x",)))
        assert solve_wd_pipeline(inst, 0) == frozenset({"y"})
        assert solve_wd_pipeline(inst, 1) == frozenset({"y"})

    def test_zero_bound_listed_relation_without_members_is_contradiction(self):
        inst = exact("xy", 1, Constraint(ExplicitRelation(1, ()), ("x",)))
        assert solve_wd_pipeline(inst, 0) is None

    def test_zero_bound_rejects_nonempty_listed_members(self):
        inst = exact("xy", 1, Constraint(ExplicitRelation(1, ((1,),)), ("x",)))
        with pytest.raises(UsageError, match="size 1, above the bound 0"):
            solve_wd_pipeline(inst, 0)

    def test_zero_bound_needs_finite_weight_sets(self):
        inst = exact("xy", 1, Constraint(CWRelation(WS1, 1, 1), ("x", "y")))
        with pytest.raises(NotApplicableError, match="only finite"):
            solve_wd_pipeline(inst, 0)

    def test_requires_exact_weight(self):
        inst = replace(POSITIVE_X, weight=WeightParameter(WeightKind.ATMOST, 1))
        with pytest.raises(NotApplicableError, match="exact weight"):
            solve_wd_pipeline(inst, 1)

    @pytest.mark.parametrize("d", [-1, True])
    def test_rejects_bad_bounds(self, d):
        with pytest.raises(UsageError, match="nonnegative integer"):
            solve_wd_pipeline(POSITIVE_X, d)

    def test_mixed_clause_and_listed_relation(self):
        body = (
            Constraint(WRelation(WS1, 1), ("x",)),
            Constraint(ExplicitRelation(1, ((1,),)), ("y",)),
        )
        assert solve_wd_pipeline(exact("xy", 1, *body), 1) is None
        assert solve_wd_pipeline(exact("xy", 2, *body), 1) == frozenset({"x", "y"})

    def test_wide_relation_is_refused_before_its_members_are_listed(self):
        # W{9} of arity 20 has C(20, 9) = 167,960 members; the partial tables
        # refuse any arity above 12, so none of them is built.
        names = tuple(f"v{i:02d}" for i in range(20))
        inst = Instance(names, WeightParameter(WeightKind.EXACT, 9),
                        (Constraint(WRelation(WeightSet.finite((9,)), 20), names),))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="^arity 20 above the exhaustive bound 12$"):
                solve_wd_pipeline(inst, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_bound_above_the_partial_capacity_lists_no_member(self):
        # W{13} of arity 24 has C(24, 13) = 2,496,144 members; the bound 13 is
        # refused before any of them is listed.
        names = tuple(f"v{i:02d}" for i in range(24))
        inst = Instance(names, WeightParameter(WeightKind.EXACT, 13),
                        (Constraint(WRelation(WeightSet.finite((13,)), 24), names),))
        tracemalloc.start()
        try:
            for solve in (completion_reduction, solve_wd_pipeline):
                with pytest.raises(CapacityError, match="^the member-size bound 13 is above the exhaustive bound 12$"):
                    solve(inst, 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_wide_relation_refusal_keeps_the_error_order(self):
        wide = Constraint(WRelation(WS1, 13), tuple(f"v{i:02d}" for i in range(13)))
        names = wide.scope + ("x", "y")
        pair = Constraint(ExplicitRelation(2, ((1, 2),)), ("x", "y"))
        with pytest.raises(CapacityError, match="^arity 13 above"):
            solve_wd_pipeline(exact(names, 1, pair, wide), 2)
        # Checks the reduction makes before it looks at arities still come first.
        with pytest.raises(UsageError, match="constraint 1 has a member of size 2"):
            solve_wd_pipeline(exact(names, 1, pair, wide), 1)
        conditional = Constraint(CWRelation(WS1, 1, 1), ("x", "y"))
        with pytest.raises(NotApplicableError, match="constraint 2: only finite"):
            solve_wd_pipeline(exact(names, 1, wide, conditional), 1)
        with pytest.raises(CapacityError, match="member-size bound 13 is above"):
            solve_wd_pipeline(exact(names, 1, wide), 13)
        # The zero bound never reduces, so it never looks at arities.
        forbid = Constraint(WRelation(WeightSet.finite((0,)), 13), wide.scope)
        assert solve_wd_pipeline(exact(names, 1, forbid), 0) == {"x"}

    def test_agrees_with_brute_force(self):
        sat = 0
        for case, inst in instances(12, pipeline_config, salt=12):
            got = solve_wd_pipeline(inst, 1)
            want = brute_force_solve(inst)
            assert (got is None) == (want is None), f"case {case}"
            if got is not None:
                assert satisfies(inst, got), f"case {case}"
                sat += 1
        assert sat >= 3
