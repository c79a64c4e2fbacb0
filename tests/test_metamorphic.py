"""Metamorphic relations at sizes no oracle reaches.

Brute force and the small scopes stop at a few dozen names, yet costs that
grow with the name count show only in the thousands. A metamorphic relation
needs no oracle: it says what a transform of an instance must keep. Under
``hypothesis``, instances of 200 to 5,000 names with small bodies are checked
against five transforms:

- appending untouched names keeps a SAT verdict SAT and every appearance and
  conditional-weight budget;
- renaming the names of an exact instance in an order-preserving way maps
  every witness and keeps every counter of both profile-class solvers, and of
  ``simulate`` on appearance and conditional-weight machines where the guess
  count ``comb(n, k0)`` stays at or below 10**5; both serialized machines
  stay the same once their names are mapped;
- duplicating a body constraint keeps every accept bit, and brute force's
  (where it tries at most 5,000 sets) and every machine's witness. A copy
  appended at the end keeps the profile classes in their order, so it
  keeps both solvers' witnesses too; a copy inserted earlier may reorder the
  classes, and with them the witness the solvers pick;
- permuting the body keeps every accept bit, and brute force's and both
  machines' witnesses. A conditional-weight machine's tables are keyed by
  images, so it keeps its serialized bytes and every counter too. An
  appearance machine keeps its budget and ``branches_explored``, but not
  always ``max_branch_steps``: a check charges constraints in index order;
- declaring the names in shuffled order keeps the witnesses of brute force,
  both profile-class solvers (with their counts) and both machines (with
  their counters), and every serialized machine byte.

Two more tests pin that the machine builders and ``cli._decide`` make no
pass over all the names: building a machine calls no ``sorted``, and the
witness projection never builds ``Instance.variable_set``.
Tier-1 runs a sample; ``pytest -m slow`` runs ten times as many examples.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import paramcsp.machines
from paramcsp import (
    PROFILES,
    CapacityError,
    Constraint,
    GuessCheckMachine,
    Instance,
    InstanceConfig,
    NotApplicableError,
    WeightKind,
    brute_force_solve,
    combine_machines,
    lift_kle_to_k,
    random_instance,
    reduce_appearance,
    reduce_cw,
    satisfies,
    serialize_machine,
    simulate,
    solve_w_kt_with_stats,
    solve_w_kue_with_stats,
)
from paramcsp.cli import VERIFY_METHODS, _decide

SOLVERS = (solve_w_kue_with_stats, solve_w_kt_with_stats)
BUILDERS = (reduce_appearance, reduce_cw)
# Machines are simulated only where they guess at most this many times.
GUESS_LIMIT = 10**5
# Brute force runs only where it tries at most this many sets.
BRUTE_LIMIT = 5000
# Appended names sort before, among and after the generated x0001.. names,
# and no generated name holds "_".
APPENDED_PREFIXES = ("a", "x0", "x2", "y")


@st.composite
def large_instances(draw, exact_only=False, min_body=0, profiles=PROFILES):
    """A generated instance of 200 to 5,000 names, ``k0`` up to 3 and
    ``min_body`` to four constraints, of one of ``profiles``. A third of the
    draws keep ``n`` at or below 450, where a ``k0 = 2`` machine guesses at
    most 10**5 times, and a third take 5,000."""
    n = draw(st.one_of(st.integers(200, 450), st.integers(200, 5000), st.just(5000)))
    cfg = InstanceConfig(
        n=n,
        k0=draw(st.integers(0, 3)),
        profile=draw(st.sampled_from(profiles)),
        body_len=draw(st.integers(min_body, 4)),
        max_arity=draw(st.integers(1, 4)),
        atmost=False if exact_only else draw(st.booleans()),
        cw_bound=draw(st.integers(1, 2)),
    )
    return random_instance(draw(st.integers(0, 2**32 - 1)), cfg)


def exact(inst: Instance) -> Instance:
    return inst if inst.weight.kind is WeightKind.EXACT else lift_kle_to_k(inst)


def applicable(run, inst):
    """``run(inst)``, or None where the method does not apply to ``inst``."""
    try:
        return run(inst)
    except NotApplicableError:
        return None


def simulable(machine: GuessCheckMachine) -> bool:
    return comb(len(machine.universe), machine.k0) <= GUESS_LIMIT


def brute_forceable(inst: Instance) -> bool:
    n, k0 = len(inst.variables), inst.weight.k0
    sizes = (k0,) if inst.weight.kind is WeightKind.EXACT else range(k0 + 1)
    return sum(comb(n, size) for size in sizes) <= BRUTE_LIMIT


def metamorphic_settings(examples):
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def check_appending(inst: Instance, count: int, prefix: str) -> None:
    grown = Instance(inst.variables + tuple(f"{prefix}_{i}" for i in range(count)), inst.weight, inst.body)
    for solve in SOLVERS:
        before = applicable(solve, inst)
        if before is not None and before[0] is not None:
            witness, _ = solve(grown)
            assert witness is not None and satisfies(grown, witness), solve.__name__
    for build in BUILDERS:
        machine = applicable(build, exact(inst))
        if machine is None:
            continue
        grown_machine = build(exact(grown))
        assert grown_machine.budget == machine.budget, build.__name__
        if simulable(grown_machine) and simulate(machine).accepted:
            assert simulate(grown_machine).accepted, build.__name__


def check_renaming(inst: Instance, start: int, step: int) -> None:
    name = {v: f"r{start + i * step:08d}" for i, v in enumerate(inst.sorted_variables)}
    renamed = Instance(
        tuple(map(name.get, inst.variables)),
        inst.weight,
        tuple(Constraint(c.relation, tuple(map(name.get, c.scope))) for c in inst.body),
    )

    def mapped(witness):
        return None if witness is None else frozenset(map(name.get, witness))

    for solve in SOLVERS:
        got = applicable(solve, inst)
        if got is None:
            with pytest.raises(NotApplicableError):
                solve(renamed)
        else:
            assert solve(renamed) == (mapped(got[0]), got[1]), solve.__name__
    def mapped_doc(value):
        if isinstance(value, dict):
            return {name.get(k, k): mapped_doc(v) for k, v in value.items()}
        if isinstance(value, list):
            return list(map(mapped_doc, value))
        return name.get(value, value) if isinstance(value, str) else value

    for build in BUILDERS:
        machine = applicable(build, inst)
        if machine is None:
            continue
        renamed_machine = build(renamed)
        assert renamed_machine.budget == machine.budget, build.__name__
        doc = json.loads(serialize_machine(renamed_machine))
        assert doc == mapped_doc(json.loads(serialize_machine(machine))), build.__name__
        if simulable(machine):
            result = simulate(machine)
            assert simulate(renamed_machine) == replace(result, witness=mapped(result.witness)), build.__name__


def check_duplicating(inst: Instance, pick: int, where: int) -> None:
    body = inst.body
    copy = body[pick % len(body)]
    at = where % (len(body) + 1)
    appended = Instance(inst.variables, inst.weight, body + (copy,))
    inserted = Instance(inst.variables, inst.weight, body[:at] + (copy,) + body[at:])
    for solve in SOLVERS:
        got = applicable(solve, inst)
        if got is None:
            for grown in (appended, inserted):
                with pytest.raises(NotApplicableError):
                    solve(grown)
            continue
        assert solve(appended)[0] == got[0], solve.__name__
        assert (solve(inserted)[0] is None) == (got[0] is None), solve.__name__
    if brute_forceable(inst):
        want = brute_force_solve(inst)
        assert brute_force_solve(appended) == brute_force_solve(inserted) == want
    for build in BUILDERS:
        machine = applicable(build, exact(inst))
        if machine is None or not simulable(machine):
            continue
        result = simulate(machine)
        for grown in (appended, inserted):
            again = simulate(build(exact(grown)))
            assert (again.accepted, again.witness) == (result.accepted, result.witness), build.__name__


def check_permuting(inst: Instance, seed: int) -> None:
    body = list(inst.body)
    random.Random(seed).shuffle(body)
    permuted = Instance(inst.variables, inst.weight, tuple(body))
    for solve in SOLVERS:
        got = applicable(solve, inst)
        if got is None:
            with pytest.raises(NotApplicableError):
                solve(permuted)
        else:
            assert (solve(permuted)[0] is None) == (got[0] is None), solve.__name__
    if brute_forceable(inst):
        assert brute_force_solve(permuted) == brute_force_solve(inst)
    appearance = applicable(reduce_appearance, exact(inst))
    if appearance is not None:
        again = reduce_appearance(exact(permuted))
        assert again.budget == appearance.budget
        if simulable(appearance):
            # Only max_branch_steps may change, so both are set to 0 here.
            assert replace(simulate(again), max_branch_steps=0) == replace(simulate(appearance), max_branch_steps=0)
    cw = applicable(reduce_cw, exact(inst))
    if cw is not None:
        again = reduce_cw(exact(permuted))
        assert serialize_machine(again) == serialize_machine(cw)
        if simulable(cw):
            assert simulate(again) == simulate(cw)


def check_shuffling(inst: Instance, seed: int) -> None:
    names = list(inst.variables)
    random.Random(seed).shuffle(names)
    shuffled = Instance(tuple(names), inst.weight, inst.body)
    for solve in SOLVERS:
        got = applicable(solve, inst)
        if got is None:
            with pytest.raises(NotApplicableError):
                solve(shuffled)
        else:
            assert solve(shuffled) == got, solve.__name__
    if brute_forceable(inst):
        assert brute_force_solve(shuffled) == brute_force_solve(inst)
    for build in BUILDERS:
        machine = applicable(build, exact(inst))
        if machine is None:
            continue
        again = build(exact(shuffled))
        assert serialize_machine(again) == serialize_machine(machine), build.__name__
        if simulable(machine):
            assert simulate(again) == simulate(machine), build.__name__


class TestDuplicatedConstraints:
    @metamorphic_settings(200)
    @given(inst=large_instances(min_body=1), pick=st.integers(0, 3), where=st.integers(0, 4))
    def test_keeps_every_accept_bit_and_witness(self, inst, pick, where):
        check_duplicating(inst, pick, where)

    @pytest.mark.slow
    @metamorphic_settings(2000)
    @given(inst=large_instances(min_body=1), pick=st.integers(0, 3), where=st.integers(0, 4))
    def test_keeps_every_accept_bit_and_witness_at_length(self, inst, pick, where):
        check_duplicating(inst, pick, where)


class TestAppendingUntouchedNames:
    @metamorphic_settings(200)
    @given(inst=large_instances(), count=st.integers(1, 40), prefix=st.sampled_from(APPENDED_PREFIXES))
    def test_keeps_sat_and_every_budget(self, inst, count, prefix):
        check_appending(inst, count, prefix)

    @pytest.mark.slow
    @metamorphic_settings(2000)
    @given(inst=large_instances(), count=st.integers(1, 40), prefix=st.sampled_from(APPENDED_PREFIXES))
    def test_keeps_sat_and_every_budget_at_length(self, inst, count, prefix):
        check_appending(inst, count, prefix)


class TestOrderPreservingRenaming:
    @metamorphic_settings(200)
    @given(inst=large_instances(exact_only=True), start=st.integers(0, 10**6), step=st.integers(1, 9))
    def test_maps_every_witness_and_keeps_every_counter(self, inst, start, step):
        check_renaming(inst, start, step)

    @pytest.mark.slow
    @metamorphic_settings(2000)
    @given(inst=large_instances(exact_only=True), start=st.integers(0, 10**6), step=st.integers(1, 9))
    def test_maps_every_witness_and_keeps_every_counter_at_length(self, inst, start, step):
        check_renaming(inst, start, step)


# Half the draws are conditional-weight bodies, the only ones a CW machine takes.
PERMUTABLE = st.one_of(large_instances(min_body=2), large_instances(min_body=2, profiles=("cw",)))


class TestPermutedBody:
    @metamorphic_settings(200)
    @given(inst=PERMUTABLE, seed=st.integers(0, 2**32 - 1))
    def test_keeps_every_accept_bit_and_machine_witness(self, inst, seed):
        check_permuting(inst, seed)

    @pytest.mark.slow
    @metamorphic_settings(2000)
    @given(inst=PERMUTABLE, seed=st.integers(0, 2**32 - 1))
    def test_keeps_every_accept_bit_and_machine_witness_at_length(self, inst, seed):
        check_permuting(inst, seed)


class TestShuffledDeclaredOrder:
    @metamorphic_settings(200)
    @given(inst=large_instances(), seed=st.integers(0, 2**32 - 1))
    def test_keeps_every_witness_and_machine_byte(self, inst, seed):
        check_shuffling(inst, seed)

    @pytest.mark.slow
    @metamorphic_settings(2000)
    @given(inst=large_instances(), seed=st.integers(0, 2**32 - 1))
    def test_keeps_every_witness_and_machine_byte_at_length(self, inst, seed):
        check_shuffling(inst, seed)


class TestNoPassOverAllNames:
    def test_building_a_machine_sorts_nothing(self, monkeypatch):
        inst = random_instance(1, InstanceConfig(n=5000, k0=2, profile="w-finite", body_len=10))
        part = reduce_appearance(inst)
        assert part.budget == 28

        def refuse(*args, **kwargs):
            raise AssertionError("a machine build sorted")

        monkeypatch.setattr(paramcsp.machines, "sorted", refuse, raising=False)
        machine = GuessCheckMachine(inst.sorted_variables, part.k0, part.budget, part.checker)
        assert machine == part
        assert combine_machines(machine, machine).budget == 2 * part.budget + part.k0

    @pytest.mark.parametrize("atmost", [False, True], ids=["exact", "atmost"])
    @pytest.mark.parametrize("profile", PROFILES)
    def test_decide_never_reads_the_variable_set(self, monkeypatch, profile, atmost):
        reads = []
        built = Instance.variable_set.fget
        monkeypatch.setattr(Instance, "variable_set", property(lambda inst: reads.append(1) or built(inst)))
        for seed in range(4):
            inst = random_instance(seed, InstanceConfig(n=5, k0=1, profile=profile, body_len=2, atmost=atmost))
            want = brute_force_solve(inst)
            for method in VERIFY_METHODS:
                try:
                    got, _ = _decide(method, inst)
                except (NotApplicableError, CapacityError):
                    continue
                assert (got is None) == (want is None), method
                assert got is None or satisfies(inst, got), method
        assert reads == []
