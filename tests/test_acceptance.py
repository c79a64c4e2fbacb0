"""Acceptance gate: one test per shipping criterion, one printed line each.

Every test prints exactly one ``PASS``/``FAIL`` line with its runtime and
pinned time limit, then fails loudly if any check or the limit was missed.
Corpora are seeded through ``corpus_helpers`` so failures reproduce from the
case number alone. Expected values come from the independent oracles in
``oracles``, never from the code under test.
"""

from __future__ import annotations

import random
import time
from math import comb

import pytest

from corpus_helpers import (
    SOLVER_PROFILES,
    cw_config,
    explicit_config,
    instances,
    machine_config,
    pipeline_config,
    seed_for,
    solver_config,
)
from oracles import (
    binding_invariant_holds,
    completion_witness,
    direct_union_count,
    head_image,
    union_premise_holds,
)
from paramcsp import (
    AppearanceChecker,
    Constraint,
    CWChecker,
    CWRelation,
    ExplicitRelation,
    Instance,
    NotApplicableError,
    WeightKind,
    WeightParameter,
    WeightSet,
    WRelation,
    brute_force_solve,
    build_cw_tables,
    characterize_membership,
    completion_reduction,
    compute_partials,
    inclusion_exclusion_union,
    reduce_appearance,
    reduce_cw,
    relation_membership,
    satisfies,
    simulate,
    solve_w_kt,
    solve_w_kue,
    solve_wd_pipeline,
)


def finish(capsys, label, limit, started, failures):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed <= limit
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {label} ({elapsed:.1f}s, limit {limit:.0f}s)")
    if failures:
        pytest.fail(f"{label}: {len(failures)} failing checks; first: {failures[0]}")
    assert elapsed <= limit, f"{label}: {elapsed:.1f}s over the {limit:.0f}s limit"


def test_direct_solvers_match_brute_force(capsys):
    started = time.monotonic()
    failures: list[str] = []
    kt_ran = 0
    for pi, profile in enumerate(SOLVER_PROFILES):
        for case, inst in instances(500, solver_config, profile, salt=30 + pi):
            if len(failures) > 5:
                break
            want = brute_force_solve(inst)
            got = solve_w_kue(inst)
            if (got is None) != (want is None):
                failures.append(f"{profile} case {case}: main solver disagrees")
            elif got is not None and not satisfies(inst, got):
                failures.append(f"{profile} case {case}: bad main-solver witness")
            try:
                got_kt = solve_w_kt(inst)
            except NotApplicableError:
                continue
            kt_ran += 1
            if (got_kt is None) != (want is None):
                failures.append(f"{profile} case {case}: occurrence solver disagrees")
            elif got_kt is not None and not satisfies(inst, got_kt):
                failures.append(f"{profile} case {case}: bad occurrence-solver witness")
    if kt_ran < 300:
        failures.append(f"occurrence solver only applicable {kt_ran} times")
    finish(capsys, "direct solvers match brute force", 120, started, failures)


def test_machines_accept_exactly_the_satisfiable_instances(capsys):
    started = time.monotonic()
    failures: list[str] = []
    for label, corpus, reducer, salt in (
        ("occurrence", machine_config, reduce_appearance, 36),
        ("counting", cw_config, reduce_cw, 37),
    ):
        accepted = 0
        for case, inst in instances(500, corpus, salt=salt):
            if len(failures) > 5:
                break
            res = simulate(reducer(inst))
            want = brute_force_solve(inst)
            if res.accepted != (want is not None):
                failures.append(f"{label} case {case}: accept bit disagrees")
            elif res.accepted:
                accepted += 1
                if not satisfies(inst, res.witness):
                    failures.append(f"{label} case {case}: witness fails the instance")
        if accepted < 50:
            failures.append(f"{label}: only {accepted} accepting runs")
    finish(capsys, "machines accept exactly the satisfiable instances", 300, started, failures)


def test_alternating_sums_count_unions_exactly(capsys):
    started = time.monotonic()
    failures: list[str] = []
    made = 0
    for case, inst in instances(4000, cw_config, salt=38):
        if made == 1000 or len(failures) > 5:
            break
        if not inst.body:
            continue
        b = len(inst.body[0].relation.weights.values)
        rng = random.Random(seed_for(case, salt=39))
        head = head_image(inst.body[rng.randrange(len(inst.body))])
        names = sorted(inst.variables)
        cands = frozenset(rng.sample(names, min(len(names), rng.randint(1, 3))))
        if not union_premise_holds(inst, head, cands, b):
            continue
        tables = build_cw_tables(inst, max(len(cands), len(head), 1))
        got = inclusion_exclusion_union(tables, head, cands, b)
        if got != direct_union_count(inst, head, cands):
            failures.append(f"case {case}: union count disagrees")
        made += 1
    if made < 1000:
        failures.append(f"only {made} premise triples found")
    finish(capsys, "alternating sums count unions exactly", 60, started, failures)


def test_partial_tuple_tables_decide_membership(capsys):
    started = time.monotonic()
    failures: list[str] = []
    for case in range(200):
        if len(failures) > 5:
            break
        rng = random.Random(seed_for(case, salt=33))
        q = 1 + case % 10
        members = tuple(
            tuple(sorted(rng.sample(range(1, q + 1), rng.randint(0, min(4, q)))))
            for _ in range(rng.randint(0, 12))
        )
        rel = ExplicitRelation(q, members)
        table = compute_partials(rel)
        for mask in range(1 << q):
            d = frozenset(p + 1 for p in range(q) if mask >> p & 1)
            if characterize_membership(table, d) != relation_membership(rel, d):
                failures.append(f"case {case}: disagree on {sorted(d)}")
                break
    finish(capsys, "partial-tuple tables decide membership", 120, started, failures)


def test_indicator_reduction_preserves_satisfiability(capsys):
    started = time.monotonic()
    failures: list[str] = []
    inspected = 0
    for case, inst in instances(300, explicit_config, salt=34):
        if len(failures) > 5:
            break
        sizes = [len(m) for c in inst.body for m in c.relation.members]
        d = max(sizes, default=1) or 1
        red = completion_reduction(inst, d)
        want = brute_force_solve(inst)
        got = completion_witness(red, inst.weight.k0)
        if (want is None) != (got is None):
            failures.append(f"case {case}: satisfiability changed")
            continue
        if got is not None and not satisfies(red.instance, got):
            failures.append(f"case {case}: oracle witness fails the reduction")
        if len(red.instance.variables) <= 12 and red.instance.weight.k0 <= 3:
            direct = brute_force_solve(red.instance)
            if (direct is None) != (got is None):
                failures.append(f"case {case}: full search disagrees with the oracle")
            elif direct is not None:
                inspected += 1
                if not binding_invariant_holds(red, direct):
                    failures.append(f"case {case}: witness breaks an indicator binding")
    if inspected < 75:
        failures.append(f"only {inspected} witnesses inspected for bindings")
    finish(capsys, "indicator reduction preserves satisfiability", 600, started, failures)


WS1 = WeightSet.finite((1,))
WS0 = WeightSet.finite((0,))
SIZES = (20, 50, 100, 200)


def _pad(n, used):
    return tuple(f"f{i:03d}" for i in range(len(used), n))


def _app_sat(n):
    core = ("a0", "a1", "a2")
    body = tuple(Constraint(WRelation(WS1, 1), (v,)) for v in core for _ in range(2))
    return Instance(core + _pad(n, core), WeightParameter(WeightKind.EXACT, 3), body)


def _app_unsat(n):
    body = (
        Constraint(WRelation(WS1, 1), ("a0",)),
        Constraint(WRelation(WS0, 1), ("a0",)),
    )
    return Instance(("a0",) + _pad(n, "a"), WeightParameter(WeightKind.EXACT, 3), body)


def _cw_sat(n):
    core = ("a", "b", "c")
    body = (Constraint(CWRelation(WS1, 1, 1), ("a", "b")),)
    return Instance(core + _pad(n, core), WeightParameter(WeightKind.EXACT, 3), body)


def _cw_unsat(n):
    names = tuple(f"v{i:03d}" for i in range(n))
    body = tuple(Constraint(CWRelation(WS1, 0, 2), (v, v)) for v in names)
    return Instance(names, WeightParameter(WeightKind.EXACT, 3), body)


# (family, reducer, expected accept bit, branch steps, budget, scans); the
# numbers are frozen measurements and the point is that they hold at every
# size. Scans count the checker's own judgments of a guess: calls of
# AppearanceChecker.check and CWChecker._scan. The walk decides every other
# branch from its prefix, so they pin the walk's cost as the sizes grow.
FAMILIES = (
    ("occurrence sat", _app_sat, reduce_appearance, True, 33, 57, 1),
    ("occurrence unsat", _app_unsat, reduce_appearance, False, 11, 57, 2),
    ("counting sat", _cw_sat, reduce_cw, True, 351, 351, 1),
    ("counting unsat", _cw_unsat, reduce_cw, False, 6, 351, 0),
)


def test_branch_cost_ignores_instance_size(capsys, monkeypatch):
    scans: list[tuple] = []

    def counted(real):
        def count(self, *args):
            scans.append(args)
            return real(self, *args)

        return count

    monkeypatch.setattr(AppearanceChecker, "check", counted(AppearanceChecker.check))
    monkeypatch.setattr(CWChecker, "_scan", counted(CWChecker._scan))
    started = time.monotonic()
    failures: list[str] = []
    scanned_by: dict[str, set[int]] = {}  # each family's scan counts over the sizes
    for label, build, reducer, accepted, steps, budget, scanned in FAMILIES:
        for n in SIZES:
            machine = reducer(build(n))
            scans.clear()
            res = simulate(machine)
            got = (res.accepted, res.max_branch_steps, machine.budget, len(scans))
            scanned_by.setdefault(label, set()).add(len(scans))
            if got != (accepted, steps, budget, scanned):
                failures.append(f"{label} at n={n}: {got} != {(accepted, steps, budget, scanned)}")
    counts = ", ".join(f"{label} {'/'.join(map(str, sorted(seen)))}" for label, seen in scanned_by.items())
    finish(capsys, f"branch cost ignores instance size (scans per size: {counts})", 120, started, failures)


def test_pipeline_matches_brute_force_on_weight_one_clauses(capsys):
    started = time.monotonic()
    failures: list[str] = []
    sat = 0
    for case, inst in instances(100, pipeline_config, salt=35):
        if len(failures) > 5:
            break
        got = solve_wd_pipeline(inst, 1)
        want = brute_force_solve(inst)
        if (got is None) != (want is None):
            failures.append(f"case {case}: satisfiability disagrees")
        elif got is not None:
            sat += 1
            if not satisfies(inst, got):
                failures.append(f"case {case}: witness fails the instance")
    if sat < 20:
        failures.append(f"only {sat} satisfiable cases")
    finish(capsys, "pipeline matches brute force on weight-one clauses", 300, started, failures)


def test_counting_tables_stay_within_their_size_cap(capsys):
    started = time.monotonic()
    failures: list[str] = []
    for case, inst in instances(200, cw_config, salt=40):
        if len(failures) > 5:
            break
        # build_cw_tables asserts the cap itself; recheck it independently.
        t = build_cw_tables(inst, inst.weight.k0)
        n_size = max(len(inst.variables), len(inst.body), 1)
        cap = n_size * sum(comb(n_size, i) for i in range(t.b + 2))
        if len(t.delta_empty) + len(t.delta_sizes) > cap:
            failures.append(f"case {case}: {len(t.delta_empty) + len(t.delta_sizes)} entries over {cap}")
    finish(capsys, "counting tables stay within their size cap", 60, started, failures)
