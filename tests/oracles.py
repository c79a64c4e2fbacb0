"""Independent reference computations used by the solver, machine and acceptance tests.

Nothing here calls the code paths under test: unions are counted by direct
scan over the body, reduced instances are decided by enumerating original
variable subsets and propagating the forced indicator values, costs and
budgets are summed term by term, occurrence profiles are read for every
variable against every constraint, count vectors are every product of
class counts filtered by their sum, instance declarations are checked one
name at a time in order, simulations walk every guess through the
per-branch ``run_branch`` instead of the prefix walk's blocks, and combined checks
run each part's own ``run_branch``.

Every checker's ``check`` judges a guess without the walk's prefix state: a
conditional-weight machine's ``run_branch`` runs the literal scan, never
``CWChecker.check_block``. So ``literal_simulate`` reads every block
independently of its shortcuts. With one step added to every miss that
``check_block`` charges without a scan, 51 tier-1 tests fail, among them
``TestBlockWalk::test_simulation_matches_the_per_branch_loop``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import comb

from paramcsp import (
    AlwaysReject,
    BudgetExceededError,
    CombinedChecker,
    CompletionReduction,
    Constraint,
    CostModel,
    DomainError,
    Instance,
    ParamCSPError,
    SimulationResult,
    ValidationError,
    satisfies,
)
from paramcsp._sets import guesses
from paramcsp.machines import _cw_shared_bound


def head_image(c: Constraint) -> frozenset[str]:
    return frozenset(c.scope[: c.relation.head])


def tail_image(c: Constraint) -> frozenset[str]:
    return frozenset(c.scope[c.relation.head :])


def union_premise_holds(inst: Instance, head: frozenset[str], cands: frozenset[str], b: int) -> bool:
    return all(
        len(tail_image(c) & cands) <= b
        for c in inst.body
        if head_image(c) == head
    )


def delta_set(inst: Instance, head_set: frozenset[str] | set[str], tail_set: frozenset[str] | set[str]) -> tuple[int, ...]:
    """The paper's Delta(B, G): 1-based indices of body constraints with head
    image exactly ``head_set`` and tail image containing ``tail_set``."""
    _cw_shared_bound(inst)
    bset = frozenset(head_set)
    gset = frozenset(tail_set)
    for label, s in (("head", bset), ("tail", gset)):
        extra = s - inst.variable_set
        if extra:
            raise DomainError(f"{label} set uses undeclared variables: {sorted(extra)}")
    return tuple(
        i
        for i, c in enumerate(inst.body, start=1)
        if head_image(c) == bset and gset <= tail_image(c)
    )


def direct_union_count(inst: Instance, head: frozenset[str], cands: frozenset[str]) -> int:
    return sum(
        1
        for c in inst.body
        if head_image(c) == head and tail_image(c) & cands
    )


def completion_witness(red: CompletionReduction, k0: int) -> frozenset[str] | None:
    """Decide the reduced instance by searching original-variable subsets only.

    The binding constraints force each indicator to be true exactly when its
    key set is chosen, so every candidate assignment of the reduced instance
    is determined by its original-variable part.
    """
    names = sorted(red.original_variables)
    if k0 > len(names):
        return None
    for combo in combinations(names, k0):
        chosen = frozenset(combo)
        forced = frozenset(
            name for name, key in red.indicator_keys.items() if key <= chosen
        )
        candidate = chosen | forced
        if satisfies(red.instance, candidate):
            return candidate
    return None


def binding_invariant_holds(red: CompletionReduction, witness: frozenset[str]) -> bool:
    chosen = witness & frozenset(red.original_variables)
    for name, key in red.indicator_keys.items():
        if (name in witness) != (key <= chosen):
            return False
    return True


def literal_cw_check(checker, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
    """The conditional-weight check read literally: every head against every tail set.

    ``checker`` is a :class:`paramcsp.CWChecker`; only its tables are read.
    """
    subs = [
        frozenset(c)
        for size in range(len(combo) + 1)
        for c in combinations(combo, size)
    ]
    b = checker.b
    pairs_g = [g for g in subs if len(g) <= b + 1]
    terms_g = [g for g in subs if 1 <= len(g) <= b]
    for bset in subs:
        lb = len(bset)
        for g in pairs_g:
            steps += lb + len(g) + 1
            if checker.lambda_caps.get((bset, g), 0) > b:
                return False, steps
    for bset in subs:
        lb = len(bset)
        total = 0
        for g in terms_g:
            steps += lb + len(g) + 2
            d = checker.delta_sizes.get((bset, g), 0)
            total += d if len(g) % 2 else -d
            if not -checker.sum_bound <= total <= checker.sum_bound:
                raise ParamCSPError("partial sum escaped its bound")
        steps += lb + 2
        if total != checker.delta_empty.get(bset, 0):
            return False, steps
    return True, steps


def literal_combined_check(checker, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
    """The combined check read as its parts' own branches: ``steps`` plus each
    part's ``run_branch`` charge (``len(combo)`` and its checker), the second
    part run only when the first accepts. A part that is itself combined is
    read the same way, so no level goes through ``CombinedChecker.check``.

    ``checker`` is a :class:`paramcsp.CombinedChecker`.
    """
    for part in (checker.first, checker.second):
        if isinstance(part.checker, CombinedChecker) and len(combo) == part.k0:
            accepted, charged = literal_combined_check(part.checker, combo, len(combo))
        else:
            accepted, charged = part.run_branch(combo)
        steps += charged
        if not accepted:
            return False, steps
    return True, steps


def literal_union(checker, head_set, candidates, bound: int) -> int:
    """The inclusion-exclusion union read literally: every nonempty subset of
    the sorted candidates of at most ``bound`` names, smallest first."""
    names = sorted(candidates)
    head = frozenset(head_set)
    total = 0
    for size in range(1, min(bound, len(names)) + 1):
        for g in combinations(names, size):
            d = checker.delta_sizes.get((head, frozenset(g)), 0)
            total += d if size % 2 else -d
            if not -checker.sum_bound <= total <= checker.sum_bound:
                raise ParamCSPError("partial sum escaped its bound")
    return total


def literal_simulate(machine) -> SimulationResult:
    """The simulation read literally: every guess of
    :func:`~paramcsp._sets.guesses` in turn through ``run_branch``, each
    branch's steps held against the budget before its verdict is read."""
    if isinstance(machine.checker, AlwaysReject):
        return SimulationResult(False, None, 0, 0)
    max_steps = explored = 0
    for combo in guesses(machine.universe, machine.k0, True):
        explored += 1
        accepted, steps = machine.run_branch(combo)
        if steps > machine.budget:
            raise BudgetExceededError(
                f"branch {combo!r} used {steps} steps against budget {machine.budget}"
            )
        max_steps = max(max_steps, steps)
        if accepted:
            return SimulationResult(True, frozenset(combo), max_steps, explored)
    return SimulationResult(False, None, max_steps, explored)


def literal_cw_budget(k0: int, b: int) -> int:
    """Cost of one full literal check at guess size ``k0``, summed head by head."""
    pair_part = 0
    term_part = 0
    for i in range(k0 + 1):
        heads = comb(k0, i)
        for j in range(min(b + 1, k0) + 1):
            pair_part += heads * comb(k0, j) * (i + j + 1)
        for j in range(1, min(b, k0) + 1):
            term_part += heads * comb(k0, j) * (i + j + 2)
        term_part += heads * (i + 2)
    return k0 + pair_part + term_part


def literal_check_cap(inst: Instance, cost_model: CostModel, weight_cap: int) -> int:
    """The appearance machine's costliest single membership check, read
    literally: every body constraint at every weight up to ``weight_cap``."""
    check_cap = 0
    for c in inst.body:
        for w in range(weight_cap + 1):
            check_cap = max(check_cap, cost_model.cost(c.relation.index, w))
    return check_cap


def dense_profile_classes(inst: Instance, h: int) -> list[tuple[tuple[int, ...], list[str]]]:
    """Profile classes as ``(profile, names)`` pairs, read densely: every
    variable against every constraint."""
    over = h + 1
    per_constraint = [Counter(c.scope) for c in inst.body]
    groups: dict[tuple[int, ...], list[str]] = {}
    for v in sorted(inst.variables):
        prof = tuple(min(counts.get(v, 0), over) for counts in per_constraint)
        groups.setdefault(prof, []).append(v)
    return sorted(groups.items())


def literal_count_vectors(caps, target: int) -> list[tuple[int, ...]]:
    """Every way to pick ``target`` names across classes of sizes ``caps``,
    in lexicographic order: the full product of per-class counts, filtered
    by its sum."""
    return [v for v in product(*(range(cap + 1) for cap in caps)) if sum(v) == target]


def validate_in_order(variables, body) -> None:
    """Instance validation one name at a time: raises what the first fault in
    declaration order raises, and returns for a valid declaration."""
    seen: set[str] = set()
    for v in variables:
        if not isinstance(v, str) or not v:
            raise ValidationError(f"variable names must be nonempty strings, got {v!r}")
        if v in seen:
            raise ValidationError(f"duplicate variable {v!r}")
        seen.add(v)
    for i, c in enumerate(body):
        for v in c.scope:
            if v not in seen:
                raise ValidationError(f"constraint {i + 1} uses undeclared variable {v!r}")
