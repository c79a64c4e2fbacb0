"""Direct solvers for bodies of weight-set constraints sharing one weight set.

The core observation: once per-constraint occurrence counts are capped at a
bound ``h``, variables with equal capped occurrence profiles are
interchangeable, so only the number chosen from each profile class matters.
The solver enumerates count vectors over profile classes instead of variable
subsets, which is what makes it parameterized rather than exponential in n.
Each vector is judged by one column sum per constraint (see :func:`_feasible`).

Profiles are counted from the constraint scopes in one pass, which also
reads off the cap: it costs O(sum of arities + touched * |body|), where
``touched`` is the number of variables in some scope, and never walks all n
names. Every untouched variable has the all-zero profile, so they form one
class whose size is the variable count less the touched count. No count
vector takes more than ``k0`` names from it, so it holds only its first
``k0``, read from the instance's sorted names past the touched ones.

Capping is sound because a count can only exceed ``h`` when ``h`` came from
the weight set rather than from the instance, so the weight set judges every
capped sum as it would the true one (see :func:`_feasible`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse, islice
from operator import mul

from .errors import NotApplicableError, ParamCSPError
from .instances import Instance, WeightKind, _meets, param_t
from .relations import WeightSet, WeightSetKind, WRelation


@dataclass(frozen=True)
class SolveStats:
    """Instrumentation: cap, class count, and multisets actually tested."""

    h: int
    class_count: int
    multisets_enumerated: int
    pruned: bool = False


def _shared_weight_set(inst: Instance) -> WeightSet | None:
    """The single weight set used by every body constraint; None for an empty body."""
    shared: WeightSet | None = None
    for i, c in enumerate(inst.body, start=1):
        if not isinstance(c.relation, WRelation):
            raise NotApplicableError(f"constraint {i} is not a weight-set relation")
        ws = c.relation.weights
        if shared is None:
            shared = ws
        elif shared != ws:
            raise NotApplicableError("body constraints use different weight sets")
    return shared


def _occurrences(inst: Instance, weights: WeightSet | None) -> tuple[int, dict[str, list[int]]]:
    """The occurrence cap ``h`` of ``inst``, whose body shares ``weights``
    (None for an empty body), and each touched variable's row of occurrence
    counts per constraint, capped at ``h + 1``, from one pass over the scopes.

    ``h`` is the least of the largest occurrence count of one variable in one
    scope and the largest structurally relevant weight of a finite or
    cofinite set.
    """
    body = inst.body
    width = len(body)
    if weights is not None and weights.kind in (WeightSetKind.FINITE, WeightSetKind.COFINITE) and weights.values:
        bound = max(weights.values)
    else:  # no count exceeds its scope's length
        bound = max((len(c.scope) for c in body), default=0)
    over = bound + 1
    rows: dict[str, list[int]] = {}
    for i, c in enumerate(body):
        for v in c.scope:
            row = rows.get(v)
            if row is None:
                row = rows[v] = [0] * width
            if row[i] < over:
                row[i] += 1
    # Counts stop at bound + 1, which only a count above the bound reaches,
    # so h = min(largest count, bound) reads the same off the capped rows;
    # and h + 1 caps them as bound + 1 did.
    return min(max(map(max, rows.values()), default=0), bound), rows


def _profile_classes(
    inst: Instance, weights: WeightSet | None
) -> tuple[int, list[tuple[tuple[int, ...], int, list[str]]]]:
    """The cap ``h`` and the profile classes of ``inst`` (see :func:`_occurrences`).

    Classes come as ``(profile, size, names)`` triples in profile order,
    names sorted; the all-zero class holds only its first ``min(k0, size)``.
    """
    h, rows = _occurrences(inst, weights)
    width = len(inst.body)
    groups: dict[tuple[int, ...], list[str]] = {}
    for v in sorted(rows):
        groups.setdefault(tuple(rows[v]), []).append(v)
    classes = [(profile, len(names), names) for profile, names in groups.items()]
    # Every touched row counts at least one occurrence, so only untouched
    # variables have the all-zero profile.
    size = len(inst.variables) - len(rows)
    if size:
        first = list(islice(filterfalse(rows.__contains__, inst.sorted_variables), min(inst.weight.k0, size)))
        classes.append(((0,) * width, size, first))
    classes.sort()
    return h, classes


def _feasible(weights: WeightSet, columns: list[tuple[int, ...]], vector: tuple[int, ...]) -> bool:
    """Whether every column's sum against ``vector`` lies in ``weights``. A
    count reaches the cap ``h + 1`` only when ``h`` is the largest value of a
    finite or cofinite set, so the capped sum lies above every value: a finite
    set refuses it and a cofinite set admits it, as it would the true sum.
    Parity sets never cap, because their bound is the longest scope."""
    for column in columns:
        if not weights._contains(sum(map(mul, column, vector))):
            return False
    return True


def _count_vectors(caps: list[int], target: int):
    """All ways to pick ``target`` variables across classes of sizes ``caps``, lexicographically."""
    room_after = [0] * (len(caps) + 1)
    for j in range(len(caps) - 1, -1, -1):
        room_after[j] = room_after[j + 1] + caps[j]
    counts = [0] * len(caps)
    raised, remaining = -1, target
    while True:
        if remaining > room_after[raised + 1]:
            return
        # Place ``remaining`` after the raised class as late as the caps allow.
        for j in range(raised + 1, len(caps)):
            n = remaining - room_after[j + 1]
            counts[j] = n if n > 0 else 0
            remaining -= counts[j]
        yield tuple(counts)
        # Raise the rightmost count that can take one variable from the classes after it.
        for raised in range(len(caps) - 1, -1, -1):
            if remaining and counts[raised] < caps[raised]:
                counts[raised] += 1
                remaining -= 1
                break
            remaining += counts[raised]
        else:
            return


def _solve(inst: Instance, weights: WeightSet | None) -> tuple[frozenset[str] | None, SolveStats]:
    """Enumerate count vectors over the profile classes of ``inst``, whose
    body shares ``weights`` (None for an empty body)."""
    h, classes = _profile_classes(inst, weights)
    profiles = [profile for profile, _, _ in classes]
    if weights is not None and weights.kind in (WeightSetKind.EVEN, WeightSetKind.ODD) and max(map(max, profiles)) > h:
        raise ParamCSPError("parity sets cannot hit the cap")
    sizes = [size for _, size, _ in classes]
    # A column per constraint: every scope is nonempty, so some class touches it.
    columns = list(zip(*profiles))
    k0 = inst.weight.k0
    # No count vector sums past the variable count, so larger targets are skipped.
    targets = (k0,) if inst.weight.kind is WeightKind.EXACT else range(min(k0, len(inst.variables)) + 1)
    tested = 0
    for target in targets:
        for vector in _count_vectors(sizes, target):
            tested += 1
            if not _feasible(weights, columns, vector):
                continue
            witness = frozenset(
                name
                for (_, _, names), n in zip(classes, vector)
                for name in names[:n]
            )
            # The witness is drawn from the classes, so it holds only declared names.
            if not _meets(inst, witness):
                raise ParamCSPError("representative witness failed its instance")
            return witness, SolveStats(h, len(classes), tested)
    return None, SolveStats(h, len(classes), tested)


def solve_w_kue_with_stats(inst: Instance) -> tuple[frozenset[str] | None, SolveStats]:
    """Profile-class solver; returns the witness and instrumentation counters."""
    return _solve(inst, _shared_weight_set(inst))


def solve_w_kue(inst: Instance) -> frozenset[str] | None:
    return solve_w_kue_with_stats(inst)[0]


def solve_w_kt_with_stats(inst: Instance) -> tuple[frozenset[str] | None, SolveStats]:
    """Count-bound solver: prune bodies too large to touch, then solve.

    Needs 0 outside the shared weight set, so every constraint must be
    touched by any satisfying assignment; more than t * k0 constraints then
    cannot all be touched by k0 variables and the instance is rejected
    without enumerating anything.
    """
    weights = _shared_weight_set(inst)
    if weights is not None and weights._contains(0):
        raise NotApplicableError("weight sets containing 0 defeat the count bound")
    if len(inst.body) > param_t(inst) * inst.weight.k0:
        return None, SolveStats(_occurrences(inst, weights)[0], 0, 0, pruned=True)
    return _solve(inst, weights)


def solve_w_kt(inst: Instance) -> frozenset[str] | None:
    return solve_w_kt_with_stats(inst)[0]
