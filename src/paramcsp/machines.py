"""Guess-and-check machines: compilation from instances, and simulation.

A machine guesses a candidate set of variables (the branch) and runs a cheap
checker over precompiled tables. Budgets are materialized integers computed
from instance parameters at build time; :func:`simulate` enforces them on
every branch and raises if one is exceeded, since that can only mean the
budget arithmetic or the checker is wrong.

Two checkers are compiled from instances. The appearance checker stores, per
variable, the constraints it appears in, the set of constraints that reject
the empty tuple, and the constraint table itself; a branch passes when every
touched constraint accepts its selected positions and every empty-rejecting
constraint is touched. The conditional-weight checker stores counting tables
keyed by head-image and tail-image sets and accepts via an inclusion-exclusion
identity, without ever looking at a concrete constraint during the branch.
It runs on integer masks: each name in a table key owns one bit, and each
stored head keeps a row (tail mask -> signed count) and its tail masks over
the cap. A branch walks only the stored entries inside its guess, never its
``2**k`` subsets: any other subset reads zero everywhere, so it cannot fail.
Every head and pair up to the first failure is charged in closed form from
the failing subset's rank in the literal every-head, every-pair scan, so
steps match that scan and an accepting branch costs exactly the budget.

Every checker but :class:`AlwaysReject`, which :func:`simulate` never runs,
also answers ``check_block(prefix, lasts, steps)``, and :func:`simulate`
hands it one block of sibling guesses at a time; see
:func:`simulate`, :class:`CWChecker` and :meth:`CWChecker.check_block`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, combinations, compress, repeat
from math import comb
from operator import or_
from typing import NamedTuple

from ._sets import sibling_blocks, subsets_by_size
from .errors import (
    BudgetExceededError,
    CapacityError,
    DomainError,
    NotApplicableError,
    ParamCSPError,
    UsageError,
    ValidationError,
    require_int,
)
from .instances import (
    Constraint,
    Instance,
    WeightKind,
    WeightParameter,
    _GUESS_CAP,
    _fresh_prefix,
    lift_kle_to_k,
    param_e,
    param_t,
    satisfies,
)
from .partials import DEFAULT_CAPACITY, compute_partials
from .relations import (
    CostModel,
    CWRelation,
    ExplicitRelation,
    WeightSet,
    WeightSetKind,
    WRelation,
    _largest_member,
)


@dataclass(frozen=True)
class SimulationResult:
    accepted: bool
    witness: frozenset[str] | None
    max_branch_steps: int
    branches_explored: int


def _run_block(
    check: Callable[[tuple[str, ...], int], tuple[bool, int]],
    prefix: tuple[str, ...],
    lasts: Sequence[str],
    steps: int,
    scan: Iterable[int],
    other: tuple[bool, int] = (False, 0),
) -> tuple[int | None, int, int]:
    """The result of ``check_block`` when only the positions of ``lasts``
    listed in ``scan``, ascending, need ``check``, and every other last gets
    the verdict ``other``, an (accepted, steps charged) pair."""
    other_accepts, other_steps = other
    top = 0
    start = 0  # the first position not yet judged
    end = len(lasts)
    for i in chain(scan, (end,)):
        if i > start:
            if other_accepts:
                return start, start + 1, max(top, other_steps)
            top = max(top, other_steps)
        if i == end:
            break
        accepted, charged = check(prefix + (lasts[i],), steps)
        if charged > top:
            top = charged
        if accepted:
            return i, i + 1, top
        start = i + 1
    return None, end, top


@dataclass(frozen=True)
class AlwaysReject:
    """Checker for machines whose build already proved unsatisfiability."""

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        return False, steps


ALWAYS_REJECT = AlwaysReject()


@dataclass(frozen=True)
class AppearanceChecker:
    """Tables for the occurrence-based checker, all derived from the constraints.

    ``e_v`` maps each variable to the 1-based body indices it appears in;
    ``d_set`` lists the indices rejecting the empty tuple; ``positions`` maps
    index -> variable -> scope positions. ``index_factors`` holds each
    constraint's ``CostModel._index_factor``, the index part of :meth:`CostModel.cost`,
    so a check calls only ``checker_cost`` per touched constraint.
    """

    constraints: tuple[Constraint, ...]
    cost_model: CostModel
    e_v: dict[str, tuple[int, ...]] = field(init=False)
    d_set: tuple[int, ...] = field(init=False)
    positions: dict[int, dict[str, tuple[int, ...]]] = field(init=False, repr=False, compare=False)
    index_factors: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        occurrences: dict[str, list[int]] = {}
        empty_rejecting: list[int] = []
        pos: dict[int, dict[str, tuple[int, ...]]] = {}
        for i, c in enumerate(self.constraints, start=1):
            per: dict[str, list[int]] = {}
            for p, v in enumerate(c.scope, start=1):
                per.setdefault(v, []).append(p)
            pos[i] = {v: tuple(ps) for v, ps in per.items()}
            for v in per:
                occurrences.setdefault(v, []).append(i)
            if not c.relation._contains(frozenset()):
                empty_rejecting.append(i)
        object.__setattr__(self, "e_v", {v: tuple(ix) for v, ix in sorted(occurrences.items())})
        object.__setattr__(self, "d_set", tuple(empty_rejecting))
        object.__setattr__(self, "positions", pos)
        factors = tuple(self.cost_model._index_factor(c.relation.index) for c in self.constraints)
        object.__setattr__(self, "index_factors", factors)

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        checker_cost = self.cost_model.checker_cost
        touched: set[int] = set()
        for v in combo:
            ev = self.e_v.get(v)
            if ev:
                steps += len(ev)
                touched.update(ev)
        for i in sorted(touched):
            c = self.constraints[i - 1]
            pos = self.positions[i]
            sel: list[int] = []
            for v in combo:
                ps = pos.get(v)
                if ps:
                    sel.extend(ps)
            steps += len(sel)
            steps += checker_cost(len(sel)) * self.index_factors[i - 1]
            if not c.relation._contains(frozenset(sel)):
                return False, steps
        steps += len(self.d_set)
        for i in self.d_set:
            if i not in touched:
                return False, steps
        return True, steps

    def check_block(
        self, prefix: tuple[str, ...], lasts: Sequence[str], steps: int
    ) -> tuple[int | None, int, int]:
        """Check ``prefix + (x,)`` for each ``x`` in ``lasts``. A last in no
        constraint adds no occurrence, position or constraint to the walk, so
        it gets the verdict and charge of ``prefix`` itself, judged once."""
        scan = compress(range(len(lasts)), map(self.e_v.__contains__, lasts))
        return _run_block(self.check, prefix, lasts, steps, scan, self.check(prefix, steps))


TableKey = tuple[frozenset[str], frozenset[str]]


@lru_cache(maxsize=256)
def _tail_scans(k: int, b: int) -> tuple[int, int, int, int]:
    """The two tail scans of one head over a guess of ``k`` names.

    Returns ``(pairs, pair_scan, terms, term_scan)``: the number of tail sets
    ``G`` of at most ``b + 1`` names and their summed ``|G| + 1``; the number
    of nonempty ones of at most ``b`` names and their summed ``|G| + 2``, plus
    the 2 that closes the sum. The counts index the subset order of
    :func:`~paramcsp._sets.subsets_by_size`: these tail sets are its first
    ``pairs`` subsets and the ``terms`` after the empty one.
    Each binomial comes from the last, ``C(k, j + 1) = C(k, j) * (k - j) // (j + 1)``.
    """
    pairs = pair_scan = terms = term_scan = 0
    count = 1
    for j in range(min(b + 1, k) + 1):
        pairs += count
        pair_scan += count * (j + 1)
        if 1 <= j <= b:
            terms += count
            term_scan += count * (j + 2)
        count = count * (k - j) // (j + 1)
    return pairs, pair_scan, terms, term_scan + 2


def _low_bits(mask: int) -> list[int]:
    """The set bits of ``mask`` as one-bit masks, lowest first."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


def _scan_key(mask: int) -> tuple[int, list[int]]:
    """Sort key of a mask over bits given in sorted name order: its size,
    then its bits lowest first, so masks sort as the subsets of their names
    do in :func:`~paramcsp._sets.subsets_by_size` order."""
    return mask.bit_count(), _low_bits(mask)


def _rank(k: int, positions: Sequence[int]) -> tuple[int, int]:
    """The rank of the subset at the ascending ``positions`` among the
    :func:`~paramcsp._sets.subsets_by_size` subsets of ``k`` positions, and
    the summed sizes of the subsets before it. The ``C(k, j)`` subsets of
    each smaller size ``j`` come first; within its size, the subset's rank
    in :func:`itertools.combinations` order follows from the combinatorial
    number system (Knuth, TAOCP 4A, 7.2.1.3)."""
    s = len(positions)
    rank = before = 0
    count = 1  # C(k, j), each from the last
    for j in range(s):
        rank += count
        before += j * count
        count = count * (k - j) // (j + 1)
    lex = count - 1 - sum(comb(k - 1 - p, s - i) for i, p in enumerate(positions))
    return rank + lex, before + s * lex


class _Prefix(NamedTuple):
    """What :meth:`CWChecker.check` keeps for the guesses that extend ``key``
    by one last name: its keyed names' mask; the charge of an empty-head cap
    failure inside ``key``, if any; the last bits that close an over-cap
    union (0: ``key`` holds one); and, when the empty head's row may decide,
    each last bit's extended row sum (``sums``: the row over the tails inside
    ``key`` plus the bit that hold it; else None), the sum a last bit must
    reach, and the charge of missing it. ``parent`` is the state of ``key[:-1]``."""

    key: tuple[str, ...]
    mask: int
    cap_charge: int | None
    sums: dict[int, int] | None
    closers: frozenset[int]
    missing: int
    miss_charge: int
    parent: _Prefix | None


@dataclass(frozen=True)
class CWChecker:
    """Counting tables for the conditional-weight checker.

    ``delta_sizes[(B, G)]`` counts body constraints whose head image is
    exactly ``B`` and whose tail image contains ``G``; ``lambda_caps`` holds,
    for the same keys, the largest number of tail positions any one of those
    constraints maps into ``G`` (repeats counted); ``delta_empty`` is the
    ``G = {}`` column. Unstored keys read as zero. ``sum_bound`` bounds every
    inclusion-exclusion partial sum and is enforced during checking.

    Read literally, :meth:`check` scans every head ``B`` of the guess twice,
    in :func:`~paramcsp._sets.subsets_by_size` order: once over the tail sets
    ``G`` of at most ``b + 1`` names (the lambda caps), once over the nonempty
    tail sets of at most ``b`` names (the alternating sum of :meth:`_tail_sum`
    against ``delta_empty[B]``). A pair costs ``|B| + |G| + 1`` and
    ``|B| + |G| + 2`` steps and a finished sum ``|B| + 2``, so a head costs
    ``|B| * pairs + pair_scan`` and ``|B| * (terms + 1) + term_scan`` (see
    :func:`_tail_scans`), and a head whose ``j``-th cap fails costs its first
    ``j`` pairs instead.

    The check runs on integer masks: each name in a key owns one bit of
    ``bits``, given in sorted name order, so no table derived from them
    depends on set iteration order, and inside a guess in sorted name order
    masks sort as their subsets do in the scan (:func:`_scan_key`). ``rows``
    maps a head mask to its row, tail mask -> nonzero count, added for odd
    ``|G|`` and subtracted for even, with ``delta_empty[B]`` at tail 0: a
    head passes when its row sums to zero over the guess's tail sets of at
    most ``b`` names. ``over_cap`` maps a head mask to its tail masks of at
    most ``b + 1`` names whose cap exceeds ``b``. Both hold their heads in
    scan order, and a branch walks only these entries, testing each against
    its mask: any other subset reads zero at every key and fails no test.
    The first failing head and pair are charged from their ranks (:func:`_rank`).

    Guesses arrive in lex order, so consecutive ones share all names but the
    last. ``prefix`` keeps the :class:`_Prefix` of the last such shared
    prefix, linked to the states of its own prefixes: a sibling prefix grows
    from its parent by one name, reading only the entries holding its bit in
    ``cap_unions``, the unions ``B | G`` of the over-cap pairs (under 0 those
    of at most one name; the cap scan fails exactly when the guess holds
    one), and in ``empty_tails``, the empty head's tails of 1 to ``b`` names
    and their counts (under 0 its one-name tails). ``empty_tails`` is None,
    and the row decides nothing from a prefix, when the empty head has no row
    or the absolute values of these counts sum past ``sum_bound``, where a
    partial sum could escape. Otherwise, the empty head coming first in both
    scans, a branch failing its cap at ``G = {}`` or at a prefix name, or
    passing the cap scan and missing the row, is charged in closed form from
    the prefix, and :meth:`check_block` finds the lasts whose extended row
    sum reaches the prefix's remainder by lookups, charging every other last
    without calling :meth:`check`.
    """

    b: int
    delta_sizes: dict[TableKey, int]
    lambda_caps: dict[TableKey, int]
    delta_empty: dict[frozenset[str], int]
    sum_bound: int
    bits: dict[str, int] = field(init=False, repr=False, compare=False)
    rows: dict[int, dict[int, int]] = field(init=False, repr=False, compare=False)
    over_cap: dict[int, set[int]] = field(init=False, repr=False, compare=False)
    cap_unions: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    empty_tails: dict[int, list[tuple[int, int]]] | None = field(init=False, repr=False, compare=False)
    prefix: _Prefix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_int(self.b, "the tail bound", ValidationError)
        require_int(self.sum_bound, "the partial-sum bound", ValidationError)
        keyed = set(chain.from_iterable(self.delta_empty))
        for bset, g in chain(self.delta_sizes, self.lambda_caps):
            keyed.update(bset, g)
        bits = {v: 1 << i for i, v in enumerate(sorted(keyed))}

        def mask(names: frozenset[str]) -> int:
            return sum(map(bits.__getitem__, names))

        rows: dict[int, dict[int, int]] = {}
        for bset, count in self.delta_empty.items():
            if count:
                rows.setdefault(mask(bset), {})[0] = -count
        for (bset, g), count in self.delta_sizes.items():
            if g and count:
                rows.setdefault(mask(bset), {})[mask(g)] = count if len(g) % 2 else -count
        over_cap: dict[int, set[int]] = {}
        cap_unions: dict[int, list[int]] = {}
        for (bset, g), cap in self.lambda_caps.items():
            if cap > self.b and len(g) <= self.b + 1:
                over_cap.setdefault(mask(bset), set()).add(mask(g))
                union = mask(bset | g)
                for x in _low_bits(union) if union.bit_count() > 1 else (0, *_low_bits(union)):
                    cap_unions.setdefault(x, []).append(union)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "rows", {h: rows[h] for h in sorted(rows, key=_scan_key)})
        object.__setattr__(self, "over_cap", {h: over_cap[h] for h in sorted(over_cap, key=_scan_key)})
        object.__setattr__(self, "cap_unions", cap_unions)
        tails = [(g, d) for g, d in rows.get(0, {}).items() if 0 < g.bit_count() <= self.b]
        empty_tails: dict[int, list[tuple[int, int]]] | None = None
        if 0 in rows and sum(abs(d) for _, d in tails) <= self.sum_bound:
            empty_tails = {}
            for g, d in tails:
                for x in _low_bits(g) if g.bit_count() > 1 else (0, *_low_bits(g)):
                    empty_tails.setdefault(x, []).append((g, d))
        object.__setattr__(self, "empty_tails", empty_tails)

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        """Check one guess of distinct names in sorted order, the order
        :func:`simulate` guesses them in; returns (accepted, steps charged)."""
        k = len(combo)
        guess = 0
        if k:
            prefix = self._state(combo[:-1])
            _, guess, cap_charge, sums, closers, missing, miss_charge, _ = prefix
            if cap_charge is not None:
                return False, steps + cap_charge
            last = self.bits.get(combo[-1], 0)
            if sums is not None and last not in closers and sums.get(last, 0) != missing:
                return False, steps + miss_charge
            guess |= last
        outside = ~guess
        pairs, pair_scan, terms, term_scan = _tail_scans(k, self.b)
        head_sizes = k << k >> 1  # the summed sizes of the 2**k heads
        for head, capped in self.over_cap.items():
            if not head & outside:
                failing = [g for g in capped if not g & outside]
                if failing:
                    rank, before = self._rank_of(combo, head)
                    tail = min(failing, key=_scan_key)
                    j, sizes = self._rank_of(combo, tail)
                    j += 1  # the pairs up to this one, and their summed sizes
                    sizes += tail.bit_count()
                    steps += pairs * before + rank * pair_scan
                    return False, steps + (head.bit_count() + 1) * j + sizes
        steps += pairs * head_sizes + (pair_scan << k)
        for head, row in self.rows.items():
            if not head & outside and self._tail_sum(row, guess, self.b) != -row.get(0, 0):
                rank, before = self._rank_of(combo, head)
                sizes = before + head.bit_count()  # of the heads up to this one
                return False, steps + (terms + 1) * sizes + (rank + 1) * term_scan
        return True, steps + (terms + 1) * head_sizes + (term_scan << k)

    def _rank_of(self, combo: tuple[str, ...], mask: int) -> tuple[int, int]:
        """:func:`_rank` of the subset of ``combo`` whose keyed names make ``mask``."""
        bits = self.bits
        position = {bits[v]: p for p, v in enumerate(combo) if v in bits}
        return _rank(len(combo), [position[x] for x in _low_bits(mask)])

    def check_block(
        self, prefix: tuple[str, ...], lasts: Sequence[str], steps: int
    ) -> tuple[int | None, int, int]:
        """Check ``prefix + (x,)`` for each ``x`` in ``lasts``, names outside
        ``prefix``, as :meth:`check` would, from one :class:`_Prefix`.
        A cap failure inside ``prefix`` decides the block. Otherwise, when
        the empty head's row may decide, only the lasts whose extended row
        sum reaches the prefix's remainder and the over-cap closers run
        :meth:`check`; every other last misses the row and is charged
        without a call. Any other block runs :meth:`check` on every last."""
        state = self._state(prefix)
        _, _, cap_charge, sums, closers, missing, miss_charge, _ = state
        if cap_charge is not None:
            return None, len(lasts), steps + cap_charge
        if sums is None:
            return _run_block(self.check, prefix, lasts, steps, range(len(lasts)))
        last_bits = list(map(self.bits.get, lasts))  # None for names in no key: they read zero
        reach = map(missing.__eq__, map(sums.get, last_bits, repeat(0)))
        if closers:
            reach = map(or_, reach, map(closers.__contains__, last_bits))
        scan = list(compress(range(len(lasts)), reach))
        if not scan:
            return None, len(lasts), steps + miss_charge
        return _run_block(self.check, prefix, lasts, steps, scan, (False, steps + miss_charge))

    def _state(self, key: tuple[str, ...]) -> _Prefix:
        """The :class:`_Prefix` of ``key``, kept in ``prefix``. It grows, one
        name at a time, from the longest key among the kept state and its
        parents that ``key`` starts with, so siblings share their parent."""
        state = self.prefix
        if state is not None and state.key == key:
            return state
        state = state or self._grow(None, "")
        while key[: len(state.key)] != state.key:
            state = state.parent  # type: ignore[assignment]  # the root's key () always matches
        for name in key[len(state.key) :]:
            state = self._grow(state, name)
        object.__setattr__(self, "prefix", state)
        return state

    def _grow(self, parent: _Prefix | None, name: str) -> _Prefix:
        """The :class:`_Prefix` of ``parent.key + (name,)``, or of ``()``
        when ``parent`` is None, which reads the entries under bit 0. Only
        the entries holding the name's bit can add closers or tails, and only
        the name's own singleton can be a new empty-head cap failure."""
        capped = self.over_cap.get(0, ())
        if parent is None:
            key: tuple[str, ...] = ()
            bit: int | None = 0
            mask, closers, sums, missing = 0, frozenset(), {}, -self.rows.get(0, {}).get(0, 0)
            cap_charge = 1 if 0 in capped else None  # at G = {}, the first pair
        else:
            key = parent.key + (name,)
            bit = self.bits.get(name)
            mask = parent.mask | (bit or 0)
            _, _, cap_charge, sums, closers, missing, _, _ = parent
            if cap_charge is None and bit in capped:
                cap_charge = 2 * len(key) + 1  # at the pair {name}: its j = len(key) + 1 pairs cost 2j - 1
        outside = ~mask
        if bit is not None:  # a union is closed when at most one of its bits lies outside
            new = [rest for rest in (u & outside for u in self.cap_unions.get(bit, ())) if not rest & (rest - 1)]
            if not closers.issuperset(new):
                closers = closers.union(new)
        k = len(key) + 1
        miss_charge = 0
        if 0 in closers or self.empty_tails is None:
            sums = None
        else:  # so the parent took this branch too, and its sums are not None
            pairs, pair_scan, _, term_scan = _tail_scans(k, self.b)
            miss_charge = pairs * (k << k >> 1) + (pair_scan << k) + term_scan
            tails = self.empty_tails.get(bit, ()) if bit is not None else ()
            if tails:
                sums = dict(sums)  # type: ignore[arg-type]
                for g, d in tails:
                    rest = g & outside
                    if not rest:
                        missing -= d
                    elif not rest & (rest - 1):
                        sums[rest] = sums.get(rest, 0) + d
        fields = (key, mask, cap_charge, sums, closers, missing, miss_charge, parent)
        return tuple.__new__(_Prefix, fields)  # skips the Python-level _Prefix.__new__

    def _tail_sum(self, row: dict[int, int], inside: int, bound: int) -> int:
        """Sum of ``row`` over its tails of 1 to ``bound`` names inside the
        mask ``inside``; a partial sum outside ``sum_bound``, walking those
        tails in :func:`~paramcsp._sets.subsets_by_size` order, raises
        :class:`ParamCSPError`. No partial sum exceeds the absolute counts'
        sum, so the tails are ordered and walked only when that sum is past
        the bound."""
        outside = ~inside
        tails = [g for g in row if g and not g & outside and g.bit_count() <= bound]
        counts = list(map(row.__getitem__, tails))
        limit = self.sum_bound
        if sum(map(abs, counts)) > limit:
            partial = 0
            for g in sorted(tails, key=_scan_key):
                partial += row[g]
                if not -limit <= partial <= limit:
                    raise ParamCSPError("partial sum escaped its bound")
        return sum(counts)


# Every nesting level of combined machines adds Python frames to each branch's
# check and to parsing, so nesting past this bound is refused before either.
_COMBINE_DEPTH_CAP = 64


@dataclass(frozen=True)
class CombinedChecker:
    """Two machines over one universe and ``k0`` (else :class:`UsageError`),
    run in turn on one guess; the second only if the first accepts. Each part
    is charged as its own ``run_branch`` would be: ``len(combo)`` for the
    guess, then its checker. Nesting past 64 levels raises :class:`CapacityError`."""

    first: "GuessCheckMachine"
    second: "GuessCheckMachine"
    _depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.first.universe != self.second.universe:
            raise UsageError("machines disagree on the universe")
        if self.first.k0 != self.second.k0:
            raise UsageError("machines disagree on the guess bound")
        depth = 1 + max(getattr(m.checker, "_depth", 0) for m in (self.first, self.second))
        if depth > _COMBINE_DEPTH_CAP:
            raise CapacityError(f"combined machines nest {depth} deep, above the bound {_COMBINE_DEPTH_CAP}")
        object.__setattr__(self, "_depth", depth)

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        k = len(combo)
        if k != self.first.k0:
            return False, steps + k
        accepted, steps = self.first.checker.check(combo, steps + k)
        if not accepted:
            return False, steps
        return self.second.checker.check(combo, steps + k)

    def check_block(
        self, prefix: tuple[str, ...], lasts: Sequence[str], steps: int
    ) -> tuple[int | None, int, int]:
        return _run_block(self.check, prefix, lasts, steps, range(len(lasts)))


Checker = AlwaysReject | AppearanceChecker | CWChecker | CombinedChecker


@dataclass(frozen=True)
class GuessCheckMachine:
    """A compiled machine: sorted universe, guess size, step budget, checker.

    Every branch guesses exactly ``k0`` names; at-most instances are lifted first."""

    universe: tuple[str, ...]
    k0: int
    budget: int
    checker: Checker

    def __post_init__(self) -> None:
        names = tuple(self.universe)
        object.__setattr__(self, "universe", names)
        if list(names) != sorted(set(names)):
            raise ValidationError("machine universe must be sorted and duplicate-free")
        require_int(self.k0, "k0", ValidationError)
        require_int(self.budget, "budget", ValidationError)

    def run_branch(self, combo: tuple[str, ...]) -> tuple[bool, int]:
        """Run one guess; returns (accepted, steps charged). ``combo`` must be sorted."""
        steps = len(combo)
        if steps != self.k0:
            return False, steps
        return self.checker.check(combo, steps)


def reduce_appearance(inst: Instance, cost_model: CostModel | None = None) -> GuessCheckMachine:
    """Compile an exact-weight instance into an appearance-checking machine.

    When more constraints reject the empty tuple than k0 guessed variables
    can touch, no assignment of weight k0 exists and the machine degenerates
    to an immediate reject with budget 0.
    """
    if inst.weight.kind is not WeightKind.EXACT:
        raise NotApplicableError("appearance machines need an exact weight bound; lift first")
    cm = cost_model if cost_model is not None else CostModel()
    k0 = inst.weight.k0
    t0 = param_t(inst)
    e0 = param_e(inst)
    universe = tuple(sorted(inst.variables))
    checker = AppearanceChecker(inst.body, cm)
    if len(checker.d_set) > k0 * t0:
        return GuessCheckMachine(universe, k0, 0, ALWAYS_REJECT)
    weight_cap = k0 * e0
    # A check costs base(w) * log-factor(index), both at least 0 and
    # nondecreasing, so the largest index at weight_cap bounds every check.
    check_cap = cm.cost(max(c.relation.index for c in inst.body), weight_cap) if inst.body else 0
    budget = k0 + k0 * t0 + (k0 * t0) * (weight_cap + check_cap) + k0 * t0
    return GuessCheckMachine(universe, k0, budget, checker)


def _cw_shared_bound(inst: Instance) -> int:
    """Validate a conditional-weight body sharing one initial-segment tail bound."""
    bound: int | None = None
    for i, c in enumerate(inst.body, start=1):
        rel = c.relation
        if not isinstance(rel, CWRelation):
            raise NotApplicableError(f"constraint {i} is not a conditional-weight relation")
        ws = rel.weights
        cb = len(ws.values)
        if ws.kind is not WeightSetKind.FINITE or ws.values != tuple(range(1, cb + 1)):
            raise NotApplicableError(
                f"constraint {i} tail weights must be an initial segment 1..b"
            )
        if bound is None:
            bound = cb
        elif bound != cb:
            raise NotApplicableError("tail bounds differ across the body")
    return 0 if bound is None else bound


def build_cw_tables(inst: Instance, k0: int) -> CWChecker:
    """Count head/tail image patterns of a conditional-weight body.

    Only witnessed keys are stored, with head images larger than ``k0``
    skipped outright: no guess of at most ``k0`` variables can ever bind
    them. The total entry count is checked against its combinatorial cap.
    """
    require_int(k0, "k0", DomainError)
    b = _cw_shared_bound(inst)
    n_size = max(len(inst.variables), len(inst.body), 1)
    g_cap = min(b + 1, k0)
    delta_sizes: dict[TableKey, int] = {}
    lambda_caps: dict[TableKey, int] = {}
    delta_empty: dict[frozenset[str], int] = {}
    for c in inst.body:
        d = c.relation.head
        head_img = frozenset(c.scope[:d])
        if len(head_img) > k0:
            continue
        delta_empty[head_img] = delta_empty.get(head_img, 0) + 1
        tail_vars = c.scope[d:]
        for g in subsets_by_size(sorted(set(tail_vars)), g_cap)[1:]:
            key = (head_img, g)
            delta_sizes[key] = delta_sizes.get(key, 0) + 1
            hits = sum(1 for v in tail_vars if v in g)
            if hits > lambda_caps.get(key, 0):
                lambda_caps[key] = hits
    entries = len(delta_empty) + len(delta_sizes)
    cap = n_size * _tail_scans(n_size, b)[0]
    if entries > cap:
        raise ParamCSPError(f"{entries} stored table entries exceed the cap {cap}")
    if not all(len(bset) <= k0 and len(g) <= g_cap for bset, g in delta_sizes):
        raise ParamCSPError("oversized table key")
    sum_bound = n_size * _tail_scans(k0, b)[2]
    return CWChecker(
        b=b,
        delta_sizes=delta_sizes,
        lambda_caps=lambda_caps,
        delta_empty=delta_empty,
        sum_bound=sum_bound,
    )


def inclusion_exclusion_union(
    tables: CWChecker,
    head_set: frozenset[str] | set[str],
    candidates: frozenset[str] | set[str],
    bound: int,
) -> int:
    """Alternating sum of stored counts over nonempty tail subsets of ``candidates``.

    With all tail images inside ``candidates`` no larger than ``bound``, this
    equals the number of constraints with head image ``head_set`` whose tail
    image meets ``candidates`` at all. Only the head's stored row is read: its
    tails inside ``candidates`` of 1 to ``bound`` names, in the order
    :func:`~paramcsp._sets.subsets_by_size` lists them over the sorted
    candidates. It is the sum :meth:`CWChecker.check` takes, so a partial sum
    outside the tables' ``sum_bound`` raises :class:`ParamCSPError`
    (``partial sum escaped its bound``) here too.
    """
    bits = tables.bits
    head = frozenset(head_set)
    if not head.issubset(bits):
        return 0
    row = tables.rows.get(sum(bits[v] for v in head), {})
    return tables._tail_sum(row, sum(bits[v] for v in candidates if v in bits), bound)


def _cw_budget(k0: int, b: int) -> int:
    """Exact cost of one full conditional-weight check at guess size ``k0``.

    Writing the guess costs ``k0``; every head ``B`` then costs
    ``|B| * (pairs + terms + 1) + pair_scan + term_scan`` (see
    :func:`_tail_scans`). Summed over the heads, ``sum C(k0, i)`` is ``2**k0``
    and ``sum i * C(k0, i)`` is ``k0 * 2**(k0 - 1)``.
    """
    if k0 > _GUESS_CAP:
        raise CapacityError(
            f"guess size {k0} above the conditional-weight bound {_GUESS_CAP}"
        )
    pairs, pair_scan, terms, term_scan = _tail_scans(k0, b)
    heads = 2**k0
    return k0 + k0 * heads // 2 * (pairs + terms + 1) + heads * (pair_scan + term_scan)


def reduce_cw(inst: Instance) -> GuessCheckMachine:
    """Compile an exact-weight conditional-weight instance into a table machine."""
    if inst.weight.kind is not WeightKind.EXACT:
        raise NotApplicableError("table machines need an exact weight bound; lift first")
    k0 = inst.weight.k0
    checker = build_cw_tables(inst, k0)
    return GuessCheckMachine(
        universe=tuple(sorted(inst.variables)),
        k0=k0,
        budget=_cw_budget(k0, checker.b),
        checker=checker,
    )


def combine_machines(first: GuessCheckMachine, second: GuessCheckMachine) -> GuessCheckMachine:
    """Chain two machines through a :class:`CombinedChecker`.

    The combined budget is the sum of the parts plus ``k0`` for writing the
    shared guess once more when handing it to the second checker.
    """
    checker = CombinedChecker(first, second)
    return GuessCheckMachine(first.universe, first.k0, first.budget + second.budget + first.k0, checker)


def simulate(machine: GuessCheckMachine) -> SimulationResult:
    """Deterministically explore guesses until one accepts.

    Branches are the ``k0``-subsets of the sorted universe in the order of
    :func:`~paramcsp._sets.guesses`, which :func:`brute_force_solve` follows
    on exact instances (at-most ones are lifted first, padding the universe).
    The first accepting branch ends the run; build-time rejects explore nothing.

    A ``k0 = 0`` machine runs its one empty branch; any other hands the
    checker a sibling block at a time (:func:`~paramcsp._sets.sibling_blocks`),
    and each block's largest step count is held against the budget. A block
    that overruns it or raises is walked again branch by branch, so the error
    names the first guess that overruns or raises, as a per-branch loop would.
    """
    if isinstance(machine.checker, AlwaysReject):
        return SimulationResult(False, None, 0, 0)
    if machine.k0 == 0:
        accepted, steps = _branch(machine, ())
        return SimulationResult(accepted, frozenset() if accepted else None, steps, 1)
    max_steps = explored = 0
    check_block = machine.checker.check_block
    budget = machine.budget
    for prefix, lasts in sibling_blocks(machine.universe, machine.k0):
        try:
            found, count, top = check_block(prefix, lasts, len(prefix) + 1)
        except Exception:  # whatever a check raises, the walk below raises again
            top = budget + 1
        if top > budget:
            # Walk the block branch by branch, so that the error names the
            # first guess that raises or overruns, as a per-branch loop does.
            found, count, top = _run_block(
                lambda combo, _: _branch(machine, combo), prefix, lasts, 0, range(len(lasts))
            )
        explored += count
        if top > max_steps:
            max_steps = top
        if found is not None:
            return SimulationResult(True, frozenset(prefix + (lasts[found],)), max_steps, explored)
    return SimulationResult(False, None, max_steps, explored)


def _branch(machine: GuessCheckMachine, combo: tuple[str, ...]) -> tuple[bool, int]:
    """Run one branch of ``machine``; a branch over the budget raises."""
    accepted, steps = machine.run_branch(combo)
    if steps > machine.budget:
        raise BudgetExceededError(
            f"branch {combo!r} used {steps} steps against budget {machine.budget}"
        )
    return accepted, steps


@dataclass(frozen=True)
class CompletionReduction:
    """Result of the indicator-variable reduction, with naming metadata.

    ``indicator_keys`` maps each fresh indicator variable to the set of
    original variables it stands for; ``bound`` is the shared tail bound of
    the conditional part (2**d).
    """

    instance: Instance
    original_variables: tuple[str, ...]
    indicator_keys: dict[str, frozenset[str]]
    bound: int


_INDICATOR_STEM = "lam"


def _check_body(inst: Instance, d: int) -> None:
    """Refuse a body the completion reduction cannot take: a relation that is
    neither explicit nor finite-weight, or one with a member larger than ``d``."""
    for i, c in enumerate(inst.body, start=1):
        rel = c.relation
        top = _largest_member(rel)
        if top is None:
            raise NotApplicableError(f"constraint {i}: only finite weight-set constraints convert")
        if top > d and isinstance(rel, WRelation):
            raise UsageError(f"constraint {i}: weight {top} above the bound {d}")
        if top > d:  # an explicit relation names its first oversized member in canonical order
            size = next(len(m) for m in rel.members if len(m) > d)
            raise UsageError(f"constraint {i} has a member of size {size}, above the bound {d}")


def explicitize_w_body(inst: Instance, d: int) -> Instance:
    """Expand finite weight-set constraints into explicitly listed relations.

    The body must pass the check :func:`completion_reduction` makes: every
    relation explicit or finite-weight, no member above ``d``. The member
    lists stay polynomial because only tuples of weight up to ``d`` qualify.
    Constraints that are already explicit pass through unchanged.
    """
    _check_body(inst, d)
    new_body: list[Constraint] = []
    for c in inst.body:
        rel = c.relation
        if isinstance(rel, WRelation):
            members = tuple(
                chosen
                for w in rel.weights.values
                if w <= rel.arity
                for chosen in combinations(range(1, rel.arity + 1), w)
            )
            c = Constraint(ExplicitRelation(rel.arity, members), c.scope)
        new_body.append(c)
    return replace(inst, body=tuple(new_body))


def completion_reduction(inst: Instance, d: int) -> CompletionReduction:
    """Reduce an instance of explicit and finite-weight relations to the
    weight-plus-conditional language.

    One indicator variable is minted per distinct variable-set image of a
    partial tuple or completion; indicators are bound to their key sets by
    conditional constraints in both directions, and each partial's constraint
    requires a true completion indicator whenever the partial's own indicator
    is true. The records depend only on membership, so a finite-weight
    relation reduces exactly as its listed members would, without listing them.
    The output weight is at most ``k0 + 2**k0``.
    A bound ``d`` above ``DEFAULT_CAPACITY``, more than any member can reach,
    raises :class:`CapacityError`, since the tail weights run to ``2**d``;
    so does a ``k0`` whose reduced guess the conditional-weight machine
    refuses, before ``2**k0`` is computed.
    """
    if inst.weight.kind is not WeightKind.EXACT:
        raise NotApplicableError("the completion reduction starts from an exact weight bound")
    require_int(d, "the member-size bound", UsageError, low=1)
    _check_body(inst, d)
    if d > DEFAULT_CAPACITY:
        raise CapacityError(f"the member-size bound {d} is above the exhaustive bound {DEFAULT_CAPACITY}")
    if not inst.variables:
        raise UsageError("the completion reduction needs at least one variable")
    k0 = inst.weight.k0
    if k0 > _GUESS_CAP or k0 + 2**k0 > _GUESS_CAP:
        raise CapacityError(
            f"reduced guess size {k0} + 2**{k0} above the conditional-weight bound {_GUESS_CAP}"
        )
    tables = {}
    records: set[tuple[frozenset[str], tuple[frozenset[str], ...]]] = set()
    for c in inst.body:
        if c.relation not in tables:
            tables[c.relation] = compute_partials(c.relation)
        table = tables[c.relation]
        for t in table.partials:
            key = frozenset(c.scope[p - 1] for p in t)
            images = {frozenset(c.scope[p - 1] for p in u) for u in table.completions[t]}
            records.add((key, tuple(sorted(images, key=sorted))))
    ordered_keys = sorted({k for key, comp_keys in records for k in (key, *comp_keys)}, key=sorted)
    prefix = _fresh_prefix(_INDICATOR_STEM, inst.variables)
    width = max(3, len(str(len(ordered_keys))))
    name_of = {key: f"{prefix}{i:0{width}d}" for i, key in enumerate(ordered_keys, start=1)}
    bound = 2**d
    tail_ws = WeightSet.finite(range(1, bound + 1))
    body: list[Constraint] = [
        Constraint(
            WRelation(WeightSet.finite((k0,)), arity=len(inst.variables)),
            inst.variables,
        )
    ]
    for key, comp_keys in sorted(
        records, key=lambda rec: (name_of[rec[0]], tuple(name_of[u] for u in rec[1]))
    ):
        scope = (name_of[key],) + tuple(name_of[u] for u in comp_keys)
        body.append(Constraint(CWRelation(tail_ws, head=1, tail=len(comp_keys)), scope))
    for key in ordered_keys:
        indicator = name_of[key]
        key_vars = tuple(sorted(key))
        body.append(Constraint(CWRelation(tail_ws, head=len(key), tail=1), key_vars + (indicator,)))
        for x in key_vars:
            body.append(Constraint(CWRelation(tail_ws, head=1, tail=1), (indicator, x)))
    reduced = Instance(
        variables=inst.variables + tuple(name_of[key] for key in ordered_keys),
        weight=WeightParameter(WeightKind.ATMOST, k0 + 2**k0),
        body=tuple(body),
    )
    return CompletionReduction(
        instance=reduced,
        original_variables=inst.variables,
        indicator_keys={name_of[key]: key for key in ordered_keys},
        bound=bound,
    )


def solve_wd_pipeline(inst: Instance, d: int) -> frozenset[str] | None:
    """End-to-end solver for exact-weight instances with finite weights in [0, d].

    For ``d = 0`` the answer is immediate: constraints admitting only the
    empty tuple forbid their scopes, constraints admitting nothing are
    contradictions. Otherwise the body is reduced through indicator
    variables (:func:`completion_reduction`), lifted to an exact
    weight, split into its weight and conditional parts, compiled into a
    combined machine, and simulated; an accepting witness is projected back
    onto the original variables.
    """
    if inst.weight.kind is not WeightKind.EXACT:
        raise NotApplicableError("the pipeline starts from an exact weight bound")
    require_int(d, "the member-size bound", UsageError)
    if d == 0:
        _check_body(inst, 0)
        if not all(c.relation._contains(frozenset()) for c in inst.body):
            return None
        forbidden = {v for c in inst.body for v in c.scope}
        allowed = sorted(set(inst.variables) - forbidden)
        if inst.weight.k0 > len(allowed):
            return None
        witness = frozenset(allowed[: inst.weight.k0])
    else:
        reduction = completion_reduction(inst, d)
        lifted = lift_kle_to_k(reduction.instance)
        w_part = replace(
            lifted,
            body=tuple(c for c in lifted.body if isinstance(c.relation, WRelation)),
        )
        cw_part = replace(
            lifted,
            body=tuple(c for c in lifted.body if isinstance(c.relation, CWRelation)),
        )
        machine = combine_machines(reduce_appearance(w_part), reduce_cw(cw_part))
        result = simulate(machine)
        if result.witness is None:
            return None
        witness = result.witness.intersection(inst.variables)
    if not satisfies(inst, witness):
        raise ParamCSPError("pipeline produced an invalid witness")
    return witness
