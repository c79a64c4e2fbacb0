"""Guess-and-check machines: compilation from instances, and simulation.

A machine guesses a candidate set of variables (the branch) and runs a cheap
checker over precompiled tables. Budgets are materialized integers computed
from instance parameters at build time; :func:`simulate` enforces them on
every branch and raises if one is exceeded, since that can only mean the
budget arithmetic or the checker is wrong.

Two checkers are compiled from instances. The appearance checker stores, per
variable, the constraints it appears in with its scope positions in each, the
constraints that reject the empty tuple, and the constraint table itself; a
branch passes when every touched constraint accepts its selected positions
and every empty-rejecting constraint is touched. The conditional-weight
checker stores counting tables keyed by head-image and tail-image sets and
accepts via an inclusion-exclusion identity, without ever looking at a
concrete constraint during the branch.
It runs on integer masks: each name in a table key owns one bit, and each
stored head keeps a row (tail mask -> signed count) and its tail masks over
the cap. A branch walks only the stored entries inside its guess, never its
``2**k`` subsets: any other subset reads zero everywhere, so it cannot fail.
Every head and pair up to the first failure is charged in closed form from
the failing subset's rank in the literal every-head, every-pair scan, so
steps match that scan and an accepting branch costs exactly the budget.

:func:`simulate` walks guess prefixes depth first and counts the branches.
Every checker answers ``grow(state, name)``, the state of a prefix extended
by one name (None at the empty prefix and under the always-reject checker;
a count of the prefix's touched names under the appearance checker), and
``check_block(state, prefix, lasts, steps)``, which judges ``prefix + (x,)``
for each last name ``x`` up to the first accept and returns its index (or
None) and the top step count. ``check(combo, steps)`` judges a single guess.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import chain, combinations, filterfalse, islice
from math import comb
from typing import NamedTuple

from ._sets import subsets_by_size
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


# ``check_block``'s accepting last index or None, and its top step count.
BlockResult = tuple[int | None, int]


@dataclass(frozen=True)
class SimulationResult:
    accepted: bool
    witness: frozenset[str] | None
    max_branch_steps: int
    branches_explored: int


@dataclass(frozen=True)
class AlwaysReject:
    """Checker for machines whose build already proved unsatisfiability."""

    def grow(self, state: None, name: str) -> None:
        return None

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        return False, steps

    def check_block(self, state: None, prefix: tuple[str, ...], lasts: Sequence[str], steps: int) -> BlockResult:
        return None, steps


@dataclass(frozen=True)
class AppearanceChecker:
    """Tables for the occurrence-based checker, all derived from the constraints.

    ``occurrences`` maps each variable to its ``(index, scope positions)``
    pairs, one per 1-based body index it appears in, in index order; ``e_v``
    is its index column and ``d_set`` lists the indices rejecting the empty
    tuple. A check reads each guessed name's row once into the selected
    positions per touched constraint, then judges those in index order and the
    ``d_set`` last. ``index_factors`` holds each ``CostModel._index_factor``,
    the index part of :meth:`CostModel.cost`, so a check calls only
    ``checker_cost`` per touched constraint.

    A check adds ``len(row)`` per guessed name, and a name in no constraint
    (untouched) has an empty row, so a guess's verdict and charge depend only
    on its touched names. :meth:`grow` counts a prefix's touched names, and
    :meth:`check_block` judges the touched set of a guess holding an untouched
    name once, keeping its verdict and charge from 0 in ``memo``. A guess
    whose names are all touched is judged once anyway and stores nothing, so
    over ``t`` touched names and ``k0``-name guesses ``memo`` holds at most
    ``sum(comb(t, j) for j in range(k0))`` entries.
    """

    constraints: tuple[Constraint, ...]
    cost_model: CostModel
    e_v: dict[str, tuple[int, ...]] = field(init=False)
    d_set: tuple[int, ...] = field(init=False)
    occurrences: dict[str, tuple[tuple[int, tuple[int, ...]], ...]] = field(init=False, repr=False, compare=False)
    index_factors: tuple[int, ...] = field(init=False, repr=False, compare=False)
    memo: dict[tuple[str, ...], tuple[bool, int]] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        occurrences: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
        empty_rejecting: list[int] = []
        for i, c in enumerate(self.constraints, start=1):
            per: dict[str, list[int]] = {}
            for p, v in enumerate(c.scope, start=1):
                per.setdefault(v, []).append(p)
            for v, ps in per.items():
                occurrences.setdefault(v, []).append((i, tuple(ps)))
            if not c.relation._contains(frozenset()):
                empty_rejecting.append(i)
        rows = {v: tuple(row) for v, row in sorted(occurrences.items())}
        object.__setattr__(self, "occurrences", rows)
        object.__setattr__(self, "e_v", {v: tuple(i for i, _ in row) for v, row in rows.items()})
        object.__setattr__(self, "d_set", tuple(empty_rejecting))
        factors = tuple(self.cost_model._index_factor(c.relation.index) for c in self.constraints)
        object.__setattr__(self, "index_factors", factors)

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        checker_cost = self.cost_model.checker_cost
        selected: dict[int, list[int]] = {}
        for v in combo:
            row = self.occurrences.get(v, ())
            steps += len(row)
            for i, ps in row:
                selected.setdefault(i, []).extend(ps)
        for i in sorted(selected):
            sel = selected[i]
            steps += len(sel) + checker_cost(len(sel)) * self.index_factors[i - 1]
            if not self.constraints[i - 1].relation._contains(frozenset(sel)):
                return False, steps
        steps += len(self.d_set)
        for i in self.d_set:
            if i not in selected:
                return False, steps
        return True, steps

    def grow(self, state: int | None, name: str) -> int:
        """The number of touched names in ``state``'s prefix extended by ``name``."""
        return (state or 0) + (name in self.occurrences)

    def check_block(self, state: int | None, prefix: tuple[str, ...], lasts: Sequence[str], steps: int) -> BlockResult:
        """Check ``prefix + (x,)`` for each ``x`` in ``lasts`` by its touched
        names, from ``state``, the prefix's count of them: a guess holding an
        untouched name is judged once per touched set, through ``memo``."""
        occurrences, memo = self.occurrences, self.memo
        held = state or 0  # the touched prefix: all of it, none, or one C-level filter
        base = prefix if held == len(prefix) else tuple(filter(occurrences.__contains__, prefix)) if held else ()
        top, size = 0, len(prefix)
        for i, last in enumerate(lasts):
            touched = base + (last,) if last in occurrences else base
            verdict = memo.get(touched)
            if verdict is None:
                verdict = self.check(touched, 0)
                if len(touched) <= size:  # a guess with every name touched is judged once anyway
                    memo[touched] = verdict
            charged = steps + verdict[1]
            if charged > top:
                top = charged
            if verdict[0]:
                return i, top
        return None, top


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


@lru_cache(maxsize=1024)
def _row_charge(k: int, b: int, heads: int, sizes: int) -> int:
    """The literal scan's charge of a guess of ``k`` names after every head's
    pairs and the terms of its first ``heads`` heads, which hold ``sizes``
    names: ``(1, 0)`` misses the empty head's row, and ``(2**k, k << k >> 1)``
    (``sum i * C(k, i)``, the names in all heads) accepts."""
    pairs, pair_scan, terms, term_scan = _tail_scans(k, b)
    return pairs * (k << k >> 1) + (pair_scan << k) + (terms + 1) * sizes + heads * term_scan


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


def _fold(tails: Iterable[tuple[int, int]], outside: int, sums: dict[int, int], missing: int) -> int:
    """Fold a head's ``(tail mask, count)`` entries into ``sums``, each last
    bit's extended row sum, for a prefix whose complement is ``outside``: a
    tail inside the prefix comes off ``missing``, which is returned, and one
    with a single bit outside it adds to that bit's sum."""
    for g, d in tails:
        rest = g & outside
        if not rest:
            missing -= d
        elif not rest & (rest - 1):
            sums[rest] = sums.get(rest, 0) + d
    return missing


class _Prefix(NamedTuple):
    """What :class:`CWChecker` keeps for the guesses that extend a prefix by
    a last name: the prefix's keyed names' mask; its first name whose single
    over-caps the empty head, if any (``""``: ``G = {}`` does); the last bits
    that close an over-cap union (0: it holds one); and, when a row may
    decide (else ``sums`` is None), the deciding head's ``sums``, each last
    bit's extended row sum (``missing`` itself at a last that changes the row
    of a met head before it, so that it is scanned), the sum a last must
    reach, and the head's name (``""``: the empty head)."""

    mask: int
    cap_name: str | None
    sums: dict[int, int] | None
    closers: frozenset[int]
    missing: int
    head: str


@dataclass(frozen=True)
class CWChecker:
    """Counting tables for the conditional-weight checker.

    ``delta_sizes[(B, G)]`` counts body constraints whose head image is
    exactly ``B`` and whose tail image contains ``G``; ``lambda_caps`` holds,
    for the same keys, the largest number of tail positions any one of those
    constraints maps into ``G`` (repeats counted); ``delta_empty`` is the
    ``G = {}`` column. Unstored keys read as zero. ``sum_bound`` bounds every
    inclusion-exclusion partial sum and is enforced during checking.

    :meth:`check` is the literal scan: every head ``B`` of the guess twice,
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

    The walk's state of a prefix is a :class:`_Prefix`; the checker holds
    only ``root``, the empty prefix's. A name in no key leaves a state as it
    is; :meth:`grow` adds any other name reading only the entries holding its
    bit in ``cap_unions``, the unions ``B | G`` of the over-cap pairs (under
    0 those of at most one name; the cap scan fails exactly when the guess
    holds one), and in ``empty_tails``, the empty head's tails of 1 to ``b``
    names and their counts (under 0 its one-name tails). ``empty_tails`` is
    None, and no row decides anything, when the empty head has no row or the
    absolute values of these counts sum past ``sum_bound``.

    Otherwise a row may decide a block. In both scans the empty head and then
    the one-name heads of the prefix names, in prefix order, come before any
    head holding the last name. So the first of these heads whose row the
    prefix leaves unmet decides every last that passes the cap scan, does not
    complete that row and leaves the row of each met head before it as it is:
    each such branch misses that row. A one-name head's entries are gated as
    the empty head's, and kept in ``heads`` the first time a walk asks for
    them (:meth:`_head`); an ungated head, or none unmet, leaves the empty
    head to decide the lasts that change its met row. No met head before the
    decider can raise, its partial sums being gated. A branch failing its cap
    at ``G = {}`` or at a prefix name, or missing the deciding row, is charged
    in closed form, and :meth:`check_block` scans only the other lasts.
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
    root: _Prefix = field(init=False, repr=False, compare=False)
    heads: dict[int, tuple[str, int, list[tuple[int, int]] | None] | None] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        _, required, tails = self._head(0) or ("", 0, None)
        empty_tails: dict[int, list[tuple[int, int]]] | None = None
        if tails is not None:
            empty_tails = {}
            for g, d in tails:
                for x in _low_bits(g) if g.bit_count() > 1 else (0, *_low_bits(g)):
                    empty_tails.setdefault(x, []).append((g, d))
        object.__setattr__(self, "empty_tails", empty_tails)
        # The empty prefix grows by bit 0 and the name "", reading the entries under 0.
        no_names = _Prefix(0, None, {}, frozenset(), required, "")
        object.__setattr__(self, "root", self._grow(no_names, 0, ""))

    def check(self, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        """Check one guess of distinct names in sorted order by the literal
        scan, reading no prefix state; returns (accepted, steps)."""
        return self._scan(sum(self.bits.get(v, 0) for v in combo), combo, steps)

    def _scan(self, guess: int, combo: tuple[str, ...], steps: int) -> tuple[bool, int]:
        """The literal scan of ``combo``, whose keyed names make ``guess``."""
        k = len(combo)
        outside = ~guess
        for head, capped in self.over_cap.items():
            if not head & outside:
                failing = [g for g in capped if not g & outside]
                if failing:
                    rank, before = self._rank_of(combo, head)
                    tail = min(failing, key=_scan_key)
                    j, sizes = self._rank_of(combo, tail)  # the pairs before this one, and their summed sizes
                    pairs, pair_scan, _, _ = _tail_scans(k, self.b)
                    steps += pairs * before + rank * pair_scan + (head.bit_count() + 1) * (j + 1)
                    return False, steps + sizes + tail.bit_count()
        for head, row in self.rows.items():
            if not head & outside and self._tail_sum(row, guess, self.b) != -row.get(0, 0):
                rank, before = self._rank_of(combo, head)
                return False, steps + _row_charge(k, self.b, rank + 1, before + head.bit_count())
        return True, steps + _row_charge(k, self.b, 1 << k, k << k >> 1)

    def _rank_of(self, combo: tuple[str, ...], mask: int) -> tuple[int, int]:
        """:func:`_rank` of the subset of ``combo`` whose keyed names make ``mask``."""
        bits = self.bits
        position = {bits[v]: p for p, v in enumerate(combo) if v in bits}
        return _rank(len(combo), [position[x] for x in _low_bits(mask)])

    def check_block(
        self, state: _Prefix | None, prefix: tuple[str, ...], lasts: Sequence[str], steps: int
    ) -> BlockResult:
        """Check ``prefix + (x,)`` for each ``x`` in ``lasts``, names after
        ``prefix``, from ``state``, its :class:`_Prefix`. A cap failure inside
        ``prefix`` decides the block. Otherwise, when a row may decide, only the
        over-cap closers and the lasts whose extended row sum reaches the
        prefix's remainder are scanned; the rest miss the deciding head's row."""
        mask, cap_name, sums, closers, missing, head = state or self.root
        if cap_name is not None:  # at pair j = bisect_right(...) + 1 ("" sorts first); j pairs cost 2j - 1
            return None, steps + 2 * bisect_right(prefix, cap_name) + 1
        r = bisect_right(prefix, head)  # the one-name heads up to the decider ("": the empty head)
        miss = steps + _row_charge(len(prefix) + 1, self.b, r + 1, r)
        top = 0
        for i, last in enumerate(lasts):
            bit = self.bits.get(last)  # None for names in no key: they read zero
            if sums is None or sums.get(bit, 0) == missing or bit in closers:
                accepted, charged = self._scan(mask | (bit or 0), prefix + (last,), steps)
            else:
                accepted, charged = False, miss
            if charged > top:
                top = charged
            if accepted:
                return i, top
        return None, top

    def grow(self, state: _Prefix | None, name: str) -> _Prefix:
        """``state``'s prefix extended by ``name``; a name in no key reads
        zero everywhere, so it leaves the state as it is."""
        parent = state or self.root
        bit = self.bits.get(name)
        return parent if bit is None else self._grow(parent, bit, name)

    def _grow(self, parent: _Prefix, bit: int, name: str) -> _Prefix:
        """``parent``'s prefix extended by ``name``, whose bit is ``bit``: only
        entries holding the bit add closers or tails, or a new empty-head cap
        failure. While the empty head stays unmet it decides, reading the same
        entries; otherwise the deciding head is found afresh (:meth:`_decide`)."""
        mask, cap_name, sums, closers, missing, head = parent
        mask |= bit
        if cap_name is None and bit in self.over_cap.get(0, ()):
            cap_name = name  # the pair {name}, or G = {} at the root
        outside = ~mask
        # a union is closed when at most one of its bits lies outside
        new = [rest for rest in (u & outside for u in self.cap_unions.get(bit, ())) if not rest & (rest - 1)]
        if not closers.issuperset(new):
            closers = closers.union(new)
        if 0 in closers or self.empty_tails is None:
            sums = None
        elif head or sums.get(bit, 0) == missing:  # sums is a dict: only the branch above makes None
            sums, missing, head = self._decide(mask)
        else:  # the empty head stays unmet: the name does not complete its row
            tails = self.empty_tails.get(bit, ())
            if tails:
                sums = dict(sums)
                missing = _fold(tails, outside, sums, missing)
        return tuple.__new__(_Prefix, (mask, cap_name, sums, closers, missing, head))  # skips _Prefix.__new__

    def _decide(self, mask: int) -> tuple[dict[int, int] | None, int, str]:
        """``(sums, missing, head)`` of the prefix whose keyed names make
        ``mask``: the first gated head, the empty one or a prefix name's,
        whose row the prefix leaves unmet, with ``missing`` at each last bit
        that changes a met head's row before it; else the empty head, met."""
        outside = ~mask
        changers: list[int] = []
        met_empty = None
        for h in (0, *_low_bits(mask)):
            entry = self._head(h)
            if entry is None:  # no row: every guess meets it
                continue
            name, required, tails = entry
            if tails is None:  # a partial sum of its row could escape
                break
            sums: dict[int, int] = {}
            missing = _fold(tails, outside, sums, required)
            if missing:
                sums.update(dict.fromkeys(changers, missing))
                return sums, missing, name
            if not h:
                met_empty = sums
            changers.extend(y for y, s in sums.items() if s)
        return met_empty, 0, ""

    def _head(self, h: int) -> tuple[str, int, list[tuple[int, int]] | None] | None:
        """The head mask ``h`` of at most one bit as ``(name, delta_empty,
        tails)``: its tails of 1 to ``b`` names and their counts, None when
        their absolute values sum past ``sum_bound``. None when it has no row."""
        if h not in self.heads:
            row = self.rows.get(h)
            entry = None
            if row is not None:
                tails = [(g, d) for g, d in row.items() if 0 < g.bit_count() <= self.b]
                gated = sum(abs(d) for _, d in tails) <= self.sum_bound
                entry = (list(self.bits)[h.bit_length() - 1] if h else "", -row.get(0, 0), tails if gated else None)
            self.heads[h] = entry
        return self.heads[h]

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
    is charged what its own ``run_branch`` charges: ``len(combo)`` for the
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
        accepted, used = self.first.run_branch(combo)
        if accepted:
            accepted, more = self.second.run_branch(combo)
            used += more
        return accepted, steps + used

    def grow(self, state: tuple | None, name: str) -> tuple:
        """The pair of the parts' states, each grown by ``name``."""
        first, second = state or (None, None)
        return self.first.checker.grow(first, name), self.second.checker.grow(second, name)

    def check_block(self, state: tuple | None, prefix: tuple[str, ...], lasts: Sequence[str], steps: int) -> BlockResult:
        """Check ``prefix + (x,)`` for each ``x`` in ``lasts`` as :meth:`check`
        would, each part judging the guess as a block of one from its state.
        The parts' ``k0`` agree, so each part's write of the guess is charged
        what the first part's guess rule charges."""
        checked, write = self.first._write(len(prefix) + 1, 0)
        if not checked:
            return None, steps + write
        first, second = self.first.checker.check_block, self.second.checker.check_block
        first_state, second_state = state or (None, None)
        top, steps = 0, steps + write
        for i, last in enumerate(lasts):
            one = (last,)
            found, charged = first(first_state, prefix, one, steps)
            if found is not None:
                found, charged = second(second_state, prefix, one, charged + write)
            if charged > top:
                top = charged
            if found is not None:
                return i, top
        return None, top


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
        if not isinstance(self.universe, (tuple, list)):
            raise ValidationError(f"machine universe must be a tuple or a list, got {type(self.universe).__name__}")
        names = tuple(self.universe)
        object.__setattr__(self, "universe", names)
        try:
            "".join(names)  # a C-level pass refuses every name but a string
            valid = names[:1] != ("",) and all(map(operator.lt, names, names[1:]))  # sorted: "" could only be first
        except TypeError:
            valid = False
        if not valid:
            for v in names:  # report the first name at fault
                if not isinstance(v, str) or not v:
                    raise ValidationError(f"machine universe names must be nonempty strings, got {v!r}")
            raise ValidationError("machine universe must be sorted and duplicate-free")
        require_int(self.k0, "k0", ValidationError)
        require_int(self.budget, "budget", ValidationError)

    def _write(self, k: int, steps: int) -> tuple[bool, int]:
        """The guess rule: writing a ``k``-name guess adds ``k`` to ``steps``,
        and only a guess of ``k0`` names goes on to the checker."""
        return k == self.k0, steps + k

    def run_branch(self, combo: tuple[str, ...]) -> tuple[bool, int]:
        """Run one guess; returns (accepted, steps charged). ``combo`` must be sorted."""
        checked, steps = self._write(len(combo), 0)
        return self.checker.check(combo, steps) if checked else (False, steps)


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
    universe = inst.sorted_variables
    checker = AppearanceChecker(inst.body, cm)
    if len(checker.d_set) > k0 * t0:
        return GuessCheckMachine(universe, k0, 0, AlwaysReject())
    weight_cap = k0 * e0
    # A check costs base(w) * log-factor(index), both at least 0 and
    # nondecreasing, so base(weight_cap) times the largest factor bounds every check.
    check_cap = cm.checker_cost(weight_cap) * max(checker.index_factors, default=0)
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
            raise NotApplicableError(f"constraint {i} tail weights must be an initial segment 1..b")
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
    return CWChecker(b, delta_sizes, lambda_caps, delta_empty, sum_bound=n_size * _tail_scans(k0, b)[2])


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
    """Exact cost of one full conditional-weight check at guess size ``k0``:
    ``k0`` for writing the guess, then the charge of an accepting scan
    (:func:`_row_charge`). A ``k0`` above the guess cap is refused first."""
    if k0 > _GUESS_CAP:
        raise CapacityError(f"guess size {k0} above the conditional-weight bound {_GUESS_CAP}")
    return k0 + _row_charge(k0, b, 1 << k0, k0 << k0 >> 1)


def reduce_cw(inst: Instance) -> GuessCheckMachine:
    """Compile an exact-weight conditional-weight instance into a table machine."""
    if inst.weight.kind is not WeightKind.EXACT:
        raise NotApplicableError("table machines need an exact weight bound; lift first")
    k0 = inst.weight.k0
    checker = build_cw_tables(inst, k0)
    return GuessCheckMachine(inst.sorted_variables, k0, _cw_budget(k0, checker.b), checker)


def combine_machines(first: GuessCheckMachine, second: GuessCheckMachine) -> GuessCheckMachine:
    """Chain two machines through a :class:`CombinedChecker`.

    The combined budget is the sum of the parts, each counting the larger of
    its budget and the ``k0`` its guess is charged (an always-reject part has
    budget 0), plus ``k0`` for writing the shared guess once more.
    """
    parts = sum(max(m.budget, m.k0) for m in (first, second))
    return GuessCheckMachine(first.universe, first.k0, parts + first.k0, CombinedChecker(first, second))


def simulate(machine: GuessCheckMachine) -> SimulationResult:
    """Deterministically explore guesses until one accepts.

    Branches are the ``k0``-subsets of the sorted universe in the order of
    :func:`~paramcsp._sets.guesses`, which :func:`brute_force_solve` follows
    on exact instances (at-most ones are lifted first, padding the universe).
    The first accepting branch ends the run; build-time rejects explore nothing.

    A ``k0 = 0`` machine runs its one empty branch. Any other is walked depth
    first, without recursion, over the ``(k0 - 1)``-prefixes of its guesses in
    lex order: a stack holds the state ``grow`` made for each leading part of
    the prefix, and the next prefix keeps those of the names it shares, so each
    prefix grows once, from its parent. Each prefix's block of guesses, one per
    later last name, goes to ``check_block``, and its largest step count is
    held against the budget. A block that overruns it or raises a
    :class:`ParamCSPError` is walked again through ``run_branch``, so the error
    names the first guess that overruns or raises, as a per-branch loop would;
    a re-walk doing neither disagrees with the block and raises one naming the
    prefix. Any other exception is a fault and propagates. A block adds to
    ``branches_explored`` its guesses up to the accepting one, or all of them.
    """
    names, k0, budget = machine.universe, machine.k0, machine.budget
    if isinstance(machine.checker, AlwaysReject) or k0 > len(names):
        return SimulationResult(False, None, 0, 0)
    if k0 == 0:
        found, steps = _per_branch(machine, [()])
        return SimulationResult(found is not None, frozenset() if found is not None else None, steps, 1)
    grow, check_block = machine.checker.grow, machine.checker.check_block
    _, write = machine._write(k0, 0)  # every guess below has k0 names
    max_steps = explored = 0
    after = {name: i + 1 for i, name in enumerate(names)}
    tail = names[len(names) - k0 :]  # tail[i]: the last name prefix place i takes
    states: list[object] = [None]  # states[i]: the state of the prefix's first i names
    previous: tuple[str, ...] = ()
    for prefix in combinations(names[:-1], k0 - 1):
        # The place that moved on is the last one of the previous prefix not
        # holding its last name; the states of the names before it stay.
        keep = len(previous)
        while keep and previous[keep - 1] == tail[keep - 1]:
            keep -= 1
        del states[keep or 1 :]  # states[0], of no names, always stays
        for name in prefix[len(states) - 1 :]:
            states.append(grow(states[-1], name))
        previous, lasts = prefix, names[after[prefix[-1]] :] if prefix else names
        try:
            found, top = check_block(states[-1], prefix, lasts, write)
        except ParamCSPError:  # a partial sum out of bound: the walk below raises it again
            top = budget + 1
        if top > budget:
            # Walk the block branch by branch, so that the error names the
            # first guess that raises or overruns, as a per-branch loop does.
            _per_branch(machine, (prefix + (last,) for last in lasts))
            raise ParamCSPError(f"the block after {prefix!r} overran or raised, but none of its guesses does")
        explored += len(lasts) if found is None else found + 1
        if top > max_steps:
            max_steps = top
        if found is not None:
            return SimulationResult(True, frozenset(prefix + (lasts[found],)), max_steps, explored)
    return SimulationResult(False, None, max_steps, explored)


def _per_branch(machine: GuessCheckMachine, combos: Iterable[tuple[str, ...]]) -> BlockResult:
    """Run each guess through ``run_branch`` until one accepts, as a
    ``check_block`` result; the first branch over the budget raises."""
    top = 0
    for i, combo in enumerate(combos):
        accepted, steps = machine.run_branch(combo)
        if steps > machine.budget:
            raise BudgetExceededError(f"branch {combo!r} used {steps} steps against budget {machine.budget}")
        top = max(top, steps)
        if accepted:
            return i, top
    return None, top


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
    The output weight is at most ``k0 + 2**k0``. The body's first constraint
    is its one weight constraint; every later one is conditional.
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
    prefix = _fresh_prefix(_INDICATOR_STEM, inst.sorted_variables)
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
        allowed = filterfalse(forbidden.__contains__, inst.sorted_variables)
        witness = frozenset(islice(allowed, min(inst.weight.k0, len(inst.variables))))
        if len(witness) < inst.weight.k0:
            return None
    else:
        reduction = completion_reduction(inst, d)
        lifted = lift_kle_to_k(reduction.instance)
        weight, *conditional = lifted.body
        parts = reduce_appearance(replace(lifted, body=(weight,))), reduce_cw(replace(lifted, body=conditional))
        result = simulate(combine_machines(*parts))
        if result.witness is None:
            return None
        witness = result.witness.difference(lifted.variables[len(inst.variables) :])
    if not satisfies(inst, witness):
        raise ParamCSPError("pipeline produced an invalid witness")
    return witness
