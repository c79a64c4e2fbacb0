"""Partial tuples of a relation and the membership characterization they induce.

A non-member tuple set ``T`` is *partial* when every strictly smaller partial
tuple inside it can be completed to a member without leaving ``T``. Each
partial is stored with its *completions*: the minimal member supersets. The
resulting table characterizes membership: ``D`` belongs to the relation
exactly when every partial inside ``D`` has a completion inside ``D``.

Tables are computed by exhaustive scan over all ``2**arity`` tuple sets, so
everything here is guarded by a capacity cap; partial tables can be
exponentially large, which no cleverness can get around.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from ._sets import canonical_sets
from .errors import CapacityError, UsageError
from .relations import ExplicitRelation, Relation, _check_positions

DEFAULT_CAPACITY = 12
# No capacity lifts the scan above this arity: the table build costs about
# 4**arity, some ten seconds at 14 and minutes at 16.
_ARITY_CEILING = 14


@dataclass(frozen=True)
class PartialsTable:
    """All partial tuple sets of one relation, each with its completions."""

    relation: Relation
    partials: tuple[tuple[int, ...], ...]
    completions: Mapping[tuple[int, ...], tuple[tuple[int, ...], ...]]


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(p + 1 for p in range(mask.bit_length()) if mask >> p & 1)


def _set_to_mask(positions: Iterable[int]) -> int:
    mask = 0
    for p in positions:
        mask |= 1 << (p - 1)
    return mask


def _member_masks(rel: Relation, capacity: int) -> list[bool]:
    """Membership of every tuple set of ``rel``, indexed by mask; the arity must
    stay within ``capacity`` and the fixed ceiling of 14, since ``2**arity``
    tuple sets are scanned."""
    bound = min(capacity, _ARITY_CEILING)
    if rel.arity > bound:
        raise CapacityError(f"arity {rel.arity} above the exhaustive bound {bound}")
    return [rel._contains(_mask_to_set(m)) for m in range(1 << rel.arity)]


def _minimal_supersets(mask: int, members: Iterable[int]) -> list[int]:
    """Member masks strictly containing ``mask``, filtered down to the minimal ones."""
    candidates = sorted(
        (m for m in members if m != mask and mask & ~m == 0),
        key=lambda m: (m.bit_count(), m),
    )
    minimal: list[int] = []
    for m in candidates:
        if not any(u & ~m == 0 for u in minimal):
            minimal.append(m)
    return minimal


def completions(rel: Relation, positions: Iterable[int], *, capacity: int = DEFAULT_CAPACITY) -> tuple[tuple[int, ...], ...]:
    """Minimal member supersets of a non-member tuple set.

    Raises :class:`UsageError` when the tuple set is already a member. For
    explicitly listed relations this scans the member list; otherwise it
    enumerates supersets, so the arity must stay within ``capacity``.
    """
    pset = _check_positions(rel, positions)
    if rel._contains(pset):
        raise UsageError("completions are defined for non-members only")
    mask = _set_to_mask(pset)
    if isinstance(rel, ExplicitRelation):
        members: Iterable[int] = (_set_to_mask(m) for m in rel.members)
    else:
        members = (m for m, is_member in enumerate(_member_masks(rel, capacity)) if is_member)
    return canonical_sets(_mask_to_set(m) for m in _minimal_supersets(mask, list(members)))


def compute_partials(rel: Relation, *, capacity: int = DEFAULT_CAPACITY) -> PartialsTable:
    """Build the full partial-tuple table of ``rel`` by exhaustive scan.

    Any relation with arity above ``capacity``, or above 14 whatever
    ``capacity`` says, raises :class:`CapacityError`; the scan is
    ``2**arity`` memberships plus submask walks, and the table itself can be
    that large.
    """
    member = _member_masks(rel, capacity)
    member_list = [m for m, is_member in enumerate(member) if is_member]
    partial_comps: dict[int, list[int]] = {}
    for mask, is_member in enumerate(member):
        if is_member:
            continue
        # Walk proper submasks, each numerically smaller and so decided already;
        # every one that is itself partial must have a completion inside this mask.
        ok = True
        sub = mask
        while ok and sub:
            sub = (sub - 1) & mask
            comps = partial_comps.get(sub)
            ok = comps is None or any(u & ~mask == 0 for u in comps)
        if ok:
            partial_comps[mask] = _minimal_supersets(mask, member_list)
    table = {
        tuple(sorted(_mask_to_set(m))): canonical_sets(_mask_to_set(u) for u in comps)
        for m, comps in partial_comps.items()
    }
    return PartialsTable(relation=rel, partials=tuple(sorted(table)), completions=table)


def characterize_membership(table: PartialsTable, positions: Iterable[int]) -> bool:
    """Decide membership using only the partials table.

    True exactly when every partial tuple set inside the given set has at
    least one completion inside it as well.
    """
    pset = _check_positions(table.relation, positions)
    for t in table.partials:
        if pset.issuperset(t):
            if not any(pset.issuperset(u) for u in table.completions[t]):
                return False
    return True
