"""Set-encoding plumbing shared by the public modules.

Finite sets travel as ``frozenset`` in memory and as sorted tuples wherever a
canonical, comparable encoding is needed (table keys, serialized documents,
printed output).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations
from typing import TypeVar

T = TypeVar("T")


def canonical_set(elements: Iterable[T]) -> tuple[T, ...]:
    """Deduplicate and sort one set into its canonical tuple form."""
    return tuple(sorted(set(elements)))


def canonical_sets(sets: Iterable[Iterable[T]]) -> tuple[tuple[T, ...], ...]:
    """Canonicalize a family of sets: each sorted, the family ordered lexicographically."""
    return tuple(sorted({canonical_set(s) for s in sets}))


def lex_subsets(items: Sequence[T], max_size: int) -> Iterator[tuple[T, ...]]:
    """Yield all subsets of ``items`` with at most ``max_size`` elements.

    Subsets come out in lexicographic order over the element sequence as given
    (callers pass a sorted sequence when they need the canonical order), so the
    empty set is first and ``(items[0],)`` precedes ``(items[0], items[1])``.
    """
    n = len(items)
    chosen: list[int] = []
    prefix: list[T] = []
    while True:
        yield tuple(prefix)
        nxt = chosen[-1] + 1 if chosen else 0
        if len(chosen) < max_size and nxt < n:
            chosen.append(nxt)
            prefix.append(items[nxt])
            continue
        # No room to extend: step to the next sibling, first leaving exhausted levels.
        while chosen and chosen[-1] + 1 >= n:
            chosen.pop()
            prefix.pop()
        if not chosen:
            return
        chosen[-1] += 1
        prefix[-1] = items[chosen[-1]]


def subsets_by_size(items: Sequence[T], max_size: int) -> list[frozenset[T]]:
    """The subsets of ``items`` with at most ``max_size`` elements, smallest
    first, each size in :func:`itertools.combinations` order over ``items``."""
    sizes = range(min(max_size, len(items)) + 1)
    return [frozenset(c) for size in sizes for c in combinations(items, size)]


def guesses(names: Sequence[T], k0: int, exact: bool) -> Iterator[tuple[T, ...]]:
    """Enumerate candidate sets of ``names`` in the one fixed witness order.

    Exact guesses are the size-``k0`` subsets in lexicographic order (none
    when ``k0 > len(names)``); at-most guesses are all subsets of size up to
    ``k0`` in lexicographic subset order, as :func:`lex_subsets` yields them.
    """
    if exact and k0 > len(names):
        return iter(())  # combinations() cannot take a k0 beyond the platform's index range
    return combinations(names, k0) if exact else lex_subsets(names, k0)

