"""Boolean relations over tuple weights, and the membership cost model.

A Boolean tuple of arity ``r`` is identified with the set of its 1-positions,
a subset of ``{1..r}``. Three relation families cover everything here:

* :class:`WRelation` constrains the tuple weight (number of 1-positions).
* :class:`CWRelation` splits positions into a head block and a tail block and
  constrains the tail weight only when the whole head is set.
* :class:`ExplicitRelation` lists its members outright.

Every relation carries a positive ``index`` (its position in some fixed
enumeration of the language; defaults to the arity) which only matters for
:meth:`CostModel.cost`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from enum import Enum

from ._sets import canonical_set, canonical_sets
from .errors import CapacityError, DomainError, ValidationError, require_int


class WeightSetKind(Enum):
    FINITE = "finite"
    COFINITE = "cofinite"
    EVEN = "even"
    ODD = "odd"


@dataclass(frozen=True)
class WeightSet:
    """A set of admissible tuple weights.

    ``values`` holds the members for FINITE kinds and the excluded weights for
    COFINITE kinds; the parity kinds carry no values. Values normalize to a
    sorted, deduplicated tuple, so structurally equal sets compare equal.
    """

    kind: WeightSetKind
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, WeightSetKind):
            raise ValidationError(f"weight-set kind must be a WeightSetKind, got {type(self.kind).__name__}")
        raw = tuple(self.values)
        for w in raw:
            require_int(w, "weight value", ValidationError)
        vals = canonical_set(raw)
        if self.kind in (WeightSetKind.EVEN, WeightSetKind.ODD) and vals:
            raise ValidationError(f"{self.kind.value} weight sets carry no values")
        object.__setattr__(self, "values", vals)

    @classmethod
    def finite(cls, values: Iterable[int]) -> WeightSet:
        return cls(WeightSetKind.FINITE, tuple(values))

    @classmethod
    def cofinite(cls, excluded: Iterable[int]) -> WeightSet:
        return cls(WeightSetKind.COFINITE, tuple(excluded))

    @classmethod
    def even(cls) -> WeightSet:
        return cls(WeightSetKind.EVEN)

    @classmethod
    def odd(cls) -> WeightSet:
        return cls(WeightSetKind.ODD)

    def contains(self, weight: int) -> bool:
        require_int(weight, "weight", DomainError)
        return self._contains(weight)

    def _contains(self, weight: int) -> bool:
        if self.kind is WeightSetKind.FINITE:
            return weight in self.values
        if self.kind is WeightSetKind.COFINITE:
            return weight not in self.values
        if self.kind is WeightSetKind.EVEN:
            return weight % 2 == 0
        return weight % 2 == 1


def _normalize_index(rel: object, arity: int, index: int | None) -> None:
    if index is None:
        index = arity
    object.__setattr__(rel, "index", require_int(index, "relation index", ValidationError, low=1))


@dataclass(frozen=True)
class WRelation:
    """All tuples of the given arity whose weight lies in ``weights``."""

    weights: WeightSet
    arity: int
    index: int | None = None

    def __post_init__(self) -> None:
        require_int(self.arity, "arity", ValidationError, low=1)
        _normalize_index(self, self.arity, self.index)

    def _contains(self, positions: frozenset[int]) -> bool:
        return self.weights._contains(len(positions))


@dataclass(frozen=True)
class CWRelation:
    """Conditional weight relation with ``head`` leading and ``tail`` trailing positions.

    A tuple is a member unless all ``head`` positions are set and the number of
    set tail positions falls outside ``weights``. With ``head == 0`` this
    degenerates to :class:`WRelation` over the tail; with ``tail == 0`` and a
    weight set not containing 0 it forbids setting the whole head at once.
    """

    weights: WeightSet
    head: int
    tail: int
    index: int | None = None

    def __post_init__(self) -> None:
        for name in ("head", "tail"):
            require_int(getattr(self, name), name, ValidationError)
        if self.head + self.tail < 1:
            raise ValidationError("relation arity must be at least 1")
        _normalize_index(self, self.arity, self.index)

    @property
    def arity(self) -> int:
        return self.head + self.tail

    def _contains(self, positions: frozenset[int]) -> bool:
        for p in range(1, self.head + 1):
            if p not in positions:
                return True
        tail_weight = sum(1 for p in positions if p > self.head)
        return self.weights._contains(tail_weight)


@dataclass(frozen=True)
class ExplicitRelation:
    """A relation given by an explicit list of members (sets of 1-positions)."""

    arity: int
    members: tuple[tuple[int, ...], ...] = ()
    index: int | None = None
    _member_sets: frozenset[frozenset[int]] = field(
        init=False, repr=False, compare=False, default=frozenset()
    )

    def __post_init__(self) -> None:
        require_int(self.arity, "arity", ValidationError, low=1)
        checked: list[tuple[int, ...]] = []
        for member in self.members:
            entry = tuple(member)
            for p in entry:
                require_int(p, "member position", ValidationError, low=1, high=self.arity)
            checked.append(entry)
        canon = canonical_sets(checked)
        object.__setattr__(self, "members", canon)
        object.__setattr__(self, "_member_sets", frozenset(frozenset(m) for m in canon))
        _normalize_index(self, self.arity, self.index)

    def _contains(self, positions: frozenset[int]) -> bool:
        return positions in self._member_sets


Relation = WRelation | CWRelation | ExplicitRelation


def _check_positions(rel: Relation, positions: Iterable[int]) -> frozenset[int]:
    pset = frozenset(positions)
    for p in pset:
        require_int(p, "position", DomainError, low=1, high=rel.arity)
    return pset


def relation_membership(rel: Relation, positions: Iterable[int]) -> bool:
    """Decide whether the tuple with the given 1-positions belongs to ``rel``.

    Positions outside ``1..rel.arity`` raise :class:`DomainError`.
    """
    return rel._contains(_check_positions(rel, positions))


def _largest_member(rel: Relation) -> int | None:
    """Largest member size of an explicit relation, or largest weight of a
    finite weight set (0 when empty); None for every other relation."""
    if isinstance(rel, ExplicitRelation):
        return max(map(len, rel.members), default=0)
    if isinstance(rel, WRelation) and rel.weights.kind is WeightSetKind.FINITE:
        return max(rel.weights.values, default=0)
    return None


def _ceil_log2(x: int) -> int:
    """Smallest ``k`` with ``2**k >= x``, for positive ``x``."""
    require_int(x, "ceil_log2 argument", DomainError, low=1)
    return (x - 1).bit_length()


def default_checker_cost(weight: int) -> int:
    """Default per-check base cost: tuple weight plus one."""
    return weight + 1


@dataclass(frozen=True)
class AffineCost:
    """Affine base-cost function ``slope * weight + offset``; serializable."""

    slope: int = 1
    offset: int = 1

    def __post_init__(self) -> None:
        for name in ("slope", "offset"):
            require_int(getattr(self, name), name, ValidationError)

    def __call__(self, weight: int) -> int:
        return self.slope * weight + self.offset


# ``log**exponent`` has at most ``exponent * log.bit_length()`` bits; a factor
# that could pass this many is refused before it is computed.
_FACTOR_BITS_CAP = 2**16


@dataclass(frozen=True)
class CostModel:
    """Charge for one membership check: ``checker_cost(|T|) * ceil_log2(index + 1)**exponent``.

    The logarithmic factor accounts for reading the relation's index; the
    ``checker_cost`` factor, :func:`default_checker_cost` or an
    :class:`AffineCost` (both nondecreasing), accounts for reading the tuple itself.
    """

    exponent: int = 1
    checker_cost: Callable[[int], int] = default_checker_cost

    def __post_init__(self) -> None:
        require_int(self.exponent, "exponent", ValidationError)
        ck = self.checker_cost
        if ck is not default_checker_cost and not isinstance(ck, AffineCost):
            raise ValidationError(
                f"checker_cost must be default_checker_cost or an AffineCost, got {type(ck).__name__}"
            )

    def cost(self, index: int, weight: int) -> int:
        require_int(index, "relation index", DomainError, low=1)
        require_int(weight, "tuple weight", DomainError)
        return self.checker_cost(weight) * self._index_factor(index)

    def _index_factor(self, index: int) -> int:
        """``ceil_log2(index + 1) ** exponent``, refused before the power when
        its bit length could pass ``_FACTOR_BITS_CAP``."""
        log = _ceil_log2(index + 1)
        if log > 1 and self.exponent * log.bit_length() > _FACTOR_BITS_CAP:
            raise CapacityError(
                f"index factor {log}**{self.exponent} above the bound of {_FACTOR_BITS_CAP} bits"
            )
        return log**self.exponent

