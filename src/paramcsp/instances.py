"""Instances: variables, weight parameter, constraint bodies, and basic ops.

An instance asks for a set of variables (an assignment, identified with the
set of variables made true) of exactly or at most ``k0`` elements satisfying
every body constraint. The weight bound is a parameter of the instance, not a
body constraint, though it can be materialized as one for interop.
"""

from __future__ import annotations

import random
import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import chain

from ._sets import guesses
from .errors import CapacityError, DomainError, NotApplicableError, UsageError, ValidationError, require_int
from .relations import (
    CWRelation,
    ExplicitRelation,
    Relation,
    WeightSet,
    WeightSetKind,
    WRelation,
)


class WeightKind(Enum):
    EXACT = "exact"
    ATMOST = "atmost"


@dataclass(frozen=True)
class WeightParameter:
    """Target assignment weight: exactly ``k0`` or at most ``k0`` variables true."""

    kind: WeightKind
    k0: int

    def __post_init__(self) -> None:
        if not isinstance(self.kind, WeightKind):
            raise ValidationError(f"weight kind must be a WeightKind, got {type(self.kind).__name__}")
        require_int(self.k0, "k0", ValidationError)


@dataclass(frozen=True)
class Constraint:
    """A relation applied to a scope of variables; repeats in the scope are allowed."""

    relation: Relation
    scope: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", tuple(self.scope))
        if len(self.scope) != self.relation.arity:
            raise ValidationError(
                f"scope length {len(self.scope)} != relation arity {self.relation.arity}"
            )

    def selected_positions(self, assignment: frozenset[str]) -> frozenset[int]:
        """1-based scope positions whose variable is true under ``assignment``."""
        return frozenset(
            i for i, v in enumerate(self.scope, start=1) if v in assignment
        )


@dataclass(frozen=True)
class Instance:
    """A weighted satisfiability instance over named Boolean variables.

    ``sorted_variables`` is derived: the declared names in sorted order, the
    ``variables`` tuple itself when it is already sorted. It takes no part in
    equality, hashing or ``repr``.
    """

    variables: tuple[str, ...]
    weight: WeightParameter
    body: tuple[Constraint, ...] = ()
    sorted_variables: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        variables = tuple(self.variables)
        body = tuple(self.body)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "body", body)
        try:
            # C-level passes: join refuses exactly the names isinstance(v, str)
            # refuses, and does so before any name is hashed.
            "".join(variables)
            declared = set(variables)
            if (
                len(declared) == len(variables)
                and "" not in declared
                and declared.issuperset(chain.from_iterable(c.scope for c in body))
            ):
                # Sorting a sorted tuple is one linear pass; keeping the
                # declared tuple then costs no memory.
                ordered = tuple(sorted(variables))
                object.__setattr__(self, "sorted_variables", variables if ordered == variables else ordered)
                return
        except (TypeError, AttributeError):
            pass
        # Some check failed: walk the names in order to report the first fault.
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

    @property
    def variable_set(self) -> frozenset[str]:
        return frozenset(self.variables)


def _declared(names: tuple[str, ...], v: object) -> bool:
    """Whether ``v`` is one of the sorted ``names``; only a ``str`` can be, and
    only a ``str`` is compared with them."""
    if not isinstance(v, str):
        return False
    i = bisect_left(names, v)
    return i < len(names) and names[i] == v


def _check_assignment(inst: Instance, assignment: Iterable[str]) -> frozenset[str]:
    aset = frozenset(assignment)
    names = inst.sorted_variables
    extra = [v for v in aset if not _declared(names, v)]
    if extra:
        raise DomainError(f"assignment uses undeclared variables: {sorted(extra)}")
    return aset


def satisfies(inst: Instance, assignment: Iterable[str]) -> bool:
    """Decide whether the assignment meets the weight bound and every body constraint."""
    return _meets(inst, _check_assignment(inst, assignment))


def _meets(inst: Instance, aset: frozenset[str]) -> bool:
    """:func:`satisfies` for a set already known to hold only declared variables."""
    if inst.weight.kind is WeightKind.EXACT:
        if len(aset) != inst.weight.k0:
            return False
    elif len(aset) > inst.weight.k0:
        return False
    return all(
        c.relation._contains(c.selected_positions(aset)) for c in inst.body
    )


def param_u(inst: Instance) -> int:
    """Number of constraints counting the implicit weight constraint: body length + 1."""
    return len(inst.body) + 1


def param_t(inst: Instance) -> int:
    """Max total occurrences of any one variable across the body (0 for an empty body)."""
    counts: Counter[str] = Counter()
    for c in inst.body:
        counts.update(c.scope)
    return max(counts.values(), default=0)


def param_e(inst: Instance) -> int:
    """Max occurrences of any one variable within a single constraint's scope."""
    best = 0
    for c in inst.body:
        counts = Counter(c.scope)
        best = max(best, max(counts.values(), default=0))
    return best


def brute_force_solve(inst: Instance) -> frozenset[str] | None:
    """Exhaustive reference solver; returns the least witness in enumeration order.

    Candidates are the sorted variables' subsets in the order of
    :func:`~paramcsp._sets.guesses`, which :func:`~paramcsp.machines.simulate`
    follows on an exact instance's machine (an at-most instance is lifted
    first, so its machine walks a padded universe). ``None`` if unsatisfiable.
    """
    exact = inst.weight.kind is WeightKind.EXACT
    for combo in guesses(inst.sorted_variables, inst.weight.k0, exact):
        aset = frozenset(combo)
        if _meets(inst, aset):
            return aset
    return None


_PAD_STEM = "pad"

# The largest guess any machine checks, and the longest cost scan: a
# conditional-weight branch scans all 2**k0 heads of its guess, and lifting
# pads one name per unit of k0, so anything larger is refused up front.
_GUESS_CAP = 2**16


def _fresh_prefix(stem: str, names: tuple[str, ...]) -> str:
    """``stem`` behind the fewest underscores that no sorted name in ``names``
    starts with. The names starting with a prefix sort together, from the
    first name not below it, so each try is one bisection."""
    prefix = stem
    while (i := bisect_left(names, prefix)) < len(names) and names[i].startswith(prefix):
        prefix = "_" + prefix
    return prefix


def lift_kle_to_k(inst: Instance) -> Instance:
    """Turn an at-most instance into an equivalent exact one by adding padding.

    Appends ``k0`` fresh variables (touched by no constraint) and switches the
    weight to exactly ``k0``: any at-most witness extends with unused padding
    to hit the exact weight, and any exact witness restricts to an at-most one.
    A ``k0`` above ``_GUESS_CAP`` raises :class:`CapacityError` before any padding.
    """
    if inst.weight.kind is not WeightKind.ATMOST:
        raise UsageError("lift_kle_to_k applies to at-most instances only")
    k0 = inst.weight.k0
    if k0 > _GUESS_CAP:
        raise CapacityError(f"at-most bound {k0} above the padding bound {_GUESS_CAP}")
    prefix = _fresh_prefix(_PAD_STEM, inst.sorted_variables)
    pads = tuple(f"{prefix}{j:03d}" for j in range(1, k0 + 1))
    return Instance(
        variables=inst.variables + pads,
        weight=WeightParameter(WeightKind.EXACT, k0),
        body=inst.body,
    )


def reduce_parity_multiplicity(inst: Instance) -> Instance:
    """Collapse repeated scope variables of parity constraints mod 2.

    Only the parity of each variable's occurrence count matters to a parity
    weight set, so every constraint shrinks to the variables occurring an odd
    number of times. A constraint whose scope cancels entirely is identically
    true (even) and gets dropped, or identically false (odd), in which case
    the whole body is replaced by one contradictory pair of unit parity
    constraints so the result stays in the parity language and stays
    unsatisfiable.
    """
    for c in inst.body:
        if not isinstance(c.relation, WRelation) or c.relation.weights.kind not in (
            WeightSetKind.EVEN,
            WeightSetKind.ODD,
        ):
            raise NotApplicableError("parity reduction needs parity weight sets throughout")
    new_body: list[Constraint] = []
    for c in inst.body:
        counts = Counter(c.scope)
        odd_vars = tuple(sorted(v for v, k in counts.items() if k % 2))
        if odd_vars:
            rel = WRelation(c.relation.weights, arity=len(odd_vars))
            new_body.append(Constraint(rel, odd_vars))
        elif c.relation.weights.kind is WeightSetKind.ODD:
            v = inst.sorted_variables[0]
            pair = (
                Constraint(WRelation(WeightSet.odd(), arity=1), (v,)),
                Constraint(WRelation(WeightSet.even(), arity=1), (v,)),
            )
            return replace(inst, body=pair)
    return replace(inst, body=tuple(new_body))


def weight_relation(inst: Instance) -> WRelation:
    """The weight parameter as an explicit relation over all variables. An
    at-most ``k0`` above ``_GUESS_CAP`` raises :class:`CapacityError`."""
    n = len(inst.variables)
    if n < 1:
        raise UsageError("cannot materialize the weight constraint without variables")
    k0 = inst.weight.k0
    if inst.weight.kind is WeightKind.EXACT:
        values: tuple[int, ...] = (k0,)
    elif k0 > _GUESS_CAP:
        raise CapacityError(f"at-most bound {k0} above the materialization bound {_GUESS_CAP}")
    else:
        values = tuple(range(k0 + 1))
    return WRelation(WeightSet.finite(values), arity=n)


PROFILES = (
    "w-finite",
    "w-cofinite",
    "w-even",
    "w-odd",
    "w-parity",
    "cw",
    "explicit",
    "mixed",
)


@dataclass(frozen=True)
class InstanceConfig:
    """Shape of a randomly generated instance.

    ``profile`` picks the constraint language. The four ``w-*`` single-kind
    profiles share one weight set across the whole body (which the shared-set
    solvers require); ``w-parity`` flips a per-constraint even/odd coin;
    ``cw`` emits conditional-weight constraints sharing the tail bound
    ``cw_bound``; ``explicit`` and ``mixed`` are what they sound like.
    """

    n: int
    k0: int
    profile: str = "mixed"
    body_len: int = 2
    min_arity: int = 1
    max_arity: int = 4
    atmost: bool = False
    cw_bound: int = 1
    member_size: int = 2
    max_members: int = 4
    weight_cap: int = 3
    finite_values: tuple[int, ...] | None = None
    exclude_zero: bool = False

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise UsageError(f"unknown profile {self.profile!r}; choose from {PROFILES}")
        checks = (
            ("n", self.n, 1),
            ("k0", self.k0, 0),
            ("body_len", self.body_len, 0),
            ("min_arity", self.min_arity, 1),
            ("max_arity", self.max_arity, self.min_arity),
            ("cw_bound", self.cw_bound, 0),
            ("member_size", self.member_size, 0),
            ("max_members", self.max_members, 0),
            ("weight_cap", self.weight_cap, 0),
        )
        for name, value, low in checks:
            require_int(value, name, UsageError, low=low)
        # Bound what generation allocates before anything is drawn: names,
        # weight pools, and scope plus member positions.
        positions = self.body_len * self.max_arity * (1 + self.max_members)
        for name, value in (("n", self.n), ("cw_bound", self.cw_bound), ("weight_cap", self.weight_cap),
                            ("body_len * max_arity * (1 + max_members)", positions)):
            if value > _GUESS_CAP:
                raise CapacityError(f"{name} = {value} above the generator bound {_GUESS_CAP}")
        if self.finite_values is not None:
            object.__setattr__(self, "finite_values", tuple(self.finite_values))


def _random_weight_values(rng: random.Random, cfg: InstanceConfig) -> tuple[int, ...]:
    pool = list(range(cfg.weight_cap + 1))
    if cfg.exclude_zero:
        pool.remove(0)
    return tuple(rng.sample(pool, rng.randint(0, len(pool))))


def _random_weight_set(rng: random.Random, cfg: InstanceConfig, kind: str) -> WeightSet:
    """Draw one weight set of ``kind``: "finite", "cofinite", "even" or "odd"."""
    if kind == "finite":
        values = cfg.finite_values
        return WeightSet.finite(values if values is not None else _random_weight_values(rng, cfg))
    if kind == "cofinite":
        excluded = set(_random_weight_values(rng, cfg))
        if cfg.exclude_zero:
            excluded.add(0)
        return WeightSet.cofinite(excluded)
    if kind == "even":
        return WeightSet.even()
    return WeightSet.odd()


def _random_relation(
    rng: random.Random, cfg: InstanceConfig, arity: int, shared: WeightSet | None
) -> Relation:
    if shared is not None:
        return WRelation(shared, arity)
    profile = cfg.profile
    if profile == "mixed":
        profile = rng.choice(("w", "cw", "explicit"))
    if profile == "w-parity":
        ws = WeightSet.even() if rng.random() < 0.5 else WeightSet.odd()
        return WRelation(ws, arity)
    if profile == "w":
        kind = rng.choice(("finite", "cofinite", "even", "odd"))
        return WRelation(_random_weight_set(rng, cfg, kind), arity)
    if profile == "cw":
        head = rng.randint(0, arity)
        return CWRelation(
            WeightSet.finite(range(1, cfg.cw_bound + 1)), head=head, tail=arity - head
        )
    members = []
    for _ in range(rng.randint(0, cfg.max_members)):
        size = rng.randint(0, min(cfg.member_size, arity))
        members.append(tuple(rng.sample(range(1, arity + 1), size)))
    return ExplicitRelation(arity=arity, members=tuple(members))


@lru_cache(maxsize=64)
def _generated_names(n: int) -> tuple[str, ...]:
    """The names ``x001``.. of an ``n``-variable generated instance, zero-padded
    to at least three digits. Interned, so names of equal width are one object
    across name counts too."""
    width = max(3, len(str(n)))
    return tuple(sys.intern(f"x{i:0{width}d}") for i in range(1, n + 1))


def random_instance(seed: int, cfg: InstanceConfig) -> Instance:
    """Generate a pseudorandom instance; identical (seed, cfg) give identical output.

    Every instance with the same ``cfg.n`` shares one ``variables`` tuple, built
    once per name count by a bounded cache, so generation costs no per-name work.
    """
    rng = random.Random(seed)
    names = _generated_names(cfg.n)
    shared: WeightSet | None = None
    if cfg.profile in ("w-finite", "w-cofinite", "w-even", "w-odd"):
        shared = _random_weight_set(rng, cfg, cfg.profile.removeprefix("w-"))
    body: list[Constraint] = []
    for _ in range(cfg.body_len):
        arity = rng.randint(cfg.min_arity, cfg.max_arity)
        rel = _random_relation(rng, cfg, arity, shared)
        scope = tuple(rng.choice(names) for _ in range(arity))
        body.append(Constraint(rel, scope))
    kind = WeightKind.ATMOST if cfg.atmost else WeightKind.EXACT
    return Instance(names, WeightParameter(kind, cfg.k0), tuple(body))
