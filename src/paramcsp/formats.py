"""JSON documents for instances and machines.

Documents are versioned, canonical, and diagnostic-friendly: serialization
always produces sorted keys and sorted set encodings so equal objects give
byte-identical text, and parse errors name the offending field path
(``constraints[2].scope``) instead of just failing.

Positions inside relations are 1-based in documents, matching the in-memory
convention. Weight values are plain nonnegative integers.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from itertools import chain
from typing import Any, TypeVar

from .errors import CapacityError, UsageError, ValidationError
from .instances import Constraint, Instance, WeightKind, WeightParameter, weight_relation
from .machines import (
    AlwaysReject,
    AppearanceChecker,
    CombinedChecker,
    CWChecker,
    GuessCheckMachine,
    TableKey,
    _COMBINE_DEPTH_CAP,
    _cw_budget,
    _tail_scans,
    combine_machines,
    reduce_appearance,
)
from .relations import (
    AffineCost,
    CostModel,
    CWRelation,
    ExplicitRelation,
    Relation,
    WeightSet,
    WeightSetKind,
    WRelation,
)

FORMAT_VERSION = "1"

T = TypeVar("T")


def _dump(value: Any, indent: int | None = 2) -> str:
    """Canonical JSON text; an integer too long for Python to print is a capacity fault."""
    try:
        return json.dumps(value, indent=indent, sort_keys=True)
    except ValueError as exc:
        raise CapacityError(f"cannot write the document: {exc}") from None


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer with more digits than Python converts.
        raise ValidationError(f"document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError("document nests too deeply to parse") from None


_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean"}


def _as(value: Any, path: str, kind: type[T], low: int | None = None) -> T:
    """Return ``value`` if it is a ``kind`` >= ``low`` (an ``int`` is never a ``bool``), else refuse ``path``."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValidationError(f"{path}: expected {_KINDS[kind]}, got {type(value).__name__}")
    if low is not None and value < low:  # type: ignore[operator]
        raise ValidationError(f"{path}: expected an integer >= {low}, got {value}")
    return value


def _as_list_of(value: Any, path: str, kind: type[T], low: int | None = None) -> tuple[T, ...]:
    """Read a list whose items are each a ``kind`` of at least ``low``."""
    return tuple(_as(v, f"{path}[{i}]", kind, low) for i, v in enumerate(_as(value, path, list)))


def _get(obj: dict[str, Any], key: str, path: str) -> Any:
    if key not in obj:
        raise ValidationError(f"{path}: missing required field {key!r}")
    return obj[key]


def _field(obj: dict[str, Any], key: str, path: str, kind: type[T], low: int | None = None) -> T:
    """Read the required field ``key`` of ``obj`` at ``path`` as a ``kind``."""
    return _as(_get(obj, key, path), f"{path}.{key}", kind, low)


def _at(path: str, build: Callable[..., T], *args: Any) -> T:
    """Return ``build(*args)``, refusing its validation or usage errors at ``path``."""
    try:
        return build(*args)
    except (ValidationError, UsageError) as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _check_version(obj: dict[str, Any], path: str) -> None:
    version = _field(obj, "format_version", path, str)
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{path}.format_version: unsupported version {version!r}, expected {FORMAT_VERSION!r}"
        )


def _weights_to_doc(ws: WeightSet) -> dict[str, Any]:
    doc: dict[str, Any] = {"kind": ws.kind.value}
    if ws.kind in (WeightSetKind.FINITE, WeightSetKind.COFINITE):
        doc["values"] = list(ws.values)
    return doc


def _weights_from_doc(value: Any, path: str) -> WeightSet:
    obj = _as(value, path, dict)
    kind_name = _field(obj, "kind", path, str)
    try:
        kind = WeightSetKind(kind_name)
    except ValueError:
        raise ValidationError(f"{path}.kind: unknown weight-set kind {kind_name!r}") from None
    values = _as_list_of(obj.get("values", []), f"{path}.values", int, 0)
    return _at(path, WeightSet, kind, values)


def _relation_to_doc(rel: Relation) -> dict[str, Any]:
    if isinstance(rel, WRelation):
        doc: dict[str, Any] = {
            "type": "W",
            "weights": _weights_to_doc(rel.weights),
            "arity": rel.arity,
        }
    elif isinstance(rel, CWRelation):
        doc = {
            "type": "CW",
            "weights": _weights_to_doc(rel.weights),
            "d": rel.head,
            "m": rel.tail,
        }
    elif isinstance(rel, ExplicitRelation):
        doc = {
            "type": "explicit",
            "arity": rel.arity,
            "members": [list(m) for m in rel.members],
        }
    else:
        raise ValidationError(f"unknown relation type {type(rel).__name__}")
    if rel.index != rel.arity:
        doc["index"] = rel.index
    return doc


def _relation_from_doc(value: Any, path: str) -> Relation:
    obj = _as(value, path, dict)
    rtype = _field(obj, "type", path, str)
    index = _as(obj["index"], f"{path}.index", int, 1) if "index" in obj else None
    if rtype == "W":
        weights = _weights_from_doc(_get(obj, "weights", path), f"{path}.weights")
        arity = _field(obj, "arity", path, int, 1)
        return _at(path, WRelation, weights, arity, index)
    if rtype == "CW":
        weights = _weights_from_doc(_get(obj, "weights", path), f"{path}.weights")
        head = _field(obj, "d", path, int, 0)
        tail = _field(obj, "m", path, int, 0)
        return _at(path, CWRelation, weights, head, tail, index)
    if rtype == "explicit":
        arity = _field(obj, "arity", path, int, 1)
        members = tuple(
            _as_list_of(m, f"{path}.members[{i}]", int, 1)
            for i, m in enumerate(_field(obj, "members", path, list))
        )
        return _at(path, ExplicitRelation, arity, members, index)
    raise ValidationError(f"{path}.type: unknown relation type {rtype!r}")


def _constraints_to_doc(constraints: tuple[Constraint, ...]) -> list[dict[str, Any]]:
    return [
        {"relation": _relation_to_doc(c.relation), "scope": list(c.scope)}
        for c in constraints
    ]


def _names_from_doc(value: Any, path: str, declared: set[str]) -> tuple[str, ...]:
    """Read a list of names that may only be ``declared`` variables."""
    names = _as_list_of(value, path, str)
    for j, v in enumerate(names):
        if v not in declared:
            raise ValidationError(f"{path}[{j}]: undeclared variable {v!r}")
    return names


def _constraints_from_doc(value: Any, path: str, declared: set[str]) -> tuple[Constraint, ...]:
    """Parse a constraint list whose scopes may only name ``declared`` variables."""
    body = []
    for i, entry in enumerate(_as(value, path, list)):
        cpath = f"{path}[{i}]"
        obj = _as(entry, cpath, dict)
        rel = _relation_from_doc(_get(obj, "relation", cpath), f"{cpath}.relation")
        scope = _names_from_doc(_get(obj, "scope", cpath), f"{cpath}.scope", declared)
        body.append(_at(cpath, Constraint, rel, scope))
    return tuple(body)


def serialize_instance(inst: Instance, *, materialize_weight: bool = False) -> str:
    """Render an instance document; canonical, ends with a newline.

    With ``materialize_weight`` the weight bound is additionally written as
    an explicit constraint over all variables, for consumers that want the
    bound inside the body; the parameter field stays authoritative either way.
    """
    body = inst.body
    if materialize_weight:
        body += (Constraint(weight_relation(inst), inst.variables),)
    doc = {
        "format_version": FORMAT_VERSION,
        "variables": list(inst.variables),
        "parameter": {"kind": inst.weight.kind.value, "k": inst.weight.k0},
        "constraints": _constraints_to_doc(body),
    }
    return _dump(doc) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse an instance document, naming the failing field on error."""
    top = _as(_load(text), "document", dict)
    _check_version(top, "document")
    names = _as_list_of(_get(top, "variables", "document"), "variables", str)
    param = _as(_get(top, "parameter", "document"), "parameter", dict)
    kind_name = _field(param, "kind", "parameter", str)
    try:
        kind = WeightKind(kind_name)
    except ValueError:
        raise ValidationError(f"parameter.kind: unknown kind {kind_name!r}") from None
    k0 = _field(param, "k", "parameter", int, 0)
    body = _constraints_from_doc(_get(top, "constraints", "document"), "constraints", set(names))
    return _at("document", Instance, names, WeightParameter(kind, k0), body)


def parse_relation(text: str) -> Relation:
    """Parse a bare relation document (the constraint ``relation`` object)."""
    return _relation_from_doc(_load(text), "relation")


def _cost_model_to_doc(cm: CostModel) -> dict[str, Any]:
    ck = cm.checker_cost
    checker = {"slope": ck.slope, "offset": ck.offset} if isinstance(ck, AffineCost) else "default"
    return {"exponent": cm.exponent, "checker": checker}


def _cost_model_from_doc(value: Any, path: str) -> CostModel:
    obj = _as(value, path, dict)
    exponent = _field(obj, "exponent", path, int, 0)
    checker = _get(obj, "checker", path)
    if checker == "default":
        return CostModel(exponent)
    cobj = _as(checker, f"{path}.checker", dict)
    slope = _field(cobj, "slope", f"{path}.checker", int, 0)
    offset = _field(cobj, "offset", f"{path}.checker", int, 0)
    return CostModel(exponent, AffineCost(slope, offset))


def _machine_to_doc(machine: GuessCheckMachine) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "universe": list(machine.universe),
        "k0": machine.k0,
        "exact": True,
        "budget": machine.budget,
    }
    ck = machine.checker
    if isinstance(ck, AlwaysReject):
        doc["kind"] = "always-reject"
    elif isinstance(ck, AppearanceChecker):
        doc["kind"] = "appearance"
        doc["cost_model"] = _cost_model_to_doc(ck.cost_model)
        doc["constraints"] = _constraints_to_doc(ck.constraints)
        doc["e_v"] = {v: list(ix) for v, ix in sorted(ck.e_v.items())}
        doc["d_set"] = list(ck.d_set)
    elif isinstance(ck, CWChecker):
        doc["kind"] = "cw"
        doc["b"] = ck.b
        doc["sum_bound"] = ck.sum_bound
        for bset, gset in chain(ck.delta_sizes, ck.lambda_caps):
            where = f"table key (head {sorted(bset)}, tail {sorted(gset)})"
            if not gset:
                raise ValidationError(f"{where}: a count or cap needs a nonempty tail")
            if (bset, gset) not in ck.delta_sizes or (bset, gset) not in ck.lambda_caps:
                raise ValidationError(f"{where}: a tail row needs both a count and a cap")
        rows = []
        for bset, count in ck.delta_empty.items():
            rows.append({"head": sorted(bset), "tail": [], "count": count})
        for (bset, gset), count in ck.delta_sizes.items():
            rows.append(
                {
                    "head": sorted(bset),
                    "tail": sorted(gset),
                    "count": count,
                    "max_positions": ck.lambda_caps[(bset, gset)],
                }
            )
        rows.sort(key=lambda row: (row["head"], row["tail"]))
        doc["tables"] = rows
    elif isinstance(ck, CombinedChecker):
        doc["kind"] = "combined"
        doc["first"] = _machine_to_doc(ck.first)
        doc["second"] = _machine_to_doc(ck.second)
    else:
        raise ValidationError(f"unknown checker type {type(ck).__name__}")
    return doc


def serialize_machine(machine: GuessCheckMachine) -> str:
    """Render a machine document with canonically ordered tables."""
    return _dump({"format_version": FORMAT_VERSION, "machine": _machine_to_doc(machine)}) + "\n"


def _require_derived(got: Any, want: Any, path: str, source: str) -> None:
    """Refuse a document field that differs from the value its builder derives."""
    if got != want:
        name = path.rsplit(".", 1)[-1]
        raise ValidationError(
            f"{path}: {_dump(got, indent=None)} is not the {name} {_dump(want, indent=None)} {source}"
        )


def _machine_from_doc(value: Any, path: str) -> GuessCheckMachine:
    """Parse a machine by rebuilding it, so budgets and appearance tables come
    only from the builders and a document whose copies differ is refused."""
    obj = _as(value, path, dict)
    kind = _field(obj, "kind", path, str)
    universe = _as_list_of(_get(obj, "universe", path), f"{path}.universe", str)
    declared = set(universe)
    k0 = _field(obj, "k0", path, int, 0)
    _require_derived(_field(obj, "exact", path, bool), True, f"{path}.exact", "every machine has")
    budget = _field(obj, "budget", path, int, 0)
    if kind == "always-reject":
        checker: Any = AlwaysReject()
        derived_budget = 0
    elif kind == "appearance":
        cost_model = _cost_model_from_doc(_get(obj, "cost_model", path), f"{path}.cost_model")
        constraints = _constraints_from_doc(_get(obj, "constraints", path), f"{path}.constraints", declared)
        inst = _at(path, Instance, universe, WeightParameter(WeightKind.EXACT, k0), constraints)
        rebuilt = reduce_appearance(inst, cost_model)
        if isinstance(rebuilt.checker, AlwaysReject):
            raise ValidationError(
                f"{path}.kind: its constraints admit no guess, so the machine is 'always-reject'"
            )
        e_v = {
            v: _as_list_of(raw, f"{path}.e_v.{v}", int, 1)
            for v, raw in _field(obj, "e_v", path, dict).items()
        }
        _require_derived(e_v, rebuilt.checker.e_v, f"{path}.e_v", "its constraints imply")
        d_set = _as_list_of(_get(obj, "d_set", path), f"{path}.d_set", int, 1)
        _require_derived(d_set, rebuilt.checker.d_set, f"{path}.d_set", "its constraints imply")
        checker, derived_budget = rebuilt.checker, rebuilt.budget
    elif kind == "cw":
        b = _field(obj, "b", path, int, 0)
        sum_bound = _field(obj, "sum_bound", path, int, 0)
        rows: dict[TableKey, tuple[int, int]] = {}
        for i, entry in enumerate(_field(obj, "tables", path, list)):
            rpath = f"{path}.tables[{i}]"
            row = _as(entry, rpath, dict)
            head = frozenset(_names_from_doc(_get(row, "head", rpath), f"{rpath}.head", declared))
            tail = frozenset(_names_from_doc(_get(row, "tail", rpath), f"{rpath}.tail", declared))
            count = _field(row, "count", rpath, int, 0)
            if (head, tail) in rows:
                raise ValidationError(f"{rpath}: duplicate table key")
            cap = _field(row, "max_positions", rpath, int, 0) if tail else 0
            rows[head, tail] = (count, cap)
        delta_empty = {head: count for (head, tail), (count, _) in rows.items() if not tail}
        # A tail row counts some of its head's constraints, so every partial sum
        # of CWChecker.check stays within max(delta_empty) times its term count.
        # Rows are unique, so the i-th entry of ``rows`` is tables[i].
        for i, ((head, tail), (count, _)) in enumerate(rows.items()):
            head_count = delta_empty.get(head, 0)
            if tail and count > head_count:
                raise ValidationError(
                    f"{path}.tables[{i}].count: {count} exceeds {head_count}, the count of its head's empty tail"
                )
        derived_budget = _cw_budget(k0, b)
        least = max(delta_empty.values(), default=0) * _tail_scans(k0, b)[2]
        if sum_bound < least:
            raise ValidationError(
                f"{path}.sum_bound: {sum_bound} is below {least}, the least bound its tables allow"
            )
        delta_sizes = {key: count for key, (count, _) in rows.items() if key[1]}
        lambda_caps = {key: cap for key, (_, cap) in rows.items() if key[1]}
        checker = CWChecker(b, delta_sizes, lambda_caps, delta_empty, sum_bound)
    elif kind == "combined":
        if path.count(".") >= _COMBINE_DEPTH_CAP:  # one "." per enclosing combined machine
            raise CapacityError(f"{path}: combined machines nest more than {_COMBINE_DEPTH_CAP} deep")
        first = _machine_from_doc(_get(obj, "first", path), f"{path}.first")
        second = _machine_from_doc(_get(obj, "second", path), f"{path}.second")
        combined = _at(path, combine_machines, first, second)
        _require_derived(universe, combined.universe, f"{path}.universe", "its parts share")
        _require_derived(k0, combined.k0, f"{path}.k0", "its parts share")
        checker, derived_budget = combined.checker, combined.budget
    else:
        raise ValidationError(f"{path}.kind: unknown machine kind {kind!r}")
    _require_derived(budget, derived_budget, f"{path}.budget", "its checker implies")
    return _at(path, GuessCheckMachine, universe, k0, budget, checker)


def parse_machine(text: str) -> GuessCheckMachine:
    """Parse a machine document, naming the failing field on error."""
    top = _as(_load(text), "document", dict)
    _check_version(top, "document")
    return _machine_from_doc(_get(top, "machine", "document"), "machine")
