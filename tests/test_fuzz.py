"""A fail-closed fuzzer over the instance and machine documents the CLI reads.

Each example starts from a document the library wrote for a generated
instance, relation or machine over at most four variables, mutates it
(drops, duplicates or retypes a key or a row, swaps an integer for a huge,
negative or boolean one, or for 0 or its neighbour on either side, gives a
string, wherever the document writes it, a lone surrogate, or reorders an
object's keys) and feeds it
in-process to ``cli.run``: through stdin, or for a relation as the argument
of ``partials --relation``. Machine universes are also given the empty name,
a repeated name or the reverse order, which every machine refuses.
Whatever the mutant holds, the run must exit
with 0, 1, 2 or 3, print one ``error:`` line exactly when it exits 2 or 3,
print only text that encodes as UTF-8, and print no traceback. Tier-1 runs
a sample; ``pytest -m slow`` runs ten times as many examples.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paramcsp import (
    PROFILES,
    AlwaysReject,
    GuessCheckMachine,
    InstanceConfig,
    combine_machines,
    random_instance,
    reduce_appearance,
    reduce_cw,
    serialize_instance,
    serialize_machine,
)
from paramcsp.cli import REDUCE_TARGETS, SOLVE_METHODS, run

INSTANCE_COMMANDS = (
    [["stats"]]
    + [["partials", "--constraint", index, "--instance"] for index in ("0", "1", "5")]
    + [["solve", "--method", method] for method in SOLVE_METHODS]
    + [["reduce", "--to", target] for target in REDUCE_TARGETS]
)
MACHINE_COMMANDS = [["simulate"], ["simulate", "--budget-report"]]
RELATION_COMMANDS = [["partials", "--relation"], ["partials", "--capacity", "14", "--relation"]]

# Huge, negative and boolean stand-ins for an integer.
ODD_INTEGERS = (2**63, 2**64 + 1, 10**30, -1, -(2**63), True, False)
# Stand-ins of another type for any value.
OTHER_TYPES = ("x", 1.5, None, [], {}, [1], {"k": 1})


@st.composite
def instance_documents(draw):
    """An instance document of at most four variables. ``k0`` stays at 2 or
    below: the completion pipeline at 3 takes over a second per instance."""
    cfg = InstanceConfig(
        n=draw(st.integers(1, 4)), k0=draw(st.integers(0, 2)), profile=draw(st.sampled_from(PROFILES)),
        body_len=draw(st.integers(0, 3)), max_arity=draw(st.integers(1, 3)), atmost=draw(st.booleans()),
        cw_bound=draw(st.integers(1, 2)),
    )
    return json.loads(serialize_instance(random_instance(draw(st.integers(0, 2**32 - 1)), cfg)))


@st.composite
def relation_documents(draw):
    """The relation document of one constraint of an instance document."""
    constraints = draw(instance_documents().filter(lambda doc: doc["constraints"]))["constraints"]
    return draw(st.sampled_from(constraints))["relation"]


@st.composite
def machine_documents(draw):
    """A machine document over at most four variables: the appearance machine
    of an exact instance, the conditional-weight machine of an exact ``cw``
    instance, the always-reject machine, or two of them combined, once or
    twice over."""
    n, k0 = draw(st.integers(1, 4)), draw(st.integers(0, 3))

    def exact(profile):
        cfg = InstanceConfig(
            n=n, k0=k0, profile=profile, body_len=draw(st.integers(0, 3)),
            max_arity=draw(st.integers(1, 3)), cw_bound=draw(st.integers(1, 2)),
        )
        return random_instance(draw(st.integers(0, 2**32 - 1)), cfg)

    appearance = reduce_appearance(exact(draw(st.sampled_from(PROFILES))))
    leaves = [appearance, reduce_cw(exact("cw")), GuessCheckMachine(appearance.universe, k0, 0, AlwaysReject())]

    def part(depth):
        if depth and draw(st.booleans()):
            return combine_machines(part(depth - 1), part(depth - 1))
        return draw(st.sampled_from(leaves))

    return json.loads(serialize_machine(part(2)))


@st.composite
def odd_universes(draw):
    """The JSON text of a machine document in which one machine, the whole
    or a combined part, holds the empty name, a repeated name, or its names
    in reverse order."""
    doc = draw(machine_documents())
    part = draw(st.sampled_from([value for _, value in nodes(doc) if isinstance(value, dict) and "universe" in value]))
    names = part["universe"]
    odd = [names[:i] + [""] + names[i:] for i in range(len(names) + 1)] + [names + names[-1:]]
    part["universe"] = draw(st.sampled_from(odd + [names[::-1]] * (len(names) > 1)))
    return json.dumps(doc)


def nodes(value, path=()):
    """Every ``(path, value)`` of a JSON tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from nodes(child, path + (i,))


def renamed(value, old, new):
    """A copy of the JSON tree ``value`` with every string ``old`` replaced by ``new``."""
    if isinstance(value, dict):
        return {k: renamed(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [renamed(v, old, new) for v in value]
    return new if value == old else value


def dump(value, extra=None, path=()):
    """JSON text of ``value``; ``extra = (path, key, value, last)`` writes a
    second ``key`` into the object at ``path``, before or after the first."""
    if isinstance(value, dict):
        parts = [f"{json.dumps(k)}: {dump(v, extra, path + (k,))}" for k, v in value.items()]
        if extra is not None and extra[0] == path:
            parts.insert(len(parts) if extra[3] else 0, f"{json.dumps(extra[1])}: {dump(extra[2])}")
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(dump(v, extra, path + (i,)) for i, v in enumerate(value)) + "]"
    return json.dumps(value)


@st.composite
def mutants(draw, documents):
    """The JSON text of a document after one to three mutations."""
    doc = copy.deepcopy(draw(documents))
    extra = None
    for _ in range(draw(st.integers(1, 3))):
        everything = list(nodes(doc))
        path, value = everything[draw(st.integers(0, len(everything) - 1))]
        op = draw(st.sampled_from(["drop", "duplicate", "retype"]))
        if isinstance(value, int) and not isinstance(value, bool) and draw(st.booleans()):
            op = draw(st.sampled_from(["odd-integer", "off-by-one"]))
        if isinstance(value, str) and draw(st.booleans()):  # a name, say, everywhere, holding a lone surrogate
            doc = renamed(doc, value, value[:1] + "\ud800" + value[1:])
            continue
        if isinstance(value, dict) and draw(st.booleans()):  # the same keys and values, reordered
            items = draw(st.permutations(list(value.items())))
            value.clear()
            value.update(items)
            continue
        if not path:  # the root can only be retyped
            if op == "retype":
                doc = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if op == "drop":
            del parent[last]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(value))
        elif op == "duplicate":
            extra = (path[:-1], last, draw(st.sampled_from(OTHER_TYPES + ODD_INTEGERS)), draw(st.booleans()))
        elif op == "retype":
            parent[last] = copy.deepcopy(draw(st.sampled_from(OTHER_TYPES)))
        elif op == "off-by-one":
            parent[last] = draw(st.sampled_from([0, value - 1, value + 1]))
        else:
            parent[last] = draw(st.sampled_from(ODD_INTEGERS))
    return dump(doc, extra)


def assert_fails_closed(text, command):
    """Run ``command`` on ``text``: the argument of a trailing ``--relation``,
    else stdin. Returns the exit code."""
    argv = command + [text if command[-1] == "--relation" else "-"]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2, 3), (argv, text, err.getvalue())
    assert len(errors) == (code in (2, 3)), (argv, text, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, text, err.getvalue())
    for printed in (out.getvalue(), err.getvalue()):
        printed.encode("utf-8")  # raises on text that no terminal could be sent
    return code


def instance_case():
    return given(text=mutants(instance_documents()), command=st.sampled_from(INSTANCE_COMMANDS))


def machine_case():
    return given(text=mutants(machine_documents()), command=st.sampled_from(MACHINE_COMMANDS))


def relation_case():
    return given(text=mutants(relation_documents()), command=st.sampled_from(RELATION_COMMANDS))


def universe_case():
    return given(text=odd_universes(), command=st.sampled_from(MACHINE_COMMANDS))


def fuzz_settings(examples):
    return settings(max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestDocumentFuzzing:
    @fuzz_settings(150)
    @instance_case()
    def test_instance_documents(self, text, command):
        assert_fails_closed(text, command)

    @fuzz_settings(150)
    @machine_case()
    def test_machine_documents(self, text, command):
        assert_fails_closed(text, command)

    @fuzz_settings(150)
    @relation_case()
    def test_relation_documents(self, text, command):
        assert_fails_closed(text, command)

    @fuzz_settings(100)
    @universe_case()
    def test_odd_machine_universes_are_refused(self, text, command):
        assert assert_fails_closed(text, command) == 2

    @pytest.mark.slow
    @fuzz_settings(1500)
    @instance_case()
    def test_instance_documents_at_length(self, text, command):
        assert_fails_closed(text, command)

    @pytest.mark.slow
    @fuzz_settings(1500)
    @machine_case()
    def test_machine_documents_at_length(self, text, command):
        assert_fails_closed(text, command)

    @pytest.mark.slow
    @fuzz_settings(1500)
    @relation_case()
    def test_relation_documents_at_length(self, text, command):
        assert_fails_closed(text, command)

    @pytest.mark.slow
    @fuzz_settings(1000)
    @universe_case()
    def test_odd_machine_universes_are_refused_at_length(self, text, command):
        assert assert_fails_closed(text, command) == 2
