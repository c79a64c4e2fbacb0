"""Round-trip and diagnostics tests for the JSON document layer."""

from __future__ import annotations

import json
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_helpers import atmost_config, instances, machine_config
from paramcsp import (
    PROFILES,
    AffineCost,
    AlwaysReject,
    CapacityError,
    Constraint,
    CostModel,
    CWChecker,
    CWRelation,
    ExplicitRelation,
    GuessCheckMachine,
    Instance,
    InstanceConfig,
    NotApplicableError,
    ValidationError,
    WeightKind,
    WeightParameter,
    WeightSet,
    WRelation,
    parse_instance,
    parse_machine,
    parse_relation,
    reduce_appearance,
    reduce_cw,
    combine_machines,
    lift_kle_to_k,
    random_instance,
    serialize_instance,
    serialize_machine,
    simulate,
    weight_relation,
)
from paramcsp.formats import _require_derived
from paramcsp.machines import _cw_budget

WS1 = WeightSet.finite((1,))

MINIMAL = Instance(
    variables=("x",),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=(Constraint(WRelation(WS1, 1), ("x",)),),
)

POSITIVE_X = Instance(
    variables=("x", "y"),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=(Constraint(WRelation(WS1, 1), ("x",)),),
)

ONE_OF_TWO = Instance(
    variables=("x", "y", "z"),
    weight=WeightParameter(WeightKind.EXACT, 2),
    body=(Constraint(CWRelation(WS1, 1, 2), ("x", "y", "z")),),
)


def edit(text: str, mutate) -> str:
    doc = json.loads(text)
    mutate(doc)
    return json.dumps(doc)


class TestInstanceDocuments:
    def test_minimal_document_shape(self):
        doc = json.loads(serialize_instance(MINIMAL))
        assert doc == {
            "format_version": "1",
            "variables": ["x"],
            "parameter": {"kind": "exact", "k": 1},
            "constraints": [
                {
                    "relation": {
                        "type": "W",
                        "arity": 1,
                        "weights": {"kind": "finite", "values": [1]},
                    },
                    "scope": ["x"],
                }
            ],
        }

    def test_serialization_is_canonical(self):
        text = serialize_instance(MINIMAL)
        assert text.endswith("\n")
        assert serialize_instance(parse_instance(text)) == text

    def test_round_trips_are_byte_identical(self):
        seen = 0
        for corpus, salt in ((machine_config, 24), (atmost_config, 25)):
            for case, inst in instances(50, corpus, salt=salt):
                text = serialize_instance(inst)
                back = parse_instance(text)
                assert back == inst, f"case {case}"
                assert serialize_instance(back) == text, f"case {case}"
                seen += 1
        assert seen == 100

    def test_materialized_weight_becomes_a_constraint(self):
        text = serialize_instance(POSITIVE_X, materialize_weight=True)
        back = parse_instance(text)
        assert len(back.body) == len(POSITIVE_X.body) + 1
        assert back.body[-1].scope == POSITIVE_X.variables
        assert back.body[-1].relation == weight_relation(POSITIVE_X)

    def test_index_written_only_when_overridden(self):
        plain = json.loads(serialize_instance(MINIMAL))
        assert "index" not in plain["constraints"][0]["relation"]
        custom = Instance(
            variables=("x", "y"),
            weight=WeightParameter(WeightKind.EXACT, 1),
            body=(Constraint(WRelation(WS1, 2, index=5), ("x", "y")),),
        )
        doc = json.loads(serialize_instance(custom))
        assert doc["constraints"][0]["relation"]["index"] == 5
        assert parse_instance(serialize_instance(custom)) == custom

    def test_parity_weight_sets_carry_no_values(self):
        inst = Instance(
            variables=("x",),
            weight=WeightParameter(WeightKind.EXACT, 0),
            body=(Constraint(WRelation(WeightSet.even(), 1), ("x",)),),
        )
        doc = json.loads(serialize_instance(inst))
        assert doc["constraints"][0]["relation"]["weights"] == {"kind": "even"}
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize(
        "text,needle",
        [
            ("{", "not valid JSON"),
            pytest.param(
                '{"k": ' + "9" * 5001 + "}",
                "not valid JSON: Exceeds the limit (4300 digits)",
                id="too-many-digits",
            ),
            ("[]", "document: expected an object"),
            ("{}", "document: missing required field 'format_version'"),
        ],
    )
    def test_top_level_diagnostics(self, text, needle):
        with pytest.raises(ValidationError) as err:
            parse_instance(text)
        assert needle in str(err.value)

    def test_unsupported_version(self):
        text = edit(serialize_instance(MINIMAL), lambda d: d.update(format_version="2"))
        with pytest.raises(ValidationError, match="unsupported version '2'"):
            parse_instance(text)

    def test_undeclared_scope_variable_is_named(self):
        text = edit(
            serialize_instance(MINIMAL),
            lambda d: d["constraints"][0].update(scope=["w"]),
        )
        with pytest.raises(
            ValidationError, match=r"constraints\[0\]\.scope\[0\]: undeclared variable 'w'"
        ):
            parse_instance(text)

    def test_member_out_of_range_names_the_relation(self):
        text = edit(
            serialize_instance(MINIMAL),
            lambda d: d["constraints"][0].update(
                relation={"type": "explicit", "arity": 1, "members": [[2]]}
            ),
        )
        with pytest.raises(ValidationError, match=r"constraints\[0\]\.relation"):
            parse_instance(text)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (
                lambda d: d["constraints"][0]["relation"].update(type="X"),
                "unknown relation type 'X'",
            ),
            (
                lambda d: d["constraints"][0]["relation"]["weights"].update(kind="prime"),
                "unknown weight-set kind 'prime'",
            ),
            (lambda d: d["parameter"].update(kind="least"), "unknown kind 'least'"),
            (lambda d: d["parameter"].update(k=-1), "parameter.k: expected an integer >= 0"),
            (
                lambda d: d["constraints"][0].update(scope="x"),
                r"constraints[0].scope: expected a list",
            ),
            (lambda d: d["variables"].append(7), "variables[1]: expected a string"),
        ],
    )
    def test_field_diagnostics(self, mutate, needle):
        text = edit(serialize_instance(MINIMAL), mutate)
        with pytest.raises(ValidationError) as err:
            parse_instance(text)
        assert needle in str(err.value)

    def test_instance_level_failures_are_wrapped(self):
        text = edit(serialize_instance(MINIMAL), lambda d: d["variables"].append("x"))
        with pytest.raises(ValidationError, match="^document: "):
            parse_instance(text)

    def test_parse_relation_standalone(self):
        rel = parse_relation('{"type": "W", "weights": {"kind": "finite", "values": [1]}, "arity": 2}')
        assert rel == WRelation(WS1, 2)

    def test_parse_relation_diagnostics(self):
        with pytest.raises(ValidationError, match="relation.type"):
            parse_relation('{"type": "Q"}')

    def test_deep_nesting_is_a_validation_error(self):
        depth = 200_000
        with pytest.raises(ValidationError, match="nests too deeply"):
            parse_instance("[" * depth + "]" * depth)

    def test_a_relation_of_no_known_type_is_refused(self):
        class OddWeight:
            """Duck-typed like a relation, but of no type a document can name."""

            arity = index = 1

            def _contains(self, positions):
                return len(positions) % 2 == 1

        inst = Instance(("x",), WeightParameter(WeightKind.EXACT, 1), (Constraint(OddWeight(), ("x",)),))
        with pytest.raises(ValidationError, match="^unknown relation type OddWeight$"):
            serialize_instance(inst)


REJECT_ALL = Instance(
    ("x", "y", "z"),
    WeightParameter(WeightKind.EXACT, 1),
    tuple(Constraint(WRelation(WS1, 1), (v,)) for v in ("x", "y", "z")),
)


def machines_under_test():
    reject = reduce_appearance(REJECT_ALL)
    appearance = reduce_appearance(POSITIVE_X)
    cw = reduce_cw(ONE_OF_TWO)
    return [
        pytest.param(reject, id="always-reject"),
        pytest.param(appearance, id="appearance"),
        pytest.param(cw, id="cw"),
        pytest.param(combine_machines(appearance, appearance), id="combined"),
    ]


class TestMachineDocuments:
    @pytest.mark.parametrize("machine", machines_under_test())
    def test_round_trips_are_byte_identical(self, machine):
        text = serialize_machine(machine)
        back = parse_machine(text)
        assert back == machine
        assert serialize_machine(back) == text

    @pytest.mark.parametrize("machine", machines_under_test())
    def test_parsed_machines_simulate_identically(self, machine):
        assert simulate(parse_machine(serialize_machine(machine))) == simulate(machine)

    def test_parsed_corpus_machines_simulate_identically(self):
        for case, inst in instances(20, machine_config, salt=26):
            m = reduce_appearance(inst)
            assert simulate(parse_machine(serialize_machine(m))) == simulate(m), f"case {case}"

    def test_cw_rows_are_sorted_and_typed(self):
        doc = json.loads(serialize_machine(reduce_cw(ONE_OF_TWO)))
        rows = doc["machine"]["tables"]
        assert rows == sorted(rows, key=lambda r: (r["head"], r["tail"]))
        for row in rows:
            if row["tail"]:
                assert "max_positions" in row
            else:
                assert "max_positions" not in row

    def test_duplicate_table_rows_rejected(self):
        def dup(d):
            d["machine"]["tables"].append(dict(d["machine"]["tables"][-1]))

        text = edit(serialize_machine(reduce_cw(ONE_OF_TWO)), dup)
        with pytest.raises(ValidationError, match="duplicate table key"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "row, needle",
        [
            ({"head": ["zz"], "tail": [], "count": 1}, "head[0]: undeclared variable 'zz'"),
            ({"head": ["x"], "tail": ["y", "zz"], "count": 0, "max_positions": 0}, "tail[1]: undeclared variable 'zz'"),
        ],
        ids=["head", "tail"],
    )
    def test_cw_table_names_outside_the_universe(self, row, needle):
        # Such a row was once parsed, and simulate answered as if it were absent.
        doc = json.loads(serialize_machine(reduce_cw(ONE_OF_TWO)))
        rows = doc["machine"]["tables"]
        rows.append(row)
        with pytest.raises(ValidationError) as err:
            parse_machine(json.dumps(doc))
        assert str(err.value) == f"machine.tables[{len(rows) - 1}].{needle}"

    @pytest.mark.parametrize(
        "delta_sizes, lambda_caps, needle",
        [
            pytest.param(
                {(frozenset("x"), frozenset("y")): 1},
                {},
                "table key (head ['x'], tail ['y']): a tail row needs both a count and a cap",
                id="count-without-cap",
            ),
            pytest.param(
                {},
                {(frozenset("x"), frozenset("y")): 2},
                "table key (head ['x'], tail ['y']): a tail row needs both a count and a cap",
                id="cap-without-count",
            ),
            pytest.param(
                {(frozenset(), frozenset()): 3},
                {(frozenset(), frozenset()): 0},
                "table key (head [], tail []): a count or cap needs a nonempty tail",
                id="empty-tail",
            ),
        ],
    )
    def test_cw_tables_without_a_document_form_are_refused(self, delta_sizes, lambda_caps, needle):
        # Each table once wrote a document that parsed back as another machine,
        # or raised KeyError: the cap alone was dropped, so the machine below,
        # which rejects {x, y}, came back accepting it, and the empty tail's
        # count came back as delta_empty, turning an accept into a reject.
        checker = CWChecker(
            b=1, delta_sizes=delta_sizes, lambda_caps=lambda_caps, delta_empty={}, sum_bound=6
        )
        machine = GuessCheckMachine(("x", "y"), 2, _cw_budget(2, 1), checker)
        with pytest.raises(ValidationError) as err:
            serialize_machine(machine)
        assert str(err.value) == needle

    def test_combined_parts_must_share_the_universe(self):
        m = reduce_appearance(POSITIVE_X)
        text = edit(
            serialize_machine(combine_machines(m, m)),
            lambda d: d["machine"]["first"].update(universe=["x", "y", "z"]),
        )
        with pytest.raises(ValidationError, match="disagree on the universe"):
            parse_machine(text)

    def test_combined_parts_must_share_the_guess_bound(self):
        # Every part guesses exactly k0 names, so a part that would guess at
        # most k0 is refused at its own field.
        m = reduce_appearance(POSITIVE_X)
        text = edit(
            serialize_machine(combine_machines(m, m)),
            lambda d: d["machine"]["second"].update(exact=False),
        )
        with pytest.raises(
            ValidationError, match=r"^machine\.second\.exact: false is not the exact true every machine has$"
        ):
            parse_machine(text)

    def test_appearance_scope_outside_the_universe(self):
        text = edit(
            serialize_machine(reduce_appearance(POSITIVE_X)),
            lambda d: d["machine"]["constraints"][0].update(scope=["w"]),
        )
        with pytest.raises(
            ValidationError,
            match=r"^machine\.constraints\[0\]\.scope\[0\]: undeclared variable 'w'",
        ):
            parse_machine(text)

    def test_occurrence_index_beyond_constraint_count(self):
        text = edit(
            serialize_machine(reduce_appearance(POSITIVE_X)),
            lambda d: d["machine"]["e_v"].update(x=[2]),
        )
        with pytest.raises(ValidationError, match=r'e_v: \{"x": \[2\]\} is not the e_v'):
            parse_machine(text)

    def test_empty_rejector_index_beyond_constraint_count(self):
        text = edit(
            serialize_machine(reduce_appearance(POSITIVE_X)),
            lambda d: d["machine"].update(d_set=[3]),
        )
        with pytest.raises(ValidationError, match=r"d_set: \[3\] is not the d_set \[1\]"):
            parse_machine(text)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (lambda d: d["machine"].update(kind="turing"), "unknown machine kind 'turing'"),
            (lambda d: d["machine"].update(budget=-1), "machine.budget: expected an integer >= 0"),
            (lambda d: d["machine"].update(exact="yes"), "machine.exact: expected a boolean"),
            (
                lambda d: d["machine"].update(e_v={}),
                'machine.e_v: {} is not the e_v {"x": [1]} its constraints imply',
            ),
            (
                lambda d: d["machine"].update(budget=1),
                "machine.budget: 1 is not the budget 6 its checker implies",
            ),
            (
                lambda d: d["machine"]["e_v"].update(x=[True]),
                "machine.e_v.x[0]: expected an integer, got bool",
            ),
        ],
    )
    def test_field_diagnostics(self, mutate, needle):
        text = edit(serialize_machine(reduce_appearance(POSITIVE_X)), mutate)
        with pytest.raises(ValidationError) as err:
            parse_machine(text)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "machine,mutate,needle",
        [
            pytest.param(
                reduce_cw(ONE_OF_TWO),
                lambda d: d["machine"].update(b=2),
                "machine.budget: 94 is not the budget 114 its checker implies",
                id="cw-b",
            ),
            pytest.param(
                reduce_appearance(REJECT_ALL),
                lambda d: d["machine"].update(budget=7),
                "machine.budget: 7 is not the budget 0 its checker implies",
                id="always-reject-budget",
            ),
            pytest.param(
                reduce_appearance(POSITIVE_X),
                lambda d: d["machine"].update(
                    universe=["x", "y", "z"],
                    constraints=[d["machine"]["constraints"][0] | {"scope": [v]} for v in "xyz"],
                ),
                "machine.kind: its constraints admit no guess",
                id="appearance-that-rejects-at-build",
            ),
            pytest.param(
                combine_machines(reduce_appearance(POSITIVE_X), reduce_appearance(POSITIVE_X)),
                lambda d: d["machine"].update(budget=12),
                "machine.budget: 12 is not the budget 13 its checker implies",
                id="combined-budget",
            ),
            pytest.param(
                combine_machines(reduce_appearance(POSITIVE_X), reduce_appearance(POSITIVE_X)),
                lambda d: d["machine"].update(universe=["x", "y", "z"]),
                'machine.universe: ["x", "y", "z"] is not the universe ["x", "y"] its parts share',
                id="combined-universe",
            ),
        ],
    )
    def test_derived_fields_come_from_the_builders(self, machine, mutate, needle):
        text = edit(serialize_machine(machine), mutate)
        with pytest.raises(ValidationError) as err:
            parse_machine(text)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            pytest.param(
                lambda d: d["machine"].update(sum_bound=1),
                "machine.sum_bound: 1 is below 2, the least bound its tables allow",
                id="sum-bound",
            ),
            pytest.param(
                lambda d: d["machine"]["tables"][1].update(count=3),
                "machine.tables[1].count: 3 exceeds 2, the count of its head's empty tail",
                id="tail-count",
            ),
            pytest.param(
                lambda d: d["machine"]["tables"].pop(0),
                "machine.tables[0].count: 1 exceeds 0, the count of its head's empty tail",
                id="missing-empty-tail",
            ),
        ],
    )
    def test_cw_tables_keep_partial_sums_in_their_bound(self, mutate, needle):
        # Two unit tails: the empty head counts 2 constraints, each tail 1.
        unit_tails = Instance(
            ("x", "y"),
            WeightParameter(WeightKind.EXACT, 1),
            tuple(Constraint(CWRelation(WS1, 0, 1), (v,)) for v in ("x", "y")),
        )
        text = edit(serialize_machine(reduce_cw(unit_tails)), mutate)
        with pytest.raises(ValidationError) as err:
            parse_machine(text)
        assert str(err.value) == needle

    def test_affine_cost_model_round_trips(self):
        m = reduce_appearance(POSITIVE_X, CostModel(2, AffineCost(3, 1)))
        back = parse_machine(serialize_machine(m))
        assert back == m
        assert back.checker.cost_model == CostModel(2, AffineCost(3, 1))

    def test_integers_too_long_to_print_are_a_capacity_fault(self):
        huge = GuessCheckMachine(("a",), 1, 10**5000, AlwaysReject())
        with pytest.raises(CapacityError, match="cannot write the document"):
            serialize_machine(huge)
        with pytest.raises(CapacityError, match="cannot write the document"):
            _require_derived(0, 10**5000, "machine.budget", "its checker implies")

    def test_a_checker_of_no_known_type_is_refused(self):
        class AcceptAll:
            def check(self, combo, steps):
                return True, steps

        with pytest.raises(ValidationError, match="^unknown checker type AcceptAll$"):
            serialize_machine(GuessCheckMachine(("a",), 1, 0, AcceptAll()))

    def test_combined_nesting_at_the_bound_round_trips(self):
        m = reduce_appearance(POSITIVE_X)
        nested = reduce(combine_machines, [m] * 65)  # 64 levels
        assert parse_machine(serialize_machine(nested)) == nested

    def test_combined_nesting_past_the_bound_is_refused_before_its_parts(self):
        m = reduce_appearance(POSITIVE_X)
        nested = reduce(combine_machines, [m] * 65)  # 64 levels
        leaf = json.loads(serialize_machine(m))["machine"]

        def wrap(d):
            inner = d["machine"]
            d["machine"] = dict(inner, first=inner, second=leaf, budget=inner["budget"] + leaf["budget"] + 1)

        with pytest.raises(CapacityError) as err:
            parse_machine(edit(serialize_machine(nested), wrap))
        assert str(err.value) == "machine" + ".first" * 64 + ": combined machines nest more than 64 deep"


# Each retyped field takes every one of these values whose JSON type differs.
RETYPES = (None, True, -1, "x", [], {})

MIXED = Instance(
    variables=("x", "y", "z"),
    weight=WeightParameter(WeightKind.ATMOST, 2),
    body=(
        Constraint(WRelation(WS1, 1), ("x",)),
        Constraint(CWRelation(WeightSet.finite((1, 2)), 1, 2), ("x", "y", "z")),
        Constraint(ExplicitRelation(2, ((1,), (1, 2)), index=5), ("y", "z")),
    ),
)


def field_steps(value, steps=()):
    """Every ``(steps, value)`` inside a parsed JSON document, the root first."""
    yield steps, value
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from field_steps(item, steps + (key,))


def reader_path(steps):
    """The path a parse error names: top-level keys bare, the root and its
    ``format_version`` under ``document``."""
    if steps in ((), ("format_version",)):
        return ".".join(("document", *steps))
    return steps[0] + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in steps[1:])


def retyped(doc, steps, value):
    if not steps:
        return json.dumps(value)
    copy = json.loads(json.dumps(doc))
    target = copy
    for key in steps[:-1]:
        target = target[key]
    target[steps[-1]] = value
    return json.dumps(copy)


def documents_to_retype():
    appearance = reduce_appearance(POSITIVE_X, CostModel(2, AffineCost(3, 1)))
    cw = reduce_cw(ONE_OF_TWO)
    return [
        pytest.param(serialize_instance(MIXED), parse_instance, id="instance"),
        pytest.param(serialize_machine(appearance), parse_machine, id="appearance"),
        pytest.param(serialize_machine(cw), parse_machine, id="cw"),
        pytest.param(
            serialize_machine(combine_machines(reduce_appearance(ONE_OF_TWO), cw)),
            parse_machine,
            id="combined",
        ),
    ]


class TestRetypedFields:
    @pytest.mark.parametrize("text, parse", documents_to_retype())
    def test_every_retyped_field_is_refused_at_its_path(self, text, parse):
        doc = json.loads(text)
        assert parse(text) is not None
        wrong = []
        for steps, old in field_steps(doc):
            path = reader_path(steps)
            for new in RETYPES:
                if type(new) is type(old):
                    continue
                try:
                    parse(retyped(doc, steps, new))
                except (ValidationError, CapacityError) as exc:
                    if str(exc).startswith(f"{path}: "):
                        continue
                    got = f"{type(exc).__name__}: {exc}"
                except Exception as exc:  # anything else escapes the CLI as a traceback
                    got = f"{type(exc).__name__}: {exc}"
                else:
                    got = "parsed"
                wrong.append(f"{path} = {json.dumps(new)} -> {got}")
        assert wrong == []


def assert_round_trip(obj, serialize, parse):
    text = serialize(obj)
    back = parse(text)
    assert back == obj
    assert serialize(back) == text


class TestRoundTripProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(PROFILES),
        n=st.integers(1, 6),
        k0=st.integers(0, 3),
        body=st.integers(0, 4),
        atmost=st.booleans(),
        cw_bound=st.integers(0, 2),
    )
    def test_documents_round_trip(self, seed, profile, n, k0, body, atmost, cw_bound):
        cfg = InstanceConfig(
            n=n, k0=k0, profile=profile, body_len=body, atmost=atmost, cw_bound=cw_bound
        )
        inst = random_instance(seed, cfg)
        assert_round_trip(inst, serialize_instance, parse_instance)
        lifted = lift_kle_to_k(inst) if atmost else inst
        appearance = reduce_appearance(lifted)
        machines = [appearance, combine_machines(appearance, appearance)]
        try:
            cw = reduce_cw(lifted)
        except NotApplicableError:
            pass
        else:
            machines += [cw, combine_machines(appearance, cw)]
        for machine in machines:
            assert_round_trip(machine, serialize_machine, parse_machine)
