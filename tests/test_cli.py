"""End-to-end tests for the console entry point.

Everything runs in-process through :func:`paramcsp.cli.run` so exit codes and
output can be asserted without spawning subprocesses; only the closed-pipe
exit of :func:`paramcsp.cli.main` needs a child process with a real pipe.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paramcsp
from corpus_helpers import seed_for
from paramcsp import (
    PROFILES,
    BudgetExceededError,
    CapacityError,
    Constraint,
    CWRelation,
    ExplicitRelation,
    Instance,
    InstanceConfig,
    NotApplicableError,
    ParamCSPError,
    SimulationResult,
    ValidationError,
    WeightKind,
    WeightParameter,
    WeightSet,
    WRelation,
    brute_force_solve,
    combine_machines,
    explicitize_w_body,
    parse_instance,
    parse_machine,
    completion_reduction,
    random_instance,
    reduce_appearance,
    reduce_cw,
    satisfies,
    serialize_instance,
    serialize_machine,
)
from paramcsp.cli import (
    EXIT_NOT_APPLICABLE,
    EXIT_SAT,
    EXIT_UNSAT,
    EXIT_USAGE,
    VERIFY_METHODS,
    _decide,
    run,
)

WS1 = WeightSet.finite((1,))

POSITIVE_X = Instance(
    variables=("x", "y"),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=(Constraint(WRelation(WS1, 1), ("x",)),),
)

# "x is chosen" plus "if x then y" is contradictory at weight exactly 1.
HORN_UNSAT = Instance(
    variables=("x", "y"),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=(
        Constraint(CWRelation(WS1, 1, 1), ("x", "y")),
        Constraint(WRelation(WS1, 1), ("x",)),
    ),
)

ONE_OF_TWO = Instance(
    variables=("x", "y", "z"),
    weight=WeightParameter(WeightKind.EXACT, 2),
    body=(Constraint(CWRelation(WS1, 1, 2), ("x", "y", "z")),),
)

# Each of x, y, z must be chosen, but only one name is: the appearance
# machine rejects at build time.
ALL_THREE = Instance(
    variables=("x", "y", "z"),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=tuple(Constraint(WRelation(WS1, 1), (v,)) for v in "xyz"),
)

# Weight 0 on x: at exactly 1, only {y} is a witness.
ZERO_ON_X = Instance(
    variables=("x", "y"),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=(Constraint(WRelation(WeightSet.finite((0,)), 1), ("x",)),),
)

CHOOSE_U = Instance(
    variables=("u", "v"),
    weight=WeightParameter(WeightKind.EXACT, 1),
    body=(Constraint(ExplicitRelation(2, ((1,),)), ("u", "v")),),
)


@pytest.fixture
def doc(tmp_path):
    def write(inst, name="inst.json", **kwargs):
        path = tmp_path / name
        path.write_text(serialize_instance(inst, **kwargs), encoding="utf-8")
        return str(path)

    return write


def lines(capsys):
    out, _ = capsys.readouterr()
    return out.splitlines()


class TestSolve:
    def test_brute_witness(self, doc, capsys):
        assert run(["solve", doc(POSITIVE_X)]) == EXIT_SAT
        assert lines(capsys) == ["WITNESS x"]

    def test_brute_unsat(self, doc, capsys):
        assert run(["solve", doc(HORN_UNSAT)]) == EXIT_UNSAT
        assert lines(capsys) == ["UNSAT"]

    def test_fpt_kue(self, doc, capsys):
        assert run(["solve", doc(POSITIVE_X), "--method", "fpt-kue"]) == EXIT_SAT
        assert lines(capsys) == ["WITNESS x"]

    def test_fpt_kt_rejects_zero_in_the_weight_set(self, doc, capsys):
        inst = Instance(
            variables=("x",),
            weight=WeightParameter(WeightKind.EXACT, 1),
            body=(Constraint(WRelation(WeightSet.even(), 1), ("x",)),),
        )
        assert run(["solve", doc(inst), "--method", "fpt-kt"]) == EXIT_NOT_APPLICABLE
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    def test_cw_machine_with_budget_report(self, doc, capsys):
        code = run(["solve", doc(ONE_OF_TWO), "--method", "cw-machine", "--budget-report"])
        assert code == EXIT_SAT
        assert lines(capsys) == [
            "WITNESS x y",
            "budget: 94",
            "max-branch-steps: 94",
            "branches-explored: 1",
        ]

    def test_cw_machine_lifts_atmost_instances(self, doc, capsys):
        inst = Instance(
            variables=("x", "y"),
            weight=WeightParameter(WeightKind.ATMOST, 1),
            body=(Constraint(CWRelation(WS1, 1, 1), ("x", "y")),),
        )
        assert run(["solve", doc(inst), "--method", "cw-machine"]) == EXIT_SAT
        out, err = capsys.readouterr()
        # The padded witness projects back to the empty set of originals.
        assert out.splitlines() == ["WITNESS"]
        assert "lifting the at-most bound" in err

    def test_completion_pipeline_infers_the_bound(self, doc, capsys):
        assert run(["solve", doc(POSITIVE_X), "--method", "completion-pipeline"]) == EXIT_SAT
        assert lines(capsys) == ["WITNESS x"]

    def test_completion_pipeline_lifts_atmost_instances(self, doc, capsys):
        # It once refused the at-most bound (exit 3) that brute force decides.
        path = doc(replace(POSITIVE_X, weight=WeightParameter(WeightKind.ATMOST, 1)))
        for method in ("brute", "completion-pipeline"):
            assert run(["solve", path, "--method", method]) == EXIT_SAT
            assert lines(capsys) == ["WITNESS x"]

    def test_completion_pipeline_agrees_with_brute_force_on_atmost_instances(self):
        for case in range(60):
            cfg = InstanceConfig(
                n=2 + case % 5, k0=case % 3, profile="w-finite", body_len=1 + case % 3,
                max_arity=1 + case % 2, finite_values=(1,), atmost=True,
            )
            inst = random_instance(seed_for(case, 41), cfg)
            want = brute_force_solve(inst)
            got, _ = _decide("completion-pipeline", inst)
            assert (got is None) == (want is None), case
            assert got is None or satisfies(inst, got), case

    def test_unknown_method(self, doc, capsys):
        assert run(["solve", doc(POSITIVE_X), "--method", "oracle"]) == EXIT_USAGE

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert run(["solve", str(bad)]) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    def test_deeply_nested_document(self, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert run(["solve", str(deep)]) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert "nests too deeply" in err

    def test_unreadable_path(self, tmp_path, capsys):
        assert run(["solve", str(tmp_path / "missing.json")]) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert "cannot read" in err

    def test_exact_k_beyond_the_index_range(self, tmp_path, capsys):
        # combinations() cannot take k = 2**63; the guess enumeration must not reach it.
        text = serialize_instance(Instance(("a", "b"), WeightParameter(WeightKind.EXACT, 2**63)))
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        assert run(["solve", str(path), "--method", "brute"]) == EXIT_UNSAT
        machine_path = tmp_path / "m.json"
        assert run(["reduce", str(path), "--to", "appearance", "--out", str(machine_path)]) == EXIT_SAT
        assert run(["simulate", str(machine_path)]) == EXIT_UNSAT
        out, err = capsys.readouterr()
        assert out.splitlines() == ["UNSAT", "REJECT"]
        assert err == ""

    def test_pipeline_bound_above_the_partial_capacity(self, doc, capsys):
        path = doc(CHOOSE_U)
        solve = ["solve", path, "--method", "completion-pipeline", "--bound", "13"]
        assert run(solve) == EXIT_NOT_APPLICABLE
        assert run(["reduce", path, "--to", "w-cw", "--bound", "13"]) == EXIT_NOT_APPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the member-size bound 13 is above the exhaustive bound 12\n" * 2

    def test_wide_relation_is_refused_before_its_members_are_listed(self, doc, capsys):
        # W{10} of arity 20 has 184,756 members, none of which is built.
        names = tuple(f"v{i:02d}" for i in range(20))
        wide = Instance(names, WeightParameter(WeightKind.EXACT, 10),
                        (Constraint(WRelation(WeightSet.finite((10,)), 20), names),))
        path = doc(wide)
        solve = ["solve", path, "--method", "completion-pipeline", "--bound", "10"]
        assert run(solve) == EXIT_NOT_APPLICABLE
        assert run(["reduce", path, "--to", "w-cw", "--bound", "10"]) == EXIT_NOT_APPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: arity 20 above the exhaustive bound 12\n" * 2

    def test_cw_machine_refuses_a_guess_it_could_never_scan(self, tmp_path, capsys):
        # 2**k0 heads per branch: a budget of 2**(2**63) is never computed.
        path = tmp_path / "big.json"
        path.write_text(
            serialize_instance(Instance(("a", "b"), WeightParameter(WeightKind.EXACT, 2**63))),
            encoding="utf-8",
        )
        assert run(["solve", str(path), "--method", "cw-machine"]) == EXIT_NOT_APPLICABLE
        assert run(["reduce", str(path), "--to", "cw"]) == EXIT_NOT_APPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: guess size {2**63} above the conditional-weight bound 65536\n" * 2

    def test_cw_budget_too_long_to_print_is_priced_at_once(self, tmp_path, capsys):
        path = str(tmp_path / "wide.json")
        gen = ["gen", "--n", "15000", "--k0", "15000", "--body", "0", "--profile", "cw"]
        assert run(gen + ["--out", path]) == EXIT_SAT
        assert run(["reduce", path, "--to", "cw"]) == EXIT_NOT_APPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write the document: Exceeds the limit (4300 digits)")

    def test_reads_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(serialize_instance(POSITIVE_X)))
        assert run(["solve", "-"]) == EXIT_SAT
        assert lines(capsys) == ["WITNESS x"]


def _limit_child_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def cli_child(args, timeout=60):
    """Run the console script in a child process, so a command that hangs
    fails its test after ``timeout`` seconds instead of stalling the run, and
    one that allocates without bound fails at 1 GiB of address space."""
    return subprocess.run(
        [sys.executable, "-m", "paramcsp.cli", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=timeout,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__))},
        preexec_fn=_limit_child_memory,
    )


# Exactly 2**63 of two variables, one of which must be chosen.
HUGE_K = Instance(("a", "b"), WeightParameter(WeightKind.EXACT, 2**63), (Constraint(WRelation(WS1, 1), ("a",)),))


class TestTextThatIsNotUTF8:
    @pytest.mark.parametrize("command", [["stats"], ["solve"], ["simulate"]])
    def test_a_file_that_is_not_utf8_is_refused(self, command, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(command + [str(path)]) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert err == f"error: cannot read {path}: not UTF-8 text (byte 0)\n"

    @pytest.mark.parametrize(
        "command", [["stats"], ["solve"], ["solve", "--method", "fpt-kue"], ["reduce", "--to", "appearance"]]
    )
    def test_an_instance_name_holding_a_lone_surrogate_is_refused(self, command, tmp_path, capsys):
        # JSON can escape a lone surrogate, but no output could print it.
        path = tmp_path / "inst.json"
        path.write_text(serialize_instance(POSITIVE_X).replace('"x"', '"\\ud800"'), encoding="utf-8")
        assert run(command + [str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: variables[0]: name '\\ud800' is not UTF-8 text\n")

    def test_a_machine_universe_name_holding_a_lone_surrogate_is_refused(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        text = serialize_machine(reduce_appearance(POSITIVE_X)).replace('"x"', '"\\udcff"')
        path.write_text(text, encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: machine.universe[0]: name '\\udcff' is not UTF-8 text\n")


class TestHugeGuessesFinish:
    """Each command on a k = 2**63 input answers from closed forms or refuses
    before any loop or power that grows with k."""

    def test_completion_refuses_the_reduced_guess(self, doc):
        path = doc(HUGE_K)
        want = f"error: reduced guess size {2**63} + 2**{2**63} above the conditional-weight bound 65536\n"
        for args in (["reduce", path, "--to", "w-cw"], ["solve", path, "--method", "completion-pipeline"]):
            done = cli_child(args)
            assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)

    def test_appearance_machine_is_priced_at_once(self, doc, tmp_path):
        machine = str(tmp_path / "m.json")
        done = cli_child(["reduce", doc(HUGE_K), "--to", "appearance", "--out", machine])
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_SAT, "", "")
        done = cli_child(["simulate", machine])
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_UNSAT, "REJECT\n", "")

    def test_cw_document_with_a_huge_tail_bound_is_refused(self, tmp_path):
        machine = json.loads(serialize_machine(reduce_cw(ONE_OF_TWO)))
        machine["machine"].update(k0=2**63, b=10**6)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine), encoding="utf-8")
        done = cli_child(["simulate", str(path)])
        want = f"error: guess size {2**63} above the conditional-weight bound 65536\n"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)


    def test_lifting_a_huge_atmost_bound_is_refused(self, doc):
        path = doc(Instance(HUGE_K.variables, WeightParameter(WeightKind.ATMOST, 2**63), HUGE_K.body))
        want = (
            "note: lifting the at-most bound to an exact one with padding variables\n"
            f"error: at-most bound {2**63} above the padding bound 65536\n"
        )
        for args in (["solve", path, "--method", "cw-machine"], ["reduce", path, "--to", "appearance"]):
            done = cli_child(args)
            assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)

    @pytest.mark.parametrize("k0", [10**9, 2**63])
    def test_fpt_methods_walk_only_reachable_atmost_weights(self, doc, k0):
        # Listing every weight up to k0 once ended in exit 4 (OverflowError)
        # at 2**63 and exit 3 (MemoryError) at 10**9.
        body = (Constraint(WRelation(WS1, 1), ("x",)),)
        path = doc(Instance(("x", "y", "z"), WeightParameter(WeightKind.ATMOST, k0), body))
        for method in ("fpt-kue", "fpt-kt"):
            done = cli_child(["solve", path, "--method", method])
            assert (done.returncode, done.stdout, done.stderr) == (EXIT_SAT, "WITNESS x\n", "")

    def test_appearance_document_with_a_huge_exponent_is_refused(self, tmp_path):
        # Arity 3 gives index 3, whose factor ceil_log2(4) ** exponent is computed at parse.
        clause = Constraint(WRelation(WS1, 3), ("x", "y", "z"))
        inst = Instance(("x", "y", "z"), WeightParameter(WeightKind.EXACT, 1), (clause,))
        machine = json.loads(serialize_machine(reduce_appearance(inst)))
        machine["machine"]["cost_model"]["exponent"] = 2**63
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine), encoding="utf-8")
        done = cli_child(["simulate", str(path)])
        want = f"error: index factor 2**{2**63} above the bound of 65536 bits\n"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)


class TestLongConditionalWeightGuessesFinish:
    """``simulate`` walks the prefixes of a 20,000-name guess one name per
    level, without recursion: prefix states that each held their whole
    prefix once ended in exit 3 (MemoryError) under the 1 GiB limit, and a
    recursive walk would pass Python's recursion limit."""

    def test_cw_machine_answers_unsat(self, tmp_path):
        path = tmp_path / "inst.json"
        gen = "--seed 3 --n 20000 --k0 20000 --profile cw --body 40 --cw-bound 2"
        done = cli_child(["gen", *gen.split(), "--out", str(path)])
        assert (done.returncode, done.stderr) == (EXIT_SAT, "")
        done = cli_child(["solve", str(path), "--method", "cw-machine"])
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_UNSAT, "UNSAT\n", "")


class TestLongAppearanceGuessesFinish:
    """The appearance checker's state of a prefix is its count of touched
    names: states that each held the prefix's touched names, on a 20,000-name
    guess touching every name, ended in exit 3 (MemoryError) under the 1 GiB
    limit."""

    def test_appearance_machine_rejects(self, tmp_path):
        path, machine = str(tmp_path / "inst.json"), str(tmp_path / "m.json")
        gen = "--seed 3 --n 20000 --k0 20000 --profile w-finite --body 2 --materialize-weight-constraint"
        done = cli_child(["gen", *gen.split(), "--out", path])
        assert (done.returncode, done.stderr) == (EXIT_SAT, "")
        done = cli_child(["reduce", path, "--to", "appearance", "--out", machine])
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_SAT, "", "")
        done = cli_child(["simulate", machine])
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_UNSAT, "REJECT\n", "")


class TestWideConditionalWeightGuessesFinish:
    """A conditional-weight guess of 30 names walks only its stored table
    entries; listing its ``2**30`` subsets once ended in exit 3 (MemoryError)."""

    @pytest.mark.parametrize("gen", [
        "--seed 1 --n 30 --k0 30 --profile cw --body 2 --cw-bound 1",  # 3 keyed names
        "--seed 2 --n 30 --k0 30 --profile cw --body 60 --cw-bound 2",  # all 30 keyed
    ])
    def test_cw_machine_answers_like_brute_force(self, gen, tmp_path):
        path = tmp_path / "inst.json"
        done = cli_child(["gen", *gen.split(), "--out", str(path)])
        assert (done.returncode, done.stderr) == (EXIT_SAT, "")
        for method in ("cw-machine", "brute"):
            done = cli_child(["solve", str(path), "--method", method], timeout=10)
            assert (done.returncode, done.stdout, done.stderr) == (EXIT_UNSAT, "UNSAT\n", ""), method


class TestReduceAndSimulate:
    def test_reduce_appearance_to_stdout(self, doc, capsys):
        assert run(["reduce", doc(POSITIVE_X), "--to", "appearance"]) == EXIT_SAT
        out, _ = capsys.readouterr()
        assert parse_machine(out) == reduce_appearance(POSITIVE_X)

    def test_reduce_then_simulate(self, doc, tmp_path, capsys):
        machine_path = tmp_path / "m.json"
        code = run(["reduce", doc(POSITIVE_X), "--to", "appearance", "--out", str(machine_path)])
        assert code == EXIT_SAT
        assert run(["simulate", str(machine_path), "--budget-report"]) == EXIT_SAT
        assert lines(capsys) == [
            "ACCEPT",
            "WITNESS x",
            "budget: 6",
            "max-branch-steps: 6",
            "branches-explored: 1",
        ]

    def test_simulate_reject(self, tmp_path, capsys):
        path = tmp_path / "reject.json"
        path.write_text(serialize_machine(reduce_appearance(ALL_THREE)), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_UNSAT
        assert lines(capsys) == ["REJECT"]

    def test_a_combined_machine_with_an_always_reject_part_rejects(self, tmp_path, capsys):
        # Its branch on {x} once overran the budget by k0 and exited 4; the
        # budget that parts used to imply is now refused.
        one = WeightParameter(WeightKind.EXACT, 1)
        cw = reduce_cw(Instance(("x", "y"), one, (Constraint(CWRelation(WS1, 0, 1), ("x",)),)))
        reject = reduce_appearance(Instance(("x", "y"), one, tuple(Constraint(WRelation(WS1, 1), (v,)) for v in "xyx")))
        doc = json.loads(serialize_machine(combine_machines(cw, reject)))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["simulate", str(path), "--budget-report"]) == EXIT_UNSAT
        assert lines(capsys) == ["REJECT", "budget: 23", "max-branch-steps: 23", "branches-explored: 2"]
        doc["machine"]["budget"] = 22
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: machine.budget: 22 is not the budget 23 its checker implies\n")

    def test_reduce_cw_on_clauses_is_not_applicable(self, doc, capsys):
        assert run(["reduce", doc(POSITIVE_X), "--to", "cw"]) == EXIT_NOT_APPLICABLE
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    def test_reduce_w_cw_matches_the_library(self, doc, capsys):
        assert run(["reduce", doc(CHOOSE_U), "--to", "w-cw"]) == EXIT_SAT
        out, _ = capsys.readouterr()
        want = completion_reduction(explicitize_w_body(CHOOSE_U, 1), 1).instance
        assert out == serialize_instance(want)
        assert parse_instance(out) == want

    def test_simulate_rejects_scopes_outside_the_universe(self, tmp_path, capsys):
        machine = json.loads(serialize_machine(reduce_appearance(POSITIVE_X)))
        machine["machine"]["constraints"][0]["scope"] = ["w"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert err.startswith("error: machine.constraints[0].scope[0]: undeclared variable")

    @pytest.mark.parametrize(
        "field,value,needle",
        [
            ("e_v", {}, 'machine.e_v: {} is not the e_v {"x": [1]} its constraints imply'),
            ("budget", 1, "machine.budget: 1 is not the budget 6 its checker implies"),
        ],
    )
    def test_simulate_refuses_fields_its_builder_did_not_derive(
        self, tmp_path, capsys, field, value, needle
    ):
        # The only constraint admits weight 0 on x, so the machine accepts {y};
        # without its e_v entry the forged machine would accept {x} as well.
        machine = json.loads(serialize_machine(reduce_appearance(ZERO_ON_X)))
        machine["machine"][field] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {needle}\n"

    @pytest.mark.parametrize(
        "machine,keys",
        [
            (reduce_appearance(ALL_THREE), ()),
            (reduce_appearance(ZERO_ON_X), ()),
            (reduce_cw(ONE_OF_TWO), ()),
            (combine_machines(reduce_appearance(ONE_OF_TWO), reduce_cw(ONE_OF_TWO)), ("second",)),
        ],
        ids=["always-reject", "appearance", "cw", "combined-part"],
    )
    def test_simulate_refuses_a_machine_that_guesses_at_most_k0(self, tmp_path, capsys, machine, keys):
        # With "exact": false, the appearance machine of W{0} on x once
        # accepted the empty guess, a witness of weight 0 where k is 1.
        doc = json.loads(serialize_machine(machine))
        part = doc["machine"]
        for key in keys:
            part = part[key]
        part["exact"] = False
        needle = ".".join(("machine", *keys, "exact")) + ": false is not the exact true every machine has"
        with pytest.raises(ValidationError) as err:
            parse_machine(json.dumps(doc))
        assert str(err.value) == needle
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {needle}\n")

    def test_simulate_refuses_combined_machines_nested_600_deep(self, tmp_path, capsys):
        # Such a document once parsed, then died in simulate with RecursionError (exit 1).
        leaf = json.loads(serialize_machine(reduce_appearance(POSITIVE_X)))["machine"]
        # Each level is combine_machines(inner, leaf), its budget fixed bottom-up.
        part = {"kind": "combined", "universe": ["x", "y"], "k0": 1, "exact": True, "second": leaf}
        opens = [
            json.dumps(dict(part, budget=leaf["budget"] + level * (leaf["budget"] + 1)))[:-1] + ', "first": '
            for level in range(600, 0, -1)
        ]
        path = tmp_path / "m.json"
        text = '{"format_version": "1", "machine": ' + "".join(opens) + json.dumps(leaf) + "}" * 601
        path.write_text(text, encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_NOT_APPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: machine" + ".first" * 64 + ": combined machines nest more than 64 deep\n"

    def test_simulate_refuses_a_cw_sum_bound_its_tables_can_escape(self, tmp_path, capsys):
        unit_tails = Instance(
            variables=("x", "y"),
            weight=WeightParameter(WeightKind.EXACT, 1),
            body=tuple(Constraint(CWRelation(WS1, 0, 1), (v,)) for v in ("x", "y")),
        )
        machine = json.loads(serialize_machine(reduce_cw(unit_tails)))
        assert machine["machine"]["sum_bound"] == 2
        machine["machine"]["sum_bound"] = 0
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: machine.sum_bound: 0 is below 2, the least bound its tables allow\n"

    def test_simulate_refuses_the_empty_name_in_a_universe(self, tmp_path, capsys):
        # It once printed ACCEPT and a bare WITNESS, the output of a k0 = 0
        # machine accepting the empty guess.
        budget = reduce_cw(Instance(("x",), WeightParameter(WeightKind.EXACT, 1))).budget
        machine = {"kind": "cw", "universe": [""], "k0": 1, "exact": True, "budget": budget, "b": 0, "sum_bound": 0}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": "1", "machine": dict(machine, tables=[])}), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: machine: machine universe names must be nonempty strings, got ''\n")

    def test_simulate_refuses_table_names_outside_the_universe(self, tmp_path, capsys):
        # It once simulated the machine as if the row were absent.
        inst = Instance(("w", "x", "y", "z"), WeightParameter(WeightKind.EXACT, 2), ONE_OF_TWO.body)
        machine = json.loads(serialize_machine(reduce_cw(inst)))
        rows = machine["machine"]["tables"]
        rows.append({"head": ["zz"], "tail": [], "count": 1})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(machine), encoding="utf-8")
        assert run(["simulate", str(path)]) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: machine.tables[{len(rows) - 1}].head[0]: undeclared variable 'zz'\n")

    def test_integers_too_long_to_print_are_a_capacity_fault(self, tmp_path, capsys):
        # A 4,001-digit k0 reads, but the appearance budget, about k0**2, has
        # more than 4300 digits.
        path = tmp_path / "wide.json"
        path.write_text(
            serialize_instance(Instance(("a",), WeightParameter(WeightKind.EXACT, 10**4000),
                                        (Constraint(WRelation(WS1, 1), ("a",)),))),
            encoding="utf-8",
        )
        assert run(["reduce", str(path), "--to", "appearance"]) == EXIT_NOT_APPLICABLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write the document: Exceeds the limit (4300 digits)")

    def test_cw_machine_round_trip_through_files(self, doc, tmp_path, capsys):
        machine_path = tmp_path / "cw.json"
        assert run(["reduce", doc(ONE_OF_TWO), "--to", "cw", "--out", str(machine_path)]) == EXIT_SAT
        assert parse_machine(machine_path.read_text(encoding="utf-8")) == reduce_cw(ONE_OF_TWO)


ODD3 = '{"type": "W", "weights": {"kind": "odd"}, "arity": 3}'


class TestPartials:
    def test_odd_relation_table(self, capsys):
        assert run(["partials", "--relation", ODD3]) == EXIT_SAT
        assert lines(capsys) == [
            "{} -> {1} | {2} | {3}",
            "{1,2} -> {1,2,3}",
            "{1,3} -> {1,2,3}",
            "{2,3} -> {1,2,3}",
        ]

    def test_partial_without_completion_prints_a_dash(self, capsys):
        rel = '{"type": "explicit", "arity": 2, "members": [[1]]}'
        assert run(["partials", "--relation", rel]) == EXIT_SAT
        assert lines(capsys) == ["{} -> {1}", "{1,2} -> -"]

    def test_instance_constraint_selection(self, doc, capsys):
        assert run(["partials", "--instance", doc(ONE_OF_TWO), "--constraint", "1"]) == EXIT_SAT
        out, _ = capsys.readouterr()
        assert "->" in out

    def test_constraint_index_out_of_range(self, doc, capsys):
        assert run(["partials", "--instance", doc(ONE_OF_TWO), "--constraint", "2"]) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert "out of range 1..1" in err

    def test_requires_exactly_one_source(self, doc, capsys):
        assert run(["partials"]) == EXIT_USAGE
        assert run(["partials", "--relation", ODD3, "--instance", doc(ONE_OF_TWO)]) == EXIT_USAGE

    def test_capacity_cap_is_reported(self, capsys):
        wide = '{"type": "W", "weights": {"kind": "odd"}, "arity": 13}'
        assert run(["partials", "--relation", wide]) == EXIT_NOT_APPLICABLE
        _, err = capsys.readouterr()
        assert err.startswith("error:")

    @pytest.mark.parametrize("value", ["-1", "two"])
    def test_capacity_must_be_a_nonnegative_integer(self, value, capsys):
        assert run(["partials", "--relation", ODD3, "--capacity", value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --capacity: expected a nonnegative integer, got '{value}'" in err

    def test_capacity_override(self, capsys):
        wide = '{"type": "W", "weights": {"kind": "finite", "values": [13]}, "arity": 13}'
        assert run(["partials", "--relation", wide, "--capacity", "13"]) == EXIT_SAT

    def test_capacity_cannot_lift_the_ceiling(self):
        # Arity 16 ran for about two minutes before the ceiling; it must now be refused at once.
        wide = '{"type": "W", "weights": {"kind": "odd"}, "arity": 16}'
        done = cli_child(["partials", "--relation", wide, "--capacity", "16"], timeout=20)
        want = "error: arity 16 above the exhaustive bound 14\n"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)


class TestStats:
    def test_exact_parameters(self, doc, capsys):
        inst = Instance(
            variables=("x", "y", "z"),
            weight=WeightParameter(WeightKind.EXACT, 1),
            body=(
                Constraint(WRelation(WeightSet.even(), 3), ("x", "x", "y")),
                Constraint(WRelation(WeightSet.even(), 3), ("x", "x", "z")),
            ),
        )
        assert run(["stats", doc(inst)]) == EXIT_SAT
        assert lines(capsys) == ["parameter: k = 1 (exact)", "u = 3", "t = 4", "e = 2"]

    def test_atmost_parameters(self, doc, capsys):
        inst = Instance(
            variables=("x",),
            weight=WeightParameter(WeightKind.ATMOST, 2),
            body=(),
        )
        assert run(["stats", doc(inst)]) == EXIT_SAT
        assert lines(capsys)[0] == "parameter: k <= 2 (at-most)"

    def test_integer_too_long_to_read(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        text = serialize_instance(Instance(("x",), WeightParameter(WeightKind.EXACT, 1)))
        path.write_text(text.replace('"k": 1', '"k": ' + "9" * 5001), encoding="utf-8")
        assert run(["stats", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: document is not valid JSON: Exceeds the limit (4300 digits)")


GEN_ARGS = ["gen", "--n", "5", "--k0", "2", "--profile", "cw", "--body", "2"]


class TestGen:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(GEN_ARGS + ["--seed", "3", "--out", str(a)]) == EXIT_SAT
        assert run(GEN_ARGS + ["--seed", "3", "--out", str(b)]) == EXIT_SAT
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(GEN_ARGS + ["--seed", "3", "--out", str(a)]) == EXIT_SAT
        assert run(GEN_ARGS + ["--seed", "4", "--out", str(b)]) == EXIT_SAT
        assert a.read_text(encoding="utf-8") != b.read_text(encoding="utf-8")

    def test_generated_documents_solve(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        args = ["gen", "--n", "6", "--k0", "2", "--profile", "w-finite", "--seed", "11"]
        assert run(args + ["--out", str(path)]) == EXIT_SAT
        assert run(["solve", str(path)]) in (EXIT_SAT, EXIT_UNSAT)

    def test_materialized_weight_constraint(self, tmp_path):
        path = tmp_path / "g.json"
        args = GEN_ARGS + ["--seed", "3", "--materialize-weight-constraint", "--out", str(path)]
        assert run(args) == EXIT_SAT
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["constraints"][-1]["scope"] == doc["variables"]

    @pytest.mark.parametrize("profile", ["w-finite", "mixed"])
    def test_blank_finite_values_mean_none_given(self, tmp_path, profile):
        def gen(*extra):
            path = tmp_path / "g.json"
            args = GEN_ARGS + ["--seed", "3", "--profile", profile, "--out", str(path), *extra]
            assert run(args) == EXIT_SAT
            return parse_instance(path.read_text(encoding="utf-8"))

        assert gen("--finite-values", "") == gen()
        cfg = InstanceConfig(n=5, k0=2, profile=profile, body_len=2, finite_values=())
        assert gen("--finite-values", ",") == random_instance(3, cfg)

    def test_output_into_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "g.json"
        assert run(GEN_ARGS + ["--seed", "3", "--out", str(path)]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")

    def test_bad_finite_values(self, capsys):
        args = ["gen", "--n", "4", "--k0", "1", "--finite-values", "a,b"]
        assert run(args) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert "comma-separated integers" in err

    @pytest.mark.parametrize("k0", [10**9, 2**63])
    def test_a_materialized_atmost_bound_above_the_cap_is_refused(self, k0):
        # Listing every weight up to k0 once ended in exit 4 (OverflowError)
        # at 2**63 and exit 3 (MemoryError) at 10**9.
        args = ["--n", "3", "--k0", str(k0), "--atmost", "--materialize-weight-constraint", "--body", "1"]
        done = cli_child(["gen", "--profile", "w-finite", *args], timeout=10)
        want = f"error: at-most bound {k0} above the materialization bound 65536\n"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)

    @pytest.mark.parametrize(
        "extra,needle",
        [
            (["--n", "200000000"], "n = 200000000"),
            (["--n", "3", "--weight-cap", "300000000"], "weight_cap = 300000000"),
            (["--n", "3", "--cw-bound", "300000000", "--profile", "cw"], "cw_bound = 300000000"),
            (
                ["--n", "3", "--body", "2", "--max-arity", "300000000"],
                "body_len * max_arity * (1 + max_members) = 3000000000",
            ),
        ],
        ids=["n", "weight-cap", "cw-bound", "positions"],
    )
    def test_sizes_it_could_not_allocate_are_refused_before_drawing(self, extra, needle):
        # Each once ran out of memory (exit 3, "error: MemoryError") or ran on
        # for minutes, drawing hundreds of millions of scope positions.
        done = cli_child(["gen", "--k0", "1", *extra], timeout=10)
        want = f"error: {needle} above the generator bound 65536\n"
        assert (done.returncode, done.stdout, done.stderr) == (EXIT_NOT_APPLICABLE, "", want)


class TestVerify:
    def test_fpt_kue_example(self, capsys):
        assert run(["verify", "--method", "fpt-kue", "--count", "500", "--seed", "7"]) == EXIT_SAT
        assert lines(capsys) == ["verify fpt-kue: 500/500 agree"]

    @pytest.mark.parametrize(
        "method", ["fpt-kt", "appearance", "cw-machine", "completion-pipeline"]
    )
    def test_methods_agree_with_brute_force(self, method, capsys):
        assert run(["verify", "--method", method, "--count", "12", "--seed", "7"]) == EXIT_SAT
        assert lines(capsys) == [f"verify {method}: 12/12 agree"]

    def test_report_rows(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        args = ["verify", "--method", "appearance", "--count", "8", "--seed", "1", "--report", str(report)]
        assert run(args) == EXIT_SAT
        capsys.readouterr()
        rows = report.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "case,seed,profile,n,k0,expected,got,agree"
        assert len(rows) == 9
        assert all(row.endswith(",1") for row in rows[1:])

    def test_report_into_a_missing_directory_is_a_usage_error(self, tmp_path, capsys):
        report = tmp_path / "missing" / "report.csv"
        args = ["verify", "--method", "fpt-kue", "--count", "2", "--report", str(report)]
        assert run(args) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {report}: ")

    def test_invalid_witnesses_are_mismatches(self, monkeypatch, capsys):
        # One name over the weight bound fails every instance, satisfiable or not.
        def overweight(method, inst, bound=None):
            return frozenset(sorted(inst.variables)[: inst.weight.k0 + 1]), None

        monkeypatch.setattr("paramcsp.cli._decide", overweight)
        assert run(["verify", "--method", "appearance", "--count", "2", "--seed", "1"]) == EXIT_UNSAT
        assert lines(capsys) == [
            "mismatch case=0 seed=1000003: expected unsat, got sat",
            "mismatch case=1 seed=1000004: expected sat, got invalid",
            "verify appearance: 0/2 agree",
        ]

    def test_requires_a_method(self, capsys):
        assert run(["verify"]) == EXIT_USAGE

    def test_negative_count_is_a_usage_error(self, capsys):
        assert run(["verify", "--method", "fpt-kue", "--count", "-3"]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --count: expected a nonnegative integer, got '-3'" in err


class TestDecide:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        profile=st.sampled_from(PROFILES),
        n=st.integers(1, 5),
        k0=st.integers(0, 1),
        body=st.integers(0, 3),
        atmost=st.booleans(),
    )
    def test_every_method_agrees_with_brute_force(self, seed, profile, n, k0, body, atmost):
        cfg = InstanceConfig(n=n, k0=k0, profile=profile, body_len=body, atmost=atmost)
        inst = random_instance(seed, cfg)
        want = brute_force_solve(inst)
        for method in ("brute",) + VERIFY_METHODS:
            try:
                got, _ = _decide(method, inst)
            except (NotApplicableError, CapacityError):
                continue
            assert (got is None) == (want is None), method
            assert got is None or satisfies(inst, got), method
            if method == "cw-machine" and not atmost:
                assert got == want, method


class TestArgumentHandling:
    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == EXIT_SAT
        out, _ = capsys.readouterr()
        assert "paramcsp" in out

    def test_no_arguments(self, capsys):
        assert run([]) == EXIT_USAGE

    def test_unknown_flag(self, doc, capsys):
        assert run(["solve", doc(POSITIVE_X), "--fast"]) == EXIT_USAGE

    @pytest.mark.parametrize("arity", [1, 12])
    def test_closed_stdout_exits_141(self, arity):
        # The read end is closed before the child starts, so its first write
        # fails: inside run() for the long arity-12 table, at the final flush
        # for the one-line arity-1 table.
        relation = f'{{"type":"W","arity":{arity},"weights":{{"kind":"finite","values":[1]}}}}'
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "paramcsp.cli", "partials", "--relation", relation],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                encoding="utf-8",
                timeout=60,
                env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(paramcsp.__file__))},
            )
        finally:
            os.close(write_end)
        assert done.returncode == 141
        assert done.stderr == ""

    def test_internal_faults_exit_4(self, tmp_path, capsys, monkeypatch):
        # No document reaches a budget overrun any more, so fake the fault.
        def overrun(machine):
            raise BudgetExceededError("branch ('x',) used 9 steps against budget 6")

        monkeypatch.setattr("paramcsp.cli.simulate", overrun)
        path = tmp_path / "m.json"
        path.write_text(serialize_machine(reduce_appearance(POSITIVE_X)), encoding="utf-8")
        assert run(["simulate", str(path)]) == 4
        _, err = capsys.readouterr()
        assert err == "error: branch ('x',) used 9 steps against budget 6\n"

    @pytest.mark.parametrize(
        "method,target,fake,message",
        [
            ("fpt-kue", "paramcsp.fpt_solvers._meets", lambda inst, witness: False,
             "representative witness failed its instance"),
            ("completion-pipeline", "paramcsp.machines.simulate",
             lambda machine: SimulationResult(True, frozenset({"y"}), 0, 1),
             "pipeline produced an invalid witness"),
        ],
        ids=["fpt-kue", "completion-pipeline"],
    )
    def test_witnesses_that_fail_their_instance_are_internal_faults(
        self, doc, capsys, monkeypatch, method, target, fake, message
    ):
        # Each solver checks its own witness; fake a collaborator that breaks it.
        monkeypatch.setattr(target, fake)
        with pytest.raises(ParamCSPError, match=f"^{message}$"):
            _decide(method, POSITIVE_X)
        assert run(["solve", doc(POSITIVE_X), "--method", method]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_fault_in_a_block_check_exits_4(self, tmp_path, capsys, monkeypatch):
        # simulate walks a block again per branch only for a ParamCSPError, so
        # a fault in the appearance block check is not answered through run_branch.
        def planted(self, state, prefix, lasts, steps):
            raise TypeError("planted")

        monkeypatch.setattr("paramcsp.machines.AppearanceChecker.check_block", planted)
        path = tmp_path / "m.json"
        path.write_text(serialize_machine(reduce_appearance(POSITIVE_X)), encoding="utf-8")
        assert run(["simulate", str(path)]) == 4
        assert capsys.readouterr() == ("", "error: TypeError: planted\n")

    @pytest.mark.parametrize(
        "fault, code, line",
        [
            (RecursionError("maximum recursion depth exceeded"), EXIT_NOT_APPLICABLE,
             "error: RecursionError: maximum recursion depth exceeded\n"),
            (MemoryError(), EXIT_NOT_APPLICABLE, "error: MemoryError\n"),
            (KeyError("x"), 4, "error: KeyError: 'x'\n"),
        ],
        ids=["recursion", "memory", "other"],
    )
    def test_faults_outside_the_library_get_one_error_line(self, doc, capsys, monkeypatch, fault, code, line):
        def fail(args):
            raise fault

        monkeypatch.setattr("paramcsp.cli._cmd_stats", fail)
        assert run(["stats", doc(POSITIVE_X)]) == code
        out, err = capsys.readouterr()
        assert (out, err) == ("", line)
