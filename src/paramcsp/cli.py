"""Command-line interface.

Exit codes are part of the contract: 0 satisfiable / accepted / verification
passed, 1 unsatisfiable / rejected / verification failed, 2 usage or
validation errors, 3 method not applicable to the instance or capacity
exceeded, 4 internal fault (a broken invariant, never the input's fault),
141 standard output closed by its reader before everything was written.

Instance and machine documents are read from files, with ``-`` for stdin.
Identical arguments and inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections.abc import Sequence
from dataclasses import fields

from .errors import (
    CapacityError,
    DomainError,
    NotApplicableError,
    ParamCSPError,
    UsageError,
    ValidationError,
)
from .formats import (
    parse_instance,
    parse_machine,
    parse_relation,
    serialize_instance,
    serialize_machine,
)
from .fpt_solvers import solve_w_kt, solve_w_kue
from .instances import (
    PROFILES,
    Instance,
    InstanceConfig,
    WeightKind,
    brute_force_solve,
    lift_kle_to_k,
    param_e,
    param_t,
    param_u,
    random_instance,
    satisfies,
)
from .machines import (
    SimulationResult,
    completion_reduction,
    reduce_appearance,
    reduce_cw,
    simulate,
    solve_wd_pipeline,
)
from .partials import DEFAULT_CAPACITY, compute_partials
from .relations import _largest_member

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_USAGE = 2
EXIT_NOT_APPLICABLE = 3

# First matching class wins, so NotApplicableError must precede its base UsageError;
# the last row gives every other fault, an internal one, exit code 4.
_ERROR_EXITS: tuple[tuple[type[ParamCSPError], int], ...] = (
    (ValidationError, EXIT_USAGE),
    (NotApplicableError, EXIT_NOT_APPLICABLE),
    (CapacityError, EXIT_NOT_APPLICABLE),
    (UsageError, EXIT_USAGE),
    (DomainError, EXIT_USAGE),
    (ParamCSPError, 4),
)

SOLVE_METHODS = ("brute", "fpt-kue", "fpt-kt", "cw-machine", "completion-pipeline")
REDUCE_TARGETS = ("appearance", "cw", "w-cw")
VERIFY_METHODS = ("fpt-kue", "fpt-kt", "appearance", "cw-machine", "completion-pipeline")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 text (byte {exc.start})") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _ensure_exact(inst: Instance) -> Instance:
    """Lift an at-most instance for the methods that need an exact bound; report on stderr."""
    if inst.weight.kind is WeightKind.EXACT:
        return inst
    print("note: lifting the at-most bound to an exact one with padding variables", file=sys.stderr)
    return lift_kle_to_k(inst)


def _print_witness(witness: frozenset[str] | None) -> int:
    if witness is None:
        print("UNSAT")
        return EXIT_UNSAT
    print(f"WITNESS {' '.join(sorted(witness))}".rstrip())
    return EXIT_SAT


def _print_budget_report(result: SimulationResult, budget: int) -> None:
    print(f"budget: {budget}")
    print(f"max-branch-steps: {result.max_branch_steps}")
    print(f"branches-explored: {result.branches_explored}")


def _infer_bound(inst: Instance) -> int:
    """Largest member size or admissible weight in the body; at least 1."""
    return max([1, *(_largest_member(c.relation) or 0 for c in inst.body)])


_SOLVERS = {"brute": brute_force_solve, "fpt-kue": solve_w_kue, "fpt-kt": solve_w_kt}
_MACHINE_BUILDERS = {"appearance": reduce_appearance, "cw-machine": reduce_cw}


def _decide(
    method: str, inst: Instance, bound: int | None = None
) -> tuple[frozenset[str] | None, tuple[SimulationResult, int] | None]:
    """Decide ``inst`` by ``method``: the witness, and the machine run with its
    budget when the method simulates one."""
    if method in _SOLVERS:
        return _SOLVERS[method](inst), None
    lifted = _ensure_exact(inst)
    machine_run = None
    if method == "completion-pipeline":
        witness = solve_wd_pipeline(lifted, bound if bound is not None else _infer_bound(lifted))
    else:
        machine = _MACHINE_BUILDERS[method](lifted)
        result = simulate(machine)
        witness, machine_run = result.witness, (result, machine.budget)
    return None if witness is None else witness.difference(lifted.variables[len(inst.variables) :]), machine_run


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    witness, machine_run = _decide(args.method, inst, args.bound)
    code = _print_witness(witness)
    if args.budget_report and machine_run is not None:
        _print_budget_report(*machine_run)
    return code


def _cmd_reduce(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    lifted = _ensure_exact(inst)
    if args.to == "w-cw":
        bound = args.bound if args.bound is not None else _infer_bound(lifted)
        text = serialize_instance(completion_reduction(lifted, bound).instance)
    else:
        build = _MACHINE_BUILDERS["cw-machine" if args.to == "cw" else args.to]
        text = serialize_machine(build(lifted))
    _write_text(args.out, text)
    return EXIT_SAT


def _cmd_simulate(args: argparse.Namespace) -> int:
    machine = parse_machine(_read_text(args.machine))
    result = simulate(machine)
    print("REJECT" if result.witness is None else "ACCEPT")
    code = EXIT_UNSAT if result.witness is None else _print_witness(result.witness)
    if args.budget_report:
        _print_budget_report(result, machine.budget)
    return code


def _set_str(positions: tuple[int, ...]) -> str:
    return "{" + ",".join(str(p) for p in positions) + "}"


def _cmd_partials(args: argparse.Namespace) -> int:
    if (args.relation is None) == (args.instance is None):
        raise UsageError("pass exactly one of --instance or --relation")
    if args.relation is not None:
        rel = parse_relation(args.relation)
    else:
        inst = parse_instance(_read_text(args.instance))
        if not 1 <= args.constraint <= len(inst.body):
            raise UsageError(
                f"constraint {args.constraint} out of range 1..{len(inst.body)}"
            )
        rel = inst.body[args.constraint - 1].relation
    table = compute_partials(rel, capacity=args.capacity)
    for t in table.partials:
        comps = table.completions[t]
        rhs = " | ".join(_set_str(u) for u in comps) if comps else "-"
        print(f"{_set_str(t)} -> {rhs}")
    return EXIT_SAT


def _cmd_stats(args: argparse.Namespace) -> int:
    inst = parse_instance(_read_text(args.instance))
    if inst.weight.kind is WeightKind.EXACT:
        print(f"parameter: k = {inst.weight.k0} (exact)")
    else:
        print(f"parameter: k <= {inst.weight.k0} (at-most)")
    print(f"u = {param_u(inst)}")
    print(f"t = {param_t(inst)}")
    print(f"e = {param_e(inst)}")
    return EXIT_SAT


def _int_list(text: str) -> tuple[int, ...] | None:
    """Comma-separated integers; a blank value means none were given."""
    if not text:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _nonnegative(text: str) -> int:
    """A count flag; negative or non-integer values are usage errors."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = InstanceConfig(**{f.name: getattr(args, f.name) for f in fields(InstanceConfig)})
    inst = random_instance(args.seed, cfg)
    _write_text(args.out, serialize_instance(inst, materialize_weight=args.materialize_weight_constraint))
    return EXIT_SAT


def _verify_config(method: str, case: int) -> InstanceConfig:
    if method == "fpt-kue":
        profile = ("w-finite", "w-cofinite", "w-even", "w-odd")[case % 4]
        return InstanceConfig(
            n=4 + case % 9,
            k0=case % 4,
            profile=profile,
            body_len=1 + case % 3,
            max_arity=4,
            atmost=case % 2 == 1,
        )
    if method == "fpt-kt":
        profile = ("w-finite", "w-cofinite", "w-odd")[case % 3]
        return InstanceConfig(
            n=4 + case % 9,
            k0=case % 4,
            profile=profile,
            body_len=1 + case % 4,
            max_arity=4,
            atmost=case % 2 == 1,
            exclude_zero=True,
        )
    if method == "appearance":
        return InstanceConfig(
            n=4 + case % 7,
            k0=case % 4,
            profile="mixed",
            body_len=1 + case % 3,
            max_arity=4,
        )
    if method == "cw-machine":
        return InstanceConfig(
            n=4 + case % 7,
            k0=case % 4,
            profile="cw",
            body_len=1 + case % 3,
            max_arity=4,
            cw_bound=case % 3,
        )
    return InstanceConfig(
        n=3 + case % 3,
        k0=case % 3,
        profile="w-finite",
        body_len=1 + case % 2,
        max_arity=2,
        finite_values=(1,),
    )


_REPORT_FIELDS = ("case", "seed", "profile", "n", "k0", "expected", "got", "agree")


def _cmd_verify(args: argparse.Namespace) -> int:
    rows: list[tuple[object, ...]] = []
    agree_count = 0
    for case in range(args.count):
        seed = args.seed * 1_000_003 + case
        cfg = _verify_config(args.method, case)
        inst = random_instance(seed, cfg)
        expected = brute_force_solve(inst)
        got = _decide(args.method, inst)[0]
        agree = (expected is None) == (got is None)
        expected_word = "unsat" if expected is None else "sat"
        got_word = "unsat" if got is None else "sat"
        if agree and got is not None and not satisfies(inst, got):
            agree = False
            got_word = "invalid"
        if agree:
            agree_count += 1
        else:
            print(f"mismatch case={case} seed={seed}: expected {expected_word}, got {got_word}")
        rows.append((case, seed, cfg.profile, cfg.n, cfg.k0, expected_word, got_word, int(agree)))
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(_REPORT_FIELDS)
                writer.writerows(rows)
        except OSError as exc:
            raise UsageError(f"cannot write {args.report}: {exc}") from exc
    print(f"verify {args.method}: {agree_count}/{args.count} agree")
    return EXIT_SAT if agree_count == args.count else EXIT_UNSAT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paramcsp",
        description="Weighted Boolean constraint satisfaction with parameterized solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="decide an instance document")
    solve.add_argument("instance", help="instance document path, - for stdin")
    solve.add_argument("--method", choices=SOLVE_METHODS, default="brute")
    solve.add_argument("--bound", type=int, default=None, help="member-size bound for the completion pipeline")
    solve.add_argument("--budget-report", action="store_true", help="print machine budget usage")
    solve.set_defaults(func=_cmd_solve)

    reduce_cmd = sub.add_parser("reduce", help="compile an instance into a machine or reduced instance")
    reduce_cmd.add_argument("instance", help="instance document path, - for stdin")
    reduce_cmd.add_argument("--to", choices=REDUCE_TARGETS, required=True)
    reduce_cmd.add_argument("--bound", type=int, default=None, help="member-size bound for the w-cw target")
    reduce_cmd.add_argument("--out", default=None, help="output path, stdout by default")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    simulate_cmd = sub.add_parser("simulate", help="run a machine document")
    simulate_cmd.add_argument("machine", help="machine document path, - for stdin")
    simulate_cmd.add_argument("--budget-report", action="store_true", help="print machine budget usage")
    simulate_cmd.set_defaults(func=_cmd_simulate)

    partials_cmd = sub.add_parser("partials", help="print the partial-tuple table of a relation")
    partials_cmd.add_argument("--instance", default=None, help="instance document path, - for stdin")
    partials_cmd.add_argument("--constraint", type=int, default=1, help="1-based body index (with --instance)")
    partials_cmd.add_argument("--relation", default=None, help="inline relation JSON")
    partials_cmd.add_argument("--capacity", type=_nonnegative, default=DEFAULT_CAPACITY, help="exhaustive arity cap")
    partials_cmd.set_defaults(func=_cmd_partials)

    stats = sub.add_parser("stats", help="print instance parameters")
    stats.add_argument("instance", help="instance document path, - for stdin")
    stats.set_defaults(func=_cmd_stats)

    gen = sub.add_parser("gen", help="generate a pseudorandom instance document")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n", type=int, required=True, help="variable count")
    gen.add_argument("--k0", type=int, required=True, help="weight bound")
    gen.add_argument("--profile", choices=PROFILES, default="mixed")
    gen.add_argument("--body", dest="body_len", metavar="BODY", type=int, default=2, help="constraint count")
    gen.add_argument("--min-arity", type=int, default=1)
    gen.add_argument("--max-arity", type=int, default=4)
    gen.add_argument("--atmost", action="store_true", help="use an at-most weight bound")
    gen.add_argument("--cw-bound", type=int, default=1, help="shared tail bound for the cw profile")
    gen.add_argument("--member-size", type=int, default=2, help="max member size for explicit relations")
    gen.add_argument("--max-members", type=int, default=4)
    gen.add_argument("--weight-cap", type=int, default=3, help="largest random weight value")
    gen.add_argument("--finite-values", type=_int_list, default=None, help="comma-separated shared finite weights")
    gen.add_argument("--exclude-zero", action="store_true", help="keep 0 out of the weight sets")
    gen.add_argument("--materialize-weight-constraint", action="store_true")
    gen.add_argument("--out", default=None, help="output path, stdout by default")
    gen.set_defaults(func=_cmd_gen)

    verify = sub.add_parser("verify", help="cross-check a method against brute force on random instances")
    verify.add_argument("--method", choices=VERIFY_METHODS, required=True)
    verify.add_argument("--count", type=_nonnegative, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--report", default=None, help="write a per-case CSV report")
    verify.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (None, 0):
            return EXIT_SAT
        return EXIT_USAGE
    try:
        return args.func(args)
    except ParamCSPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error_class, code in _ERROR_EXITS if isinstance(exc, error_class))
    except BrokenPipeError:
        raise  # main reports it as death by SIGPIPE would
    except Exception as exc:
        # Last resort: no stack or memory left is a capacity fault (exit 3),
        # anything else an internal one (exit 4).
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE if isinstance(exc, (RecursionError, MemoryError)) else 4


def main() -> int:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early: point stdout at the null device so the flush
        # at exit stays quiet, and report what death by SIGPIPE would (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
