"""The four benchmark workloads.

Every workload turns ``--seed`` into a fixed-length pool of requests during
set-up, all drawn with ``paramcsp.random_instance``. Requests cycle through
a fixed schedule of slots (one input shape per slot), so any prefix of the
pool has the same mix of shapes whatever the seed; the seed changes the
content only. Where a slot fixes a verdict, set-up draws until brute force
agrees, so the share of satisfiable requests does not drift with the seed.
Both rules keep p50 and p90 inside one slot's cluster of costs, which is
what makes them repeat across seeds.

Each workload offers an untraced ``call`` (the public entry point a user
would call), a ``call_traced`` that makes the same public calls one layer at
a time inside spans, an optional ``probe`` with extra direct calls that only
the traced run makes, a ``reference`` computed outside every timed region,
and a ``check`` that names what is wrong with an outcome.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from itertools import combinations
from math import comb
from typing import Any

import pins
from spans import Tracer

UNKNOWN = object()
"""Reference for a request too large to check with brute force."""


@dataclass
class Req:
    index: int
    slot: str
    inst: Any
    meta: dict = field(default_factory=dict)


def item_seed(seed: int, index: int, attempt: int = 0) -> int:
    return (seed * 1_000_003 + index) * 64 + attempt


def _verdict_problem(api, inst, got, want, *, lex_first: bool) -> str | None:
    """Compare an outcome witness with the brute-force reference."""
    if want is not UNKNOWN and (got is None) != (want is None):
        return f"verdict {'UNSAT' if got is None else 'SAT'} != reference"
    if got is not None:
        if not api.satisfies(inst, got):
            return "witness fails its instance"
        if lex_first and want is not UNKNOWN and got != want:
            return "witness differs from the lexicographically first one"
    return None


def cw_table_entries(checker) -> int:
    return len(checker.delta_empty) + len(checker.delta_sizes)


def _machine_counts(counts: dict, machine, result) -> None:
    counts["branches"] = result.branches_explored
    counts["max_branch_steps"] = result.max_branch_steps
    counts["budget"] = machine.budget
    counts["universe"] = len(machine.universe)
    counts["guess_size"] = machine.k0


class Workload:
    name = ""
    why = ""
    pool_size = 0
    trace_items = 0
    slots: tuple = ()

    def __init__(self, api) -> None:
        self.api = api
        self.pool: list[Req] = []

    def setup(self, seed: int, tr) -> None:
        self.pool = [self.make(seed, i, tr) for i in range(self.pool_size)]

    def make(self, seed: int, index: int, tr) -> Req:
        raise NotImplementedError

    def _draw(self, seed: int, index: int, cfg, want_sat, tr):
        """Draw the slot's instance; with ``want_sat`` set, redraw until brute force agrees."""
        api = self.api
        for attempt in range(200):
            with tr.span("instances.generate"):
                inst = api.random_instance(item_seed(seed, index, attempt), cfg)
            if want_sat is None or (api.brute_force_solve(inst) is not None) == want_sat:
                return inst
        raise RuntimeError(f"{self.name}: no {'SAT' if want_sat else 'UNSAT'} draw for request {index}")

    def warm(self) -> None:
        """Run the first request of every distinct slot once, untimed."""
        first = {}
        for req in self.pool[: len(self.slots)]:
            first.setdefault(req.slot, req)
        for req in first.values():
            self.call(req)

    def call(self, req: Req):
        raise NotImplementedError

    def call_traced(self, req: Req, tr):
        raise NotImplementedError

    def probe(self, req: Req, tr) -> None:
        return None

    def ref_key(self, req: Req):
        return req.index

    def reference(self, req: Req):
        return self.api.brute_force_solve(req.inst)

    def check(self, req: Req, outcome, ref) -> str | None:
        raise NotImplementedError

    def pin_problems(self) -> tuple[int, list[str]]:
        """Check the fixed pinned cases; returns (cases checked, problems)."""
        return 0, []

    def report(self, outcomes: dict, refs: dict) -> list[str]:
        """Extra human-readable lines; ``outcomes`` maps pool index to (request, outcome)."""
        return []

    def close(self) -> None:
        return None


# --------------------------------------------------------------------------
# cw-scan


class CWScan(Workload):
    name = "cw-scan"
    why = (
        "CW-only exact instances (k0 1-4, n 14-40, tail bound 1-2, 2n constraints) via "
        "simulate(reduce_cw); 120-request pool cycled; the per-branch CWChecker cost is the whole cost"
    )
    pool_size = 120
    trace_items = 100
    # (label, k0, n, tail bound, body length). Bodies of 2n constraints leave
    # almost every instance unsatisfiable, so most requests scan every branch;
    # p50 falls in the four k3 slots and p90 in the three k4 slots.
    slots = (
        ("k1-b1", 1, 40, 1, 20),
        ("k2-b1", 2, 30, 1, 15),
        ("k2-b2", 2, 30, 2, 60),
        ("k3-b2", 3, 20, 2, 40),
        ("k3-b2", 3, 20, 2, 40),
        ("k3-b2", 3, 20, 2, 40),
        ("k3-b2", 3, 20, 2, 40),
        ("k4-b2", 4, 14, 2, 28),
        ("k4-b2", 4, 14, 2, 28),
        ("k4-b2", 4, 14, 2, 28),
    )

    def config(self, slot):
        _, k0, n, bound, body = slot
        return self.api.InstanceConfig(
            n=n, k0=k0, profile="cw", body_len=body, max_arity=3, cw_bound=bound
        )

    def make(self, seed, index, tr):
        slot = self.slots[index % len(self.slots)]
        inst = self._draw(seed, index, self.config(slot), None, tr)
        return Req(index, slot[0], inst, {"k0": slot[1], "bound": slot[3]})

    def call(self, req):
        api = self.api
        machine = api.reduce_cw(req.inst)
        result = api.simulate(machine)
        return result.witness, machine.budget, result.max_branch_steps

    def call_traced(self, req, tr):
        api = self.api
        with tr.span("machines.build") as counts:
            machine = api.reduce_cw(req.inst)
            counts["cw_table_entries"] = cw_table_entries(machine.checker)
        with tr.span("machines.simulate") as counts:
            result = api.simulate(machine)
            _machine_counts(counts, machine, result)
        return result.witness, machine.budget, result.max_branch_steps

    def check(self, req, outcome, ref):
        witness, budget, steps = outcome
        problem = _verdict_problem(self.api, req.inst, witness, ref, lex_first=True)
        if problem:
            return problem
        return _cw_budget_problem(req.meta["k0"], req.meta["bound"], budget, steps, witness)

    def pin_problems(self):
        problems = []
        for label, k0, n, bound, body in dict.fromkeys(self.slots):
            inst = self.api.random_instance(pins.PIN_SEED, self.config((label, k0, n, bound, body)))
            machine = self.api.reduce_cw(inst)
            result = self.api.simulate(machine)
            got = _pin_row(machine, result)
            if got != pins.CW_SCAN[label]:
                problems.append(f"pin {label}: {got} != {pins.CW_SCAN[label]}")
        return len(dict.fromkeys(self.slots)), problems


def _cw_budget_problem(k0, bound, budget, steps, witness) -> str | None:
    if budget != pins.CW_BUDGET[(k0, bound)]:
        return f"budget {budget} != pinned {pins.CW_BUDGET[(k0, bound)]}"
    if steps > budget or (witness is not None and steps != budget):
        return f"max_branch_steps {steps} against budget {budget}"
    return None


def _pin_row(machine, result) -> list:
    witness = sorted(result.witness) if result.accepted else None
    return [witness, machine.budget, result.max_branch_steps, result.branches_explored]


# --------------------------------------------------------------------------
# wd-pipeline


class WDPipeline(Workload):
    name = "wd-pipeline"
    why = (
        "weight-one clause instances (d=1, k0 0-2, n 3-8) via solve_wd_pipeline; 120-request pool "
        "cycled; k1 UNSAT scans set p50, k2 UNSAT scans of size-6 guesses set p90"
    )
    pool_size = 120
    trace_items = 100
    # (label, k0, n, body length, required verdict). Sorted by cost the
    # slots form separate clusters: three build-dominated slots under 1 ms;
    # four k1 UNSAT slots at about 2 ms, whose combined machine scans all
    # C(11, 3) branches of a size-3 guess, hold p50; the two k2 UNSAT slots,
    # scanning every branch of a size-6 guess, hold p90.
    slots = (
        ("k1-sat", 1, 4, 1, True),
        ("k1-sat", 1, 4, 1, True),
        ("k0", 0, 8, 4, None),
        ("k1-unsat", 1, 4, 1, False),
        ("k1-unsat", 1, 4, 1, False),
        ("k1-unsat", 1, 4, 1, False),
        ("k1-unsat", 1, 4, 1, False),
        ("k2-sat", 2, 3, 1, True),
        ("k2-unsat", 2, 3, 1, False),
        ("k2-unsat", 2, 3, 1, False),
    )

    def config(self, slot):
        _, k0, n, body, _ = slot
        return self.api.InstanceConfig(
            n=n, k0=k0, profile="w-finite", body_len=body, min_arity=2, max_arity=2,
            finite_values=(1,),
        )

    def make(self, seed, index, tr):
        slot = self.slots[index % len(self.slots)]
        inst = self._draw(seed, index, self.config(slot), slot[4], tr)
        return Req(index, slot[0], inst, {"k0": slot[1], "n": slot[2]})

    def call(self, req):
        return self.api.solve_wd_pipeline(req.inst, 1), None, None

    def pipeline(self, inst, tr):
        """``solve_wd_pipeline`` for d = 1, one public call per span."""
        api = self.api
        with tr.span("machines.explicitize"):
            explicit = api.explicitize_w_body(inst, 1)
        with tr.span("machines.completion") as counts:
            reduction = api.completion_reduction(explicit, 1)
            counts["indicators"] = len(reduction.indicator_keys)
        with tr.span("instances.lift"):
            lifted = api.lift_kle_to_k(reduction.instance)
        w_part = replace(
            lifted, body=tuple(c for c in lifted.body if isinstance(c.relation, api.WRelation))
        )
        cw_part = replace(
            lifted, body=tuple(c for c in lifted.body if isinstance(c.relation, api.CWRelation))
        )
        with tr.span("machines.build"):
            first = api.reduce_appearance(w_part)
        with tr.span("machines.build") as counts:
            second = api.reduce_cw(cw_part)
            counts["cw_table_entries"] = cw_table_entries(second.checker)
        with tr.span("machines.build"):
            machine = api.combine_machines(first, second)
        with tr.span("machines.simulate") as counts:
            result = api.simulate(machine)
            _machine_counts(counts, machine, result)
        return machine, result

    def call_traced(self, req, tr):
        machine, result = self.pipeline(req.inst, tr)
        witness = None
        if result.accepted:
            witness = frozenset(v for v in result.witness if v in req.inst.variable_set)
            with tr.span("instances.satisfies") as counts:
                self.api.satisfies(req.inst, witness)
                counts["satisfies_calls"] = 1
        return witness, machine.budget, result.max_branch_steps

    def probe(self, req, tr):
        # completion_reduction computes partial tables inside; time the same
        # calls from outside on the distinct explicit relations it receives.
        explicit = self.api.explicitize_w_body(req.inst, 1)
        for rel in dict.fromkeys(c.relation for c in explicit.body):
            with tr.span("partials.compute") as counts:
                table = self.api.compute_partials(rel)
                counts["partial_entries"] = len(table.partials)

    def check(self, req, outcome, ref):
        witness, budget, steps = outcome
        problem = _verdict_problem(self.api, req.inst, witness, ref, lex_first=False)
        if problem or budget is None:
            return problem
        pinned = pins.PIPELINE_BUDGET[(req.meta["k0"], req.meta["n"])]
        if budget != pinned:
            return f"budget {budget} != pinned {pinned}"
        if steps > budget:
            return f"max_branch_steps {steps} above budget {budget}"
        return None

    def pin_problems(self):
        problems = []
        distinct = dict.fromkeys(self.slots)
        for slot in distinct:
            inst = self.api.random_instance(pins.PIN_SEED, self.config(slot))
            got = _pin_row(*self.pipeline(inst, Tracer()))
            if got != pins.WD_PIPELINE[slot[0]]:
                problems.append(f"pin {slot[0]}: {got} != {pins.WD_PIPELINE[slot[0]]}")
        return len(distinct), problems


# --------------------------------------------------------------------------
# fpt-direct

# Brute force confirms UNSAT verdicts only up to this many candidate sets.
BRUTE_CANDIDATES = 6000


def candidate_count(inst) -> int:
    n, k0 = len(inst.variables), inst.weight.k0
    if inst.weight.kind.value == "exact":
        return comb(n, k0)
    return sum(comb(n, j) for j in range(k0 + 1))


class FPTDirect(Workload):
    name = "fpt-direct"
    why = (
        "shared-weight-set W bodies (n 100-1000, k0 1-4, exact and at-most) via solve_w_kue and "
        "solve_w_kt; 400-request pool cycled; never enters machines, partials or formats"
    )
    pool_size = 400
    trace_items = 200
    # (label, solver, profile, at-most, k0, n, body length, max arity). The kt
    # slots keep 0 out of the weight sets, which that solver requires; with
    # bodies longer than t * k0 it prunes without enumerating. Sorted by
    # cost, the slots fall into three clusters: four sub-millisecond slots,
    # then four at about 3 ms (kue-k1, kue-k3-atmost) that hold p50, then
    # the two kue-k4 slots that hold p90.
    slots = (
        ("kt-k1", "kt", "w-odd", False, 1, 1000, 10, 4),
        ("kt-k3-atmost", "kt", "w-odd", True, 3, 500, 10, 3),
        ("kue-k2", "kue", "w-even", False, 2, 100, 12, 4),
        ("kt-k4", "kt", "w-finite", False, 4, 100, 4, 4),
        ("kue-k1", "kue", "w-finite", False, 1, 1000, 10, 4),
        ("kue-k1", "kue", "w-finite", False, 1, 1000, 10, 4),
        ("kue-k1", "kue", "w-finite", False, 1, 1000, 10, 4),
        ("kue-k3-atmost", "kue", "w-cofinite", True, 3, 500, 10, 4),
        ("kue-k4", "kue", "w-odd", False, 4, 1000, 8, 4),
        ("kue-k4", "kue", "w-odd", False, 4, 1000, 8, 4),
    )

    def make(self, seed, index, tr):
        label, solver, profile, atmost, k0, n, body, arity = self.slots[index % len(self.slots)]
        cfg = self.api.InstanceConfig(
            n=n, k0=k0, profile=profile, body_len=body, max_arity=arity, atmost=atmost,
            exclude_zero=True,
        )
        return Req(index, label, self._draw(seed, index, cfg, None, tr), {"solver": solver})

    def call(self, req):
        if req.meta["solver"] == "kt":
            return self.api.solve_w_kt(req.inst)
        return self.api.solve_w_kue(req.inst)

    def call_traced(self, req, tr):
        kt = req.meta["solver"] == "kt"
        with tr.span("fpt_solvers.solve") as counts:
            if kt:
                witness, stats = self.api.solve_w_kt_with_stats(req.inst)
            else:
                witness, stats = self.api.solve_w_kue_with_stats(req.inst)
            counts["classes"] = stats.class_count
            counts["vectors"] = stats.multisets_enumerated
            counts["kt_calls"] = int(kt)
            counts["pruned"] = int(stats.pruned)
        return witness

    def reference(self, req):
        if candidate_count(req.inst) > BRUTE_CANDIDATES:
            return UNKNOWN
        return self.api.brute_force_solve(req.inst)

    def check(self, req, outcome, ref):
        return _verdict_problem(self.api, req.inst, outcome, ref, lex_first=False)

    def report(self, outcomes, refs):
        unsat = [index for index, (_, witness) in outcomes.items() if witness is None]
        checked = sum(1 for index in unsat if refs[index] is not UNKNOWN)
        share = checked / len(unsat) if unsat else 1.0
        return [f"fpt_solvers.unsat_checked_share {share} ratio ({checked}/{len(unsat)} distinct UNSAT requests checked by brute force)"]


# --------------------------------------------------------------------------
# documents


def _gen_args(kind: dict, seed: int) -> list[str]:
    args = [
        "gen", "--seed", str(seed), "--n", str(kind["n"]), "--k0", str(kind["k0"]),
        "--profile", kind["profile"], "--body", str(kind["body"]),
        "--min-arity", str(kind["min_arity"]), "--max-arity", str(kind["max_arity"]),
    ]
    if kind.get("finite_values"):
        args += ["--finite-values", ",".join(str(v) for v in kind["finite_values"])]
    return args


class Documents(Workload):
    name = "documents"
    why = (
        "in-process paramcsp.cli.run calls (gen, stats, 4 solve methods, 3 reduce targets, "
        "simulate) on 60 small documents, 340 requests cycled; argparse and JSON dominate"
    )
    pool_size = 60
    trace_items = 340
    # One document item per kind in turn; each item runs its command list in
    # order, so every simulate reads the machine document its reduce wrote.
    kinds = (
        ("w", dict(n=7, k0=2, profile="w-finite", body=3, min_arity=1, max_arity=3),
         ("gen", "stats", "solve", "solve-fpt-kue", "reduce-appearance", "simulate-appearance")),
        ("cw", dict(n=8, k0=2, profile="cw", body=4, min_arity=1, max_arity=3),
         ("gen", "stats", "solve", "solve-cw-machine", "reduce-cw", "simulate-cw")),
        ("clause", dict(n=4, k0=1, profile="w-finite", body=2, min_arity=2, max_arity=2,
                        finite_values=(1,)),
         ("gen", "solve", "solve-completion-pipeline", "reduce-w-cw", "stats-w-cw")),
    )

    def __init__(self, api, workdir: str) -> None:
        super().__init__(api)
        self.workdir = workdir
        self.items: list[dict] = []
        self._round_trips: dict[str, str | None] = {}

    def path(self, item: int, what: str) -> str:
        return os.path.join(self.workdir, f"i{item:04d}-{what}.json")

    def setup(self, seed, tr):
        api = self.api
        os.makedirs(self.workdir, exist_ok=True)
        self.items, self.pool = [], []
        for item in range(self.pool_size):  # here the pool size counts documents
            label, kind, commands = self.kinds[item % len(self.kinds)]
            cfg = self._gen_cfg(item)
            for attempt in range(200):
                gen_seed = item_seed(seed, item, attempt)
                with tr.span("instances.generate"):
                    inst = api.random_instance(gen_seed, cfg)
                # Clause items are drawn satisfiable, so the pipeline solves
                # among them cost about the same whatever the seed.
                if label != "clause" or api.brute_force_solve(inst) is not None:
                    break
            text = api.serialize_instance(inst)
            doc = self.path(item, "doc")
            with open(doc, "w", encoding="utf-8") as handle:
                handle.write(text)
            self.items.append({"inst": inst, "text": text, "k0": kind["k0"]})
            for command in commands:
                argv = self.argv(item, command, kind, gen_seed)
                self.pool.append(Req(len(self.pool), f"{label}:{command}", inst, {
                    "item": item, "command": command, "argv": argv, "seed": gen_seed,
                }))

    def argv(self, item, command, kind, gen_seed) -> list[str]:
        doc = self.path(item, "doc")
        if command == "gen":
            return _gen_args(kind, gen_seed) + ["--out", self.path(item, "gen")]
        if command == "stats":
            return ["stats", doc]
        if command == "stats-w-cw":
            return ["stats", self.path(item, "w-cw")]
        if command == "solve":
            return ["solve", doc]
        if command.startswith("solve-"):
            method = command[len("solve-"):]
            extra = ["--budget-report"] if method == "cw-machine" else []
            return ["solve", doc, "--method", method] + extra
        if command.startswith("reduce-"):
            target = command[len("reduce-"):]
            return ["reduce", doc, "--to", target, "--out", self.path(item, target)]
        target = command[len("simulate-"):]
        return ["simulate", self.path(item, target), "--budget-report"]

    def warm(self):
        for req in self.pool[: sum(len(k[2]) for k in self.kinds)]:
            self.call(req)

    def call(self, req):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.api.cli.run(req.meta["argv"])
        return code, out.getvalue(), err.getvalue()

    def call_traced(self, req, tr):
        with tr.span("cli.run"):
            return self.call(req)

    def _read(self, path: str) -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def _parse(self, tr, path: str, machine: bool = False):
        text = self._read(path)
        with tr.span("formats.parse") as counts:
            parsed = (self.api.parse_machine if machine else self.api.parse_instance)(text)
            counts["bytes"] = len(text.encode())
        return parsed

    def _serialize(self, tr, obj, machine: bool = False) -> str:
        with tr.span("formats.serialize") as counts:
            text = (self.api.serialize_machine if machine else self.api.serialize_instance)(obj)
            counts["bytes"] = len(text.encode())
        return text

    def probe(self, req, tr):
        """Make the command's public calls directly; ``cli.self_ms`` subtracts them."""
        api = self.api
        command, item = req.meta["command"], req.meta["item"]
        doc = self.path(item, "doc")
        with tr.span("cli.direct"):
            if command == "gen":
                with tr.span("instances.generate"):
                    inst = api.random_instance(req.meta["seed"], self._gen_cfg(item))
                self._serialize(tr, inst)
            elif command.startswith("stats"):
                inst = self._parse(tr, self.path(item, "w-cw") if command == "stats-w-cw" else doc)
                with tr.span("instances.params"):
                    api.param_u(inst), api.param_t(inst), api.param_e(inst)
            elif command == "solve":
                inst = self._parse(tr, doc)
                with tr.span("instances.brute"):
                    api.brute_force_solve(inst)
            elif command == "solve-fpt-kue":
                inst = self._parse(tr, doc)
                with tr.span("fpt_solvers.solve"):
                    api.solve_w_kue(inst)
            elif command == "solve-cw-machine":
                inst = self._parse(tr, doc)
                with tr.span("machines.build"):
                    machine = api.reduce_cw(inst)
                with tr.span("machines.simulate") as counts:
                    _machine_counts(counts, machine, api.simulate(machine))
            elif command == "solve-completion-pipeline":
                inst = self._parse(tr, doc)
                with tr.span("machines.pipeline"):
                    api.solve_wd_pipeline(inst, 1)
            elif command in ("reduce-appearance", "reduce-cw"):
                inst = self._parse(tr, doc)
                with tr.span("machines.build"):
                    reducer = api.reduce_appearance if command == "reduce-appearance" else api.reduce_cw
                    machine = reducer(inst)
                self._serialize(tr, machine, machine=True)
            elif command == "reduce-w-cw":
                inst = self._parse(tr, doc)
                with tr.span("machines.explicitize"):
                    explicit = api.explicitize_w_body(inst, 1)
                with tr.span("machines.completion") as counts:
                    reduction = api.completion_reduction(explicit, 1)
                    counts["indicators"] = len(reduction.indicator_keys)
                self._serialize(tr, reduction.instance)
            else:
                machine = self._parse(tr, self.path(item, command[len("simulate-"):]), machine=True)
                with tr.span("machines.simulate") as counts:
                    _machine_counts(counts, machine, api.simulate(machine))
        if command == "solve":
            # brute_force_solve is a loop of satisfies calls; repeat that loop
            # directly to time satisfies and count its calls.
            inst = self.items[item]["inst"]
            names = sorted(inst.variables)
            with tr.span("instances.satisfies") as counts:
                calls = 0
                for combo in combinations(names, inst.weight.k0):
                    calls += 1
                    if api.satisfies(inst, combo):
                        break
                counts["satisfies_calls"] = calls

    def _gen_cfg(self, item):
        _, kind, _ = self.kinds[item % len(self.kinds)]
        return self.api.InstanceConfig(
            n=kind["n"], k0=kind["k0"], profile=kind["profile"], body_len=kind["body"],
            min_arity=kind["min_arity"], max_arity=kind["max_arity"],
            finite_values=kind.get("finite_values"),
        )

    def ref_key(self, req):
        return req.meta["item"]

    def reference(self, req):
        return self.api.brute_force_solve(self.items[req.meta["item"]]["inst"])

    def _round_trip(self, path: str, machine: bool) -> str | None:
        """Parse then serialize a written document; it must come back byte for byte."""
        if path not in self._round_trips:
            api = self.api
            text = self._read(path)
            if machine:
                again = api.serialize_machine(api.parse_machine(text))
            else:
                again = api.serialize_instance(api.parse_instance(text))
            self._round_trips[path] = None if again == text else f"{path}: round trip changed bytes"
        return self._round_trips[path]

    def check(self, req, outcome, ref):
        api = self.api
        code, out, err = outcome
        command, item = req.meta["command"], req.meta["item"]
        info = self.items[item]
        inst = info["inst"]
        if err:
            return f"stderr: {err.strip()}"
        if command == "gen":
            if code != 0 or out:
                return f"gen exit {code}"
            if self._read(self.path(item, "gen")) != info["text"]:
                return "gen output differs from the set-up document"
            return self._round_trip(self.path(item, "gen"), machine=False)
        if command.startswith("stats"):
            if command == "stats-w-cw":
                inst = api.parse_instance(self._read(self.path(item, "w-cw")))
            exact = inst.weight.kind is api.WeightKind.EXACT
            want = (
                f"parameter: k {'=' if exact else '<='} {inst.weight.k0} "
                f"({'exact' if exact else 'at-most'})\n"
                f"u = {len(inst.body) + 1}\nt = {api.param_t(inst)}\ne = {api.param_e(inst)}\n"
            )
            return None if (code, out) == (0, want) else f"stats printed {out!r}"
        if command.startswith("reduce"):
            if code != 0 or out:
                return f"reduce exit {code}"
            target = command[len("reduce-"):]
            return self._round_trip(self.path(item, target), machine=target != "w-cw")
        lines = out.splitlines()
        if command.startswith("simulate"):
            accepted = lines[:1] == ["ACCEPT"]
            if code != (0 if accepted else 1) or lines[:1] not in (["ACCEPT"], ["REJECT"]):
                return f"simulate exit {code}: {lines[:1]}"
            body, report = lines[1:-3], lines[-3:]
        else:
            if code not in (0, 1) or not lines or lines[0].split()[:1] not in (["WITNESS"], ["UNSAT"]):
                return f"solve exit {code}: {lines[:1]}"
            accepted = lines[0] != "UNSAT"
            body, report = lines[:1], lines[1:]
            if code != (0 if accepted else 1):
                return f"solve exit {code} with {lines[0]}"
        witness = None
        if accepted:
            words = body[0].split() if body else []
            if words[:1] != ["WITNESS"]:
                return "no witness line"
            witness = frozenset(words[1:])
        lex_first = command in ("solve", "solve-cw-machine") or command.startswith("simulate")
        problem = _verdict_problem(api, inst, witness, ref, lex_first=lex_first)
        if problem:
            return problem
        if command in ("solve-cw-machine", "simulate-cw", "simulate-appearance"):
            try:
                budget, steps, _ = (int(line.split(": ")[1]) for line in report)
            except (ValueError, IndexError):
                return f"bad budget report {report!r}"
            if command == "simulate-appearance":
                return None if steps <= budget else f"max_branch_steps {steps} above {budget}"
            return _cw_budget_problem(info["k0"], 1, budget, steps, witness)
        return None

    def report(self, outcomes, refs):
        return [f"documents.round_trips_checked {len(self._round_trips)} count"]


WORKLOADS = {cls.name: cls for cls in (CWScan, WDPipeline, FPTDirect, Documents)}
