"""Golden CLI transcript: stdout bytes and exit codes of a fixed command run.

The run generates one document per profile, then feeds those documents (and
the machine documents it reduces them to) through every subcommand. Stderr is
pinned only for runs that exit 0 or 1, where it carries notes such as the
lifting message; error wording on other exits is free to change.

The expected transcript lives in ``tests/data/cli_golden.txt``. It was
recorded from :func:`transcript`; to inspect a difference, call that function
on an empty directory and diff its return value against the file.
"""

from __future__ import annotations

import os
from pathlib import Path

from paramcsp.cli import run

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"

GEN_ARGS = {
    "w-finite": ["--n", "6", "--k0", "2", "--body", "3", "--max-arity", "3", "--finite-values", "1"],
    "w-cofinite": ["--n", "7", "--k0", "2", "--body", "3", "--atmost"],
    "w-even": ["--n", "6", "--k0", "2", "--body", "2"],
    "w-odd": ["--n", "6", "--k0", "3", "--body", "2", "--atmost"],
    "w-parity": ["--n", "5", "--k0", "2", "--body", "3"],
    "cw": ["--n", "6", "--k0", "2", "--body", "4", "--cw-bound", "1", "--atmost"],
    "explicit": ["--n", "5", "--k0", "2", "--body", "2", "--max-arity", "3"],
    "mixed": ["--n", "6", "--k0", "2", "--body", "3", "--max-arity", "3"],
}
SOLVE_METHODS = ("brute", "fpt-kue", "fpt-kt", "cw-machine", "completion-pipeline")
REDUCE_TARGETS = ("appearance", "cw", "w-cw")
VERIFY_METHODS = ("fpt-kue", "fpt-kt", "appearance", "cw-machine", "completion-pipeline")
ODD3 = '{"type": "W", "weights": {"kind": "odd"}, "arity": 3}'


def _commands(capsys, out_dir: Path):
    """Yield (argv, exit code, stdout, stderr) for each command of the fixed run.

    Documents are written into ``out_dir``, which is the working directory, so
    the argv lines name files relative to it.
    """

    def call(argv, save_as=None):
        code = run(argv)
        out, err = capsys.readouterr()
        if save_as is not None and code == 0:
            (out_dir / save_as).write_text(out, encoding="utf-8")
        return argv, code, out, err

    for seed, (profile, extra) in enumerate(GEN_ARGS.items(), start=1):
        inst = f"{profile}.json"
        yield call(["gen", "--seed", str(seed), "--profile", profile, *extra], save_as=inst)
        yield call(["stats", inst])
        for method in SOLVE_METHODS:
            argv = ["solve", inst, "--method", method]
            if method == "cw-machine":
                argv.append("--budget-report")
            yield call(argv)
        for target in REDUCE_TARGETS:
            yield call(["reduce", inst, "--to", target], save_as=f"{profile}.{target}.json")
            if target != "w-cw" and (out_dir / f"{profile}.{target}.json").exists():
                yield call(["simulate", f"{profile}.{target}.json", "--budget-report"])
        yield call(["partials", "--instance", inst, "--constraint", "1"])
    yield call(["partials", "--relation", ODD3])
    for method in VERIFY_METHODS:
        yield call(["verify", "--method", method, "--count", "20"])


def transcript(capsys, out_dir: Path) -> str:
    """Run the fixed commands inside ``out_dir`` and render their transcript."""
    here = os.getcwd()
    os.chdir(out_dir)
    try:
        parts = []
        for argv, code, out, err in _commands(capsys, out_dir):
            pinned_err = err if code in (0, 1) else "(not pinned)\n"
            parts.append(
                f"$ paramcsp {' '.join(argv)}\n[exit {code}]\n[stdout]\n{out}[stderr]\n{pinned_err}"
            )
        return "".join(parts)
    finally:
        os.chdir(here)


def test_cli_transcript_is_unchanged(capsys, tmp_path):
    assert transcript(capsys, tmp_path) == GOLDEN.read_text(encoding="utf-8")
