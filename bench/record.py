"""Run every workload over several seeds and summarize the spread.

    python3 bench/record.py --seeds 10 --seconds 20 --out bench/trajectory/BENCH_1.json

Each run is its own ``bench/run.py`` process, one after another, so no two
runs share the machine's two cores. For every workload and end-to-end metric
this prints the median, the quartiles and the spread (interquartile range as
a share of the median) next to the bound fixed in ``BENCHMARK.json``, plus
``failed_ratio`` over all runs. One traced run per workload adds the
per-layer metrics. With ``--out`` the summary, every run's values and the
stamp of the first run are written as one JSON file: a point of the
``BENCH_*`` trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output, exit {proc.returncode}\n{proc.stderr}")
    stamp = next((line[len("# stamp "):] for line in lines if line.startswith("# stamp ")), "{}")
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        print("\n".join(line for line in lines if line.startswith("FAIL")), file=sys.stderr)
    return result, stamp


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"settings": vars(args), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs, attempted, failed = [], 0, 0
        for seed in seeds:
            result, stamp = run_once(workload, seed, args.seconds, 0)
            report.setdefault("stamp", json.loads(stamp))
            attempted += result["attempted"]
            failed += result["failed"]
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
        traced, _ = run_once(workload, seeds[0], args.seconds, 1)
        failed += traced["failed"]
        attempted += traced["attempted"]
        summary = {}
        print(f"== {workload}: seeds {seeds[0]}..{seeds[-1]}, {args.seconds} s each")
        for name, bound in bounds.items():
            median, q1, q3, share = spread([r[name] for r in runs])
            unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)
            steady = name == "setup_s" or share <= bound / 3
            ok &= steady
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": share,
                             "bound": bound, "unit": unit}
            print(f"{name:16s} {median:12.4f} {unit:5s} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {share:.4f} bound {bound} {'ok' if steady else 'WIDE'}")
        print(f"failed_ratio     {failed / attempted} ratio ({failed}/{attempted})")
        ok &= failed == 0
        report["workloads"][workload] = {
            "seeds": seeds, "runs": runs, "summary": summary,
            "failed_ratio": failed / attempted, "attempted": attempted,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
