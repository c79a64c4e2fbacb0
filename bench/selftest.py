"""Small-size self-test of the benchmark itself.

    python3 bench/selftest.py

For every workload, a short untraced run and a short traced run must report
exactly the metrics that ``BENCHMARK.json`` names, with the units it gives,
and pass every correctness check. A run with one planted wrong reference
verdict must count at least one failed request. Exits 0 when all of that
holds.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            result, lines = run.run(workload, 7, 0.2, trace, min_requests=12, trace_items=12)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != wanted[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics {sorted(units.items())}")
            if not result["correct"] or result["failed"] or result["attempted"] < 12:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} failed")
                problems += [line for line in lines if line.startswith("FAIL")][:3]
        planted, _ = run.run(workload, 7, 0.2, False, min_requests=12, plant=True)
        if planted["correct"] or not planted["failed"] / planted["attempted"] > 0:
            problems.append(f"{workload}: a planted wrong reference went unnoticed")
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
