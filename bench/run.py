"""Seeded, standard-library-only benchmark of paramcsp.

    python3 bench/run.py --workload cw-scan --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. One process runs one workload as
a closed loop with a single client: the next request starts when the
previous one has returned. Workloads and why each was chosen are listed in
``BENCHMARK.json`` and ``bench/workloads.py``.

``--trace 0`` times requests for ``--seconds`` (and at least one pass over
the pool and 100 requests) and reports the end-to-end metrics, taken over
each distinct request's fastest pass and scaled to a reference host speed
(see ``Calibration``). ``--trace 1`` makes one untraced and one
traced pass over the same fixed prefix of the pool, records spans around
every public call into a layer, reports self time and counters per layer
plus the tracing overhead, and writes the spans to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

Every outcome is checked outside the timed region against brute force, the
pinned machine budgets and counters in ``bench/pins.py``, and byte-identical
document round trips. Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 0 when every check passed, 1 when one failed, and 2 when the
package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

from spans import Tracer  # noqa: E402
from workloads import UNKNOWN, WORKLOADS, Documents  # noqa: E402

MIN_REQUESTS = 100
SETUP_REPEATS = 5

# Shared hosts change speed: by 10-30% over minutes, and by up to 2x for a
# few seconds at a time. A fixed pure-Python loop that never touches
# paramcsp is timed between requests, and every reported time is scaled by
# CALIBRATION_REFERENCE_S over the loop's own fastest time (taken the way
# request times are, see ``Calibration.fastest_of``): times read as they
# would on the host the baseline was recorded on, where the loop took
# CALIBRATION_REFERENCE_S. The unscaled values are printed as well.
CALIBRATION_REFERENCE_S = 0.0042
CALIBRATION_EVERY_S = 0.25


class ImportFailure(Exception):
    pass


class Raised:
    """Outcome of a request that raised instead of returning."""

    def __init__(self, exc: BaseException) -> None:
        self.text = f"{type(exc).__name__}: {exc}"


def load_api():
    """Import paramcsp afresh from the checkout's ``src/``, never from elsewhere."""
    for name in [m for m in sys.modules if m == "paramcsp" or m.startswith("paramcsp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("paramcsp")
        importlib.import_module("paramcsp.cli")
    except ImportError as exc:
        raise ImportFailure(f"cannot import paramcsp from {SRC}: {exc}") from exc
    origin = Path(api.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportFailure(f"paramcsp resolved to {origin}, outside {SRC}")
    return api


def stamp() -> dict:
    """Python version, source identity, cores and load at the start of the run."""
    git_sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else None
        git_sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "paramcsp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
    }


def calibration_work() -> int:
    table: dict = {}
    total = 0
    for i in range(20000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        total += len(key) + (i & 7)
    return total


class Calibration:
    """Times of ``calibration_work``, taken between requests all through the run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        started = perf_counter()
        calibration_work()
        self._last = perf_counter()
        self.samples.append(self._last - started)

    def due(self) -> None:
        if perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.sample()

    def fastest_of(self, k: int) -> float:
        """The loop's typical fastest time over ``k`` samples spread across the run.

        Requests are summarized by their fastest of about ``k`` passes, so the
        loop is summarized the same way: its samples are dealt into groups
        that each span the run, and the median of the group minima is used.
        """
        groups = max(1, len(self.samples) // max(1, k))
        return statistics.median([min(self.samples[g::groups]) for g in range(groups)])

    def scale(self, k: int) -> float:
        return CALIBRATION_REFERENCE_S / self.fastest_of(k)


def make_workload(name: str, api):
    cls = WORKLOADS[name]
    if cls is Documents:
        return cls(api, str(OUT_DIR / f"work-{os.getpid()}"))
    return cls(api)


def set_up(name: str, seed: int, calibration: Calibration):
    """Import, generate the pool, write documents and warm up; repeated, median reported.

    The calibration loop runs before each set-up and once after the last, so
    set-up times are scaled by the host speed of the same seconds.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        calibration.sample()
        started = perf_counter()
        api = load_api()
        workload = make_workload(name, api)
        tracer = Tracer()
        tracer.request = "setup"
        workload.setup(seed, tracer)
        workload.warm()
        times.append(perf_counter() - started)
    calibration.sample()
    return workload, tracer, times


def timed(workload, req):
    started = perf_counter()
    try:
        outcome = workload.call(req)
    except Exception as exc:  # a raising request is a failed request
        outcome = Raised(exc)
    return outcome, perf_counter() - started


def closed_loop(workload, seconds: float, min_requests: int | None, calibration: Calibration):
    """Cycle through the pool for ``seconds``, at least one full pass and 100 requests.

    Returns the latencies, the (request, outcome) pairs, the wall time and
    the number of passes made through the pool.
    """
    pool = workload.pool
    if min_requests is None:
        min_requests = max(MIN_REQUESTS, len(pool))
    latencies, done = [], []
    started = perf_counter()
    deadline = started + seconds
    i = 0
    while True:
        req = pool[i % len(pool)]
        outcome, took = timed(workload, req)
        latencies.append(took)
        done.append((req, outcome))
        calibration.due()
        i += 1
        if i >= min_requests and perf_counter() >= deadline:
            break
    return latencies, done, perf_counter() - started, max(1, round(i / len(pool)))


def traced_passes(workload, tracer: Tracer, items: int):
    """Untraced then traced pass over the same requests; returns both totals."""
    reqs = workload.pool[:items]
    done = []
    untraced = 0.0
    for req in reqs:
        outcome, took = timed(workload, req)
        untraced += took
        done.append((req, outcome))
    traced = 0.0
    for req in reqs:
        tracer.request = req.index
        with tracer.span("request"):
            start = perf_counter()
            try:
                outcome = workload.call_traced(req, tracer)
            except Exception as exc:
                outcome = Raised(exc)
            traced += perf_counter() - start
        done.append((req, outcome))
        workload.probe(req, tracer)
    return done, untraced, traced


def verify(workload, done, plant: bool):
    """Check every outcome; returns (failure messages, references, outcomes by index)."""
    refs: dict = {}
    first_key = workload.ref_key(done[0][0])
    failures = []
    outcomes: dict = {}
    for req, outcome in done:
        key = workload.ref_key(req)
        if key not in refs:
            ref = workload.reference(req)
            if plant and key == first_key:
                ref = None if ref is not None and ref is not UNKNOWN else frozenset({"planted"})
            refs[key] = ref
        outcomes.setdefault(req.index, (req, outcome))
        if isinstance(outcome, Raised):
            problem = f"raised {outcome.text}"
        else:
            try:
                problem = workload.check(req, outcome, refs[key])
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"request {req.index} ({req.slot}): {problem}")
    return failures, refs, outcomes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fastest(latencies, done) -> list[float]:
    """Each distinct request's fastest completion over its passes through the pool.

    Shared hosts slow a core down by up to 2x, often for seconds at a time.
    A pool request comes round again on every pass, so its fastest sample is
    its cost without that interference; percentiles and throughput are
    taken over these per-request times.
    """
    best: dict[int, float] = {}
    for (req, _), took in zip(done, latencies):
        if took < best.get(req.index, float("inf")):
            best[req.index] = took
    return list(best.values())


def end_to_end(best: list[float], setup_times, scale: float, setup_scale: float) -> dict:
    """End-to-end metrics; times are multiplied by the host scale of their phase."""
    deciles = statistics.quantiles(best, n=10)
    return {
        "verdicts_per_s": {"value": len(best) / (sum(best) * scale), "unit": "1/s"},
        "latency_ms.p50": {"value": deciles[4] * 1e3 * scale, "unit": "ms"},
        "latency_ms.p90": {"value": deciles[8] * 1e3 * scale, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times) * setup_scale, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def per_layer(tracer: Tracer, untraced: float, traced: float) -> dict:
    is_request = lambda r: r != "setup"  # noqa: E731
    seconds, counts = tracer.totals(is_request)
    setup_seconds, _ = tracer.totals(lambda r: r == "setup")

    def ratio(num, den):
        return num / den if den else 0.0

    # cli.run time minus the direct public calls of the same request.
    direct = {
        rec["request"]: rec["end"] - rec["start"]
        for rec in tracer.spans
        if rec["name"] == "cli.direct"
    }
    cli_self = [
        rec["end"] - rec["start"] - direct[rec["request"]]
        for rec in tracer.spans
        if rec["name"] == "cli.run" and rec["request"] in direct
    ]
    values = {
        "machines.simulate_s": (seconds["machines.simulate"], "s"),
        "machines.us_per_branch": (ratio(seconds["machines.simulate"] * 1e6, counts["branches"]), "us"),
        "machines.branches": (counts["branches"], "count"),
        "machines.max_branch_steps": (counts["max_branch_steps"], "count"),
        "machines.budget": (counts["budget"], "count"),
        "machines.build_s": (seconds["machines.build"], "s"),
        "machines.cw_table_entries": (counts["cw_table_entries"], "count"),
        "machines.explicitize_s": (seconds["machines.explicitize"], "s"),
        "machines.completion_s": (seconds["machines.completion"], "s"),
        "machines.indicators": (counts["indicators"], "count"),
        "machines.universe": (counts["universe"], "count"),
        "machines.guess_size": (counts["guess_size"], "count"),
        "partials.compute_s": (seconds["partials.compute"], "s"),
        "partials.entries": (counts["partial_entries"], "count"),
        "instances.lift_s": (seconds["instances.lift"], "s"),
        "instances.generate_s": (setup_seconds["instances.generate"], "s"),
        "instances.brute_s": (seconds["instances.brute"], "s"),
        "instances.satisfies_s": (seconds["instances.satisfies"], "s"),
        "instances.satisfies_calls": (counts["satisfies_calls"], "count"),
        "fpt_solvers.solve_s": (seconds["fpt_solvers.solve"], "s"),
        "fpt_solvers.us_per_vector": (ratio(seconds["fpt_solvers.solve"] * 1e6, counts["vectors"]), "us"),
        "fpt_solvers.classes": (counts["classes"], "count"),
        "fpt_solvers.vectors": (counts["vectors"], "count"),
        "fpt_solvers.pruned_ratio": (ratio(counts["pruned"], counts["kt_calls"]), "ratio"),
        "formats.parse_s": (seconds["formats.parse"], "s"),
        "formats.serialize_s": (seconds["formats.serialize"], "s"),
        "formats.bytes": (counts["bytes"], "bytes"),
        "cli.self_ms": (statistics.fmean(cli_self) * 1e3 if cli_self else 0.0, "ms"),
        "trace.overhead": (ratio(traced, untraced), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, *, min_requests: int | None = None,
        trace_items: int | None = None, plant: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the human-readable lines."""
    info = stamp()
    calibration = Calibration()
    workload, tracer, setup_times = set_up(name, seed, calibration)
    try:
        if trace:
            items = trace_items or workload.trace_items
            done, untraced, traced = traced_passes(workload, tracer, items)
        else:
            latencies, done, wall, passes = closed_loop(workload, seconds, min_requests, calibration)
        failures, refs, outcomes = verify(workload, done, plant)
        pin_count, pin_failures = workload.pin_problems()
        extra = workload.report(outcomes, refs)
    finally:
        workload.close()
        if isinstance(workload, Documents):
            shutil.rmtree(workload.workdir, ignore_errors=True)
    failures += pin_failures
    attempted = len(done) + pin_count
    if trace:
        metrics = per_layer(tracer, untraced, traced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / f"trace-{name}-seed{seed}.jsonl"))
    else:
        best = fastest(latencies, done)
        scale = calibration.scale(passes)
        setup_scale = CALIBRATION_REFERENCE_S / statistics.median(calibration.samples[: SETUP_REPEATS + 1])
        metrics = end_to_end(best, setup_times, scale, setup_scale)
        unscaled = end_to_end(best, setup_times, 1.0, 1.0)
    lines = [
        f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}",
        f"# stamp {json.dumps(info, sort_keys=True)}",
    ]
    for metric, entry in metrics.items():
        lines.append(f"{metric} {entry['value']} {entry['unit']}")
    if not trace:
        lines.append(
            f"latency_ms.samples {len(best)} count "
            f"(distinct requests; {len(latencies)} timed in {wall:.3f} s)"
        )
        lines.append(f"verdicts_per_s.wall {len(latencies) / wall} 1/s (all requests over wall time)")
        lines.append(
            f"host.scale {scale} ratio (calibration loop {calibration.fastest_of(passes) * 1e3:.4f} ms, "
            f"fastest of {passes} passes from {len(calibration.samples)} samples; "
            f"reference {CALIBRATION_REFERENCE_S * 1e3} ms)"
        )
        for metric, entry in unscaled.items():
            if entry["unit"] != "MB":
                lines.append(f"{metric}.unscaled {entry['value']} {entry['unit']}")
    lines.append(f"failed_ratio {len(failures) / attempted} ratio ({len(failures)}/{attempted})")
    lines += extra
    lines += [f"FAIL {message}" for message in failures[:20]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
