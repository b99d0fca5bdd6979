"""Benchmark driver for eotile: run one workload for a fixed time, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The driver starts one worker process at a
time (``worker.py``); each worker is a fresh interpreter that imports the
package from ``src/``, builds one block of inputs and issues the workload's
requests one after another (closed loop, one client).  Workers are started
until another pass would overrun ``--seconds``.  Pass ``j`` of a seeded
workload uses input block ``j``, so a run covers many distinct inputs.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the driver alternates traced and untraced
passes over the same blocks and reports the per-layer metrics.  Workloads,
metrics and the recorded baseline are described in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
PACKAGE_INIT = os.path.join(ROOT, "src", "eotile", "__init__.py")

# The workloads of workloads.py; the driver does not import it, since that
# would load the package outside any worker.
WORKLOADS = ("catalog", "tile-exact", "dense-grid")

# A run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0

# Import-only workers per run, on top of one per pass: an import takes
# ~0.2 s, short enough that single timings scatter widely.
SETUP_PROBES = 5


class WorkerError(Exception):
    """A worker process crashed, timed out or printed no record."""


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # Fixed string hashing keeps set and dict layouts, and so timings,
    # the same from one fresh interpreter to the next.
    env["PYTHONHASHSEED"] = "0"
    # eotile makes no BLAS calls, and starting numpy's BLAS thread pool was
    # the most variable part of an import (0.13-0.22 s on two cores).
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_worker(workload: str, seed: int, block: int, traced: bool, timeout: float) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--block", str(block)]
    return _run([*args, "--trace", str(int(traced))], timeout)


def time_setup() -> float:
    return _run(["--setup-only"], 60)["setup_s"]


def _run(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, WORKER, *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise WorkerError(f"worker printed no record: {lines[-1][:200]!r}") from exc


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with share ``q`` at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def collect(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run passes until the next one would overrun ``seconds``.

    Untraced runs give pass ``j`` block ``j``.  Traced runs go in pairs over
    one block each, traced and untraced, alternating which runs first.
    """
    records: list[dict] = []
    start = time.perf_counter()
    block = 0
    while True:
        modes = ((True, False) if block % 2 else (False, True)) if trace else (False,)
        for traced in modes:
            remaining = HARD_LIMIT_S - (time.perf_counter() - start)
            if remaining <= 0:
                raise WorkerError("run exceeded its hard time limit")
            records.append(run_worker(workload, seed, block, traced, remaining))
        block += 1
        elapsed = time.perf_counter() - start
        per_block = elapsed / block
        if elapsed + per_block > seconds:
            return records


def request_latencies(records: list[dict]) -> list[float]:
    """One latency per distinct request: the median over the passes that
    issued it.  Seeded inputs differ from pass to pass; ``catalog`` and the
    TwoCliques request of ``tile-exact`` repeat."""
    samples: dict[str, list[float]] = {}
    for r in records:
        for name, seconds in zip(r["requests"], r["latencies_s"]):
            samples.setdefault(name, []).append(seconds)
    return [statistics.median(values) for values in samples.values()]


def end_to_end(records: list[dict], setup_probes: list[float]) -> dict[str, dict]:
    latencies = request_latencies(records)
    values = {
        "wall_s": (statistics.median(r["wall_s"] for r in records), "s"),
        "req_p50_ms": (percentile(latencies, 0.50) * 1000, "ms"),
        "req_p90_ms": (percentile(latencies, 0.90) * 1000, "ms"),
        "setup_s": (statistics.median(setup_probes + [r["setup_s"] for r in records]), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_per_class"):
        return "ratio"
    return "count"


def per_layer(records: list[dict]) -> dict[str, dict]:
    traced = [r for r in records if r["traced"]]
    plain = {r["block"]: r for r in records if not r["traced"]}
    out: dict[str, dict] = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if all(isinstance(v, int) for v in values):
            value = statistics.median_low(values)
        else:
            value = statistics.median(values)
        out[name] = {"value": value, "unit": _layer_unit(name)}
    overhead = statistics.median(r["wall_s"] - plain[r["block"]]["wall_s"] for r in traced)
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def verdict_problems(workload: str, records: list[dict]) -> list[str]:
    """Run-level checks beyond each request's own: cold state, no -O, and
    identical verdicts wherever two passes saw the same inputs."""
    problems = []
    by_block: dict[int, str] = {}
    for r in records:
        if r["optimize"] != 0:
            problems.append("a worker ran with python -O; assert-guarded checks were skipped")
        if r["profile_cache_at_start"] != 0:
            problems.append("necessity._profile_table was warm when the pass started")
        key = 0 if workload == "catalog" else r["block"]
        if by_block.setdefault(key, r["verdict_digest"]) != r["verdict_digest"]:
            problems.append(f"block {key}: verdicts differ between passes over the same inputs")
    return sorted(set(problems))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: package source not found at {PACKAGE_INIT}", file=sys.stderr)
        return 2

    try:
        time_setup()  # compiles the bytecode, so no timed import pays for it
        setup_probes = [] if args.trace else [time_setup() for _ in range(SETUP_PROBES)]
        records = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    absent = sorted({key for r in records for key in r.get("absent", [])})
    if absent:
        print(f"absent from the package, reported as 0: {', '.join(absent)}", file=sys.stderr)
    failures = [f for r in records for f in r["failures"]]
    problems = verdict_problems(args.workload, records)
    for line in (failures + problems)[:50]:
        print(line, file=sys.stderr)
    print(
        f"{args.workload}: {len(records)} passes, "
        f"{len(request_latencies(records))} distinct requests timed, "
        f"{sum(r['recorded'] for r in records)} passes checked against recorded verdicts",
        file=sys.stderr,
    )
    metrics = per_layer(records) if args.trace else end_to_end(records, setup_probes)
    result = {
        "correct": not failures and not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
