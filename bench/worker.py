"""One pass of a benchmark workload in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --block B --trace 0|1
    python3 bench/worker.py --setup-only

Times the import of every ``eotile`` module (set-up), builds the workload's
inputs untimed, then issues its requests one after another and times each
call.  Outputs are checked between requests, outside the timer and with
tracing paused.  The last line of standard output is one JSON object;
``run.py`` starts one worker per pass and aggregates them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

MODULES = (
    "eotile",
    "eotile.errors",
    "eotile.core",
    "eotile.canonical",
    "eotile.embed",
    "eotile.characterize",
    "eotile.tiling",
    "eotile.necessity",
    "eotile.cli",
)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def recorded_verdicts(expected: dict, workload: str, seed: int, block: int) -> list[str] | None:
    """Per-request verdict tokens recorded for this input block, if any.

    A seed-independent workload is recorded once, under ``any``; a seeded
    one for the first block of a few seeds.
    """
    table = expected.get("verdicts", {}).get(workload, {})
    if "any" in table:
        return table["any"]
    return table.get(str(seed)) if block == 0 else None


def import_package() -> float:
    """Import every ``eotile`` module; return the seconds it took."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    for name in MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def run_pass(workload: str, seed: int, block: int, traced: bool, expected: dict) -> dict:
    """Import, build inputs, run and check every request; return the record."""
    setup_s = import_package()

    import tracer
    import workloads
    from eotile import necessity

    requests = workloads.WORKLOADS[workload](seed, block, expected.get("report_sha256", {}))
    recorded = recorded_verdicts(expected, workload, seed, block)
    if recorded is not None and len(recorded) != len(requests):
        raise SystemExit(f"expected.json has {len(recorded)} verdicts for {len(requests)} requests")
    profile_cache_at_start = necessity._profile_table.cache_info().currsize

    trace = tracer.Tracer()
    if traced:
        trace.install()
    latencies: list[float] = []
    tokens: list[str | None] = []
    failures: list[str] = []
    for index, request in enumerate(requests):
        trace.active = traced
        began = time.perf_counter()
        try:
            output = request.call()
        except Exception as exc:  # a raising request fails; the pass goes on
            latencies.append(time.perf_counter() - began)
            trace.active = False
            failures.append(f"{request.name}: raised {type(exc).__name__}: {exc}")
            tokens.append(None)
            continue
        latencies.append(time.perf_counter() - began)
        trace.active = False
        try:
            token = workloads.digest(request.check(output))[:8]
        except Exception as exc:  # includes CheckFailed
            failures.append(f"{request.name}: check failed: {type(exc).__name__}: {exc}")
            tokens.append(None)
            continue
        finally:
            del output
        if recorded is not None and recorded[index] != token:
            failures.append(f"{request.name}: verdict {token} != recorded {recorded[index]}")
        tokens.append(token)
    trace.uninstall()

    record = {
        "workload": workload,
        "seed": seed,
        "block": block,
        "traced": traced,
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "requests": [request.name for request in requests],
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures,
        "verdicts": tokens,
        "verdict_digest": workloads.digest(tokens),
        "recorded": recorded is not None,
        "optimize": sys.flags.optimize,
        "profile_cache_at_start": profile_cache_at_start,
    }
    if traced:
        record["layers"] = trace.metrics()
        record["absent"] = trace.absent
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--block", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="only time the imports")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": import_package()}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run_pass(args.workload, args.seed, args.block, bool(args.trace), load_expected())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
