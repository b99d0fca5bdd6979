"""Record the verdicts that later runs of the benchmark are compared against.

    python3 bench/record.py

Writes ``bench/expected.json``: the SHA-256 of the two f_max=4 experiment
reports, and per-request verdict tokens for ``catalog`` (which ignores the
seed) and for the first input block of seeds 0-9 of the seeded workloads.
Run it only at a commit whose verdicts are trusted; every certificate is
still re-verified while recording, and recording stops on any failure.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys

import worker

RECORDED_SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, f"{worker.ROOT}/src")
    from eotile import cli

    import workloads

    shas = {}
    for name in workloads.CATALOG_EXPERIMENTS:
        spec = cli.ExperimentSpec(name, {"f_max": workloads.CATALOG_F_MAX, "seed": 0})
        shas[name] = hashlib.sha256(cli.emit_report(cli.run_experiment(spec))).hexdigest()
    expected = {"report_sha256": shas, "verdicts": {}}

    runs = [("catalog", "any", 0)]
    runs += [(w, str(s), s) for w in ("tile-exact", "dense-grid") for s in RECORDED_SEEDS]
    for workload, key, seed in runs:
        record = worker.run_pass(workload, seed, 0, False, expected)
        if record["failures"]:
            print("\n".join(record["failures"]), file=sys.stderr)
            return 1
        expected["verdicts"].setdefault(workload, {})[key] = record["verdicts"]
        print(f"{workload} seed {key}: {len(record['verdicts'])} verdicts", file=sys.stderr)

    # One line per token list keeps the file short and its diffs readable.
    text = re.sub(
        r"\[\s+([^\[\]]*?)\s+\]",
        lambda m: "[" + " ".join(m.group(1).split()) + "]",
        json.dumps(expected, indent=1),
    )
    with open(worker.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
