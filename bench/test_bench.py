"""Tests of the benchmark itself: inputs, tracer, cold state, verdicts.

    python3 -m pytest bench/test_bench.py -q

Runs every workload once traced and once untraced (about a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import combinations, permutations

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from eotile import core, embed, tiling  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def passes() -> dict[tuple[str, bool], dict]:
    """One fresh-interpreter pass per workload, untraced and traced."""
    return {
        (name, traced): run.run_worker(name, 0, 0, traced, timeout=170)
        for name in WORKLOADS
        for traced in (False, True)
    }


def _unlabeled(edges) -> tuple:
    return min(
        tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
        for p in permutations(range(5))
    )


def _connected(edges) -> bool:
    reach, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in reach:
                    reach.add(y)
                    frontier.append(y)
    return len(reach) == 5


def test_driver_and_workload_module_name_the_same_workloads():
    assert run.WORKLOADS == WORKLOADS


def test_catalog_shapes_are_the_connected_five_vertex_graphs_up_to_eight_edges():
    pairs = list(combinations(range(5), 2))
    wanted = {
        _unlabeled(chosen)
        for m in range(4, 9)
        for chosen in combinations(pairs, m)
        if _connected(chosen)
    }
    shapes = [_unlabeled(shape) for shape in workloads.CATALOG_SHAPES]
    assert len(shapes) == len(set(shapes)) == 19
    assert set(shapes) == wanted


def test_seeded_inputs_repeat_per_seed_and_block():
    def hosts(seed, block):
        return [
            workloads.random_clique_ordering(rng, 6).edges
            for rng in workloads._block_rngs(seed, block, 2)
        ]

    assert hosts(3, 1) == hosts(3, 1)
    assert hosts(3, 1) != hosts(4, 1)
    assert hosts(3, 1) != hosts(3, 2)


def test_every_pass_passes_its_checks(passes):
    for (name, traced), record in passes.items():
        assert record["failures"] == [], (name, traced)
        assert record["recorded"], f"{name} has no recorded verdicts for seed 0"
        assert record["optimize"] == 0


def test_reported_metrics_are_the_ones_benchmark_json_declares(passes):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for name in WORKLOADS:
        plain, traced = passes[(name, False)], passes[(name, True)]
        for declared, reported in (
            (spec["end_to_end"], run.end_to_end([plain], [plain["setup_s"]])),
            (spec["per_layer"], run.per_layer([plain, traced])),
        ):
            assert {m["name"]: m["unit"] for m in declared} == {
                key: metric["unit"] for key, metric in reported.items()
            }
        assert all(v["value"] > 0 for v in run.end_to_end([plain], [plain["setup_s"]]).values())


def test_catalog_pass_starts_with_a_cold_profile_table(passes):
    assert passes[("catalog", False)]["profile_cache_at_start"] == 0
    assert passes[("catalog", True)]["profile_cache_at_start"] == 0


def test_traced_and_untraced_passes_give_the_same_verdicts(passes):
    for name in WORKLOADS:
        assert passes[(name, True)]["verdict_digest"] == passes[(name, False)]["verdict_digest"]


def test_every_wrapped_function_is_reached_by_some_workload(passes):
    reached = {
        key
        for name in WORKLOADS
        for key in tracer.TRACED
        if passes[(name, True)]["layers"][f"{key}.calls"] > 0
    }
    assert set(tracer.TRACED) - reached == set()
    assert all(not passes[(name, True)]["absent"] for name in WORKLOADS)


def test_enumeration_owns_the_catalog_and_nothing_else(passes):
    enumeration = ("core.canonical_code", "core.enumerate_orderings", "core.canonical_form")

    def shares(name):
        layers = passes[(name, True)]["layers"]
        total = sum(layers[f"{key}.self_s"] for key in tracer.TRACED)
        return {key: layers[f"{key}.self_s"] / total for key in tracer.TRACED}

    grouped: dict[str, float] = {}
    for key, share in shares("catalog").items():
        group = "enumeration" if key in enumeration else key
        grouped[group] = grouped.get(group, 0.0) + share
    assert max(grouped, key=grouped.get) == "enumeration"
    for name in ("tile-exact", "dense-grid"):
        assert sum(shares(name)[key] for key in enumeration) < 0.01


def test_generator_spans_cover_consumption():
    shape = core.build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.active = True
        stream = core.enumerate_orderings(shape)
        assert trace.calls["core.enumerate_orderings"] == 1
        assert trace.calls["core.canonical_code"] == 0  # created, not yet run
        classes = list(stream)
    finally:
        trace.active = False
        trace.uninstall()
    metrics = trace.metrics()
    assert trace.yielded["core.enumerate_orderings"] == len(classes)
    # Every one of the 3! labelings is coded, through core's module global.
    assert metrics["core.canonical_code.calls"] == 6
    assert metrics["core.enumerate_orderings.self_s"] > 0
    assert metrics["core.canonical_code.calls_per_class"] == 6 / len(classes)
    assert not hasattr(core.enumerate_orderings, "__wrapped__")  # uninstall restored it


def test_recursion_through_the_module_global_is_counted():
    host = embed.monotone_path_graph(7)  # 8 vertices, tiled by two P3s
    piece = embed.monotone_path_graph(3)
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.active = True
        result = tiling.perfect_tiling_exact(host, piece)
    finally:
        trace.active = False
        trace.uninstall()
    assert result is not None
    assert trace.calls["tiling._cover"] >= 2
    assert trace.calls["tiling.perfect_tiling_exact"] == 1
    assert trace.calls["tiling._spanning_sets"] == 1


def test_deleted_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(tiling, "_absorber_block")
    trace = tracer.Tracer()
    trace.install()
    trace.uninstall()
    assert trace.absent == ["tiling._absorber_block"]
    metrics = trace.metrics()
    assert metrics["tiling._absorber_block.calls"] == 0
    assert metrics["trace.absent_functions"] == 1


def test_driver_refuses_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
