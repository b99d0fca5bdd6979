"""The benchmark's workloads: seeded inputs, requests and output checks.

A workload is an ordered list of requests.  Inputs are built here, before
any timer starts, so the program receives only finished graphs.  Every
request calls into ``eotile`` through module attributes looked up at call
time, so a traced run sees the wrapped functions.

Each request returns its output; ``check`` turns that output into a verdict
(a small JSON value that later changes must keep) and re-verifies every
certificate with the package's independent checkers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import numpy as np

from eotile import canonical, characterize, cli, core, embed, tiling
from eotile.cli import ExperimentSpec

CATALOG_EXPERIMENTS = ("catalog-verdicts", "necessity-scan")
CATALOG_F_MAX = 4

# The connected 5-vertex shapes whose m! labelings fit the default cap of
# enumerate_orderings (m <= 8), one per isomorphism class of the underlying
# graph, by edge count.  K5 minus an edge (m = 9) and K5 (m = 10) exceed
# the cap today and are left out, so a change that makes them decidable is
# not counted as a slowdown.
CATALOG_SHAPES: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    tuple((int(p[0]), int(p[1])) for p in text.split())
    for text in (
        "01 02 03 04",
        "01 02 03 14",
        "01 02 13 24",
        "01 02 03 04 12",
        "01 02 03 12 14",
        "01 02 03 12 34",
        "01 02 03 14 24",
        "01 02 13 24 34",
        "01 02 03 04 12 13",
        "01 02 03 04 12 34",
        "01 02 03 12 13 24",
        "01 02 03 12 14 34",
        "01 02 03 14 24 34",
        "01 02 03 04 12 13 14",
        "01 02 03 04 12 13 23",
        "01 02 03 04 12 13 24",
        "01 02 03 12 13 24 34",
        "01 02 03 04 12 13 14 23",
        "01 02 03 04 12 13 24 34",
    )
)

TILE_EXACT_HOSTS = 3  # uniformly random orderings of K15
TILE_EXACT_N = 15
TWO_CLIQUES_N, TWO_CLIQUES_K = 20, 4
SUBCLIQUE_HOSTS = 3  # uniformly random orderings of K12
SUBCLIQUE_N, SUBCLIQUE_X, SUBCLIQUE_F = 12, 0, 6

# One theorem1-grid cell.  The n=15, k=4 cell is left out: about one host
# in eight needs a ~0.3 s exact solve there, so the request-set time would
# follow how many such hosts a seed happens to draw, not the code.
DENSE_HOSTS = 200
DENSE_N, DENSE_K = 16, 3
DENSE_ETA = 0.25
DENSE_EDGE_PROB = 0.9


@dataclass(frozen=True)
class Request:
    """One call into the program and the check of its output.

    ``check`` returns the request's verdict, or raises ``CheckFailed``.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], Any]


class CheckFailed(Exception):
    """A request's output failed re-verification or an expected verdict."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def digest(value: Any) -> str:
    """Short SHA-256 of a JSON value; stable across runs and machines."""
    data = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()[:16]


def _block_rngs(seed: int, block: int, count: int) -> list[np.random.Generator]:
    """Streams for the ``count`` inputs of one pass; pass ``block`` of a run
    takes inputs ``block * count .. block * count + count - 1``."""
    return [
        np.random.default_rng(np.random.SeedSequence([seed, block * count + i]))
        for i in range(count)
    ]


def random_clique_ordering(rng: np.random.Generator, n: int) -> core.EdgeOrderedGraph:
    """K_n with a uniformly random edge order."""
    pairs = list(combinations(range(n), 2))
    ranks = rng.permutation(len(pairs)) + 1
    return core.build_graph(n, [(u, v, int(r)) for (u, v), r in zip(pairs, ranks)])


def random_dense_host(
    rng: np.random.Generator, n: int, min_degree: int, edge_prob: float
) -> core.EdgeOrderedGraph:
    """The theorem1-grid recipe: keep each pair with ``edge_prob`` until the
    minimum degree holds, then order the edges uniformly at random."""
    pairs = list(combinations(range(n), 2))
    while True:
        mask = rng.random(len(pairs)) < edge_prob
        chosen = [p for p, keep in zip(pairs, mask) if keep]
        degrees = [0] * n
        for u, v in chosen:
            degrees[u] += 1
            degrees[v] += 1
        if min(degrees) >= min_degree:
            ranks = rng.permutation(len(chosen)) + 1
            return core.build_graph(n, [(u, v, int(r)) for (u, v), r in zip(chosen, ranks)])


def _check_tiling(host, piece, result) -> str:
    if result is None:
        return "none"
    _require(result.is_perfect_for(host), "tiling does not cover the host")
    _require(tiling.verify_tiling(host, piece, result), "tiling fails verify_tiling")
    return "tiled"


# -- catalog ---------------------------------------------------------------


def _experiment_request(name: str, report_sha256: dict[str, str]) -> Request:
    spec = ExperimentSpec(name, {"f_max": CATALOG_F_MAX, "seed": 0})

    def check(report) -> Any:
        data = cli.emit_report(report)
        expected = report_sha256.get(name)
        _require(
            expected is None or hashlib.sha256(data).hexdigest() == expected,
            f"{name} report bytes differ from the recorded SHA-256",
        )
        return [row["outcome"] for row in report["trials"]]

    return Request(name, lambda: cli.run_experiment(spec), check)


def _classify_classes(shape: core.EdgeOrderedGraph) -> list[tuple[Any, ...]]:
    """The catalog-verdicts treatment of every ordering class of ``shape``."""
    out = []
    for graph in core.enumerate_orderings(shape):
        turan = characterize.is_turanable(graph)
        if not turan.value:
            out.append((graph, turan, None, None))
            continue
        chi = core.chromatic_number(graph)
        out.append((graph, turan, chi, characterize.is_tileable(graph)))
    return out


def _check_classes(results) -> Any:
    rows = []
    for graph, turan, chi, tile in results:
        if turan.value:
            for kind, emb in turan.certificates.items():
                host = canonical.canonical_clique(kind, graph.n)
                _require(embed.verify_embedding(graph, host, emb), f"bad {kind} certificate")
        if tile is not None and tile.value:
            for kind, emb in tile.certificates.items():
                host, _ = canonical.star_canonical_clique(kind, graph.n)
                _require(embed.verify_embedding(graph, host, emb), f"bad {kind} certificate")
        if not turan.value:
            verdict = ["not-turanable", turan.failing.value]
        elif tile.value:
            verdict = ["tileable", chi]
        else:
            verdict = ["turanable-only", chi, tile.failing.label]
        rows.append([[list(e) for e in graph.edges], verdict])
    return digest(sorted(rows))


def catalog(seed: int, block: int, report_sha256: dict[str, str]) -> list[Request]:
    """Seed-independent: two f_max=4 experiments and 19 five-vertex shapes."""
    del seed, block
    requests = [_experiment_request(name, report_sha256) for name in CATALOG_EXPERIMENTS]
    for index, pairs in enumerate(CATALOG_SHAPES):
        shape = core.build_graph(5, [(u, v, i + 1) for i, (u, v) in enumerate(pairs)])
        requests.append(
            Request(
                f"shape-{index}-m{len(pairs)}",
                lambda shape=shape: _classify_classes(shape),
                _check_classes,
            )
        )
    return requests


# -- tile-exact ------------------------------------------------------------


def tile_exact(seed: int, block: int, report_sha256: dict[str, str]) -> list[Request]:
    """Exact tilings of random K15 orderings, one exhausted negative, and
    exhaustive star-canonical subclique searches in random K12 orderings."""
    del report_sha256
    rngs = _block_rngs(seed, block, TILE_EXACT_HOSTS + SUBCLIQUE_HOSTS)
    pieces = (
        ("P4", embed.monotone_path_graph(4)),
        ("1432", characterize.path_with_ranks("1432")),
    )
    requests = []
    for i in range(TILE_EXACT_HOSTS):
        host = random_clique_ordering(rngs[i], TILE_EXACT_N)
        for label, piece in pieces:
            requests.append(
                Request(
                    f"K{TILE_EXACT_N}-{block}.{i}/{label}",
                    lambda host=host, piece=piece: tiling.perfect_tiling_exact(host, piece),
                    lambda out, host=host, piece=piece: _check_tiling(host, piece, out),
                )
            )

    two = tiling.extremal_construction("TwoCliques", TWO_CLIQUES_N, TWO_CLIQUES_K)
    path = embed.monotone_path_graph(TWO_CLIQUES_K)

    def check_two(out) -> str:
        # Neither clique's size is a multiple of the piece size and no edge
        # joins them, so a perfect tiling cannot exist.
        _require(out is None, "TwoCliques host reported as tiled")
        return "none"

    requests.append(
        Request(
            f"TwoCliques-{TWO_CLIQUES_N}-{TWO_CLIQUES_K}",
            lambda: tiling.perfect_tiling_exact(two, path),
            check_two,
        )
    )

    for i in range(SUBCLIQUE_HOSTS):
        host = random_clique_ordering(rngs[TILE_EXACT_HOSTS + i], SUBCLIQUE_N)

        def check_sub(out, host=host) -> Any:
            if out is None:
                return "none"
            kind, emb = out
            generated, special = canonical.star_canonical_clique(kind, SUBCLIQUE_F)
            _require(embed.verify_embedding(generated, host, emb), "bad subclique certificate")
            _require(emb.vertex_map[special] == SUBCLIQUE_X, "special vertex misplaced")
            return kind.label

        requests.append(
            Request(
                f"K{SUBCLIQUE_N}-{block}.{i}/star{SUBCLIQUE_F}",
                lambda host=host: embed.find_star_canonical_subclique(
                    host, SUBCLIQUE_X, SUBCLIQUE_F
                ),
                check_sub,
            )
        )
    return requests


# -- dense-grid ------------------------------------------------------------


def dense_grid(seed: int, block: int, report_sha256: dict[str, str]) -> list[Request]:
    """The dense monotone-path tiler on theorem1-grid hosts."""
    del report_sha256
    n, k = DENSE_N, DENSE_K
    min_degree = -(-int((0.5 + DENSE_ETA) * 2 * n) // 2)  # ceil((1/2+eta)n)
    piece = embed.monotone_path_graph(k)
    config = tiling.TilerConfig(eta=DENSE_ETA, seed=seed)
    requests = []
    for i, rng in enumerate(_block_rngs(seed, block, DENSE_HOSTS)):
        host = random_dense_host(rng, n, min_degree, DENSE_EDGE_PROB)
        requests.append(
            Request(
                f"dense-{block}.{i}",
                lambda host=host: tiling.tile_dense_paths(host, k, config),
                lambda out, host=host, piece=piece: _check_tiling(host, piece, out),
            )
        )
    return requests


WORKLOADS: dict[str, Callable[[int, int, dict[str, str]], list[Request]]] = {
    "catalog": catalog,
    "tile-exact": tile_exact,
    "dense-grid": dense_grid,
}
