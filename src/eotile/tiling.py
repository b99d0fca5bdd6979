"""Perfect tilings: exact solver, T(F), absorbers, and the dense pipeline.

The exact solver is a set-cover backtracker over the vertex sets that
carry a spanning copy of the piece.  The dense monotone-path tiler runs
greedy, windowed exact repair, exact fallback; local absorbers are the
paper's standalone objects, which it does not use.  Correctness always
rests on re-verification, never on the pipeline's heuristics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Optional

from .canonical import CanonicalType, canonical_labels
from .core import EdgeOrderedGraph, build_graph, enumerate_orderings, induced_subgraph
from .embed import (
    DEFAULT_BUDGET,
    Embedding,
    SearchBudget,
    _Meter,
    find_embedding,
    find_monotone_path,
    monotone_path_graph,
    verify_embedding,
)
from .errors import (
    BadDivisibility,
    BadSplit,
    BadVertex,
    BudgetExceeded,
    CertificateError,
    Inconclusive,
)


class DegreeBoundWarning(UserWarning):
    """The clique-cover degree hypothesis is violated; proceeding anyway."""


@dataclass(frozen=True)
class Tiling:
    """Vertex-disjoint embeddings of one piece covering ``covered``."""

    pieces: tuple[Embedding, ...]
    covered: frozenset[int]

    def is_perfect_for(self, host: EdgeOrderedGraph) -> bool:
        return self.covered == frozenset(range(host.n))


def verify_tiling(
    host: EdgeOrderedGraph, piece: EdgeOrderedGraph, tiling: Tiling
) -> bool:
    """Independent checker: valid pieces, pairwise disjoint, exact coverage."""
    seen: set[int] = set()
    for emb in tiling.pieces:
        if not verify_embedding(piece, host, emb):
            return False
        if seen & emb.image:
            return False
        seen |= emb.image
    return seen == set(tiling.covered)


def _certified(host: EdgeOrderedGraph, piece: EdgeOrderedGraph, tiling: Tiling) -> Tiling:
    """``tiling`` once re-verified; an explicit check that survives ``python -O``."""
    if not verify_tiling(host, piece, tiling):
        raise CertificateError("tiling failed re-verification")
    return tiling


@dataclass(frozen=True)
class AbsorberSet:
    """Two path-sized sets plus a swing vertex, flexible for two endpoints."""

    p_x: frozenset[int]
    p_y: frozenset[int]
    w: int

    @property
    def vertices(self) -> frozenset[int]:
        return self.p_x | self.p_y | {self.w}


@dataclass(frozen=True)
class TilerConfig:
    """Desk-scale tunables standing in for the asymptotic constants.

    ``tile_dense_paths`` reads only ``absorb_budget``, not ``eta`` or ``seed``.
    """

    eta: float = 0.25
    absorb_budget: SearchBudget = field(default_factory=SearchBudget)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.eta < 0.5):
            raise ValueError(f"eta must lie in (0, 1/2), got {self.eta}")


def _spanning_sets(
    host: EdgeOrderedGraph,
    piece: EdgeOrderedGraph,
    meter: _Meter,
) -> dict[frozenset[int], Embedding]:
    """Vertex sets of size |piece| carrying a spanning copy, with one witness.

    Every subset search counts against the one ``meter``.
    """
    f = piece.n
    witnesses: dict[frozenset[int], Embedding] = {}
    for subset in combinations(range(host.n), f):
        emb = find_embedding(piece, host, within=subset, meter=meter)
        if emb is not None:
            witnesses[frozenset(subset)] = emb
    return witnesses


def _cover(
    vertices: frozenset[int],
    witnesses: dict[frozenset[int], Embedding],
    meter: _Meter,
    by_least: Optional[dict[int, list[frozenset[int]]]] = None,
) -> Optional[list[Embedding]]:
    """Exact cover of ``vertices`` by disjoint witness sets, backtracking.

    The least uncovered vertex must be the least vertex of the set that
    covers it.  So the top-level call groups the sets by least vertex, each
    group in ascending order of sorted members, and the recursion passes
    that grouping down as ``by_least`` instead of sorting at every node.
    """
    if by_least is None:
        by_least = {}
        for subset in sorted(witnesses, key=sorted):
            by_least.setdefault(min(subset), []).append(subset)
    if not vertices:
        return []
    meter.tick()
    for subset in by_least.get(min(vertices), ()):
        if subset <= vertices:
            rest = _cover(vertices - subset, witnesses, meter, by_least)
            if rest is not None:
                return [witnesses[subset]] + rest
    return None


def perfect_tiling_exact(
    host: EdgeOrderedGraph,
    piece: EdgeOrderedGraph,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Optional[Tiling]:
    """A verified perfect tiling, or None proven within budget.

    One budget bounds the whole call: the spanning-set searches and the
    exact cover all count against a single meter.
    """
    if piece.n == 0:
        raise BadDivisibility("piece must have at least one vertex")
    if host.n % piece.n != 0:
        raise BadDivisibility(f"|piece|={piece.n} does not divide |host|={host.n}")
    meter = _Meter(budget)
    witnesses = _spanning_sets(host, piece, meter)
    pieces = _cover(frozenset(range(host.n)), witnesses, meter)
    if pieces is None:
        return None
    return _certified(host, piece, Tiling(tuple(pieces), frozenset(range(host.n))))


def tiling_number(
    piece: EdgeOrderedGraph,
    t_max: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    max_labelings: int = 50_000,
) -> Optional[int]:
    """Least t <= t_max such that every ordering class of K_t tiles perfectly.

    Short-circuits to None when the piece is not tileable, since then no t
    can ever work.
    """
    from .characterize import is_tileable

    if not is_tileable(piece, budget).value:
        return None
    f = piece.n
    for t in range(max(f, 1), t_max + 1):
        if t % f != 0:
            continue
        clique = build_graph(
            t, [(u, v, i + 1) for i, (u, v) in enumerate(combinations(range(t), 2))]
        )
        try:
            classes = enumerate_orderings(clique, max_labelings)
            if all(
                perfect_tiling_exact(ordering, piece, budget) is not None
                for ordering in classes
            ):
                return t
        except BudgetExceeded as exc:
            raise Inconclusive(f"ordering enumeration for K_{t} over budget") from exc
    return None


def local_absorbers(
    host: EdgeOrderedGraph,
    x: int,
    y: int,
    k: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Iterator[AbsorberSet]:
    """Stream the (2k+1)-sets that absorb a swap between ``x`` and ``y``.

    One absorber per vertex set, using the first valid decomposition in
    lexicographic order; each is re-verified to tile both extensions.
    """
    if x == y:
        raise BadVertex("absorber endpoints must be distinct")
    others = [v for v in range(host.n) if v not in (x, y)]
    piece = monotone_path_graph(k)
    for chunk in combinations(others, 2 * k + 1):
        found: Optional[AbsorberSet] = None
        for p_x in combinations(chunk, k):
            if found:
                break
            rest = [v for v in chunk if v not in p_x]
            for p_y in combinations(rest, k):
                leftover = [v for v in rest if v not in p_y]
                w = leftover[0]
                path_xx = find_monotone_path(host, k, budget, within=(*p_x, x))
                if path_xx is None:
                    continue
                path_wx = find_monotone_path(host, k, budget, within=(*p_x, w))
                if path_wx is None:
                    continue
                path_yy = find_monotone_path(host, k, budget, within=(*p_y, y))
                if path_yy is None:
                    continue
                path_wy = find_monotone_path(host, k, budget, within=(*p_y, w))
                if path_wy is None:
                    continue
                absorber = AbsorberSet(frozenset(p_x), frozenset(p_y), w)
                _certified(host, piece, Tiling((path_xx, path_wy), absorber.vertices | {x}))
                _certified(host, piece, Tiling((path_yy, path_wx), absorber.vertices | {y}))
                found = absorber
                break
        if found:
            yield found


def tile_dense_paths(
    host: EdgeOrderedGraph, k: int, config: TilerConfig = TilerConfig()
) -> Optional[Tiling]:
    """Perfect monotone-path tiling of a dense host.

    Greedy, windowed exact repair, exact fallback: strip monotone paths
    smallest-rank-first; if vertices remain, release the last greedy
    pieces one at a time and tile each freed window exactly; if no window
    tiles, run the exact solver once on the whole host.  Every tiling
    returned is re-verified.
    """
    f = k + 1
    if host.n % f != 0:
        raise BadDivisibility(f"path on {f} vertices cannot tile n={host.n}")
    piece = monotone_path_graph(k)
    budget = config.absorb_budget
    everything = frozenset(range(host.n))

    greedy: list[Embedding] = []
    uncovered = set(everything)
    while uncovered:
        emb = find_monotone_path(host, k, budget, within=uncovered)
        if emb is None:
            break
        greedy.append(emb)
        uncovered -= emb.image
    if not uncovered:
        return _certified(host, piece, Tiling(tuple(greedy), everything))

    for kept in range(len(greedy) - 1, 0, -1):
        freed = sorted(everything.difference(*(emb.image for emb in greedy[:kept])))
        try:
            partial = perfect_tiling_exact(induced_subgraph(host, freed), piece, budget)
        except Inconclusive:
            continue
        if partial is not None:
            lifted = tuple(
                Embedding(tuple(freed[h] for h in emb.vertex_map)) for emb in partial.pieces
            )
            return _certified(host, piece, Tiling(tuple(greedy[:kept]) + lifted, everything))
    return perfect_tiling_exact(host, piece, budget)


def tile_via_cliques(
    host: EdgeOrderedGraph,
    piece: EdgeOrderedGraph,
    t_clique: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Optional[Tiling]:
    """Strip pieces to fix divisibility, clique-tile, then tile each clique.

    The Hajnal-Szemeredi step is replaced by exact clique-cover search; the
    minimum-degree hypothesis is only advisory and produces a warning when
    violated.
    """
    f = piece.n
    if f == 0 or host.n % f != 0:
        raise BadDivisibility(f"|piece|={f} does not divide |host|={host.n}")
    if t_clique % f != 0:
        raise BadDivisibility(f"clique size {t_clique} not a multiple of |piece|={f}")
    if host.n and host.min_degree() < (1 - 1 / t_clique) * host.n:
        warnings.warn(
            f"minimum degree {host.min_degree()} below (1-1/{t_clique})n",
            DegreeBoundWarning,
            stacklevel=2,
        )

    stripped: list[Embedding] = []
    remaining = set(range(host.n))
    overshoot = host.n % t_clique
    for _ in range(overshoot // f):
        emb = find_embedding(piece, host, budget, within=remaining)
        if emb is None:
            return None
        stripped.append(emb)
        remaining -= emb.image

    # Exact cover of the rest by T-cliques of the underlying graph.
    subset = sorted(remaining)
    cliques: dict[frozenset[int], Embedding] = {}
    for combo in combinations(subset, t_clique):
        if all(host.has_edge(a, b) for a, b in combinations(combo, 2)):
            cliques[frozenset(combo)] = Embedding(combo)
    meter = _Meter(budget)
    cover = _cover(frozenset(subset), cliques, meter)
    if cover is None:
        return None

    pieces: list[Embedding] = list(stripped)
    for clique_emb in cover:
        block = sorted(clique_emb.vertex_map)
        sub = induced_subgraph(host, block)
        inner = perfect_tiling_exact(sub, piece, budget)
        if inner is None:
            return None
        for emb in inner.pieces:
            pieces.append(Embedding(tuple(block[h] for h in emb.vertex_map)))
    return _certified(host, piece, Tiling(tuple(pieces), frozenset(range(host.n))))


def _interleaved_min_cliques(sizes: tuple[int, ...]) -> EdgeOrderedGraph:
    """Disjoint min-ordered cliques with labels interleaved deterministically."""
    triples: list[tuple[int, int, int]] = []
    offset = 0
    width = len(sizes)
    for idx, size in enumerate(sizes):
        if size >= 2:
            for (u, v), label in canonical_labels(CanonicalType.MIN, size).items():
                triples.append((u + offset, v + offset, label * width + idx))
        offset += size
    return build_graph(sum(sizes), triples)


def extremal_construction(
    kind: str, n: int, k: int, gamma: Optional[float] = None
) -> EdgeOrderedGraph:
    """The lower-bound constructions: two cliques, or an unbalanced biclique.

    ``TwoCliques`` splits n as evenly as possible with neither side
    divisible by k+1, so no perfect path tiling exists.  ``Bipartite``
    builds K_{gamma n, (1-gamma) n} with a min-style ordering.
    """
    if kind == "TwoCliques":
        f = k + 1
        if n % f != 0:
            raise BadSplit(f"{f} must divide n={n}")
        for first in range(n // 2, 0, -1):
            second = n - first
            if first % f != 0 and second % f != 0:
                graph = _interleaved_min_cliques((first, second))
                if graph.min_degree() < n // 2 - 2:
                    raise CertificateError(f"TwoCliques minimum degree below {n // 2 - 2}")
                return graph
        raise BadSplit(f"no valid split of {n} avoiding multiples of {f}")
    if kind == "Bipartite":
        if gamma is None or not (0 < gamma < 1):
            raise BadSplit("bipartite construction needs a class fraction in (0,1)")
        small = round(gamma * n)
        if small < 1 or small >= n:
            raise BadSplit(f"class size {small} out of range for n={n}")
        triples = [
            (i, j, 2 * n * (i + 1) + (j - small + 1))
            for i in range(small)
            for j in range(small, n)
        ]
        return build_graph(n, triples)
    raise BadSplit(f"unknown construction kind {kind!r}")
