"""Perfect tilings: exact solver, T(F), absorbers, and the dense tiler.

Every tiler runs one exact cover over parts (``_cover``): each part is
covered alone, least uncovered vertex first, and a vertex set is searched
for a spanning copy of the piece only when the cover reaches it
(``_find_piece``, the kernel's first map inside the set).  A clique or a
copy of a connected piece lies in one host component, so the exact solver
(which the dense monotone-path tiler calls) and the clique tiler cover
each host component alone, and each clique is a part of its own.  Local
absorbers are the paper's standalone objects, which no tiler uses.
Pieces are not checked one by one: correctness rests on re-verifying each
tiling returned, whole.  A None from the exact solver is a proof: a
component whose size the piece does not divide refutes before any search
(the two-clique lower-bound construction), or a component's cover ran out.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Collection, Iterator, Optional, Sequence, TypeVar

from .canonical import CanonicalType, canonical_labels
from .characterize import is_tileable
from .core import EdgeOrderedGraph, build_graph, components, enumerate_orderings
from .embed import (
    Embedding,
    SearchBudget,
    _embeddings,
    monotone_path_graph,
    verify_embedding,
)
from .errors import BadDivisibility, BadSpec, BadSplit, BadVertex, CertificateError

W = TypeVar("W")


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

    ``tile_dense_paths`` reads only ``absorb_budget``, the budget of its
    exact solve, so every call given one config counts against that one
    budget; ``eta`` and ``seed`` are validated but read by no tiler.
    """

    eta: float = 0.25
    absorb_budget: SearchBudget = field(default_factory=SearchBudget)
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.eta < 0.5):
            raise BadSpec(f"eta must lie in (0, 1/2), got {self.eta}")


def _find_piece(
    piece: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: SearchBudget,
    subset: Sequence[int],
) -> Optional[Embedding]:
    """The kernel's first map of ``piece`` inside ``subset`` (ascending host
    vertices the tiler chose), unchecked: :func:`_certified` checks its tiling."""
    for vm in _embeddings(piece, host, budget, subset):
        return Embedding(vm)
    return None


def _cover(
    parts: Sequence[Collection[int]],
    size: int,
    witness: Callable[[tuple[int, ...]], Optional[W]],
    budget: SearchBudget,
) -> Optional[list[W]]:
    """Exact cover of each of ``parts`` in turn by disjoint ``size``-sets.

    A part that ``size`` does not divide gives None before any search, with
    no node counted.  A finished part is never backtracked into, so no set
    may cross parts (host components).  The least uncovered vertex v must
    lie in the set that covers it, so each node tries v plus every
    (size-1)-subset of the other uncovered vertices of its part, in
    lexicographic order, and keeps the sets whose ``witness`` is not None.
    Witnesses are asked lazily, once per set per call.  This is Algorithm X
    with a fixed column order; each set tried, memo hits included, is one
    node and one ``budget.tick()``.  The branch is an explicit stack, so a
    cover by thousands of sets needs no recursion.

    Sets are ascending tuples: a negative host can memoize most of its
    C(n, size) sets, and a small tuple takes about a ninth of the memory of
    a frozenset of the same vertices.
    """
    if any(len(part) % size for part in parts):
        return None
    memo: dict[tuple[int, ...], Optional[W]] = {}

    def node(rest: frozenset[int]) -> Iterator[tuple[int, ...]]:
        """The sets with a witness that cover the least vertex of ``rest``."""
        least = min(rest)
        for others in combinations(sorted(rest - {least}), size - 1):
            subset = (least, *others)
            budget.tick()
            if subset not in memo:
                memo[subset] = witness(subset)
            if memo[subset] is not None:
                yield subset

    taken: list[tuple[int, ...]] = []  # the sets chosen, part after part
    for part in parts:
        rest = frozenset(part)  # the part's uncovered vertices
        branch = [node(rest)]  # per node of the branch, the sets left to try
        while rest:
            subset = next(branch[-1], None)
            if subset is None:
                branch.pop()
                if not branch:  # the part's first node is exhausted
                    return None
                rest = rest.union(taken.pop())
            else:
                taken.append(subset)
                rest = rest.difference(subset)
                branch.append(node(rest))
    return [memo[chosen] for chosen in taken]


def perfect_tiling_exact(
    host: EdgeOrderedGraph,
    piece: EdgeOrderedGraph,
    budget: Optional[SearchBudget] = None,
) -> Optional[Tiling]:
    """A verified perfect tiling, or None proven within budget.

    A copy of a connected piece lies in one host component, so the parts
    :func:`_cover` covers are the host components, smallest first; by least
    vertex, their pieces are the tiling a cover of the whole host finds
    first.  A disconnected piece, or a host with over C(n-1, 2) edges
    (connected: a cut misses n-1 pairs), is one part, the whole host.  One
    budget bounds the call.
    """
    if piece.n == 0:
        raise BadDivisibility("piece must have at least one vertex")
    if host.n % piece.n != 0:
        raise BadDivisibility(f"|piece|={piece.n} does not divide |host|={host.n}")
    if host.m > (host.n - 1) * (host.n - 2) // 2 or len(components(piece)) > 1:
        parts = [range(host.n)]
    else:
        parts = sorted(components(host), key=len)
    budget = budget or SearchBudget()
    pieces = _cover(parts, piece.n, partial(_find_piece, piece, host, budget), budget)
    if pieces is None:
        return None
    pieces.sort(key=lambda emb: min(emb.vertex_map))
    return _certified(host, piece, Tiling(tuple(pieces), frozenset(range(host.n))))


def tiling_number(
    piece: EdgeOrderedGraph,
    t_max: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[int]:
    """Least t <= t_max such that every ordering class of K_t tiles perfectly.

    Short-circuits to None when the piece is not tileable, since then no t
    can ever work.  The tileability check and every tiling run on one budget.
    A K_t with more classes than :func:`enumerate_orderings` lists (K_6 and
    up) raises its :class:`Inconclusive`.
    """
    f = piece.n
    if f == 0:
        raise BadDivisibility("piece must have at least one vertex")
    budget = budget or SearchBudget()
    if not is_tileable(piece, budget).value:
        return None
    for t in range(f, t_max + 1, f):
        clique = EdgeOrderedGraph(t, tuple(combinations(range(t), 2)))
        if all(
            perfect_tiling_exact(ordering, piece, budget) is not None
            for ordering in enumerate_orderings(clique)
        ):
            return t
    return None


def local_absorbers(
    host: EdgeOrderedGraph,
    x: int,
    y: int,
    k: int,
    budget: Optional[SearchBudget] = None,
) -> Iterator[AbsorberSet]:
    """Stream the (2k+1)-sets that absorb a swap between ``x`` and ``y``.

    One absorber per vertex set, using the first valid decomposition in
    lexicographic order (P_x, then P_y, which leaves out the swing vertex
    w); each is re-verified to tile both extensions.  One budget bounds the
    whole stream: every path search counts against it.  An endpoint
    outside the host raises :class:`BadVertex` before any search.
    """
    if x == y:
        raise BadVertex("absorber endpoints must be distinct")
    for v in (x, y):
        if not 0 <= v < host.n:
            raise BadVertex(f"vertex {v} not in graph with n={host.n}")
    others = [v for v in range(host.n) if v not in (x, y)]
    piece = monotone_path_graph(k)
    finder = partial(_find_piece, piece, host, budget or SearchBudget())

    def first_absorber(chunk: tuple[int, ...]) -> Optional[AbsorberSet]:
        for p_x in combinations(chunk, k):
            path_xx = finder(sorted((*p_x, x)))
            if path_xx is None:
                continue
            rest = [v for v in chunk if v not in p_x]
            # P_y is rest less w, w taken last-first: the order of combinations(rest, k).
            for w in reversed(rest):
                p_y = [v for v in rest if v != w]
                path_wx = finder(sorted((*p_x, w)))
                if path_wx is None:
                    continue
                path_yy = finder(sorted((*p_y, y)))
                if path_yy is None:
                    continue
                path_wy = finder(sorted((*p_y, w)))
                if path_wy is None:
                    continue
                absorber = AbsorberSet(frozenset(p_x), frozenset(p_y), w)
                _certified(host, piece, Tiling((path_xx, path_wy), absorber.vertices | {x}))
                _certified(host, piece, Tiling((path_yy, path_wx), absorber.vertices | {y}))
                return absorber
        return None

    for chunk in combinations(others, 2 * k + 1):
        found = first_absorber(chunk)
        if found is not None:
            yield found


def tile_dense_paths(
    host: EdgeOrderedGraph, k: int, config: Optional[TilerConfig] = None
) -> Optional[Tiling]:
    """Perfect monotone-path tiling of a dense host, or None if none exists.

    The exact solver on the whole host under ``config.absorb_budget`` (a
    fresh budget when ``config`` is None).  On a dense host the least
    uncovered vertex almost always starts a path among the first sets
    tried, so the cover rarely backtracks.  The tiling returned is
    re-verified.
    """
    return perfect_tiling_exact(host, monotone_path_graph(k), config and config.absorb_budget)


def tile_via_cliques(
    host: EdgeOrderedGraph,
    piece: EdgeOrderedGraph,
    t_clique: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[Tiling]:
    """Strip pieces to fix divisibility, then cover the rest by T-cliques
    that each tile.

    The Hajnal-Szemeredi step is replaced by exact clique-cover search, in
    which a clique counts only once it is tiled, so the cover backtracks
    past a clique that does not tile.  A clique lies in one host component,
    so what the strips leave of each is covered alone, smallest first.  A
    connected piece is stripped ``(|c|/f) mod (T/f)`` times from the least
    vertices of each component ``c``, a disconnected one from the host's.  The
    minimum-degree hypothesis is only advisory and produces a warning when
    violated.  One budget bounds the whole call: the strips, the clique
    cover and every clique's tiling count against it.

    None is not a proof that no tiling exists: the strips are greedy and a
    tiling need not follow any clique cover.  :func:`perfect_tiling_exact`
    decides.
    """
    f = piece.n
    if f == 0:
        raise BadDivisibility("piece must have at least one vertex")
    if host.n % f != 0:
        raise BadDivisibility(f"|piece|={f} does not divide |host|={host.n}")
    if t_clique <= 0 or t_clique % f != 0:
        raise BadDivisibility(f"clique size {t_clique} not a positive multiple of |piece|={f}")
    if host.n and host.min_degree() < (1 - 1 / t_clique) * host.n:
        warnings.warn(
            f"minimum degree {host.min_degree()} below (1-1/{t_clique})n",
            DegreeBoundWarning,
            stacklevel=2,
        )

    budget = budget or SearchBudget()
    finder = partial(_find_piece, piece, host, budget)
    stripped: list[Embedding] = []
    remaining = set(range(host.n))
    for part in [set(remaining)] if len(components(piece)) > 1 else components(host):
        for _ in range(len(part) // f % (t_clique // f)):
            emb = finder(sorted(remaining & part))
            if emb is None:
                return None
            stripped.append(emb)
            remaining -= emb.image

    def tiled_clique(subset: tuple[int, ...]) -> Optional[list[Embedding]]:
        if all(host.has_edge(a, b) for a, b in combinations(subset, 2)):
            return _cover([subset], f, finder, budget)
        return None

    parts = sorted((comp & remaining for comp in components(host)), key=len)
    cover = _cover(parts, t_clique, tiled_clique, budget)
    if cover is None:
        return None
    pieces = stripped + [emb for inner in cover for emb in inner]
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
        if k < 1:
            raise BadSplit(f"TwoCliques needs k >= 1, got {k}")
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
