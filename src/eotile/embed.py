"""Order-preserving subgraph embedding and its specialized searches.

The engine maps the pattern's edges in rank order, so partial maps are
pruned by how many host ranks remain above the last used one.  It is the
one order-preserving matcher: order-isomorphisms, star-canonical
recognition and monotone paths all run on it.  Every public search
returns certificates that re-verify with :func:`verify_embedding`, which
is deliberately a plain double loop, independent of the search code.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .canonical import ALL_STAR_TYPES, StarType, star_canonical_clique
from .core import EdgeOrderedGraph, Pair, _incidence, _pairs_within, _vertex_subset, build_graph
from .errors import (
    BadSize,
    BadVertex,
    BudgetExceeded,
    CertificateError,
    Inconclusive,
    MissingEdge,
    NotComplete,
)


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map; index = pattern vertex, value = host vertex."""

    vertex_map: tuple[int, ...]

    def apply(self, v: int) -> int:
        return self.vertex_map[v]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.vertex_map)


# Between graphs of equal size an embedding is an order-isomorphism.
IsoCertificate = Embedding


@dataclass(frozen=True)
class SearchBudget:
    """Node and wall-clock caps for backtracking searches."""

    node_limit: int = 20_000_000
    time_limit: float = 120.0

    def __post_init__(self) -> None:
        if self.node_limit <= 0 or self.time_limit <= 0:
            raise ValueError("budget limits must be positive")


DEFAULT_BUDGET = SearchBudget()

# Isomorphism tests take no budget; their searches run to the end.
_UNLIMITED = SearchBudget(node_limit=sys.maxsize, time_limit=math.inf)


@dataclass
class _Meter:
    budget: SearchBudget
    nodes: int = 0
    started: float = field(default_factory=time.monotonic)

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget.node_limit:
            raise Inconclusive(f"node budget {self.budget.node_limit} exhausted")
        if self.nodes % 4096 == 0:
            if time.monotonic() - self.started > self.budget.time_limit:
                raise Inconclusive(f"time budget {self.budget.time_limit}s exhausted")


def verify_embedding(pattern: EdgeOrderedGraph, host: EdgeOrderedGraph, emb: Embedding) -> bool:
    """Independent check: injective, edges land on edges, order preserved."""
    vm = emb.vertex_map
    if len(vm) != pattern.n:
        return False
    if len(set(vm)) != len(vm):
        return False
    if any(not (0 <= h < host.n) for h in vm):
        return False
    image_ranks = []
    for u, v in pattern.pairs_by_rank:
        r = host.rank_of(vm[u], vm[v])
        if r is None:
            return False
        image_ranks.append(r)
    return all(a < b for a, b in zip(image_ranks, image_ranks[1:]))


def _certified(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    emb: Embedding,
    within: Optional[Sequence[int]] = None,
) -> Embedding:
    """``emb`` once re-verified against ``host`` (and inside ``within``).

    An explicit check rather than an ``assert``, so it survives ``python -O``.
    """
    if not verify_embedding(pattern, host, emb) or (
        within is not None and not emb.image.issubset(within)
    ):
        raise CertificateError(f"embedding {emb.vertex_map} failed re-verification")
    return emb


# How many ends of a pattern edge are mapped when the search reaches it.
_FRESH, _ANCHORED, _CLOSED = 0, 1, 2


def _edge_plan(pattern: EdgeOrderedGraph) -> list[tuple[int, int, int]]:
    """``(a, b, kind)`` per pattern edge in rank order, ``kind`` counting its
    ends already mapped; an anchored edge lists its mapped end first.

    Edges are placed in rank order, so this depends on the pattern alone.
    """
    seen: set[int] = set()
    plan = []
    for a, b in pattern.pairs_by_rank:
        kind = (a in seen) + (b in seen)
        if kind == _ANCHORED and b in seen:
            a, b = b, a
        plan.append((a, b, kind))
        seen.add(a)
        seen.add(b)
    return plan


def _embeddings(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    meter: _Meter,
    within: Optional[Sequence[int]] = None,
) -> Iterator[tuple[int, ...]]:
    """All order-preserving embeddings, as total vertex maps.

    Each map is a tuple indexed by pattern vertex.  Isolated pattern
    vertices take the least host vertices the edges left unused, so each
    embedding of the pattern's edges is yielded once.

    ``within`` (ascending, as from ``_vertex_subset``) confines the search
    to that vertex subset: only host pairs inside it are candidates, and
    their positions in that filtered list stand in for ranks.  Results are
    in host coordinates, in the order a search of the induced subgraph
    would find them; a subset's pairs are built over it alone.

    One iterative depth-first search: depth i places pattern edge i on a
    host pair after the one edge i-1 took, leaving room for the edges
    after it.  Each search node (including a complete map) costs one
    ``meter.tick()``.
    """
    vertices: Sequence[int] = range(host.n) if within is None else within
    hpairs: Sequence[Pair] = host.pairs_by_rank if within is None else _pairs_within(host, within)
    incidence = host.incidence if within is None else _incidence(within, hpairs)
    if pattern.n > len(vertices) or pattern.m > len(hpairs):
        return
    plan = _edge_plan(pattern)
    # Only closed edges look up ranks; a subset's are positions in ``hpairs``.
    rank: Mapping[Pair, int] = host.rank
    if within is not None and any(kind == _CLOSED for _, _, kind in plan):
        rank = {pair: i + 1 for i, pair in enumerate(hpairs)}
    mf, mh = len(plan), len(hpairs)
    fmap = [-1] * pattern.n  # host vertex per pattern vertex; isolated ones stay -1
    used = [False] * host.n

    def complete() -> tuple[int, ...]:
        spare = (v for v in vertices if not used[v])
        return tuple(x if x >= 0 else next(spare) for x in fmap)

    tick = meter.tick
    tick()
    if mf == 0:
        yield complete()
        return
    # todo[i] iterates edge i's remaining candidates; nothing lies past the last edge.
    todo: list[Iterator[int]] = [iter(())] * (mf + 1)
    i = floor = 0
    while True:
        a, b, kind = plan[i]
        ceiling = mh - mf + i + 1
        if kind == _FRESH:
            todo[i] = iter(range(2 * floor, 2 * ceiling))  # pair index * 2 + orientation
        elif kind == _ANCHORED:
            inc = incidence[fmap[a]]
            todo[i] = iter(inc[bisect_left(inc, floor) : bisect_left(inc, ceiling)])
        else:
            x, y = fmap[a], fmap[b]
            r = rank.get((x, y) if x < y else (y, x))
            todo[i] = iter((r - 1,) if r is not None and floor < r <= ceiling else ())
        while True:
            for idx in todo[i]:
                if kind == _FRESH:
                    c, d = hpairs[idx >> 1]
                    if used[c] or used[d]:
                        continue
                    if idx & 1:
                        c, d = d, c
                    fmap[a], fmap[b] = c, d
                    used[c] = used[d] = True
                    floor = (idx >> 1) + 1
                elif kind == _ANCHORED:
                    c, d = hpairs[idx]
                    if c == fmap[a]:
                        c = d
                    if used[c]:
                        continue
                    fmap[b] = c
                    used[c] = True
                    floor = idx + 1
                else:
                    floor = idx + 1
                break
            else:  # edge i has no candidate left: undo edge i-1's placement
                i -= 1
                if i < 0:
                    return
                a, b, kind = plan[i]
                if kind == _FRESH:
                    used[fmap[a]] = used[fmap[b]] = False
                elif kind == _ANCHORED:
                    used[fmap[b]] = False
                continue
            i += 1
            tick()
            if i < mf:
                break
            yield complete()


def find_embedding(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: SearchBudget = DEFAULT_BUDGET,
    within: Optional[Iterable[int]] = None,
    *,
    meter: Optional[_Meter] = None,
) -> Optional[Embedding]:
    """First order-preserving embedding in deterministic search order.

    With ``within``, only host vertices in that subset are used: the result
    equals searching ``induced_subgraph(host, within)`` and mapping the
    answer back, but no subgraph is built and the certificate is checked
    against ``host`` itself.  Isolated pattern vertices take the smallest
    unused vertices of the subset.

    An enclosing search passes its running ``meter`` so that one budget
    bounds all its sub-searches; ``budget`` is then not read.

    Returns None only when the full search space was exhausted; a budget
    overrun raises :class:`Inconclusive` instead.
    """
    subset = None if within is None else _vertex_subset(host, within)
    if meter is None:
        meter = _Meter(budget)
    for vm in _embeddings(pattern, host, meter, subset):
        return _certified(pattern, host, Embedding(vm), subset)
    return None


def iter_embeddings(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Iterator[Embedding]:
    """All embeddings in search order, one per embedding of the pattern's
    edges: isolated pattern vertices take the least unused host vertices."""
    yield from (Embedding(vm) for vm in _embeddings(pattern, host, _Meter(budget)))


def count_injections(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> int:
    """Number of injective order-preserving maps V(pattern) -> V(host)."""
    maps = sum(1 for _ in _embeddings(pattern, host, _Meter(budget)))
    if not maps:  # also when the pattern outgrows the host
        return 0
    # Each map's isolated vertices may go to its unused host vertices in any order.
    isolated = len(pattern.isolated_vertices())
    return maps * math.perm(host.n - pattern.n + isolated, isolated)


def count_order_automorphisms(pattern: EdgeOrderedGraph) -> int:
    """Order-preserving automorphisms; divides the injection count evenly."""
    return count_injections(pattern, pattern)


def count_copies(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> int:
    """Number of subgraphs of ``host`` order-isomorphic to ``pattern``.

    Copies are subgraphs: embeddings differing by an automorphism of the
    pattern certify the same copy, so the injection count divides evenly.
    Counting cannot return partial answers, so budget overruns surface as
    BudgetExceeded rather than Inconclusive.
    """
    try:
        injections = count_injections(pattern, host, budget)
        auts = count_order_automorphisms(pattern)
    except Inconclusive as exc:
        raise BudgetExceeded(f"copy count over budget: {exc}") from exc
    if injections % auts:
        raise CertificateError(f"{injections} injections not divisible by {auts} automorphisms")
    return injections // auts


def order_isomorphisms(
    first: EdgeOrderedGraph, second: EdgeOrderedGraph
) -> Iterator[tuple[int, ...]]:
    """Yield all order-isomorphisms as full vertex maps.

    With equal edge counts the kernel's window pins edge i of ``first`` to
    edge i of ``second``, so only endpoint orientations branch.  Isolated
    vertices of ``first`` are matched to leftover vertices of ``second`` in
    every possible way, so the stream is complete.
    """
    if first.n != second.n or first.m != second.m:
        return
    isolated = first.isolated_vertices()
    for vm in _embeddings(first, second, _Meter(_UNLIMITED)):
        for assignment in permutations(vm[v] for v in isolated):
            moved = dict(zip(isolated, assignment))
            yield tuple(moved.get(v, x) for v, x in enumerate(vm))


def are_order_isomorphic(
    first: EdgeOrderedGraph, second: EdgeOrderedGraph
) -> Optional[IsoCertificate]:
    """Lexicographically least order-isomorphism, as the :class:`Embedding`
    of ``first`` into ``second`` that certifies it, or None.

    Between graphs of equal size an embedding is an isomorphism, and the
    first one found is the least: isomorphisms differ only by flipping
    single-edge components and permuting isolated vertices, and the search
    maps each such edge's lesser end first and fills isolated vertices in
    ascending order.
    """
    if first.n != second.n or first.m != second.m:
        return None
    return find_embedding(first, second, _UNLIMITED)


def monotone_path_graph(k: int) -> EdgeOrderedGraph:
    """The monotone path with k edges: ranks increase along the traversal."""
    if k < 1:
        raise BadSize(f"monotone path needs k >= 1, got {k}")
    return build_graph(k + 1, [(i, i + 1, i + 1) for i in range(k)])


def find_monotone_path(
    host: EdgeOrderedGraph,
    k: int,
    budget: SearchBudget = DEFAULT_BUDGET,
    within: Optional[Iterable[int]] = None,
) -> Optional[Embedding]:
    """A monotone path of length k, or None when none exists.

    :func:`find_embedding` of :func:`monotone_path_graph`, so absence of a
    result is a proof and ``budget`` bounds the whole search.  Dense hosts
    (at least k(k+1)n/2 edges) always have one.  With ``within``, the path
    uses only vertices of that subset; the result is in host coordinates.
    """
    return find_embedding(monotone_path_graph(k), host, budget, within)


def monotone_star_subsequence(host: EdgeOrderedGraph, x: int) -> tuple[int, ...]:
    """Longest run of neighbors of ``x`` (in vertex order) with monotone ranks.

    Ties between increasing and decreasing go to increasing; within a
    direction the lexicographically smallest neighbor sequence wins.
    """
    if not (0 <= x < host.n):
        raise BadVertex(f"vertex {x} not in graph")
    neighbors = sorted(host.adjacency[x])
    ranks = [host.rank_of(x, v) for v in neighbors]
    d = len(ranks)
    if d == 0:
        return ()

    def longest(greater) -> list[int]:
        # tail[i] = best run length starting at i; rebuild smallest indices.
        tail = [1] * d
        for i in range(d - 2, -1, -1):
            for j in range(i + 1, d):
                if greater(ranks[j], ranks[i]):
                    tail[i] = max(tail[i], 1 + tail[j])
        best = max(tail)
        out: list[int] = []
        prev: Optional[int] = None
        need = best
        for i in range(d):
            if tail[i] == need and (prev is None or greater(ranks[i], ranks[prev])):
                out.append(i)
                prev = i
                need -= 1
                if need == 0:
                    break
        return out

    inc = longest(lambda a, b: a > b)
    dec = longest(lambda a, b: a < b)
    chosen = inc if len(inc) >= len(dec) else dec
    return tuple(neighbors[i] for i in chosen)


class StarColor(Enum):
    """Trichotomy of a pair edge against its two edges to a center vertex."""

    B = "B"
    M = "M"
    S = "S"


def star_edge_coloring(
    host: EdgeOrderedGraph, x: int, pair: tuple[int, int]
) -> StarColor:
    """B if both x-edges are above the pair edge, S if both below, else M."""
    vi, vj = pair
    if len({x, vi, vj}) != 3:
        raise BadVertex("center and pair vertices must be distinct")
    r_pair = host.rank_of(vi, vj)
    r_xi = host.rank_of(x, vi)
    r_xj = host.rank_of(x, vj)
    if r_pair is None or r_xi is None or r_xj is None:
        raise MissingEdge(f"coloring needs edges {x}-{vi}, {x}-{vj}, {vi}-{vj}")
    if r_xi > r_pair and r_xj > r_pair:
        return StarColor.B
    if r_xi < r_pair and r_xj < r_pair:
        return StarColor.S
    return StarColor.M


def classify_star_canonical(
    graph: EdgeOrderedGraph,
) -> set[tuple[StarType, int, tuple[int, ...]]]:
    """Every (type, special vertex, part vertex order) realizing ``graph``.

    Empty when the complete graph is star-canonical under no type.  Types
    coincide for small sizes, so a set is returned rather than one answer.
    A vertex is matched only against the types its key admits
    (:func:`_star_masks_by_key`); no two vertices of K_f share a key.
    """
    if not graph.is_complete():
        raise NotComplete("star classification requires a complete graph")
    results: set[tuple[StarType, int, tuple[int, ...]]] = set()
    if graph.n < 3:
        return results
    masks = _star_masks_by_key(graph.n)
    for x in range(graph.n):
        mask = masks.get(_special_key(graph.pairs_by_rank, x), 0)
        for kind in (k for i, k in enumerate(ALL_STAR_TYPES) if mask >> i & 1):
            generated, special = star_canonical_clique(kind, graph.n)
            for cert in order_isomorphisms(generated, graph):
                results.add((kind, cert[special], cert[: graph.n - 1]))
    return results


def _special_key(pairs: Sequence[Pair], x: int) -> tuple[int, ...]:
    """The positions in rank-ordered ``pairs`` of the pairs through ``x``."""
    return tuple(i for i, pair in enumerate(pairs) if x in pair)


@lru_cache(maxsize=None)
def _star_masks_by_key(f: int) -> Mapping[tuple[int, ...], int]:
    """The star types of ``K_f``, grouped by the :func:`_special_key` of the
    special vertex in their generated clique, each group as a bitmask over
    the positions of its types in ``ALL_STAR_TYPES``.  Memoized per f, so
    the mapping is read-only.

    An order-isomorphism maps rank i to rank i, so an f-subset can be
    star-canonical with special vertex x only under the types whose key is
    x's key among the subset's pairs.  There are six keys for f >= 4.
    """
    index: dict[tuple[int, ...], int] = {}
    for i, kind in enumerate(ALL_STAR_TYPES):
        generated, special = star_canonical_clique(kind, f)
        key = _special_key(generated.pairs_by_rank, special)
        index[key] = index.get(key, 0) | 1 << i
    return MappingProxyType(index)


def _alive_subsets(
    host: EdgeOrderedGraph, x: int, f: int, meter: _Meter
) -> Iterator[tuple[list[int], int]]:
    """The f-subsets through ``x`` that no prefix rules out, ascending, each
    with the bitmask of the ``ALL_STAR_TYPES`` it may still match.

    Subsets grow depth-first from ``x`` by the other vertices in ascending
    order, so they come in the order of ``combinations``.  A prefix of size
    s >= 3 keeps the types whose key at size s (:func:`_star_masks_by_key`)
    was its :func:`_special_key` at every size so far, and is cut when none
    is left: every subset through ``x`` of a star-canonical set with special
    vertex ``x`` is star-canonical of the same type.  A prefix's pairs are
    kept as ascending ``(rank, through x)`` entries, one ``insort`` per new
    pair.  Each prefix grown costs one ``meter.tick()``.
    """
    others = [v for v in range(host.n) if v != x]
    rank = host.rank

    def grow(
        prefix: list[int], ranked: list[tuple[int, bool]], alive: int, start: int
    ) -> Iterator[tuple[list[int], int]]:
        # Candidates for the next of ``prefix``, leaving room for the rest.
        size = len(prefix) + 2
        for i in range(start, len(others) - f + size):
            meter.tick()
            v = others[i]
            grown = ranked.copy()
            insort(grown, (rank[(x, v) if x < v else (v, x)], True))
            for u in prefix:
                insort(grown, (rank[(u, v)], False))
            left = alive
            if size >= 3:
                key = tuple(j for j, (_, through_x) in enumerate(grown) if through_x)
                left &= _star_masks_by_key(size).get(key, 0)
                if not left:
                    continue
            if size == f:
                yield sorted((x, *prefix, v)), left
            else:
                yield from grow([*prefix, v], grown, left, i + 1)

    return grow([], [], (1 << len(ALL_STAR_TYPES)) - 1, 0)


def find_star_canonical_subclique(
    host: EdgeOrderedGraph,
    x: int,
    f: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Optional[tuple[StarType, Embedding]]:
    """Direct search for an f-subset through ``x`` inducing a star-canonical
    ordering; returns its type and the embedding of the generated clique.

    Subsets are grown depth-first from ``x`` in lexicographic order and cut
    as soon as a prefix's special-vertex key rules out every type
    (:func:`_alive_subsets`), so the result is that of scanning all
    C(n-1, f-1) subsets in order and types in the fixed check order.  A
    subset that survives is matched, inside it (``within=``) and on the
    request's one meter, only against the types still alive.  The special
    vertex's f-1 >= 2 edges then land on x's pairs, whose one common vertex
    is x, so every match maps the special vertex to x.
    """
    if not host.is_complete():
        raise NotComplete("subclique search requires a complete host")
    if not (0 <= x < host.n):
        raise BadVertex(f"vertex {x} not in graph")
    if f < 3 or f > host.n:
        raise BadSize(f"subclique size {f} out of range 3..{host.n}")
    meter = _Meter(budget)
    for subset, alive in _alive_subsets(host, x, f, meter):
        for kind in (k for i, k in enumerate(ALL_STAR_TYPES) if alive >> i & 1):
            generated, _ = star_canonical_clique(kind, f)
            for vm in _embeddings(generated, host, meter, subset):
                return kind, _certified(generated, host, Embedding(vm), subset)
    return None
