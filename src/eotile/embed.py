"""Order-preserving subgraph embedding and its specialized searches.

The engine maps the pattern's edges in rank order, so partial maps are
pruned by how many host ranks remain above the last used one.  It is the
one order-preserving matcher: copy counts and monotone paths run on it;
order-isomorphisms, star-canonical subclique searches and the canonical
checks of :mod:`eotile.characterize` need none.  Every
public search returns certificates that re-verify with
:func:`verify_embedding`, which is deliberately a plain double loop,
independent of the search code.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import permutations, product
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .canonical import ALL_STAR_TYPES, StarFamily, StarType, star_canonical_clique, star_labels
from .core import (
    EdgeOrderedGraph,
    Pair,
    _check_vertex,
    _incidence,
    _pairs_within,
    _vertex_subset,
    build_graph,
)
from .errors import (
    BadSize,
    BadSpec,
    BadVertex,
    CertificateError,
    Inconclusive,
    MissingEdge,
    NotComplete,
)


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map; index = pattern vertex, value = host vertex."""

    vertex_map: tuple[int, ...]

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.vertex_map)


@dataclass(eq=False, slots=True)
class SearchBudget:
    """Node and wall-clock caps for one request's searches, and their count.

    Every search given a budget ticks it, so searches that share one share
    its count and its clock, which starts when it is made; budgets compare
    by identity.  A node is a kernel call or a map it extends, a set an
    exact cover tries, or a prefix or leaf type a star subclique search
    tries, so no search works long between two ticks.  A NaN time limit,
    which no elapsed time exceeds, is refused.
    """

    node_limit: int = 20_000_000
    time_limit: float = 120.0
    nodes: int = field(default=0, init=False)
    started: float = field(default_factory=time.monotonic, init=False, repr=False)

    def __post_init__(self) -> None:
        limit = self.node_limit
        if type(limit) is not int or limit <= 0:  # a bool is not a node count
            raise BadSpec(f"node limit must be a positive int, got {limit!r}")
        if not self.time_limit > 0:  # False for NaN too
            raise BadSpec(f"time limit must be positive, got {self.time_limit!r}")

    def tick(self) -> None:
        """Count one node; past a cap (the clock is read every 4,096), raise Inconclusive."""
        self.nodes += 1
        if self.nodes > self.node_limit:
            raise Inconclusive(f"node budget {self.node_limit} exhausted")
        if self.nodes % 4096 == 0 and time.monotonic() - self.started > self.time_limit:
            raise Inconclusive(f"time budget {self.time_limit}s exhausted")


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
    budget: SearchBudget,
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
    after it.  The call itself and each search node after it (including
    a complete map) cost one ``budget.tick()`` each, so a search refused
    before its first edge still counts.
    """
    tick = budget.tick
    tick()
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
    budget: Optional[SearchBudget] = None,
    within: Optional[Iterable[int]] = None,
) -> Optional[Embedding]:
    """First order-preserving embedding in deterministic search order.

    With ``within``, only host vertices in that subset are used: the result
    equals searching ``induced_subgraph(host, within)`` and mapping the
    answer back, but no subgraph is built and the certificate is checked
    against ``host`` itself.  Isolated pattern vertices take the smallest
    unused vertices of the subset.

    Its nodes count on ``budget`` (a fresh one when None); an enclosing
    search passes its own, so that one budget bounds all its sub-searches.

    Returns None only when the full search space was exhausted; a budget
    overrun raises :class:`Inconclusive` instead.
    """
    subset = None if within is None else _vertex_subset(host, within)
    for vm in _embeddings(pattern, host, budget or SearchBudget(), subset):
        return _certified(pattern, host, Embedding(vm), subset)
    return None


def iter_embeddings(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: Optional[SearchBudget] = None,
) -> Iterator[Embedding]:
    """All embeddings in search order, one per embedding of the pattern's
    edges: isolated pattern vertices take the least unused host vertices."""
    yield from (Embedding(vm) for vm in _embeddings(pattern, host, budget or SearchBudget()))


def count_injections(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: Optional[SearchBudget] = None,
) -> int:
    """Number of injective order-preserving maps V(pattern) -> V(host)."""
    maps = sum(1 for _ in _embeddings(pattern, host, budget or SearchBudget()))
    if not maps:  # also when the pattern outgrows the host
        return 0
    # Each map's isolated vertices may go to its unused host vertices in any order.
    isolated = len(pattern.isolated_vertices())
    return maps * math.perm(host.n - pattern.n + isolated, isolated)


def _lone_edges(graph: EdgeOrderedGraph) -> list[Pair]:
    """The single-edge components of ``graph``, ascending by rank."""
    adj = graph.adjacency
    return [(a, b) for a, b in graph.pairs_by_rank if len(adj[a]) == len(adj[b]) == 1]


def count_order_automorphisms(pattern: EdgeOrderedGraph) -> int:
    """Order-preserving automorphisms: only single-edge components flip and
    isolated vertices permute (:func:`order_isomorphisms`)."""
    return 2 ** len(_lone_edges(pattern)) * math.factorial(len(pattern.isolated_vertices()))


def count_copies(
    pattern: EdgeOrderedGraph,
    host: EdgeOrderedGraph,
    budget: Optional[SearchBudget] = None,
) -> int:
    """Number of subgraphs of ``host`` order-isomorphic to ``pattern``.

    Copies are subgraphs: embeddings differing by an automorphism of the
    pattern certify the same copy, so the injection count, the one search
    on ``budget``, divides evenly.
    """
    injections = count_injections(pattern, host, budget)
    auts = count_order_automorphisms(pattern)
    if injections % auts:
        raise CertificateError(f"{injections} injections not divisible by {auts} automorphisms")
    return injections // auts


def order_isomorphisms(
    first: EdgeOrderedGraph, second: EdgeOrderedGraph
) -> Iterator[tuple[int, ...]]:
    """Yield all order-isomorphisms as full vertex maps, the least first.

    One takes the rank-i edge to the rank-i edge, so a vertex on two edges
    goes to the one vertex their images share, and the far end of a pendant
    edge to the end its image has left.  Only single-edge components flip,
    lesser end to lesser end first and the first edge flipped last, and
    isolated vertices permute innermost, in the order of ``permutations``.
    Nothing is searched.
    """
    if first.n != second.n or first.m != second.m:
        return
    image = [-1] * first.n
    ends = second.pairs_by_rank
    for v, idx in first.incidence.items():
        if len(idx) > 1:  # the end the images of its first two edges share
            c, d = ends[idx[0]]
            image[v] = c if c in ends[idx[1]] else d
    for (a, b), (c, d) in zip(first.pairs_by_rank, ends):
        if image[a] < 0:  # the end of (c, d) that b's image leaves; c if b has none yet
            image[a] = c if image[b] in (-1, d) else d
        if image[b] < 0:
            image[b] = c if image[a] == d else d
        if {image[a], image[b]} != {c, d}:
            return
    # Edges go onto edges, so ``second`` has as many isolated vertices or
    # more, and more would leave two vertices on one image.
    isolated = first.isolated_vertices()
    for v, w in zip(isolated, second.isolated_vertices()):
        image[v] = w
    if len(set(image)) < first.n:
        return
    lone = _lone_edges(first)
    for flips in product((False, True), repeat=len(lone)):
        vm = image.copy()
        for (a, b), flip in zip(lone, flips):
            if flip:
                vm[a], vm[b] = vm[b], vm[a]
        for assignment in permutations(image[v] for v in isolated):
            for v, w in zip(isolated, assignment):
                vm[v] = w
            yield tuple(vm)


def are_order_isomorphic(
    first: EdgeOrderedGraph, second: EdgeOrderedGraph
) -> Optional[Embedding]:
    """Lexicographically least order-isomorphism, the first of
    :func:`order_isomorphisms`, as the :class:`Embedding` of ``first`` into
    ``second`` that certifies it, or None.  An embedding between graphs of
    equal size is an isomorphism, so :func:`verify_embedding` checks it."""
    for vm in order_isomorphisms(first, second):
        return _certified(first, second, Embedding(vm))
    return None


def monotone_path_graph(k: int) -> EdgeOrderedGraph:
    """The monotone path with k edges: ranks increase along the traversal."""
    if k < 1:
        raise BadSize(f"monotone path needs k >= 1, got {k}")
    return build_graph(k + 1, [(i, i + 1, i + 1) for i in range(k)])


def find_monotone_path(
    host: EdgeOrderedGraph,
    k: int,
    budget: Optional[SearchBudget] = None,
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
    _check_vertex(host, x)
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
    _check_vertex(host, x)
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


def _special_key(pairs: Sequence[Pair], x: int) -> bytes:
    """One flag byte per pair of rank-ordered ``pairs``: 1 if it is through ``x``."""
    return bytes(x in pair for pair in pairs)


@lru_cache(maxsize=None)
def _star_masks_by_key(f: int) -> Mapping[bytes, int]:
    """The star types of ``K_f``, grouped by the :func:`_special_key` of the
    special vertex in their generated clique, each group as a bitmask over
    the positions of its types in ``ALL_STAR_TYPES``.  Memoized per f, so
    the mapping is read-only.

    An order-isomorphism maps rank i to rank i, so an f-subset can be
    star-canonical with special vertex x only under the types whose key is
    x's key among the subset's pairs.  There are six keys for f >= 4, read
    off :func:`star_labels` with no clique built: the special vertex's f-1
    edges rank last (larger), first (smaller), or as its labels sort.
    """
    index: dict[bytes, int] = {}
    ones, part = b"\1" * (f - 1), bytes((f - 1) * (f - 2) // 2)
    for i, kind in enumerate(ALL_STAR_TYPES):
        if kind.family is StarFamily.MIDDLE_INC:
            labels, special = star_labels(kind, f)
            key = _special_key(sorted(labels, key=labels.__getitem__), special)
        elif kind.family in (StarFamily.LARGER_DEC, StarFamily.LARGER_INC):
            key = part + ones
        else:
            key = ones + part
        index[key] = index.get(key, 0) | 1 << i
    return MappingProxyType(index)


def _alive_subsets(
    host: EdgeOrderedGraph, x: int, f: int, budget: SearchBudget
) -> Iterator[tuple[list[int], list[Pair], int]]:
    """The f-subsets through ``x`` that no prefix rules out, ascending, each
    with its pairs in rank order and its bitmask of ``ALL_STAR_TYPES`` left.

    Subsets grow depth-first from ``x`` by the other vertices in ascending
    order, so they come in the order of ``combinations``.  A prefix of size
    s >= 3 keeps the types whose key at size s (:func:`_star_masks_by_key`)
    was its :func:`_special_key` at every size so far, and is cut when none
    is left: every subset through ``x`` of a star-canonical set with special
    vertex ``x`` is star-canonical of the same type.  A prefix's pairs are
    kept as ascending ints ``rank * 2 + through x``, one ``insort`` per new
    pair, so its key is their low bits.  Each prefix costs one tick.
    """
    others = [v for v in range(host.n) if v != x]
    rank = host.rank

    def grow(
        prefix: list[int], ranked: list[int], alive: int, start: int
    ) -> Iterator[tuple[list[int], list[Pair], int]]:
        # Candidates for the next of ``prefix``, leaving room for the rest.
        size = len(prefix) + 2
        table = _star_masks_by_key(size) if size >= 3 else {}
        for i in range(start, len(others) - f + size):
            budget.tick()
            v = others[i]
            grown = ranked.copy()
            insort(grown, rank[(x, v) if x < v else (v, x)] * 2 + 1)
            for u in prefix:
                insort(grown, rank[(u, v)] * 2)
            left = alive
            if size >= 3:
                left &= table.get(bytes(map((1).__and__, grown)), 0)
                if not left:
                    continue
            if size == f:
                pairs = [host.pairs_by_rank[(p >> 1) - 1] for p in grown]
                yield sorted((x, *prefix, v)), pairs, left
            else:
                yield from grow([*prefix, v], grown, left, i + 1)

    return grow([], [], (1 << len(ALL_STAR_TYPES)) - 1, 0)


def find_star_canonical_subclique(
    host: EdgeOrderedGraph,
    x: int,
    f: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[tuple[StarType, Embedding]]:
    """Direct search for an f-subset through ``x`` inducing a star-canonical
    ordering; returns its type and the embedding of the generated clique.

    Subsets are grown depth-first from ``x`` in lexicographic order and cut
    as soon as a prefix's special-vertex key rules out every type
    (:func:`_alive_subsets`), so the result is that of scanning all
    C(n-1, f-1) subsets in order and types in the fixed check order.  A
    subset that survives is relabeled ``0..f-1`` and compared with the
    generated clique of each type still alive by :func:`order_isomorphisms`;
    a K_f with f >= 3 has at most one onto another, so no search is made.
    The special vertex's key is x's, so the map sends it to x.  Each prefix
    grown and each type tried costs one node of the request's budget.
    """
    if not host.is_complete():
        raise NotComplete("subclique search requires a complete host")
    _check_vertex(host, x)
    if f < 3 or f > host.n:
        raise BadSize(f"subclique size {f} out of range 3..{host.n}")
    budget = budget or SearchBudget()
    for subset, ranked, alive in _alive_subsets(host, x, f, budget):
        index = {v: i for i, v in enumerate(subset)}
        leaf = EdgeOrderedGraph(f, tuple((index[u], index[v]) for u, v in ranked))
        for kind in (k for i, k in enumerate(ALL_STAR_TYPES) if alive >> i & 1):
            budget.tick()
            generated, _ = star_canonical_clique(kind, f)
            for cert in order_isomorphisms(generated, leaf):
                vm = tuple(subset[w] for w in cert)
                return kind, _certified(generated, host, Embedding(vm), subset)
    return None
