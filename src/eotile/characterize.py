"""Decision procedures and constructions for Turanable and tileable graphs.

Turanability asks for embeddings into the four canonical orderings of
K_f, which are vertex orders found from precedence arcs with no search;
tileability is decided by embedding into the twenty star-canonical
orderings of K_f.  The pendant extensions and named families provide the
stock of graphs the propositions are exercised on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

from .canonical import (
    ALL_STAR_TYPES,
    CANONICAL_ORDER,
    CanonicalType,
    StarType,
    canonical_clique,
    canonical_label,
    star_canonical_clique,
)
from .core import MAX_HOST_VERTICES, EdgeOrderedGraph, Pair, _check_vertex, build_graph, components
from .embed import Embedding, SearchBudget, _embeddings, find_embedding, monotone_path_graph
from .errors import BadAnchor, BadSpec, CertificateError, NotTuranable


_NO_CERTIFICATES: Mapping[Any, Embedding] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class Verdict:
    """A decision over type checks: every kind's certificate, or the first failing kind.

    ``certificates`` is a read-only mapping.  The decision procedures
    return one shared verdict per refused kind, and one for every pattern
    on at most two vertices, so a refusal allocates nothing; a verdict
    built with a plain dict compares equal to the one returned.
    """

    value: bool
    certificates: Mapping[CanonicalType | StarType, Embedding] = field(
        default_factory=lambda: _NO_CERTIFICATES
    )
    failing: Optional[CanonicalType | StarType] = None


# The shared verdicts: the refusal of each of the 24 kinds, and the success
# of a pattern on at most two vertices, which embeds into every ordered
# clique of its size.
_REFUSED: dict[Any, Verdict] = {
    kind: Verdict(False, failing=kind) for kind in (*CANONICAL_ORDER, *ALL_STAR_TYPES)
}
_VACUOUS = Verdict(True)


def _peels(n: int, pairs: Sequence[Pair]) -> bool:
    """True iff ``pairs`` split into consecutive blocks, each holding every
    remaining edge at one vertex.

    A block starts at an endpoint of its first edge and runs to that
    vertex's last edge.  An endpoint whose last edge is the first edge owns
    a one-edge block, and taking it is safe: if the other endpoint owns a
    block too, it still starts on the next edge.  Otherwise only the
    endpoint on the next edge can own a longer block, and it does iff every
    edge up to its last one meets it.  One pass finds each vertex's last
    edge; a second stops at the first block that breaks.
    """
    last = [0] * n
    for q, (u, v) in enumerate(pairs):
        last[u] = last[v] = q
    p, m = 0, len(pairs)
    while p < m:
        a, b = pairs[p]
        if last[a] == p or last[b] == p:
            p += 1
            continue
        c = a if a in pairs[p + 1] else b
        end = last[c]
        p += 1
        while p <= end:
            if c not in pairs[p]:
                return False
            p += 1
    return True


def _peel_ends(graph: EdgeOrderedGraph) -> tuple[bool, bool]:
    """Whether the rank order of ``graph`` peels from the front and from the back."""
    pairs = graph.pairs_by_rank
    return _peels(graph.n, pairs), _peels(graph.n, pairs[::-1])


# A type check: the kind, its clique, and whether the clique's rank order
# peels from the front and from the back.
_CheckRecord = tuple[Any, EdgeOrderedGraph, bool, bool]


@lru_cache(maxsize=None)
def _tile_checks(f: int) -> tuple[_CheckRecord, ...]:
    """The twenty star checks on ``f`` vertices in ``ALL_STAR_TYPES`` order, built once."""
    hosts = (star_canonical_clique(kind, f)[0] for kind in ALL_STAR_TYPES)
    return tuple((kind, host, *_peel_ends(host)) for kind, host in zip(ALL_STAR_TYPES, hosts))


def _type_checks(
    graph: EdgeOrderedGraph, checks: Iterable[_CheckRecord], budget: Optional[SearchBudget]
) -> Iterator[tuple[Any, Optional[Embedding]]]:
    """Each kind in check order with the first embedding of ``graph`` into
    its host, or None; every search counts against the one ``budget``, made
    at the first search when None, so a graph refuted by the peel cut below
    makes none.

    Each check is a ``(kind, host, front, back)`` record whose flags say
    whether the host's order peels from the front and from the back; the
    records are built once per size, so no host is looked at again.  A host
    that peels from an end refutes, with no search and no node, a graph
    whose order does not peel from that end: an embedding sends the host
    block of vertex c exactly the remaining pattern edges at the vertex
    mapped to c, so it would peel the pattern the same way.  Twelve of the
    twenty star cliques peel from one end (all twenty at f = 4).  Every
    other check is searched.  The graph's flag for an end is computed
    when the first host that peels from that end comes up, so a graph
    refuted at its first check costs one pass.
    """
    front: Optional[bool] = None
    back: Optional[bool] = None
    for kind, host, host_front, host_back in checks:
        if host_front:
            if front is None:
                front = _peels(graph.n, graph.pairs_by_rank)
            if not front:
                yield kind, None
                continue
        if host_back:
            if back is None:
                back = _peels(graph.n, graph.pairs_by_rank[::-1])
            if not back:
                yield kind, None
                continue
        if budget is None:
            budget = SearchBudget()
        yield kind, find_embedding(graph, host, budget)


def _first_failure(
    graph: EdgeOrderedGraph, checks: Iterable[_CheckRecord], budget: Optional[SearchBudget]
) -> Verdict:
    """The ``checks`` in order on one ``budget``, to the first failure: a
    verdict naming the failing kind, or holding every certificate."""
    certificates: dict[Any, Embedding] = {}
    for kind, emb in _type_checks(graph, checks, budget):
        if emb is None:
            return _REFUSED[kind]
        certificates[kind] = emb
    return Verdict(True, MappingProxyType(certificates))


# The Turan checks decided from the back, and those whose blocks fall.  The
# reversed rank order of the MAX (INV_MAX) clique is the MIN (INV_MIN)
# clique's order with its vertices read backwards.
_FROM_BACK = (CanonicalType.MAX, CanonicalType.INV_MAX)
_FALLING = (CanonicalType.INV_MIN, CanonicalType.INV_MAX)


def _precede(ancestors: list[int], covered: int, path: Sequence[int]) -> int:
    """Add the arcs of ``path``, each vertex before the next, to the
    transitive closure ``ancestors`` (each vertex's ancestors as a bitmask,
    and ``covered`` the vertices that are an ancestor of some vertex).
    Returns the new ``covered``, or -1 once an arc closes a cycle."""
    for x, y in zip(path, path[1:]):
        above = ancestors[x]
        if above >> y & 1:
            return -1
        add = above | 1 << x
        if ancestors[y] | add != ancestors[y]:
            bit = 1 << y
            if covered & bit:  # y has descendants, and they inherit the arc
                for w, its in enumerate(ancestors):
                    if its & bit:
                        ancestors[w] = its | add
            ancestors[y] |= add
            covered |= add
    return covered


def _block_order(
    n: int, pairs: Sequence[Pair], falling: bool, budget: SearchBudget
) -> Optional[list[int]]:
    """A vertex order under which ``pairs`` rise in the MIN clique (INV_MIN
    when ``falling``), or None when there is none; nothing is embedded.

    The MIN clique ranks an edge by its earlier end, its owner, then by its
    later end, rising (falling in INV_MIN).  So such an order splits
    ``pairs`` into blocks as :func:`_peels` does, each every remaining edge
    at its owner, and asks for precedence arcs per block: the previous
    owner before this one, the owner before the block's other ends, and
    those chained in block order (reversed when ``falling``), one path in
    all.  Conversely any order keeping the arcs of a split is an answer.
    The arcs go into a transitive closure, and an arc closing a cycle ends
    the split.  An endpoint of the block's first edge can own the block iff
    every edge from there to its last one meets it, and both can only where
    one of them has no later edge; each such branch node costs one tick,
    and its second owner is tried when the first fails.  The answer sorts
    the vertices by ancestor count.
    """
    m = len(pairs)
    if m == 0:
        return list(range(n))
    # Each vertex's last edge, and the first of the run of edges at it that ends there.
    last = [0] * n
    start = [0] * n
    before: Pair = (-1, -1)
    for q, (u, v) in enumerate(pairs):
        if u not in before:
            start[u] = q
        if v not in before:
            start[v] = q
        last[u] = last[v] = q
        before = (u, v)
    # Splits to go on with: block start, its owner (-1 to choose), the
    # previous owner (-1 before the first block), and the closure.
    stack = [(0, -1, -1, [0] * n, 0)]
    while stack:
        p, owner, prev, ancestors, covered = stack.pop()
        while covered >= 0:
            if owner < 0:
                a, b = pairs[p]
                if start[a] <= p:
                    owner = a
                    if start[b] <= p:
                        budget.tick()
                        stack.append((p, b, prev, ancestors.copy(), covered))
                elif start[b] <= p:
                    owner = b
                else:
                    break
            end = last[owner]
            others = [u + v - owner for u, v in pairs[p : end + 1]]
            if falling:
                others.reverse()
            path = [prev, owner, *others] if prev >= 0 else [owner, *others]
            covered = _precede(ancestors, covered, path)
            if covered >= 0 and end + 1 == m:
                counts = [above.bit_count() for above in ancestors]
                return sorted(range(n), key=counts.__getitem__)
            p, owner, prev = end + 1, -1, owner
    return None


def _certified_order(
    kind: CanonicalType, n: int, pairs: Sequence[Pair], vm: Sequence[int]
) -> Embedding:
    """``vm`` as an embedding into ``canonical_clique(kind, n)``, checked by
    label with no clique built: a permutation of ``range(n)`` (so injective,
    every image in range), with ``canonical_label`` strictly rising along
    the rank order ``pairs``.

    An explicit check rather than an ``assert``, so it survives ``python -O``.
    """
    if sorted(vm) != list(range(n)):
        raise CertificateError(f"order {tuple(vm)} is no permutation of range({n})")
    last = 0  # every canonical label is positive
    for u, v in pairs:
        i, j = (vm[u], vm[v]) if vm[u] < vm[v] else (vm[v], vm[u])
        label = canonical_label(kind, n, i + 1, j + 1)
        if label <= last:
            raise CertificateError(f"order {tuple(vm)} failed re-verification")
        last = label
    return Embedding(tuple(vm))


def _canonical_verdict(
    graph: EdgeOrderedGraph, kinds: Iterable[CanonicalType], budget: Optional[SearchBudget]
) -> Verdict:
    """The canonical checks ``kinds`` in order, to the first failure, on one
    ``budget``: the shared refusal of the failing kind, or a verdict
    holding every certificate.

    Each is :func:`_block_order` on the graph's rank order, reversed for
    MAX and INV_MAX, after :func:`_peels` on that order: a graph that does
    not peel from an end fails the two kinds decided from it, and its flag
    for an end is computed when a kind first needs it, so a graph refuted
    at MIN costs one pass and allocates nothing else.  The budget is made,
    when None, once the first peel holds.  Each order is certified by
    label (:func:`_certified_order`), so no clique is built.
    """
    n, pairs = graph.n, graph.pairs_by_rank
    front: Optional[bool] = None  # whether the rank order peels from the front
    back: Optional[bool] = None  # and from the back
    certificates: Optional[dict[Any, Embedding]] = None
    for kind in kinds:
        from_back = kind in _FROM_BACK
        ranked = pairs[::-1] if from_back else pairs
        if from_back and back is None:
            back = _peels(n, ranked)
        elif not from_back and front is None:
            front = _peels(n, ranked)
        if not (back if from_back else front):
            return _REFUSED[kind]
        budget = budget or SearchBudget()
        order = _block_order(n, ranked, kind in _FALLING, budget)
        if order is None:
            return _REFUSED[kind]
        vm = [0] * n
        for i, v in enumerate(reversed(order) if from_back else order):
            vm[v] = i
        if certificates is None:
            certificates = {}
        certificates[kind] = _certified_order(kind, n, pairs, vm)
    return Verdict(True, MappingProxyType(certificates or {}))


def is_turanable(graph: EdgeOrderedGraph, budget: Optional[SearchBudget] = None) -> Verdict:
    """Check the four canonical orderings of K_f in ``CANONICAL_ORDER``.

    Returns certificates for all four on success, or the first failing
    type.  An embedding into a complete canonical clique on the graph's own
    vertices is a vertex order, so each check is decided by precedence
    arcs (:func:`_canonical_verdict`) with no embedding search; a graph
    whose order does not peel from the front (MIN, INV_MIN) or back (MAX,
    INV_MAX) fails those checks after one pass.  One budget bounds the
    branch nodes of all four; its exhaustion raises Inconclusive rather
    than answering.  A graph on at most two vertices embeds into every
    ordered clique of its size.
    """
    if graph.n <= 2:
        return _VACUOUS
    return _canonical_verdict(graph, CANONICAL_ORDER, budget)


def is_tileable(graph: EdgeOrderedGraph, budget: Optional[SearchBudget] = None) -> Verdict:
    """Check the twenty star-canonical orderings of K_f in fixed order, on
    one budget.  A failing type may be refuted by the type loop's peel cut
    instead of a search.  A tileable graph is Turanable with no further
    check: the four ``CANONICAL_COINCIDENT_TYPES`` cliques are the canonical
    orderings.  A graph on at most two vertices is vacuously tileable.
    """
    if graph.n <= 2:
        return _VACUOUS
    return _first_failure(graph, _tile_checks(graph.n), budget)


def is_universally_tileable(graph: EdgeOrderedGraph) -> bool:
    """True iff every edge-ordering of the underlying graph is tileable.

    Holds exactly for star forests, the three-edge path, and the triangle,
    each allowing extra isolated vertices.
    """
    comps = [c for c in components(graph) if len(c) > 1]
    if not comps:
        return True

    def is_star(comp: set[int]) -> bool:
        edges = [(u, v) for u, v in graph.pairs_by_rank if u in comp]
        if len(edges) != len(comp) - 1:
            return False
        return sum(1 for v in comp if graph.degree(v) > 1) <= 1

    if all(is_star(c) for c in comps):
        return True
    if len(comps) != 1:
        return False
    comp = comps[0]
    edges = [(u, v) for u, v in graph.pairs_by_rank if u in comp]
    if len(comp) == 3 and len(edges) == 3:
        return True  # triangle
    if len(comp) == 4 and len(edges) == 3:
        degrees = sorted(graph.degree(v) for v in comp)
        return degrees == [1, 1, 2, 2]  # three-edge path
    return False


def extremal_vertices(
    graph: EdgeOrderedGraph, budget: Optional[SearchBudget] = None
) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices able to play v_1 in a min / v_f in a max embedding, on one budget.

    Every isolated vertex of a Turanable graph plays both: embed the rest
    into the MIN (MAX) clique on the other vertices and put it first
    (last).  The kernel fills isolated vertices from the least unused host
    vertices, so its maps name at most one of them.
    """
    isolated = frozenset(graph.isolated_vertices())
    if graph.m == 0:
        return isolated, isolated
    budget = budget or SearchBudget()
    verdict = _canonical_verdict(graph, CANONICAL_ORDER, budget)
    if not verdict.value:
        raise NotTuranable(f"no embedding into the {verdict.failing.value} ordering")
    f = graph.n
    min_host = canonical_clique(CanonicalType.MIN, f)
    max_host = canonical_clique(CanonicalType.MAX, f)
    minimal = isolated.union(vm.index(0) for vm in _embeddings(graph, min_host, budget))
    maximal = isolated.union(vm.index(f - 1) for vm in _embeddings(graph, max_host, budget))
    if not (minimal and maximal):
        raise CertificateError("Turanable graph has no extremal vertex")
    return minimal, maximal


def add_pendant(graph: EdgeOrderedGraph, v: int, side: str) -> EdgeOrderedGraph:
    """Attach a new vertex to ``v`` by a globally smallest or largest edge.

    ``side='below'`` requires ``v`` on the smallest edge, ``side='above'``
    on the largest; these are the hypotheses under which the extension
    preserves tileability.
    """
    if side not in ("below", "above"):
        raise BadSpec(f"side must be 'below' or 'above', got {side!r}")
    _check_vertex(graph, v)
    if graph.m == 0:
        raise BadAnchor("pendant extension needs at least one edge")
    pairs = graph.pairs_by_rank
    if v not in (pairs[0] if side == "below" else pairs[-1]):
        extreme = "smallest" if side == "below" else "largest"
        raise BadAnchor(f"vertex {v} is not incident to the {extreme} edge")
    pendant = ((v, graph.n),)
    return EdgeOrderedGraph(graph.n + 1, pendant + pairs if side == "below" else pairs + pendant)


def add_two_pendants(
    graph: EdgeOrderedGraph,
    vmin: int,
    vmax: int,
    budget: Optional[SearchBudget] = None,
) -> EdgeOrderedGraph:
    """Pendants at a minimal and a maximal vertex; the result is tileable.

    Vertex ``n`` carries the new globally smallest edge, vertex ``n+1``
    the new globally largest one.  A graph that is not Turanable raises
    :class:`NotTuranable`, as in :func:`extremal_vertices`.
    """
    _check_vertex(graph, vmin)
    _check_vertex(graph, vmax)
    if vmin == vmax:
        raise BadAnchor("minimal and maximal anchors must be distinct")
    if not graph.adjacency[vmin] or not graph.adjacency[vmax]:
        raise BadAnchor("anchors must be non-isolated")
    minimal, maximal = extremal_vertices(graph, budget)
    if vmin not in minimal:
        raise BadAnchor(f"vertex {vmin} is not minimal")
    if vmax not in maximal:
        raise BadAnchor(f"vertex {vmax} is not maximal")
    return EdgeOrderedGraph(
        graph.n + 2, ((vmin, graph.n),) + graph.pairs_by_rank + ((vmax, graph.n + 1),)
    )


def d_graph(n: int) -> EdgeOrderedGraph:
    """All edges at the first and last of n vertices, ordered fan-then-fan."""
    if n < 3:
        raise BadSpec(f"D(n) needs n >= 3, got {n}")
    edges = [(0, j, j) for j in range(1, n)]
    edges += [(i, n - 1, n + i - 1) for i in range(1, n - 1)]
    return build_graph(n, edges)


def d_plus(n: int) -> EdgeOrderedGraph:
    return add_pendant(d_graph(n), n - 1, "above")


def d_minus(n: int) -> EdgeOrderedGraph:
    return add_pendant(d_graph(n), 0, "below")


def monotone_cycle(n: int) -> EdgeOrderedGraph:
    if n < 3:
        raise BadSpec(f"monotone cycle needs n >= 3, got {n}")
    edges = [(i, i + 1, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1, n))
    return build_graph(n, edges)


def path_with_ranks(ranks: str) -> EdgeOrderedGraph:
    """Path whose i-th edge has the i-th digit as its label, e.g. '132'."""
    if not ranks or not ranks.isdigit() or "0" in ranks:
        raise BadSpec(f"rank string must be nonempty digits 1-9, got {ranks!r}")
    labels = [int(c) for c in ranks]
    if len(set(labels)) != len(labels):
        raise BadSpec(f"rank string must have distinct digits, got {ranks!r}")
    return build_graph(len(labels) + 1, [(i, i + 1, labels[i]) for i in range(len(labels))])


def c4_1243() -> EdgeOrderedGraph:
    """The one Turanable ordering of the four-cycle."""
    return build_graph(4, [(0, 1, 1), (1, 2, 2), (0, 3, 3), (2, 3, 4)])


_FAMILY_PATTERN = re.compile(r"^([A-Za-z_0-9]+)(?:\(([^)]*)\))?$")


def family_graph(descriptor: str) -> EdgeOrderedGraph:
    """Build a named family graph from a descriptor like ``D(4)``.

    Supported: D(n), Dplus(n), Dminus(n), MonoCycle(n), MonoPath(k),
    PathRanks(digits), C4_1243.  A family of more than
    ``MAX_HOST_VERTICES`` vertices raises :class:`BadSpec` before it is built.
    """
    match = _FAMILY_PATTERN.match(descriptor.strip())
    if not match:
        raise BadSpec(f"malformed family descriptor {descriptor!r}")
    name, arg = match.group(1), match.group(2)
    if name == "PathRanks":
        return path_with_ranks(arg or "")
    if name == "C4_1243":
        return c4_1243()
    # Each sized family's builder and its vertex count beyond the argument.
    sized = {
        "D": (d_graph, 0), "Dplus": (d_plus, 1), "Dminus": (d_minus, 1),
        "MonoCycle": (monotone_cycle, 0), "MonoPath": (monotone_path_graph, 1),
    }
    if name not in sized:
        raise BadSpec(f"unknown family {name!r}")
    build, extra = sized[name]
    try:
        size = int(arg)
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"bad argument in descriptor {descriptor!r}") from exc
    if size + extra > MAX_HOST_VERTICES:
        raise BadSpec(f"family {name} has {size + extra} vertices, over {MAX_HOST_VERTICES}")
    return build(size)


def turanable_four_coloring(
    graph: EdgeOrderedGraph, budget: Optional[SearchBudget] = None
) -> dict[int, int]:
    """Proper coloring with at most four colors, from the two sink sets.

    Vertices with no later neighbor in the min-embedding order form one
    independent set, likewise for the inverse-min order; the rest induces
    a forest and takes two more colors.  Colors are compacted to 0..c-1.
    The two orders are the MIN and INV_MIN certificates of
    :func:`_canonical_verdict`, found from precedence arcs with no search;
    only those two checks run, on one budget.
    """
    if graph.n == 0:
        return {}
    if graph.m == 0:
        return {v: 0 for v in range(graph.n)}
    verdict = _canonical_verdict(graph, (CanonicalType.MIN, CanonicalType.INV_MIN), budget)
    if not verdict.value:
        raise NotTuranable(f"no embedding into the {verdict.failing.value} ordering")
    pos_min, pos_inv = (emb.vertex_map for emb in verdict.certificates.values())

    def sinks(pos: tuple[int, ...]) -> set[int]:
        return {
            v
            for v in range(graph.n)
            if all(pos[w] < pos[v] for w in graph.adjacency[v])
        }

    s_min = sinks(pos_min)
    s_inv = sinks(pos_inv)
    rest = [v for v in range(graph.n) if v not in s_min and v not in s_inv]

    colors: dict[int, int] = {}
    for v in s_min:
        colors[v] = 0
    for v in s_inv - s_min:
        colors[v] = 1
    # The leftover set induces a forest: two-color each component by BFS.
    # An odd cycle would leave an edge with one color, which the properness
    # check below refuses.
    rest_set = set(rest)
    for start in rest:
        if start in colors:
            continue
        colors[start] = 2
        queue = [start]
        while queue:
            v = queue.pop()
            for w in graph.adjacency[v]:
                if w in rest_set and w not in colors:
                    colors[w] = 5 - colors[v]
                    queue.append(w)

    used = sorted(set(colors.values()))
    compact = {c: i for i, c in enumerate(used)}
    final = {v: compact[c] for v, c in colors.items()}
    if any(final[u] == final[v] for u, v in graph.pairs_by_rank):
        raise CertificateError("coloring is not proper")
    return final
