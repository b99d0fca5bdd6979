"""Decision procedures and constructions for Turanable and tileable graphs.

Turanability is decided by embedding into the four canonical orderings of
K_f; tileability by embedding into the twenty star-canonical orderings of
K_f.  The pendant extensions and named families provide the stock of
graphs the propositions are exercised on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, Iterator, Optional, TypeVar

from .canonical import (
    ALL_STAR_TYPES,
    CANONICAL_COINCIDENT_TYPES,
    CANONICAL_ORDER,
    CanonicalType,
    StarType,
    canonical_clique,
    star_canonical_clique,
)
from .core import EdgeOrderedGraph, build_graph, components
from .embed import (
    DEFAULT_BUDGET,
    Embedding,
    SearchBudget,
    _embeddings,
    _Meter,
    are_order_isomorphic,
    find_embedding,
    monotone_path_graph,
    verify_embedding,
)
from .errors import BadAnchor, BadSpec, BadVertex, CertificateError, NotTuranable


@dataclass(frozen=True)
class TuranVerdict:
    value: bool
    certificates: dict[CanonicalType, Embedding] = field(default_factory=dict)
    failing: Optional[CanonicalType] = None


@dataclass(frozen=True)
class TileVerdict:
    value: bool
    certificates: dict[StarType, Embedding] = field(default_factory=dict)
    failing: Optional[StarType] = None


def _trivial_pattern(graph: EdgeOrderedGraph) -> bool:
    # Graphs on at most two vertices embed into every ordered clique of
    # their size, so both decision procedures are vacuously true.
    return graph.n <= 2


def _tile_checks(f: int) -> tuple[tuple[StarType, EdgeOrderedGraph], ...]:
    return tuple((kind, star_canonical_clique(kind, f)[0]) for kind in ALL_STAR_TYPES)


def _type_checks(
    graph: EdgeOrderedGraph, checks: Iterable[tuple[Any, EdgeOrderedGraph]], meter: _Meter
) -> Iterator[tuple[Any, Optional[Embedding]]]:
    """Each kind in check order with the first embedding of ``graph`` into
    its host, or None; every search counts against the one ``meter``."""
    for kind, host in checks:
        yield kind, find_embedding(graph, host, meter=meter)


_Verdict = TypeVar("_Verdict", TuranVerdict, TileVerdict)


def _first_failure(
    verdict: type[_Verdict],
    graph: EdgeOrderedGraph,
    checks: Iterable[tuple[Any, EdgeOrderedGraph]],
    meter: _Meter,
) -> _Verdict:
    """The ``checks`` in order on one ``meter``, to the first failure: a
    ``verdict`` naming the failing kind, or holding every certificate."""
    certificates: dict[Any, Embedding] = {}
    for kind, emb in _type_checks(graph, checks, meter):
        if emb is None:
            return verdict(False, failing=kind)
        certificates[kind] = emb
    return verdict(True, certificates=certificates)


def _turan_verdict(
    graph: EdgeOrderedGraph, kinds: Iterable[CanonicalType], meter: _Meter
) -> TuranVerdict:
    """The canonical checks of ``kinds`` in order on one ``meter``, to the first failure."""
    checks = ((kind, canonical_clique(kind, graph.n)) for kind in kinds)
    return _first_failure(TuranVerdict, graph, checks, meter)


def is_turanable(
    graph: EdgeOrderedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> TuranVerdict:
    """Check the four canonical orderings of K_f in fixed order.

    Returns certificates for all four on success, or the first failing
    type.  One budget bounds all four searches; its exhaustion raises
    Inconclusive rather than answering.
    """
    if _trivial_pattern(graph):
        return TuranVerdict(True)
    return _turan_verdict(graph, CANONICAL_ORDER, _Meter(budget))


_isomorphism = lru_cache(maxsize=None)(are_order_isomorphic)


def is_tileable(
    graph: EdgeOrderedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> TileVerdict:
    """Check the twenty star-canonical orderings of K_f in fixed order, on
    one budget.  Four types are order-isomorphic to the canonical orderings,
    so their certificates, mapped onto those, re-check Turanability.
    """
    if _trivial_pattern(graph):
        return TileVerdict(True)
    f = graph.n
    verdict = _first_failure(TileVerdict, graph, _tile_checks(f), _Meter(budget))
    if not verdict.value:
        return verdict
    for kind in CANONICAL_COINCIDENT_TYPES:
        canonical = canonical_clique(kind.part, f)
        iso = _isomorphism(star_canonical_clique(kind, f)[0], canonical)
        mapped = iso and Embedding(tuple(map(iso.apply, verdict.certificates[kind].vertex_map)))
        if not mapped or not verify_embedding(graph, canonical, mapped):
            raise CertificateError("tileable graph failed the Turan re-check")
    return verdict


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
    graph: EdgeOrderedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[frozenset[int], frozenset[int]]:
    """Vertices able to play v_1 in a min / v_f in a max embedding, on one budget."""
    if graph.n == 1:
        return frozenset({0}), frozenset({0})
    meter = _Meter(budget)
    verdict = _turan_verdict(graph, CANONICAL_ORDER, meter)
    if not verdict.value:
        raise NotTuranable(f"no canonical embedding of type {verdict.failing}")
    f = graph.n
    min_host = canonical_clique(CanonicalType.MIN, f)
    max_host = canonical_clique(CanonicalType.MAX, f)
    minimal = frozenset(vm.index(0) for vm in _embeddings(graph, min_host, meter))
    maximal = frozenset(vm.index(f - 1) for vm in _embeddings(graph, max_host, meter))
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
    budget: SearchBudget = DEFAULT_BUDGET,
) -> EdgeOrderedGraph:
    """Pendants at a minimal and a maximal vertex; the result is tileable.

    Vertex ``n`` carries the new globally smallest edge, vertex ``n+1``
    the new globally largest one.
    """
    for v in (vmin, vmax):
        if not (0 <= v < graph.n):
            raise BadVertex(f"vertex {v} not in graph")
    if vmin == vmax:
        raise BadAnchor("minimal and maximal anchors must be distinct")
    if not graph.adjacency[vmin] or not graph.adjacency[vmax]:
        raise BadAnchor("anchors must be non-isolated")
    try:
        minimal, maximal = extremal_vertices(graph, budget)
    except NotTuranable as exc:
        raise BadAnchor("pendant pair extension needs a Turanable graph") from exc
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
    PathRanks(digits), C4_1243.
    """
    match = _FAMILY_PATTERN.match(descriptor.strip())
    if not match:
        raise BadSpec(f"malformed family descriptor {descriptor!r}")
    name, arg = match.group(1), match.group(2)
    try:
        if name == "D":
            return d_graph(int(arg))
        if name == "Dplus":
            return d_plus(int(arg))
        if name == "Dminus":
            return d_minus(int(arg))
        if name == "MonoCycle":
            return monotone_cycle(int(arg))
        if name == "MonoPath":
            return monotone_path_graph(int(arg))
        if name == "PathRanks":
            return path_with_ranks(arg or "")
        if name == "C4_1243":
            return c4_1243()
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"bad argument in descriptor {descriptor!r}") from exc
    raise BadSpec(f"unknown family {name!r}")


def turanable_four_coloring(
    graph: EdgeOrderedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> dict[int, int]:
    """Proper coloring with at most four colors, from the two sink sets.

    Vertices with no later neighbor in the min-embedding order form one
    independent set, likewise for the inverse-min order; the rest induces
    a forest and takes two more colors.  Colors are compacted to 0..c-1.
    """
    if graph.n == 0:
        return {}
    if graph.m == 0:
        return {v: 0 for v in range(graph.n)}
    verdict = _turan_verdict(graph, (CanonicalType.MIN, CanonicalType.INV_MIN), _Meter(budget))
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
    rest_set = set(rest)
    for start in rest:
        if start in colors:
            continue
        colors[start] = 2
        queue = [start]
        while queue:
            v = queue.pop()
            for w in graph.adjacency[v]:
                if w in rest_set:
                    if w not in colors:
                        colors[w] = 5 - colors[v]
                        queue.append(w)
                    elif colors[w] == colors[v]:
                        raise CertificateError("leftover set is not a forest")

    used = sorted(set(colors.values()))
    compact = {c: i for i, c in enumerate(used)}
    final = {v: compact[c] for v, c in colors.items()}
    if any(final[u] == final[v] for u, v in graph.pairs_by_rank):
        raise CertificateError("coloring is not proper")
    return final
