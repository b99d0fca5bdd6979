"""Search for evidence that individual star-canonical types are necessary.

A witness for a type is a graph that embeds into the other nineteen
star-canonical orderings of K_f but not into the target's, hence is not
tileable; omitting that type from the tileability check would therefore
accept a non-tileable graph.  The scan walks iso-classes of small
edge-ordered graphs and records exactly how far it looked, so a "none
found" is always a bounded statement, never a universal one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional

from .canonical import ALL_STAR_TYPES, StarType, star_canonical_clique
from .core import (
    EdgeOrderedGraph,
    build_graph,
    canonical_code,
    enumerate_orderings,
)
from .embed import DEFAULT_BUDGET, Embedding, SearchBudget, find_embedding, verify_embedding
from .errors import BadSize, CertificateError

# Types whose necessity is already established by small witnesses: the
# smaller orderings over min / inverse min parts and the larger orderings
# over max / inverse max parts (these include the four canonical ones).
# Scans can corroborate but never refute membership in this list.
ESTABLISHED_NECESSARY = tuple(
    kind
    for kind in ALL_STAR_TYPES
    if (kind.family.value.startswith("smaller") and kind.part.value in ("min", "inv-min"))
    or (kind.family.value.startswith("larger") and kind.part.value in ("max", "inv-max"))
)


@dataclass(frozen=True)
class NecessityReport:
    """Outcome of a bounded witness scan for one target type."""

    target: StarType
    witness: Optional[EdgeOrderedGraph]
    f_searched: int
    certificates: dict[StarType, Embedding] = field(default_factory=dict)
    refutation: bool = False
    classes_scanned: int = 0


def _star_profile(graph: EdgeOrderedGraph, budget: SearchBudget) -> tuple[bool, ...]:
    """Which of the twenty star-canonical K_f orderings contain the graph.

    Graphs on at most two vertices embed into every ordered clique of
    their size, so their profile is all-true.
    """
    if graph.n <= 2:
        return tuple(True for _ in ALL_STAR_TYPES)
    flags = []
    for kind in ALL_STAR_TYPES:
        host, _ = star_canonical_clique(kind, graph.n)
        flags.append(find_embedding(graph, host, budget) is not None)
    return tuple(flags)


def scan_classes(f_max: int) -> Iterator[EdgeOrderedGraph]:
    """Iso-classes of edge-ordered graphs on 1..f_max vertices.

    Order: vertex count ascending, then edge count descending, then
    canonical code ascending.  Denser classes come first so that scans
    surface the clique-like members of a class family before the sparse
    ones; the order is fixed for reproducibility.
    """
    for f in range(1, f_max + 1):
        pairs = list(combinations(range(f), 2))
        for m in range(len(pairs), -1, -1):
            seen: set[bytes] = set()
            bucket: dict[bytes, EdgeOrderedGraph] = {}
            for chosen in combinations(pairs, m):
                shape = build_graph(f, [(u, v, i + 1) for i, (u, v) in enumerate(chosen)])
                for ordering in enumerate_orderings(shape):
                    code = canonical_code(ordering).data
                    if code not in seen:
                        seen.add(code)
                        bucket[code] = ordering
            for code in sorted(bucket):
                yield bucket[code]


@lru_cache(maxsize=8)
def _profile_table(
    f_max: int, node_limit: int, time_limit: float
) -> tuple[tuple[EdgeOrderedGraph, tuple[bool, ...]], ...]:
    budget = SearchBudget(node_limit, time_limit)
    return tuple(
        (graph, _star_profile(graph, budget)) for graph in scan_classes(f_max)
    )


def necessity_witness(
    target: StarType,
    f_max: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> NecessityReport:
    """Scan for the first graph separating ``target`` from the other types.

    Every claim in the report is re-verified: the nineteen certificates
    through the independent embedding checker, the refutation by a fresh
    search against the target ordering.
    """
    if f_max < 2:
        raise BadSize(f"witness scan needs f_max >= 2, got {f_max}")
    table = _profile_table(f_max, budget.node_limit, budget.time_limit)
    target_index = ALL_STAR_TYPES.index(target)
    scanned = 0
    for graph, profile in table:
        scanned += 1
        if profile[target_index]:
            continue
        if not all(flag for i, flag in enumerate(profile) if i != target_index):
            continue
        certificates: dict[StarType, Embedding] = {}
        for kind in ALL_STAR_TYPES:
            if kind == target:
                continue
            host, _ = star_canonical_clique(kind, graph.n)
            emb = find_embedding(graph, host, budget)
            if emb is None or not verify_embedding(graph, host, emb):
                raise CertificateError(f"witness certificate for {kind} failed re-verification")
            certificates[kind] = emb
        target_host, _ = star_canonical_clique(target, graph.n)
        if find_embedding(graph, target_host, budget) is not None:
            raise CertificateError(f"witness refutation for {target} failed re-verification")
        return NecessityReport(
            target=target,
            witness=graph,
            f_searched=f_max,
            certificates=certificates,
            refutation=True,
            classes_scanned=scanned,
        )
    return NecessityReport(
        target=target,
        witness=None,
        f_searched=f_max,
        refutation=False,
        classes_scanned=scanned,
    )


def sufficiency_probe(
    subset: frozenset[StarType] | set[StarType] | tuple[StarType, ...],
    f_max: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> Optional[EdgeOrderedGraph]:
    """First graph passing every type in ``subset`` yet failing an omitted one.

    A result shows the subset cannot replace the full twenty-type check;
    None only says the subset suffices for graphs up to f_max vertices.
    """
    chosen = set(subset)
    unknown = chosen - set(ALL_STAR_TYPES)
    if unknown:
        raise BadSize(f"unknown star types in subset: {unknown}")
    table = _profile_table(f_max, budget.node_limit, budget.time_limit)
    indices = [i for i, kind in enumerate(ALL_STAR_TYPES) if kind in chosen]
    omitted = [i for i in range(len(ALL_STAR_TYPES)) if i not in indices]
    for graph, profile in table:
        if all(profile[i] for i in indices) and any(not profile[i] for i in omitted):
            return graph
    return None
