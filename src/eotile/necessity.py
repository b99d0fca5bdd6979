"""Search for evidence that individual star-canonical types are necessary.

A witness for a type is a graph that embeds into the other nineteen
star-canonical orderings of K_f but not into the target's, hence is not
tileable; omitting that type from the tileability check would therefore
accept a non-tileable graph.  The scan walks iso-classes of small
edge-ordered graphs and records exactly how far it looked, so a "none
found" is always a bounded statement, never a universal one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional

from .canonical import ALL_STAR_TYPES, StarType
from .characterize import _tile_checks, _trivial_pattern, _type_checks
from .core import (
    DEFAULT_MAX_LABELINGS, EdgeOrderedGraph, Pair, _encode, _from_sequence, _min_edge_sequence
)
from .embed import DEFAULT_BUDGET, Embedding, SearchBudget, _Meter, verify_embedding
from .errors import BadSize, BudgetExceeded, CertificateError

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


def scan_classes(f_max: int) -> Iterator[EdgeOrderedGraph]:
    """Iso-classes of edge-ordered graphs on 1..f_max vertices.

    Order: vertex count ascending, then edge count descending, then
    canonical code ascending.  Denser classes come first so that scans
    surface the clique-like members of a class family before the sparse
    ones; the order is fixed for reproducibility.

    Classes on f vertices grow level by level from the empty graph: level
    m appends each non-edge of each level m-1 class as its new top edge
    and keeps each child once, by code.  Deleting a class's top edge leaves
    one parent class, so every class turns up (McKay, J. Algorithms 1998).
    The largest levels, K_f and K_f minus an edge, hold C(f,2)!/f! classes
    each; past ``DEFAULT_MAX_LABELINGS`` at f_max the first ``next()``
    raises :class:`BudgetExceeded`: f_max = 5 (30,240) runs, 6 does not.
    """
    top = math.factorial(math.comb(max(f_max, 0), 2)) // math.factorial(max(f_max, 0))
    if top > DEFAULT_MAX_LABELINGS:
        raise BudgetExceeded(f"K_{f_max} has {top} ordering classes, over {DEFAULT_MAX_LABELINGS}")
    for f in range(1, f_max + 1):
        levels: list[dict[bytes, tuple[Pair, ...]]] = [{_encode(f, ()): ()}]
        for _ in range(math.comb(f, 2)):
            children = (
                _min_edge_sequence(f, seq + (pair,))
                for seq in levels[-1].values()
                for pair in combinations(range(f), 2)
                if pair not in seq
            )
            levels.append({_encode(f, child): child for child in children})
        for level in reversed(levels):
            for code in sorted(level):
                yield _from_sequence(f, level[code])


@lru_cache(maxsize=8)
def _profile_table(
    f_max: int, node_limit: int, time_limit: float
) -> tuple[tuple[EdgeOrderedGraph, tuple[bool, ...]], ...]:
    """Each scanned class with the star types it embeds into, on one budget."""
    meter = _Meter(SearchBudget(node_limit, time_limit))
    table = []
    for graph in scan_classes(f_max):
        if _trivial_pattern(graph):
            table.append((graph, tuple(True for _ in ALL_STAR_TYPES)))
        else:
            found = _type_checks(graph, _tile_checks(graph.n), meter)
            table.append((graph, tuple(emb is not None for _, emb in found)))
    return tuple(table)


def necessity_witness(
    target: StarType,
    f_max: int,
    budget: SearchBudget = DEFAULT_BUDGET,
) -> NecessityReport:
    """Scan for the first graph separating ``target`` from the other types.

    The witness's twenty searches run again on one budget: the nineteen
    certificates are re-verified by the independent embedding checker, and
    the search against the target ordering must come back empty.
    """
    if f_max < 2:
        raise BadSize(f"witness scan needs f_max >= 2, got {f_max}")
    table = _profile_table(f_max, budget.node_limit, budget.time_limit)
    separating = tuple(kind != target for kind in ALL_STAR_TYPES)
    for scanned, (graph, profile) in enumerate(table, 1):
        if profile != separating:
            continue
        checks = _tile_checks(graph.n)
        found = dict(_type_checks(graph, checks, _Meter(budget)))
        for kind, host in checks:
            emb = found[kind]
            if kind != target and (emb is None or not verify_embedding(graph, host, emb)):
                raise CertificateError(f"witness certificate for {kind} failed re-verification")
        if found.pop(target) is not None:
            raise CertificateError(f"witness refutation for {target} failed re-verification")
        return NecessityReport(
            target, graph, f_max, found, refutation=True, classes_scanned=scanned
        )
    return NecessityReport(target, None, f_max, classes_scanned=len(table))


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
    for graph, profile in _profile_table(f_max, budget.node_limit, budget.time_limit):
        passed = {kind for kind, flag in zip(ALL_STAR_TYPES, profile) if flag}
        if chosen <= passed and len(passed) < len(ALL_STAR_TYPES):
            return graph
    return None
