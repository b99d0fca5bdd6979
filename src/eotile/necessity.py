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
from .characterize import _tile_checks, _type_checks
from .core import (
    DEFAULT_MAX_LABELINGS, EdgeOrderedGraph, LeastState, Pair, _least_step, canonical_form
)
from .embed import Embedding, SearchBudget
from .errors import BadSize, BadSpec, CertificateError, Inconclusive

# One checked witness per type, as a ``path_with_ranks`` string: each 8-vertex
# path embeds into the other nineteen star-canonical K8s and not into its
# type's.  The two paths of a row are reverses of each other.
WITNESSES: dict[StarType, str] = {
    StarType.parse(label): ranks
    for label, ranks in (
        ("larger-dec.max", "1345762"), ("smaller-dec.min", "6213457"),
        ("larger-dec.inv-max", "1354762"), ("smaller-dec.inv-min", "6214357"),
        ("larger-inc.max", "1345672"), ("smaller-inc.min", "6123457"),
        ("larger-inc.inv-max", "1354672"), ("smaller-inc.inv-min", "6124357"),
    )
}

# Types whose necessity a witness in the table establishes.  Scans can
# corroborate but never refute membership in this list.
ESTABLISHED_NECESSARY = tuple(kind for kind in ALL_STAR_TYPES if kind in WITNESSES)

# A class's profile is a mask: bit i set iff it embeds into the clique of
# ALL_STAR_TYPES[i].
_ALL_TYPES = (1 << len(ALL_STAR_TYPES)) - 1


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

    Order: vertex count ascending, then edge count descending, then least
    edge sequence ascending.  Denser classes come first so that scans
    surface the clique-like members of a class family before the sparse
    ones; the order is fixed for reproducibility.

    The classes come from the augmentation levels of
    :func:`_class_profiles`, which searches nothing here.  Past
    ``DEFAULT_MAX_LABELINGS`` classes on a K_f level the first ``next()``
    raises :class:`Inconclusive` naming the least such f: f_max = 5
    (30,240) runs, and every f_max from 6 on stops at K_6.
    """
    for graph, _ in _class_profiles(f_max):
        yield graph


def _class_profiles(
    f_max: int, budget: Optional[SearchBudget] = None
) -> Iterator[tuple[EdgeOrderedGraph, int]]:
    """Each class of ``scan_classes(f_max)``, in its order, with its profile,
    the mask of the star types it embeds into (bit i: ``ALL_STAR_TYPES[i]``).

    Classes on f vertices grow level by level from the empty graph: level
    m appends each non-edge of each level m-1 class as its new top edge
    and keeps each child once, keyed by its least sequence, the rank
    order of its canonical form.  Deleting a class's top edge leaves one
    parent class, so every class turns up (McKay, J. Algorithms 1998).  A
    parent's least sequence is the least prefix of each child's, so a
    child's sequence costs one :func:`_least_step` from its parent's
    state, and a kept child below K_f keeps the state that step left for
    its own children.

    A parent is a subgraph of its child, so a type one parent fails the
    child fails too: the child starts from the types all of its parents
    passed and is searched only for those, every search on one ``budget``.
    Types whose cliques have one canonical form at size f share one
    search and one check record, whose peel flags hold for every clique of
    the group; a type may fail by :func:`_type_checks`' peel cut with no
    search.  The empty graph and the classes on at most two vertices pass
    all twenty with no search.  Without a budget nothing is searched and
    every class reads as passing all twenty: unlike the public functions,
    whose None stands for a fresh budget, None here means no search.
    """
    for f in range(f_max + 1):  # ascending: no factorial past the first K_f over the cap
        top = math.factorial(math.comb(f, 2)) // math.factorial(f)
        if top > DEFAULT_MAX_LABELINGS:
            raise Inconclusive(f"K_{f} has {top} ordering classes, over {DEFAULT_MAX_LABELINGS}")
    for f in range(1, f_max + 1):
        # [types, clique, front, back] per ordering class of the twenty
        # cliques: one at f = 3, twelve at f = 4, twenty from f = 5 on.
        checks: dict[EdgeOrderedGraph, list] = {}
        if budget and f > 2:
            for i, (_, host, front, back) in enumerate(_tile_checks(f)):
                checks.setdefault(canonical_form(host), [0, host, front, back])[0] |= 1 << i
        # Each level maps a class's least sequence to its profile; equal
        # pairs are one object, so comparing sequences stops at identity.
        # A kept class below K_f keeps its step state in the coordinates it
        # was generated in, its parent's plus the new pair, with those edges
        # as a bit mask over ``pairs``, so each child costs one step.
        pairs = list(combinations(range(f), 2))
        levels: list[dict[tuple[Pair, ...], int]] = [{(): _ALL_TYPES}]
        states: dict[tuple[Pair, ...], tuple[int, LeastState]] = {(): (0, ([-1] * f, {}, 0))}
        interned: dict[Pair, Pair] = {}
        for m in range(1, len(pairs) + 1):  # the children's edge count
            inherited: dict[tuple[Pair, ...], int] = {}
            born: dict[tuple[Pair, ...], tuple[int, LeastState]] = {}
            for seq, passed in levels[-1].items():
                edges, state = states[seq]
                for i, (a, b) in enumerate(pairs):
                    if not edges >> i & 1:
                        step, after = _least_step(state, a, b)
                        child = seq + (interned.setdefault(step, step),)
                        shared = inherited.get(child)
                        if shared is None:
                            inherited[child] = passed
                            if m < len(pairs):  # K_f has no children
                                born[child] = (edges | 1 << i, after)
                        else:
                            inherited[child] = shared & passed
            if checks:
                for child, passed in inherited.items():
                    pending = [check for check in checks.values() if passed & check[0]]
                    for kinds, emb in _type_checks(EdgeOrderedGraph(f, child), pending, budget):
                        if emb is None:
                            passed &= ~kinds
                    inherited[child] = passed
            levels.append(inherited)
            states = born
        while levels:  # densest first, each level freed once yielded
            level = levels.pop()
            for seq in sorted(level):
                yield EdgeOrderedGraph(f, seq), level[seq]


@lru_cache(maxsize=1)
def _profile_table(
    f_max: int, budget: SearchBudget
) -> tuple[tuple[EdgeOrderedGraph, int], ...]:
    """The rows of :func:`_class_profiles` on one budget, each a class and
    its profile mask, kept for the witness scans and probes that read them
    again.  The key holds the budget itself, which compares by identity,
    so the calls of one request share one table and count its nodes once.
    Every request reads one table, and an f_max = 5 table holds 82,299
    rows, so only the last is kept."""
    return tuple(_class_profiles(f_max, budget))


def _certify_witness(
    graph: EdgeOrderedGraph, target: StarType, budget: SearchBudget
) -> dict[StarType, Embedding]:
    """The nineteen certificates of ``graph`` as a witness for ``target``.

    All twenty checks run on ``budget``.  Each other type must yield a
    certificate, which :func:`find_embedding` checked before returning it,
    and the check against the target's ordering must come back empty, by an
    exhausted search or by the type loop's peel cut; otherwise
    :class:`CertificateError` is raised.
    """
    found = dict(_type_checks(graph, _tile_checks(graph.n), budget))
    for kind, emb in found.items():
        if kind != target and emb is None:
            raise CertificateError(f"witness certificate for {kind} failed re-verification")
    if found.pop(target) is not None:
        raise CertificateError(f"witness refutation for {target} failed re-verification")
    return found


def necessity_witness(
    target: StarType,
    f_max: int,
    budget: Optional[SearchBudget] = None,
) -> NecessityReport:
    """Scan for the first graph separating ``target`` from the other types.

    The profile table and the certification of a witness by
    :func:`_certify_witness` run on one budget.
    """
    if f_max < 2:
        raise BadSize(f"witness scan needs f_max >= 2, got {f_max}")
    budget = budget or SearchBudget()
    table = _profile_table(f_max, budget)
    separating = _ALL_TYPES ^ 1 << ALL_STAR_TYPES.index(target)
    for scanned, (graph, profile) in enumerate(table, 1):
        if profile == separating:
            certificates = _certify_witness(graph, target, budget)
            return NecessityReport(
                target, graph, f_max, certificates, refutation=True, classes_scanned=scanned
            )
    return NecessityReport(target, None, f_max, classes_scanned=len(table))


def sufficiency_probe(
    subset: frozenset[StarType] | set[StarType] | tuple[StarType, ...],
    f_max: int,
    budget: Optional[SearchBudget] = None,
) -> Optional[EdgeOrderedGraph]:
    """First graph passing every type in ``subset`` yet failing an omitted one.

    A result shows the subset cannot replace the full twenty-type check;
    None only says the subset suffices for graphs up to f_max vertices.
    """
    if f_max < 2:
        raise BadSize(f"sufficiency probe needs f_max >= 2, got {f_max}")
    chosen = set(subset)
    unknown = chosen - set(ALL_STAR_TYPES)
    if unknown:
        raise BadSpec(f"unknown star types in subset: {unknown}")
    wanted = sum(1 << ALL_STAR_TYPES.index(kind) for kind in chosen)
    for graph, profile in _profile_table(f_max, budget or SearchBudget()):
        if profile & wanted == wanted and profile != _ALL_TYPES:
            return graph
    return None
