"""Generators for canonical and star-canonical cliques.

Four canonical orderings of ``K_n`` (min, max, inverse min, inverse max)
come from standard integer labelings.  A star-canonical ordering of
``K_{n+1}`` has one special vertex ``x`` whose removal leaves a canonical
clique, with the ``x``-edge labels drawn from one of five families; five
families times four canonical parts gives the twenty types.  Recognizing
them in a graph, in :mod:`eotile.embed`, needs no search: a K_f is of a
type iff it is order-isomorphic to that type's generated clique, and
where the special vertex's edges rank is read off :func:`star_labels`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .core import EdgeOrderedGraph, Pair, build_graph
from .errors import BadSize, BadSpec, CertificateError


class CanonicalType(Enum):
    MIN = "min"
    MAX = "max"
    INV_MIN = "inv-min"
    INV_MAX = "inv-max"


CANONICAL_ORDER: tuple[CanonicalType, ...] = (
    CanonicalType.MIN,
    CanonicalType.MAX,
    CanonicalType.INV_MIN,
    CanonicalType.INV_MAX,
)


class StarFamily(Enum):
    LARGER_DEC = "larger-dec"
    LARGER_INC = "larger-inc"
    SMALLER_DEC = "smaller-dec"
    SMALLER_INC = "smaller-inc"
    MIDDLE_INC = "middle-inc"


STAR_FAMILY_ORDER: tuple[StarFamily, ...] = (
    StarFamily.LARGER_DEC,
    StarFamily.LARGER_INC,
    StarFamily.SMALLER_DEC,
    StarFamily.SMALLER_INC,
    StarFamily.MIDDLE_INC,
)


@dataclass(frozen=True)
class StarType:
    """One of the twenty star-canonical types: family plus canonical part."""

    family: StarFamily
    part: CanonicalType

    @property
    def label(self) -> str:
        return f"{self.family.value}.{self.part.value}"

    def __str__(self) -> str:
        return self.label

    @staticmethod
    def parse(text: str) -> "StarType":
        try:
            fam_text, part_text = text.split(".")
            return StarType(StarFamily(fam_text), CanonicalType(part_text))
        except ValueError as exc:
            raise BadSpec(f"unknown star type {text!r}") from exc


# Fixed check order for deterministic verdicts.  larger-dec.min leads: it is
# the type the D_n family provably fails, so that graph family reports it.
ALL_STAR_TYPES: tuple[StarType, ...] = tuple(
    StarType(family, part) for family in STAR_FAMILY_ORDER for part in CANONICAL_ORDER
)

# The four star types that are order-isomorphic to canonical orderings:
# passing exactly these is equivalent to being Turanable.
CANONICAL_COINCIDENT_TYPES: tuple[StarType, ...] = (
    StarType(StarFamily.SMALLER_INC, CanonicalType.MIN),
    StarType(StarFamily.LARGER_INC, CanonicalType.MAX),
    StarType(StarFamily.SMALLER_DEC, CanonicalType.INV_MIN),
    StarType(StarFamily.LARGER_DEC, CanonicalType.INV_MAX),
)


def canonical_label(kind: CanonicalType, n: int, i: int, j: int) -> int:
    """Standard label of edge v_i v_j (1-based, i < j) in K_n."""
    if kind is CanonicalType.MIN:
        return 2 * n * i + j - 1
    if kind is CanonicalType.MAX:
        return (2 * n - 1) * j + i
    if kind is CanonicalType.INV_MIN:
        return (2 * n + 1) * i - j
    return 2 * n * j - i + n


def canonical_labels(kind: CanonicalType, n: int) -> dict[Pair, int]:
    """Raw labels on 0-based vertex pairs; vertex i-1 plays v_i."""
    return {
        (i - 1, j - 1): canonical_label(kind, n, i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    }


@lru_cache(maxsize=None)
def canonical_clique(kind: CanonicalType, n: int) -> EdgeOrderedGraph:
    """K_n with the canonical ordering of the given type.

    Memoized: every call with the same (kind, n) returns the same
    immutable graph object.
    """
    if n < 2:
        raise BadSize(f"canonical clique needs n >= 2, got {n}")
    labels = canonical_labels(kind, n)
    return build_graph(n, [(u, v, r) for (u, v), r in labels.items()])


def star_labels(kind: StarType, size: int) -> tuple[dict[Pair, int], int]:
    """Raw labels for a star-canonical K_size; returns (labels, special vertex).

    The special vertex is ``size - 1``; vertices ``0..size-2`` play
    v_1..v_n of the canonical part.  Middle increasing uses x_i = 2ni,
    which never collides with a part label (part labels are never 0 mod 2n).
    """
    if size < 3:
        raise BadSize(f"star-canonical clique needs size >= 3, got {size}")
    n = size - 1
    labels = canonical_labels(kind.part, n)
    top = max(labels.values())
    x = size - 1
    for i in range(1, n + 1):
        if kind.family is StarFamily.LARGER_INC:
            xi = top + i
        elif kind.family is StarFamily.LARGER_DEC:
            xi = top + (n + 1 - i)
        elif kind.family is StarFamily.SMALLER_INC:
            xi = i
        elif kind.family is StarFamily.SMALLER_DEC:
            xi = n + 1 - i
        else:
            xi = 2 * n * i
        labels[(i - 1, x)] = xi
    return labels, x


@lru_cache(maxsize=None)
def star_canonical_clique(kind: StarType, size: int) -> tuple[EdgeOrderedGraph, int]:
    """K_size star-canonically ordered; returns (graph, special vertex).

    Memoized like :func:`canonical_clique`: the returned graph is shared.
    """
    labels, x = star_labels(kind, size)
    graph = build_graph(size, [(u, v, r) for (u, v), r in labels.items()])
    return graph, x


def _base_cycle(kind: StarType, n: int) -> list[int]:
    """Spanning cycle (0-based, x last) that comes out monotone for ``kind``.

    Four spanning paths of the canonical part suffice, with the special
    vertex spliced between the path's last and first vertices:

    * ordinary  v_1 .. v_n            (decreasing families; middle with
                                       min/max part)
    * jumpy     v_{n/2+1} v_1 v_{n/2+2} v_2 .. v_n v_{n/2}
                                      (increasing families, min/max part)
    * big       v_n v_1 .. v_{n-1}    (inverse min part)
    * small     v_2 .. v_n v_1        (inverse max part)
    """
    ordinary = list(range(1, n + 1))
    small = list(range(2, n + 1)) + [1]
    big = [n] + list(range(1, n))
    jumpy: list[int] = []
    for k in range(1, n // 2 + 1):
        jumpy.extend((n // 2 + k, k))
    if kind.family in (StarFamily.LARGER_DEC, StarFamily.SMALLER_DEC):
        path = ordinary
    elif kind.part in (CanonicalType.MIN, CanonicalType.MAX):
        path = ordinary if kind.family is StarFamily.MIDDLE_INC else jumpy
    elif kind.part is CanonicalType.INV_MIN:
        path = big
    else:
        path = small
    return [v - 1 for v in path]


def monotone_hamilton_cycle(kind: StarType, size: int) -> tuple[int, ...]:
    """Spanning cycle of the star-canonical K_size with ranks increasing.

    Only odd sizes (even canonical part) admit one; the traversal starts at
    the smallest edge, so output is deterministic.
    """
    if size % 2 == 0 or size < 5:
        raise BadSize(f"monotone spanning cycles need odd size >= 5, got {size}")
    graph, special = star_canonical_clique(kind, size)
    cycle = _base_cycle(kind, size - 1) + [special]
    for sequence in (cycle, cycle[::-1]):
        for start in range(size):
            rotated = sequence[start:] + sequence[:start]
            ranks = [
                graph.rank_of(rotated[i], rotated[(i + 1) % size])
                for i in range(size)
            ]
            if all(ranks[i] < ranks[i + 1] for i in range(size - 1)):
                return tuple(rotated)
    raise CertificateError(f"construction produced no monotone cycle for {kind}")
