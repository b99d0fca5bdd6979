"""Edge-ordered graphs: the data model and its brute-force oracle substrate.

An edge-ordered graph is a graph whose edges carry a total order, stored
here as the tuple of its vertex pairs in that order: rank ``i`` is
position ``i-1``.  Everything downstream (canonical orderings,
embeddings, tilings) is built on that one stored form, produced by
:func:`build_graph`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, pairwise, permutations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BadVertex, CertificateError, DuplicateEdge, Inconclusive, RankCollision

Pair = tuple[int, int]

# Caps the m!/|Aut| ordering classes of a shape (every shape on 5 vertices
# passes, K5 with 30,240) and the C(f,2)!/f! classes of the K_f level of a
# necessity scan (f = 5 passes).
DEFAULT_MAX_LABELINGS = 50_000

# Exact chromatic number search is exponential; refuse silly instances.
DEFAULT_MAX_COLOR_VERTICES = 24

# Largest n of a graph the command line reads, generates or samples: a draw
# or clique lists all C(n,2) pairs, about 5*10^5 at this cap, before any search.
MAX_HOST_VERTICES = 1_000


@dataclass(frozen=True)
class EdgeOrderedGraph:
    """Vertices ``0..n-1`` plus distinct pairs ``(u, v)``, ``u < v``, ascending by rank.

    The pair at position ``i-1`` has rank ``i``, so ranks are exactly
    ``1..m``; only the order of the edges is stored.  Instances are
    immutable, and two labelings that induce the same edge order compare
    equal.  Build them with :func:`build_graph`, which checks the pairs.
    """

    n: int
    pairs_by_rank: tuple[Pair, ...]

    @property
    def m(self) -> int:
        return len(self.pairs_by_rank)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """``(u, v, rank)`` triples ascending by rank, as documents list them."""
        return tuple((u, v, r) for r, (u, v) in enumerate(self.pairs_by_rank, 1))

    @cached_property
    def rank(self) -> dict[Pair, int]:
        # Keyed by the stored pair tuples, so no pair is allocated twice.
        return {pair: i + 1 for i, pair in enumerate(self.pairs_by_rank)}

    @cached_property
    def incidence(self) -> dict[int, list[int]]:
        return _incidence(range(self.n), self.pairs_by_rank)

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.pairs_by_rank:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.rank

    def rank_of(self, u: int, v: int) -> Optional[int]:
        if u > v:
            u, v = v, u
        return self.rank.get((u, v))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(self.degree(v) for v in range(self.n))

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.adjacency[v])

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ",".join(f"{u}-{v}#{r}" for r, (u, v) in enumerate(self.pairs_by_rank, 1))
        return f"EdgeOrderedGraph(n={self.n}, [{body}])"


def build_graph(n: int, ranked_edges: Sequence[tuple[int, int, int]]) -> EdgeOrderedGraph:
    """Validate ``(u, v, label)`` triples and store their pairs in label order.

    Labels may be arbitrary distinct integers; only their relative order
    matters, so they are dropped once the pairs are sorted by them.
    """
    if n < 0:
        raise BadVertex(f"vertex count must be nonnegative, got {n}")
    seen_pairs: set[Pair] = set()
    seen_ranks: set[int] = set()
    triples: list[tuple[int, int, int]] = []
    for u, v, label in ranked_edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise BadVertex(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise BadVertex(f"loop at vertex {u} is not allowed")
        if u > v:
            u, v = v, u
        if (u, v) in seen_pairs:
            raise DuplicateEdge(f"edge ({u},{v}) given twice")
        if label in seen_ranks:
            raise RankCollision(f"label {label} used twice")
        seen_pairs.add((u, v))
        seen_ranks.add(label)
        triples.append((u, v, label))
    triples.sort(key=lambda t: t[2])
    return EdgeOrderedGraph(n, tuple((u, v) for u, v, _ in triples))


def reverse(graph: EdgeOrderedGraph) -> EdgeOrderedGraph:
    """Reverse the total order: the rank-``r`` edge gets rank ``m+1-r``."""
    return EdgeOrderedGraph(graph.n, graph.pairs_by_rank[::-1])


def _check_vertex(graph: EdgeOrderedGraph, v: object) -> None:
    """BadVertex unless ``v`` is an int vertex of ``graph``: a bool, a float
    and a negative index are not vertices."""
    if type(v) is not int or not 0 <= v < graph.n:
        raise BadVertex(f"vertex {v!r} not in graph")


def _vertex_subset(graph: EdgeOrderedGraph, vertices) -> list[int]:
    """``vertices`` deduplicated and ascending; BadVertex if one is not in ``graph``."""
    subset = sorted(set(vertices))
    for v in subset:
        if not (0 <= v < graph.n):
            raise BadVertex(f"vertex {v} not in graph with n={graph.n}")
    return subset


def _pairs_within(graph: EdgeOrderedGraph, subset: Sequence[int]) -> list[Pair]:
    """The pairs of ``graph`` with both ends in ``subset``, ascending by rank.

    ``subset`` is ascending, as from :func:`_vertex_subset`.  These are the
    induced subgraph's edges in host coordinates; since
    :func:`induced_subgraph` relabels monotonically, searches over them
    visit host pairs in the same order as searches over the subgraph.

    Small subsets look up their C(|S|,2) possible pairs and sort the ranks
    found; others scan all m pairs.  A lookup costs about three scanned
    pairs (measured on n=15 and n=16 hosts), hence the switch point.
    """
    if 3 * len(subset) * (len(subset) - 1) // 2 < graph.m:
        pairs = graph.pairs_by_rank
        ranks = sorted(filter(None, map(graph.rank.get, combinations(subset, 2))))
        return [pairs[r - 1] for r in ranks]
    inside = set(subset)
    return [p for p in graph.pairs_by_rank if p[0] in inside and p[1] in inside]


def _incidence(vertices: Iterable[int], pairs: Sequence[Pair]) -> dict[int, list[int]]:
    """For each of ``vertices``, the ascending indices into ``pairs`` of its pairs.

    Every pair must have both ends among ``vertices``.
    """
    incidence: dict[int, list[int]] = {v: [] for v in vertices}
    for idx, (u, v) in enumerate(pairs):
        incidence[u].append(idx)
        incidence[v].append(idx)
    return incidence


def induced_subgraph(graph: EdgeOrderedGraph, vertices) -> EdgeOrderedGraph:
    """Induced subgraph on ``vertices``, relabeled ``0..|S|-1`` in vertex order."""
    subset = _vertex_subset(graph, vertices)
    index = {v: i for i, v in enumerate(subset)}
    pairs = _pairs_within(graph, subset)
    return EdgeOrderedGraph(len(subset), tuple((index[u], index[v]) for u, v in pairs))


def components(graph: EdgeOrderedGraph) -> list[set[int]]:
    """The vertex sets of the connected components, by least vertex."""
    seen: set[int] = set()
    comps: list[set[int]] = []
    for start in range(graph.n):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in graph.adjacency[v]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(comp)
    return comps


# A least sequence's step state: each vertex's label (-1 while unseen), the
# open ends' mates and the number of labels given.
LeastState = tuple[list[int], dict[int, int], int]


def _label_edge(
    labels: list[int], mates: dict[int, int], k: int, a: int, b: int
) -> tuple[Pair, int]:
    """Label edge ``(a, b)`` in place; returns its least relabeled pair and the new label count.

    A least sequence gives labels out in order of first appearance, so the
    next fresh label is ``k``.  An edge with two fresh ends gives them
    ``k`` and ``k + 1`` and leaves its orientation open: ``mates`` pairs
    each open end with the other.  The first later edge at either end
    fixes it, and that end takes the lower label, since the other choice
    makes a larger pair whatever the edge's other end holds.  So every
    edge has one least pair, and one labeling serves the whole sequence.
    """
    if labels[a] < 0 and labels[b] < 0:
        labels[a], labels[b] = k, k + 1
        mates[a], mates[b] = b, a
        return (k, k + 1), k + 2
    for end in (a, b):
        mate = mates.pop(end, None)
        if mate is not None:
            del mates[mate]
            if labels[end] > labels[mate]:
                labels[end], labels[mate] = labels[mate], labels[end]
        elif labels[end] < 0:
            labels[end] = k
            k += 1
    x, y = labels[a], labels[b]
    return ((x, y) if x < y else (y, x)), k


def _least_step(state: LeastState, a: int, b: int) -> tuple[Pair, LeastState]:
    """:func:`_label_edge` on a copy of ``state``: the least pair of edge
    ``(a, b)`` and the state after it.  ``state`` is never mutated, so one
    state serves every extension of its prefix."""
    labels, mates, k = state
    if a in mates or b in mates or labels[a] < 0 and labels[b] < 0:
        mates = mates.copy()  # the step opens or closes ends; else it shares them
    labels = labels.copy()
    pair, k = _label_edge(labels, mates, k, a, b)
    return pair, (labels, mates, k)


def _least_state(n: int, pairs: Sequence[Pair]) -> tuple[tuple[Pair, ...], LeastState]:
    """Fold :func:`_label_edge` over ``pairs`` in place from the empty labeling.

    Returns the least sequence and the state it leaves, from which any
    further edge costs one :func:`_least_step`.  No step copies the state,
    so a k-edge sequence costs O(k + n).
    """
    labels, mates, k = [-1] * n, {}, 0
    seq = []
    for a, b in pairs:
        pair, k = _label_edge(labels, mates, k, a, b)
        seq.append(pair)
    return tuple(seq), (labels, mates, k)


def canonical_form(graph: EdgeOrderedGraph) -> EdgeOrderedGraph:
    """The canonical representative of the order-isomorphism class.

    Its rank order is the lexicographically least relabeled edge sequence
    over all vertex bijections (:func:`_least_state`), so two graphs are
    order-isomorphic iff their canonical forms are equal, and forms on one
    ``n`` sort by their ``pairs_by_rank`` tuples.
    """
    return EdgeOrderedGraph(graph.n, _least_state(graph.n, graph.pairs_by_rank)[0])


def _edge_automorphisms(shape: EdgeOrderedGraph, limit: int) -> tuple[tuple[int, ...], ...]:
    """Aut(shape) as permutations of the indices of ``sorted(shape.pairs_by_rank)``.

    Vertex automorphisms of the non-isolated vertices are found by
    backtracking, pruned by degree and by adjacency to the vertices already
    mapped.  The lower end of an isolated edge only maps to a lower end;
    then distinct vertex maps induce distinct edge permutations, so each
    element is found once (the orbit count of :func:`enumerate_orderings`
    checks this).  :class:`Inconclusive` past ``limit`` elements.
    Sorted, so the identity comes first.
    """
    pairs = sorted(shape.pairs_by_rank)
    index = {pair: i for i, pair in enumerate(pairs)}
    adj = shape.adjacency
    verts = [v for v in range(shape.n) if adj[v]]
    low = {  # the lower end of each isolated edge
        v for v in verts if len(adj[v]) == 1 and all(u > v and len(adj[u]) == 1 for u in adj[v])
    }
    image: dict[int, int] = {}
    found: list[tuple[int, ...]] = []

    def extend(k: int) -> None:
        if k == len(verts):
            found.append(
                tuple(index[(min(image[u], image[v]), max(image[u], image[v]))] for u, v in pairs)
            )
            if len(found) > limit:
                raise Inconclusive(f"Aut(shape) has more than {limit} elements")
            return
        v = verts[k]
        taken = set(image.values())
        for w in verts:
            if w in taken or len(adj[w]) != len(adj[v]) or (w in low) != (v in low):
                continue
            if any((u in adj[v]) != (image[u] in adj[w]) for u in verts[:k]):
                continue
            image[v] = w
            extend(k + 1)
            del image[v]

    extend(0)
    return tuple(sorted(found))


def enumerate_orderings(
    shape: EdgeOrderedGraph, max_labelings: int = DEFAULT_MAX_LABELINGS
) -> Iterator[EdgeOrderedGraph]:
    """One representative per order-isomorphism class of orderings of ``shape``.

    The ranks of ``shape`` are ignored.  Two orderings of one shape are
    order-isomorphic exactly when an automorphism of the shape maps one to
    the other, so the classes are the orbits of Aut(shape), acting on the
    edges, on the ``m!`` rank assignments; every orbit has ``|Aut|``
    members.  Yields canonical forms, ascending by their least sequences
    as tuples.

    One depth-first walk lists the lexicographically least edge order of
    each orbit: the ``k``-th edge is admissible iff no automorphism fixing
    the first ``k-1`` edges one by one maps it to a smaller index, which
    holds at every position exactly for the least order of each orbit.
    The walk carries the :func:`_least_step` state down with it: a least
    sequence's prefix is the least sequence of that prefix, so each tree
    node costs one step.  Once the stabilizer is trivial, every
    non-isolated vertex has a label and every open end lies on an isolated
    edge, whose pair either orientation gives, the suffix is rigid: each
    unused edge has a fixed image, every order of them is admissible, and
    each order closes one class.  The walk then relabels the unused edges
    once and lists the prefix followed by each permutation of their
    sorted images, with no further step: 7,979 steps
    for the 21,637 classes of the 19 connected five-vertex shapes of up to
    eight edges, against 58,889 at one step per tree node.  The prefix and
    the unused edges are one stack each, pushed and popped in place, and
    equal pairs are one object, so the sort compares two classes by
    identity up to their first difference; the classes are listed in walk
    order, whose runs already ascend.  The orbit count then compares
    neighbours in the sorted list: no class may be listed twice, and
    classes times automorphisms must make ``m!``.

    The cap counts what is visited: more than ``max_labelings`` classes
    (``m!/|Aut|``), or automorphisms, raise :class:`Inconclusive` before
    any class is listed.  ``|Aut|`` is at most ``k!`` for ``k`` non-isolated
    vertices, so a shape with ``m!/k!`` over the cap (K_6 and up) raises
    before the automorphisms are searched.  Classes times automorphisms
    make ``m!``, so both caps hold only if ``m! <= max_labelings**2``; the
    search recurses once per vertex, and ``k`` vertices need ``k/2`` edges,
    so a shape too wide for that bound (a long path) raises before it too.
    """
    m, n = shape.m, shape.n
    used = n - len(shape.isolated_vertices())
    total = math.factorial(m)
    if total > max_labelings * math.factorial(used):
        raise Inconclusive(f"{m}! labelings make over {max_labelings} classes")
    if math.factorial((used + 1) // 2) > max_labelings**2:
        raise Inconclusive(f"{used} vertices make over {max_labelings} classes or automorphisms")
    group = _edge_automorphisms(shape, max_labelings)
    if total // len(group) > max_labelings:
        raise Inconclusive(
            f"{m}!/{len(group)} = {total // len(group)} classes exceed budget {max_labelings}"
        )
    pairs = sorted(shape.pairs_by_rank)
    classes: list[tuple[Pair, ...]] = []
    interned: dict[Pair, Pair] = {}
    seq: list[Pair] = []
    remaining = list(range(m))

    def extend(state: LeastState, stabilizer: Sequence[tuple[int, ...]]) -> None:
        labels, mates, k = state
        trivial = len(stabilizer) == 1
        if trivial and k == used and all(len(shape.adjacency[v]) == 1 for v in mates):
            # A rigid suffix: every edge left has a fixed image, and every
            # order of them is admissible, so each one closes a class.
            rest = []
            for e in remaining:
                a, b = pairs[e]
                x, y = labels[a], labels[b]
                pair = (x, y) if x < y else (y, x)
                rest.append(interned.setdefault(pair, pair))
            rest.sort()
            prefix = tuple(seq)
            classes.extend([prefix + tail for tail in permutations(rest)])
            return
        if not remaining:
            classes.append(tuple(seq))
            return
        for i in range(len(remaining)):
            e = remaining[i]
            if trivial or all(g[e] >= e for g in stabilizer):
                pair, after = _least_step(state, *pairs[e])
                seq.append(interned.setdefault(pair, pair))
                del remaining[i]
                fixing = stabilizer if trivial else [g for g in stabilizer if g[e] == e]
                extend(after, fixing)
                remaining.insert(i, e)
                seq.pop()

    extend(_least_state(n, ())[1], group)
    classes.sort()
    distinct = 1 + sum(a != b for a, b in pairwise(classes))
    if distinct * len(group) != total:
        raise CertificateError(
            f"{distinct} classes x {len(group)} automorphisms != {m}! labelings"
        )
    if distinct != len(classes):
        raise CertificateError(f"{len(classes) - distinct} classes listed twice")
    for least in classes:
        yield EdgeOrderedGraph(n, least)


def chromatic_number(graph: EdgeOrderedGraph) -> int:
    """Exact chromatic number of the underlying graph (small n only)."""
    n = graph.n
    if n > DEFAULT_MAX_COLOR_VERTICES:
        raise Inconclusive(f"exact coloring capped at {DEFAULT_MAX_COLOR_VERTICES} vertices")
    if n == 0:
        return 0
    if graph.m == 0:
        return 1
    adj = graph.adjacency
    order = sorted(range(n), key=lambda v: -len(adj[v]))

    # Greedy clique on the degree-sorted order gives a lower bound.
    clique: list[int] = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    lower = len(clique)

    def colorable(k: int) -> bool:
        colors: dict[int, int] = {}

        def assign(idx: int, used: int) -> bool:
            if idx == n:
                return True
            v = order[idx]
            limit = min(used + 1, k)
            for c in range(limit):
                if all(colors.get(u) != c for u in adj[v]):
                    colors[v] = c
                    if assign(idx + 1, max(used, c + 1)):
                        return True
                    del colors[v]
            return False

        return assign(0, 0)

    for k in range(lower, n + 1):
        if colorable(k):
            return k
    return n
