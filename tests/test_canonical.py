"""Canonical and star-canonical generators, recognizers, and cycles."""

from itertools import combinations, permutations

import numpy as np
import pytest

from eotile import (
    BadSize,
    BadVertex,
    CertificateError,
    Embedding,
    NotComplete,
    are_order_isomorphic,
    build_graph,
    find_embedding,
    find_star_canonical_subclique,
    induced_subgraph,
    order_isomorphisms,
)
from eotile.canonical import (
    ALL_STAR_TYPES,
    CANONICAL_ORDER,
    CanonicalType,
    StarFamily,
    StarType,
    canonical_clique,
    canonical_labels,
    monotone_hamilton_cycle,
    star_canonical_clique,
    star_labels,
)
from eotile import canonical
from eotile.embed import classify_star_canonical


def expected_label(kind, n, i, j):
    """Independent restatement of the four standard labelings."""
    return {
        CanonicalType.MIN: 2 * n * i + j - 1,
        CanonicalType.MAX: (2 * n - 1) * j + i,
        CanonicalType.INV_MIN: (2 * n + 1) * i - j,
        CanonicalType.INV_MAX: 2 * n * j - i + n,
    }[kind]


class TestCanonicalClique:
    @pytest.mark.parametrize("kind", CANONICAL_ORDER)
    @pytest.mark.parametrize("n", range(3, 9))
    def test_labels_match_formulas(self, kind, n):
        labels = canonical_labels(kind, n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert labels[(i - 1, j - 1)] == expected_label(kind, n, i, j)

    def test_min4_label_values(self):
        got = sorted(canonical_labels(CanonicalType.MIN, 4).values())
        assert got == [9, 10, 11, 18, 19, 27]

    def test_invmin3_order(self):
        g = canonical_clique(CanonicalType.INV_MIN, 3)
        assert g.pairs_by_rank == ((0, 2), (0, 1), (1, 2))
        assert sorted(canonical_labels(CanonicalType.INV_MIN, 3).values()) == [4, 5, 11]

    def test_invmax3_order(self):
        g = canonical_clique(CanonicalType.INV_MAX, 3)
        assert g.pairs_by_rank == ((0, 1), (1, 2), (0, 2))
        assert sorted(canonical_labels(CanonicalType.INV_MAX, 3).values()) == [14, 19, 20]

    def test_too_small(self):
        with pytest.raises(BadSize):
            canonical_clique(CanonicalType.MIN, 1)

    @pytest.mark.parametrize("kind", CANONICAL_ORDER)
    def test_hereditary_every_subset(self, kind):
        for n in range(3, 8):
            big = canonical_clique(kind, n)
            for size in range(2, n):
                for subset in combinations(range(n), size):
                    small = canonical_clique(kind, size)
                    assert are_order_isomorphic(
                        induced_subgraph(big, subset), small
                    ), (kind, n, subset)


class TestStarCanonicalClique:
    def test_middle_inc_min_interleaving(self):
        kind = StarType(StarFamily.MIDDLE_INC, CanonicalType.MIN)
        labels, x = star_labels(kind, 5)
        assert x == 4
        x_labels = sorted(r for (u, v), r in labels.items() if v == x)
        assert x_labels == [8, 16, 24, 32]
        clique_labels = sorted(r for (u, v), r in labels.items() if v != x)
        assert clique_labels == [9, 10, 11, 18, 19, 27]
        graph, _ = star_canonical_clique(kind, 5)
        n = 4
        # v_{i-1}v_n < xv_i < v_iv_{i+1} for interior i
        for i in range(2, n):
            assert graph.rank_of(i - 2, n - 1) < graph.rank_of(x, i - 1)
            assert graph.rank_of(x, i - 1) < graph.rank_of(i - 1, i)

    def test_smaller_inc_min_is_min_ordering(self):
        kind = StarType(StarFamily.SMALLER_INC, CanonicalType.MIN)
        graph, x = star_canonical_clique(kind, 5)
        cert = are_order_isomorphic(graph, canonical_clique(CanonicalType.MIN, 5))
        assert cert is not None
        assert cert.vertex_map[x] == 0  # the special vertex plays v_1

    def test_larger_dec_min_top_edges(self):
        kind = StarType(StarFamily.LARGER_DEC, CanonicalType.MIN)
        graph, x = star_canonical_clique(kind, 5)
        clique_max = max(
            r for (u, v), r in graph.rank.items() if x not in (u, v)
        )
        x_ranks = {v: graph.rank_of(x, v) for v in range(4)}
        assert all(r > clique_max for r in x_ranks.values())
        assert x_ranks[0] > x_ranks[1] > x_ranks[2] > x_ranks[3]

    def test_too_small(self):
        with pytest.raises(BadSize):
            star_canonical_clique(ALL_STAR_TYPES[0], 2)

    @pytest.mark.parametrize("kind", ALL_STAR_TYPES)
    def test_label_distinctness_up_to_64(self, kind):
        for size in (5, 9, 17, 33, 65):
            labels, _ = star_labels(kind, size)
            values = list(labels.values())
            assert len(set(values)) == len(values), (kind, size)

    @pytest.mark.parametrize("kind", ALL_STAR_TYPES)
    def test_hereditary_star_subsets(self, kind):
        for size in range(4, 8):
            big, x = star_canonical_clique(kind, size)
            others = [v for v in range(size) if v != x]
            for keep in range(2, size - 1):
                for subset in combinations(others, keep):
                    vertices = tuple(sorted((*subset, x)))
                    induced = induced_subgraph(big, vertices)
                    small, small_x = star_canonical_clique(kind, keep + 1)
                    cert = are_order_isomorphic(small, induced)
                    assert cert is not None, (kind, size, vertices)
                    # the special vertex must correspond across the iso
                    assert cert.vertex_map[small_x] == vertices.index(x)


class TestMiddleRemarkChains:
    """The in-between inequalities for middle increasing orderings."""

    @pytest.mark.parametrize("n", range(4, 11))
    def test_min_part(self, n):
        g, x = star_canonical_clique(
            StarType(StarFamily.MIDDLE_INC, CanonicalType.MIN), n + 1
        )
        for i in range(2, n):
            assert g.rank_of(i - 2, n - 1) < g.rank_of(x, i - 1) < g.rank_of(i - 1, i)
        assert g.rank_of(x, 0) < g.rank_of(0, 1)
        assert g.rank_of(n - 2, n - 1) < g.rank_of(x, n - 1)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_max_part(self, n):
        g, x = star_canonical_clique(
            StarType(StarFamily.MIDDLE_INC, CanonicalType.MAX), n + 1
        )
        for i in range(2, n):
            assert g.rank_of(i - 2, i - 1) < g.rank_of(x, i - 1) < g.rank_of(0, i)
        assert g.rank_of(x, 0) < g.rank_of(0, 1)
        assert g.rank_of(n - 2, n - 1) < g.rank_of(x, n - 1)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_inv_min_part(self, n):
        g, x = star_canonical_clique(
            StarType(StarFamily.MIDDLE_INC, CanonicalType.INV_MIN), n + 1
        )
        for i in range(1, n - 1):
            assert g.rank_of(i - 1, i) < g.rank_of(x, i - 1) < g.rank_of(i, n - 1)
        assert (
            g.rank_of(n - 2, n - 1)
            < g.rank_of(x, n - 2)
            < g.rank_of(x, n - 1)
        )

    @pytest.mark.parametrize("n", range(4, 11))
    def test_inv_max_part(self, n):
        g, x = star_canonical_clique(
            StarType(StarFamily.MIDDLE_INC, CanonicalType.INV_MAX), n + 1
        )
        for i in range(3, n + 1):
            assert g.rank_of(0, i - 2) < g.rank_of(x, i - 1) < g.rank_of(i - 2, i - 1)
        assert g.rank_of(x, 0) < g.rank_of(x, 1) < g.rank_of(0, 1)


class TestClassify:
    def test_requires_complete(self):
        with pytest.raises(NotComplete):
            classify_star_canonical(build_graph(3, [(0, 1, 1)]))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_canonical_identifications(self, n):
        expected = {
            CanonicalType.MIN: (StarType(StarFamily.SMALLER_INC, CanonicalType.MIN), 0),
            CanonicalType.MAX: (StarType(StarFamily.LARGER_INC, CanonicalType.MAX), n - 1),
            CanonicalType.INV_MIN: (
                StarType(StarFamily.SMALLER_DEC, CanonicalType.INV_MIN),
                0,
            ),
            CanonicalType.INV_MAX: (
                StarType(StarFamily.LARGER_DEC, CanonicalType.INV_MAX),
                n - 1,
            ),
        }
        for kind, (star, special) in expected.items():
            found = classify_star_canonical(canonical_clique(kind, n))
            assert any(k == star and s == special for k, s, _ in found), (kind, n)

    @pytest.mark.parametrize("kind", ALL_STAR_TYPES)
    def test_generator_round_trip(self, kind):
        for size in (5, 6):
            graph, x = star_canonical_clique(kind, size)
            found = classify_star_canonical(graph)
            assert any(k == kind and s == x for k, s, _ in found), (kind, size)

    def test_generic_ordering_is_not_star_canonical(self):
        # Oracle cross-check: an adversarial K_5 ordering matching no type.
        g = build_graph(
            5,
            [
                (0, 1, 1), (2, 3, 2), (0, 4, 3), (1, 2, 4), (3, 4, 5),
                (0, 2, 6), (1, 4, 7), (0, 3, 8), (2, 4, 9), (1, 3, 10),
            ],
        )
        assert classify_star_canonical(g) == set()


class TestMonotoneHamiltonCycle:
    @pytest.mark.parametrize("kind", ALL_STAR_TYPES)
    @pytest.mark.parametrize("size", (5, 7, 9, 11))
    def test_spanning_and_increasing(self, kind, size):
        cycle = monotone_hamilton_cycle(kind, size)
        graph, _ = star_canonical_clique(kind, size)
        assert sorted(cycle) == list(range(size))
        ranks = [
            graph.rank_of(cycle[i], cycle[(i + 1) % size]) for i in range(size)
        ]
        assert all(r is not None for r in ranks)
        assert all(a < b for a, b in zip(ranks, ranks[1:]))

    def test_known_traversals(self):
        assert monotone_hamilton_cycle(
            StarType(StarFamily.LARGER_DEC, CanonicalType.MIN), 5
        ) == (0, 1, 2, 3, 4)
        assert monotone_hamilton_cycle(
            StarType(StarFamily.SMALLER_INC, CanonicalType.MIN), 5
        ) == (1, 4, 2, 0, 3)
        assert monotone_hamilton_cycle(
            StarType(StarFamily.MIDDLE_INC, CanonicalType.INV_MAX), 5
        ) == (0, 4, 1, 2, 3)

    def test_even_size_rejected(self):
        with pytest.raises(BadSize):
            monotone_hamilton_cycle(ALL_STAR_TYPES[0], 6)

    def test_failed_construction_raises(self, monkeypatch):
        # 0-2-3-1 plus the special vertex is monotone in no rotation or direction.
        monkeypatch.setattr(canonical, "_base_cycle", lambda kind, size: [0, 2, 3, 1])
        with pytest.raises(CertificateError, match="no monotone cycle"):
            monotone_hamilton_cycle(ALL_STAR_TYPES[0], 5)


def edge_isomorphisms_oracle(fpairs, spairs):
    """The recursive forced matcher that the embedding kernel replaced:
    the rank-i pair of one graph can only map to the rank-i pair of the
    other, so only endpoint orientations branch.  Kept as the reference
    for the maps and their order."""
    if len(fpairs) != len(spairs):
        return
    m = len(fpairs)

    def extend(i, fmap, used):
        if i == m:
            yield dict(fmap)
            return
        a, b = fpairs[i]
        c, d = spairs[i]
        for x, y in ((c, d), (d, c)):
            if fmap.get(a, x) != x or fmap.get(b, y) != y:
                continue
            added, ok = [], True
            for src, dst in ((a, x), (b, y)):
                if src not in fmap:
                    if dst in used:
                        ok = False
                        break
                    fmap[src] = dst
                    used.add(dst)
                    added.append(src)
            if ok:
                yield from extend(i + 1, fmap, used)
            for src in added:
                used.discard(fmap.pop(src))

    yield from extend(0, {}, set())


def order_isomorphisms_oracle(first, second):
    """Every full order-isomorphism, in the reference order: edge maps as
    the oracle yields them, isolated vertices permuted over the leftovers."""
    if first.n != second.n or first.m != second.m:
        return
    for fmap in edge_isomorphisms_oracle(first.pairs_by_rank, second.pairs_by_rank):
        free_src = [v for v in range(first.n) if v not in fmap]
        free_dst = [v for v in range(second.n) if v not in fmap.values()]
        for assignment in permutations(free_dst):
            full = {**fmap, **dict(zip(free_src, assignment))}
            yield tuple(full[v] for v in range(first.n))


def reference_star_match(graph, vertices, special, kind):
    """The induce-then-compare path: the oracle's first order-isomorphism
    from the generated star-canonical clique onto the induced subgraph that
    maps the special vertex to ``special``, mapped back."""
    subset = sorted(vertices)
    induced = induced_subgraph(graph, subset)
    generated, gen_special = star_canonical_clique(kind, len(subset))
    for cert in order_isomorphisms_oracle(generated, induced):
        if cert[gen_special] == subset.index(special):
            return tuple(subset[cert[v]] for v in range(len(subset) - 1))
    return None


def random_graph(rng, n, m):
    pairs = list(combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=m, replace=False)
    ranks = rng.permutation(m) + 1
    return build_graph(n, [(*pairs[int(i)], int(r)) for i, r in zip(picked, ranks)])


def random_clique_ordering(rng, n):
    pairs = list(combinations(range(n), 2))
    ranks = rng.permutation(len(pairs)) + 1
    return build_graph(n, [(u, v, int(r)) for (u, v), r in zip(pairs, ranks)])


def relabeled(rng, graph):
    """``graph`` under a random vertex permutation: order-isomorphic to it."""
    perm = [int(v) for v in rng.permutation(graph.n)]
    return build_graph(graph.n, [(perm[u], perm[v], r) for u, v, r in graph.edges])


class TestOrderIsomorphismsMatchOracle:
    def test_same_maps_in_the_same_order_seeded(self):
        rng = np.random.default_rng(7207)
        seen = dict.fromkeys(("no_edges", "isolated", "isomorphic", "several", "not"), 0)
        for _ in range(1500):
            n = int(rng.integers(0, 8))
            first = random_graph(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
            if rng.integers(0, 2):
                second = relabeled(rng, first)
            else:
                second = random_graph(rng, n, first.m)
            expected = list(order_isomorphisms_oracle(first, second))
            assert list(order_isomorphisms(first, second)) == expected, (first, second)
            least = Embedding(min(expected)) if expected else None
            assert are_order_isomorphic(first, second) == least
            seen["no_edges"] += first.m == 0
            seen["isolated"] += bool(first.isolated_vertices()) and first.m > 0
            seen["isomorphic"] += bool(expected)
            seen["several"] += len(expected) > 1 and first.m > 0
            seen["not"] += not expected
        assert all(count >= 50 for count in seen.values()), seen

    def test_size_mismatch_yields_nothing(self):
        path = build_graph(3, [(0, 1, 1), (1, 2, 2)])
        assert list(order_isomorphisms(path, build_graph(4, [(0, 1, 1), (1, 2, 2)]))) == []
        assert list(order_isomorphisms(path, build_graph(3, [(0, 1, 1)]))) == []
        assert are_order_isomorphic(path, build_graph(3, [(0, 1, 1)])) is None


def reference_classification(graph):
    """:func:`classify_star_canonical` restated on the oracle."""
    found = set()
    for kind in ALL_STAR_TYPES:
        generated, gen_special = star_canonical_clique(kind, graph.n)
        for cert in order_isomorphisms_oracle(generated, graph):
            found.add((kind, cert[gen_special], cert[: graph.n - 1]))
    return found


def reference_subclique(host, x, f):
    """Lexicographically first f-subset through ``x``, first type in check
    order, first oracle match: what :func:`find_star_canonical_subclique`
    must return."""
    for rest in combinations([v for v in range(host.n) if v != x], f - 1):
        for kind in ALL_STAR_TYPES:
            order = reference_star_match(host, (x, *rest), x, kind)
            if order is not None:
                return kind, (*order, x)
    return None


def kernel_subclique(host, x, f):
    """The search as the embedding kernel made it: subsets through ``x`` in
    ``combinations`` order, types in check order, and the first embedding of
    the generated clique inside the subset, kept if its special vertex lands
    on ``x``."""
    for rest in combinations([v for v in range(host.n) if v != x], f - 1):
        subset = sorted((x, *rest))
        for kind in ALL_STAR_TYPES:
            generated, special = star_canonical_clique(kind, f)
            emb = find_embedding(generated, host, within=subset)
            if emb is not None and emb.vertex_map[special] == x:
                return kind, emb.vertex_map
    return None


def planted_clique_ordering(rng, n, kind, f):
    """A random ordering of K_n in which vertex 0 and f-1 random others
    induce the generated star-canonical K_f of ``kind``, 0 special: the
    planted pairs trade their ranks among themselves."""
    host = random_clique_ordering(rng, n)
    generated, special = star_canonical_clique(kind, f)
    place = [int(v) for v in rng.choice(range(1, n), size=f - 1, replace=False)]
    place.insert(special, 0)
    planted = [tuple(sorted((place[a], place[b]))) for a, b in generated.pairs_by_rank]
    ranks = dict(host.rank)
    ranks.update(zip(planted, sorted(ranks[pair] for pair in planted)))
    return build_graph(n, [(u, v, r) for (u, v), r in ranks.items()])


@pytest.mark.parametrize("f", range(3, 8))
def test_classification_matches_every_type_on_generated_cliques(f):
    # Matching each vertex only against its key's types loses nothing: the
    # generated cliques, relabeled, are classified exactly as when every
    # vertex is tried against all twenty types.
    rng = np.random.default_rng(f)
    graphs = [star_canonical_clique(kind, f)[0] for kind in ALL_STAR_TYPES]
    graphs += [canonical_clique(kind, f) for kind in CanonicalType]
    graphs = [relabeled(rng, g) for g in graphs]
    graphs += [random_clique_ordering(rng, f) for _ in range(20)]
    for graph in graphs:
        assert classify_star_canonical(graph) == reference_classification(graph)


K9_HOSTS = {
    "random": lambda: random_clique_ordering(np.random.default_rng(9), 9),
    "star": lambda: star_canonical_clique(
        StarType(StarFamily.MIDDLE_INC, CanonicalType.INV_MIN), 9
    )[0],
}


class TestStarSubcliqueMatches:
    @pytest.mark.parametrize("host_kind", ["random", "star"])
    def test_matches_reference_on_every_6_subset_of_k9(self, host_kind):
        host = K9_HOSTS[host_kind]()
        hits = 0
        for subset in combinations(range(9), 6):
            induced = induced_subgraph(host, subset)
            expected = reference_classification(induced)
            assert classify_star_canonical(induced) == expected, subset
            hits += bool(expected)
        # This random K9 has no star-canonical 6-subset; the star-canonical
        # host has many, since the property is hereditary.
        assert hits > 0 or host_kind == "random"

    @pytest.mark.parametrize("host_kind", ["random", "star"])
    def test_search_matches_lexicographic_reference(self, host_kind):
        host = K9_HOSTS[host_kind]()
        outcomes = set()
        for x in range(9):
            for f in range(3, 8):
                expected = reference_subclique(host, x, f)
                got = find_star_canonical_subclique(host, x, f)
                if got is not None:
                    got = got[0], got[1].vertex_map
                assert got == expected, (x, f)
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("kind", ALL_STAR_TYPES[::3], ids=str)
    def test_search_matches_reference_on_planted_hosts(self, kind):
        # A relabeled star-canonical K8 has hits through its special vertex
        # at every f and mostly misses through the others, so both the
        # prefix cut and the first surviving subset are checked.
        rng = np.random.default_rng(ALL_STAR_TYPES.index(kind))
        generated, special = star_canonical_clique(kind, 8)
        perm = [int(v) for v in rng.permutation(8)]
        host = build_graph(8, [(perm[u], perm[v], r) for u, v, r in generated.edges])
        others = [v for v in range(8) if v != perm[special]]
        outcomes = set()
        for x in (perm[special], *rng.choice(others, size=3, replace=False)):
            for f in range(3, 8):
                expected = reference_subclique(host, int(x), f)
                got = find_star_canonical_subclique(host, int(x), f)
                if got is not None:
                    got = got[0], got[1].vertex_map
                assert got == expected, (x, f)
                outcomes.add(expected is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_k12_matches_both_references(self, seed):
        # The benchmark's searches: x = 0, f = 6 on random K12 orderings.
        host = random_clique_ordering(np.random.default_rng(seed), 12)
        got = find_star_canonical_subclique(host, 0, 6)
        if got is not None:
            got = got[0], got[1].vertex_map
        assert got == reference_subclique(host, 0, 6) == kernel_subclique(host, 0, 6)

    @pytest.mark.parametrize("kind", ALL_STAR_TYPES, ids=str)
    def test_planted_k12_matches_both_references(self, kind):
        rng = np.random.default_rng(100 + ALL_STAR_TYPES.index(kind))
        host = planted_clique_ordering(rng, 12, kind, 6)
        got = find_star_canonical_subclique(host, 0, 6)
        assert got is not None
        got = got[0], got[1].vertex_map
        assert got == reference_subclique(host, 0, 6) == kernel_subclique(host, 0, 6)

    def test_non_clique_subset_never_matches(self):
        host = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 2, 4), (1, 3, 5)])
        with pytest.raises(NotComplete):
            classify_star_canonical(host)
        with pytest.raises(NotComplete):
            find_star_canonical_subclique(host, 0, 4)

    def test_rejects_foreign_vertices(self):
        host = canonical_clique(CanonicalType.MIN, 4)
        for x in (4, -1, 1.5, True):  # True == 1, but a flag is not a vertex
            with pytest.raises(BadVertex):
                find_star_canonical_subclique(host, x, 3)


class TestMemoizedCliques:
    @pytest.mark.parametrize("kind", ALL_STAR_TYPES)
    def test_star_clique_is_shared(self, kind):
        assert star_canonical_clique(kind, 6) is star_canonical_clique(kind, 6)

    @pytest.mark.parametrize("kind", CANONICAL_ORDER)
    def test_canonical_clique_is_shared(self, kind):
        assert canonical_clique(kind, 5) is canonical_clique(kind, 5)
