"""Tiling solvers against independent partition-based oracles."""

import functools
import os
import subprocess
import sys
import textwrap
import warnings
from itertools import combinations, permutations

import numpy as np
import pytest

from eotile import (
    BadDivisibility,
    BadSpec,
    BadSplit,
    BadVertex,
    CertificateError,
    DegreeBoundWarning,
    Embedding,
    Inconclusive,
    SearchBudget,
    TilerConfig,
    Tiling,
    build_graph,
    canonical_clique,
    enumerate_orderings,
    extremal_construction,
    find_embedding,
    induced_subgraph,
    local_absorbers,
    monotone_path_graph,
    perfect_tiling_exact,
    tile_dense_paths,
    tile_via_cliques,
    tiling_number,
    verify_embedding,
    verify_tiling,
)
from eotile import embed as embed_module
from eotile import tiling as tiling_module
from eotile.canonical import CanonicalType
from eotile.characterize import is_tileable, path_with_ranks
import eotile
from eotile.core import EdgeOrderedGraph, components


def brute_spanning_copy(pattern, host_ranks, block):
    """Does the block span a copy? Checked over raw permutations."""
    fedges = [(u, v) for u, v, _ in pattern.edges]
    for perm in permutations(block):
        ranks = [host_ranks.get((min(perm[u], perm[v]), max(perm[u], perm[v]))) for u, v in fedges]
        if None in ranks:
            continue
        if all(a < b for a, b in zip(ranks, ranks[1:])):
            return True
    return False


def oracle_has_perfect_tiling(host, pattern):
    """Oracle: enumerate every partition into |pattern|-blocks recursively."""
    f = pattern.n
    host_ranks = dict(host.rank)

    def recurse(remaining):
        if not remaining:
            return True
        first = min(remaining)
        rest = remaining - {first}
        for others in combinations(sorted(rest), f - 1):
            block = (first, *others)
            if brute_spanning_copy(pattern, host_ranks, block):
                if recurse(rest - set(others)):
                    return True
        return False

    return recurse(frozenset(range(host.n)))


def random_graph(rng, n, m):
    pairs = list(combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=m, replace=False)
    ranks = rng.permutation(m) + 1
    return build_graph(n, [(*pairs[int(i)], int(r)) for i, r in zip(picked, ranks)])


def random_clique_ordering(rng, n):
    pairs = list(combinations(range(n), 2))
    ranks = rng.permutation(len(pairs)) + 1
    return build_graph(n, [(u, v, int(r)) for (u, v), r in zip(pairs, ranks)])


class TestPerfectTilingExact:
    def test_min_k4_by_132(self):
        host = canonical_clique(CanonicalType.MIN, 4)
        tiling = perfect_tiling_exact(host, path_with_ranks("132"))
        assert tiling is not None
        assert tiling.pieces[0].vertex_map == (0, 2, 3, 1)

    def test_min_k6_by_triangles(self):
        host = canonical_clique(CanonicalType.MIN, 6)
        tiling = perfect_tiling_exact(host, canonical_clique(CanonicalType.MIN, 3))
        assert tiling is not None
        assert [p.vertex_map for p in tiling.pieces] == [(0, 1, 2), (3, 4, 5)]

    def test_two_odd_cliques_have_no_matching(self):
        host = extremal_construction("TwoCliques", 10, 1)
        assert perfect_tiling_exact(host, build_graph(2, [(0, 1, 1)])) is None

    def test_divisibility(self):
        with pytest.raises(BadDivisibility):
            perfect_tiling_exact(canonical_clique(CanonicalType.MIN, 5), monotone_path_graph(1))

    def test_agrees_with_partition_oracle(self):
        rng = np.random.default_rng(4242)
        checked = positive = 0
        for _ in range(100):
            f = int(rng.integers(2, 5))
            blocks = int(rng.integers(1, 3 if f > 2 else 4))
            n = f * blocks
            m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
            host = random_graph(rng, n, m)
            pf = int(rng.integers(1, f * (f - 1) // 2 + 1))
            pattern = random_graph(rng, f, pf)
            got = perfect_tiling_exact(host, pattern)
            want = oracle_has_perfect_tiling(host, pattern)
            assert (got is not None) == want, (host, pattern)
            checked += 1
            if got is not None:
                positive += 1
                assert verify_tiling(host, pattern, got)
        assert checked == 100 and positive > 10


def embeddings(*maps):
    return tuple(Embedding(vm) for vm in maps)


class TestVerifyTiling:
    """The checker rejects each kind of bad tiling on its own."""

    HOST = canonical_clique(CanonicalType.MIN, 6)
    PIECE = canonical_clique(CanonicalType.MIN, 3)

    def test_a_good_tiling_passes(self):
        pieces = embeddings((0, 1, 2), (3, 4, 5))
        assert verify_tiling(self.HOST, self.PIECE, Tiling(pieces, frozenset(range(6))))

    def test_bad_piece(self):
        # (0, 2, 1) sends the MIN triangle's ranks out of order.
        pieces = embeddings((0, 2, 1), (3, 4, 5))
        assert not verify_embedding(self.PIECE, self.HOST, pieces[0])
        assert not verify_tiling(self.HOST, self.PIECE, Tiling(pieces, frozenset(range(6))))

    def test_overlapping_pieces(self):
        # Each piece is valid and together they cover exactly ``covered``.
        pieces = embeddings((0, 1, 2), (2, 3, 4))
        assert all(verify_embedding(self.PIECE, self.HOST, emb) for emb in pieces)
        assert not verify_tiling(self.HOST, self.PIECE, Tiling(pieces, frozenset(range(5))))

    @pytest.mark.parametrize("covered", [range(5), range(7)], ids=["misses", "adds"])
    def test_covered_differs_from_the_pieces(self, covered):
        pieces = embeddings((0, 1, 2), (3, 4, 5))
        assert not verify_tiling(self.HOST, self.PIECE, Tiling(pieces, frozenset(covered)))

    def test_is_perfect_for(self):
        tiling = Tiling(embeddings((0, 1, 2), (3, 4, 5)), frozenset(range(6)))
        assert tiling.is_perfect_for(self.HOST)
        assert not tiling.is_perfect_for(canonical_clique(CanonicalType.MIN, 9))


class TestTilingNumber:
    # Tileable, yet 8 of the 30 ordering classes of K_4 do not contain it.
    STAR_AND_EDGE = EdgeOrderedGraph(4, ((0, 1), (0, 2), (0, 3), (1, 3)))

    def test_triangle(self):
        assert tiling_number(canonical_clique(CanonicalType.MIN, 3), 5) == 3

    def test_empty_piece_is_refused(self):
        with pytest.raises(BadDivisibility, match="at least one vertex"):
            tiling_number(build_graph(0, []), 5)

    def test_tileable_piece_with_no_t_up_to_t_max(self):
        assert is_tileable(self.STAR_AND_EDGE).value
        assert tiling_number(self.STAR_AND_EDGE, 4) is None

    def test_clique_over_the_class_cap_is_inconclusive(self):
        # K_8 has 28!/8! ordering classes, far over the enumeration cap.
        with pytest.raises(Inconclusive, match="^28! labelings make over 50000 classes$"):
            tiling_number(self.STAR_AND_EDGE, 8)

    def test_path_132(self):
        assert tiling_number(path_with_ranks("132"), 5) == 4

    def test_non_tileable_path(self):
        assert tiling_number(path_with_ranks("1423"), 5) is None

    def test_one_budget_bounds_every_subcall(self):
        # The tileability check of 132 takes 138 nodes and each of the 30
        # tilings of a K_4 class at most 9: each fits under 314 alone, and
        # all of them take 315.
        piece = path_with_ranks("132")
        own = SearchBudget(node_limit=314)
        assert is_tileable(piece, own).value and own.nodes == 138
        for host in enumerate_orderings(canonical_clique(CanonicalType.MIN, 4)):
            own = SearchBudget(node_limit=314)
            assert perfect_tiling_exact(host, piece, own) is not None
            assert own.nodes <= 9
        budget = SearchBudget(node_limit=315)
        assert tiling_number(piece, 4, budget) == 4
        assert budget.nodes == 315
        with pytest.raises(Inconclusive, match="node budget 314 exhausted"):
            tiling_number(piece, 4, SearchBudget(node_limit=314))

    def test_monotonicity_spot_check(self):
        # every ordering of K_6 must tile by the triangle once T=3 is known
        k3 = canonical_clique(CanonicalType.MIN, 3)
        rng = np.random.default_rng(6)
        for _ in range(1000):
            host = random_clique_ordering(rng, 6)
            tiling = perfect_tiling_exact(host, k3)
            assert tiling is not None
            assert verify_tiling(host, k3, tiling)


class TestLocalAbsorbers:
    def test_complete_host_k1_count(self):
        host = canonical_clique(CanonicalType.MIN, 9)
        absorbers = list(local_absorbers(host, 0, 1, 1))
        assert len(absorbers) == 35  # C(7,3)
        seen = {a.vertices for a in absorbers}
        assert len(seen) == 35

    def test_k2_count_matches_brute_force(self):
        host = canonical_clique(CanonicalType.MIN, 9)
        host_ranks = dict(host.rank)
        path = monotone_path_graph(2)
        others = [v for v in range(9) if v not in (0, 1)]
        expected = set()
        for chunk in combinations(others, 5):
            ok = False
            for p_x in combinations(chunk, 2):
                rest = [v for v in chunk if v not in p_x]
                for p_y in combinations(rest, 2):
                    w = next(v for v in rest if v not in p_y)
                    if (
                        brute_spanning_copy(path, host_ranks, (0, *p_x))
                        and brute_spanning_copy(path, host_ranks, (w, *p_x))
                        and brute_spanning_copy(path, host_ranks, (1, *p_y))
                        and brute_spanning_copy(path, host_ranks, (w, *p_y))
                    ):
                        ok = True
            if ok:
                expected.add(frozenset(chunk))
        got = {a.vertices for a in local_absorbers(host, 0, 1, 2)}
        assert got == expected
        assert len(got) > 0

    def test_isolated_endpoint_has_no_absorbers(self):
        host = build_graph(6, [(1, 2, 1), (2, 3, 2), (3, 4, 3), (4, 5, 4), (1, 5, 5)])
        assert list(local_absorbers(host, 0, 1, 1)) == []

    @pytest.mark.parametrize("x, y, bad", [(0, 99, 99), (99, 0, 99), (-1, 3, -1)])
    def test_endpoint_outside_the_host_is_rejected_before_any_search(self, x, y, bad):
        # A one-node budget would end the first path search in Inconclusive.
        host = canonical_clique(CanonicalType.MIN, 7)
        stream = local_absorbers(host, x, y, 1, SearchBudget(node_limit=1))
        with pytest.raises(BadVertex, match=f"^vertex {bad} not in graph with n=7$"):
            next(stream)

    def test_one_budget_bounds_the_whole_stream(self):
        host, piece = canonical_clique(CanonicalType.MIN, 9), monotone_path_graph(1)
        budget = SearchBudget(node_limit=20)
        # Every path search on two vertices of K9, each on a budget of its
        # own with the same limit, takes the same 2 nodes, far under it ...
        costs = set()
        for pair in combinations(range(9), 2):
            own = SearchBudget(node_limit=20)
            assert find_embedding(piece, host, own, within=pair) is not None
            costs.add(own.nodes)
        assert costs == {2}
        # ... but each absorber takes four searches, so the stream's 35 take
        # 280 nodes: two absorbers come out, then the one budget runs dry.
        stream = local_absorbers(host, 0, 1, 1, budget)
        assert [next(stream).w, next(stream).w] == [4, 5]
        with pytest.raises(Inconclusive, match="node budget 20 exhausted"):
            next(stream)

    def test_absorber_components_disjoint(self):
        host = canonical_clique(CanonicalType.MAX, 8)
        for absorber in local_absorbers(host, 2, 5, 1):
            assert not absorber.p_x & absorber.p_y
            assert absorber.w not in absorber.p_x | absorber.p_y
            assert {2, 5}.isdisjoint(absorber.vertices)


class TestTileDensePaths:
    def test_min_k8_k3(self):
        host = canonical_clique(CanonicalType.MIN, 8)
        tiling = tile_dense_paths(host, 3)
        assert tiling is not None
        assert verify_tiling(host, monotone_path_graph(3), tiling)
        for emb in tiling.pieces:
            ranks = [
                host.rank_of(emb.vertex_map[i], emb.vertex_map[i + 1]) for i in range(3)
            ]
            assert all(a < b for a, b in zip(ranks, ranks[1:]))

    def test_extremal_refuted(self):
        host = extremal_construction("TwoCliques", 8, 3)
        assert tile_dense_paths(host, 3) is None

    def test_any_k4_ordering_matches(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            host = random_clique_ordering(rng, 4)
            tiling = tile_dense_paths(host, 1)
            assert tiling is not None
            assert len(tiling.pieces) == 2

    def test_divisibility(self):
        with pytest.raises(BadDivisibility):
            tile_dense_paths(canonical_clique(CanonicalType.MIN, 7), 3)

    def test_matches_exact_solver_on_sparse_hosts(self):
        rng = np.random.default_rng(31)
        piece = monotone_path_graph(2)
        for _ in range(40):
            host = random_graph(rng, 6, int(rng.integers(5, 16)))
            dense = tile_dense_paths(host, 2)
            exact = perfect_tiling_exact(host, piece)
            assert (dense is None) == (exact is None)
            if dense is not None:
                assert verify_tiling(host, piece, dense)


class TestTileViaCliques:
    def test_k9_triangles(self):
        host = canonical_clique(CanonicalType.MAX, 9)
        k3 = canonical_clique(CanonicalType.MIN, 3)
        tiling = tile_via_cliques(host, k3, 3)
        assert tiling is not None
        assert len(tiling.pieces) == 3
        assert verify_tiling(host, k3, tiling)

    def test_seeded_k8_by_132(self):
        rng = np.random.default_rng(12)
        piece = path_with_ranks("132")
        for _ in range(5):
            host = random_clique_ordering(rng, 8)
            tiling = tile_via_cliques(host, piece, 4)
            assert tiling is not None
            assert verify_tiling(host, piece, tiling)

    def test_no_cliques_means_none(self):
        # two disjoint four-cycles: no K_4 anywhere, so the cover fails
        edges = [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4),
                 (4, 5, 5), (5, 6, 6), (6, 7, 7), (4, 7, 8)]
        host = build_graph(8, edges)
        with pytest.warns(DegreeBoundWarning):
            assert tile_via_cliques(host, path_with_ranks("132"), 4) is None

    def test_degree_warning_but_success(self):
        # two disjoint K_4s: below the (1-1/4)n bound yet still tileable
        a = canonical_clique(CanonicalType.MIN, 4)
        edges = list(a.edges) + [(u + 4, v + 4, r + 6) for u, v, r in a.edges]
        host = build_graph(8, edges)
        piece = path_with_ranks("132")
        with pytest.warns(DegreeBoundWarning):
            tiling = tile_via_cliques(host, piece, 4)
        assert tiling is not None
        assert verify_tiling(host, piece, tiling)

    def test_strips_inside_each_component(self):
        # A K_4 beside a K_6, single-edge pieces, T = 4: one piece comes off
        # the K_6 and each component leaves a K_4.  Stripping from the least
        # vertices of the whole host broke the K_4 and left 2 + 6.
        k4, k6 = canonical_clique(CanonicalType.MIN, 4), canonical_clique(CanonicalType.MIN, 6)
        host = build_graph(10, list(k4.edges) + [(u + 4, v + 4, r + 6) for u, v, r in k6.edges])
        piece = monotone_path_graph(1)
        assert perfect_tiling_exact(host, piece) is not None
        with pytest.warns(DegreeBoundWarning):
            tiling = tile_via_cliques(host, piece, 4)
        assert tiling is not None
        assert verify_tiling(host, piece, tiling)

    def test_strips_to_fix_divisibility(self):
        host = canonical_clique(CanonicalType.MIN, 9)
        k3 = canonical_clique(CanonicalType.MIN, 3)
        tiling = tile_via_cliques(host, k3, 6)  # 9 mod 6 = 3, strip one triangle
        assert tiling is not None
        assert verify_tiling(host, k3, tiling)

    def test_bad_divisibility(self):
        host = canonical_clique(CanonicalType.MIN, 8)
        with pytest.raises(BadDivisibility):
            tile_via_cliques(host, path_with_ranks("132"), 6)

    @pytest.mark.parametrize("t_clique", [0, -2])
    def test_clique_size_must_be_positive(self, t_clique):
        # 0 and -f are multiples of f; 0 used to reach a division by zero.
        host = canonical_clique(CanonicalType.MIN, 4)
        with pytest.raises(BadDivisibility, match="positive multiple"):
            tile_via_cliques(host, build_graph(2, [(0, 1, 1)]), t_clique)

    def test_empty_piece_is_refused(self):
        # The message of perfect_tiling_exact and tiling_number, not "0 does not divide".
        host = canonical_clique(CanonicalType.MIN, 4)
        with pytest.raises(BadDivisibility, match="^piece must have at least one vertex$"):
            tile_via_cliques(host, build_graph(0, []), 2)


class TestExtremalConstruction:
    def test_two_cliques_10_1(self):
        g = extremal_construction("TwoCliques", 10, 1)
        assert g.n == 10
        assert g.min_degree() == 4  # K_5 u K_5

    def test_two_cliques_8_3(self):
        g = extremal_construction("TwoCliques", 8, 3)
        sizes = sorted(g.degree(v) for v in range(8))
        assert sizes == [2, 2, 2, 4, 4, 4, 4, 4]  # K_3 u K_5

    def test_two_cliques_degree_bound(self):
        for n, k in ((8, 1), (12, 1), (8, 3), (12, 3), (12, 2)):
            g = extremal_construction("TwoCliques", n, k)
            assert g.min_degree() >= n // 2 - 2

    def test_two_cliques_refuted_by_exact(self):
        for n, k in ((8, 1), (8, 3), (12, 2)):
            g = extremal_construction("TwoCliques", n, k)
            assert perfect_tiling_exact(g, monotone_path_graph(k)) is None

    def test_bad_split(self):
        with pytest.raises(BadSplit):
            extremal_construction("TwoCliques", 9, 1)  # 2 does not divide 9

    @pytest.mark.parametrize("k", [-1, 0])
    def test_two_cliques_needs_a_positive_k(self, k):
        with pytest.raises(BadSplit, match=f"needs k >= 1, got {k}"):
            extremal_construction("TwoCliques", 10, k)  # k = -1 would divide by zero

    def test_bipartite(self):
        g = extremal_construction("Bipartite", 12, 2, gamma=0.25)
        degrees = sorted(set(g.degree(v) for v in range(12)))
        assert degrees == [3, 9]  # K_{3,9}
        assert perfect_tiling_exact(g, monotone_path_graph(2)) is None

    def test_bipartite_needs_gamma(self):
        with pytest.raises(BadSplit):
            extremal_construction("Bipartite", 12, 2)


class TestTilerConfig:
    def test_eta_range_enforced(self):
        with pytest.raises(BadSpec, match="eta must lie in"):
            TilerConfig(eta=0.0)
        with pytest.raises(BadSpec, match="eta must lie in"):
            TilerConfig(eta=0.5)
        assert TilerConfig(eta=0.49).eta == 0.49


def reference_tiling_pieces(host, piece):
    """The eager induce-search-lift exact solver: a witness for every vertex
    set, found in its induced subgraph and mapped back, then the sorting
    cover over all of them."""
    witnesses = {}
    for subset in combinations(range(host.n), piece.n):
        emb = find_embedding(piece, induced_subgraph(host, subset))
        if emb is not None:
            witnesses[subset] = Embedding(tuple(subset[h] for h in emb.vertex_map))
    pieces = sorting_cover(frozenset(range(host.n)), piece.n, witnesses, SearchBudget())
    return None if pieces is None else tuple(pieces)


class TestSubsetSearchEquivalence:
    @pytest.mark.parametrize("n, k", [(9, 2), (12, 3)])
    def test_exact_certificates_match_reference(self, n, k):
        rng = np.random.default_rng(100 + n)
        piece = monotone_path_graph(k)
        outcomes = set()
        for trial in range(6):
            if trial % 2:
                host = random_graph(rng, n, int(rng.integers(n, n * (n - 1) // 4)))
            else:
                host = random_clique_ordering(rng, n)
            tiling = perfect_tiling_exact(host, piece)
            expected = reference_tiling_pieces(host, piece)
            assert (None if tiling is None else tiling.pieces) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("piece", ["P4", "1432"])
    def test_k15_certificates_match_reference(self, piece):
        piece = monotone_path_graph(4) if piece == "P4" else path_with_ranks(piece)
        host = random_clique_ordering(np.random.default_rng(1515), 15)
        tiling = perfect_tiling_exact(host, piece)
        assert tiling is not None
        assert tiling.pieces == reference_tiling_pieces(host, piece)

    def test_two_cliques_negative_matches_reference(self):
        host, piece = extremal_construction("TwoCliques", 12, 3), monotone_path_graph(3)
        assert reference_tiling_pieces(host, piece) is None
        assert perfect_tiling_exact(host, piece) is None

    def test_clique_tiler_strips_match_reference(self):
        rng = np.random.default_rng(77)
        host = random_clique_ordering(rng, 18)
        piece = path_with_ranks("21")
        tiling = tile_via_cliques(host, piece, 12)  # 18 mod 12 = 6: strip two pieces
        assert verify_tiling(host, piece, tiling)
        remaining = set(range(18))
        for stripped in tiling.pieces[:2]:
            subset = sorted(remaining)
            emb = find_embedding(piece, induced_subgraph(host, subset))
            assert stripped.vertex_map == tuple(subset[h] for h in emb.vertex_map)
            remaining -= stripped.image


def disjoint_union_host(rng, sizes):
    """Random graphs on blocks of ``sizes`` vertices, no edge between
    blocks, with the vertices shuffled so the blocks interleave."""
    n = sum(sizes)
    perm = rng.permutation(n)
    pairs, start = [], 0
    for size in sizes:
        block = [int(v) for v in perm[start : start + size]]
        pairs.extend(p for p in combinations(block, 2) if rng.random() < 0.8)
        start += size
    ranks = rng.permutation(len(pairs)) + 1
    return build_graph(n, [(u, v, int(r)) for (u, v), r in zip(pairs, ranks)])


def shuffled_union(rng, graphs):
    """The disjoint union of ``graphs``, vertices shuffled and ranks
    interleaved at random, each graph keeping its own edge order."""
    n = sum(g.n for g in graphs)
    label = rng.permutation(n)
    keyed, offset = [], 0
    for g in graphs:
        for key, (u, v) in zip(np.sort(rng.random(g.m)), g.pairs_by_rank):
            keyed.append((key, int(label[u + offset]), int(label[v + offset])))
        offset += g.n
    keyed.sort()
    return build_graph(n, [(u, v, r) for r, (_, u, v) in enumerate(keyed, 1)])


def bounded_piece_searches(monkeypatch, limit):
    """Record the subset of every ``_find_piece`` call; fail past ``limit`` calls."""
    calls = []
    real = tiling_module._find_piece

    def counting(*args):
        calls.append(args[-1])
        if len(calls) > limit:
            pytest.fail(f"more than {limit} subset searches")
        return real(*args)

    monkeypatch.setattr(tiling_module, "_find_piece", counting)
    return calls


class TestComponentDivisibility:
    """A connected piece is covered one host component at a time, and is
    refuted at the root when it does not divide the size of some component;
    every other answer is the search's."""

    def test_large_two_cliques_refuted_without_search(self):
        host, piece = extremal_construction("TwoCliques", 30, 4), monotone_path_graph(4)
        # One node would not cover even the first subset search.
        assert perfect_tiling_exact(host, piece, SearchBudget(node_limit=1)) is None

    @pytest.mark.parametrize("kind", ["P2", "P3", "2K2"])
    def test_disjoint_unions_match_reference(self, kind):
        if kind == "2K2":
            piece = build_graph(4, [(0, 1, 1), (2, 3, 2)])
        else:
            piece = monotone_path_graph(int(kind[1]))
        rng = np.random.default_rng(2024 + piece.n + (kind == "P3"))
        split = tiled_split = tiled_even = 0
        for trial in range(60):
            # Cut anywhere, then only where every block is a multiple of the piece.
            unit = 1 if trial < 30 else piece.n
            blocks = int(rng.integers(2, 4))
            n = piece.n * int(rng.integers(2, 4))
            blocks = min(blocks, n // unit)
            cuts = sorted(rng.choice(range(unit, n, unit), size=blocks - 1, replace=False))
            sizes = [int(b - a) for a, b in zip([0, *cuts], [*cuts, n])]
            host = disjoint_union_host(rng, sizes)
            tiling = perfect_tiling_exact(host, piece)
            expected = reference_tiling_pieces(host, piece)
            # The same pieces in the same order as the whole-host cover's.
            assert (None if tiling is None else tiling.pieces) == expected, host
            uneven = any(len(comp) % piece.n for comp in eotile.core.components(host))
            split += uneven and expected is None
            tiled_split += uneven and expected is not None
            tiled_even += not uneven and expected is not None
        assert tiled_even >= 10
        if kind != "2K2":
            assert split >= 10 and tiled_split == 0
        else:
            # Two disjoint edges tile across components: the cut must not fire.
            assert tiled_split >= 3

    def test_disjoint_paths_take_one_search_per_piece(self, monkeypatch):
        # 250 monotone P3s: each component is one 4-set, so each piece costs
        # one subset search.  A whole-host cover hops between components and
        # backtracks across them.
        piece, count = monotone_path_graph(3), 250
        host = shuffled_union(np.random.default_rng(9), [piece] * count)
        calls = bounded_piece_searches(monkeypatch, count)
        tiling = perfect_tiling_exact(host, piece)
        assert len(tiling.pieces) == len(calls) == count

    def test_dead_small_component_is_found_first(self):
        # K_{1,3} holds no P3.  Covered first, it is refuted in a few nodes;
        # a whole-host cover backtracks through the K16's sets each time
        # its least uncovered vertex lies in the star.
        rng = np.random.default_rng(16)
        star = build_graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        host = shuffled_union(rng, [random_clique_ordering(rng, 16), star])
        budget = SearchBudget(node_limit=10)
        assert perfect_tiling_exact(host, monotone_path_graph(3), budget) is None

    def test_three_dense_components_tile(self):
        # A whole-host cover of this host runs out of the default budget.
        host = disjoint_union_host(np.random.default_rng(5), [12, 12, 8])
        assert len(eotile.core.components(host)) == 3
        tiling = perfect_tiling_exact(host, monotone_path_graph(3))
        assert tiling is not None and len(tiling.pieces) == 8


def whole_set_clique_pieces(host, piece, t_clique):
    """The clique tiler's sorted pieces, its clique cover run once over every
    vertex the strips leave, components ignored: the least uncovered vertex
    first, whichever component it lies in.  Each clique is tiled by the
    sorting cover over first maps found in induced subgraphs.  The piece is
    connected, so each component ``c`` gives ``(|c|/f) mod (T/f)`` strips."""

    def first_map(subset):
        emb = find_embedding(piece, induced_subgraph(host, subset))
        return None if emb is None else tuple(subset[h] for h in emb.vertex_map)

    @functools.cache
    def tiled_clique(clique):
        if not all(host.has_edge(a, b) for a, b in combinations(clique, 2)):
            return None
        maps = {s: first_map(s) for s in combinations(clique, piece.n)}
        witnesses = {s: m for s, m in maps.items() if m is not None}
        return sorting_cover(frozenset(clique), piece.n, witnesses, SearchBudget())

    def cover(rest):
        if not rest:
            return []
        least = min(rest)
        for others in combinations(sorted(rest - {least}), t_clique - 1):
            inner = tiled_clique((least, *others))
            if inner is not None:
                tail = cover(rest.difference(others, {least}))
                if tail is not None:
                    return inner + tail
        return None

    remaining, stripped = set(range(host.n)), []
    for comp in components(host):
        for _ in range(len(comp) // piece.n % (t_clique // piece.n)):
            found = first_map(sorted(remaining & comp))
            if found is None:
                return None
            stripped.append(found)
            remaining -= set(found)
    pieces = cover(frozenset(remaining))
    return None if pieces is None else sorted(stripped + pieces)


def three_k8s_and_a_path(rng):
    """Three K_8s and a 4-vertex path, shuffled: the path holds no 4-clique."""
    blocks = [random_clique_ordering(rng, 8) for _ in range(3)]
    return shuffled_union(rng, [*blocks, monotone_path_graph(3)])


class TestCliqueTilerComponents:
    """The clique tiler covers what its strips leave of each host component
    alone, smallest first, as the exact solver does."""

    def test_dead_path_component_is_found_first(self):
        # Covered first, the path is refuted at its one 4-set; a whole-set
        # cover backtracks through the K_8s' cliques each time its least
        # uncovered vertex lies on the path.
        host = three_k8s_and_a_path(np.random.default_rng(8))
        budget = SearchBudget(node_limit=1_000)
        with pytest.warns(DegreeBoundWarning):
            assert tile_via_cliques(host, monotone_path_graph(1), 4, budget) is None

    def test_disconnected_hosts_match_whole_set_cover(self):
        rng = np.random.default_rng(30)
        cases = [
            (monotone_path_graph(1), 4),
            (monotone_path_graph(1), 6),
            (path_with_ranks("21"), 6),
            (monotone_path_graph(3), 4),
        ]
        tiled = refuted = 0
        for trial in range(40):
            piece, t_clique = cases[trial % 4]
            sizes = [0]
            while sum(sizes) % piece.n or sum(sizes) == 0:
                sizes = rng.choice([4, 6, 8], size=int(rng.integers(2, 4))).tolist()
            blocks = [
                random_clique_ordering(rng, size)
                if rng.random() < 0.75
                else random_graph(rng, size, int(rng.integers(size, size * (size - 1) // 2)))
                for size in sizes
            ]
            host = shuffled_union(rng, blocks)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegreeBoundWarning)
                tiling = tile_via_cliques(host, piece, t_clique)
            found = None if tiling is None else sorted(emb.vertex_map for emb in tiling.pieces)
            assert found == whole_set_clique_pieces(host, piece, t_clique), (sizes, t_clique)
            tiled += found is not None
            refuted += found is None
        assert tiled >= 5 and refuted >= 5


def record_exact_calls(monkeypatch):
    """Record (host.n, budget) of every ``perfect_tiling_exact`` call the tilers make."""
    seen = []
    real = tiling_module.perfect_tiling_exact

    def recording(host, piece, budget=None):
        seen.append((host.n, budget))
        return real(host, piece, budget)

    monkeypatch.setattr(tiling_module, "perfect_tiling_exact", recording)
    return seen


class TestCertificateChecks:
    """Re-verification raises CertificateError instead of relying on assert."""

    def test_perfect_tiling_exact(self, monkeypatch):
        monkeypatch.setattr(tiling_module, "verify_tiling", lambda *args: False)
        with pytest.raises(CertificateError):
            perfect_tiling_exact(canonical_clique(CanonicalType.MIN, 6), monotone_path_graph(2))

    def test_tile_via_cliques(self, monkeypatch):
        host = canonical_clique(CanonicalType.MAX, 9)
        k3 = canonical_clique(CanonicalType.MIN, 3)
        # The check fails on the whole 9-vertex host, the one tiling it
        # sees: no clique is checked alone.
        monkeypatch.setattr(tiling_module, "verify_tiling", lambda g, p, t: g.n != 9)
        with pytest.raises(CertificateError):
            tile_via_cliques(host, k3, 3)

    def test_local_absorbers(self, monkeypatch):
        monkeypatch.setattr(tiling_module, "verify_tiling", lambda *args: False)
        with pytest.raises(CertificateError):
            next(local_absorbers(canonical_clique(CanonicalType.MIN, 7), 0, 1, 1))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: perfect_tiling_exact(
                canonical_clique(CanonicalType.MIN, 6), monotone_path_graph(2)
            ),
            lambda: tile_via_cliques(
                canonical_clique(CanonicalType.MAX, 9), canonical_clique(CanonicalType.MIN, 3), 3
            ),
            lambda: next(local_absorbers(canonical_clique(CanonicalType.MIN, 7), 0, 1, 1)),
        ],
        ids=["exact", "cliques", "absorbers"],
    )
    def test_bad_piece_is_caught(self, monkeypatch, call):
        # The piece finder checks nothing; the tiling check must reject a
        # kernel map that sends every piece vertex to one host vertex.
        def non_injective(pattern, host, budget, within):
            budget.tick()
            yield (within[0],) * pattern.n

        monkeypatch.setattr(tiling_module, "_embeddings", non_injective)
        with pytest.raises(CertificateError, match="tiling failed re-verification"):
            call()

    def test_extremal_construction_degree(self, monkeypatch):
        monkeypatch.setattr(
            tiling_module, "_interleaved_min_cliques", lambda sizes: build_graph(sum(sizes), [])
        )
        with pytest.raises(CertificateError, match="minimum degree"):
            extremal_construction("TwoCliques", 16, 3)

    def test_tile_dense_paths(self, monkeypatch):
        monkeypatch.setattr(tiling_module, "verify_tiling", lambda *args: False)
        with pytest.raises(CertificateError):
            tile_dense_paths(canonical_clique(CanonicalType.MIN, 6), 2)


def record_embedding_checks(monkeypatch):
    """Record the arguments of every ``verify_embedding`` call, in either module."""
    calls = []
    real = embed_module.verify_embedding

    def recording(*args):
        calls.append(args)
        return real(*args)

    for module in (embed_module, tiling_module):
        monkeypatch.setattr(module, "verify_embedding", recording)
    return calls


class TestOneCheckPerPiece:
    """Each returned piece is checked once, by the check of its tiling."""

    def test_exact_checks_each_piece_once(self, monkeypatch):
        # The cover backtracks here, past pieces no tiling keeps.
        host = extremal_construction("Bipartite", 12, 2, gamma=0.3)
        calls = record_embedding_checks(monkeypatch)
        tiling = perfect_tiling_exact(host, monotone_path_graph(2))
        assert len(tiling.pieces) == 4
        assert len(calls) == 4

    def test_clique_tiler_checks_each_piece_once(self, monkeypatch):
        host = canonical_clique(CanonicalType.MAX, 12)
        calls = record_embedding_checks(monkeypatch)
        tiling = tile_via_cliques(host, canonical_clique(CanonicalType.MIN, 3), 6)
        assert len(tiling.pieces) == 4
        assert len(calls) == 4

    def test_absorber_checks_its_four_paths_once(self, monkeypatch):
        host = canonical_clique(CanonicalType.MAX, 9)
        calls = record_embedding_checks(monkeypatch)
        next(local_absorbers(host, 0, 1, 1))
        assert len(calls) == 4


class TestDenseFallbackBudget:
    def test_fallback_uses_absorb_budget(self, monkeypatch):
        budget = SearchBudget(node_limit=123_456)
        seen = record_exact_calls(monkeypatch)
        host = extremal_construction("TwoCliques", 8, 3)
        assert tile_dense_paths(host, 3, TilerConfig(absorb_budget=budget)) is None
        # One exact solve of the whole host, under the configured budget.
        assert seen == [(host.n, budget)]
        assert seen[0][1] is budget

    def test_calls_given_one_config_share_its_budget(self):
        # Each tiling of MIN K8 by P3 takes 10 nodes, counted on the one budget.
        config = TilerConfig()
        host = canonical_clique(CanonicalType.MIN, 8)
        for total in (10, 20):
            assert tile_dense_paths(host, 3, config) is not None
            assert config.absorb_budget.nodes == total
        # A default config is made per call, with a budget of its own.
        assert TilerConfig().absorb_budget is not config.absorb_budget


def sorting_cover(vertices, size, witnesses, budget):
    """The exact cover over precomputed witnesses, keyed by ascending vertex
    tuples: every search node re-sorts all its ``size``-sets that hold the
    least vertex and ticks once per set it tries.  Reference for order and
    nodes."""
    if not vertices:
        return []
    pivot = min(vertices)
    for subset in sorted(tuple(sorted(s)) for s in combinations(vertices, size) if pivot in s):
        budget.tick()
        if subset in witnesses:
            rest = sorting_cover(vertices.difference(subset), size, witnesses, budget)
            if rest is not None:
                return [witnesses[subset]] + rest
    return None


class TestCover:
    def test_matches_sorting_reference_seeded(self):
        rng = np.random.default_rng(3141)
        outcomes = set()
        for _ in range(150):
            n, f = int(rng.integers(0, 4)) * 3, int(rng.choice([1, 3]))
            blocks = list(combinations(range(n), f))
            keep = rng.random(len(blocks)) < rng.uniform(0.05, 0.6)
            # Inserted in random order, so only the cover's own sort orders them.
            witnesses = {
                blocks[i]: Embedding(tuple(rng.permutation(blocks[i]).tolist()))
                for i in rng.permutation(len(blocks))
                if keep[i]
            }
            vertices = frozenset(range(n))
            expected_budget, budget = SearchBudget(), SearchBudget()
            expected = sorting_cover(vertices, f, witnesses, expected_budget)
            assert tiling_module._cover([vertices], f, witnesses.get, budget) == expected
            assert budget.nodes == expected_budget.nodes
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_part_size_does_not_divide_refutes_without_nodes(self):
        asked = []

        def witness(subset):
            asked.append(subset)
            return subset

        budget = SearchBudget()
        # Only the last part, of 3 vertices, is not covered by pairs.
        assert tiling_module._cover([range(4), (5, 9), (4, 6, 7)], 2, witness, budget) is None
        assert budget.nodes == 0 and asked == []

    def test_parts_are_covered_alone_in_order(self):
        rng = np.random.default_rng(2718)
        outcomes = set()
        for _ in range(100):
            f = int(rng.choice([1, 2, 3]))
            sizes = rng.integers(0, 4, size=int(rng.integers(1, 4))) * f
            label = rng.permutation(int(sizes.sum())).tolist()
            parts = [label[a:b] for a, b in zip([0, *np.cumsum(sizes)[:-1]], np.cumsum(sizes))]
            # Witnesses across parts too: no cover may take one.
            blocks = list(combinations(range(len(label)), f))
            keep = rng.random(len(blocks)) < rng.uniform(0.2, 0.8)
            witnesses = {block: block for block, kept in zip(blocks, keep) if kept}
            expected, expected_budget, budget = [], SearchBudget(), SearchBudget()
            for part in parts:
                covered = sorting_cover(frozenset(part), f, witnesses, expected_budget)
                if covered is None:
                    expected = None
                    break
                expected += covered
            assert tiling_module._cover(parts, f, witnesses.get, budget) == expected
            assert budget.nodes == expected_budget.nodes
            outcomes.add(expected is None)
        assert outcomes == {True, False}


EXACT_ONE_BUDGET_SCRIPT = textwrap.dedent(
    """
    from functools import partial
    from itertools import combinations
    from eotile import Inconclusive, SearchBudget, extremal_construction, find_embedding
    from eotile import monotone_path_graph, perfect_tiling_exact
    from eotile.tiling import _cover, _find_piece

    # K_{2,6} is connected, so no component argument refutes it: only the
    # search can, and a P3 takes two vertices of each side.
    host = extremal_construction("Bipartite", 8, 3, 0.25)
    piece = monotone_path_graph(3)
    budget = SearchBudget(node_limit=100)
    # Each of the 70 subset searches fits under the limit alone, on a budget
    # of its own, and so does the cover over every copy they find (50 sets
    # tried) ...
    witnesses = {}
    for subset in combinations(range(8), 4):
        emb = find_embedding(piece, host, SearchBudget(node_limit=100), within=subset)
        if emb is not None:
            witnesses[subset] = emb
    if _cover([range(8)], 4, witnesses.get, SearchBudget(node_limit=100)) is not None:
        raise SystemExit("K_{2,6} has a P3 tiling")
    # ... but the exact tiler's subset searches and cover need more together.
    total = SearchBudget()
    finder = partial(_find_piece, piece, host, total)
    if _cover([range(8)], 4, finder, total) is not None:
        raise SystemExit("K_{2,6} has a P3 tiling")
    if total.nodes <= budget.node_limit:
        raise SystemExit(f"only {total.nodes} nodes in the whole exact tiling")
    try:
        perfect_tiling_exact(host, piece, budget)
    except Inconclusive:
        print("inconclusive")
    else:
        raise SystemExit("an answer came back: each sub-search had its own budget")
    """
)

CLIQUE_ONE_BUDGET_SCRIPT = textwrap.dedent(
    """
    from functools import partial
    from eotile import Inconclusive, SearchBudget, canonical_clique
    from eotile import monotone_path_graph, tile_via_cliques
    from eotile.canonical import CanonicalType
    from eotile.tiling import _cover, _find_piece

    host, piece = canonical_clique(CanonicalType.MAX, 10), monotone_path_graph(1)
    budget = SearchBudget(node_limit=14)
    # Each sub-search fits under the limit alone, on a budget of its own:
    # the strip that fixes divisibility (10 mod 4 = 2), the cover by
    # 4-cliques (every 4-set of K10 is one) and the tiling of each clique ...
    budgets = [SearchBudget(node_limit=14)]
    strip = _find_piece(piece, host, budgets[-1], range(10))
    budgets.append(SearchBudget(node_limit=14))
    rest = frozenset(range(10)) - strip.image
    cliques = _cover([rest], 4, lambda subset: subset, budgets[-1])
    for clique in cliques:
        budgets.append(SearchBudget(node_limit=14))
        finder = partial(_find_piece, piece, host, budgets[-1])
        if _cover([clique], 2, finder, budgets[-1]) is None:
            raise SystemExit(f"clique {clique} has no tiling")
    # ... but together they need more nodes than it allows, and without any
    # one of them the rest would fit.
    sizes = [each.nodes for each in budgets]
    if len(sizes) != 4 or not sum(sizes) - min(sizes) <= budget.node_limit < sum(sizes):
        raise SystemExit(f"sub-searches of {sizes} nodes")
    try:
        tile_via_cliques(host, piece, 4, budget)
    except Inconclusive:
        print("inconclusive")
    else:
        raise SystemExit("a tiling came back: each sub-search had its own budget")
    """
)


def run_script(script, flags):
    src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env
    )


class TestOneBudget:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_exact_tiling_counts_every_subsearch(self, flags):
        proc = run_script(EXACT_ONE_BUDGET_SCRIPT, flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "inconclusive"

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
    def test_clique_tiling_counts_every_subsearch(self, flags):
        proc = run_script(CLIQUE_ONE_BUDGET_SCRIPT, flags)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "inconclusive"


def sparse_tree_host(rng, n):
    """A random spanning tree plus n/4 more edges, vertices and ranks shuffled:
    almost every small vertex set spans too few edges to hold a piece."""
    pairs = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(pairs) < n - 1 + n // 4:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        pairs.add((u, v))
    label = rng.permutation(n)
    ranks = rng.permutation(len(pairs)) + 1
    return build_graph(
        n, [(int(label[u]), int(label[v]), int(r)) for (u, v), r in zip(sorted(pairs), ranks)]
    )


class TestLimitsBoundRefusedSearches:
    """A subset search refused before its first edge, and a set the cover
    tries, each cost a node, so a limit stops a tiler that finds nothing."""

    def test_exact_tiling_counts_refused_searches(self, monkeypatch):
        # Most 4-sets here span fewer than three edges, so their P3 searches
        # refuse before placing one; each still costs a node, so a limit of
        # 10,000 nodes stops the cover within 10,000 searches.
        host = sparse_tree_host(np.random.default_rng(1), 100)
        bounded_piece_searches(monkeypatch, 10_000)
        with pytest.raises(Inconclusive, match="node budget 10000"):
            perfect_tiling_exact(host, monotone_path_graph(3), SearchBudget(node_limit=10_000))

    def test_clique_tiler_stops_at_time_limit(self):
        # The host has no 6-clique, so every set the clique cover tries is
        # refused without a search, and C(59, 5) wait at its first node.
        host = sparse_tree_host(np.random.default_rng(1), 60)
        with pytest.warns(DegreeBoundWarning), pytest.raises(Inconclusive, match="time budget"):
            tile_via_cliques(host, monotone_path_graph(2), 6, SearchBudget(time_limit=0.5))

    def test_absorber_stream_counts_refused_searches(self):
        # Counting only the searches that place an edge, the whole stream
        # takes 51,278 nodes and finds no absorber; the millions of path
        # searches it refuses at once count as well.
        host = sparse_tree_host(np.random.default_rng(1), 40)
        with pytest.raises(Inconclusive, match="node budget 100000"):
            list(local_absorbers(host, 0, 1, 2, SearchBudget(node_limit=100_000)))
