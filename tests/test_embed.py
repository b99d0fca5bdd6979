"""Embedding engine vs brute force, plus the specialized searches."""

import os
import subprocess
import sys
import textwrap
from itertools import combinations, permutations

import numpy as np
import pytest

import eotile
from eotile import (
    BadVertex,
    CertificateError,
    Embedding,
    MissingEdge,
    StarColor,
    build_graph,
    canonical_clique,
    count_copies,
    count_order_automorphisms,
    find_embedding,
    find_monotone_path,
    find_star_canonical_subclique,
    induced_subgraph,
    iter_embeddings,
    monotone_path_graph,
    monotone_star_subsequence,
    reverse,
    star_canonical_clique,
    star_edge_coloring,
    verify_embedding,
)
from eotile.canonical import ALL_STAR_TYPES, CanonicalType, StarFamily, StarType
from eotile.characterize import d_graph, is_tileable, is_turanable, monotone_cycle
from eotile.core import _pairs_within, _vertex_subset
from eotile.embed import (
    _CLOSED,
    SearchBudget,
    _edge_plan,
    _embeddings,
    _Meter,
    _special_key,
    _star_masks_by_key,
    classify_star_canonical,
)
from eotile.errors import Inconclusive


def brute_injections(pattern, host):
    """Oracle: every injective map, order checked directly on rank lists."""
    found = []
    fedges = [(u, v) for u, v, _ in pattern.edges]
    for perm in permutations(range(host.n), pattern.n):
        ranks = [host.rank_of(perm[u], perm[v]) for u, v in fedges]
        if None in ranks:
            continue
        if all(a < b for a, b in zip(ranks, ranks[1:])):
            found.append(perm)
    return found


def random_graph(rng, n, m):
    pairs = list(combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=m, replace=False)
    ranks = rng.permutation(m) + 1
    return build_graph(n, [(*pairs[int(i)], int(r)) for i, r in zip(picked, ranks)])


class TestFindEmbedding:
    def test_monotone_p2_into_invmax_k3(self):
        emb = find_embedding(monotone_path_graph(2), canonical_clique(CanonicalType.INV_MAX, 3))
        assert emb is not None
        assert emb.vertex_map == (0, 1, 2)

    def test_monotone_c4_has_no_min_embedding(self):
        assert find_embedding(monotone_cycle(4), canonical_clique(CanonicalType.MIN, 4)) is None

    def test_d4_fails_larger_dec_min(self):
        host, _ = star_canonical_clique(
            StarType(StarFamily.LARGER_DEC, CanonicalType.MIN), 4
        )
        assert find_embedding(d_graph(4), host) is None

    def test_isolated_vertices_fill_unused_hosts(self):
        pattern = build_graph(4, [(0, 1, 1)])  # edge plus two isolated vertices
        host = canonical_clique(CanonicalType.MIN, 4)
        emb = find_embedding(pattern, host)
        assert emb is not None
        assert len(set(emb.vertex_map)) == 4

    def test_pattern_larger_than_host(self):
        assert find_embedding(monotone_path_graph(3), canonical_clique(CanonicalType.MIN, 3)) is None

    def test_brute_force_equivalence_seeded(self):
        rng = np.random.default_rng(2024)
        verified = 0
        for _ in range(200):
            nf = int(rng.integers(2, 5))
            mf_max = nf * (nf - 1) // 2
            mf = int(rng.integers(1, mf_max + 1))
            nh = int(rng.integers(nf, 7))
            mh_max = nh * (nh - 1) // 2
            mh = int(rng.integers(0, mh_max + 1))
            pattern = random_graph(rng, nf, mf)
            host = random_graph(rng, nh, mh)
            oracle = brute_injections(pattern, host)
            emb = find_embedding(pattern, host)
            assert (emb is not None) == bool(oracle)
            if emb is not None:
                assert verify_embedding(pattern, host, emb)
                assert tuple(emb.vertex_map) in oracle
                verified += 1
        assert verified > 20  # the sample must exercise the positive branch


class TestCountCopies:
    def test_monotone_p2_in_min_k3(self):
        assert count_copies(monotone_path_graph(2), canonical_clique(CanonicalType.MIN, 3)) == 3

    def test_k3_in_min_k3(self):
        k3 = canonical_clique(CanonicalType.MIN, 3)
        assert count_copies(k3, k3) == 1

    def test_single_edge_in_clique(self):
        edge = build_graph(2, [(0, 1, 1)])
        for n in (3, 4, 5, 6):
            host = canonical_clique(CanonicalType.MAX, n)
            assert count_copies(edge, host) == n * (n - 1) // 2

    def test_counts_match_brute_force_seeded(self):
        rng = np.random.default_rng(77)
        for _ in range(60):
            nf = int(rng.integers(2, 5))
            mf = int(rng.integers(1, nf * (nf - 1) // 2 + 1))
            nh = int(rng.integers(nf, 7))
            mh = int(rng.integers(0, nh * (nh - 1) // 2 + 1))
            pattern = random_graph(rng, nf, mf)
            host = random_graph(rng, nh, mh)
            injections = len(brute_injections(pattern, host))
            auts = count_order_automorphisms(pattern)
            assert auts == len(brute_injections(pattern, pattern))
            assert count_copies(pattern, host) * auts == injections

    def test_iter_embeddings_all_verify(self):
        host = canonical_clique(CanonicalType.MIN, 5)
        pattern = monotone_path_graph(2)
        seen = set()
        for emb in iter_embeddings(pattern, host):
            assert verify_embedding(pattern, host, emb)
            seen.add(emb.vertex_map)
        assert len(seen) == len(brute_injections(pattern, host))

    def test_pattern_larger_than_host_has_no_copy(self):
        edge_and_isolated = build_graph(5, [(0, 1, 1)])
        assert count_copies(edge_and_isolated, build_graph(1, [])) == 0
        assert count_copies(edge_and_isolated, canonical_clique(CanonicalType.MIN, 4)) == 0
        assert count_copies(build_graph(3, []), build_graph(2, [])) == 0

    def test_counts_with_isolated_vertices_match_brute_force_seeded(self):
        # Isolated pattern vertices multiply each edge embedding by the
        # ordered ways to place them; a pattern larger than its host has none.
        rng = np.random.default_rng(1207)
        seen = {"larger": 0, "isolated": 0, "positive": 0}
        for _ in range(120):
            nf = int(rng.integers(1, 6))
            mf = int(rng.integers(0, min(nf * (nf - 1) // 2, 3) + 1))
            nh = int(rng.integers(0, 6))
            pattern = random_graph(rng, nf, mf)
            host = random_graph(rng, nh, int(rng.integers(0, nh * (nh - 1) // 2 + 1)))
            auts = count_order_automorphisms(pattern)
            assert auts == len(brute_injections(pattern, pattern))
            copies = count_copies(pattern, host)
            assert copies * auts == len(brute_injections(pattern, host)), (pattern, host)
            seen["larger"] += nf > nh
            seen["isolated"] += bool(pattern.isolated_vertices())
            seen["positive"] += copies > 0
        assert all(count >= 20 for count in seen.values()), seen


class TestPatternsStayBare:
    """Searches read a pattern's pairs only: scans keep many class graphs
    alive, so none may gain cached tables by being searched for."""

    @pytest.mark.parametrize("isolated", [False, True])
    def test_searches_cache_nothing_on_the_pattern(self, isolated):
        pattern = build_graph(5 if isolated else 3, [(0, 1, 1), (1, 2, 2)])
        host = canonical_clique(CanonicalType.MIN, 6)
        assert set(vars(pattern)) == {"n", "pairs_by_rank"}
        assert find_embedding(pattern, host) is not None
        assert find_embedding(pattern, host, within=[0, 2, 3, 4, 5]) is not None
        assert len(list(iter_embeddings(pattern, host))) > 1
        assert is_turanable(pattern).value
        assert is_tileable(pattern).value
        assert set(vars(pattern)) == {"n", "pairs_by_rank"}


class TestFindMonotonePath:
    def test_ordinary_path_in_min_k5(self):
        emb = find_monotone_path(canonical_clique(CanonicalType.MIN, 5), 4)
        assert emb is not None
        assert emb.vertex_map == (0, 1, 2, 3, 4)

    def test_two_incident_edges(self):
        star = build_graph(3, [(0, 1, 2), (0, 2, 1)])
        emb = find_monotone_path(star, 2)
        assert emb is not None
        assert verify_embedding(monotone_path_graph(2), star, emb)

    def test_disjoint_edges_have_no_two_path(self):
        g = build_graph(4, [(0, 1, 1), (2, 3, 2)])
        assert find_monotone_path(g, 2) is None

    def test_reversed_path_is_monotone_in_reverse(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            host = random_graph(rng, 8, 16)
            emb = find_monotone_path(host, 3)
            if emb is None:
                continue
            flipped = Embedding(tuple(reversed(emb.vertex_map)))
            assert verify_embedding(monotone_path_graph(3), reverse(host), flipped)

    def test_budget_bounds_the_search(self):
        # A path exists, and finding it takes more than one node.
        host = canonical_clique(CanonicalType.MIN, 5)
        assert find_monotone_path(host, 4) is not None
        with pytest.raises(Inconclusive):
            find_monotone_path(host, 4, SearchBudget(node_limit=1))

    def test_rodl_density_sample(self):
        # Above the k(k+1)n/2 edge threshold a path always exists.
        rng = np.random.default_rng(11)
        for _ in range(20):
            host = random_graph(rng, 10, 30)
            emb = find_monotone_path(host, 2)
            assert emb is not None
            assert verify_embedding(monotone_path_graph(2), host, emb)


class TestMonotoneStarSubsequence:
    def test_small_example(self):
        h = build_graph(4, [(3, 0, 5), (3, 1, 1), (3, 2, 3)])
        assert monotone_star_subsequence(h, 3) == (1, 2)

    def test_all_increasing(self):
        h = build_graph(5, [(4, i, i + 1) for i in range(4)])
        assert monotone_star_subsequence(h, 4) == (0, 1, 2, 3)

    def test_isolated_center(self):
        h = build_graph(3, [(0, 1, 1)])
        assert monotone_star_subsequence(h, 2) == ()

    def test_erdos_szekeres_bound_random(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            ranks = rng.permutation(16) + 1
            h = build_graph(17, [(16, i, int(r)) for i, r in enumerate(ranks)])
            seq = monotone_star_subsequence(h, 16)
            assert len(seq) >= 4  # ceil(sqrt(16))
            got = [h.rank_of(16, v) for v in seq]
            assert all(a < b for a, b in zip(got, got[1:])) or all(
                a > b for a, b in zip(got, got[1:])
            )

    def test_matches_dp_oracle(self):
        def oracle_best(ranks):
            best = 1
            d = len(ranks)
            for direction in (1, -1):
                lis = [1] * d
                for i in range(d):
                    for j in range(i):
                        if (ranks[i] - ranks[j]) * direction > 0:
                            lis[i] = max(lis[i], lis[j] + 1)
                best = max(best, max(lis))
            return best

        rng = np.random.default_rng(9)
        for _ in range(40):
            d = int(rng.integers(1, 12))
            ranks = list(rng.permutation(d) + 1)
            h = build_graph(d + 1, [(d, i, int(r)) for i, r in enumerate(ranks)])
            assert len(monotone_star_subsequence(h, d)) == oracle_best(ranks)


class TestStarEdgeColoring:
    def test_larger_dec_all_big(self):
        g, x = star_canonical_clique(StarType(StarFamily.LARGER_DEC, CanonicalType.MIN), 5)
        for vi, vj in combinations(range(4), 2):
            assert star_edge_coloring(g, x, (vi, vj)) is StarColor.B

    def test_middle_inc_first_pair_mixed(self):
        g, x = star_canonical_clique(StarType(StarFamily.MIDDLE_INC, CanonicalType.MIN), 5)
        assert star_edge_coloring(g, x, (0, 1)) is StarColor.M
        assert g.rank_of(x, 0) < g.rank_of(0, 1) < g.rank_of(x, 1)

    def test_smaller_inc_all_small(self):
        g, x = star_canonical_clique(StarType(StarFamily.SMALLER_INC, CanonicalType.MIN), 5)
        for vi, vj in combinations(range(4), 2):
            assert star_edge_coloring(g, x, (vi, vj)) is StarColor.S

    def test_missing_edge(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, 2)])
        with pytest.raises(MissingEdge):
            star_edge_coloring(g, 0, (1, 2))

    def test_distinct_vertices_required(self):
        g = canonical_clique(CanonicalType.MIN, 3)
        with pytest.raises(BadVertex):
            star_edge_coloring(g, 0, (0, 1))


class TestStarSubcliqueSearch:
    def test_hereditary_host_always_finds(self):
        host, x = star_canonical_clique(StarType(StarFamily.LARGER_INC, CanonicalType.MAX), 6)
        result = find_star_canonical_subclique(host, x, 5)
        assert result is not None
        kind, emb = result
        assert kind == StarType(StarFamily.LARGER_INC, CanonicalType.MAX)
        assert x in emb.image

    def test_small_f_type_may_coincide(self):
        # At f=4 the canonical part is K_3, whose orderings all coincide, so
        # the reported type only has to be witnessed by the classifier.
        host, x = star_canonical_clique(StarType(StarFamily.LARGER_INC, CanonicalType.MAX), 6)
        result = find_star_canonical_subclique(host, x, 4)
        assert result is not None
        kind, emb = result
        induced = induced_subgraph(host, sorted(emb.image))
        position = sorted(emb.image).index(x)
        assert any(
            k == kind and s == position for k, s, _ in classify_star_canonical(induced)
        )

    def test_min_clique_center_is_smaller_inc(self):
        host = canonical_clique(CanonicalType.MIN, 6)
        result = find_star_canonical_subclique(host, 0, 5)
        assert result is not None
        kind, emb = result
        assert kind == StarType(StarFamily.SMALLER_INC, CanonicalType.MIN)
        assert emb.vertex_map == (1, 2, 3, 4, 0)

    def test_type_index_keeps_every_type_in_check_order(self):
        for f in range(3, 9):
            index = _star_masks_by_key(f)
            # middle-inc's four parts each have their own key; larger and smaller one each
            assert len(index) == (3 if f == 3 else 6)
            # Bit i is ALL_STAR_TYPES[i], and every type is in exactly one group.
            for i, kind in enumerate(ALL_STAR_TYPES):
                generated, special = star_canonical_clique(kind, f)
                key = _special_key(generated.pairs_by_rank, special)
                assert [k for k, mask in index.items() if mask >> i & 1] == [key]
            assert sum(index.values()) == (1 << len(ALL_STAR_TYPES)) - 1

    def test_matching_counts_against_the_request_budget(self):
        # The first subset matches.  Its four prefix nodes, the failed
        # matches of the four smaller-dec types and the 11-node match of
        # smaller-inc.min take 40 nodes in all; a meter per match would
        # never need more than 11.
        host = canonical_clique(CanonicalType.MIN, 6)
        assert find_star_canonical_subclique(host, 0, 5, SearchBudget(node_limit=40)) is not None
        with pytest.raises(Inconclusive):
            find_star_canonical_subclique(host, 0, 5, SearchBudget(node_limit=39))

    def test_prefix_cut_refutes_a_random_k20_in_few_nodes(self):
        # Trying every 7-subset through x costs at least C(19,6) = 27,132
        # nodes; growing prefixes and cutting them by key takes 1,639 here.
        # Matching a surviving subset also against the types a smaller
        # prefix ruled out would take 1,969.
        host = random_graph(np.random.default_rng(0), 20, 190)
        assert find_star_canonical_subclique(host, 0, 7, SearchBudget(node_limit=2_000)) is None
        assert find_star_canonical_subclique(host, 0, 7, SearchBudget(node_limit=1_700)) is None

    @pytest.mark.parametrize("f", range(4, 10))
    def test_every_subset_through_the_special_vertex_keeps_the_type(self, f):
        # What the prefix cut rests on: in a star-canonical K_f, each vertex
        # set Q through the special vertex with |Q| >= 3 has, at size |Q|,
        # the special-vertex key of the same type.
        for kind in ALL_STAR_TYPES:
            generated, special = star_canonical_clique(kind, f)
            others = [v for v in range(f) if v != special]
            for size in range(2, f):
                for rest in combinations(others, size):
                    subset = sorted((special, *rest))
                    key = _special_key(_pairs_within(generated, subset), special)
                    mask = _star_masks_by_key(len(subset)).get(key, 0)
                    assert mask >> ALL_STAR_TYPES.index(kind) & 1, (kind, subset)

    def test_adversarial_labels_pinned_by_classifier(self):
        from eotile.canonical import canonical_labels

        lab = canonical_labels(CanonicalType.MIN, 4)
        edges = [(u, v, r * 10) for (u, v), r in lab.items()]
        edges += [(0, 4, 95), (1, 4, 85), (2, 4, 105), (3, 4, 275)]
        host = build_graph(5, edges)
        result = find_star_canonical_subclique(host, 4, 4)
        assert result is not None
        kind, emb = result
        subset = sorted(emb.image)
        induced = induced_subgraph(host, subset)
        assert any(
            k == kind and s == subset.index(4)
            for k, s, _ in classify_star_canonical(induced)
        )


def induce_search_lift(search, host, within):
    """Reference path for subset searches: build the induced subgraph, search
    it, and map the answer back to host coordinates."""
    subset = sorted(set(within))
    found = search(induced_subgraph(host, subset))
    if found is None:
        return None
    return Embedding(tuple(subset[h] for h in found.vertex_map))


def random_subset(rng, n):
    size = int(rng.integers(0, n + 1))
    return [int(v) for v in rng.choice(n, size=size, replace=False)]


class TestSearchWithin:
    def test_find_embedding_matches_reference_seeded(self):
        rng = np.random.default_rng(2305)
        seen = {"none": 0, "found": 0, "isolated": 0, "sparse": 0, "small_subset": 0}
        for _ in range(400):
            host_n = int(rng.integers(2, 9))
            host = random_graph(rng, host_n, int(rng.integers(0, host_n * (host_n - 1) // 2 + 1)))
            p_n = int(rng.integers(2, 5))
            pattern = random_graph(rng, p_n, int(rng.integers(0, p_n * (p_n - 1) // 2 + 1)))
            within = random_subset(rng, host_n)
            expected = induce_search_lift(lambda sub: find_embedding(pattern, sub), host, within)
            assert find_embedding(pattern, host, within=within) == expected
            seen["none" if expected is None else "found"] += 1
            seen["isolated"] += bool(pattern.isolated_vertices()) and expected is not None
            seen["sparse"] += not host.is_complete()
            seen["small_subset"] += len(within) < pattern.n
        assert all(count >= 10 for count in seen.values()), seen

    def test_find_monotone_path_matches_reference_seeded(self):
        rng = np.random.default_rng(7294)
        outcomes = set()
        for _ in range(300):
            host_n = int(rng.integers(2, 10))
            host = random_graph(rng, host_n, int(rng.integers(0, host_n * (host_n - 1) // 2 + 1)))
            k = int(rng.integers(1, 5))
            within = random_subset(rng, host_n)
            expected = induce_search_lift(lambda sub: find_monotone_path(sub, k), host, within)
            assert find_monotone_path(host, k, within=within) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_isolated_vertices_fill_smallest_unused_subset_vertices(self):
        pattern = build_graph(4, [(2, 3, 1)])
        host = canonical_clique(CanonicalType.MIN, 8)
        emb = find_embedding(pattern, host, within={6, 1, 4, 7})
        # The least subset edge is 1-4; the isolated 0 and 1 take 6 and 7.
        assert emb.vertex_map == (6, 7, 1, 4)

    def test_subset_smaller_than_pattern(self):
        host = canonical_clique(CanonicalType.MIN, 6)
        assert find_embedding(monotone_path_graph(3), host, within=[0, 2, 5]) is None
        assert find_monotone_path(host, 3, within=[0, 2, 5]) is None
        assert find_embedding(build_graph(1, []), host, within=[]) is None

    def test_within_accepts_any_iterable(self):
        host = canonical_clique(CanonicalType.INV_MAX, 7)
        piece = monotone_path_graph(2)
        expected = find_embedding(piece, host, within=[1, 3, 4, 6])
        assert find_embedding(piece, host, within=iter([6, 4, 3, 1, 3])) == expected
        assert find_monotone_path(host, 2, within=frozenset({1, 3, 4, 6})) is not None

    def test_within_rejects_foreign_vertices(self):
        host = canonical_clique(CanonicalType.MIN, 4)
        with pytest.raises(BadVertex):
            find_embedding(monotone_path_graph(1), host, within=[0, 4])
        with pytest.raises(BadVertex):
            find_monotone_path(host, 1, within=[-1, 0, 1])


def recursive_oracle(pattern, host, meter, within=None):
    """The recursive rank-chain search that ``_embeddings`` replaced: one
    generator per search node, one per candidate list, and the subset's
    pairs and incidence rebuilt by an O(m) scan on every call.  Kept as the
    reference for yield order, total maps and node counts."""
    if within is None:
        hpairs = host.pairs_by_rank
        rank = host.rank
        vertices = range(host.n)
    else:
        inside = set(within)
        hpairs = [p for p in host.pairs_by_rank if p[0] in inside and p[1] in inside]
        rank = {pair: i + 1 for i, pair in enumerate(hpairs)}
        vertices = within
    if pattern.n > len(vertices) or pattern.m > len(hpairs):
        return
    fpairs = pattern.pairs_by_rank
    mf, mh = len(fpairs), len(hpairs)
    incidence = [[] for _ in range(host.n)]
    for idx, (u, v) in enumerate(hpairs):
        incidence[u].append(idx)
        incidence[v].append(idx)
    fmap, used = {}, set()

    def complete():
        spare = iter(v for v in vertices if v not in used)
        return tuple(fmap[v] if v in fmap else next(spare) for v in range(pattern.n))

    def candidates(i, floor):
        a, b = fpairs[i]
        ceiling = mh - (mf - i - 1)
        if a in fmap and b in fmap:
            x, y = fmap[a], fmap[b]
            r = rank.get((x, y) if x < y else (y, x))
            if r is not None and floor <= r - 1 < ceiling:
                yield r - 1
            return
        if a in fmap or b in fmap:
            anchor = fmap[a] if a in fmap else fmap[b]
            yield from (idx for idx in incidence[anchor] if floor <= idx < ceiling)
            return
        yield from range(floor, ceiling)

    def place(i, floor):
        meter.tick()
        if i == mf:
            yield complete()
            return
        a, b = fpairs[i]
        for idx in candidates(i, floor):
            c, d = hpairs[idx]
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
                    yield from place(i + 1, idx + 1)
                for src in added:
                    used.discard(fmap.pop(src))

    yield from place(0, 0)


def kernel_trace(kernel, pattern, host, within, node_limit):
    """Everything a kernel yields, in order, then how it stopped and its node count."""
    meter = _Meter(SearchBudget(node_limit=node_limit))
    out = []
    try:
        for vertex_map in kernel(pattern, host, meter, within):
            out.append(vertex_map)
        out.append("exhausted")
    except Inconclusive:
        out.append("inconclusive")
    return out, meter.nodes


class TestIterativeKernel:
    def test_matches_recursive_oracle_seeded(self):
        rng = np.random.default_rng(4412)
        seen = dict.fromkeys(
            ("isolated", "no_edges", "whole", "empty", "proper", "closed_in_subset", "yields",
             "inconclusive"),
            0,
        )
        for _ in range(700):
            p_n = int(rng.integers(0, 6))
            pattern = random_graph(rng, p_n, int(rng.integers(0, min(p_n * (p_n - 1) // 2, 5) + 1)))
            host_n = int(rng.integers(0, 10))
            host = random_graph(rng, host_n, int(rng.integers(0, host_n * (host_n - 1) // 2 + 1)))
            draw = int(rng.integers(0, 3))
            within = (
                None if draw == 0 else [] if draw == 1 else sorted(random_subset(rng, host_n))
            )
            node_limit = int(rng.choice([1, 3, 8, 30, 10**6]))
            expected = kernel_trace(recursive_oracle, pattern, host, within, node_limit)
            got = kernel_trace(_embeddings, pattern, host, within, node_limit)
            assert got == expected, (pattern, host, within, node_limit)
            seen["isolated"] += bool(pattern.isolated_vertices()) and pattern.m > 0
            seen["no_edges"] += pattern.m == 0
            seen["whole" if within is None else "empty" if not within else "proper"] += 1
            # Only closed edges (a triangle's third edge, say) look up subset ranks.
            seen["closed_in_subset"] += bool(within) and any(
                kind == _CLOSED for _, _, kind in _edge_plan(pattern)
            )
            seen["yields"] += len(expected[0]) > 1
            seen["inconclusive"] += expected[0][-1] == "inconclusive"
        assert all(count >= 20 for count in seen.values()), seen

    def test_dense_hosts_match_recursive_oracle(self):
        # Deep searches with many backtracks: paths and 2K2+edge patterns into K8.
        rng = np.random.default_rng(5150)
        for _ in range(40):
            host = random_graph(rng, 8, 28)
            pattern = random_graph(rng, 5, int(rng.integers(3, 7)))
            within = None if rng.integers(0, 2) else sorted(random_subset(rng, 8))
            expected = kernel_trace(recursive_oracle, pattern, host, within, 10**6)
            assert kernel_trace(_embeddings, pattern, host, within, 10**6) == expected

    def test_pairs_within_lookup_and_scan_agree(self):
        rng = np.random.default_rng(808)
        branches = set()
        for _ in range(200):
            n = int(rng.integers(0, 12))
            host = random_graph(rng, n, int(rng.integers(0, n * (n - 1) // 2 + 1)))
            subset = _vertex_subset(host, random_subset(rng, n))
            inside = set(subset)
            expected = [p for p in host.pairs_by_rank if p[0] in inside and p[1] in inside]
            assert _pairs_within(host, subset) == expected
            branches.add(3 * len(subset) * (len(subset) - 1) // 2 < host.m)  # lookups?
        assert branches == {True, False}

    def test_host_incidence_is_cached(self):
        host = canonical_clique(CanonicalType.MIN, 5)
        assert host.incidence is host.incidence
        assert host.incidence[0] == [0, 1, 2, 3]
        assert host.incidence[4] == [3, 6, 8, 9]


class TestCertificateChecks:
    """Re-verification raises CertificateError instead of relying on assert."""

    def test_find_embedding(self, monkeypatch):
        monkeypatch.setattr("eotile.embed.verify_embedding", lambda *args: False)
        host = canonical_clique(CanonicalType.MIN, 5)
        with pytest.raises(CertificateError):
            find_embedding(monotone_path_graph(2), host)
        with pytest.raises(CertificateError):
            find_embedding(monotone_path_graph(2), host, within=[0, 2, 4])

    def test_find_monotone_path(self, monkeypatch):
        monkeypatch.setattr("eotile.embed.verify_embedding", lambda *args: False)
        with pytest.raises(CertificateError):
            find_monotone_path(canonical_clique(CanonicalType.MIN, 5), 3, within=range(5))

    def test_count_copies_divisibility(self, monkeypatch):
        # A single edge has 6 injections into K3; 4 does not divide them.
        monkeypatch.setattr("eotile.embed.count_order_automorphisms", lambda pattern: 4)
        with pytest.raises(CertificateError, match="not divisible"):
            count_copies(monotone_path_graph(1), canonical_clique(CanonicalType.MIN, 3))

    def test_find_star_canonical_subclique(self, monkeypatch):
        monkeypatch.setattr("eotile.embed.verify_embedding", lambda *args: False)
        host = canonical_clique(CanonicalType.MIN, 6)
        with pytest.raises(CertificateError):
            find_star_canonical_subclique(host, 0, 5)

    def test_image_outside_subset_is_rejected(self, monkeypatch):
        from eotile import embed

        real = embed._embeddings

        def escaping(pattern, host, meter, within=None):
            yield from real(pattern, host, meter, None)

        monkeypatch.setattr(embed, "_embeddings", escaping)
        host = canonical_clique(CanonicalType.MIN, 5)
        with pytest.raises(CertificateError):
            find_embedding(monotone_path_graph(1), host, within=[3, 4])

    def test_checks_survive_optimized_mode(self):
        script = textwrap.dedent(
            """
            import eotile.embed as e, eotile.tiling as t
            from eotile import CertificateError, canonical_clique, monotone_path_graph
            from eotile.canonical import CanonicalType

            assert False  # stripped under -O
            host = canonical_clique(CanonicalType.MIN, 6)
            t.verify_tiling = lambda *args: False
            try:
                t.perfect_tiling_exact(host, monotone_path_graph(2))
            except CertificateError:
                pass
            else:
                raise SystemExit("tiling check vanished")
            e.verify_embedding = lambda *args: False
            try:
                e.find_embedding(monotone_path_graph(2), host, within=[1, 2, 3])
            except CertificateError:
                pass
            else:
                raise SystemExit("embedding check vanished")
            try:
                e.find_star_canonical_subclique(host, 0, 5)
            except CertificateError:
                print("checked")
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "checked"
