"""Core graph model: normalization, reversal, isomorphism, enumeration."""

import copy
import dataclasses
import inspect
import math
import random
import time
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eotile import core
from eotile import (
    BadVertex,
    CertificateError,
    DuplicateEdge,
    EdgeOrderedGraph,
    Inconclusive,
    RankCollision,
    are_order_isomorphic,
    build_graph,
    canonical_form,
    chromatic_number,
    enumerate_orderings,
    induced_subgraph,
    reverse,
)
from eotile.canonical import CanonicalType, canonical_clique, canonical_labels
from eotile.characterize import d_graph, path_with_ranks


def brute_isomorphism(first, second):
    """Oracle: try every vertex bijection, check edges and order by hand."""
    if first.n != second.n or first.m != second.m:
        return None
    fedges = [(u, v) for u, v, _ in first.edges]
    for perm in permutations(range(second.n)):
        ranks = [second.rank_of(perm[u], perm[v]) for u, v in fedges]
        if None in ranks:
            continue
        if all(a < b for a, b in zip(ranks, ranks[1:])):
            return perm
    return None


@st.composite
def small_graphs(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        if pairs
        else st.just([])
    )
    labels = draw(
        st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=len(chosen),
            max_size=len(chosen),
            unique=True,
        )
    )
    return build_graph(n, [(u, v, r) for (u, v), r in zip(chosen, labels)])


class TestBuildGraph:
    def test_rank_compression_preserves_order(self):
        g = build_graph(4, [(0, 1, 1), (1, 2, 5), (2, 3, 9)])
        assert g.edges == ((0, 1, 1), (1, 2, 2), (2, 3, 3))

    def test_same_order_same_graph(self):
        sparse = build_graph(3, [(0, 1, 9), (0, 2, 10), (1, 2, 18)])
        assert are_order_isomorphic(sparse, canonical_clique(CanonicalType.MIN, 3))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdge):
            build_graph(2, [(0, 1, 1), (0, 1, 2)])
        with pytest.raises(DuplicateEdge):
            build_graph(2, [(0, 1, 1), (1, 0, 2)])

    def test_rank_collision_rejected(self):
        with pytest.raises(RankCollision):
            build_graph(3, [(0, 1, 7), (1, 2, 7)])

    def test_bad_vertex_rejected(self):
        with pytest.raises(BadVertex):
            build_graph(2, [(0, 2, 1)])
        with pytest.raises(BadVertex):
            build_graph(2, [(1, 1, 1)])

    @settings(deadline=None, max_examples=60)
    @given(small_graphs())
    def test_normalization_idempotent(self, g):
        assert g.edges == tuple((u, v, i + 1) for i, (u, v) in enumerate(g.pairs_by_rank))
        assert build_graph(g.n, g.edges) == g


class TestStoredForm:
    def test_only_n_and_the_pairs_are_stored(self):
        assert [f.name for f in dataclasses.fields(EdgeOrderedGraph)] == ["n", "pairs_by_rank"]


class TestReverse:
    def test_monotone_path_self_reverse(self):
        p = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        assert are_order_isomorphic(p, reverse(p)) is not None

    def test_min_reverses_to_max(self):
        mn = canonical_clique(CanonicalType.MIN, 5)
        mx = canonical_clique(CanonicalType.MAX, 5)
        assert are_order_isomorphic(reverse(mn), mx) is not None

    def test_single_edge_fixed(self):
        e = build_graph(2, [(0, 1, 1)])
        assert reverse(e) == e

    @settings(deadline=None, max_examples=60)
    @given(small_graphs())
    def test_involution(self, g):
        assert reverse(g).pairs_by_rank == g.pairs_by_rank[::-1]
        assert reverse(reverse(g)) == g


class TestInducedSubgraph:
    def test_hereditary_min(self):
        k5 = canonical_clique(CanonicalType.MIN, 5)
        sub = induced_subgraph(k5, {1, 2, 4})
        assert are_order_isomorphic(sub, canonical_clique(CanonicalType.MIN, 3))

    def test_identity(self):
        g = d_graph(4)
        assert induced_subgraph(g, range(4)) == g

    def test_empty(self):
        g = d_graph(4)
        assert induced_subgraph(g, set()) == build_graph(0, [])

    def test_outside_vertex(self):
        with pytest.raises(BadVertex):
            induced_subgraph(d_graph(4), {0, 7})

    @settings(deadline=None, max_examples=60)
    @given(small_graphs(max_n=7), st.randoms(use_true_random=False))
    def test_matches_relabeled_triples(self, g, rnd):
        subset = sorted(rnd.sample(range(g.n), rnd.randint(0, g.n)))
        index = {v: i for i, v in enumerate(subset)}
        kept = [(index[u], index[v], r) for u, v, r in g.edges if u in index and v in index]
        assert induced_subgraph(g, subset) == build_graph(len(subset), kept)


class TestOrderIsomorphism:
    def test_reversed_rank_path(self):
        p = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        q = build_graph(4, [(0, 1, 3), (1, 2, 2), (2, 3, 1)])
        cert = are_order_isomorphic(p, q)
        assert cert is not None
        assert cert.vertex_map == (3, 2, 1, 0)

    def test_132_not_213(self):
        assert are_order_isomorphic(path_with_ranks("132"), path_with_ranks("213")) is None

    def test_a_map_that_fails_its_check_raises(self, monkeypatch):
        monkeypatch.setattr("eotile.embed.verify_embedding", lambda *args: False)
        p = path_with_ranks("132")
        with pytest.raises(CertificateError):
            are_order_isomorphic(p, p)

    def test_k3_single_class(self):
        mn = canonical_clique(CanonicalType.MIN, 3)
        other = build_graph(3, [(0, 1, 3), (0, 2, 1), (1, 2, 2)])
        assert are_order_isomorphic(mn, other) is not None

    @settings(deadline=None, max_examples=60)
    @given(small_graphs(), small_graphs())
    def test_agrees_with_brute_force(self, a, b):
        fast = are_order_isomorphic(a, b)
        slow = brute_isomorphism(a, b)
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert brute_isomorphism(a, b) is not None
            # the certificate itself must pass the brute checker
            perm = fast.vertex_map
            for u, v, _ in a.edges:
                assert b.rank_of(perm[u], perm[v]) is not None

    @settings(deadline=None, max_examples=60)
    @given(small_graphs())
    def test_self_isomorphic(self, g):
        cert = are_order_isomorphic(g, g)
        assert cert is not None


class TestCanonicalCode:
    def test_deterministic(self):
        g = d_graph(4)
        assert canonical_form(g) == canonical_form(g)

    def test_distinguishes_path_classes(self):
        assert canonical_form(path_with_ranks("132")) != canonical_form(
            path_with_ranks("213")
        )

    def test_matches_standard_labeling(self):
        k4 = canonical_clique(CanonicalType.MIN, 4)
        raw = build_graph(
            4, [(u, v, r) for (u, v), r in canonical_labels(CanonicalType.MIN, 4).items()]
        )
        assert canonical_form(k4) == canonical_form(raw)

    @pytest.mark.parametrize("n", range(7))
    def test_least_sequence_is_the_brute_force_minimum(self, n):
        # Oracle: the least relabeled sequence over all n! vertex bijections.
        rng = random.Random(600 + n)
        pairs = list(combinations(range(n), 2))
        cases = [rng.sample(pairs, rng.randint(0, len(pairs))) for _ in range(25)]
        # The complete graph and a perfect matching leave the most ends
        # open; sparse graphs have isolated edges, which stay open to the end.
        cases += [rng.sample(pairs, len(pairs)), [(i, i + 1) for i in range(0, n - 1, 2)]]
        cases += [rng.sample(pairs, rng.randint(0, min(n, len(pairs)))) for _ in range(15)]
        for chosen in cases:
            want = min(
                tuple(tuple(sorted((perm[u], perm[v]))) for u, v in chosen)
                for perm in permutations(range(n))
            )
            assert core._least_state(n, chosen)[0] == want, chosen
            g = build_graph(n, [(u, v, i + 1) for i, (u, v) in enumerate(chosen)])
            assert canonical_form(g).pairs_by_rank == want, chosen

    @pytest.mark.parametrize("n", range(2, 8))
    def test_one_state_steps_every_extension(self, n):
        # A least sequence's prefix is the least sequence of that prefix, and
        # the labeling that reaches it, open ends and all, serves every
        # extension: each non-edge is stepped from one shared state, so a
        # step that mutated the state it was given would corrupt the later
        # ones.
        rng = random.Random(700 + n)
        pairs = list(combinations(range(n), 2))
        for _ in range(12):
            chosen = rng.sample(pairs, rng.randint(0, len(pairs) - 1))
            seq = core._least_state(n, chosen)[0]
            least, state = core._least_state(n, seq)
            assert least == seq
            kept = copy.deepcopy(state)
            for pair in pairs:
                if pair not in seq:
                    step, _ = core._least_step(state, *pair)
                    assert seq + (step,) == core._least_state(n, seq + (pair,))[0], chosen
                    assert state == kept, chosen

    @settings(deadline=None, max_examples=50)
    @given(small_graphs(max_n=4), small_graphs(max_n=4))
    def test_code_equality_iff_isomorphic(self, a, b):
        same = canonical_form(a) == canonical_form(b)
        assert same == (brute_isomorphism(a, b) is not None)

    @settings(deadline=None, max_examples=50)
    @given(small_graphs(max_n=4))
    def test_canonical_form_is_fixed_point(self, g):
        rep = canonical_form(g)
        assert canonical_form(rep) == rep

    def test_large_matching_has_one_relabeling(self):
        # Every edge stays open, and the one labeling is folded in place.
        started = time.perf_counter()
        matching = build_graph(2000, [(2 * i, 2 * i + 1, 1000 - i) for i in range(1000)])
        form = canonical_form(matching)
        assert form.pairs_by_rank == tuple((2 * i, 2 * i + 1) for i in range(1000))
        assert time.perf_counter() - started < 1.0

    def test_cycle_with_alternate_edges_first_is_linear(self):
        # The first k edges leave 2k open ends; each later edge meets two and
        # closes both at their lower labels.  One labeling per candidate
        # orientation would make 2^k of them.
        k = 1000
        cycle = build_graph(
            2 * k,
            [(2 * i, 2 * i + 1, i + 1) for i in range(k)]
            + [(2 * i + 1, (2 * i + 2) % (2 * k), k + i + 1) for i in range(k)],
        )
        started = time.perf_counter()
        form = canonical_form(cycle)
        assert time.perf_counter() - started < 1.0
        first = [(2 * i, 2 * i + 1) for i in range(k)]
        closing = [(0, 2)] + [(2 * i + 1, 2 * i + 2) for i in range(1, k - 1)] + [(1, 2 * k - 1)]
        assert form.pairs_by_rank == tuple(first + closing)


class TestEnumerateOrderings:
    def test_triangle_one_class(self):
        k3 = canonical_clique(CanonicalType.MIN, 3)
        assert len(list(enumerate_orderings(k3))) == 1

    def test_three_path_classes(self):
        p3 = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        classes = list(enumerate_orderings(p3))
        assert len(classes) == 3
        expected = [path_with_ranks(s) for s in ("123", "132", "213")]
        for want in expected:
            assert sum(
                1 for got in classes if are_order_isomorphic(want, got) is not None
            ) == 1

    def test_c4_three_classes(self):
        c4 = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
        assert len(list(enumerate_orderings(c4))) == 3

    def test_counts_match_brute_force(self):
        # Oracle: dedupe all m! labelings by exhaustive bijection testing.
        shapes = [
            build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)]),
            build_graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4)]),
            build_graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 4)]),
            build_graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 3, 4), (2, 3, 5)]),
            build_graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (0, 4, 5)]),
        ]
        for shape in shapes:
            pairs = sorted(shape.pairs_by_rank)
            seen = []
            for perm in permutations(range(1, len(pairs) + 1)):
                g = build_graph(shape.n, [(u, v, r) for (u, v), r in zip(pairs, perm)])
                if not any(brute_isomorphism(g, h) for h in seen):
                    seen.append(g)
            assert len(list(enumerate_orderings(shape))) == len(seen)

    def test_budget(self):
        k5 = canonical_clique(CanonicalType.MIN, 5)
        with pytest.raises(Inconclusive):
            list(enumerate_orderings(k5, max_labelings=100))

    def test_ascending_code_order(self):
        p3 = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        codes = [g.pairs_by_rank for g in enumerate_orderings(p3)]
        assert codes == sorted(codes)


def labeling_oracle(shape):
    """Reference enumerator: the canonical forms of all m! labelings, deduplicated."""
    pairs = sorted(shape.pairs_by_rank)
    classes = {
        canonical_form(build_graph(shape.n, [(u, v, r) for (u, v), r in zip(pairs, perm)]))
        for perm in permutations(range(1, shape.m + 1))
    }
    return sorted(classes, key=lambda g: g.pairs_by_rank)


def shape(n, text):
    """A shape from vertex pairs written as digit pairs, e.g. ``"01 12"``."""
    return build_graph(n, [(int(p[0]), int(p[1]), i + 1) for i, p in enumerate(text.split())])


def connected_five_vertex_shapes(max_edges):
    """One connected 5-vertex graph per isomorphism class, up to ``max_edges``."""
    pairs = list(combinations(range(5), 2))
    seen, out = set(), []
    for m in range(4, max_edges + 1):
        for chosen in combinations(pairs, m):
            reach, frontier = {0}, [0]
            while frontier:
                v = frontier.pop()
                for a, b in chosen:
                    for x, y in ((a, b), (b, a)):
                        if x == v and y not in reach:
                            reach.add(y)
                            frontier.append(y)
            if len(reach) < 5:
                continue
            key = min(
                tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in chosen))
                for p in permutations(range(5))
            )
            if key not in seen:
                seen.add(key)
                out.append(build_graph(5, [(a, b, i + 1) for i, (a, b) in enumerate(chosen)]))
    return out


class TestOrbitEnumeration:
    """Orbits of Aut(shape) give exactly the m!-labeling classes, in order."""

    @pytest.mark.parametrize("n", range(5))
    def test_every_labeled_shape_up_to_four_vertices(self, n):
        pairs = list(combinations(range(n), 2))
        for m in range(len(pairs) + 1):
            for chosen in combinations(pairs, m):
                g = build_graph(n, [(u, v, i + 1) for i, (u, v) in enumerate(chosen)])
                assert list(enumerate_orderings(g)) == labeling_oracle(g), chosen

    def test_catalog_shapes_up_to_seven_edges(self):
        shapes = connected_five_vertex_shapes(7)
        assert len(shapes) == 17
        for g in shapes:
            assert list(enumerate_orderings(g)) == labeling_oracle(g), g.edges

    @pytest.mark.parametrize(
        "g, classes",
        [
            (build_graph(0, []), 1),
            (build_graph(3, []), 1),
            (build_graph(4, [(1, 3, 1)]), 1),
            (shape(4, "01 23"), 1),
            (shape(5, "01 23 24 34"), 4),
        ],
        ids=["n0", "m0", "edge+isolated", "2K2", "K2+K3"],
    )
    def test_degenerate_shapes(self, g, classes):
        got = list(enumerate_orderings(g))
        assert got == labeling_oracle(g)
        assert len(got) == classes

    @pytest.mark.parametrize(
        "g, order",
        [
            (shape(4, "01 12 23 03"), 8),
            (shape(4, "01 02 03 12 13 23"), 24),
            (shape(4, "01 12 23"), 2),
            (shape(4, "01 02 03"), 6),
            (shape(4, "01 23"), 2),
            (shape(5, "13"), 1),
        ],
        ids=["C4", "K4", "P3", "K13", "2K2", "K2+isolated"],
    )
    def test_automorphism_group_orders(self, g, order):
        group = core._edge_automorphisms(g, core.DEFAULT_MAX_LABELINGS)
        assert len(group) == order
        assert group[0] == tuple(range(g.m))
        # One class per orbit, never two from the same class.
        classes = list(enumerate_orderings(g))
        assert len(classes) == math.factorial(g.m) // order == len(labeling_oracle(g))

    def test_each_class_costs_at_most_one_step(self, monkeypatch):
        # The walk carries one least-sequence state down the orbit tree and
        # stops stepping at a rigid suffix, whose orders it lists whole:
        # 2,338 steps here, where relabeling each class would cost m = 8.
        steps = []
        step = core._least_step
        monkeypatch.setattr(core, "_least_step", lambda *args: steps.append(1) or step(*args))
        classes = list(enumerate_orderings(shape(5, "01 02 03 04 12 13 14 23")))
        assert len(classes) == 10_080
        assert len(steps) <= len(classes)

    def test_catalog_shapes_take_under_8000_steps(self, monkeypatch):
        steps = []
        step = core._least_step
        monkeypatch.setattr(core, "_least_step", lambda *args: steps.append(1) or step(*args))
        shapes = connected_five_vertex_shapes(8)
        assert len(shapes) == 19
        assert sum(len(list(enumerate_orderings(g))) for g in shapes) == 21_637
        assert len(steps) <= 8_000

    @pytest.mark.parametrize(
        "g",
        [
            shape(6, "01 02 13 24"),
            shape(6, "01 12 34"),
            shape(6, "01 02 03 45"),
            shape(7, "01 02 03 45"),
            shape(6, "01 23 45"),
            shape(8, "01 12 23 34 56"),
        ],
        ids=["P5+isolated", "P3+K2+isolated", "K13+K2", "K13+K2+isolated", "3K2", "P5+K2+isolated"],
    )
    def test_rigid_suffix_with_isolated_vertices_and_edges(self, g, monkeypatch):
        # The suffix turns rigid once every non-isolated vertex has a label,
        # with isolated vertices (used < n) and isolated edges kept in one
        # orientation; its orders are then listed as permutations.
        listed = []
        monkeypatch.setattr(
            core, "permutations", lambda rest: listed.append(rest) or permutations(rest)
        )
        assert list(enumerate_orderings(g)) == labeling_oracle(g)
        assert listed

    def test_codes_ascend_with_two_digit_labels(self):
        # Labels 10-12 take two digits: the classes come out sorted as
        # least-sequence tuples, compared label by label as integers.
        pairs = [(6, 10), (5, 6), (1, 9), (2, 9), (10, 11), (7, 11), (4, 12), (0, 2)]
        g = build_graph(13, [(u, v, i + 1) for i, (u, v) in enumerate(pairs)])
        classes = list(enumerate_orderings(g))
        assert len(classes) == 10_080
        codes = [c.pairs_by_rank for c in classes]
        assert codes == sorted(codes) and len(set(codes)) == len(codes)
        assert codes[0] == ((0, 1), (0, 2), (1, 3), (2, 4), (5, 6), (5, 7), (6, 8), (9, 10))

    @pytest.mark.parametrize(
        "g, code",
        [
            (path_with_ranks("1423"), ((0, 1), (2, 3), (2, 4), (0, 3))),
            (d_graph(5), ((0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4))),
            (
                path_with_ranks("918273645"),
                ((0, 1), (2, 3), (4, 5), (6, 7), (6, 8), (4, 7), (2, 5), (0, 3), (1, 9)),
            ),
            (
                build_graph(10, [(i, (i + 1) % 10, i + 1) for i in range(10)]),
                ((0, 1), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (1, 9)),
            ),
        ],
        ids=["1423", "D5", "path10", "C10"],
    )
    def test_codes_up_to_ten_vertices_are_unpadded(self, g, code):
        assert canonical_form(g) == EdgeOrderedGraph(g.n, code)

    def test_classes_not_labelings_are_capped(self):
        # The 3-edge path has 3! = 6 labelings but 6/2 = 3 classes.
        p3 = shape(4, "01 12 23")
        assert len(list(enumerate_orderings(p3, max_labelings=3))) == 3
        with pytest.raises(Inconclusive, match="3 classes"):
            next(enumerate_orderings(p3, max_labelings=2))

    def test_automorphism_search_is_capped(self):
        # A 7-edge matching has one class; each of its 7! automorphisms is
        # found once, not 2^7 times by swapping the ends of each edge.
        matching = build_graph(14, [(2 * i, 2 * i + 1, i + 1) for i in range(7)])
        assert len(core._edge_automorphisms(matching, math.factorial(7))) == math.factorial(7)
        assert len(list(enumerate_orderings(matching, max_labelings=math.factorial(7)))) == 1
        # The 6-edge star has one class too, but 6! = 720 automorphisms.
        star = build_graph(7, [(0, i, i) for i in range(1, 7)])
        with pytest.raises(Inconclusive, match="Aut"):
            next(enumerate_orderings(star, max_labelings=719))

    @pytest.mark.parametrize(
        "edges",
        [
            [(i, i + 1, i + 1) for i in range(1799)],
            [(2 * i, 2 * i + 1, i + 1) for i in range(1800)],
            [(0, i, i) for i in range(1, 1801)],
        ],
        ids=["path", "matching", "star"],
    )
    def test_wide_shapes_are_capped_before_the_automorphism_search(self, edges, monkeypatch):
        # Each search recurses once per vertex; 1,800 levels would pass
        # Python's recursion limit, but no shape this wide is within both caps.
        def no_search(*args):
            raise AssertionError("automorphisms searched")

        monkeypatch.setattr(core, "_edge_automorphisms", no_search)
        g = build_graph(max(v for _, v, _ in edges) + 1, edges)
        with pytest.raises(Inconclusive, match="vertices make over 50000 classes"):
            next(enumerate_orderings(g))

    def test_large_cliques_exceed_the_cap_before_any_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched the automorphisms of a shape over the cap")

        monkeypatch.setattr(core, "_edge_automorphisms", no_search)
        # At least 15!/6! classes, since |Aut(K_6)| <= 6!.
        with pytest.raises(Inconclusive, match="15! labelings"):
            next(enumerate_orderings(canonical_clique(CanonicalType.MIN, 6)))

    def test_a_cap_is_inconclusive_with_its_own_message(self):
        # A cap stops the search as a node budget does: Inconclusive, not an error.
        with pytest.raises(Inconclusive, match="^28! labelings make over 50000 classes$"):
            next(enumerate_orderings(canonical_clique(CanonicalType.MIN, 8)))
        path = build_graph(1800, [(i, i + 1, i + 1) for i in range(1799)])
        with pytest.raises(
            Inconclusive, match="^1800 vertices make over 50000 classes or automorphisms$"
        ):
            next(enumerate_orderings(path))

    def test_orbit_count_check_catches_a_wrong_group(self, monkeypatch):
        c4 = shape(4, "01 12 23 03")
        monkeypatch.setattr(core, "_edge_automorphisms", lambda g, limit: (tuple(range(g.m)),))
        with pytest.raises(CertificateError, match="labelings"):
            list(enumerate_orderings(c4))

    def test_orbit_count_check_catches_a_class_listed_twice(self, monkeypatch):
        # Eight copies of the identity pass the count (3 classes x 8 = 4!),
        # but never fix a rigid suffix, so the walk lists all 24 orders.
        c4 = shape(4, "01 12 23 03")
        monkeypatch.setattr(core, "_edge_automorphisms", lambda g, limit: (tuple(range(g.m)),) * 8)
        with pytest.raises(CertificateError, match="^21 classes listed twice$"):
            list(enumerate_orderings(c4))

    def test_is_a_generator_function(self):
        assert inspect.isgeneratorfunction(enumerate_orderings)


class TestChromaticNumber:
    def test_diamond(self):
        assert chromatic_number(d_graph(4)) == 3

    def test_triangle(self):
        assert chromatic_number(canonical_clique(CanonicalType.MIN, 3)) == 3

    def test_edgeless(self):
        assert chromatic_number(build_graph(5, [])) == 1

    def test_bipartite(self):
        c4 = build_graph(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)])
        assert chromatic_number(c4) == 2

    def test_budget(self):
        big = build_graph(30, [(i, i + 1, i + 1) for i in range(29)])
        with pytest.raises(Inconclusive):
            chromatic_number(big)

    def test_cap_message(self):
        with pytest.raises(Inconclusive, match="^exact coloring capped at 24 vertices$"):
            chromatic_number(build_graph(25, []))
