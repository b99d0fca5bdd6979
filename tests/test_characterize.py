"""Decision procedures and constructions against the known propositions."""

import os
import random
import subprocess
import sys
import textwrap
from itertools import combinations, permutations

import pytest

import eotile
from eotile import characterize, embed

from eotile import (
    BadAnchor,
    BadSpec,
    BadVertex,
    CertificateError,
    Inconclusive,
    NotTuranable,
    SearchBudget,
    are_order_isomorphic,
    EdgeOrderedGraph,
    build_graph,
    canonical_clique,
    canonical_form,
    chromatic_number,
    enumerate_orderings,
    induced_subgraph,
    iter_embeddings,
    reverse,
    star_canonical_clique,
)
from eotile.canonical import (
    ALL_STAR_TYPES,
    CANONICAL_COINCIDENT_TYPES,
    CANONICAL_ORDER,
    CanonicalType,
    StarFamily,
    StarType,
)
from eotile.characterize import (
    Verdict,
    add_pendant,
    add_two_pendants,
    c4_1243,
    d_graph,
    d_minus,
    d_plus,
    extremal_vertices,
    family_graph,
    is_tileable,
    is_turanable,
    is_universally_tileable,
    monotone_cycle,
    path_with_ranks,
    turanable_four_coloring,
)
from eotile.core import components
from eotile.embed import Embedding, find_embedding, monotone_path_graph, verify_embedding
from eotile.necessity import _profile_table, scan_classes


def diamond_shape():
    return build_graph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 3, 4), (2, 3, 5)])


def run_optimized(script):
    """Run ``script`` under ``python -O`` against this package; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestTuranable:
    def test_d4(self):
        verdict = is_turanable(d_graph(4))
        assert verdict.value
        assert set(verdict.certificates) == set(CANONICAL_ORDER)

    def test_monotone_even_cycle(self):
        verdict = is_turanable(monotone_cycle(4))
        assert not verdict.value
        assert verdict.failing is CanonicalType.MIN

    def test_path_1423(self):
        assert not is_turanable(path_with_ranks("1423")).value

    def test_path_2314(self):
        assert not is_turanable(path_with_ranks("2314")).value

    def test_trivial_sizes(self):
        assert is_turanable(build_graph(1, [])).value
        assert is_turanable(build_graph(2, [(0, 1, 1)])).value
        assert is_turanable(build_graph(4, [])).value  # edgeless

    def test_reverse_invariance_over_catalog(self):
        for graph in scan_classes(4):
            assert is_turanable(graph).value == is_turanable(reverse(graph)).value


class TestTileable:
    def test_d4_failing_type(self):
        verdict = is_tileable(d_graph(4))
        assert not verdict.value
        assert verdict.failing == StarType(StarFamily.LARGER_DEC, CanonicalType.MIN)

    def test_monotone_odd_cycle(self):
        assert is_tileable(monotone_cycle(5)).value

    def test_monotone_path_123(self):
        assert is_tileable(path_with_ranks("123")).value

    def test_d4_plus_minus(self):
        assert not is_tileable(d_plus(4)).value
        assert not is_tileable(d_minus(4)).value

    def test_certificates_present_when_true(self):
        verdict = is_tileable(path_with_ranks("132"))
        assert verdict.value
        assert len(verdict.certificates) == 20

    def test_reverse_invariance_over_catalog(self):
        for graph in scan_classes(4):
            assert is_tileable(graph).value == is_tileable(reverse(graph)).value


class TestSharedVerdicts:
    """A refusal is one shared, read-only verdict per kind."""

    def test_refusals_of_one_kind_are_one_object(self):
        first = is_turanable(monotone_cycle(4))
        second = is_turanable(reverse(path_with_ranks("1423")))
        assert first.failing is second.failing is CanonicalType.MIN
        assert first is second
        assert is_tileable(d_graph(4)) is is_tileable(d_graph(5))

    def test_trivial_patterns_share_one_success(self):
        edge = is_turanable(build_graph(2, [(0, 1, 1)]))
        assert edge.value and edge is is_tileable(build_graph(1, []))

    @pytest.mark.parametrize(
        "decide, graph, value",
        [
            (is_turanable, d_graph(4), True),
            (is_turanable, monotone_cycle(4), False),
            (is_tileable, path_with_ranks("132"), True),
            (is_tileable, d_graph(4), False),
            (is_turanable, build_graph(2, [(0, 1, 1)]), True),
        ],
        ids=["turan-success", "turan-refusal", "tile-success", "tile-refusal", "trivial"],
    )
    def test_certificates_are_read_only(self, decide, graph, value):
        verdict = decide(graph)
        assert verdict.value is value
        with pytest.raises(TypeError):
            verdict.certificates[CanonicalType.MIN] = Embedding(tuple(range(graph.n)))

    def test_a_verdict_built_with_a_dict_compares_equal(self):
        success = is_turanable(d_graph(4))
        assert success == Verdict(True, dict(success.certificates))
        assert success != Verdict(True, {})
        assert is_turanable(monotone_cycle(4)) == Verdict(False, {}, CanonicalType.MIN)
        failing = StarType(StarFamily.LARGER_DEC, CanonicalType.MIN)
        assert is_tileable(d_graph(4)) == Verdict(False, failing=failing)
        assert is_tileable(path_with_ranks("1")) == Verdict(True, {})


class TestExhaustiveSmallCatalogs:
    def test_c4_orderings(self):
        classes = list(enumerate_orderings(monotone_cycle(4)))
        assert len(classes) == 3
        turanable = [g for g in classes if is_turanable(g).value]
        assert len(turanable) == 1
        assert are_order_isomorphic(turanable[0], c4_1243()) is not None

    def test_k4_minus_orderings(self):
        classes = list(enumerate_orderings(diamond_shape()))
        turanable = [g for g in classes if is_turanable(g).value]
        assert len(turanable) == 1
        assert are_order_isomorphic(turanable[0], d_graph(4)) is not None
        assert all(not is_tileable(g).value for g in classes)

    def test_tileable_implies_turanable_over_catalog(self):
        for graph in scan_classes(4):
            if is_tileable(graph).value:
                assert is_turanable(graph).value

    def test_tileable_implies_turanable_family_graphs(self):
        graphs = [
            family_graph(d)
            for d in (
                "D(4)", "D(5)", "D(6)", "Dplus(4)", "Dminus(4)",
                "MonoCycle(3)", "MonoCycle(4)", "MonoCycle(5)", "MonoCycle(6)",
                "MonoPath(1)", "MonoPath(3)", "MonoPath(5)",
                "PathRanks(132)", "PathRanks(1423)", "C4_1243",
            )
        ]
        for graph in graphs:
            if is_tileable(graph).value:
                assert is_turanable(graph).value


class TestNegativeVerdictConsequences:
    def test_turanable_failure_scales_up(self):
        for graph in (monotone_cycle(4), path_with_ranks("1423")):
            verdict = is_turanable(graph)
            assert not verdict.value
            host = canonical_clique(verdict.failing, 2 * graph.n)
            assert find_embedding(graph, host) is None

    def test_tileable_failure_never_covers_x(self):
        for graph in (d_graph(4), d_plus(4)):
            verdict = is_tileable(graph)
            assert not verdict.value
            host, x = star_canonical_clique(verdict.failing, graph.n + 2)
            for emb in iter_embeddings(graph, host):
                non_isolated = {
                    emb.vertex_map[v] for v in range(graph.n) if graph.adjacency[v]
                }
                assert x not in non_isolated


class TestUniversallyTileable:
    def test_star_forest(self):
        g = build_graph(5, [(0, 1, 1), (0, 2, 2), (3, 4, 3)])
        assert is_universally_tileable(g)

    def test_c4_not_universal(self):
        assert not is_universally_tileable(monotone_cycle(4))

    def test_triangle_plus_isolated(self):
        g = build_graph(4, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])
        assert is_universally_tileable(g)

    def test_three_edge_path(self):
        assert is_universally_tileable(monotone_path_graph(3))
        with_isolated = build_graph(
            6, [(0, 1, 1), (1, 2, 2), (2, 3, 3)]
        )
        assert is_universally_tileable(with_isolated)

    def test_triangle_with_pendant_not_universal(self):
        paw = build_graph(4, [(0, 1, 1), (0, 2, 2), (1, 2, 3), (0, 3, 4)])
        assert not is_universally_tileable(paw)

    def test_two_triangles_not_universal(self):
        g = build_graph(6, [(0, 1, 1), (0, 2, 2), (1, 2, 3), (3, 4, 4), (3, 5, 5), (4, 5, 6)])
        assert not is_universally_tileable(g)

    def test_extra_component_disqualifies_special_shapes(self):
        p3_plus_edge = build_graph(6, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (4, 5, 4)])
        assert not is_universally_tileable(p3_plus_edge)
        k3_plus_edge = build_graph(5, [(0, 1, 1), (0, 2, 2), (1, 2, 3), (3, 4, 4)])
        assert not is_universally_tileable(k3_plus_edge)

    def test_agrees_with_definition_on_catalog(self):
        # Universal tileability means every ordering class is tileable.
        seen_shapes: list = []
        for graph in scan_classes(4):
            shape = frozenset(graph.pairs_by_rank), graph.n
            if shape in seen_shapes:
                continue
            seen_shapes.append(shape)
            orderings = list(enumerate_orderings(graph))
            truth = all(is_tileable(g).value for g in orderings)
            assert is_universally_tileable(graph) == truth


class TestExtremalVertices:
    def test_monotone_path_ends(self):
        minimal, maximal = extremal_vertices(monotone_path_graph(3))
        assert {0, 1} <= minimal
        assert {2, 3} <= maximal

    def test_d4_unique(self):
        minimal, maximal = extremal_vertices(d_graph(4))
        assert minimal == frozenset({0})
        assert maximal == frozenset({3})

    def test_single_edge_symmetry(self):
        minimal, maximal = extremal_vertices(build_graph(2, [(0, 1, 1)]))
        assert minimal == maximal == frozenset({0, 1})

    def test_not_turanable(self):
        with pytest.raises(NotTuranable):
            extremal_vertices(monotone_cycle(4))

    def test_not_turanable_message_matches_the_four_coloring(self):
        # One fault, one message, whichever function meets it first.
        with pytest.raises(NotTuranable) as extremal:
            extremal_vertices(monotone_cycle(4))
        with pytest.raises(NotTuranable) as coloring:
            turanable_four_coloring(monotone_cycle(4))
        assert str(extremal.value) == str(coloring.value)
        assert "min" in str(extremal.value)

    def test_edgeless_graphs(self):
        assert extremal_vertices(build_graph(0, [])) == (frozenset(), frozenset())
        assert extremal_vertices(build_graph(1, [])) == (frozenset({0}), frozenset({0}))
        assert extremal_vertices(build_graph(3, [])) == (frozenset(range(3)),) * 2

    def test_isolated_vertices_match_brute_force_seeded(self):
        # Oracle: every bijection onto the MIN and MAX cliques, order checked
        # by hand; v_1 (v_f) is the vertex sent to host vertex 0 (f - 1).
        def brute(graph):
            found = []
            for kind, top in ((CanonicalType.MIN, 0), (CanonicalType.MAX, graph.n - 1)):
                host = canonical_clique(kind, graph.n)
                found.append(
                    frozenset(
                        perm.index(top)
                        for perm in permutations(range(graph.n))
                        if all(
                            host.rank_of(perm[a], perm[b]) < host.rank_of(perm[c], perm[d])
                            for (a, b), (c, d) in zip(graph.pairs_by_rank, graph.pairs_by_rank[1:])
                        )
                    )
                )
            return tuple(found)

        rng = random.Random(1608)
        cases = [build_graph(4, [(0, 1, 1)])]
        while len(cases) < 40:
            n = rng.randint(2, 6)
            covered = rng.sample(range(n), rng.randint(2, n - 1) if n > 2 else 0)
            pairs = list(combinations(sorted(covered), 2))
            chosen = rng.sample(pairs, rng.randint(1, min(4, len(pairs)))) if pairs else []
            labels = rng.sample(range(100), len(chosen))
            cases.append(build_graph(n, [(u, v, r) for (u, v), r in zip(chosen, labels)]))
        turanable = 0
        for graph in cases:
            assert graph.isolated_vertices()
            if not is_turanable(graph).value:
                with pytest.raises(NotTuranable):
                    extremal_vertices(graph)
                continue
            turanable += 1
            assert extremal_vertices(graph) == brute(graph), graph
        assert extremal_vertices(cases[0]) == (frozenset(range(4)),) * 2
        assert turanable >= 20


class TestPendants:
    def test_below_grows_monotone_path(self):
        p = path_with_ranks("12")
        grown = add_pendant(p, 0, "below")
        assert are_order_isomorphic(grown, path_with_ranks("123")) is not None

    def test_d4_minus_construction(self):
        assert are_order_isomorphic(add_pendant(d_graph(4), 0, "below"), d_minus(4))

    def test_below_preserves_tileability_from_k3(self):
        k3 = canonical_clique(CanonicalType.MIN, 3)
        grown = add_pendant(k3, 0, "below")
        assert is_tileable(grown).value

    def test_bad_anchor(self):
        with pytest.raises(BadAnchor):
            add_pendant(d_graph(4), 3, "below")  # u_4 not on the smallest edge
        with pytest.raises(BadAnchor):
            add_pendant(d_graph(4), 0, "above")  # u_1 not on the largest edge

    def test_two_pendants_d4_chain(self):
        f6 = add_two_pendants(d_graph(4), 0, 3)
        assert f6.n == 6
        assert is_tileable(f6).value
        # the new vertices carry the new extreme edges
        assert f6.edges[0][:2] == (0, 4)
        assert f6.edges[-1][:2] == (3, 5)

    def test_two_pendants_from_single_edge(self):
        grown = add_two_pendants(build_graph(2, [(0, 1, 1)]), 0, 1)
        assert are_order_isomorphic(grown, path_with_ranks("123")) is not None

    def test_two_pendants_monotone_c5(self):
        c5 = monotone_cycle(5)
        minimal, maximal = extremal_vertices(c5)
        vmin = min(minimal)
        vmax = min(v for v in maximal if v != vmin)
        grown = add_two_pendants(c5, vmin, vmax)
        assert grown.n == 7
        assert is_tileable(grown).value

    def test_two_pendants_bad_anchors(self):
        with pytest.raises(BadAnchor):
            add_two_pendants(d_graph(4), 0, 0)
        with pytest.raises(BadAnchor):
            add_two_pendants(d_graph(4), 1, 3)  # u_2 is not minimal
        with pytest.raises(NotTuranable, match="min"):
            add_two_pendants(monotone_cycle(4), 0, 1)

    @pytest.mark.parametrize("v", [True, 1.5, 3.0, -1, "n"])
    def test_pendant_vertex_must_be_a_vertex(self, v):
        # True would be read as vertex 1, giving a pair (True, 3), and the
        # others as no vertex of the smallest edge.
        graph = path_with_ranks("12")
        with pytest.raises(BadVertex):
            add_pendant(graph, graph.n if v == "n" else v, "below")

    @pytest.mark.parametrize(
        "anchors",
        [(0, 9), (9, 3), (-1, 3), (0, -4), (4, 4), (0, True), (True, 3), (0, 1.5), (3.0, 0)],
    )
    def test_two_pendants_foreign_anchors(self, anchors, monkeypatch):
        # Checked before any adjacency read or search: a negative anchor
        # must not be read as a vertex counted from the end, True as vertex
        # 1, nor a float as an index into the adjacency lists.
        def no_search(*args):
            raise AssertionError("searched for extremal vertices")

        monkeypatch.setattr(characterize, "extremal_vertices", no_search)
        with pytest.raises(BadVertex):
            add_two_pendants(d_graph(4), *anchors)


class TestFamilyGraphs:
    def test_d4_order(self):
        g = family_graph("D(4)")
        assert g.pairs_by_rank == ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3))

    def test_mono_cycle(self):
        g = family_graph("MonoCycle(4)")
        assert g.pairs_by_rank == ((0, 1), (1, 2), (2, 3), (0, 3))

    def test_path_ranks(self):
        g = family_graph("PathRanks(132)")
        assert g.n == 4
        assert g.rank_of(1, 2) == 3  # middle edge is the largest

    def test_mono_path(self):
        assert family_graph("MonoPath(3)") == monotone_path_graph(3)

    def test_c4_1243(self):
        g = family_graph("C4_1243")
        assert g.rank_of(0, 1) == 1
        assert g.rank_of(1, 2) == 2
        assert g.rank_of(0, 3) == 3
        assert g.rank_of(2, 3) == 4

    def test_bad_descriptors(self):
        for bad in ("D()", "D(x)", "Nope(3)", "PathRanks(122)", "PathRanks(10)", ""):
            with pytest.raises(BadSpec):
                family_graph(bad)


class TestFourColoring:
    def test_d4_three_colors(self):
        coloring = turanable_four_coloring(d_graph(4))
        assert len(set(coloring.values())) <= 4
        assert chromatic_number(d_graph(4)) == 3

    def test_monotone_c5(self):
        coloring = turanable_four_coloring(monotone_cycle(5))
        c5 = monotone_cycle(5)
        for u, v, _ in c5.edges:
            assert coloring[u] != coloring[v]

    def test_single_edge_two_colors(self):
        coloring = turanable_four_coloring(build_graph(2, [(0, 1, 1)]))
        assert len(set(coloring.values())) == 2

    def test_not_turanable_rejected(self):
        with pytest.raises(NotTuranable):
            turanable_four_coloring(monotone_cycle(4))

    def test_needs_only_the_min_and_inv_min_embeddings(self):
        # Four classes on 4 vertices embed into the MIN and INV_MIN cliques
        # but not into MAX or INV_MAX; each still gets a proper coloring.
        sink_kinds = (CanonicalType.MIN, CanonicalType.INV_MIN)
        sink_hosts = [canonical_clique(kind, 4) for kind in sink_kinds]
        found = 0
        for graph in scan_classes(4):
            if graph.n < 4 or is_turanable(graph).value:
                continue
            if any(find_embedding(graph, host) is None for host in sink_hosts):
                continue
            found += 1
            coloring = turanable_four_coloring(graph)
            assert len(set(coloring.values())) <= 4
            assert all(coloring[u] != coloring[v] for u, v, _ in graph.edges)
        assert found == 4

    def test_catalog_proper_and_small(self):
        for graph in scan_classes(4):
            if not is_turanable(graph).value:
                continue
            coloring = turanable_four_coloring(graph)
            assert len(set(coloring.values())) <= 4
            for u, v, _ in graph.edges:
                assert coloring[u] != coloring[v]
            assert len(set(coloring.values())) >= chromatic_number(graph)


class TestCertificateChecks:
    """Consistency checks raise CertificateError instead of relying on assert."""

    def test_coincident_types_map_onto_canonical_cliques(self):
        # Why every tileable graph is Turanable: four star-canonical types
        # are the canonical orderings, so is_tileable need not check again.
        for f in range(3, 13):
            for kind in CANONICAL_COINCIDENT_TYPES:
                star, _ = star_canonical_clique(kind, f)
                assert are_order_isomorphic(star, canonical_clique(kind.part, f)) is not None

    @pytest.mark.parametrize(
        "graph",
        [path_with_ranks("123"), add_two_pendants(d_graph(4), 0, 3)],
        ids=["path-123", "D4-two-pendants"],
    )
    def test_tileable_builds_no_canonical_clique(self, graph, monkeypatch):
        # The twenty star checks decide tileability; no canonical clique is
        # looked at again once they pass.
        def refuse(*args):
            raise AssertionError("canonical clique built")

        monkeypatch.setattr(characterize, "canonical_clique", refuse)
        assert is_tileable(graph).value

    def test_tileable_verifies_each_certificate_once(self, monkeypatch):
        graph = add_two_pendants(d_graph(4), 0, 3)
        calls = []

        def counted(*args):
            calls.append(args)
            return verify_embedding(*args)

        monkeypatch.setattr(embed, "verify_embedding", counted)
        verdict = is_tileable(graph)
        assert verdict.value and len(verdict.certificates) == len(calls) == 20

    def test_extremal_vertices_nonempty(self, monkeypatch):
        monkeypatch.setattr(characterize, "_embeddings", lambda *args: iter(()))
        with pytest.raises(CertificateError, match="extremal vertex"):
            extremal_vertices(monotone_path_graph(3))

    def test_four_coloring_leftover_forest(self, monkeypatch):
        # With both orders equal, K4 has one sink and its other three
        # vertices, a triangle, are left over.
        monkeypatch.setattr(
            characterize,
            "_canonical_verdict",
            lambda g, kinds, budget: Verdict(
                True, {kind: Embedding(tuple(range(g.n))) for kind in kinds}
            ),
        )
        with pytest.raises(CertificateError, match="coloring is not proper"):
            turanable_four_coloring(canonical_clique(CanonicalType.MIN, 4))


class TestOneBudgetPerCall:
    """Every search of one decision counts against a single budget."""

    # Each of the twenty star searches of the path 1-2-3 expands 4 nodes;
    # the four canonical checks meet 10 branch nodes in all.
    @pytest.mark.parametrize("decide, total", [(is_tileable, 80), (is_turanable, 10)])
    def test_node_limit_bounds_the_whole_call(self, decide, total):
        graph = path_with_ranks("123")
        assert decide(graph, SearchBudget(node_limit=total)).value
        with pytest.raises(Inconclusive, match=f"node budget {total - 1} exhausted"):
            decide(graph, SearchBudget(node_limit=total - 1))

    # d_graph(5): the MIN and INV_MIN checks meet 4 branch nodes; the four
    # Turan checks meet 8, and with both extremal enumerations it is 60.
    @pytest.mark.parametrize(
        "construct, total", [(turanable_four_coloring, 4), (extremal_vertices, 60)]
    )
    def test_node_limit_bounds_the_constructions(self, construct, total):
        graph = d_graph(5)
        assert construct(graph, SearchBudget(node_limit=total))
        with pytest.raises(Inconclusive, match=f"node budget {total - 1} exhausted"):
            construct(graph, SearchBudget(node_limit=total - 1))

    def test_construction_limit_survives_optimized_mode(self):
        script = textwrap.dedent(
            """
            from eotile import Inconclusive, SearchBudget
            from eotile.characterize import d_graph, extremal_vertices

            assert False  # stripped under -O
            graph = d_graph(5)
            found = extremal_vertices(graph, SearchBudget(node_limit=60))
            try:
                extremal_vertices(graph, SearchBudget(node_limit=59))
            except Inconclusive:
                print("bounded" if found else "no vertices")
            """
        )
        assert run_optimized(script) == "bounded"

    def test_node_limit_survives_optimized_mode(self):
        script = textwrap.dedent(
            """
            from eotile import Inconclusive, SearchBudget
            from eotile.characterize import is_tileable, path_with_ranks

            assert False  # stripped under -O
            graph = path_with_ranks("123")
            decided = is_tileable(graph, SearchBudget(node_limit=80)).value
            try:
                is_tileable(graph, SearchBudget(node_limit=79))
            except Inconclusive:
                print("bounded" if decided else "wrong verdict")
            """
        )
        assert run_optimized(script) == "bounded"


def reference_turanable(graph):
    """The four canonical checks, each search on a fresh budget."""
    if graph.n <= 2:
        return Verdict(True)
    certificates = {}
    for kind in CANONICAL_ORDER:
        emb = find_embedding(graph, canonical_clique(kind, graph.n), SearchBudget())
        if emb is None:
            return Verdict(False, failing=kind)
        certificates[kind] = emb
    return Verdict(True, certificates=certificates)


def reference_profile(graph):
    """Which star types ``graph`` embeds into, each search on a fresh budget."""
    if graph.n <= 2:
        return tuple(True for _ in ALL_STAR_TYPES)
    return tuple(
        find_embedding(graph, star_canonical_clique(kind, graph.n)[0], SearchBudget()) is not None
        for kind in ALL_STAR_TYPES
    )


def reference_tileable(graph):
    """The twenty star checks, each on a fresh budget, then a full Turan search."""
    if graph.n <= 2:
        return Verdict(True)
    certificates = {}
    for kind in ALL_STAR_TYPES:
        emb = find_embedding(graph, star_canonical_clique(kind, graph.n)[0], SearchBudget())
        if emb is None:
            return Verdict(False, failing=kind)
        certificates[kind] = emb
    assert reference_turanable(graph).value
    return Verdict(True, certificates=certificates)


@pytest.fixture(scope="module")
def oracle_graphs():
    """The f <= 4 catalog and every ordering class of three 5-vertex shapes."""
    shapes = [
        build_graph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (0, 4, 5)]),  # C5
        build_graph(5, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 6)]),
        build_graph(5, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (0, 4, 4), (1, 2, 5), (3, 4, 6)]),
    ]
    graphs = list(scan_classes(4))
    for shape in shapes:
        graphs.extend(enumerate_orderings(shape))
    return graphs


class TestTypeLoopMatchesPerSearchOracle:
    """One loop on one budget decides exactly what separately budgeted
    searches decided: same values and failing types, and for the star
    checks the same certificates."""

    def test_catalog_size(self, oracle_graphs):
        assert len(oracle_graphs) == 91 + 462

    def test_turanable(self, oracle_graphs):
        # The canonical checks search nothing, so their certificates are
        # orders of their own, each checked against its clique.
        verdicts = [is_turanable(g) for g in oracle_graphs]
        expected = [reference_turanable(g) for g in oracle_graphs]
        assert [(v.value, v.failing) for v in verdicts] == [(e.value, e.failing) for e in expected]
        for graph, verdict, reference in zip(oracle_graphs, verdicts, expected):
            assert verdict.certificates.keys() == reference.certificates.keys()
            for kind, emb in verdict.certificates.items():
                assert verify_embedding(graph, canonical_clique(kind, graph.n), emb)
        assert {v.value for v in verdicts} == {True, False}

    def test_tileable(self, oracle_graphs):
        verdicts = [is_tileable(g) for g in oracle_graphs]
        assert verdicts == [reference_tileable(g) for g in oracle_graphs]
        assert {v.value for v in verdicts} == {True, False}
        assert any(v.value and v.certificates for v in verdicts)

    def test_profile_table(self):
        rows = _profile_table(4, SearchBudget())
        masks = [
            sum(passed << i for i, passed in enumerate(reference_profile(g)))
            for g in scan_classes(4)
        ]
        assert rows == tuple(zip(scan_classes(4), masks))


# Every 8-edge shape on 5 vertices with a vertex of degree 4: K5 minus the
# edges 24 and 34, with 10,080 ordering classes.
PEEL_SHAPE = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3))


@pytest.fixture(scope="module")
def peel_shape_classes():
    shape = build_graph(5, [(u, v, r) for r, (u, v) in enumerate(PEEL_SHAPE, 1)])
    return list(enumerate_orderings(shape))


def block_split_exists(pairs):
    """Whether ``pairs`` split into blocks, each every remaining edge at one
    vertex, by trying every vertex for every block."""
    if not pairs:
        return True
    for c in {x for pair in pairs for x in pair}:
        block = [p for p in pairs if c in p]
        if list(pairs[: len(block)]) == block and block_split_exists(pairs[len(block) :]):
            return True
    return False


def all_cliques(f):
    """The four canonical and twenty star-canonical cliques on ``f`` vertices."""
    return [canonical_clique(kind, f) for kind in CANONICAL_ORDER] + [
        star_canonical_clique(kind, f)[0] for kind in ALL_STAR_TYPES
    ]


def cut_refutes(graph, host, ends=None):
    """Whether the type loop's peel cut refutes ``graph`` (whose peel ends
    are ``ends`` when given) against ``host``."""
    ends = ends or characterize._peel_ends(graph)
    return any(h and not g for h, g in zip(characterize._peel_ends(host), ends))


def spanning_classes(host, shape):
    """Classes of ``shape`` (pairs on the host's vertices) that embed into
    ``host``: a spanning embedding is a bijection, and the class it finds is
    the shape ordered by the host ranks of its image pairs."""
    found = set()
    for sigma in permutations(range(host.n)):
        pairs = sorted(shape, key=lambda p: host.rank_of(sigma[p[0]], sigma[p[1]]))
        found.add(canonical_form(EdgeOrderedGraph(host.n, tuple(pairs))))
    return found


def peeled_host(rng, n, reverse_order):
    """A random graph on ``n`` vertices ordered block by block: a random
    vertex order, each vertex's remaining edges next in a random order; with
    ``reverse_order`` the blocks run from the top rank down."""
    pairs = {p for p in combinations(range(n), 2) if rng.random() < 0.75}
    ranked = []
    for c in rng.sample(range(n), n):
        block = sorted(p for p in pairs if c in p)
        rng.shuffle(block)
        ranked += block
        pairs -= set(block)
    if reverse_order:
        ranked.reverse()
    return EdgeOrderedGraph(n, tuple(ranked))


def random_pattern(rng, host):
    """A random ordering of a random graph on at most ``host.n`` vertices;
    every other one is a relabeled sub-ordering of ``host``, so it embeds."""
    k = rng.randint(2, host.n)
    if rng.random() < 0.5:
        pairs = [p for p in combinations(range(k), 2) if rng.random() < 0.5]
        rng.shuffle(pairs)
    else:
        label = dict(zip(rng.sample(range(host.n), host.n), range(host.n)))
        kept = [p for p in host.pairs_by_rank if rng.random() < 0.6]
        pairs = [tuple(sorted((label[u], label[v]))) for u, v in kept]
        k = host.n
    return EdgeOrderedGraph(k, tuple(pairs))


def connected_shapes(n, max_edges):
    """One graph per isomorphism class of connected graphs on ``n``
    vertices with at most ``max_edges`` edges."""
    every = list(combinations(range(n), 2))
    shapes = {}
    for m in range(n - 1, max_edges + 1):
        for chosen in combinations(every, m):
            graph = build_graph(n, [(u, v, r) for r, (u, v) in enumerate(chosen, 1)])
            if len(components(graph)) > 1:
                continue
            key = min(
                tuple(sorted(tuple(sorted((s[u], s[v]))) for u, v in chosen))
                for s in permutations(range(n))
            )
            shapes.setdefault(key, graph)
    return list(shapes.values())


def sub_order(rng, n):
    """A random sub-order of a random canonical clique on ``n`` vertices,
    relabeled by a random permutation, and every third one with two
    neighbouring edges swapped."""
    host = canonical_clique(rng.choice(CANONICAL_ORDER), n)
    label = rng.sample(range(n), n)
    pairs = [
        tuple(sorted((label[u], label[v]))) for u, v in host.pairs_by_rank if rng.random() < 0.4
    ]
    if rng.random() < 1 / 3 and len(pairs) > 1:
        i = rng.randrange(len(pairs) - 1)
        pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
    return EdgeOrderedGraph(n, tuple(pairs))


def arcs_agree_with_the_kernel(graph):
    """Each canonical check decided alone by the arcs against the kernel's
    search of its clique; returns how many the graph passes."""
    passed = 0
    for kind in CANONICAL_ORDER:
        host = canonical_clique(kind, graph.n)
        verdict = characterize._canonical_verdict(graph, (kind,), None)
        assert verdict.value == (find_embedding(graph, host) is not None), (graph, kind)
        if verdict.value:
            assert verify_embedding(graph, host, verdict.certificates[kind])
            passed += 1
        else:
            assert verdict.failing is kind
    return passed


class TestArcsMatchTheKernel:
    """Each canonical check, decided by precedence arcs, passes exactly when
    the kernel embeds the graph into that clique, with a certificate."""

    def test_every_class_on_at_most_four_vertices(self):
        graphs = [g for g in scan_classes(4) if g.n >= 3]
        assert sum(map(arcs_agree_with_the_kernel, graphs)) > 50

    def test_every_class_of_the_sparse_five_vertex_shapes(self):
        shapes = connected_shapes(5, 8)
        assert len(shapes) == 19
        classes = [g for shape in shapes for g in enumerate_orderings(shape)]
        assert len(classes) == 21_637
        assert sum(map(arcs_agree_with_the_kernel, classes)) > 1000

    @pytest.mark.parametrize("drop", [0, 1], ids=["K5", "K5-minus-an-edge"])
    def test_dense_five_vertex_classes_seeded(self, drop):
        # Uniform orders are almost never canonical: the relabeled
        # canonical cliques, less an edge for K5 minus one, join the sample.
        rng = random.Random(drop)
        every = list(combinations(range(5), 2))
        graphs = [EdgeOrderedGraph(5, tuple(rng.sample(every, 10 - drop))) for _ in range(300)]
        for kind in CANONICAL_ORDER:
            label = rng.sample(range(5), 5)
            kept = canonical_clique(kind, 5).pairs_by_rank[drop:]
            graphs.append(
                EdgeOrderedGraph(5, tuple(tuple(sorted((label[u], label[v]))) for u, v in kept))
            )
        assert sum(map(arcs_agree_with_the_kernel, graphs)) >= 4

    def test_sub_orders_of_larger_cliques_seeded(self):
        rng = random.Random(7)
        graphs = [sub_order(rng, rng.randint(6, 10)) for _ in range(150)]
        assert sum(map(arcs_agree_with_the_kernel, graphs)) > 100

    def test_branch_nodes_are_counted_on_one_budget(self):
        graph = path_with_ranks("123456")
        budget = SearchBudget()
        assert is_turanable(graph, budget).value
        nodes = budget.nodes
        assert nodes >= 2
        assert is_turanable(graph, SearchBudget(node_limit=nodes)).value
        with pytest.raises(Inconclusive, match=f"node budget {nodes - 1} exhausted"):
            is_turanable(graph, SearchBudget(node_limit=nodes - 1))

    def test_a_long_path_needs_no_recursion(self):
        # The splits are walked with an explicit stack: 1,200 blocks, past
        # the recursion limit, a branch node at each, and no clique built.
        # Under the order, the edges rise by (earlier end, later end) as in
        # the MIN clique.
        pairs = monotone_path_graph(1200).pairs_by_rank
        budget = SearchBudget()
        order = characterize._block_order(1201, pairs, False, budget)
        assert budget.nodes == 1200
        position = {v: i for i, v in enumerate(order)}
        keys = [tuple(sorted((position[u], position[v]))) for u, v in pairs]
        assert sorted(order) == list(range(1201)) and keys == sorted(keys)


class TestPeelCut:
    """The type loop refutes a graph against a clique that peels from an
    end when the graph does not peel from that end; no search runs."""

    @pytest.mark.parametrize("f", [4, 5, 6, 7])
    def test_which_cliques_peel(self, f):
        front = {CanonicalType.MIN, CanonicalType.INV_MIN}
        back = {CanonicalType.MAX, CanonicalType.INV_MAX}
        assert [characterize._peel_ends(canonical_clique(kind, f)) for kind in CANONICAL_ORDER] == [
            (kind in front, kind in back) for kind in CANONICAL_ORDER
        ]
        small = {StarFamily.SMALLER_DEC, StarFamily.SMALLER_INC, StarFamily.MIDDLE_INC}
        large = {StarFamily.LARGER_DEC, StarFamily.LARGER_INC, StarFamily.MIDDLE_INC}
        expected = [
            (f == 4 or kind.family in small) and kind.part in front
            or (f == 4 or kind.family in large) and kind.part in back
            for kind in ALL_STAR_TYPES
        ]
        ends = [characterize._peel_ends(star_canonical_clique(kind, f)[0]) for kind in ALL_STAR_TYPES]
        assert [any(e) for e in ends] == expected
        assert not any(all(e) for e in ends)

    def test_greedy_matches_block_brute_force(self):
        # Every ordering of every graph on at most four vertices.
        seen = {True: 0, False: 0}
        for n in range(5):
            every = list(combinations(range(n), 2))
            for m in range(len(every) + 1):
                for chosen in combinations(every, m):
                    for pairs in permutations(chosen):
                        peels = characterize._peels(n, pairs)
                        assert peels == block_split_exists(pairs), pairs
                        seen[peels] += 1
        assert min(seen.values()) > 100

    @pytest.mark.parametrize("seed", range(3))
    def test_greedy_matches_block_brute_force_seeded(self, seed):
        # Orders on five to seven vertices: block-peeled ones, the same with
        # two neighbouring edges swapped, and shuffled ones.
        rng = random.Random(seed)
        seen = {True: 0, False: 0}
        for trial in range(300):
            n = rng.randint(5, 7)
            pairs = list(peeled_host(rng, n, trial % 2 == 1).pairs_by_rank)
            if trial % 3 == 1 and len(pairs) > 1:
                i = rng.randrange(len(pairs) - 1)
                pairs[i], pairs[i + 1] = pairs[i + 1], pairs[i]
            elif trial % 3 == 2:
                rng.shuffle(pairs)
            for order in (pairs, pairs[::-1]):
                peels = characterize._peels(n, order)
                assert peels == block_split_exists(order), order
                seen[peels] += 1
        assert min(seen.values()) > 100

    def test_each_end_is_peeled_once_when_first_needed(self, monkeypatch):
        # reverse(1423) fails the front peel at MIN: one pass.  1423 peels
        # from the front, so MIN is decided by arcs and MAX takes the back pass.
        graph = path_with_ranks("1423")
        passes = []
        peels = characterize._peels
        monkeypatch.setattr(
            characterize, "_peels", lambda n, pairs: passes.append(pairs) or peels(n, pairs)
        )
        assert is_turanable(reverse(graph)).failing is CanonicalType.MIN
        assert len(passes) == 1
        assert is_turanable(graph).failing is CanonicalType.MAX
        assert passes[1:] == [graph.pairs_by_rank, graph.pairs_by_rank[::-1]]

    def test_check_tuples_are_built_once_per_size(self):
        assert characterize._tile_checks(6) is characterize._tile_checks(6)
        stars = [star_canonical_clique(kind, 6)[0] for kind in ALL_STAR_TYPES]
        assert characterize._tile_checks(6) == tuple(
            (kind, host, *characterize._peel_ends(host))
            for kind, host in zip(ALL_STAR_TYPES, stars)
        )

    def test_never_refutes_what_the_kernel_embeds(self, oracle_graphs):
        refuted = 0
        for graph in oracle_graphs:
            if graph.n < 3:
                continue
            for host in all_cliques(graph.n):
                if cut_refutes(graph, host):
                    refuted += 1
                    assert find_embedding(graph, host) is None
        assert refuted > 1000

    def test_never_refutes_a_spanning_class_of_the_shape(self, peel_shape_classes):
        # 10,080 classes against all 24 K5 cliques; each class a clique
        # contains is confirmed by the kernel.
        ends = {graph: characterize._peel_ends(graph) for graph in peel_shape_classes}
        refuted = contained = 0
        for host in all_cliques(5):
            inside = spanning_classes(host, PEEL_SHAPE)
            assert inside <= ends.keys()
            for graph in inside:
                assert not cut_refutes(graph, host, ends[graph])
                assert find_embedding(graph, host) is not None
            contained += len(inside)
            refuted += sum(cut_refutes(graph, host, e) for graph, e in ends.items())
        assert contained > 500 and refuted > 100_000

    @pytest.mark.parametrize("seed", range(4))
    def test_embedded_patterns_peel_like_their_host_seeded(self, seed):
        rng = random.Random(seed)
        embedded = not_peeling = 0
        for trial in range(150):
            back = trial % 2 == 1
            host = peeled_host(rng, rng.randint(3, 7), back)
            assert characterize._peel_ends(host)[back]
            for _ in range(4):
                pattern = random_pattern(rng, host)
                peels = characterize._peel_ends(pattern)[back]
                not_peeling += not peels
                if find_embedding(pattern, host) is not None:
                    embedded += 1
                    assert peels, (host, pattern)
        assert embedded > 200 and not_peeling > 20

    def test_refutations_take_no_node(self, monkeypatch):
        # 1423 peels from the front only: MIN is decided by arcs, MAX
        # refuted by the back peel; neither runs a search.
        searches = []
        monkeypatch.setattr(
            characterize, "find_embedding",
            lambda *args, **kwargs: searches.append(args) or find_embedding(*args, **kwargs),
        )
        graph = path_with_ranks("1423")
        assert characterize._peel_ends(graph) == (True, False)
        assert is_turanable(graph).failing is CanonicalType.MAX
        budget = SearchBudget(node_limit=1)
        assert is_turanable(reverse(graph), budget).failing is CanonicalType.MIN
        assert budget.nodes == 0
        assert searches == []

    def test_refutations_make_no_budget(self, monkeypatch):
        # The type loop makes its budget at the first search, so a graph the
        # peel cut refutes makes none, and one that is searched makes one.
        def no_budget(*args, **kwargs):
            raise AssertionError("budget made")

        monkeypatch.setattr(characterize, "SearchBudget", no_budget)
        graph = path_with_ranks("1423")
        assert is_turanable(reverse(graph)).failing is CanonicalType.MIN
        with pytest.raises(AssertionError, match="budget made"):
            is_turanable(graph)

    def test_far_fewer_arc_decisions_and_the_same_verdicts(self, peel_shape_classes, monkeypatch):
        # The peel is only a shortcut: with every graph peeling, each check
        # reaches the arcs, which refute what the peel did.
        decided = []
        block_order = characterize._block_order
        monkeypatch.setattr(
            characterize, "_block_order", lambda *args: decided.append(args) or block_order(*args)
        )
        cut = [is_turanable(g) for g in peel_shape_classes]
        with_cut = len(decided)
        monkeypatch.setattr(characterize, "_peels", lambda n, pairs: True)
        assert [is_turanable(g) for g in peel_shape_classes] == cut
        assert 10 * with_cut < len(decided) - with_cut

    def test_cut_survives_optimized_mode(self):
        # The peel cut still refutes, and an order the arcs return is still
        # certified by label.  Reversed, the matching's MIN order makes its
        # labels fall.  On one edge beside an isolated vertex any labels
        # rise, so only the map's own checks catch an order cut short, which
        # leaves two vertices on position 0, or run on past the clique.
        script = textwrap.dedent(
            """
            import eotile.characterize as ch
            from eotile import CertificateError, SearchBudget, build_graph, reverse
            from eotile.characterize import is_turanable, path_with_ranks

            assert False  # stripped under -O
            verdict = is_turanable(reverse(path_with_ranks("1423")), SearchBudget(node_limit=1))
            real = ch._block_order
            matching = build_graph(4, [(0, 1, 1), (2, 3, 2)])
            edge = build_graph(3, [(0, 1, 1)])
            corruptions = {
                "falls": (matching, lambda order: order[::-1]),
                "repeats": (edge, lambda order: order[:-1]),
                "overruns": (edge, lambda order: order + order[:1]),
            }
            caught = [verdict.failing.value]
            for name, (graph, corrupt) in corruptions.items():
                ch._block_order = lambda *args, corrupt=corrupt: corrupt(real(*args))
                try:
                    is_turanable(graph)
                except CertificateError:
                    caught.append(name)
            print(*caught)
            """
        )
        assert run_optimized(script) == "min falls repeats overruns"
