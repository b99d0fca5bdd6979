"""Necessity scans: determinism, re-verification, and the probe results."""

import math
import os
import subprocess
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest

from eotile import (
    BadSize,
    BadSpec,
    CertificateError,
    Inconclusive,
    SearchBudget,
    are_order_isomorphic,
    build_graph,
    canonical_form,
    enumerate_orderings,
    find_embedding,
    star_canonical_clique,
    verify_embedding,
)
from eotile.canonical import (
    ALL_STAR_TYPES,
    CANONICAL_COINCIDENT_TYPES,
    CanonicalType,
    StarFamily,
    StarType,
)
import eotile
from eotile import necessity
from eotile.characterize import d_graph, is_tileable, is_turanable, path_with_ranks
from eotile.core import reverse
from eotile.necessity import (
    ESTABLISHED_NECESSARY,
    WITNESSES,
    _certify_witness,
    _profile_table,
    necessity_witness,
    scan_classes,
    sufficiency_probe,
)

LD_MIN = StarType(StarFamily.LARGER_DEC, CanonicalType.MIN)

# Reversing a graph's edge order maps its profile by this involution:
# larger-X.p <-> smaller-X.p' and middle-inc.p <-> middle-inc.p', where p'
# swaps min <-> max and inv-min <-> inv-max.
_MIRROR_FAMILY = {
    StarFamily.LARGER_DEC: StarFamily.SMALLER_DEC,
    StarFamily.SMALLER_DEC: StarFamily.LARGER_DEC,
    StarFamily.LARGER_INC: StarFamily.SMALLER_INC,
    StarFamily.SMALLER_INC: StarFamily.LARGER_INC,
    StarFamily.MIDDLE_INC: StarFamily.MIDDLE_INC,
}
_MIRROR_PART = {
    CanonicalType.MIN: CanonicalType.MAX,
    CanonicalType.MAX: CanonicalType.MIN,
    CanonicalType.INV_MIN: CanonicalType.INV_MAX,
    CanonicalType.INV_MAX: CanonicalType.INV_MIN,
}


def dual(kind):
    """The type that ``reverse`` of a witness for ``kind`` separates."""
    return StarType(_MIRROR_FAMILY[kind.family], _MIRROR_PART[kind.part])


def labeled_shape_scan(f_max):
    """Oracle: the classes of every labeled shape on f vertices from
    ``enumerate_orderings``, duplicates dropped by canonical form, in the
    order ``scan_classes`` documents."""
    for f in range(1, f_max + 1):
        pairs = list(combinations(range(f), 2))
        for m in range(len(pairs), -1, -1):
            bucket = {}
            for chosen in combinations(pairs, m):
                shape = build_graph(f, [(u, v, i + 1) for i, (u, v) in enumerate(chosen)])
                for ordering in enumerate_orderings(shape):
                    bucket.setdefault(canonical_form(ordering), ordering)
            yield from sorted(bucket, key=code)


def shapes_up_to_isomorphism(f, m):
    """One labeled shape per isomorphism class of graphs on f vertices with
    m edges, found by brute force over all f! vertex permutations."""
    seen = set()
    shapes = []
    for chosen in combinations(combinations(range(f), 2), m):
        key = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in chosen))
            for p in permutations(range(f))
        )
        if key not in seen:
            seen.add(key)
            shapes.append(build_graph(f, [(u, v, i + 1) for i, (u, v) in enumerate(chosen)]))
    return shapes


def code(graph):
    # Both generators yield canonical forms, keyed by their least sequences.
    return graph.pairs_by_rank


@pytest.fixture(scope="module")
def five_vertex_codes():
    """Edge count and code of each 5-vertex class of ``scan_classes(5)``, in order."""
    return [(graph.m, code(graph)) for graph in scan_classes(5) if graph.n == 5]


class TestScanClasses:
    def test_class_counts(self):
        # 1 class on one vertex, +2 on two, +4 on three, +84 on four.
        assert len(list(scan_classes(1))) == 1
        assert len(list(scan_classes(2))) == 3
        assert len(list(scan_classes(3))) == 7
        assert len(list(scan_classes(4))) == 91

    def test_deterministic_order(self):
        first = [g.edges for g in scan_classes(3)]
        second = [g.edges for g in scan_classes(3)]
        assert first == second

    def test_all_distinct(self):
        classes = list(scan_classes(4))
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert are_order_isomorphic(a, b) is None

    @pytest.mark.parametrize("f_max", [1, 2, 3, 4])
    def test_matches_labeled_shape_scan(self, f_max):
        assert list(scan_classes(f_max)) == list(labeled_shape_scan(f_max))

    def test_five_vertex_counts_and_order(self, five_vertex_codes):
        counts = Counter(m for m, _ in five_vertex_codes)
        assert counts == {0: 1, 1: 1, 2: 2, 3: 8, 4: 44, 5: 252, 6: 1260, 7: 5040,
                          8: 15120, 9: 30240, 10: 30240}
        keys = [(-m, data) for m, data in five_vertex_codes]
        assert keys == sorted(keys)

    def test_five_vertex_codes_match_orbit_enumeration(self, five_vertex_codes):
        # Every one of the 34 shapes, K5 - e and K5 included, fits the cap.
        shapes = {m: shapes_up_to_isomorphism(5, m) for m in range(11)}
        assert sum(map(len, shapes.values())) == 34
        scanned = {m: set() for m in shapes}
        for m, data in five_vertex_codes:
            scanned[m].add(data)
        assert sum(map(len, scanned.values())) == 82_208
        for m, group in shapes.items():
            expected = {code(graph) for shape in group for graph in enumerate_orderings(shape)}
            assert scanned[m] == expected

    def test_six_vertices_exceed_the_cap_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the scan coded a class before checking its cap")

        monkeypatch.setattr(necessity, "_least_step", no_work)
        classes = scan_classes(6)
        with pytest.raises(Inconclusive, match="K_6 has 1816214400 ordering classes"):
            next(classes)

    def test_a_huge_f_max_stops_at_the_first_level_over_the_cap(self):
        # (C(f,2))!/f! is never built past K_6, so no integer grows with f_max.
        with pytest.raises(Inconclusive, match="^K_6 has 1816214400 ordering classes, over "):
            next(scan_classes(10**6))


class TestNecessityWitness:
    def test_fmax_two_no_witness(self):
        for kind in (LD_MIN, ALL_STAR_TYPES[7]):
            report = necessity_witness(kind, 2)
            assert report.witness is None
            assert not report.refutation

    def test_reports_deterministic(self):
        first = necessity_witness(LD_MIN, 4)
        _profile_table.cache_clear()
        second = necessity_witness(LD_MIN, 4)
        assert first.witness == second.witness
        assert first.classes_scanned == second.classes_scanned

    def test_claims_reverify(self):
        for kind in ALL_STAR_TYPES:
            report = necessity_witness(kind, 4)
            assert report.f_searched == 4
            if report.witness is None:
                assert not report.refutation
                continue
            assert report.refutation
            witness = report.witness
            target_host, _ = star_canonical_clique(kind, witness.n)
            assert find_embedding(witness, target_host) is None
            assert not is_tileable(witness).value
            for other, emb in report.certificates.items():
                host, _ = star_canonical_clique(other, witness.n)
                assert verify_embedding(witness, host, emb)

    @pytest.mark.parametrize("claim", ["certificate", "refutation"])
    def test_failed_claim_raises(self, monkeypatch, claim):
        # A fake profile claims one edge on three vertices avoids LD_MIN.
        profile = sum(1 << i for i, kind in enumerate(ALL_STAR_TYPES) if kind != LD_MIN)
        edge = build_graph(3, [(0, 1, 1)])
        monkeypatch.setattr(necessity, "_profile_table", lambda *args: ((edge, profile),))
        if claim == "certificate":
            # The type loop finds no certificate for one other type (and none
            # for the target, so only the missing certificate can raise).
            other = ALL_STAR_TYPES[-1]
            type_checks = necessity._type_checks

            def missing(graph, checks, budget):
                for kind, emb in type_checks(graph, checks, budget):
                    yield kind, None if kind in (LD_MIN, other) else emb

            monkeypatch.setattr(necessity, "_type_checks", missing)
        with pytest.raises(CertificateError, match=claim):
            necessity_witness(LD_MIN, 2)

    def test_bad_fmax(self):
        with pytest.raises(BadSize):
            necessity_witness(LD_MIN, 1)

    def test_never_contradicts_established_list(self):
        # A "none found" within a bounded scan must never be read as
        # redundancy of an established-necessary type.
        assert len(ESTABLISHED_NECESSARY) == 8
        for kind in ESTABLISHED_NECESSARY:
            report = necessity_witness(kind, 3)
            if report.witness is None:
                assert report.f_searched == 3  # bounded statement only


class TestWitnessTable:
    """Each tabled witness certifies, and so does its reverse for the dual type."""

    def test_established_types_are_the_witnessed_ones(self):
        assert ESTABLISHED_NECESSARY == tuple(k for k in ALL_STAR_TYPES if k in WITNESSES)
        assert set(ESTABLISHED_NECESSARY) == {
            kind
            for kind in ALL_STAR_TYPES
            if (kind.family.value.startswith("smaller") and kind.part.value in ("min", "inv-min"))
            or (kind.family.value.startswith("larger") and kind.part.value in ("max", "inv-max"))
        }

    @pytest.mark.parametrize("kind", list(WITNESSES), ids=str)
    def test_witness_and_its_reverse_certify(self, kind):
        witness = path_with_ranks(WITNESSES[kind])
        assert witness.n == 8
        certificates = _certify_witness(witness, kind, SearchBudget())
        assert set(certificates) == set(ALL_STAR_TYPES) - {kind}
        mirrored = _certify_witness(reverse(witness), dual(kind), SearchBudget())
        assert set(mirrored) == set(ALL_STAR_TYPES) - {dual(kind)}
        # The dual type's tabled path is that reverse, read from its other end.
        assert are_order_isomorphic(reverse(witness), path_with_ranks(WITNESSES[dual(kind)]))

    def test_witness_certification_runs_under_python_O(self):
        # Certification rests on explicit checks, not on assert: under -O all
        # eight witnesses still certify and a wrong target is still refused.
        script = (
            "from eotile import SearchBudget\n"
            "from eotile.characterize import path_with_ranks\n"
            "from eotile.errors import CertificateError\n"
            "from eotile.necessity import WITNESSES, _certify_witness\n"
            "print(sum(len(_certify_witness(path_with_ranks(r), k, SearchBudget()))\n"
            "          for k, r in WITNESSES.items()))\n"
            "kinds = list(WITNESSES)\n"
            "try:\n"
            "    _certify_witness(path_with_ranks(WITNESSES[kinds[0]]), kinds[1], SearchBudget())\n"
            "except CertificateError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "152",
            f"witness certificate for {list(WITNESSES)[0]} failed re-verification",
        ]


class TestOneBudget:
    """A profile table and a witness certification each run on one budget."""

    def test_profile_table_runs_on_one_budget(self):
        # The seven classes on at most three vertices take 10 nodes in all:
        # the empty graphs pass every type with no search, and the twenty
        # cliques on three vertices are one ordering, searched once.
        assert len(_profile_table(3, SearchBudget(10, math.inf))) == 7
        with pytest.raises(Inconclusive, match="node budget 9 exhausted"):
            _profile_table(3, SearchBudget(9, math.inf))

    def test_children_search_only_the_types_their_parents_passed(self):
        # The 91 classes on at most four vertices take 2,826 nodes; searching
        # each for every clique instead of those its parents embed into
        # takes 3,038.
        assert len(_profile_table(4, SearchBudget(2_826, math.inf))) == 91
        with pytest.raises(Inconclusive, match="node budget 2825 exhausted"):
            _profile_table(4, SearchBudget(2_825, math.inf))

    def test_witness_certification_runs_on_one_budget(self, monkeypatch):
        # One edge on three vertices embeds into each of the twenty types
        # after 2 nodes, so its full run takes 40.
        profile = sum(1 << i for i, kind in enumerate(ALL_STAR_TYPES) if kind != LD_MIN)
        edge = build_graph(3, [(0, 1, 1)])
        monkeypatch.setattr(necessity, "_profile_table", lambda *args: ((edge, profile),))
        with pytest.raises(CertificateError, match="refutation"):
            necessity_witness(LD_MIN, 2, SearchBudget(node_limit=40))
        with pytest.raises(Inconclusive, match="node budget 39 exhausted"):
            necessity_witness(LD_MIN, 2, SearchBudget(node_limit=39))

    def test_calls_on_one_budget_add_up(self):
        budget = SearchBudget()
        _profile_table(4, budget)
        assert budget.nodes == 2_826
        # The same budget reads the same table again, with no search ...
        _profile_table(4, budget)
        assert budget.nodes == 2_826
        # ... and a further search on it adds to its count.
        assert is_tileable(path_with_ranks("123"), budget).value
        assert budget.nodes == 2_826 + 80

    def test_witness_scan_bounds_table_and_certification_together(self, monkeypatch):
        # No class on at most five vertices is a witness, so the f_max = 3
        # table gets the tabled witness for smaller-dec.min as a last row,
        # with its profile.  The table takes 10 nodes and the certification
        # 1,659: each fits under 1,668 alone, the scan needs both.
        kind = StarType(StarFamily.SMALLER_DEC, CanonicalType.MIN)
        witness = path_with_ranks(WITNESSES[kind])
        real = necessity._class_profiles

        def with_witness(f_max, budget):
            yield from real(f_max, budget)
            yield witness, necessity._ALL_TYPES ^ 1 << ALL_STAR_TYPES.index(kind)

        monkeypatch.setattr(necessity, "_class_profiles", with_witness)
        own = SearchBudget(node_limit=1_668)
        assert _profile_table(3, own)[-1][0] is witness and own.nodes == 10
        own = SearchBudget(node_limit=1_668)
        assert len(_certify_witness(witness, kind, own)) == 19 and own.nodes == 1_659
        budget = SearchBudget(node_limit=1_669)
        report = necessity_witness(kind, 3, budget)
        assert (report.witness, report.refutation, report.classes_scanned) == (witness, True, 8)
        assert budget.nodes == 1_669
        with pytest.raises(Inconclusive, match="node budget 1668 exhausted"):
            necessity_witness(kind, 3, SearchBudget(node_limit=1_668))


class TestSufficiencyProbe:
    def test_all_twenty_suffice(self):
        assert sufficiency_probe(set(ALL_STAR_TYPES), 4) is None

    def test_coincident_four_yield_d4(self):
        counterexample = sufficiency_probe(set(CANONICAL_COINCIDENT_TYPES), 4)
        assert counterexample is not None
        assert are_order_isomorphic(counterexample, d_graph(4)) is not None
        assert is_turanable(counterexample).value
        assert not is_tileable(counterexample).value

    def test_smaller_counterexamples_exist_with_four_edges(self):
        # The four-edge Turanable ordering of the four-cycle also separates;
        # the scan returns the five-edge one because denser classes where a
        # full clique family is refuted come first.
        from eotile.characterize import c4_1243

        assert is_turanable(c4_1243()).value
        assert not is_tileable(c4_1243()).value

    def test_omitting_one_type_at_fmax_four(self):
        subset = frozenset(k for k in ALL_STAR_TYPES if k != LD_MIN)
        counterexample = sufficiency_probe(subset, 4)
        # any result must genuinely separate: passes 19, fails the omitted
        if counterexample is not None:
            host, _ = star_canonical_clique(LD_MIN, counterexample.n)
            assert find_embedding(counterexample, host) is None

    @pytest.mark.parametrize("f_max", [-3, 0, 1])
    def test_bad_fmax(self, f_max):
        # Below two vertices no class fails a type, so a None would read as
        # "this subset suffices".
        with pytest.raises(BadSize, match="f_max >= 2"):
            sufficiency_probe({LD_MIN}, f_max)

    def test_unknown_type_rejected(self):
        with pytest.raises(BadSpec, match="unknown star types"):
            sufficiency_probe({"not-a-type"}, 4)

    def test_deterministic(self):
        first = sufficiency_probe(set(CANONICAL_COINCIDENT_TYPES), 4)
        _profile_table.cache_clear()
        second = sufficiency_probe(set(CANONICAL_COINCIDENT_TYPES), 4)
        assert first == second
