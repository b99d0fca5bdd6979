"""CLI: document round trips, DOT export, commands, report stability."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

import eotile
from eotile import DuplicateEdge, ParseError, build_graph, canonical_clique, monotone_path_graph
from eotile.canonical import CanonicalType
from eotile.characterize import d_graph, family_graph, path_with_ranks
from eotile import characterize, cli
from eotile import embed as embed_module
from eotile import tiling as tiling_module
from eotile.cli import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    default_budget,
    emit_report,
    export_dot,
    main,
    parse_graph,
    run_experiment,
    serialize_graph,
)
from eotile.errors import BadSpec, CertificateError


def three_k8s_and_a_path():
    """Three K_8s and a 4-vertex path, vertices and ranks shuffled: the path
    holds no 4-clique."""
    rng = np.random.default_rng(8)
    pairs = [(8 * b + u, 8 * b + v) for b in range(3) for u, v in combinations(range(8), 2)]
    pairs += [(24, 25), (25, 26), (26, 27)]
    label, ranks = rng.permutation(28), rng.permutation(len(pairs)) + 1
    return build_graph(
        28, [(int(label[u]), int(label[v]), int(r)) for (u, v), r in zip(pairs, ranks)]
    )


class TestGraphDocuments:
    def test_parse_simple(self):
        g = parse_graph(b'{"n":3,"edges":[[0,1,1],[1,2,2]]}')
        assert g == build_graph(3, [(0, 1, 1), (1, 2, 2)])

    def test_round_trip(self):
        for g in (d_graph(4), canonical_clique(CanonicalType.INV_MAX, 5), build_graph(0, [])):
            assert parse_graph(serialize_graph(g)) == g

    def test_serialized_edges_sorted_by_rank(self):
        doc = json.loads(serialize_graph(d_graph(4)))
        ranks = [e[2] for e in doc["edges"]]
        assert ranks == sorted(ranks)

    def test_deterministic_bytes(self):
        g = canonical_clique(CanonicalType.MIN, 4)
        assert serialize_graph(g) == serialize_graph(g)

    def test_invariant_errors_pass_through(self):
        with pytest.raises(DuplicateEdge):
            parse_graph(b'{"n":2,"edges":[[0,1,1],[0,1,2]]}')

    def test_schema_errors(self):
        for bad in (b"{", b"[1,2]", b'{"n":2}', b'{"n":"2","edges":[]}',
                    b'{"n":2,"edges":[[0,1]]}', b'{"n":2,"edges":[[0,1,"x"]]}'):
            with pytest.raises(ParseError):
                parse_graph(bad)


class TestDotExport:
    def test_single_edge(self):
        out = export_dot(build_graph(2, [(0, 1, 1)])).decode()
        assert '0 -- 1 [label="1"];' in out

    def test_k3_has_three_edge_lines(self):
        out = export_dot(canonical_clique(CanonicalType.MIN, 3)).decode()
        assert out.count(" -- ") == 3

    def test_empty_graph(self):
        out = export_dot(build_graph(0, [])).decode()
        assert out == "graph eotile {\n}\n"


class TestCommands:
    def test_gen_canonical(self, capsys):
        assert main(["gen", "canonical", "--type", "min", "-n", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 4 and len(doc["edges"]) == 6

    def test_gen_star_reports_special(self, capsys):
        assert main(["gen", "star", "--type", "larger-dec.min", "-n", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["special"] == 4

    def test_gen_family_dot(self, capsys):
        assert main(["gen", "family", "D(4)", "--dot"]) == 0
        assert "graph eotile {" in capsys.readouterr().out

    def test_check_turanable(self, capsys, tmp_path):
        path = tmp_path / "d4.json"
        path.write_bytes(serialize_graph(d_graph(4)))
        assert main(["check", "turanable", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"turanable": True}

    def test_check_turanable_builds_no_clique(self, capsys, tmp_path, monkeypatch):
        # Each canonical order is certified by label, so one edge among 600
        # vertices builds no K_600.
        def unreachable(*args):
            raise AssertionError("canonical clique built")

        monkeypatch.setattr(characterize, "canonical_clique", unreachable)
        path = tmp_path / "edge600.json"
        path.write_bytes(b'{"n": 600, "edges": [[0, 1, 1]]}')
        assert main(["check", "turanable", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"turanable": True}

    def test_check_tileable_failing_type(self, capsys, tmp_path):
        path = tmp_path / "d4.json"
        path.write_bytes(serialize_graph(d_graph(4)))
        assert main(["check", "tileable", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"failing": "larger-dec.min", "tileable": False}

    def test_tile_exact(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 6)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 3)))
        assert main(["tile", "exact", "--host", str(host), "--piece", str(piece)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tiled"] is True
        assert out["pieces"] == [[0, 1, 2], [3, 4, 5]]

    def test_tile_dense(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 8)))
        assert main(["tile", "dense", "--host", str(host), "-k", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["tiled"] is True

    def test_tile_clique_negative_is_not_a_proof(self, capsys, tmp_path):
        # Two disjoint 4-cycles hold no K_4, so the clique tiler finds nothing,
        # yet the exact solver tiles them by paths 132.
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(build_graph(8, [
            (0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4),
            (4, 5, 5), (5, 6, 6), (6, 7, 7), (4, 7, 8),
        ])))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(path_with_ranks("132")))
        files = ["--host", str(host), "--piece", str(piece)]
        for _ in range(2):  # the degree warning is one plain line, on every run
            assert main(["tile", "clique", *files, "-T", "4"]) == 0
            captured = capsys.readouterr()
            assert captured.out == '{"reason":"no-clique-tiling","tiled":false}\n'
            assert captured.err == "warning: minimum degree 2 below (1-1/4)n\n"
        assert main(["tile", "exact", *files]) == 0
        assert json.loads(capsys.readouterr().out)["tiled"] is True

    @pytest.mark.parametrize("command", [["exact"], ["clique", "-T", "1"]])
    def test_tile_a_thousand_one_vertex_pieces(self, capsys, tmp_path, command):
        # A cover of a thousand sets backtracks on a stack, not by recursion.
        host = tmp_path / "host.json"
        host.write_bytes(b'{"n":1000,"edges":[]}')
        piece = tmp_path / "piece.json"
        piece.write_bytes(b'{"n":1,"edges":[]}')
        assert main(["tile", *command, "--host", str(host), "--piece", str(piece)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "pieces": [[v] for v in range(1000)],
            "tiled": True,
        }

    def test_necessity_probe(self, capsys):
        assert main(
            [
                "necessity", "probe", "--f-max", "4", "--types",
                "smaller-inc.min", "larger-inc.max",
                "smaller-dec.inv-min", "larger-dec.inv-max",
            ]
        ) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counterexample"] is not None
        assert out["counterexample"]["n"] == 4

    def test_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n":2,"edges":[[0,1,1],[0,1,2]]}')
        assert main(["check", "turanable", str(bad)]) == 1

    def test_inconclusive_exit_code(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "2")
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 8)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 4)))
        assert main(["tile", "exact", "--host", str(host), "--piece", str(piece)]) == 2

    def test_clique_tiler_covers_each_component_alone(self, capsys, tmp_path, monkeypatch):
        # The path, the smallest component, is covered first and refuted at
        # its one 4-set; a cover of all 28 vertices at once backtracks
        # through the K_8s' cliques past any limit of 1,000 nodes.
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "1000")
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(three_k8s_and_a_path()))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(monotone_path_graph(1)))
        argv = ["tile", "clique", "--host", str(host), "--piece", str(piece), "-T", "4"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out == '{"reason":"no-clique-tiling","tiled":false}\n'
        assert captured.err == "warning: minimum degree 1 below (1-1/4)n\n"

    def test_clique_tiler_counts_sets_without_cliques(self, capsys, tmp_path, monkeypatch):
        # A path has no 6-clique, so no clique is ever tiled and no piece
        # searched; each of the C(59, 5) sets the clique cover tries costs a node.
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "1000")
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(monotone_path_graph(59)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(monotone_path_graph(2)))
        argv = ["tile", "clique", "--host", str(host), "--piece", str(piece), "-T", "6"]
        assert main(argv) == 2
        assert "node budget 1000 exhausted" in capsys.readouterr().err


class TestExperiments:
    def test_seed_required(self):
        with pytest.raises(BadSpec):
            ExperimentSpec("rodl-threshold", {})

    def test_unknown_name(self):
        with pytest.raises(BadSpec, match="unknown experiment 'nope'"):
            run_experiment(ExperimentSpec("nope", {"seed": 1}))

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_byte_identical_reports(self, name):
        params = {
            "theorem1-grid": {"seed": 42, "n": 8, "k": 1, "trials": 3},
            "rodl-threshold": {"seed": 7, "n": 10, "k": 2, "trials": 5},
            "necessity-scan": {"seed": 0, "f_max": 3},
            "catalog-verdicts": {"seed": 0, "f_max": 3},
        }[name]
        first = emit_report(run_experiment(ExperimentSpec(name, params)))
        second = emit_report(run_experiment(ExperimentSpec(name, params)))
        assert first == second

    def test_different_seeds_differ(self):
        base = {"n": 10, "k": 2, "trials": 5}
        a = emit_report(run_experiment(ExperimentSpec("rodl-threshold", {**base, "seed": 1})))
        b = emit_report(run_experiment(ExperimentSpec("rodl-threshold", {**base, "seed": 2})))
        assert a != b

    def test_report_schema(self):
        report = run_experiment(
            ExperimentSpec("rodl-threshold", {"seed": 3, "n": 10, "k": 2, "trials": 4})
        )
        assert set(report) == {"spec", "trials", "summary"}
        for row in report["trials"]:
            assert set(row) == {"input_digest", "outcome", "certificate_digest", "wall_ms"}

    def test_grid_trials_verified(self):
        report = run_experiment(
            ExperimentSpec("theorem1-grid", {"seed": 5, "n": 9, "k": 2, "trials": 4})
        )
        assert report["summary"]["successes"] == 4
        assert report["summary"]["extremal_refuted"] is True

    @pytest.mark.parametrize(
        "n, k, eta, min_degree", [(8, 1, 0.3, 7), (9, 2, 0.3, 8), (10, 1, 0.1, 6), (8, 1, 0.25, 6)]
    )
    def test_grid_min_degree_is_the_exact_ceiling(self, n, k, eta, min_degree):
        # ceil((1/2+eta)n) on the decimal eta spells: 6.4 -> 7, 7.2 -> 8, and
        # 0.6 * 10 is 6, not the 7 that eta's binary value would round to.
        params = {"seed": 0, "n": n, "k": k, "eta": eta, "trials": 0}
        spec = ExperimentSpec("theorem1-grid", params)
        assert run_experiment(spec)["summary"]["min_degree"] == min_degree

    @pytest.mark.parametrize("params", [["n=18", "k=2", "eta=0.49"], ["n=2", "k=1"]])
    def test_grid_refuses_a_min_degree_past_n_minus_one(self, capsys, monkeypatch, params):
        # No graph on n vertices has minimum degree n, whatever edge_prob is.
        def no_draw(*args):
            raise AssertionError("sampled a host")

        monkeypatch.setattr(cli, "_random_min_degree_host", no_draw)
        argv = ["experiment", "theorem1-grid", "--seed", "0"]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: parameter eta must ")

    @pytest.mark.parametrize("name", EXPERIMENT_NAMES)
    def test_negative_seed_exit_code(self, capsys, name):
        assert main(["experiment", name, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter seed must be an integer >= 0, got -1\n"

    def test_seed_is_checked_when_the_spec_is_built(self):
        with pytest.raises(BadSpec, match="parameter seed must be an integer >= 0"):
            ExperimentSpec("rodl-threshold", {"seed": -3})
        with pytest.raises(BadSpec, match="parameter seed must be an integer"):
            ExperimentSpec("catalog-verdicts", {"seed": "0"})

    @pytest.mark.parametrize(
        "name, param, keys",
        [
            ("rodl-threshold", "trails=1", "edges, k, n, seed, trials"),
            ("theorem1-grid", "trails=1", "edge_prob, eta, k, n, seed, trials"),
            ("catalog-verdicts", "n=3", "f_max, seed"),
            ("necessity-scan", "trials=1", "f_max, seed"),
        ],
    )
    def test_unread_parameter_exit_code(self, capsys, monkeypatch, name, param, keys):
        def no_work(*args):
            raise AssertionError("ran the experiment")

        monkeypatch.setattr(cli, "default_budget", no_work)
        assert main(["experiment", name, "--seed", "0", "--param", param]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key = param.split("=")[0]
        assert captured.err == f"error: parameter {key} must be one of {keys}\n"

    def test_grid_rejects_infeasible_cell(self):
        with pytest.raises(BadSpec):
            run_experiment(
                ExperimentSpec("theorem1-grid", {"seed": 5, "n": 8, "k": 2, "trials": 1})
            )

    @pytest.mark.parametrize(
        "name, f_max, digest",
        [
            ("catalog-verdicts", 4, "744ea661c740265c7856cd6ac406a69bdbd494ff88d875c7d9325a884a5b4175"),
            ("necessity-scan", 4, "f387dcd05ad2d6688ea80a448061211f554a04597e91693f55bae329d991cdff"),
            ("catalog-verdicts", 5, "c94933c0c2a39c17ef47da03e9d617e468131b4c91fe122984710a211232f35f"),
            ("necessity-scan", 5, "c94cb552c5432115fc501becab64972e99c92d407eaa54f4ae010f42caa40613"),
        ],
    )
    def test_f_max_four_and_five_report_bytes_are_pinned(self, name, f_max, digest):
        # At f_max = 4, the same SHA-256 values the benchmark's catalog
        # workload checks; at 5, the frontier reports.
        report = emit_report(run_experiment(ExperimentSpec(name, {"f_max": f_max, "seed": 0})))
        assert hashlib.sha256(report).hexdigest() == digest

    def test_experiment_command(self, capsys):
        assert main(
            ["experiment", "rodl-threshold", "--seed", "7",
             "--param", "n=10", "--param", "k=2", "--param", "trials=3"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["found"] == 3


class TestModuleEntryPoint:
    def test_python_dash_m_prints_what_main_prints(self, capsys):
        argv = ["gen", "family", "D(4)"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "eotile", *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected.encode()

    def test_warnings_precede_the_error_line_under_default_filters(self, tmp_path):
        # A command that warns and then fails: its UserWarning becomes a
        # warning: line ahead of the error: line, while a DeprecationWarning
        # stays hidden, as Python's default filters hide it outside __main__.
        script = tmp_path / "warn_then_fail.py"
        script.write_text(
            "import sys, warnings\n"
            "from eotile import cli\n"
            "from eotile.errors import BadSpec\n"
            "def handler(args):\n"
            "    warnings.warn('old', DeprecationWarning, stacklevel=2)\n"
            "    warnings.warn('first', UserWarning, stacklevel=2)\n"
            "    raise BadSpec('failed')\n"
            "cli._cmd_check = handler\n"
            "sys.exit(cli.main(['check', 'universal', '-']))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, env={**env, "PYTHONPATH": src}
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == b"warning: first\nerror: failed\n"


class TestBadInput:
    """Bad input ends in exit code 1 and a message, never a traceback."""

    @pytest.mark.parametrize("raw", ["abc", "0", "-5", "1.5", ""])
    def test_bad_node_budget_is_bad_spec(self, monkeypatch, raw):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", raw)
        with pytest.raises(BadSpec, match="EOTILE_NODE_BUDGET"):
            default_budget()

    def test_good_node_budget(self, monkeypatch):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "77")
        assert default_budget().node_limit == 77

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_node_budget_exit_code(self, capsys, tmp_path, monkeypatch, raw):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", raw)
        path = tmp_path / "d4.json"
        path.write_bytes(serialize_graph(d_graph(4)))
        assert main(["check", "turanable", str(path)]) == 1
        assert "EOTILE_NODE_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, param",
        [
            ("catalog-verdicts", "f_max=abc"),
            ("catalog-verdicts", "f_max=null"),
            ("catalog-verdicts", "f_max=1.5"),
            ("necessity-scan", "f_max=true"),
            ("theorem1-grid", "n=x"),
            ("theorem1-grid", "eta=x"),
            ("theorem1-grid", "eta=-1"),
            ("theorem1-grid", "k=-1"),
            ("rodl-threshold", "edges=-1"),
            ("rodl-threshold", "n=-3"),
            ("theorem1-grid", "edge_prob=2"),
            ("theorem1-grid", "edge_prob=0"),
            pytest.param("theorem1-grid", "n=8" + "0" * 399, id="theorem1-grid-n-400-digits"),
            pytest.param(
                "theorem1-grid", "n=8" + "0" * 5000, id="theorem1-grid-n-past-int-digit-limit"
            ),
            ("rodl-threshold", "n=1001"),
            ("rodl-threshold", "k=300000"),
            ("rodl-threshold", "edges=46"),
            ("catalog-verdicts", "f_max=-2"),
            ("catalog-verdicts", "f_max=0"),
            ("necessity-scan", "f_max=1"),
            ("necessity-scan", "f_max=-2"),
        ],
    )
    def test_bad_experiment_parameter_exit_code(self, capsys, name, param):
        assert main(["experiment", name, "--seed", "0", "--param", param]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        key = param.split("=")[0]
        assert captured.err.startswith(f"error: parameter {key} must ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["canonical", "--type", "min"],
            ["star", "--type", "larger-dec.min"],
            ["extremal", "--kind", "TwoCliques", "-k", "2"],
        ],
        ids=["canonical", "star", "extremal"],
    )
    def test_gen_refuses_huge_n_before_building(self, capsys, monkeypatch, argv):
        def unreachable(*args, **kwargs):
            raise AssertionError("builder reached")

        for builder in ("canonical_clique", "star_canonical_clique", "extremal_construction"):
            monkeypatch.setattr(cli, builder, unreachable)
        assert main(["gen", *argv, "-n", "1001"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter n must be at most 1000, got 1001\n"

    @pytest.mark.parametrize("n", [1001, 10**9])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "turanable", "BIG"],
            ["check", "tileable", "BIG"],
            ["tile", "exact", "--host", "BIG", "--piece", "EDGE"],
            ["tile", "exact", "--host", "EDGE", "--piece", "BIG"],
        ],
        ids=["check-turanable", "check-tileable", "tile-host", "tile-piece"],
    )
    def test_graph_documents_over_the_cap_are_refused(
        self, capsys, tmp_path, monkeypatch, argv, n
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("solver reached")

        for solver in ("is_turanable", "is_tileable", "perfect_tiling_exact"):
            monkeypatch.setattr(cli, solver, unreachable)
        big = tmp_path / "big.json"
        big.write_bytes(b'{"n": %d, "edges": []}' % n)
        edge = tmp_path / "edge.json"
        edge.write_bytes(serialize_graph(build_graph(2, [(0, 1, 1)])))
        files = {"BIG": str(big), "EDGE": str(edge)}
        assert main([files.get(arg, arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: field 'n' must be at most 1000, got {n}\n"

    @pytest.mark.parametrize(
        "descriptor, vertices",
        [("MonoPath(1000000000)", 1000000001), ("D(1001)", 1001), ("Dplus(1000)", 1001)],
    )
    def test_gen_family_refuses_huge_families_before_building(
        self, capsys, monkeypatch, descriptor, vertices
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("builder reached")

        for builder in ("monotone_path_graph", "d_graph"):
            monkeypatch.setattr(characterize, builder, unreachable)
        assert main(["gen", "family", descriptor]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = descriptor.split("(")[0]
        assert captured.err == f"error: family {name} has {vertices} vertices, over 1000\n"

    def test_gen_family_at_the_cap(self, capsys):
        assert main(["gen", "family", "MonoPath(999)"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 1000

    def test_tile_clique_refuses_an_empty_piece(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 4)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(b'{"n": 0, "edges": []}')
        assert main(["tile", "clique", "--host", str(host), "--piece", str(piece)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: piece must have at least one vertex\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "bogus", "x"],
            ["tile", "dense", "--host", "x", "-k", "notanint"],
            ["experiment", "nosuch", "--seed", "0"],
            ["tile", "dense", "--host", "x", "-k", "3", "--seed", "0"],
        ],
        ids=["choice", "type", "experiment", "dense-seed"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        # argparse exits 2 by default, which here means "inconclusive".
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: eotile ") and "error: " in captured.err

    def test_help_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: eotile ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["theorem1-grid", "--param", "n=9", "--param", "k=2", "--param", "trials=2"],
            ["catalog-verdicts", "--param", "f_max=3"],
            ["rodl-threshold", "--param", "trials=2"],
        ],
        ids=["theorem1-grid", "catalog-verdicts", "rodl-threshold"],
    )
    def test_experiments_honour_node_budget(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "1")
        assert main(["experiment", *argv, "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget 1 exhausted" in captured.err

    def test_catalog_verdicts_runs_on_one_budget(self, capsys, monkeypatch):
        # All searches of the f_max=4 catalog take 2,826 nodes on one budget.
        argv = ["experiment", "catalog-verdicts", "--seed", "0", "--param", "f_max=4"]
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "2826")
        assert main(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "2825")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget 2825 exhausted" in captured.err

    # At its defaults, theorem1-grid's 21 tilings take at most 12 nodes each
    # and 240 in all, and its 20 hosts 53 draws of one node each, 293 in all;
    # rodl-threshold's 100 path searches at most 3 each and 300 in all.  A
    # limit of 100 bounds the experiment, not each call.
    @pytest.mark.parametrize("name", ["theorem1-grid", "rodl-threshold"])
    def test_node_budget_bounds_the_whole_experiment(self, capsys, monkeypatch, name):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "100")
        assert main(["experiment", name, "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "inconclusive: node budget 100 exhausted\n"

    def test_node_budget_bounds_the_host_sampler(self, capsys, monkeypatch):
        # No host on 60 vertices at edge_prob 0.5 has minimum degree 45; each
        # draw counts one node, so the sampler stops at the budget, not after
        # 100,000 draws.
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "1000")
        argv = ["experiment", "theorem1-grid", "--seed", "0"]
        argv += ["--param", "n=60", "--param", "edge_prob=0.5", "--param", "trials=1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "inconclusive: node budget 1000 exhausted\n"

    def test_node_budget_bounds_the_whole_experiment_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(eotile.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "eotile", "experiment", "theorem1-grid", "--seed", "0"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src, "EOTILE_NODE_BUDGET": "100"},
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == b""
        assert proc.stderr == b"inconclusive: node budget 100 exhausted\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["witness", "--target", "larger-dec.min", "--f-max", "3"],
            ["probe", "--types", "larger-dec.min", "smaller-inc.min", "--f-max", "3"],
        ],
        ids=["witness", "probe"],
    )
    def test_necessity_honours_node_budget(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("EOTILE_NODE_BUDGET", "1")
        assert main(["necessity", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "node budget 1 exhausted" in captured.err

    def test_probe_below_two_vertices_exit_code(self, capsys):
        argv = ["necessity", "probe", "--f-max", "-3", "--types", "larger-dec.min"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sufficiency probe needs f_max >= 2")

    def test_necessity_scan_over_the_cap_exit_code(self, capsys):
        assert main(["necessity", "witness", "--target", "larger-dec.min", "--f-max", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inconclusive: K_6 has") and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["necessity", "witness", "--target", "larger-dec.min", "--f-max", "60"],
            ["necessity", "probe", "--types", "larger-dec.min", "--f-max", "60"],
            ["experiment", "necessity-scan", "--seed", "0", "--param", "f_max=60"],
            ["experiment", "catalog-verdicts", "--seed", "0", "--param", "f_max=1000000"],
            ["necessity", "witness", "--target", "larger-dec.min", "--f-max", "6"],
            ["necessity", "probe", "--types", "larger-dec.min", "--f-max", "6"],
            ["experiment", "necessity-scan", "--seed", "0", "--param", "f_max=6"],
            ["experiment", "catalog-verdicts", "--seed", "0", "--param", "f_max=6"],
        ],
        ids=[
            "witness-60", "probe-60", "necessity-scan-60", "catalog-10**6",
            "witness-6", "probe-6", "necessity-scan-6", "catalog-6",
        ],
    )
    def test_f_max_far_past_the_cap_exit_code(self, capsys, argv):
        # The cap message names K_6 however large f_max is, and builds no
        # integer too long to format.  A cap is a limit, so the command is
        # inconclusive, as when a node budget runs out.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "inconclusive: K_6 has 1816214400 ordering classes, over 50000\n"

    def test_tile_clique_over_the_class_cap_exit_code(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 8)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(path_with_ranks("123")))
        argv = ["tile", "clique", "--host", str(host), "--piece", str(piece), "--t-max", "8"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "inconclusive: 28! labelings make over 50000 classes\n"

    @pytest.mark.parametrize("k", ["-1", "0"])
    def test_two_cliques_nonpositive_k_exit_code(self, capsys, k):
        assert main(["gen", "extremal", "--kind", "TwoCliques", "-n", "10", "-k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: TwoCliques needs k >= 1, got {k}\n"

    @pytest.mark.parametrize(
        "k, message",
        [
            ("1000000000", "|piece|=1000000001 does not divide |host|=4"),
            ("0", "monotone path needs k >= 1, got 0"),
            ("-1", "monotone path needs k >= 1, got -1"),
        ],
    )
    def test_tile_dense_checks_k_before_building_the_path(self, capsys, tmp_path, k, message):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 4)))
        assert main(["tile", "dense", "--host", str(host), "-k", k]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_tile_dense_caps_the_path_on_an_empty_host(self, capsys, tmp_path):
        # Every path divides an empty host, so only the cap stops the build.
        host = tmp_path / "host.json"
        host.write_bytes(b'{"n": 0, "edges": []}')
        assert main(["tile", "dense", "--host", str(host), "-k", "1000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: family MonoPath has 1001 vertices, over 1000\n"

    def test_tile_dense_path_at_the_cap_tiles_an_empty_host(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_bytes(b'{"n": 0, "edges": []}')
        assert main(["tile", "dense", "--host", str(host), "-k", "999"]) == 0
        assert capsys.readouterr().out == '{"pieces":[],"tiled":true}\n'

    @pytest.mark.parametrize(
        "command, family",
        [
            (["clique"], "MonoPath(3)"),
            (["clique"], "D(4)"),
            (["clique"], "PathRanks(132)"),
            (["clique", "-T", "4"], "MonoPath(3)"),
            (["exact"], "MonoPath(3)"),
        ],
    )
    def test_tile_checks_sizes_before_any_search(self, capsys, tmp_path, command, family):
        # Without -T the clique tiler would first search for T(F).
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 9)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(family_graph(family)))
        assert main(["tile", *command, "--host", str(host), "--piece", str(piece)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: |piece|=4 does not divide |host|=9\n"

    @pytest.mark.parametrize("name", ["missing.json", "."], ids=["missing", "directory"])
    def test_unreadable_graph_file_exit_code(self, capsys, tmp_path, name):
        path = tmp_path / name
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(build_graph(2, [(0, 1, 1)])))
        assert main(["tile", "clique", "--host", str(path), "--piece", str(piece), "-T", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read") and str(path) in captured.err

    def test_zero_clique_size_exit_code(self, capsys, tmp_path):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 4)))
        piece = tmp_path / "piece.json"
        piece.write_bytes(serialize_graph(build_graph(2, [(0, 1, 1)])))
        assert main(["tile", "clique", "--host", str(host), "--piece", str(piece), "-T", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: clique size 0")

    def test_rejection_sampling_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLING_DRAWS", 50)
        argv = ["experiment", "theorem1-grid", "--seed", "0",
                "--param", "n=8", "--param", "k=1", "--param", "edge_prob=0.05"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "inconclusive: no host with minimum degree 6 in 50 draws; raise edge_prob\n"
        )


class TestCertificateChecks:
    """A certificate that fails the library's one check raises CertificateError,
    which the CLI reports on stderr with nothing on stdout."""

    @pytest.mark.parametrize("module", [tiling_module], ids=["tiling"])
    def test_tile_dense_exit_code(self, capsys, tmp_path, monkeypatch, module):
        host = tmp_path / "host.json"
        host.write_bytes(serialize_graph(canonical_clique(CanonicalType.MIN, 8)))
        monkeypatch.setattr(module, "verify_tiling", lambda *args: False)
        assert main(["tile", "dense", "--host", str(host), "-k", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "failed re-verification" in captured.err

    @pytest.mark.parametrize(
        "name, checker",
        [("theorem1-grid", "verify_tiling"), ("rodl-threshold", "verify_embedding")],
    )
    def test_experiment_certificates(self, monkeypatch, name, checker):
        module = tiling_module if checker == "verify_tiling" else embed_module
        monkeypatch.setattr(module, checker, lambda *args: False)
        spec = ExperimentSpec(name, {"seed": 5, "n": 9, "k": 2, "trials": 2})
        with pytest.raises(CertificateError, match="failed re-verification"):
            run_experiment(spec)
