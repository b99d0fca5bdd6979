"""Command-line frontend: graph I/O, generators, decisions, tilings, reports.

Graphs travel as JSON documents ``{"n": int, "edges": [[u, v, rank], ...]}``
with edges serialized in ascending rank order.  Experiment reports are
canonical JSON whose bytes depend only on the spec and seed.

Exit codes: 0 decided, 2 inconclusive (budget ran out), 1 error, usage
errors included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Any, Optional

from .canonical import (
    ALL_STAR_TYPES,
    CANONICAL_COINCIDENT_TYPES,
    CANONICAL_ORDER,
    CanonicalType,
    StarType,
    canonical_clique,
    star_canonical_clique,
)
from .characterize import family_graph, is_tileable, is_turanable, is_universally_tileable
from .core import EdgeOrderedGraph, build_graph, chromatic_number
from .embed import (
    Embedding,
    SearchBudget,
    find_monotone_path,
    monotone_path_graph,
    verify_embedding,
)
from .errors import (
    BadSpec,
    CertificateError,
    EotileError,
    Inconclusive,
    ParseError,
    SamplingFailed,
    UnknownExperiment,
)
from .necessity import _class_profiles, necessity_witness, sufficiency_probe
from .tiling import (
    Tiling,
    TilerConfig,
    extremal_construction,
    perfect_tiling_exact,
    tile_dense_paths,
    tile_via_cliques,
    tiling_number,
    verify_tiling,
)

if TYPE_CHECKING:
    import numpy as np

# Draws before theorem1-grid's host sampler gives up on a minimum degree.
MAX_SAMPLING_DRAWS = 100_000

# Largest n of a random host.  Each draw lists all C(n,2) pairs, about
# 5*10^5 at this cap; a far larger n would spend its time and memory there
# before any search, and one past float range cannot be sampled at all.
MAX_HOST_VERTICES = 1_000


def default_budget() -> SearchBudget:
    """Search budget for CLI-invoked solvers; EOTILE_NODE_BUDGET overrides.

    A value that is not a positive integer raises :class:`BadSpec`.
    """
    raw = os.environ.get("EOTILE_NODE_BUDGET")
    if raw is None:
        return SearchBudget()
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise BadSpec(f"EOTILE_NODE_BUDGET must be a positive integer, got {raw!r}")
    return SearchBudget(node_limit=limit)


# --------------------------------------------------------------------------
# Graph documents


def graph_to_doc(graph: EdgeOrderedGraph) -> dict[str, Any]:
    return {"n": graph.n, "edges": [[u, v, r] for u, v, r in graph.edges]}


def serialize_graph(graph: EdgeOrderedGraph) -> bytes:
    return canonical_json(graph_to_doc(graph))


def parse_graph(document: bytes | str) -> EdgeOrderedGraph:
    """Parse a GraphDocument; schema errors raise ParseError, invariant
    violations raise the same errors as build_graph."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} col {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if "n" not in doc or "edges" not in doc:
        raise ParseError("document needs fields 'n' and 'edges'")
    n = doc["n"]
    edges = doc["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("field 'n' must be an integer")
    if not isinstance(edges, list):
        raise ParseError("field 'edges' must be a list")
    triples = []
    for i, entry in enumerate(edges):
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        ):
            raise ParseError(f"edges[{i}] must be [u, v, rank] integers")
        triples.append(tuple(entry))
    return build_graph(n, triples)


def export_dot(graph: EdgeOrderedGraph) -> bytes:
    """DOT text with ranks as edge labels, deterministic ordering."""
    lines = ["graph eotile {"]
    for v in range(graph.n):
        lines.append(f"  {v};")
    for u, v, r in graph.edges:
        lines.append(f'  {u} -- {v} [label="{r}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("ascii")


def canonical_json(obj: Any) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _embedding_digest(emb: Embedding) -> str:
    return _digest(canonical_json(list(emb.vertex_map)))


def _tiling_digest(tiling: Tiling) -> str:
    return _digest(canonical_json(sorted(list(p.vertex_map) for p in tiling.pieces)))


# --------------------------------------------------------------------------
# Experiments


@dataclass(frozen=True)
class ExperimentSpec:
    """A named experiment plus its parameter map; the seed is mandatory."""

    name: str
    parameters: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "seed" not in self.parameters:
            raise BadSpec("experiment spec requires a seed")

    @property
    def seed(self) -> int:
        return _param(self.parameters, "seed", None)


def _param(
    params: dict[str, Any], key: str, default: Any, kind: type = int, low: Optional[int] = None
) -> Any:
    """Parameter ``key`` of an experiment, ``default`` when absent.

    ``kind=int`` takes an integer, ``kind=float`` any finite number, and
    either at least ``low`` when given; any other value raises
    :class:`BadSpec` naming the key.
    """
    value = params.get(key, default)
    accepted = (int,) if kind is int else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, accepted)
        or (isinstance(value, float) and not math.isfinite(value))
        or (low is not None and value < low)
    ):
        wanted = "an integer" if kind is int else "a finite number"
        bound = "" if low is None else f" >= {low}"
        raise BadSpec(f"parameter {key} must be {wanted}{bound}, got {value!r}")
    return kind(value)


def _host_size(params: dict[str, Any], default: int) -> int:
    n = _param(params, "n", default, low=1)
    if n > MAX_HOST_VERTICES:
        raise BadSpec(f"parameter n must be at most {MAX_HOST_VERTICES}, got {n}")
    return n


def _row(input_digest: str, outcome: str, certificate_digest: str = "") -> dict[str, Any]:
    """One trial of a report; ``wall_ms`` is pinned to 0 (see :func:`run_experiment`)."""
    return {
        "input_digest": input_digest,
        "outcome": outcome,
        "certificate_digest": certificate_digest,
        "wall_ms": 0,
    }


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # One stream per trial, split deterministically from the master seed.
    import numpy as np  # here only, so that commands that sample nothing start without it

    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _random_min_degree_host(
    rng: np.random.Generator, n: int, min_degree: int, edge_prob: float
) -> EdgeOrderedGraph:
    """Random host: rejection-sample the underlying graph until the minimum
    degree holds, then apply a uniformly random rank permutation."""
    pairs = list(combinations(range(n), 2))
    for _ in range(MAX_SAMPLING_DRAWS):
        mask = rng.random(len(pairs)) < edge_prob
        degrees = [0] * n
        chosen = [p for p, keep in zip(pairs, mask) if keep]
        for u, v in chosen:
            degrees[u] += 1
            degrees[v] += 1
        if chosen and min(degrees) >= min_degree:
            ranks = rng.permutation(len(chosen)) + 1
            return build_graph(n, [(u, v, int(r)) for (u, v), r in zip(chosen, ranks)])
    raise SamplingFailed(
        f"no host with minimum degree {min_degree} in {MAX_SAMPLING_DRAWS} draws; "
        "raise edge_prob"
    )


def _random_edge_count_host(
    rng: np.random.Generator, n: int, edge_count: int
) -> EdgeOrderedGraph:
    pairs = list(combinations(range(n), 2))
    picked = rng.choice(len(pairs), size=edge_count, replace=False)
    ranks = rng.permutation(edge_count) + 1
    return build_graph(
        n, [(pairs[int(i)][0], pairs[int(i)][1], int(r)) for i, r in zip(picked, ranks)]
    )


def _experiment_theorem1_grid(spec: ExperimentSpec, budget: SearchBudget) -> dict[str, Any]:
    p = spec.parameters
    n = _host_size(p, 8)
    k = _param(p, "k", 1, low=1)
    if n % (k + 1) != 0:
        raise BadSpec(f"grid cell infeasible: {k + 1} does not divide n={n}")
    trials = _param(p, "trials", 20, low=0)
    eta = _param(p, "eta", 0.25, float)
    if not 0 < eta < 0.5:
        raise BadSpec(f"parameter eta must lie in (0, 1/2), got {eta}")
    edge_prob = _param(p, "edge_prob", 0.9, float)
    if not 0 < edge_prob <= 1:
        raise BadSpec(f"parameter edge_prob must lie in (0, 1], got {edge_prob}")
    min_degree = -(-int((0.5 + eta) * 2 * n) // 2)  # ceil((1/2+eta)n)
    piece = monotone_path_graph(k)
    config = TilerConfig(absorb_budget=budget)
    trial_rows = []
    successes = 0
    for index in range(trials):
        rng = _trial_rng(spec.seed, index)
        host = _random_min_degree_host(rng, n, min_degree, edge_prob)
        tiling = tile_dense_paths(host, k, config)
        if tiling is not None:
            if not verify_tiling(host, piece, tiling):
                raise CertificateError(f"trial {index}: tiling failed re-verification")
            successes += 1
        digest = _digest(serialize_graph(host))
        if tiling is None:
            trial_rows.append(_row(digest, "no-tiling"))
        else:
            trial_rows.append(_row(digest, "tiled", _tiling_digest(tiling)))
    extremal = extremal_construction("TwoCliques", n, k)
    refuted = perfect_tiling_exact(extremal, piece, budget) is None
    summary = {
        "trials": trials,
        "successes": successes,
        "min_degree": min_degree,
        "extremal_refuted": refuted,
    }
    return {"trials": trial_rows, "summary": summary}


def _experiment_rodl_threshold(spec: ExperimentSpec, budget: SearchBudget) -> dict[str, Any]:
    p = spec.parameters
    n = _host_size(p, 10)
    k = _param(p, "k", 2, low=1)
    trials = _param(p, "trials", 100, low=0)
    if k > n - 1:
        raise BadSpec(f"parameter k must be at most n - 1 = {n - 1}, got {k}")
    edges = _param(p, "edges", k * (k + 1) * n // 2, low=0)
    if edges > math.comb(n, 2):
        raise BadSpec(f"parameter edges must be at most C(n, 2) = {math.comb(n, 2)}, got {edges}")
    piece = monotone_path_graph(k)
    trial_rows = []
    found = 0
    for index in range(trials):
        rng = _trial_rng(spec.seed, index)
        host = _random_edge_count_host(rng, n, edges)
        emb = find_monotone_path(host, k, budget)
        if emb is not None:
            if not verify_embedding(piece, host, emb):
                raise CertificateError(f"trial {index}: path failed re-verification")
            found += 1
        digest = _digest(serialize_graph(host))
        if emb is None:
            trial_rows.append(_row(digest, "not-found"))
        else:
            trial_rows.append(_row(digest, "found", _embedding_digest(emb)))
    summary = {"trials": trials, "found": found, "edges": edges}
    return {"trials": trial_rows, "summary": summary}


def _experiment_necessity_scan(spec: ExperimentSpec, budget: SearchBudget) -> dict[str, Any]:
    f_max = _param(spec.parameters, "f_max", 4, low=2)
    trial_rows = []
    witnesses = 0
    for kind in ALL_STAR_TYPES:
        witness = necessity_witness(kind, f_max, budget).witness
        witnesses += witness is not None
        digest = _digest(kind.label.encode("ascii"))
        if witness is None:
            trial_rows.append(_row(digest, "none"))
        else:
            trial_rows.append(_row(digest, "witness", _digest(serialize_graph(witness))))
    summary = {"f_max": f_max, "targets": len(ALL_STAR_TYPES), "witnesses": witnesses}
    return {"trials": trial_rows, "summary": summary}


def _experiment_catalog_verdicts(spec: ExperimentSpec, budget: SearchBudget) -> dict[str, Any]:
    """Each class's verdict read off its type profile: Turanable iff it
    embeds into the four ``CANONICAL_COINCIDENT_TYPES`` cliques, which are
    the canonical cliques up to order isomorphism; tileable iff into all
    twenty.  Every search of the experiment runs on ``budget``."""
    f_max = _param(spec.parameters, "f_max", 4, low=1)
    coincident = [ALL_STAR_TYPES.index(kind) for kind in CANONICAL_COINCIDENT_TYPES]
    trial_rows = []
    turanable = tileable = 0
    max_chromatic = 0
    for graph, profile in _class_profiles(f_max, budget):
        verdict = "not-turanable"
        if all(profile[i] for i in coincident):
            turanable += 1
            max_chromatic = max(max_chromatic, chromatic_number(graph))
            verdict = "turanable-only"
            if all(profile):
                tileable += 1
                verdict = "tileable"
        trial_rows.append(_row(_digest(serialize_graph(graph)), verdict))
    summary = {
        "f_max": f_max,
        "classes": len(trial_rows),
        "turanable": turanable,
        "tileable": tileable,
        "max_turanable_chromatic": max_chromatic,
    }
    return {"trials": trial_rows, "summary": summary}


_EXPERIMENTS = {
    "theorem1-grid": _experiment_theorem1_grid,
    "rodl-threshold": _experiment_rodl_threshold,
    "necessity-scan": _experiment_necessity_scan,
    "catalog-verdicts": _experiment_catalog_verdicts,
}

EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(spec: ExperimentSpec) -> dict[str, Any]:
    """Execute a named experiment; the report depends only on spec and seed.

    The wall_ms field exists for schema compatibility and is pinned to 0 in
    canonical reports so that identical specs give identical bytes.  Every
    solver call gets the one :func:`default_budget`: ``theorem1-grid`` and
    ``rodl-threshold`` meter each call on its own, ``necessity-scan`` meters
    its profile table once and each witness certification once, and
    ``catalog-verdicts`` meters the whole experiment once.  A parameter of
    the wrong type raises :class:`BadSpec` naming it.
    """
    if spec.name not in _EXPERIMENTS:
        raise UnknownExperiment(f"unknown experiment {spec.name!r}")
    body = _EXPERIMENTS[spec.name](spec, default_budget())
    return {
        "spec": {"name": spec.name, "parameters": dict(sorted(spec.parameters.items()))},
        "trials": body["trials"],
        "summary": body["summary"],
    }


def emit_report(report: dict[str, Any]) -> bytes:
    return canonical_json(report)


# --------------------------------------------------------------------------
# Command handlers


def _read_graph_arg(path: str) -> EdgeOrderedGraph:
    if path == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from exc
    return parse_graph(data)


def _emit_graph(graph: EdgeOrderedGraph, as_dot: bool) -> None:
    data = export_dot(graph) if as_dot else serialize_graph(graph)
    sys.stdout.write(data.decode("utf-8"))


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.what == "canonical":
        graph = canonical_clique(CanonicalType(args.type), args.n)
    elif args.what == "star":
        graph, special = star_canonical_clique(StarType.parse(args.type), args.n)
        if not args.dot:
            doc = graph_to_doc(graph)
            doc["special"] = special
            sys.stdout.write(canonical_json(doc).decode("utf-8"))
            return 0
    elif args.what == "family":
        graph = family_graph(args.descriptor)
    elif args.what == "extremal":
        graph = extremal_construction(args.kind, args.n, args.k, args.gamma)
    else:  # pragma: no cover - argparse restricts choices
        raise BadSpec(args.what)
    _emit_graph(graph, args.dot)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    graph = _read_graph_arg(args.graph)
    budget = default_budget()
    if args.what == "turanable":
        verdict = is_turanable(graph, budget)
        out = {"turanable": verdict.value}
        if not verdict.value:
            out["failing"] = verdict.failing.value
    elif args.what == "tileable":
        verdict = is_tileable(graph, budget)
        out = {"tileable": verdict.value}
        if not verdict.value:
            out["failing"] = verdict.failing.label
    else:
        out = {"universally_tileable": is_universally_tileable(graph)}
    sys.stdout.write(canonical_json(out).decode("utf-8"))
    return 0


def _cmd_tile(args: argparse.Namespace) -> int:
    host = _read_graph_arg(args.host)
    budget = default_budget()
    if args.mode == "exact":
        piece = _read_graph_arg(args.piece)
        tiling = perfect_tiling_exact(host, piece, budget)
    elif args.mode == "dense":
        piece = monotone_path_graph(args.k)
        tiling = tile_dense_paths(host, args.k, TilerConfig(absorb_budget=budget))
    else:
        piece = _read_graph_arg(args.piece)
        t_value = args.T
        if t_value is None:
            t_value = tiling_number(piece, args.t_max, budget)
            if t_value is None:
                sys.stdout.write(canonical_json({"tiled": False, "reason": "no-T"}).decode())
                return 0
        tiling = tile_via_cliques(host, piece, t_value, budget)
    if tiling is None:
        out: dict[str, Any] = {"tiled": False}
        if args.mode == "clique":  # not a proof: `tile exact` decides
            out["reason"] = "no-clique-tiling"
    elif not verify_tiling(host, piece, tiling):
        raise CertificateError("tiling failed re-verification")
    else:
        out = {
            "tiled": True,
            "pieces": sorted(list(p.vertex_map) for p in tiling.pieces),
        }
    sys.stdout.write(canonical_json(out).decode("utf-8"))
    return 0


def _cmd_necessity(args: argparse.Namespace) -> int:
    if args.mode == "witness":
        report = necessity_witness(StarType.parse(args.target), args.f_max, default_budget())
        out = {
            "target": report.target.label,
            "witness": graph_to_doc(report.witness) if report.witness else None,
            "f_searched": report.f_searched,
            "refutation": report.refutation,
            "classes_scanned": report.classes_scanned,
        }
    else:
        subset = frozenset(StarType.parse(t) for t in args.types)
        counterexample = sufficiency_probe(subset, args.f_max, default_budget())
        out = {
            "subset": sorted(t.label for t in subset),
            "counterexample": graph_to_doc(counterexample) if counterexample else None,
            "f_max": args.f_max,
        }
    sys.stdout.write(canonical_json(out).decode("utf-8"))
    return 0


def _parse_params(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise BadSpec(f"parameter {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except ValueError:  # not JSON, or an integer past the digit limit of int()
            out[key] = value
    return out


def _cmd_experiment(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    params["seed"] = args.seed
    spec = ExperimentSpec(args.name, params)
    report = run_experiment(spec)
    sys.stdout.write(emit_report(report).decode("utf-8"))
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 like any other bad input; 2 means inconclusive.

    Subparsers are made with the parser's own class, so they exit 1 too.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eotile", description="edge-ordered graph tilings toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate graphs")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    g_canon = gen_sub.add_parser("canonical")
    g_canon.add_argument("--type", required=True, choices=[t.value for t in CANONICAL_ORDER])
    g_canon.add_argument("-n", type=int, required=True)
    g_canon.add_argument("--dot", action="store_true")
    g_canon.set_defaults(func=_cmd_gen)
    g_star = gen_sub.add_parser("star")
    g_star.add_argument("--type", required=True, help="family.part, e.g. larger-dec.min")
    g_star.add_argument("-n", type=int, required=True, help="clique size including x")
    g_star.add_argument("--dot", action="store_true")
    g_star.set_defaults(func=_cmd_gen)
    g_family = gen_sub.add_parser("family")
    g_family.add_argument("descriptor", help="e.g. D(4), MonoCycle(5), PathRanks(132)")
    g_family.add_argument("--dot", action="store_true")
    g_family.set_defaults(func=_cmd_gen)
    g_ext = gen_sub.add_parser("extremal")
    g_ext.add_argument("--kind", required=True, choices=["TwoCliques", "Bipartite"])
    g_ext.add_argument("-n", type=int, required=True)
    g_ext.add_argument("-k", type=int, default=1)
    g_ext.add_argument("--gamma", type=float, default=None)
    g_ext.add_argument("--dot", action="store_true")
    g_ext.set_defaults(func=_cmd_gen)

    check = sub.add_parser("check", help="decision procedures")
    check.add_argument("what", choices=["turanable", "tileable", "universal"])
    check.add_argument("graph", help="path to a GraphDocument, or - for stdin")
    check.set_defaults(func=_cmd_check)

    tile = sub.add_parser("tile", help="perfect tiling solvers")
    tile_sub = tile.add_subparsers(dest="mode", required=True)
    t_exact = tile_sub.add_parser("exact")
    t_exact.add_argument("--host", required=True)
    t_exact.add_argument("--piece", required=True)
    t_exact.set_defaults(func=_cmd_tile)
    t_dense = tile_sub.add_parser("dense")
    t_dense.add_argument("--host", required=True)
    t_dense.add_argument("-k", type=int, required=True)
    t_dense.set_defaults(func=_cmd_tile)
    t_clique = tile_sub.add_parser("clique")
    t_clique.add_argument("--host", required=True)
    t_clique.add_argument("--piece", required=True)
    t_clique.add_argument("-T", type=int, default=None)
    t_clique.add_argument("--t-max", type=int, default=5)
    t_clique.set_defaults(func=_cmd_tile)

    nec = sub.add_parser("necessity", help="type necessity scans")
    nec_sub = nec.add_subparsers(dest="mode", required=True)
    n_wit = nec_sub.add_parser("witness")
    n_wit.add_argument("--target", required=True)
    n_wit.add_argument("--f-max", type=int, default=4)
    n_wit.set_defaults(func=_cmd_necessity)
    n_probe = nec_sub.add_parser("probe")
    n_probe.add_argument("--types", nargs="+", required=True)
    n_probe.add_argument("--f-max", type=int, default=4)
    n_probe.set_defaults(func=_cmd_necessity)

    exp = sub.add_parser("experiment", help="seeded experiment runner")
    exp.add_argument("name", choices=EXPERIMENT_NAMES)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--param", action="append", default=[], help="key=value")
    exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except EotileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
