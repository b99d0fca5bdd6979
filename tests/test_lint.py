"""Source lint: certificate and consistency checks must survive ``python -O``,
and the package keeps its layering and its one error contract."""

import ast
from pathlib import Path

import eotile

SOURCE = Path(eotile.__file__).parent
# The classes a refusal may raise, and that only cli.main may catch.
ERROR_CLASSES = frozenset(
    node.name
    for node in ast.parse((SOURCE / "errors.py").read_text()).body
    if isinstance(node, ast.ClassDef)
)


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.rglob("*.py"))) > 1
    assert found == [], "assert is stripped under -O; raise explicitly instead"


def name_of(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def raises(node, name):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    return name_of(node.exc.func if isinstance(node.exc, ast.Call) else node.exc) == name


def raises_foreign_class(node):
    """Whether ``node`` raises a class that ``errors.py`` does not define; a
    bare ``raise`` re-raises and names none."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    return not any(raises(node, name) for name in ERROR_CLASSES)


def test_no_raise_assertion_error_in_the_package():
    # Every refusal is a class from eotile.errors, so cli.main can give each
    # an exit code; AssertionError and ValueError are not among them.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if raises_foreign_class(node)
    ]
    assert found == [], "raise a class from eotile.errors (CertificateError for a failed check)"


def test_raise_assertion_error_is_detected():
    tree = ast.parse(
        "raise AssertionError('x')\n"
        "raise AssertionError\n"
        "raise ValueError('node limit')\n"
        "raise CertificateError('x')\n"
        "raise errors.Inconclusive('x') from None\n"
        "raise\n"
    )
    assert [raises_foreign_class(node) for node in tree.body] == [
        True, True, True, False, False, False
    ]


def calls(node, name):
    return isinstance(node, ast.Call) and name_of(node.func) == name


def test_only_core_calls_induced_subgraph():
    # Subset searches take ``within=``: no module builds an induced subgraph,
    # searches it and lifts the answer back.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if calls(node, "induced_subgraph")
    ]
    assert found == [], "search inside a vertex subset with within=, not induced_subgraph"


def test_induced_subgraph_call_is_detected():
    tree = ast.parse("induced_subgraph(g, s)\ncore.induced_subgraph(g, s)\ninduced_subgraph")
    assert [calls(node.value, "induced_subgraph") for node in tree.body] == [True, True, False]


def test_only_core_calls_least_state():
    # Scans grow classes by one edge and take one _least_step per child from
    # a shared state; relabeling every class from scratch belongs to core.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if calls(node, "_least_state")
    ]
    assert found == [], "step a least-sequence state with _least_step, not _least_state"


def test_least_state_call_is_detected():
    tree = ast.parse(
        "_least_state(n, seq)\ncore._least_state(n, seq)\n_least_state\n"
        "_least_step(state, a, b)"
    )
    assert [calls(node.value, "_least_state") for node in tree.body] == [
        True, True, False, False
    ]


def reached_calls(tree, roots):
    """Names called by the functions ``roots`` of ``tree``, directly or
    through the module-level functions of ``tree`` that they call."""
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            if name in bodies:
                todo += [name_of(n.func) for n in ast.walk(bodies[name]) if isinstance(n, ast.Call)]
    return reached


ISOMORPHISMS = ("order_isomorphisms", "are_order_isomorphic", "count_order_automorphisms")


def test_isomorphisms_run_no_search():
    # An order-isomorphism maps the rank-i edge to the rank-i edge, so its
    # map is forced but for flips and isolated vertices; the kernel would
    # search for what a closed form gives.  A surviving star subset is one
    # K_f, compared with each generated clique by that forced map.
    tree = ast.parse((SOURCE / "embed.py").read_text(), filename="embed.py")
    for root in (*ISOMORPHISMS, "find_star_canonical_subclique"):
        assert reached_calls(tree, [root]).isdisjoint({"_embeddings", "find_embedding"}), root
    # The forced map is still checked, as every certificate is.
    assert "_certified" in reached_calls(tree, ["are_order_isomorphic"])
    assert "_certified" in reached_calls(tree, ["find_star_canonical_subclique"])


def test_search_reached_through_a_helper_is_detected():
    tree = ast.parse(
        "def order_isomorphisms(a, b):\n"
        "    return _forced(a, b)\n"
        "def _forced(a, b):\n"
        "    return embed.find_embedding(a, b)\n"
        "def count_order_automorphisms(p):\n"
        "    return len(list(order_isomorphisms))\n"
    )
    assert "find_embedding" in reached_calls(tree, ["order_isomorphisms"])
    assert "find_embedding" not in reached_calls(tree, ["count_order_automorphisms"])


def test_canonical_checks_run_no_search():
    # An embedding into a complete canonical clique is a vertex order, so
    # the Turan checks find it from precedence arcs; the order is still
    # certified, by label, with no clique built.
    tree = ast.parse((SOURCE / "characterize.py").read_text(), filename="characterize.py")
    for root in ("is_turanable", "turanable_four_coloring"):
        reached = reached_calls(tree, [root])
        assert reached.isdisjoint({"_embeddings", "find_embedding", "canonical_clique"}), root
        assert "_certified_order" in reached, root


def test_canonical_search_reached_through_a_helper_is_detected():
    tree = ast.parse(
        "def is_turanable(g):\n"
        "    return _verdict(g)\n"
        "def _verdict(g):\n"
        "    return _certified_order(k, n, p, embed._embeddings(g, canonical_clique(k, n), b))\n"
        "def turanable_four_coloring(g):\n"
        "    return _certified_order(k, n, p, vm)\n"
    )
    reached = reached_calls(tree, ["is_turanable"])
    assert {"_embeddings", "canonical_clique", "_certified_order"} <= reached
    reached = reached_calls(tree, ["turanable_four_coloring"])
    assert "_certified_order" in reached and "_embeddings" not in reached


# The module-level names holding the shared verdicts: one refusal per kind
# and the success of a pattern on at most two vertices.
SHARED_VERDICTS = {"_REFUSED", "_VACUOUS"}


def verdicts_made_per_call(tree):
    """Lines of ``Verdict(...)`` calls outside the module-level assignments
    to ``SHARED_VERDICTS`` that are not ``Verdict(True, certificates)``: a
    refusal, or a success with no certificates, made again on every call."""
    shared = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if name_of(target) in SHARED_VERDICTS
        for node in ast.walk(stmt)
    }

    def holds_certificates(node):
        value = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "value"), None
        )
        success = isinstance(value, ast.Constant) and value.value is True
        return success and (len(node.args) > 1 or "certificates" in {k.arg for k in node.keywords})

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if calls(node, "Verdict") and id(node) not in shared and not holds_certificates(node)
    )


def test_refusals_are_shared():
    # A refused check returns its kind's verdict from the table built at
    # import, so it allocates no verdict; only a success holds its own
    # certificates.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line in verdicts_made_per_call(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "return _REFUSED[kind] or _VACUOUS instead of a new Verdict"


def test_refusal_made_per_call_is_detected():
    tree = ast.parse(
        "_REFUSED = {kind: Verdict(False, failing=kind) for kind in KINDS}\n"
        "_VACUOUS: Verdict = Verdict(True)\n"
        "def check(graph, ok):\n"
        "    if graph.n <= 2:\n"
        "        return Verdict(True)\n"
        "    if not ok:\n"
        "        return Verdict(False, failing=kind)\n"
        "    if ok is None:\n"
        "        return characterize.Verdict(value=ok, certificates={})\n"
        "    return Verdict(True, MappingProxyType(certificates))\n"
        "OTHER = Verdict(False, failing=None)\n"
        "KEPT = Verdict(value=True, certificates=found)\n"
    )
    assert verdicts_made_per_call(tree) == [5, 7, 9, 11]


def lines_outside(tree, matches, allowed):
    """Lines of nodes that ``matches`` and no function named in ``allowed`` encloses."""
    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name in allowed
        if not inside and matches(node):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, False)
    return found


def calls_outside(tree, name, allowed):
    """Lines of calls to ``name`` that no function named in ``allowed`` encloses."""
    return lines_outside(tree, lambda node: calls(node, name), allowed)


def test_only_the_type_loop_calls_find_embedding():
    # Type checks go through _type_checks, whose peel cut refutes a graph
    # against a clique that peels from an end the graph does not.
    found = [
        f"{name}:{line}"
        for name in ("characterize.py", "necessity.py")
        for line in calls_outside(
            ast.parse((SOURCE / name).read_text(), filename=name),
            "find_embedding",
            {"_type_checks"},
        )
    ]
    assert found == [], "run type checks through _type_checks, not find_embedding"


def test_find_embedding_outside_the_type_loop_is_detected():
    tree = ast.parse(
        "def _type_checks(graph, checks, budget):\n"
        "    def search(host):\n"
        "        return find_embedding(graph, host)\n"
        "    return embed.find_embedding(graph, checks)\n"
        "def is_turanable(graph):\n"
        "    return find_embedding(graph, host)\n"
        "class Checks:\n"
        "    def run(self):\n"
        "        return embed.find_embedding(graph, host)\n"
        "found = find_embedding(graph, host) or find_embedding\n"
    )
    assert calls_outside(tree, "find_embedding", {"_type_checks"}) == [6, 9, 10]


def piece_finder_bypasses(tree):
    """Lines searching for a piece other than through ``_find_piece``."""
    return sorted(
        calls_outside(tree, "find_embedding", set())
        + calls_outside(tree, "_embeddings", {"_find_piece"})
    )


def test_tiling_searches_only_through_the_piece_finder():
    # Each tiling is checked whole, once; find_embedding would certify every
    # piece again, and a second kernel call would be a second finder.
    found = piece_finder_bypasses(
        ast.parse((SOURCE / "tiling.py").read_text(), filename="tiling.py")
    )
    assert found == [], "search for pieces with _find_piece"


def test_search_outside_the_piece_finder_is_detected():
    tree = ast.parse(
        "def _find_piece(piece, host, budget, subset):\n"
        "    for vm in _embeddings(piece, host, budget, subset):\n"
        "        return find_embedding(piece, host)\n"
        "def local_absorbers(host, x, y, k):\n"
        "    def path_on(*vertices):\n"
        "        return embed._embeddings(piece, host, budget, vertices)\n"
        "    return find_embedding(piece, host, within=vertices)\n"
        "found = _embeddings or _find_piece(piece, host, budget, subset)\n"
    )
    assert piece_finder_bypasses(tree) == [3, 6, 7]


# The functions that may call a certificate checker: the two certifiers every
# search returns through and the tiling checker itself.
CERTIFIERS = {
    "embed": {"_certified"},
    "tiling": {"_certified", "verify_tiling"},
}


def checker_calls(module, tree):
    """Lines of ``module`` calling a checker outside its allowed functions."""
    allowed = CERTIFIERS.get(module, set())
    return sorted(
        f"{module}:{line}"
        for checker in ("verify_embedding", "verify_tiling")
        for line in calls_outside(tree, checker, allowed)
    )


def test_only_certifiers_call_the_checkers():
    # A certificate is checked once, by the function that returns it; a second
    # call of the same checker on the same objects cannot fail.
    found = [
        line
        for path in sorted(SOURCE.rglob("*.py"))
        for line in checker_calls(path.stem, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "print what the library certified; do not check it again"


def test_checker_call_outside_a_certifier_is_detected():
    tree = ast.parse(
        "def _certified(host, piece, tiling):\n"
        "    return verify_tiling(host, piece, tiling)\n"
        "def verify_tiling(host, piece, tiling):\n"
        "    return verify_embedding(piece, host, tiling)\n"
        "def _cmd_tile(args):\n"
        "    return tiling.verify_tiling(host, piece, found)\n"
        "ok = verify_embedding(piece, host, emb) or verify_tiling\n"
    )
    assert checker_calls("tiling", tree) == ["tiling:6", "tiling:7"]
    assert checker_calls("embed", tree) == ["embed:4", "embed:6", "embed:7"]
    assert checker_calls("cli", tree) == ["cli:2", "cli:4", "cli:6", "cli:7"]
    tree = ast.parse(
        "def is_tileable(graph, budget=None):\n"
        "    return verify_embedding(graph, host, emb)\n"
    )
    assert checker_calls("characterize", tree) == ["characterize:2"]


# Only cli.main turns the package's errors into exit codes.  A handler naming
# one of them elsewhere would convert or swallow it on its way there, a broad
# one would catch them all, and one that raises Inconclusive turns some other
# outcome into an exhausted limit.
CAUGHT_ONLY_BY_MAIN = ERROR_CLASSES | {"Exception", "BaseException"}


def catches_broadly(node):
    """Whether ``node`` is a bare ``except``, one naming a package error or a
    broad exception, or one that converts what it caught into
    :class:`Inconclusive`."""
    if not isinstance(node, ast.ExceptHandler):
        return False
    if node.type is None:
        return True
    types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(name_of(kind) in CAUGHT_ONLY_BY_MAIN for kind in types) or any(
        raises(inner, "Inconclusive") for statement in node.body for inner in ast.walk(statement)
    )


def broad_handlers(module, tree):
    """Lines of ``module`` catching broadly outside ``cli.main``."""
    allowed = {"main"} if module == "cli" else set()
    return [f"{module}:{line}" for line in lines_outside(tree, catches_broadly, allowed)]


def test_only_the_cli_main_catches_inconclusive():
    # A cap or budget that runs out raises Inconclusive all the way up, and
    # every other error reaches the CLI as the class that was raised, so no
    # layer can turn one into another error, a None or a negative answer.
    found = [
        line
        for path in sorted(SOURCE.rglob("*.py"))
        for line in broad_handlers(path.stem, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "let the package's errors reach cli.main; catch only foreign ones"


def test_broad_handler_is_detected():
    source = (
        "def main(argv):\n"
        "    try:\n"
        "        run()\n"
        "    except Inconclusive:\n"
        "        return 2\n"
        "    except EotileError:\n"
        "        return 1\n"
        "def tiling_number(piece):\n"
        "    try:\n"
        "        run()\n"
        "    except OverCap as exc:\n"
        "        raise Inconclusive('over') from exc\n"
        "def add_two_pendants(graph):\n"
        "    try:\n"
        "        run()\n"
        "    except NotTuranable as exc:\n"
        "        raise BadAnchor('needs a Turanable graph') from exc\n"
        "try:\n"
        "    run()\n"
        "except (ValueError, errors.Inconclusive):\n"
        "    pass\n"
        "except ValueError:\n"
        "    pass\n"
        "except Exception:\n"
        "    pass\n"
        "except BaseException:\n"
        "    pass\n"
        "except:\n"
        "    pass\n"
    )
    tree = ast.parse(source)
    assert broad_handlers("cli", tree) == [
        "cli:11", "cli:16", "cli:20", "cli:24", "cli:26", "cli:28"
    ]
    assert broad_handlers("tiling", tree) == [
        "tiling:4", "tiling:6", "tiling:11", "tiling:16", "tiling:20", "tiling:24",
        "tiling:26", "tiling:28",
    ]


def reads_edges(node):
    return isinstance(node, ast.Attribute) and node.attr == "edges"


def test_only_core_and_cli_read_edges():
    # A graph stores its pairs by rank; ``edges`` derives (u, v, rank)
    # triples for documents, which no search should pay for.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name not in ("core.py", "cli.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if reads_edges(node)
    ]
    assert found == [], "read pairs_by_rank; only documents need the rank triples"


def test_edges_read_is_detected():
    tree = ast.parse("g.edges\nself.graph.edges[0]\ng.pairs_by_rank\nedges")
    assert [any(map(reads_edges, ast.walk(node))) for node in tree.body] == [
        True, True, False, False
    ]


# Each module may import only from lower layers; necessity and tiling share one.
LAYER = {
    "errors": 0,
    "core": 1,
    "canonical": 2,
    "embed": 3,
    "characterize": 4,
    "necessity": 5,
    "tiling": 5,
    "cli": 6,
    "__main__": 7,
}


def upward_imports(module, tree):
    """Module-level relative imports of ``module`` that do not go to a lower layer.

    Function-level imports are exempt: they run after every module loaded.
    """
    return [
        f"{module} imports {node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and not LAYER.get(node.module, len(LAYER)) < LAYER[module]
    ]


def test_modules_import_only_lower_layers():
    # Keeps the matcher from drifting back into core through an import cycle.
    modules = {path.stem: path for path in SOURCE.glob("*.py") if path.stem != "__init__"}
    assert sorted(modules) == sorted(LAYER), "place every module in a layer"
    found = [
        line
        for module, path in sorted(modules.items())
        for line in upward_imports(module, ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "import from a lower layer, or inside a function"


def test_upward_import_is_detected():
    tree = ast.parse(
        "from .core import build_graph\n"
        "from .embed import find_embedding\n"
        "from .canonical import canonical_clique\n"
        "from .unknown import thing\n"
        "import math\n"
        "def late():\n"
        "    from .tiling import tile_dense_paths\n"
    )
    assert upward_imports("canonical", tree) == [
        "canonical imports embed",
        "canonical imports canonical",
        "canonical imports unknown",
    ]


def eager_numpy_imports(tree):
    """Lines of numpy imports that run on import of the module: those outside
    every function and every ``if TYPE_CHECKING:`` block."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            nodes = node.orelse
        else:
            nodes = list(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(node.lineno)
        for child in nodes:
            visit(child)

    visit(tree)
    return found


def test_numpy_is_imported_only_inside_functions():
    # Only the CLI's random samplers use numpy; importing the package or
    # the CLI, and every command that samples nothing, skips its import time.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line in eager_numpy_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "import numpy inside the function that uses it"


def test_eager_numpy_import_is_detected():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "import numpyish, math\n"
        "if TYPE_CHECKING:\n"
        "    import numpy\n"
        "def sample():\n"
        "    import numpy\n"
        "class Sampler:\n"
        "    import numpy.random\n"
        "try:\n"
        "    import math, numpy\n"
        "except ImportError:\n"
        "    from numpy import random\n"
    )
    assert eager_numpy_imports(tree) == [1, 2, 9, 11, 13]


def import_time_budgets(tree):
    """Lines of ``SearchBudget(...)`` and ``TilerConfig(...)`` calls that run
    when the module is imported: at module level, in a class body (where a
    ``default_factory`` names the class and calls nothing), in a parameter
    default or in a decorator.  Function and lambda bodies run when called."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            deferred = node.body
        elif isinstance(node, ast.Lambda):
            deferred = [node.body]
        else:
            deferred = []
        if calls(node, "SearchBudget") or calls(node, "TilerConfig"):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            if not any(child is body for body in deferred):
                visit(child)

    visit(tree)
    return found


def test_no_budget_is_made_at_import_time():
    # A budget counts the nodes of every search given it and its clock runs
    # from when it is made, so a shared default would make unrelated calls
    # share one count and one clock.
    found = [
        f"{path.name}:{line}"
        for path in sorted(SOURCE.rglob("*.py"))
        for line in import_time_budgets(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == [], "make a fresh budget inside the call, or use default_factory"


def test_import_time_budget_is_detected():
    tree = ast.parse(
        "DEFAULT = SearchBudget()\n"
        "def solve(host, budget=embed.SearchBudget(5)):\n"
        "    return budget or SearchBudget()\n"
        "def tile(host, *, config=TilerConfig(), other=None):\n"
        "    return config\n"
        "class Config:\n"
        "    budget: SearchBudget = field(default_factory=SearchBudget)\n"
        "    eager: SearchBudget = SearchBudget()\n"
        "    shared: SearchBudget = field(default=SearchBudget(1))\n"
        "    lazy: TilerConfig = field(default_factory=lambda: TilerConfig(eta=0.1))\n"
        "    def fresh(self):\n"
        "        return SearchBudget()\n"
        "unlimited = lambda limit=SearchBudget(9): limit or SearchBudget()\n"
        "TABLE = [SearchBudget(n) for n in (1, 2)]\n"
        "@cache(SearchBudget())\n"
        "def run():\n"
        "    return TilerConfig()\n"
    )
    assert import_time_budgets(tree) == [1, 2, 4, 8, 9, 13, 14, 15]


def test_public_names_are_pinned():
    # A name added to or removed from the package surface must be deliberate:
    # change this list in the same commit and record it in CHANGES.md.
    assert sorted(eotile.__all__) == [
        "ALL_STAR_TYPES", "AbsorberSet", "BadAnchor", "BadDivisibility", "BadSize",
        "BadSpec", "BadSplit", "BadVertex", "CANONICAL_COINCIDENT_TYPES",
        "CANONICAL_ORDER", "CanonicalType", "CertificateError", "DegreeBoundWarning",
        "DuplicateEdge", "ESTABLISHED_NECESSARY", "EdgeOrderedGraph", "Embedding",
        "EotileError", "Inconclusive", "MissingEdge", "NecessityReport",
        "NotComplete", "NotTuranable", "ParseError", "RankCollision",
        "SearchBudget", "StarColor", "StarFamily", "StarType", "TilerConfig", "Tiling",
        "Verdict", "add_pendant", "add_two_pendants",
        "are_order_isomorphic", "build_graph", "c4_1243", "canonical_clique",
        "canonical_form", "canonical_labels", "chromatic_number",
        "classify_star_canonical", "count_copies", "count_order_automorphisms",
        "d_graph", "d_minus", "d_plus", "enumerate_orderings",
        "extremal_construction", "extremal_vertices", "family_graph", "find_embedding",
        "find_monotone_path", "find_star_canonical_subclique", "induced_subgraph",
        "is_tileable", "is_turanable", "is_universally_tileable", "iter_embeddings",
        "local_absorbers", "monotone_cycle", "monotone_hamilton_cycle",
        "monotone_path_graph", "monotone_star_subsequence",
        "necessity_witness", "order_isomorphisms", "path_with_ranks",
        "perfect_tiling_exact", "reverse", "scan_classes", "star_canonical_clique",
        "star_edge_coloring", "star_labels", "sufficiency_probe", "tile_dense_paths",
        "tile_via_cliques", "tiling_number", "turanable_four_coloring",
        "verify_embedding", "verify_tiling",
    ]
