"""Source lint: certificate and consistency checks must survive ``python -O``."""

import ast
from pathlib import Path

import eotile

SOURCE = Path(eotile.__file__).parent


def test_no_assert_statements_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.rglob("*.py"))) > 1
    assert found == [], "assert is stripped under -O; raise explicitly instead"


def raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_raise_assertion_error_in_the_package():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if raises_assertion_error(node)
    ]
    assert found == [], "raise CertificateError for a failed check, not AssertionError"


def test_raise_assertion_error_is_detected():
    tree = ast.parse("raise AssertionError('x')\nraise AssertionError\nraise ValueError")
    assert [raises_assertion_error(node) for node in tree.body] == [True, True, False]


def calls_induced_subgraph(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "induced_subgraph"


def test_only_core_calls_induced_subgraph():
    # Subset searches take ``within=``: no module builds an induced subgraph,
    # searches it and lifts the answer back.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if calls_induced_subgraph(node)
    ]
    assert found == [], "search inside a vertex subset with within=, not induced_subgraph"


def test_induced_subgraph_call_is_detected():
    tree = ast.parse("induced_subgraph(g, s)\ncore.induced_subgraph(g, s)\ninduced_subgraph")
    assert [calls_induced_subgraph(node.value) for node in tree.body] == [True, True, False]


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
