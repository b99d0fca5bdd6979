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
