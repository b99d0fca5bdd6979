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
