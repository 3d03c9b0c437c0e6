"""Internal invariants raise InternalInconsistencyError; an assert statement
would vanish under `python -O`, and a raised AssertionError reads as one, so
the package must contain neither."""

import ast
import pathlib

import upq_packets


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_source_has_no_assert_statements():
    src = pathlib.Path(upq_packets.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []
