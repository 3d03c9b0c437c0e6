"""Internal invariants raise InternalInconsistencyError; an assert statement
would vanish under `python -O`, so the package must contain none."""

import ast
import pathlib

import upq_packets


def test_package_source_has_no_assert_statements():
    src = pathlib.Path(upq_packets.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
