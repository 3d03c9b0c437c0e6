"""Every name a package module imports is used in that module.  Simplifying
changes delete the last use of a name and tend to leave its import behind.
`__init__.py` imports names to re-export them, so it is not checked."""

import ast
import pathlib

import upq_packets


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_package_modules_use_every_import():
    src = pathlib.Path(upq_packets.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []
