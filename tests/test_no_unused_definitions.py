"""Every function, method and class the package defines is named somewhere
in the package, `perfbench/` or `tools/`.  Simplifying changes delete the
last caller of a helper and tend to leave the helper behind.

A name counts as named when it appears, outside its own `def` or `class`
line, as a name, an attribute, an imported name or a word of a string that
is not a docstring (perfbench wraps functions it names in strings).
Dunder methods are called by Python itself and are not checked.
`__init__.py` imports names to re-export them, so its names do not count.

The check goes by name alone: a dead method that shares its name with a
live one is not seen.  Every `to_json` passes because some `to_json` is
called, whether or not that class's is.  So the names that more than one
class or module defines are pinned: a new one fails until someone has
checked that every definition of it is read.
"""

import ast
import collections
import pathlib
import re

import upq_packets

SRC = pathlib.Path(upq_packets.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstrings(tree: ast.Module) -> set[int]:
    # The ids of the string constants that open a module, class or function.
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
    return out


def _named(tree: ast.Module) -> set[str]:
    docstrings = _docstrings(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_every_package_definition_is_named_somewhere():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    readers = modules + sorted((ROOT / "perfbench").rglob("*.py")) + sorted(
        (ROOT / "tools").glob("*.py"))
    named = set().union(*(_named(ast.parse(path.read_text())) for path in readers))
    unnamed = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not _is_dunder(node.name) and node.name not in named):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert unnamed == []


def _owners(tree: ast.Module, module: str) -> dict[str, set[str]]:
    # Each function or class defined at module level or in a class body,
    # by name, with the module or class that defines it.  Functions nested
    # in functions are local and left out.
    out = collections.defaultdict(set)

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[node.name].add(owner)
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{owner}.{node.name}")

    visit(tree.body, module)
    return out


def test_names_defined_by_more_than_one_class_or_module_are_pinned():
    # Each of these is read on every class or module that defines it:
    # AParameter._chi and KWeight._chi; packets.inf_char and
    # InductionDescriptor.inf_char; AParameter.sizes and ThetaData.sizes;
    # and every to_json, which the CLI's JSON and the report write.
    owners = collections.defaultdict(set)
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            for name, where in _owners(ast.parse(path.read_text()), path.stem).items():
                owners[name] |= where
    shared = {name for name, where in owners.items() if len(where) > 1 and not _is_dunder(name)}
    assert shared == {"_chi", "inf_char", "sizes", "to_json"}
