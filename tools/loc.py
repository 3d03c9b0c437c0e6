"""Count the lines of code of Python files, per file and in total.

    python3 tools/loc.py [PATH ...] [--json]

PATH is a Python file or a directory, whose `*.py` files are counted (not
those of its subdirectories); the default is `src/upq_packets` of this
checkout.  A line of code is a line that holds a token other than a
comment and is not part of a docstring (the string that opens a module,
class or function body).  Blank lines, comment lines and docstring lines
are not counted.  Each file is printed with its lines and its lines of
code, then the total; `--json` prints the same as one JSON object.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    # The lines of every module, class and function docstring.
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(source: str) -> tuple[int, int]:
    """(lines, lines of code) of one file's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "upq_packets"])
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    files = [f for path in args.paths
             for f in (sorted(path.glob("*.py")) if path.is_dir() else [path])]
    per_file = {str(f): count(f.read_text(encoding="utf-8")) for f in files}
    total = [sum(c[0] for c in per_file.values()), sum(c[1] for c in per_file.values())]
    if args.json:
        print(json.dumps({"files": {name: {"lines": lines, "code": code}
                                    for name, (lines, code) in per_file.items()},
                          "total": {"lines": total[0], "code": total[1]}}, indent=1))
    else:
        width = max(map(len, per_file), default=5)
        for name, (lines, code) in per_file.items():
            print(f"{name:<{width}}  {lines:>6}  {code:>6}")
        print(f"{'total':<{width}}  {total[0]:>6}  {total[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
