"""The committed line counter, run on a small file and on the package."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _loc(*argv):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py"), *argv, "--json"],
                          check=True, capture_output=True, text=True, timeout=60)
    return json.loads(proc.stdout)


def test_loc_counts_only_lines_of_code(tmp_path):
    # Docstrings, comments and blank lines are not code; a string that is
    # not a docstring and each line of a statement that spans lines are.
    module = tmp_path / "module.py"
    module.write_text('"""Module docstring.\n\nIts second paragraph."""\n'
                      "\n"
                      "# A comment line.\n"
                      "import os  # a trailing comment\n"
                      "\n"
                      "\n"
                      "class C:\n"
                      '    """Class docstring."""\n'
                      "\n"
                      "    def f(self):\n"
                      "        '''Method\n"
                      "        docstring.'''\n"
                      "        text = '''not a\n"
                      "        docstring'''\n"
                      "        return (text,\n"
                      "                os.sep)\n")
    out = _loc(str(module))
    assert out["files"] == {str(module): {"lines": 18, "code": 7}}
    assert out["total"] == {"lines": 18, "code": 7}
    # With no path, each file of the package and their total.
    out = _loc()
    package = sorted((ROOT / "src" / "upq_packets").glob("*.py"))
    assert list(out["files"]) == [str(f) for f in package]
    assert out["total"]["lines"] == sum(len(f.read_text().splitlines()) for f in package)
    assert 0 < out["total"]["code"] < out["total"]["lines"]
