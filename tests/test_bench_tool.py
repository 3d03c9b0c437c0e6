"""The committed before/after bench script, run on this tree against itself."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_packet_pairs_runs_a_tree_against_itself(tmp_path):
    # Two pairs of sweep-n4 runs, counting the rewriting calls: both sides
    # give the same output, make the same number of calls and hit and miss
    # their memos as often.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(ROOT / "tools" / "bench_packet_pairs.py"),
                    "--before", str(ROOT), "--after", str(ROOT), "--pairs", "2",
                    "--workload", "sweep-n4", "--count", "tableaux.trapa_normalize",
                    "--count", "tableaux._rewrite_pair", "--out", str(out)],
                   check=True, capture_output=True, text=True, timeout=600)
    seeds = json.loads(out.read_text())["seeds"]
    assert list(seeds) == ["1"]
    assert seeds["1"]["same_output"] is True
    before, after = seeds["1"]["before"], seeds["1"]["after"]
    assert before["runs"] == after["runs"] == 2
    for name in ("trapa_normalize_calls", "_rewrite_pair_calls",
                 "memo_tableaux._placement_hits", "memo_tableaux._tableau_shape_misses",
                 "memo_cohind._range_class_hits"):
        assert type(before[name]) is int and before[name] > 0, name
        assert after[name] == before[name], name
