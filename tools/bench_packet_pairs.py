"""Before/after timing of `packet()`'s multiplicity-one check.

    python3 tools/bench_packet_pairs.py --before DIR --after DIR [--pairs 10]

DIR is the root of a source checkout (with `src/upq_packets`).  For each
seed (1 and 5) the script sends the fixed prefix of perfbench's
`packets-large` query stream (44 `packet` queries at N = 8, 9, read from
`perfbench/workloads.py` of this checkout, so both sides answer the same
queries) through the in-process `cli.main` of each tree.  Every run is a
fresh process; a pair is one run of each side, and the side that goes
first alternates from pair to pair so that drift in the machine's speed
falls on both.

Each run records wall time, CPU time, the median and 90th-percentile
query latency, the number of `tableaux.as_pair_equal` calls (counted by a
wrapper bound in place of that name in every module of the run's own
package) and the SHA-256 of the outputs.  The summary goes to
`BENCH_packet_pairs.json` at the root of this checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import pkgutil
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "packets-large"
SEEDS = (1, 5)


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile, as perfbench computes it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime


def source_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "upq_packets").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def count_pair_comparisons(package) -> list[int]:
    """Rebind `as_pair_equal` in every module of the package to a wrapper
    that counts its calls; return the one-element counter."""
    tableaux = importlib.import_module(package.__name__ + ".tableaux")
    real = tableaux.as_pair_equal
    counter = [0]

    def counted(a, b):
        counter[0] += 1
        return real(a, b)

    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        if getattr(module, "as_pair_equal", None) is real:
            module.as_pair_equal = counted
    return counter


def run_child(tree: Path, seed: int) -> dict:
    """One timed run in this process: the query prefix through `cli.main`."""
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import upq_packets
    from upq_packets import cli
    from workloads import WARMUP, WORKLOADS, generate_queries

    if Path(upq_packets.__file__).resolve().parent != (tree / "src" / "upq_packets").resolve():
        raise SystemExit(f"imported the package from {upq_packets.__file__}")
    wl = WORKLOADS[WORKLOAD]
    stream, _ = generate_queries(wl, seed, wl.digest_queries)
    counter = count_pair_comparisons(upq_packets)

    def call(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue()

    for argv in WARMUP:
        call(argv)
    counter[0] = 0
    digest = hashlib.sha256()
    latencies = []
    c0 = cpu_now()
    start = time.perf_counter()
    for argv in stream:
        t0 = time.perf_counter()
        rc, out = call(argv)
        latencies.append(time.perf_counter() - t0)
        digest.update(json.dumps([argv, rc, out]).encode())
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": cpu_now() - c0,
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "as_pair_equal_calls": counter[0], "queries": len(stream),
            "output_sha256": digest.hexdigest()}


def spawn(tree: Path, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
           "--seed", str(seed)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {"runs": len(runs)}
    for key in ("wall_s", "cpu_s", "latency_p50_ms", "latency_p90_ms"):
        values = [r[key] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[key] = {"median": median, "q1": q1, "q3": q3, "all": values}
    for key in ("as_pair_equal_calls", "queries", "output_sha256"):
        values = sorted({r[key] for r in runs})
        out[key] = values[0] if len(values) == 1 else values
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path)
    ap.add_argument("--after", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child is not None:
        print(json.dumps(run_child(args.child, args.seed)))
        return 0
    if args.before is None or args.after is None or args.pairs < 2:
        ap.error("--before DIR and --after DIR are required, and --pairs must be at least 2")

    sides = {"before": args.before, "after": args.after}
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    result = {
        "what": f"the first {WORKLOADS[WORKLOAD].digest_queries} queries of perfbench's "
                f"{WORKLOAD} stream through cli.main, one fresh process per run",
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "source_sha256": {side: source_sha256(tree) for side, tree in sides.items()},
        "pairs": args.pairs, "seeds": {}}
    for seed in SEEDS:
        runs: dict[str, list[dict]] = {"before": [], "after": []}
        for k in range(args.pairs):
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(spawn(sides[side], seed))
            print(f"seed {seed} pair {k + 1}: before {runs['before'][-1]['wall_s']:.2f} s, "
                  f"after {runs['after'][-1]['wall_s']:.2f} s", file=sys.stderr)
        wins = sum(a["wall_s"] < b["wall_s"] for a, b in zip(runs["after"], runs["before"]))
        before, after = summarize(runs["before"]), summarize(runs["after"])
        wall_b, wall_a = before["wall_s"], after["wall_s"]
        result["seeds"][str(seed)] = {
            "before": before, "after": after,
            "after_faster_pairs": wins,
            "same_output": before["output_sha256"] == after["output_sha256"],
            "wall_ratio_median": wall_a["median"] / wall_b["median"],
            # A gain counts when the medians differ by more than the spread
            # of the before side's own runs.
            "median_gap_exceeds_before_iqr":
                wall_b["median"] - wall_a["median"] > wall_b["q3"] - wall_b["q1"]}
    (ROOT / "BENCH_packet_pairs.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({seed: {k: v for k, v in res.items() if k not in ("before", "after")}
                      for seed, res in result["seeds"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
