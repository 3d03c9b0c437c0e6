"""Before/after timing of two source trees on perfbench's workloads.

    python3 tools/bench_packet_pairs.py --before DIR --after DIR [--pairs 10]
        [--workload NAME ...] [--count MODULE.FUNC ...] [--out FILE]

DIR is the root of a source checkout (with `src/upq_packets`).  Each
workload is read from `perfbench/workloads.py` of this checkout, so both
sides do the same work:

- `packets-large` (the default): for each seed (1 and 5), the fixed prefix
  of the query stream (44 `packet` queries at N = 8, 9) through the
  in-process `cli.main`, answered QUERY_REPEATS times in each run;
- `queries-mixed`: the same for the mixed stream's prefix (360 small
  `classify-psi`, `classify-lambda` and `packet` queries at N = 5..8);
- `sweep-n4`: one `sweep_verify` pass at the workload's windows.  A sweep
  is exhaustive, so it has a single seed;
- `sweep-n6-jobs2`: the same, on the workload's pool of worker processes.

Every run is a fresh process; a pair is one run of each side, and the side
that goes first alternates from pair to pair so that drift in the
machine's speed falls on both.  A query prefix takes well under a second,
so one slow spell would move a run's time by several percent: each query
run answers its prefix QUERY_REPEATS times, each repetition starting with
the package's memos empty, and reports the repetition of median wall
time (its times, latencies and calls).

Each run records wall time, CPU time (its own and its waited-for
children's, so that a pooled sweep's workers count), peak resident set
size in MB (`ru_maxrss` of the process, which also covers start-up and
warm-up, plus that of its largest waited-for child), for sweeps the
instances checked per second, for queries the median and 90th-percentile
query latency and the summed latency of each subcommand in the stream
(`classify_psi_s`, `classify_lambda_s`, `packet_s`), the calls to each
`--count` function (default `tableaux.as_pair_equal`; the option may be
repeated) and the time spent inside its outermost calls, and the SHA-256
of the outputs.  A function is counted by a wrapper bound in place of
that name in every module of the run's own package; its clock calls are
part of the wall time of both sides.  `--count` sees only the calls made
in the run's own process, not those in a pooled sweep's workers.  The
summary goes to `--out` (default `BENCH_packet_pairs.json` at the root of
this checkout).  With more than one `--workload`, the file holds one
section per workload.
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
QUERY_SEEDS = (1, 5)
SWEEP_SEEDS = (1,)
QUERY_REPEATS = 5


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile, as perfbench computes it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def source_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "upq_packets").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def count_calls(package, name: str) -> list[float]:
    """Rebind MODULE.FUNC `name` in every module of the package to a wrapper
    that counts its calls and sums the time inside them; return the
    [calls, seconds] counter.  Every call is counted, nested ones included,
    but time is added only for the outermost call, so a recursive function's
    time is a share of the wall time, not counted once per level."""
    module_name, func_name = name.split(".")
    real = getattr(importlib.import_module(f"{package.__name__}.{module_name}"), func_name)
    counter = [0, 0.0]
    depth = [0]  # calls of `real` open on the stack

    def counted(*args, **kwargs):
        start = time.perf_counter()
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1
            counter[0] += 1
            if not depth[0]:
                counter[1] += time.perf_counter() - start

    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        if getattr(module, func_name, None) is real:
            setattr(module, func_name, counted)
    return counter


def call_counts(counters: dict[str, list[float]]) -> dict:
    """The calls to each counted function and the time inside them."""
    out = {}
    for label, (calls, inside) in counters.items():
        out.update({f"{label}_calls": calls, f"{label}_s": inside})
    return out


def memo_clearers(package) -> list:
    """The cache_clear of every functools memo bound in the package's
    modules, found before any name is rebound by count_calls."""
    clearers = {}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{package.__name__}.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                clearers[id(value)] = value.cache_clear
    return list(clearers.values())


def run_child(tree: Path, workload: str, seed: int, counts: list[str]) -> dict:
    """One timed run of the workload in this process."""
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import upq_packets
    from upq_packets import HalfInt, SweepConfig, cli, sweep_verify
    from workloads import WARMUP, WORKLOADS, SweepWorkload, generate_queries

    if Path(upq_packets.__file__).resolve().parent != (tree / "src" / "upq_packets").resolve():
        raise SystemExit(f"imported the package from {upq_packets.__file__}")
    wl = WORKLOADS[workload]
    clear_memos = memo_clearers(upq_packets)
    counters = {name.split(".")[1]: count_calls(upq_packets, name) for name in counts}
    digest = hashlib.sha256()
    if isinstance(wl, SweepWorkload):
        sweep_verify(SweepConfig(2, 1, HalfInt.whole(1)))
        for counter in counters.values():
            counter[:] = [0, 0.0]
        c0, start = cpu_now(), time.perf_counter()
        report = sweep_verify(SweepConfig(wl.max_N, wl.weight_window,
                                          HalfInt.whole(wl.char_window)), jobs=wl.jobs)
        wall, cpu = time.perf_counter() - start, cpu_now() - c0
        digest.update(report.dumps().encode())
        out = {"instances": report.instances_checked,
               "instances_per_s": report.instances_checked / wall, **call_counts(counters)}
    else:
        stream, _ = generate_queries(wl, seed, wl.digest_queries)

        def call(argv: list[str]) -> tuple[int, str]:
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            return rc, buf.getvalue()

        for argv in WARMUP:
            call(argv)
        repetitions = []
        for _ in range(QUERY_REPEATS):
            for clear in clear_memos:
                clear()
            for counter in counters.values():
                counter[:] = [0, 0.0]
            latencies = []
            per_command = dict.fromkeys(sorted({argv[0] for argv in stream}), 0.0)
            c0, start = cpu_now(), time.perf_counter()
            for argv in stream:
                t0 = time.perf_counter()
                rc, text = call(argv)
                latencies.append(time.perf_counter() - t0)
                per_command[argv[0]] += latencies[-1]
                digest.update(json.dumps([argv, rc, text]).encode())
            wall, cpu = time.perf_counter() - start, cpu_now() - c0
            rep = {"wall_s": wall, "cpu_s": cpu,
                   "latency_p50_ms": 1000 * percentile(latencies, 50),
                   "latency_p90_ms": 1000 * percentile(latencies, 90)}
            rep.update({f"{command.replace('-', '_')}_s": seconds
                        for command, seconds in per_command.items()})
            repetitions.append(rep | call_counts(counters))
        out = sorted(repetitions, key=lambda rep: rep["wall_s"])[QUERY_REPEATS // 2]
        wall, cpu = out.pop("wall_s"), out.pop("cpu_s")
        out["queries"] = len(stream)
    # KiB on Linux; the children's figure is the largest waited-for child's.
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb, **out,
            "output_sha256": digest.hexdigest()}


def spawn(tree: Path, workload: str, seed: int, counts: list[str]) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", str(tree),
           "--workload", workload, "--seed", str(seed)]
    cmd += [arg for name in counts for arg in ("--count", name)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    out = {"runs": len(runs)}
    for key, value in runs[0].items():
        values = [r[key] for r in runs]
        if isinstance(value, float):
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            out[key] = {"median": median, "q1": q1, "q3": q3, "all": values}
        else:
            distinct = sorted(set(values))
            out[key] = distinct[0] if len(distinct) == 1 else distinct
    return out


def bench_workload(sides: dict[str, Path], workload: str, pairs: int,
                   counts: list[str]) -> dict:
    from workloads import WORKLOADS, SweepWorkload
    wl = WORKLOADS[workload]
    sweep = isinstance(wl, SweepWorkload)
    what = (f"one sweep_verify pass of perfbench's {workload} workload "
            f"({json.dumps(wl.to_json(), sort_keys=True)})" if sweep else
            f"the first {wl.digest_queries} queries of perfbench's {workload} stream "
            f"through cli.main") + ", one fresh process per run"
    result = {"what": what, "seeds": {}}
    for seed in SWEEP_SEEDS if sweep else QUERY_SEEDS:
        runs: dict[str, list[dict]] = {"before": [], "after": []}
        for k in range(pairs):
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(spawn(sides[side], workload, seed, counts))
            print(f"{workload} seed {seed} pair {k + 1}: "
                  f"before {runs['before'][-1]['wall_s']:.2f} s, "
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
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", type=Path)
    ap.add_argument("--after", type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=("packets-large", "queries-mixed", "sweep-n4",
                             "sweep-n6-jobs2"),
                    help="packets-large (default), queries-mixed, sweep-n4 or "
                         "sweep-n6-jobs2; may be repeated")
    ap.add_argument("--count", action="append", metavar="MODULE.FUNC",
                    help="function whose calls and inside time are recorded "
                         "(default tableaux.as_pair_equal); may be repeated")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_packet_pairs.json")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workloads = args.workload or ["packets-large"]
    counts = args.count or ["tableaux.as_pair_equal"]
    if any(name.count(".") != 1 for name in counts):
        ap.error("--count takes MODULE.FUNC, e.g. tableaux.trapa_normalize")
    if len({name.split(".")[1] for name in counts}) != len(counts):
        ap.error("each --count must name a different function")
    if any(name.split(".")[1] == "packet" for name in counts):
        ap.error("--count packets.packet would overwrite the packet subcommand's packet_s")
    if args.child is not None:
        print(json.dumps(run_child(args.child, workloads[0], args.seed, counts)))
        return 0
    if args.before is None or args.after is None or args.pairs < 2:
        ap.error("--before DIR and --after DIR are required, and --pairs must be at least 2")

    sides = {"before": args.before, "after": args.after}
    sys.path.insert(0, str(ROOT / "perfbench"))
    result = {
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "source_sha256": {side: source_sha256(tree) for side, tree in sides.items()},
        "pairs": args.pairs, "count": counts[0] if len(counts) == 1 else counts}
    sections = {wl: bench_workload(sides, wl, args.pairs, counts) for wl in workloads}
    if len(sections) == 1:
        result.update(sections[workloads[0]])
    else:
        result["workloads"] = sections
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({wl: {seed: {k: v for k, v in res.items() if k not in ("before", "after")}
                           for seed, res in section["seeds"].items()}
                      for wl, section in sections.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
