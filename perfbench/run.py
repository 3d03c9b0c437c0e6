"""Benchmark of upq-packets: exhaustive sweeps and CLI query streams.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the work is done in timed passes, each in a
fresh process, every time is scaled by a speed probe timed next to it
(see `scaled`), and the last line of standard output is one JSON object
holding the end-to-end metrics that BENCHMARK.json declares; with
`--trace 1` it holds the per-layer metrics, from a traced pass plus an
untraced pass of the same work in this process.  The line before it is a
report with the run's metadata, sample counts, mix statistics and every
metric computed.
`perfbench/README.md` defines the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
TRACE_DIR = ROOT / ".perfbench"
DEFAULT_SEED = 1
REPLAY_JOBS = 2
# A sweep run makes at least this many passes.
MIN_SWEEP_PASSES = 3
PASS_TIMEOUT_S = 150
# Speed probe (see speed_probe and scaled): timings per probe, the time
# between two probes inside a sweep, and the probe's usual time in a pass
# on the 2-vCPU VM the baseline in README.md was measured on.
PROBE_REPS = 5
SWEEP_PROBE_INTERVAL_S = 0.2
PROBE_NOMINAL_S = 0.0012
# A query is scaled by the probes within this many blocks of its own, about
# half a second of work either side: a probe is a point in time, and one
# large query outlasts the spells between two of them.
PROBE_WINDOW_BLOCKS = 5

# Wrapped functions that must record at least one call on each workload's
# traced run; one that records none means a binding was missed.
_PACKETS = ("packets.member", "packets.packet", "packets.contains_lowest_weight",
            "packets.lowest_weight_of_packet", "packets.oracle_contains",
            "packets.good_parameters_with_inf_char", "packets.enumerate_D")
_SWEEP = ("cohind.tableau_pair", "cohind.lowest_weight_invariants", *_PACKETS,
          "oracle.oracle_lowest_weights", "oracle.good_parameters_in_window",
          "oracle.sweep_signature", "oracle.sweep_verify")
COVERAGE = {
    "sweep-n4": (*_SWEEP, "tableaux.trapa_normalize", "tableaux.build_initial",
                 "halfint.HalfIntMultiset", "halfint.partition_into_segments",
                 "cohind.range_class", "weights.kweight_from_pq"),
    "sweep-n6-jobs2": _SWEEP,
    "queries-mixed": (*_PACKETS, "halfint.HalfIntMultiset",
                      "halfint.partition_into_segments", "cli.main"),
    "packets-large": ("cohind.tableau_pair", "tableaux.trapa_normalize",
                      "tableaux.build_initial", "tableaux.as_pair_equal", "cli.main"),
}


PR_SET_PDEATHSIG = 1
# The process a forked child was forked from, set just before each fork.
_fork_parent = 0


def die_with_parent(parent: int) -> None:
    """Have the kernel kill this process when `parent` ends, and end now
    if it already has: no pass or pool worker outlives a benchmark that is
    itself killed.  Linux only; elsewhere a no-op."""
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        return
    if os.getppid() != parent:
        os._exit(1)


def _before_fork() -> None:
    global _fork_parent
    _fork_parent = os.getpid()


def guard_children() -> None:
    """Tie every child this process starts to its lifetime: forked pool
    workers die with it, and a termination signal unwinds the stack, so a
    running pass is killed and waited for and a pool is terminated."""
    os.register_at_fork(before=_before_fork,
                        after_in_child=lambda: die_with_parent(_fork_parent))
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, frame: sys.exit(128 + signum))


def _probe_work() -> int:
    """Fixed pure-Python work of the kind the package does: small tuples
    as dict keys, sorting, small objects and JSON rendering."""
    table: dict = {}
    for i in range(1500):
        key = (i % 61, i % 53, i & 3)
        table[key] = table.get(key, 0) + i
    rows = sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return len(json.dumps([[list(k), v] for k, v in rows[:300]]))


def speed_probe(reps: int = PROBE_REPS) -> float:
    """Seconds the probe work takes at the machine's current speed: the
    median of `reps` timings."""
    times = []
    collecting = gc.isenabled()
    gc.disable()  # the collector's cost depends on the heap around the probe
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            _probe_work()
            times.append(time.perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


def scaled(seconds: float, probe: float) -> float:
    """`seconds` measured while the probe took `probe` seconds, scaled to
    the reference machine's usual speed.

    The machines this runs on are shared, and their speed drifts by 10-40%
    over seconds to minutes, in CPU time as much as in wall time; the probe
    work slows with them.  Timing the probe next to the measured work and
    scaling by PROBE_NOMINAL_S / probe takes most of the drift out."""
    return seconds * PROBE_NOMINAL_S / probe


def cpu_now() -> float:
    """CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child.

    This process's own peak is read from /proc where there is one:
    getrusage's ru_maxrss also keeps the peak of the process that spawned
    it, carried across exec, so a pass would report its parent's size."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            own = int(line.split()[1])
    return (own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "upq_packets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- sweeps -------------------------------------------------------------------

class Sweeps:
    """`sweep_verify` through the public API.  `pin` holds the expected
    report (instances_checked, counts, sha256), or is None."""

    def __init__(self, wl, pin: dict | None) -> None:
        from upq_packets import HalfInt, SweepConfig
        self.wl, self.pin = wl, pin
        self.cfg = SweepConfig(wl.max_N, wl.weight_window, HalfInt.whole(wl.char_window))

    def setup(self) -> None:
        from upq_packets import HalfInt, SweepConfig, sweep_verify
        sweep_verify(SweepConfig(2, 1, HalfInt.whole(1)))

    def sweep(self, jobs: int | None = None):
        import upq_packets
        return upq_packets.sweep_verify(self.cfg, jobs=self.wl.jobs if jobs is None else jobs)

    def check(self, report) -> list[str]:
        """Problems with one sweep's report: any mismatch or property
        failure, or a report differing from the pinned one."""
        problems = [f"{len(report.mismatches)} mismatches"] if report.mismatches else []
        if report.property_failures:
            problems.append(f"{len(report.property_failures)} property failures")
        if self.pin is not None:
            if report.instances_checked != self.pin["instances_checked"]:
                problems.append(f"instances_checked {report.instances_checked} != "
                                f"pinned {self.pin['instances_checked']}")
            if dict(sorted(report.counts.items())) != self.pin["counts"]:
                problems.append(f"counts {report.counts} != pinned {self.pin['counts']}")
            if sha256(report.dumps()) != self.pin["sha256"]:
                problems.append("report digest differs from the pinned one")
        return problems

    def failed(self, report) -> int:
        return len(report.mismatches) + len(report.property_failures)

    def timed_pass(self, seconds: float, limit: int | None) -> dict:
        """One sweep, checked here against the pin.

        A sweep is one call, so the probe runs inside it: a timer
        interrupts this process every SWEEP_PROBE_INTERVAL_S, and the
        handler times the probe between two bytecodes of the sweep (or of
        the wait in `Pool.map`, while pool workers sweep).  The time the
        handler takes is taken off the sweep's wall and CPU time.  Forked
        workers do not inherit the timer."""
        probes = [speed_probe()]
        in_probes = 0.0

        def probe(signum, frame) -> None:
            nonlocal in_probes
            t0 = time.perf_counter()
            probes.append(speed_probe())
            in_probes += time.perf_counter() - t0

        signal.signal(signal.SIGALRM, probe)
        c0, t0 = cpu_now(), time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SWEEP_PROBE_INTERVAL_S, SWEEP_PROBE_INTERVAL_S)
        try:
            report = self.sweep()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        wall, cpu = time.perf_counter() - t0 - in_probes, cpu_now() - c0 - in_probes
        probes.append(speed_probe())
        return {"wall": wall, "cpu": cpu, "rss": peak_rss_mb(), "probes": probes,
                "instances": report.instances_checked, "failed": self.failed(report),
                "problems": self.check(report)}

    def run_passes(self, argv: list[str], seconds: float) -> list[dict]:
        """Fresh-process passes while the next, if it takes as long as the
        last, ends within the run's time; at least MIN_SWEEP_PASSES."""
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(spawn_pass(argv, seconds))
            t1 = time.perf_counter()
            if len(passes) >= MIN_SWEEP_PASSES and t1 + (t1 - t0) > start + seconds:
                return passes

    def summarize(self, passes: list[dict]) -> dict:
        """A sweep's time is the median over the passes of its scaled wall
        time (see `scaled`); `raw_metrics` holds the same figures unscaled."""
        def metrics_of(walls: list[float], cpus: list[float]) -> dict:
            wall = statistics.median(walls)
            return {
                "instances_per_s": passes[0]["instances"] / wall,
                "queries_per_s": 1 / wall,
                "latency_p50_ms": 1000 * wall,
                "latency_p90_ms": 1000 * wall,
                "latency_p99_ms": 1000 * wall,
                "cpu_s": statistics.median(cpus),
                "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            }
        probes = [statistics.fmean(p["probes"]) for p in passes]
        return {"metrics": metrics_of([scaled(p["wall"], pr) for p, pr in zip(passes, probes)],
                                      [scaled(p["cpu"], pr) for p, pr in zip(passes, probes)]),
                "raw_metrics": metrics_of([p["wall"] for p in passes],
                                          [p["cpu"] for p in passes]),
                "attempted": sum(p["instances"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "problems": [x for p in passes for x in p["problems"]],
                "samples": {"passes": len(passes), "instances_per_sweep": passes[0]["instances"],
                            "pass_walls_s": [p["wall"] for p in passes]}}

    def run_traced(self, seconds: float) -> dict:
        from tracing import Tracer
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            traced = self.sweep()
            traced_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        plain = self.sweep()
        plain_wall = time.perf_counter() - t0
        problems = self.check(traced) + self.check(plain)
        if sha256(traced.dumps()) != sha256(plain.dumps()):
            problems.append("traced report differs from the untraced one")
        serial = tracer
        if self.wl.jobs > 1:
            serial = Tracer()
            with serial.installed():
                problems += self.check(self.sweep(jobs=1))
        return {"tracer": tracer, "serial": serial, "overhead": traced_wall / plain_wall,
                "attempted": traced.instances_checked + plain.instances_checked,
                "failed": self.failed(traced) + self.failed(plain), "problems": problems,
                "samples": {"traced_sweeps": 1, "untraced_sweeps": 1}}

    def report_extra(self) -> dict:
        return {}


# -- CLI query streams -------------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, str, str]:
    """One query through the in-process CLI: exit code, stdout, stderr."""
    from upq_packets import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed query, not a failed run
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def check_query(argv: list[str], rc: int, out: str, err: str) -> str | None:
    """Replay one answered query against the tableau oracle; None if the
    answer agrees."""
    from upq_packets import (AParameter, GroupSignature, KWeight, enumerate_D,
                             inf_char_of_lowest_weight, oracle_contains,
                             oracle_lowest_weights)
    from upq_packets.packets import good_parameters_with_inf_char
    if rc != 0:
        return f"exit {rc}: {err.strip()[-300:]}"
    args = dict(zip(argv[1::2], argv[2::2]))
    sig = GroupSignature(int(args["--p"]), int(args["--q"]))
    obj = json.loads(out)
    if argv[0] == "classify-lambda":
        w = KWeight(sig, tuple(json.loads(args["--lambda"])))
        chi = inf_char_of_lowest_weight(w)
        expected = [psi.to_json() for psi in good_parameters_with_inf_char(sig, chi)
                    if oracle_contains(psi, w)]
        return None if obj["packets"] == expected else "packets differ from the oracle's"
    psi = AParameter.from_summands(sig, [(s["t"], s["a"]) for s in json.loads(args["--psi"])])
    if argv[0] == "classify-psi":
        hits = oracle_lowest_weights(psi)
        expected = list(hits[0].lam) if hits else None
        if len(hits) > 1 or obj["lowest_k_type"] != expected:
            return f"lowest K-type {obj['lowest_k_type']} but the oracle finds {hits}"
        return None
    if len(obj["members"]) != len(enumerate_D(psi)):
        return f"{len(obj['members'])} members but |D(psi)| = {len(enumerate_D(psi))}"
    return None


def replay_query(argv: list[str], rc: int, out: str, err: str) -> str | None:
    try:
        return check_query(argv, rc, out, err)
    except Exception as exc:  # an unreadable answer is a disagreement
        return f"unreadable answer: {exc!r}"


def outputs_digest(answers: list[tuple[list[str], int, str, str]]) -> str:
    digest = hashlib.sha256()
    for argv, rc, out, _ in answers:
        digest.update(json.dumps([argv, rc, out]).encode())
    return digest.hexdigest()


class Queries:
    """CLI queries through `cli.main`.  `pin` holds the expected digest of
    the outputs of the stream's fixed prefix, or is None."""

    def __init__(self, wl, seed: int, seconds: float, pin: dict | None) -> None:
        from workloads import generate_queries
        self.wl, self.pin = wl, pin
        self.stream, self.redrawn = generate_queries(wl, seed, wl.stream_length(seconds))
        self.answers: list = []
        self.generated = len(self.stream)

    def setup(self) -> None:
        from workloads import WARMUP
        for argv in WARMUP:
            call_cli(list(argv))

    def loop(self, seconds: float, limit: int | None = None, emit=None) -> dict:
        """Closed loop, one client, over whole cycles of the stream's size
        mix: at least the digest prefix, then while the next cycle, taking
        as long as the last, would end within `seconds` (or exactly `limit`
        queries).  `emit` takes each answer in place of the returned list,
        so that a pass holds no outputs in memory."""
        answers, latencies = [], []
        # probes[j] is taken before the j-th block of `wl.probe_every`
        # queries and probes[j + 1] after it.
        probes = [speed_probe()]
        c0 = cpu_now()
        start = cycle_start = time.perf_counter()
        for argv in self.stream[:limit]:
            t0 = time.perf_counter()
            rc, out, err = call_cli(argv)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            (emit or answers.append)((argv, rc, out, err))
            if len(latencies) % self.wl.probe_every == 0:
                probes.append(speed_probe())
            if len(latencies) % self.wl.cycle == 0:
                if (limit is None and len(latencies) >= self.wl.digest_queries
                        and t1 + (t1 - cycle_start) > start + seconds):
                    break
                cycle_start = time.perf_counter()
        if len(latencies) % self.wl.probe_every:
            probes.append(speed_probe())
        wall = time.perf_counter() - start
        return {"answers": answers, "latencies": latencies, "wall": wall,
                "cpu": cpu_now() - c0, "probes": probes}

    def check(self, answers) -> tuple[int, list[str]]:
        """Replay of every answered query, untimed and spread over
        REPLAY_JOBS worker processes, and the digest of the fixed prefix
        against the pinned one at the default seed.

        The pool forks: a spawning pool would also start a resource-tracker
        process that outlives the benchmark.  The workers are closed and
        waited for before this returns."""
        pool = multiprocessing.get_context("fork").Pool(REPLAY_JOBS)
        try:
            verdicts = pool.starmap(replay_query, answers, chunksize=16)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
        problems = [f"{' '.join(a[0])}: {v}" for a, v in zip(answers, verdicts) if v]
        failed = len(problems)
        if len(answers) < self.wl.digest_queries:
            problems.append(f"stream exhausted after {len(answers)} queries")
        elif self.pin is not None:
            digest = outputs_digest(answers[:self.wl.digest_queries])
            if digest != self.pin["sha256"]:
                problems.append("output digest at the default seed differs from the pinned one")
        return failed, problems

    def timed_pass(self, seconds: float, limit: int | None) -> dict:
        """The loop, printing each answer on a line of its own as it comes."""
        timed = self.loop(seconds, limit, emit=lambda answer: print(json.dumps(answer)))
        return {"latencies": timed["latencies"], "wall": timed["wall"], "cpu": timed["cpu"],
                "probes": timed["probes"], "rss": peak_rss_mb(), "redrawn": self.redrawn,
                "generated": self.generated}

    def run_passes(self, argv: list[str], seconds: float) -> list[dict]:
        """`wl.passes` fresh-process passes over the same queries: the first
        answers whole cycles for its share of the run's time, the others as
        many queries."""
        share = seconds / self.wl.passes
        passes = [spawn_pass(argv, share)]
        count = len(passes[0]["answers"])
        passes += [spawn_pass(argv, share, limit=count) for _ in range(self.wl.passes - 1)]
        return passes

    def summarize(self, passes: list[dict]) -> dict:
        """A query's latency is the median over the passes of its scaled
        latency (see `scaled`), each scaled by the mean of the probes within
        PROBE_WINDOW_BLOCKS blocks of `wl.probe_every` queries either side
        of its own.  Every pass sends the same queries to a fresh process,
        so no answer is cached across passes.  `raw_metrics` holds the same
        figures unscaled."""
        first = passes[0]
        self.answers = [tuple(a) for a in first["answers"]]
        self.redrawn, self.generated = first["redrawn"], first["generated"]
        failed, problems = self.check(self.answers)
        digest = outputs_digest(self.answers)
        for i, p in enumerate(passes[1:], 2):
            if len(p["answers"]) != len(self.answers) or outputs_digest(p["answers"]) != digest:
                problems.append(f"pass {i} answered differently from pass 1")

        def metrics_of(lat: list[float], cpus: list[float]) -> dict:
            return {
                "queries_per_s": len(lat) / sum(lat),
                "instances_per_s": len(lat) / sum(lat),
                "latency_p50_ms": 1000 * percentile(lat, 50),
                "latency_p90_ms": 1000 * percentile(lat, 90),
                "latency_p99_ms": 1000 * percentile(lat, 99),
                "cpu_s": 1000 * statistics.median(cpus) / len(lat),
                "peak_rss_mb": statistics.median(p["rss"] for p in passes),
            }

        block, w = self.wl.probe_every, PROBE_WINDOW_BLOCKS

        def scaled_latencies(p: dict) -> list[float]:
            pr = p["probes"]
            return [scaled(t, statistics.fmean(pr[max(0, i // block - w):i // block + w + 2]))
                    for i, t in enumerate(p["latencies"])]

        lat = [statistics.median(ts) for ts in zip(*map(scaled_latencies, passes))]
        metrics = metrics_of(lat, [scaled(p["cpu"], statistics.fmean(p["probes"]))
                                   for p in passes])
        raw_metrics = metrics_of([statistics.median(ts) for ts in
                                  zip(*(p["latencies"] for p in passes))],
                                 [p["cpu"] for p in passes])
        per_kind = {}
        for kind in sorted({a[0][0] for a in self.answers}):
            kl = [t for a, t in zip(self.answers, lat) if a[0][0] == kind]
            per_kind[kind] = {"samples": len(kl), "p50_ms": 1000 * percentile(kl, 50),
                              "p90_ms": 1000 * percentile(kl, 90)}
        return {"metrics": metrics, "raw_metrics": raw_metrics,
                "attempted": len(lat), "failed": failed, "problems": problems,
                "samples": {"passes": len(passes), "queries": len(lat), "per_kind": per_kind,
                            "pass_walls_s": [p["wall"] for p in passes]}}

    def run_traced(self, seconds: float) -> dict:
        from tracing import Tracer
        tracer = Tracer()
        # The traced pass takes half the run; the untraced one about as long.
        with tracer.installed():
            traced = self.loop(seconds / 2)
        count = len(traced["answers"])
        plain = self.loop(seconds, limit=count)
        self.answers = plain["answers"]
        failed, problems = self.check(traced["answers"])
        if outputs_digest(traced["answers"]) != outputs_digest(plain["answers"]):
            problems.append("traced outputs differ from the untraced ones")
        return {"tracer": tracer, "serial": None, "overhead": traced["wall"] / plain["wall"],
                "attempted": count, "failed": failed, "problems": problems,
                "samples": {"traced_queries": count, "untraced_queries": count}}

    def report_extra(self) -> dict:
        from workloads import mix_stats
        sent = [a[0] for a in self.answers]
        stats = mix_stats(sent, self.redrawn, self.generated)
        members = nonzero = 0
        for argv, rc, out, _ in self.answers:
            if argv[0] == "packet" and rc == 0:
                flags = [m["nonzero"] for m in json.loads(out)["members"]]
                members += len(flags)
                nonzero += sum(flags)
        stats["packet_members"] = members
        stats["nonzero_member_share"] = nonzero / members if members else None
        return {"mix": stats}


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(traced: dict) -> tuple[dict, Counter]:
    """Per-layer metrics from a traced pass, and the calls per function."""
    from tracing import MULTISET, SPANNED, self_times
    tracer = traced["tracer"]
    calls: Counter = Counter(tracer.calls)
    self_s: Counter = Counter()
    sweep_wall = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
        if span[0] == "oracle.sweep_verify":
            sweep_wall += span[2] - span[1]

    m: dict[str, float] = {}
    for name in SPANNED:
        if name not in ("oracle.sweep_signature", "oracle.sweep_verify"):
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.self_s"] = self_s[name]
    for name in ("cohind.tableau_pair", "cohind.lowest_weight_invariants"):
        m[f"{name}.distinct"] = len(tracer.distinct.get(name, ()))
    pairs = calls["cohind.tableau_pair"]
    m["cohind.tableau_pair.useful_ratio"] = m["cohind.tableau_pair.distinct"] / pairs if pairs else 0.0
    norms = calls["tableaux.trapa_normalize"]
    m["tableaux.trapa_normalize.zero_ratio"] = (
        tracer.zeros["tableaux.trapa_normalize"] / norms if norms else 0.0)
    m[f"{MULTISET}.calls"] = calls[MULTISET]
    m["weights.kweight_from_pq.calls"] = calls["weights.kweight_from_pq"]
    m["packets.enumerate_D.calls"] = calls["packets.enumerate_D"]

    share = 0.0
    if traced["serial"] is not None:
        per_sig = [s[2] - s[1] for s in traced["serial"].spans if s[0] == "oracle.sweep_signature"]
        share = max(per_sig) / sum(per_sig)
    m["oracle.sweep_signature.max_share"] = share
    m["oracle.pool_wait_s"] = tracer.pool_wait_s
    m["oracle.serial_tail_s"] = sweep_wall - tracer.pool_wait_s if sweep_wall else 0.0
    m["trace_overhead_ratio"] = traced["overhead"]
    return m, calls


def write_trace(path: Path, tracer) -> None:
    """All spans of the traced pass: name, start and end (perf_counter
    seconds), index of the parent span (-1 for none), request ID."""
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump({"names": names, "spans": [[index[n], a, b, p, r] for n, a, b, p, r in tracer.spans]},
                  fh, separators=(",", ":"))


# -- command line ---------------------------------------------------------------

def spawn_pass(argv: list[str], seconds: float, limit: int | None = None) -> dict:
    """One timed pass in a fresh process, waited for.  Its `setup_s` runs
    from spawn to the moment it starts timing (shared monotonic clock)."""
    cmd = [sys.executable, str(Path(__file__)), *argv, "--seconds", repr(seconds),
           "--pass", str(os.getpid())]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    start = time.perf_counter()
    # On any exception, a timeout too, run() kills the pass and waits for it.
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PASS_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"a timed pass exited {out.returncode}:\n{out.stderr[-3000:]}")
    *answers, last = out.stdout.splitlines()
    result = json.loads(last)
    result["answers"] = [json.loads(line) for line in answers]
    result["setup_s"] = result.pop("ready") - start
    return result


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the harness's own test")
    parser.add_argument("--pass", dest="timed_pass", type=int, metavar="PARENT_PID",
                        help="make one timed pass for PARENT_PID and print its raw "
                             "result (internal)")
    parser.add_argument("--limit", type=int, help="queries in a timed pass (internal)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "upq_packets" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'upq_packets'}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.timed_pass is not None:
        die_with_parent(args.timed_pass)
    guard_children()
    from workloads import SMOKE_WORKLOADS, WORKLOADS, SweepWorkload
    wl = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    pin = None if args.smoke else json.loads(PINS.read_text())[args.workload]
    # This process only spawns the passes of an untraced run: it needs no
    # stream beyond the pinned prefix and no warm-up.
    works = args.trace or args.timed_pass is not None
    if isinstance(wl, SweepWorkload):
        bench = Sweeps(wl, pin)
    else:
        bench = Queries(wl, args.seed, args.seconds if works else 0,
                        pin if args.seed == DEFAULT_SEED else None)
    if works:
        bench.setup()
    if args.timed_pass is not None:
        ready = time.perf_counter()
        print(json.dumps({"ready": ready, **bench.timed_pass(args.seconds, args.limit)}))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"workload": args.workload, "config": wl.to_json(), "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
              "git_sha": git_sha(), "source_sha256": source_sha256(),
              "python": platform.python_version(), "nproc": os.cpu_count()}
    if args.trace:
        result = bench.run_traced(args.seconds)
        metrics, calls = layer_metrics(result)
        missing = [f for f in COVERAGE[args.workload] if not calls[f]]
        if missing:
            result["problems"].append(f"no calls recorded for {missing}: a binding was missed")
        write_trace(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json", result["tracer"])
        wanted = declared["per_layer"]
    else:
        pass_argv = ["--workload", args.workload, "--seed", str(args.seed), "--trace", "0",
                     *(["--smoke"] if args.smoke else [])]
        passes = bench.run_passes(pass_argv, args.seconds)
        result = bench.summarize(passes)
        metrics = result["metrics"]
        # Set-up is scaled by the first probes of its pass, the nearest to it.
        metrics["setup_s"] = statistics.median(
            scaled(p["setup_s"], statistics.median(p["probes"][:3])) for p in passes)
        result["raw_metrics"]["setup_s"] = statistics.median(p["setup_s"] for p in passes)
        result["samples"]["setup_s"] = [p["setup_s"] for p in passes]
        result["samples"]["probes_s"] = [p["probes"] for p in passes]
        report["raw_metrics"] = result["raw_metrics"]
        wanted = declared["end_to_end"]

    attempted, failed = result["attempted"], result["failed"]
    metrics["fail_ratio"] = failed / attempted
    report.update(samples=result["samples"], problems=result["problems"][:50],
                  metrics=metrics, **bench.report_extra())
    for line in result["problems"][:50]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"report": report}, sort_keys=True))
    correct = not result["problems"] and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
