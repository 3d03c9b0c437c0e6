"""Seeded inputs for the benchmark workloads.

Query workloads hand the program nothing but argv lists for `cli.main`;
sweep workloads hand it a `SweepConfig` and a job count.  Every generator
draws from a `random.Random` seeded by the command line, so the same seed
always yields the same inputs.  Nothing here calls the package: the inputs
do not depend on the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class SweepWorkload:
    """One `sweep_verify` call per timed pass.  Sweeps are exhaustive, so
    the seed does not change them."""

    max_N: int
    weight_window: int
    char_window: int
    jobs: int

    def to_json(self) -> dict:
        return {"kind": "sweep", "max_N": self.max_N,
                "weight_window": self.weight_window,
                "char_window": self.char_window, "jobs": self.jobs}


@dataclass(frozen=True)
class QueryWorkload:
    """A closed loop of one client sending distinct CLI queries.

    `digest_queries` is the fixed prefix of the stream whose outputs are
    hashed; a pass always answers at least that many queries, then keeps
    going while its share of the run's time allows.
    `rate_hint` bounds the queries per second the program can answer; it
    sizes the generated stream so the loop does not run out of inputs.
    `passes` is how many fresh processes answer the same queries in a run.
    `cycle` is the period of the stream's mix of sizes; a pass answers
    whole cycles, so every run answers the same mix whatever the seed.
    `probe_every` is how many queries a pass answers between two timings
    of the speed probe; it divides `cycle`.
    """

    kind: str
    digest_queries: int
    rate_hint: int
    passes: int
    cycle: int
    probe_every: int

    def stream_length(self, seconds: float) -> int:
        return max(self.digest_queries, int(self.rate_hint * seconds)) + 1

    def to_json(self) -> dict:
        return {"kind": self.kind, "digest_queries": self.digest_queries,
                "rate_hint": self.rate_hint, "passes": self.passes, "cycle": self.cycle,
                "probe_every": self.probe_every}


# Query cycles: 3 subcommands x 30 signatures (mixed), 11 signatures x 2
# counts of S_2 summands (large); see the constants below.
WORKLOADS = {
    "sweep-n4": SweepWorkload(max_N=4, weight_window=2, char_window=2, jobs=1),
    "sweep-n6-jobs2": SweepWorkload(max_N=6, weight_window=1, char_window=1, jobs=2),
    "queries-mixed": QueryWorkload("mixed", digest_queries=360, rate_hint=600, passes=4,
                                   cycle=90, probe_every=30),
    "packets-large": QueryWorkload("large", digest_queries=44, rate_hint=40, passes=3,
                                   cycle=22, probe_every=1),
}

# Tiny variants for the harness smoke test: the same code paths in seconds.
SMOKE_WORKLOADS = {
    "sweep-n4": SweepWorkload(max_N=2, weight_window=1, char_window=2, jobs=1),
    "sweep-n6-jobs2": SweepWorkload(max_N=3, weight_window=1, char_window=1, jobs=2),
    "queries-mixed": QueryWorkload("mixed", digest_queries=12, rate_hint=12, passes=2,
                                   cycle=3, probe_every=3),
    "packets-large": QueryWorkload("large", digest_queries=3, rate_hint=3, passes=2, cycle=1,
                                   probe_every=1),
}

MIXED_KINDS = ("classify-psi", "classify-lambda", "packet")
# Streams cycle through every signature in their range (and large packets
# through their count of S_2 summands), so each run sends the same mix of
# sizes whatever the seed; the seed picks psi and lambda.
# Query cost grows steeply with N and with p near N/2, so a signature drawn
# per query would let the seed, not the program, set the run-to-run spread.
MIXED_SIGNATURES = tuple((p, n - p) for n in range(5, 9) for p in range(n + 1))
LARGE_SIGNATURES = tuple((p, n - p) for n in (8, 9) for p in range(2, n - 1))
# S_2 summands per large packet, cycled: about 20% of summands are S_2.
LARGE_S2 = (1, 2)
# Answered before timing starts: one small fixed query per subcommand.
WARMUP = (
    ["classify-psi", "--p", "1", "--q", "1", "--psi", '[{"t":0,"a":2}]'],
    ["classify-lambda", "--p", "1", "--q", "1", "--lambda", "[1,-1]"],
    ["packet", "--p", "1", "--q", "1", "--psi", '[{"t":1,"a":1},{"t":-1,"a":1}]'],
)


def _composition(rng: random.Random, n: int) -> list[int]:
    """A uniformly random composition of n (each of the n-1 cuts is a coin)."""
    parts, size = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            parts.append(size)
            size = 1
        else:
            size += 1
    parts.append(size)
    return parts


def _random_psi(rng: random.Random, n: int) -> list[dict]:
    """Summands (t, a) over a random composition of n, t in [-6, 6] with
    t + a + N even."""
    out = []
    for a in _composition(rng, n):
        t = rng.randrange(-6, 7)
        if (t + a + n) % 2:
            t += 1 if t < 6 else -1
        out.append({"t": t, "a": a})
    return out


class UnitarizableWeights:
    """Uniform sampling of unitarizable dominant weights with coordinates in
    [-4, 4].

    Plain rejection sampling almost never succeeds on balanced signatures,
    so this samples the accepted set exactly.  The lowest weight module of
    lambda is unitarizable when p = 0, q = 0, or lambda_p - lambda_{p+1} >=
    N - p' - q', where p' counts the p-side entries equal to lambda_p and q'
    the q-side entries equal to lambda_{p+1}.  The test depends only on
    (last entry, its multiplicity) of the p-side and (first entry, its
    multiplicity) of the q-side, so sides are grouped by that key and a key
    pair is drawn with weight equal to the number of weights it covers.
    """

    def __init__(self) -> None:
        self._tables: dict[tuple[int, int], tuple] = {}

    @staticmethod
    def _sides(length: int, key_at: int) -> dict:
        groups: dict[tuple[int, int], list] = {}
        for side in itertools.combinations_with_replacement(range(4, -5, -1), length):
            key = (side[key_at], side.count(side[key_at])) if side else (0, 0)
            groups.setdefault(key, []).append(side)
        return groups

    def _table(self, p: int, q: int) -> tuple:
        if (p, q) not in self._tables:
            n = p + q
            ps, qs = self._sides(p, -1), self._sides(q, 0)
            pairs = [(pk, qk) for pk in ps for qk in qs
                     if p == 0 or q == 0 or pk[0] - qk[0] >= n - pk[1] - qk[1]]
            weights = list(itertools.accumulate(len(ps[a]) * len(qs[b]) for a, b in pairs))
            self._tables[(p, q)] = (ps, qs, pairs, weights)
        return self._tables[(p, q)]

    def sample(self, rng: random.Random, p: int, q: int) -> list[int]:
        ps, qs, pairs, weights = self._table(p, q)
        pk, qk = rng.choices(pairs, cum_weights=weights)[0]
        return list(rng.choice(ps[pk]) + rng.choice(qs[qk]))


def _mixed_query(rng: random.Random, index: int, lambdas: UnitarizableWeights) -> list[str]:
    kind = MIXED_KINDS[index % 3]
    p, q = MIXED_SIGNATURES[(index // 3) % len(MIXED_SIGNATURES)]
    sig = ["--p", str(p), "--q", str(q)]
    if kind == "classify-lambda":
        lam = lambdas.sample(rng, p, q)
        return [kind, *sig, "--lambda", json.dumps(lam, separators=(",", ":"))]
    psi = _random_psi(rng, p + q)
    return [kind, *sig, "--psi", json.dumps(psi, separators=(",", ":"))]


def _large_psi(rng: random.Random, n: int, s2: int) -> list[dict]:
    """A multiplicity-free character cut into s2 S_2 summands and S_1 for
    the rest, in random order.  Segments are laid left to right on the grid
    of doubled values of parity N + 1, with random gaps so no value repeats,
    then shifted by a whole number to sit around 0."""
    sizes = [2] * s2 + [1] * (n - 2 * s2)
    rng.shuffle(sizes)
    spans = []
    start = (n + 1) % 2
    for a in sizes:
        start += 2 * rng.randrange(0, 2)
        spans.append((start, start + 2 * (a - 1)))
        start += 2 * a
    shift = -2 * round((spans[0][0] + spans[-1][1]) / 4)
    return [{"t": (lo + hi) // 2 + shift, "a": (hi - lo) // 2 + 1} for lo, hi in spans]


def _large_query(rng: random.Random, index: int) -> list[str]:
    p, q = LARGE_SIGNATURES[index % len(LARGE_SIGNATURES)]
    s2 = LARGE_S2[index // len(LARGE_SIGNATURES) % len(LARGE_S2)]
    return ["packet", "--p", str(p), "--q", str(q),
            "--psi", json.dumps(_large_psi(rng, p + q, s2), separators=(",", ":"))]


def generate_queries(wl: QueryWorkload, seed: int, count: int) -> tuple[list[list[str]], int]:
    """`count` distinct argv lists in the order the client sends them, and
    the number of draws discarded because they repeated an earlier query.

    The stream depends on the seed alone: a longer stream extends a shorter
    one.  Mixed streams cycle through the three subcommands.
    """
    rng = random.Random(f"{wl.kind}:{seed}")
    lambdas = UnitarizableWeights()
    seen: set[tuple[str, ...]] = set()
    out: list[list[str]] = []
    redrawn = 0
    while len(out) < count:
        argv = (_mixed_query(rng, len(out), lambdas) if wl.kind == "mixed"
                else _large_query(rng, len(out)))
        key = tuple(argv)
        if key in seen:
            redrawn += 1
            continue
        seen.add(key)
        out.append(argv)
    return out, redrawn


def _query_n(argv: list[str]) -> int:
    return int(argv[argv.index("--p") + 1]) + int(argv[argv.index("--q") + 1])


def mix_stats(sent: list[list[str]], redrawn: int, generated: int) -> dict:
    """Queries per kind and the histogram of N over the queries sent.  No
    query is sent twice; `repeated_draw_share` is the share of the
    generator's draws that repeated an earlier query and were redrawn."""
    return {"per_kind": dict(sorted(Counter(q[0] for q in sent).items())),
            "n_histogram": {str(k): v for k, v in
                            sorted(Counter(_query_n(q) for q in sent).items())},
            "repeated_sent_share": 0.0,
            "repeated_draw_share": redrawn / (generated + redrawn)}
