"""Exhaustive desk-scale verification of the closed-form classification.

The sweep pits the closed-form theorems (packet membership by the gap
cases, lowest K-type extraction) against the tableau pipeline, which
computes the complete invariant pair directly and is therefore ground
truth.  It also checks the structural properties promised by the other
modules: the two-block nonvanishing criterion, the realize/K-type round
trip, the shape facts for lowest weight signed tableaux, preservation of
invariants under block rewrites, and the holomorphic-candidate properties.

Every instance is an independent pure computation.  The instance space
is partitioned into tasks: one per signature, and the two-block data of
each rank N.  Parallel workers take the tasks largest rank first, so the
costliest start first, and their reports are merged in the serial order
(signatures, then two-block data) without affecting the report.
"""

from __future__ import annotations

import itertools
import os
import signal
from dataclasses import dataclass, field
from math import comb
from multiprocessing import Pool
from typing import Iterator

from .cohind import (InductionDescriptor, ThetaData, absorb_adjacent,
                     lowest_weight_invariants, normalize_blocks, range_class,
                     realize_lowest_weight, holomorphic_lowest_ktype, segments_of,
                     tableau_pair)
from .errors import InternalInconsistencyError
from .halfint import HalfInt, HalfIntMultiset, _json_dumps
from .packets import (AParameter, contains_lowest_weight, d_zero,
                      good_parameters_with_inf_char, inf_char,
                      lowest_weight_of_packet, oracle_contains, packet)
from .tableaux import _sing, trapa_normalize
from .weights import (GroupSignature, KWeight, inf_char_of_lowest_weight,
                      is_unitarizable, kweight_from_pq, weight_stats)


# The most signatures a sweep may cover: every U(p, q) with p + q <= 100.
# A sweep at max_N = 6 covers 27.
MAX_SWEEP_SIGNATURES = 5150
# The most weights plus parameters a sweep may list for one signature.
# At windows 3 and 4 the largest signature up to N = 10, U(5, 5), lists
# 213,444 + 282,231.
MAX_SWEEP_LISTING = 10**6


@dataclass(frozen=True)
class SweepConfig:
    max_N: int
    weight_window: int
    char_window: HalfInt

    def __post_init__(self) -> None:
        if self.max_N < 1 or self.weight_window < 0 or self.char_window.twice < 0:
            raise ValueError("bad sweep configuration: need max_N >= 1 and "
                             "nonnegative weight and character windows")
        count = (self.max_N + 1) * (self.max_N + 2) // 2 - 1
        if count > MAX_SWEEP_SIGNATURES:
            raise ValueError(f"a sweep up to max_N = {self.max_N} covers {count} "
                             f"signatures, more than the limit of "
                             f"{MAX_SWEEP_SIGNATURES}")
        # Counted, not listed: a listing past the limit would exhaust memory.
        for n in range(1, self.max_N + 1):
            psis = good_parameter_count(n, self.char_window)
            for p in range(n + 1):
                weights = dominant_weight_count(GroupSignature(p, n - p), self.weight_window)
                if weights + psis > MAX_SWEEP_LISTING:
                    raise ValueError(
                        f"the sweep would list {weights} weights and {psis} parameters "
                        f"for U({p},{n - p}), {weights + psis} together, more than the limit "
                        f"of {MAX_SWEEP_LISTING}")

    def to_json(self) -> dict:
        return {"max_N": self.max_N, "weight_window": self.weight_window,
                "char_window_twice": self.char_window.twice}


@dataclass
class SweepReport:
    config: dict
    mismatches: list[dict] = field(default_factory=list)
    property_failures: list[dict] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def instances_checked(self) -> int:
        # Every instance is counted under its kind.
        return sum(self.counts.values())

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.property_failures

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def merge(self, other: "SweepReport") -> None:
        self.mismatches.extend(other.mismatches)
        self.property_failures.extend(other.property_failures)
        for key, val in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + val

    def to_json(self) -> dict:
        return {"config": self.config,
                "instances_checked": self.instances_checked,
                "counts": dict(sorted(self.counts.items())),
                "mismatches": self.mismatches,
                "property_failures": self.property_failures,
                "ok": self.ok}

    def dumps(self) -> str:
        return _json_dumps(self.to_json())


def dominant_weights(sig: GroupSignature, window: int) -> list[KWeight]:
    """All dominant weights with every coordinate in [-window, window]."""
    rng = range(window, -window - 1, -1)
    p_sides = [c for c in itertools.combinations_with_replacement(rng, sig.p)]
    q_sides = [c for c in itertools.combinations_with_replacement(rng, sig.q)]
    return [KWeight(sig, tuple(ps) + tuple(qs)) for ps in p_sides for qs in q_sides]


def dominant_weight_count(sig: GroupSignature, window: int) -> int:
    """len(dominant_weights(sig, window)), without listing them: each side
    is a weakly decreasing tuple from 2 * window + 1 values."""
    return comb(2 * window + sig.p, sig.p) * comb(2 * window + sig.q, sig.q)


def good_parameter_count(n: int, window: HalfInt) -> int:
    """len(good_parameters_in_window(sig, window)) for any sig of rank n,
    without listing them.

    A parameter is a multiset of the summands good_parameters_in_window
    lists, of sizes summing to n.  The summands of size a are those with
    doubled start s = n + 1 (mod 2) in [-2c, 2c - 2(a - 1)], 2c the doubled
    window; with c_a of them the count is the coefficient of x^n in the
    product over a of (1 - x^a)^(-c_a), whose x^(ak) term is
    C(c_a + k - 1, k)."""
    lo, hi = -window.twice, window.twice
    first = lo + (lo - n - 1) % 2  # the least start of the right parity
    counts = [1] + [0] * n  # the coefficients of the product so far
    for a in range(1, n + 1):
        kinds = max(0, (hi - 2 * (a - 1) - first) // 2 + 1)
        if not kinds:
            continue
        terms = [comb(kinds + k - 1, k) for k in range(n // a + 1)]
        counts = [sum(counts[d - a * k] * terms[k] for k in range(d // a + 1))
                  for d in range(n + 1)]
    return counts[n]


def good_parameters_in_window(sig: GroupSignature, window: HalfInt) -> list[AParameter]:
    """All good parameters with every character coordinate in the window.

    The summands (t, a) of the segments over the grid Z + (N-1)/2 within
    [-window, window] are listed largest first, and each parameter takes
    them in that order, so it is built canonical (AParameter checks it)."""
    n = sig.N
    lo, hi = -window.twice, window.twice
    summands = sorted(((start + length - 1, length)
                       for start in range(lo, hi + 1) if (start - (n - 1)) % 2 == 0
                       for length in range(1, min(n, (hi - start) // 2 + 1) + 1)),
                      reverse=True)
    out: list[AParameter] = []

    def rec(i: int, remaining: int, acc: list[tuple[int, int]]) -> None:
        if remaining == 0:
            out.append(AParameter(sig, tuple(acc)))
            return
        for k in range(i, len(summands)):
            s = summands[k]
            if s[1] <= remaining:
                acc.append(s)
                rec(k, remaining - s[1], acc)
                acc.pop()

    rec(0, n, [])
    return out


def _unitarizable_splits(sig: GroupSignature, chi: HalfIntMultiset) -> Iterator[KWeight]:
    # Every unitarizable weight whose infinitesimal character is chi: one
    # candidate per sub-multiset P of chi of size p, with Q the rest.  The
    # combinations of chi's entries, largest first, list each sub-multiset
    # largest first; repeats are dropped in order.
    for twice in dict.fromkeys(itertools.combinations(chi.twice, sig.p)):
        P = HalfIntMultiset(twice)
        w = kweight_from_pq(sig, P, chi.difference(P))
        if w is not None and is_unitarizable(w):
            yield w


def oracle_lowest_weights(psi: AParameter) -> list[KWeight]:
    """All unitarizable dominant weights whose lowest weight module lies in
    the packet, found by brute force over the splittings of the character:
    the pair of each split's lowest weight module is looked up among the
    pairs of the packet's nonzero members.

    packet() checks multiplicity one, so a split matches at most one member
    and two hits mean two lowest weight members."""
    chi = inf_char(psi)
    pairs = {m.invariants for m in packet(psi) if m.nonzero}
    hits = []
    for w in _unitarizable_splits(psi.sig, chi):
        pair = lowest_weight_invariants(w)
        if pair[1].sig != psi.sig or pair[0].entries != chi.twice:
            raise InternalInconsistencyError(
                f"invariants of {w.lam} do not have the signature and "
                f"infinitesimal character of {psi}")
        if pair in pairs:
            hits.append(w)
    return hits


def _basic_d0_properties(psi: AParameter, i_seg: HalfIntMultiset) -> list[str]:
    """The structural facts about the holomorphic candidate d_zero(psi)
    that hold whenever the packet contains the lowest weight module whose
    I-segment is i_seg.  Returns the labels of violated items."""
    (_, q_j), (lt, mid, gt), _ = psi._candidate
    lt_cap_gt = lt.intersection(gt)

    bad = []
    if not (lt.is_multiplicity_free and gt.is_multiplicity_free):
        bad.append("1:flanks-multiplicity-free")
    if gt.contains(mid) and q_j != 0:
        bad.append("2:mid-in-right-forces-qj-zero")
    if lt.contains(mid):
        bad.append("3:mid-not-in-left")
    if not lt.union(gt).contains(i_seg):
        bad.append("4:I-in-flanks")
    if not lt_cap_gt.is_empty and not (gt.contains(mid) and q_j == 0):
        bad.append("5:flank-overlap-forces-right")
    if (not lt_cap_gt.intersection(i_seg).is_empty
            and not mid.intersection(i_seg).is_empty):
        if not (i_seg.contains(mid) and gt.contains(i_seg) and q_j == 0):
            bad.append("6:I-split-forces-right")
    if lt_cap_gt.intersection(i_seg).is_empty and not mid.contains(i_seg):
        bad.append("7:I-in-mid")
    if not i_seg.is_empty and mid.intersection(i_seg).is_empty:
        bad.append("8:I-meets-mid")
    return bad


def _check_lambda_side(sig: GroupSignature, w: KWeight, psis: list[AParameter],
                       report: SweepReport) -> None:
    # psis are the good parameters of w's character.
    chi = inf_char_of_lowest_weight(w)
    st = weight_stats(w)
    if chi != st.P.union(st.Q):
        report.property_failures.append(
            {"kind": "inf-char-vs-PQ", "lambda": list(w.lam),
             "p": sig.p, "q": sig.q})
        return

    try:
        pair = lowest_weight_invariants(w)
    except InternalInconsistencyError as exc:
        report.property_failures.append(
            {"kind": "lowest-weight-invariants", "lambda": list(w.lam),
             "p": sig.p, "q": sig.q, "error": str(exc)})
        return

    desc = realize_lowest_weight(w)
    round_trip = holomorphic_lowest_ktype(desc)
    if round_trip.lam != w.lam:
        report.property_failures.append(
            {"kind": "round-trip", "lambda": list(w.lam), "p": sig.p,
             "q": sig.q, "got": list(round_trip.lam)})
    if desc.inf_char() != chi:
        report.property_failures.append(
            {"kind": "realization-inf-char", "lambda": list(w.lam),
             "p": sig.p, "q": sig.q})

    # The rewrite must keep the realization's invariant pair: a rewritten
    # datum that vanishes, or whose pair differs in any way, is recorded,
    # and so is a fault in the rewrite or in normalizing the rewritten datum.
    try:
        try:
            five = normalize_blocks(desc)
        except ValueError:
            five = None  # no rewrite applies
        if five is not None:
            if tableau_pair(five).invariants != pair:
                report.property_failures.append(
                    {"kind": "normalize-blocks", "lambda": list(w.lam),
                     "p": sig.p, "q": sig.q, "blocks": [list(b) for b in five.d.blocks]})
    except InternalInconsistencyError as exc:
        report.property_failures.append(
            {"kind": "normalize-blocks-error", "lambda": list(w.lam),
             "p": sig.p, "q": sig.q, "error": str(exc)})

    # Ground truth for each packet with this character: its holomorphic
    # member's pair equals w's.  oracle_contains reads the member off psi,
    # where the first weight of the character to ask left it.
    for psi in psis:
        report.bump("membership-pairs")
        try:
            theorem = contains_lowest_weight(psi, w)
            oracle = oracle_contains(psi, w)
        except InternalInconsistencyError as exc:
            report.property_failures.append(
                {"kind": "membership-error", "psi": psi.to_json(),
                 "lambda": list(w.lam), "error": str(exc)})
            continue
        if theorem != oracle:
            report.mismatches.append(
                {"kind": "theorem-main", "psi": psi.to_json(),
                 "lambda": list(w.lam), "theorem": theorem, "oracle": oracle})
        if theorem:
            # Round trip: a packet that contains w must extract exactly w.
            try:
                back = lowest_weight_of_packet(psi)
            except InternalInconsistencyError as exc:
                back = None
                report.property_failures.append(
                    {"kind": "extraction-error", "psi": psi.to_json(),
                     "error": str(exc)})
            if back is None or back.lam != w.lam:
                report.property_failures.append(
                    {"kind": "round-trip-extraction", "psi": psi.to_json(),
                     "lambda": list(w.lam),
                     "extracted": list(back.lam) if back else None})
        if oracle:
            for label in _basic_d0_properties(psi, st.I):
                report.property_failures.append(
                    {"kind": "holomorphic-candidate-property", "item": label,
                     "psi": psi.to_json(), "lambda": list(w.lam)})


def _check_psi_side(psi: AParameter, report: SweepReport) -> None:
    report.bump("packets")
    try:
        claimed = lowest_weight_of_packet(psi)
    except InternalInconsistencyError as exc:
        report.property_failures.append(
            {"kind": "extraction-error", "psi": psi.to_json(), "error": str(exc)})
        return
    try:
        oracle_hits = oracle_lowest_weights(psi)
    except InternalInconsistencyError as exc:
        report.property_failures.append(
            {"kind": "multiplicity-one", "psi": psi.to_json(), "error": str(exc)})
        return
    if len(oracle_hits) > 1:
        report.property_failures.append(
            {"kind": "packet-uniqueness", "psi": psi.to_json(),
             "lambdas": [list(w.lam) for w in oracle_hits]})
    expected = oracle_hits[0].lam if oracle_hits else None
    got = claimed.lam if claimed is not None else None
    if got != expected:
        report.mismatches.append(
            {"kind": "lowest-weight-extraction", "psi": psi.to_json(),
             "theorem": list(got) if got else None,
             "oracle": list(expected) if expected else None})
    if claimed is not None:
        try:
            back = contains_lowest_weight(psi, claimed)
        except InternalInconsistencyError as exc:
            back = False
            report.property_failures.append(
                {"kind": "membership-error", "psi": psi.to_json(),
                 "lambda": list(claimed.lam), "error": str(exc)})
        if not back:
            report.property_failures.append(
                {"kind": "round-trip-membership", "psi": psi.to_json(),
                 "lambda": list(claimed.lam)})

    if not oracle_hits:
        return
    # The lowest weight member must be the holomorphic candidate.
    for w in oracle_hits:
        try:
            holomorphic = oracle_contains(psi, w)
        except InternalInconsistencyError as exc:
            report.property_failures.append(
                {"kind": "membership-error", "psi": psi.to_json(),
                 "lambda": list(w.lam), "error": str(exc)})
            continue
        if not holomorphic:
            report.property_failures.append(
                {"kind": "lowest-weight-member-not-holomorphic",
                 "psi": psi.to_json(), "lambda": list(w.lam)})
    if not d_zero(psi).is_holomorphic():
        report.property_failures.append(
            {"kind": "holomorphic-candidate", "psi": psi.to_json()})


def _two_block_share(n: int) -> Iterator[InductionDescriptor]:
    # The two-block data of rank n with mediocre values, one at a time: the
    # second value is 0 and the first ranges over [-4, 3], a window of
    # width 8.  The sweep never lists a rank's share: it has up to
    # 8 * (C(n + 3, 3) - 2n - 2) data, 1,413,192 at n = 100.
    for a1 in range(1, n):
        a2 = n - a1
        for p1 in range(a1 + 1):
            for p2 in range(a2 + 1):
                sig = GroupSignature(p1 + p2, (a1 - p1) + (a2 - p2))
                d = ThetaData(sig, ((p1, a1 - p1), (p2, a2 - p2)))
                for v1 in range(-4, 4):
                    desc = InductionDescriptor(d, (v1, 0))
                    if range_class(desc):
                        yield desc


def _check_two_block(desc: InductionDescriptor, report: SweepReport) -> None:
    # Verdicts are compared as pairs or None, by value, so a pair of
    # another signature or character is recorded like any other change.
    report.bump("two-block")
    (p1, q1), (p2, q2) = desc.d.blocks
    expected = min(p1, q2) + min(q1, p2) >= _sing(*segments_of(desc))
    try:
        out = tableau_pair(desc)
    except InternalInconsistencyError as exc:
        report.property_failures.append(
            {"kind": "two-block-error", "descriptor": desc.to_json(),
             "error": str(exc)})
        return
    pair = out.invariants
    if (pair is not None) != expected:
        report.property_failures.append(
            {"kind": "two-block-nonvanishing", "descriptor": desc.to_json(),
             "expected_nonzero": expected, "got_nonzero": pair is not None})
    if pair is not None:
        # Idempotence: normalizing the normalized stack changes nothing.
        try:
            if trapa_normalize(out.stack).invariants != pair:
                report.property_failures.append(
                    {"kind": "idempotence", "descriptor": desc.to_json()})
        except InternalInconsistencyError as exc:
            report.property_failures.append(
                {"kind": "two-block-error", "descriptor": desc.to_json(),
                 "error": str(exc)})

    if desc.d.is_holomorphic():
        for side in ("next", "prev"):
            # A fault in the rewrite or in normalizing the swapped datum is
            # recorded.
            try:
                try:
                    swapped = absorb_adjacent(desc, side)
                except ValueError:
                    continue  # no rewrite applies
                other = tableau_pair(swapped).invariants
            except InternalInconsistencyError as exc:
                report.property_failures.append(
                    {"kind": "absorb-adjacent-error", "descriptor": desc.to_json(),
                     "side": side, "error": str(exc)})
                continue
            if other != pair:
                report.property_failures.append(
                    {"kind": "absorb-adjacent", "descriptor": desc.to_json(),
                     "side": side})


def sweep_signature(sig: GroupSignature, cfg: SweepConfig) -> SweepReport:
    """The part of the sweep attached to one signature.

    The two sides share one psi object per parameter, so what a psi keeps
    (its character, candidate and holomorphic member) is derived once per
    signature: the lambda side lists the parameters of each character
    once, and the psi side takes the lambda side's object for an equal
    psi.  After a character's last weight only the objects the psi side
    will check are held.  Each side checks its instances in its own
    order."""
    report = SweepReport(config=cfg.to_json())
    weights = [w for w in dominant_weights(sig, cfg.weight_window) if is_unitarizable(w)]
    last = {inf_char_of_lowest_weight(w): i for i, w in enumerate(weights)}
    window = {psi: psi for psi in good_parameters_in_window(sig, cfg.char_window)}
    by_chi: dict[HalfIntMultiset, list[AParameter]] = {}
    for i, w in enumerate(weights):
        report.bump("weights")
        chi = inf_char_of_lowest_weight(w)
        if chi not in by_chi:
            by_chi[chi] = good_parameters_with_inf_char(sig, chi)
        _check_lambda_side(sig, w, by_chi[chi], report)
        if last[chi] == i:
            for psi in by_chi.pop(chi):
                if psi in window:
                    window[psi] = psi
    for psi in window.values():
        _check_psi_side(psi, report)
    return report


def _sweep_two_block(n: int, cfg: SweepConfig) -> SweepReport:
    """The part of the sweep attached to the two-block data of rank n."""
    report = SweepReport(config=cfg.to_json())
    for desc in _two_block_share(n):
        _check_two_block(desc, report)
    return report


def _sweep_signature_task(task: tuple[int, int | None, SweepConfig]) -> SweepReport:
    # One task of a pooled sweep, run in a worker: (n, p, cfg) is the
    # signature U(p, n - p), and (n, None, cfg) the two-block data of rank n.
    n, p, cfg = task
    if p is None:
        return _sweep_two_block(n, cfg)
    return sweep_signature(GroupSignature(p, n - p), cfg)


def _default_sigterm() -> None:
    # The pool ends idle workers with SIGTERM.  A Python handler inherited
    # from the parent only sets a flag, and a worker that gets SIGTERM just
    # before it blocks on the task queue's lock never runs it: it sleeps
    # forever, and so does the parent joining it.  The default action ends
    # the worker wherever it is.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def sweep_verify(cfg: SweepConfig, jobs: int = 1) -> SweepReport:
    """Run the full verification sweep.

    Signatures are enumerated small to large, so the first recorded
    disagreement is already a minimal counterexample for its kind; the
    two-block data follow, also by rank.  With jobs > 1 every signature and
    the two-block data of each rank are tasks of one process pool of at
    most jobs processes, and no more than there are tasks or CPUs.  The
    pool takes the tasks largest rank first, so the costliest start first
    and no worker is left with them at the end; the reports are merged in
    the serial order, so the output is identical either way.
    """
    sigs = [(p, n - p) for n in range(1, cfg.max_N + 1) for p in range(n + 1)]
    tasks = ([(p + q, p, cfg) for p, q in sigs]
             + [(n, None, cfg) for n in range(2, cfg.max_N + 1)])
    report = SweepReport(config=cfg.to_json())
    processes = min(jobs, len(tasks), os.cpu_count() or 1)
    if processes > 1:
        order = sorted(range(len(tasks)), key=lambda i: -tasks[i][0])
        with Pool(processes, _default_sigterm) as pool:
            parts = pool.map(_sweep_signature_task, [tasks[i] for i in order])
        for _, part in sorted(zip(order, parts), key=lambda pair: pair[0]):
            report.merge(part)
    else:
        for p, q in sigs:
            report.merge(sweep_signature(GroupSignature(p, q), cfg))
        for n in range(2, cfg.max_N + 1):
            report.merge(_sweep_two_block(n, cfg))
    return report
