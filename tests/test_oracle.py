import dataclasses
import hashlib
import itertools
import re
import tracemalloc
from collections import Counter

import pytest

from upq_packets import cohind, oracle, packets
from upq_packets.cohind import (ThetaData, absorb_adjacent, normalize_blocks,
                                realize_lowest_weight, segments_of, tableau_pair)
from upq_packets.errors import InternalInconsistencyError
from upq_packets.halfint import HalfInt, HalfIntMultiset
from upq_packets.oracle import (SweepConfig, SweepReport, dominant_weight_count,
                                dominant_weights, good_parameter_count,
                                good_parameters_in_window,
                                oracle_lowest_weights, sweep_signature,
                                sweep_verify)
from upq_packets.packets import (AParameter, contains_lowest_weight, d_zero, inf_char,
                                 good_parameters_with_inf_char, lowest_weight_of_packet,
                                 packet)
from upq_packets.tableaux import NormalizeOutcome, SignedTableau, _sing, trapa_normalize
from upq_packets.weights import (GroupSignature, inf_char_of_lowest_weight,
                                 is_unitarizable, kweight_from_pq)


def test_dominant_weights_enumeration():
    ws = dominant_weights(GroupSignature(1, 1), 1)
    assert len(ws) == 9
    assert all(len(w.lam) == 2 for w in ws)
    ws = dominant_weights(GroupSignature(2, 0), 1)
    assert sorted(w.lam for w in ws) == [(-1, -1), (0, -1), (0, 0), (1, -1),
                                         (1, 0), (1, 1)]


def test_good_parameters_in_window():
    psis = good_parameters_in_window(GroupSignature(1, 1), HalfInt.whole(1))
    # chi entries live in {-1/2, 1/2}: segments {1/2}, {-1/2}, [-1/2,1/2].
    assert {p.summands for p in psis} == {
        ((0, 2),), ((1, 1), (1, 1)), ((1, 1), (-1, 1)), ((-1, 1), (-1, 1))}
    for p in psis:
        for t in inf_char(p).twice:
            assert abs(t) <= 2


def test_oracle_lowest_weights_uniqueness():
    sig = GroupSignature(1, 1)
    for psi in good_parameters_in_window(sig, HalfInt.whole(2)):
        hits = oracle_lowest_weights(psi)
        assert len(hits) <= 1


PINNED_COUNTS = {"membership-pairs": 1294, "packets": 681, "two-block": 258, "weights": 411}
PINNED_SHA256 = "6b67448339eb5503d7ea7037736f0eaf5328940cbf54ed8b9b12b3b2550b471a"


def test_sweep_report_is_pinned():
    # The serial sweep at N <= 4, weight window 2 and character window 2:
    # any change to the report's bytes shows here.
    rep = sweep_verify(SweepConfig(4, 2, HalfInt.whole(2)))
    assert rep.instances_checked == 2644
    assert rep.counts == PINNED_COUNTS
    assert hashlib.sha256(rep.dumps().encode()).hexdigest() == PINNED_SHA256


def test_a_lowest_weight_member_off_d0_is_found_and_reported(monkeypatch):
    # Swap the pairs of the two members of the U(1,1) discrete series
    # packet, so that the lowest weight module sits at the member that is
    # not d0: the oracle must still find it, and the sweep must say where.
    # packet(psi) keeps d0's real member on psi, so the sweep checks a
    # fresh copy.
    psi = AParameter.from_summands(GroupSignature(1, 1), [(1, 1), (-1, 1)])
    hits = oracle_lowest_weights(psi)
    first, second = packet(psi)
    assert first.d == d_zero(psi) and first.nonzero and second.nonzero and hits
    swapped = [dataclasses.replace(first, invariants=second.invariants),
               dataclasses.replace(second, invariants=first.invariants)]
    monkeypatch.setattr(oracle, "packet", lambda p: swapped)
    monkeypatch.setattr(packets, "member",
                        lambda p, d: next(m for m in swapped if m.d == d))
    assert oracle_lowest_weights(psi) == hits
    report = SweepReport(config={})
    oracle._check_psi_side(dataclasses.replace(psi), report)
    assert report.mismatches == []
    assert report.property_failures == [
        {"kind": "lowest-weight-member-not-holomorphic", "psi": psi.to_json(),
         "lambda": list(hits[0].lam)}]


def test_unitarizable_splits_follow_the_multiplicities_in_order():
    # An independent enumeration of the sub-multisets P of chi of size p:
    # how many of each value go to P, for the values largest first, each
    # count running from its largest down to 0.
    for n in range(1, 7):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            chis = dict.fromkeys(inf_char(psi) for psi in
                                 good_parameters_in_window(sig, HalfInt.whole(2)))
            for chi in chis:
                runs = list(Counter(chi.twice).items())
                expected = []
                for counts in itertools.product(*[range(m, -1, -1) for _, m in runs]):
                    if sum(counts) != p:
                        continue
                    P = HalfIntMultiset(tuple(t for (t, _), k in zip(runs, counts)
                                              for _ in range(k)))
                    w = kweight_from_pq(sig, P, chi.difference(P))
                    if w is not None and is_unitarizable(w):
                        expected.append(w)
                assert list(oracle._unitarizable_splits(sig, chi)) == expected, chi


def two_block_data(max_N):
    """Every two-block datum the sweep checks up to N = max_N: each rank's
    share, by rank, smallest first."""
    return [desc for n in range(2, max_N + 1) for desc in oracle._two_block_share(n)]


def test_two_block_data_all_mediocre():
    from upq_packets.cohind import range_class
    data = two_block_data(4)
    assert all(range_class(d) for d in data)
    assert len(data) > 200


def test_two_block_data_is_the_per_rank_shares_in_rank_order():
    # The sweep checks each rank's share as one task; the tests read
    # two_block_data.  Both must list the same data in the same order.
    for max_N in range(1, 7):
        shares = [list(oracle._two_block_share(n)) for n in range(2, max_N + 1)]
        assert [d for share in shares for d in share] == two_block_data(max_N)
        for n, share in enumerate(shares, start=2):
            assert share and all(d.d.sig.N == n for d in share)
    # The pinned sweeps count 258 two-block data at N <= 4 and 1130 at N <= 6.
    assert len(two_block_data(4)) == 258 and len(two_block_data(6)) == 1130


def test_two_block_share_is_taken_one_datum_at_a_time():
    # Rank 100 has 1,413,192 two-block data, every one mediocre.  The sweep
    # takes them one at a time, so the first 20,000 hold no more memory
    # than one; as a list they would hold about 4 MB.
    tracemalloc.start()
    try:
        share = oracle._two_block_share(100)
        for desc in itertools.islice(share, 20_000):
            assert desc.d.sig.N == 100
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_sweep_small_window_is_clean():
    cfg = SweepConfig(max_N=2, weight_window=2, char_window=HalfInt.whole(2))
    rep = sweep_verify(cfg)
    assert rep.instances_checked > 0
    assert rep.mismatches == []
    assert rep.property_failures == []
    assert rep.ok


def test_sweep_degenerate_signatures_traverse():
    cfg = SweepConfig(max_N=1, weight_window=1, char_window=HalfInt.whole(1))
    rep = sweep_verify(cfg)
    assert rep.ok and rep.instances_checked > 0


def test_sweep_reports_are_deterministic():
    cfg = SweepConfig(max_N=2, weight_window=1, char_window=HalfInt.whole(2))
    a = sweep_verify(cfg).dumps()
    b = sweep_verify(cfg).dumps()
    assert a == b


def test_sweep_parallel_matches_serial():
    cfg = SweepConfig(max_N=3, weight_window=1, char_window=HalfInt.whole(2))
    serial = sweep_verify(cfg, jobs=1).dumps()
    parallel = sweep_verify(cfg, jobs=2).dumps()
    assert serial == parallel


def test_pool_size_is_bounded_by_signatures_and_cpus(monkeypatch):
    # A recorder stands in for the pool, so no process is ever started.
    requested = []

    class SerialPool:
        def __init__(self, processes, initializer):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, iterable):
            return list(map(func, iterable))

    monkeypatch.setattr(oracle, "Pool", SerialPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    cfg = SweepConfig(max_N=2, weight_window=1, char_window=HalfInt.whole(2))
    serial = sweep_verify(cfg, jobs=1).dumps()
    assert requested == []
    # Six tasks up to N=2 (five signatures and the two-block data of
    # rank 2), three CPUs: the CPUs bound the pool.
    assert sweep_verify(cfg, jobs=10**6).dumps() == serial
    assert requested == [3]
    # Two tasks at N=1, both signatures: the tasks bound it.
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    small = SweepConfig(max_N=1, weight_window=1, char_window=HalfInt.whole(1))
    assert sweep_verify(small, jobs=10**6).dumps() == sweep_verify(small).dumps()
    assert requested == [3, 2]
    # An unknown CPU count leaves one process: the sweep runs serially.
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert sweep_verify(cfg, jobs=4).dumps() == serial
    assert requested == [3, 2]


def test_pooled_sweep_merges_in_serial_order(monkeypatch):
    # A stand-in pool that starts no process runs the tasks in reverse; each
    # signature and two-block datum leaves a failure naming it, so the
    # merged report shows the order the parts were merged in.
    received = []
    checked_in_pool = []
    checked_in_parent = []
    in_pool = [False]

    class ReversePool:
        def __init__(self, processes, initializer):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, iterable):
            tasks = list(iterable)
            received.extend(tasks)
            in_pool[0] = True
            try:
                return [func(task) for task in reversed(tasks)][::-1]
            finally:
                in_pool[0] = False

    def fake_signature(sig, cfg):
        report = SweepReport(config=cfg.to_json())
        report.bump("weights")
        report.property_failures.append({"kind": "sig", "p": sig.p, "q": sig.q})
        return report

    def fake_two_block(desc, report):
        (checked_in_pool if in_pool[0] else checked_in_parent).append(desc)
        report.bump("two-block")
        report.property_failures.append({"kind": "two-block",
                                         "descriptor": desc.to_json()})

    monkeypatch.setattr(oracle, "Pool", ReversePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oracle, "sweep_signature", fake_signature)
    monkeypatch.setattr(oracle, "_check_two_block", fake_two_block)
    cfg = SweepConfig(max_N=4, weight_window=1, char_window=HalfInt.whole(1))
    serial = sweep_verify(cfg, jobs=1)
    checked_in_parent.clear()
    pooled = sweep_verify(cfg, jobs=2)
    assert pooled.dumps() == serial.dumps()

    data = two_block_data(4)
    sigs = [(p, n - p) for n in range(1, 5) for p in range(n + 1)]
    assert pooled.property_failures == (
        [{"kind": "sig", "p": p, "q": q} for p, q in sigs]
        + [{"kind": "two-block", "descriptor": d.to_json()} for d in data])
    assert Counter(checked_in_pool) == Counter(data)
    assert checked_in_parent == []
    ranks = [task[0] for task in received]
    assert len(received) == len(sigs) + 3
    assert ranks == sorted(ranks, reverse=True)


def test_sweep_config_refuses_too_many_signatures():
    limit = oracle.MAX_SWEEP_SIGNATURES
    # max_N = 100 covers exactly the limit; one more rank is refused.  At
    # windows 0 no signature lists more than one weight and one parameter.
    assert SweepConfig(100, 0, HalfInt.whole(0)).max_N == 100
    assert (100 + 1) * (100 + 2) // 2 - 1 == limit
    with pytest.raises(ValueError, match="covers 5252 signatures"):
        SweepConfig(101, 1, HalfInt.whole(1))


@pytest.mark.parametrize("max_N, window, char_window, message", [
    # U(5, 5) lists 213,444 weights and 282,231 parameters: admitted.
    (10, 3, 4, None),
    (11, 3, 4, "12376 weights and 1484472 parameters for U(0,11), 1496848 together"),
    # max_N = 100 covers the signature limit exactly, but at windows 1
    # U(14, 47) alone lists more than 10^6.
    (100, 1, 1, "141120 weights and 866349 parameters for U(14,47), 1007469 together"),
    (1, 10**9, 10**9 + 1,
     "2000000001 weights and 2000000003 parameters for U(0,1), 4000000004 together"),
], ids=["n10-admitted", "n11", "n100", "window-1e9"])
def test_sweep_config_refuses_a_signature_too_large_to_list(max_N, window, char_window,
                                                           message):
    # The listings are counted, not built, so each verdict is immediate.
    if message is None:
        assert SweepConfig(max_N, window, HalfInt.whole(char_window)).max_N == max_N
        return
    with pytest.raises(ValueError,
                       match=re.escape(f"{message}, more than the limit of 1000000")):
        SweepConfig(max_N, window, HalfInt.whole(char_window))


def test_listing_counts_equal_the_lengths_of_the_listings():
    # Every signature up to N = 6 at weight windows 0-2 and character
    # windows 0-3; the parameter count depends on the rank alone.
    for n in range(1, 7):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            for window in range(3):
                assert (dominant_weight_count(sig, window)
                        == len(dominant_weights(sig, window))), (sig, window)
            for window in map(HalfInt.whole, range(4)):
                assert (good_parameter_count(n, window)
                        == len(good_parameters_in_window(sig, window))), (sig, window)
    # At the acceptance windows (N <= 6, windows 3 and 4): the swept
    # weights, and the report's pinned packet count.
    sigs = [GroupSignature(p, n - p) for n in range(1, 7) for p in range(n + 1)]
    assert sum(dominant_weight_count(sig, 3) for sig in sigs) == 38759
    assert sum(good_parameter_count(sig.N, HalfInt.whole(4)) for sig in sigs) == 69719
    assert good_parameter_count(6, HalfInt.whole(4)) == 6445


def test_signature_sweep_counts_instances():
    cfg = SweepConfig(max_N=2, weight_window=1, char_window=HalfInt.whole(1))
    rep = sweep_signature(GroupSignature(1, 1), cfg)
    assert rep.instances_checked > 0


def test_sweep_signature_shares_one_psi_object_per_parameter(monkeypatch):
    # The lambda side lists the parameters of each character once, and the
    # psi side is handed the lambda side's object for every psi the two
    # sides share.  U(2, 2) at weight window 2 and character window 2.
    listed, checked = [], []
    real_list, real_check = oracle.good_parameters_with_inf_char, oracle._check_psi_side
    monkeypatch.setattr(oracle, "good_parameters_with_inf_char",
                        lambda sig, chi: listed.append(real_list(sig, chi)) or listed[-1])
    monkeypatch.setattr(oracle, "_check_psi_side",
                        lambda psi, report: checked.append(psi) or real_check(psi, report))
    report = sweep_signature(GroupSignature(2, 2), SweepConfig(4, 2, HalfInt.whole(2)))
    assert report.ok
    chis = [inf_char(psis[0]) for psis in listed]
    assert len(set(chis)) == len(chis)
    lambda_side = {psi: psi for psis in listed for psi in psis}
    shared = [psi for psi in checked if psi in lambda_side]
    assert all(psi is lambda_side[psi] for psi in shared)
    assert checked == good_parameters_in_window(GroupSignature(2, 2), HalfInt.whole(2))
    assert (len(chis), len(lambda_side), len(shared), len(checked)) == (24, 109, 51, 80)


# Planted faults at N <= 3, weight window 2 and character window 2.  The
# two sides share psi objects, so each fault is planted on one side's
# route and must still show there, first at the smallest signature in
# sweep order where it changes an answer.  A fault applies to every psi,
# or to the noncompact signatures only.
FAULT_CFG = SweepConfig(3, 2, HalfInt.whole(2))
FAULT_SIGS = [GroupSignature(p, n - p) for n in range(1, 4) for p in range(n + 1)]
FAULT_SCOPES = {"every": lambda psi: True,
                "noncompact": lambda psi: psi.sig.p > 0 and psi.sig.q > 0}


def _membership_pairs():
    # The (psi, w) membership pairs of the lambda side at FAULT_CFG, in its
    # order: signatures, weights, then the psi of the weight's character.
    return [(psi, w) for sig in FAULT_SIGS
            for w in dominant_weights(sig, FAULT_CFG.weight_window) if is_unitarizable(w)
            for psi in good_parameters_with_inf_char(sig, inf_char_of_lowest_weight(w))]


@pytest.mark.parametrize("scope, first_sig", [("every", (0, 1)), ("noncompact", (1, 1))])
def test_a_flipped_membership_theorem_shows_as_theorem_main(monkeypatch, scope, first_sig):
    # Every pair the fault reaches is recorded, the first one first.
    applies = FAULT_SCOPES[scope]
    reached = [(psi, w) for psi, w in _membership_pairs() if applies(psi)]
    psi, w = reached[0]
    truth = contains_lowest_weight(psi, w)
    monkeypatch.setattr(oracle, "contains_lowest_weight",
                        lambda psi, w: contains_lowest_weight(psi, w) != applies(psi))
    report = sweep_verify(FAULT_CFG)
    assert (psi.sig.p, psi.sig.q) == first_sig
    assert report.mismatches[0] == {"kind": "theorem-main", "psi": psi.to_json(),
                                    "lambda": list(w.lam), "theorem": not truth,
                                    "oracle": truth}
    assert [m["kind"] for m in report.mismatches] == ["theorem-main"] * len(reached)


@pytest.mark.parametrize("scope, first_sig", [("every", (0, 1)), ("noncompact", (1, 1))])
def test_a_lost_lowest_weight_shows_as_lowest_weight_extraction(monkeypatch, scope,
                                                                first_sig):
    # The first record is the first psi of the psi side's order
    # (signatures, then the window's parameters) whose packet has a lowest
    # weight that the fault hides.
    applies = FAULT_SCOPES[scope]
    psi, lam = next((psi, lam) for sig in FAULT_SIGS
                    for psi in good_parameters_in_window(sig, FAULT_CFG.char_window)
                    if applies(psi) for lam in [lowest_weight_of_packet(psi)]
                    if lam is not None)
    monkeypatch.setattr(oracle, "lowest_weight_of_packet",
                        lambda psi: None if applies(psi) else lowest_weight_of_packet(psi))
    report = sweep_verify(FAULT_CFG)
    assert (psi.sig.p, psi.sig.q) == first_sig
    assert report.mismatches[0] == {"kind": "lowest-weight-extraction",
                                    "psi": psi.to_json(), "theorem": None,
                                    "oracle": list(lam.lam)}
    assert {m["kind"] for m in report.mismatches} == {"lowest-weight-extraction"}


@pytest.mark.parametrize("scope, first_sig", [("every", (0, 1)), ("noncompact", (1, 1))])
def test_a_failed_multiplicity_one_check_shows_as_multiplicity_one(monkeypatch, scope,
                                                                   first_sig):
    # packet() raises on every psi the fault reaches.  Only the psi side's
    # oracle builds whole packets, so each such psi is recorded once, in
    # the psi side's order (signatures, then the window's parameters), and
    # its checks stop there.
    applies = FAULT_SCOPES[scope]
    message = "planted fault: two members share an invariant pair"

    def faulty(psi):
        if applies(psi):
            raise InternalInconsistencyError(message)
        return packet(psi)

    expected = [{"kind": "multiplicity-one", "psi": psi.to_json(), "error": message}
                for sig in FAULT_SIGS
                for psi in good_parameters_in_window(sig, FAULT_CFG.char_window)
                if applies(psi)]
    monkeypatch.setattr(oracle, "packet", faulty)
    report = sweep_verify(FAULT_CFG)
    assert (expected[0]["psi"]["p"], expected[0]["psi"]["q"]) == first_sig
    assert report.mismatches == []
    assert report.property_failures == expected


@pytest.mark.parametrize("scope, first_sig", [("every", (0, 1)), ("noncompact", (1, 1))])
def test_a_failed_extraction_shows_as_extraction_error(monkeypatch, scope, first_sig):
    # lowest_weight_of_packet raises on every psi the fault reaches.  Per
    # signature, the lambda side records each membership pair whose
    # packet contains the weight (the extraction error, then the failed
    # round trip), and the psi side then records each psi once; so the
    # first record is the first member pair the fault reaches.
    applies = FAULT_SCOPES[scope]
    message = "planted fault: no valid index i0"

    def faulty(psi):
        if applies(psi):
            raise InternalInconsistencyError(message)
        return lowest_weight_of_packet(psi)

    pairs = _membership_pairs()
    expected = []
    for sig in FAULT_SIGS:
        for psi, w in pairs:
            if psi.sig == sig and applies(psi) and contains_lowest_weight(psi, w):
                expected += [{"kind": "extraction-error", "psi": psi.to_json(), "error": message},
                             {"kind": "round-trip-extraction", "psi": psi.to_json(),
                              "lambda": list(w.lam), "extracted": None}]
        expected += [{"kind": "extraction-error", "psi": psi.to_json(), "error": message}
                     for psi in good_parameters_in_window(sig, FAULT_CFG.char_window)
                     if applies(psi)]
    monkeypatch.setattr(oracle, "lowest_weight_of_packet", faulty)
    report = sweep_verify(FAULT_CFG)
    psi, w = next((psi, w) for psi, w in pairs
                  if applies(psi) and contains_lowest_weight(psi, w))
    assert (psi.sig.p, psi.sig.q) == first_sig
    assert expected[:2] == [{"kind": "extraction-error", "psi": psi.to_json(), "error": message},
                            {"kind": "round-trip-extraction", "psi": psi.to_json(),
                             "lambda": list(w.lam), "extracted": None}]
    assert report.mismatches == []
    assert report.property_failures == expected


@pytest.mark.parametrize("repeat", [1, 2])
def test_a_d0_that_is_not_holomorphic_is_recorded_once_per_psi(monkeypatch, repeat):
    # ThetaData.is_holomorphic answers False for the d_0 that the psi side
    # asks about and nowhere else.  With repeat = 2 the oracle also finds
    # each lowest weight twice.  Either way each psi whose packet holds a
    # lowest weight module gets one holomorphic-candidate record, in the
    # psi side's order, so the first is at the least signature.
    d0s = {}  # id -> d_0, kept alive so that no id is reused
    real_holomorphic = ThetaData.is_holomorphic

    def d0_of(psi):
        d0 = d_zero(psi)
        d0s[id(d0)] = d0
        return d0

    hits = {psi: oracle_lowest_weights(psi) for sig in FAULT_SIGS
            for psi in good_parameters_in_window(sig, FAULT_CFG.char_window)}
    expected = []
    for psi, found in hits.items():
        if found and repeat > 1:
            expected.append({"kind": "packet-uniqueness", "psi": psi.to_json(),
                             "lambdas": [list(w.lam) for w in found * repeat]})
        if found:
            expected.append({"kind": "holomorphic-candidate", "psi": psi.to_json()})
    monkeypatch.setattr(oracle, "d_zero", d0_of)
    monkeypatch.setattr(ThetaData, "is_holomorphic",
                        lambda d: id(d) not in d0s and real_holomorphic(d))
    monkeypatch.setattr(oracle, "oracle_lowest_weights",
                        lambda psi: oracle_lowest_weights(psi) * repeat)
    report = sweep_verify(FAULT_CFG)
    assert report.mismatches == []
    assert report.property_failures == expected
    candidates = [f["psi"] for f in expected if f["kind"] == "holomorphic-candidate"]
    assert len(candidates) == sum(map(bool, hits.values())) > 0
    assert (candidates[0]["p"], candidates[0]["q"]) == (0, 1)


def test_an_internal_fault_in_a_rewrite_is_recorded_and_the_sweep_completes(monkeypatch):
    # A slip of one doubled unit in the tops that normalize_blocks and
    # absorb_adjacent both hand to _descriptor_from_tops makes every
    # rewrite that gets that far raise InternalInconsistencyError.  Each is
    # recorded with its instance, in sweep order (the weights of each
    # signature, then the two-block data by rank), so the first record of
    # each kind is its minimal instance, and the sweep still reports.
    real = cohind._descriptor_from_tops
    monkeypatch.setattr(cohind, "_descriptor_from_tops",
                        lambda sig, blocks, tops: real(sig, blocks, [t + 1 for t in tops]))
    expected = []
    for sig in FAULT_SIGS:
        for w in dominant_weights(sig, FAULT_CFG.weight_window):
            if not is_unitarizable(w):
                continue
            with pytest.raises((ValueError, InternalInconsistencyError)) as info:
                normalize_blocks(realize_lowest_weight(w))
            if info.type is InternalInconsistencyError:
                expected.append({"kind": "normalize-blocks-error", "lambda": list(w.lam),
                                 "p": sig.p, "q": sig.q, "error": str(info.value)})
    for desc in two_block_data(FAULT_CFG.max_N):
        for side in ("next", "prev") if desc.d.is_holomorphic() else ():
            with pytest.raises((ValueError, InternalInconsistencyError)) as info:
                absorb_adjacent(desc, side)
            if info.type is InternalInconsistencyError:
                expected.append({"kind": "absorb-adjacent-error", "descriptor": desc.to_json(),
                                 "side": side, "error": str(info.value)})
    report = sweep_verify(FAULT_CFG)
    assert report.mismatches == []
    assert report.property_failures == expected
    assert Counter(f["kind"] for f in expected) == {"normalize-blocks-error": 154,
                                                    "absorb-adjacent-error": 7}
    # U(0,1) is the first signature and lambda = (2) its first weight.
    assert expected[0] == {"kind": "normalize-blocks-error", "lambda": [2], "p": 0, "q": 1,
                           "error": "segment [5/2,5/2] not realizable at this position"}


def test_a_fault_in_normalizing_a_rewritten_datum_is_recorded_and_the_sweep_completes(
        monkeypatch):
    # A fault that only the rewritten data reach: tableau_pair raises on
    # each descriptor that normalize_blocks or absorb_adjacent returns, and
    # on no other.  Each is recorded under its rewrite's error kind with
    # its instance, in sweep order (the weights of each signature, then the
    # two-block data by rank), so the first record of each kind is its
    # minimal instance, and the sweep still reports.
    rewritten = {}  # id -> descriptor, kept alive so that no id is reused
    message = "planted fault in a rewritten datum"

    def remembered(rewrite):
        def run(*args):
            out = rewrite(*args)
            rewritten[id(out)] = out
            return out
        return run

    def faulty(desc):
        if id(desc) in rewritten:
            raise InternalInconsistencyError(message)
        return cohind.tableau_pair(desc)

    expected = []
    for sig in FAULT_SIGS:
        for w in dominant_weights(sig, FAULT_CFG.weight_window):
            if not is_unitarizable(w):
                continue
            try:
                normalize_blocks(realize_lowest_weight(w))
            except ValueError:
                continue
            expected.append({"kind": "normalize-blocks-error", "lambda": list(w.lam),
                             "p": sig.p, "q": sig.q, "error": message})
    for desc in two_block_data(FAULT_CFG.max_N):
        for side in ("next", "prev") if desc.d.is_holomorphic() else ():
            try:
                absorb_adjacent(desc, side)
            except ValueError:
                continue
            expected.append({"kind": "absorb-adjacent-error", "descriptor": desc.to_json(),
                             "side": side, "error": message})
    monkeypatch.setattr(oracle, "normalize_blocks", remembered(normalize_blocks))
    monkeypatch.setattr(oracle, "absorb_adjacent", remembered(absorb_adjacent))
    monkeypatch.setattr(oracle, "tableau_pair", faulty)
    report = sweep_verify(FAULT_CFG)
    assert report.mismatches == []
    assert report.property_failures == expected
    assert Counter(f["kind"] for f in expected) == {"normalize-blocks-error": 150,
                                                    "absorb-adjacent-error": 7}
    # U(0,1) is the first signature and lambda = (2) its first weight.
    assert expected[0] == {"kind": "normalize-blocks-error", "lambda": [2], "p": 0, "q": 1,
                           "error": message}


@pytest.mark.parametrize("shift, count, first_values", [(1, 42, [0, 0]), (-1, 10, [-1, 0])])
def test_a_sing_one_off_shows_as_two_block_nonvanishing(monkeypatch, shift, count,
                                                       first_values):
    # The two-block criterion min(p1, q2) + min(q1, p2) >= sing, with sing
    # read one off.  Each two-block datum whose vanishing the criterion
    # then misstates is recorded, in sweep order (the data by rank, after
    # every signature), so the first record is the first such datum of
    # the least rank: U(0,2) with blocks (0,1), (0,1).
    expected = []
    for desc in two_block_data(FAULT_CFG.max_N):
        (p1, q1), (p2, q2) = desc.d.blocks
        nonzero = not tableau_pair(desc).is_zero
        claimed = min(p1, q2) + min(q1, p2) >= _sing(*segments_of(desc)) + shift
        if claimed != nonzero:
            expected.append({"kind": "two-block-nonvanishing", "descriptor": desc.to_json(),
                             "expected_nonzero": claimed, "got_nonzero": nonzero})
    monkeypatch.setattr(oracle, "_sing", lambda a, b: _sing(a, b) + shift)
    report = sweep_verify(FAULT_CFG)
    assert report.mismatches == []
    assert report.property_failures == expected
    assert len(expected) == count
    first = expected[0]["descriptor"]
    assert ((first["p"], first["q"]), first["blocks"], first["values"]) == (
        (0, 2), [[0, 1], [0, 1]], first_values)


def _with_a_row_flipped(out):
    # out with its signed tableau's longest row of even length starting on
    # the other sign, which keeps the signature and changes the pair; out
    # itself when no row has even length.
    rows = list(out.as_tab.rows)
    for k, (length, first) in enumerate(rows):
        if length % 2 == 0:
            rows[k] = (length, -first)
            return NormalizeOutcome(out.stack, out.ann, SignedTableau(out.as_tab.sig, tuple(rows)))
    return out


@pytest.mark.parametrize("fault, count, first_sig, first_values", [
    ("zero", 82, (0, 2), [0, 0]), ("changed", 58, (1, 1), [-1, 0])])
def test_a_renormalized_stack_that_changes_shows_as_idempotence(monkeypatch, fault, count,
                                                                first_sig, first_values):
    # The second trapa_normalize in _check_two_block, on the normalized
    # stack, returns the zero outcome, or a changed pair (a row flipped).
    # Each nonzero two-block datum it changes is recorded, in sweep order,
    # so the first record is the first such datum of the least rank.
    faults = {"zero": lambda out: NormalizeOutcome(None, None, None),
              "changed": _with_a_row_flipped}
    expected = []
    for desc in two_block_data(FAULT_CFG.max_N):
        out = tableau_pair(desc)
        if not out.is_zero and faults[fault](out) != out:
            expected.append({"kind": "idempotence", "descriptor": desc.to_json()})
    monkeypatch.setattr(oracle, "trapa_normalize",
                        lambda stack: faults[fault](trapa_normalize(stack)))
    report = sweep_verify(FAULT_CFG)
    assert report.mismatches == []
    assert report.property_failures == expected
    assert len(expected) == count
    first = expected[0]["descriptor"]
    assert ((first["p"], first["q"]), first["values"]) == (first_sig, first_values)
