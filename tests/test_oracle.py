import dataclasses
import hashlib
import itertools
from collections import Counter

from upq_packets import oracle, packets
from upq_packets.halfint import HalfInt, HalfIntMultiset
from upq_packets.oracle import (SweepConfig, SweepReport, dominant_weights,
                                good_parameters_in_window,
                                oracle_lowest_weights, sweep_signature,
                                sweep_verify, two_block_data)
from upq_packets.packets import AParameter, d_zero, inf_char, packet
from upq_packets.weights import GroupSignature, is_unitarizable, kweight_from_pq


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
    oracle._check_psi_side(psi, report)
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


def test_two_block_data_all_mediocre():
    from upq_packets.cohind import range_class
    data = two_block_data(4)
    assert all(range_class(d) for d in data)
    assert len(data) > 200


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
    # Five signatures up to N=2, three CPUs: the CPUs bound the pool.
    assert sweep_verify(cfg, jobs=10**6).dumps() == serial
    assert requested == [3]
    # Two signatures at N=1: the signatures bound it.
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
    small = SweepConfig(max_N=1, weight_window=1, char_window=HalfInt.whole(1))
    assert sweep_verify(small, jobs=10**6).dumps() == sweep_verify(small).dumps()
    assert requested == [3, 2]
    # An unknown CPU count leaves one process: the sweep runs serially.
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
    assert sweep_verify(cfg, jobs=4).dumps() == serial
    assert requested == [3, 2]


def test_signature_sweep_counts_instances():
    cfg = SweepConfig(max_N=2, weight_window=1, char_window=HalfInt.whole(1))
    rep = sweep_signature(GroupSignature(1, 1), cfg)
    assert rep.instances_checked > 0
