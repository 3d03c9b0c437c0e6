import collections
import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from upq_packets import packets, tableaux
from upq_packets.cohind import (InductionDescriptor, ThetaData, lowest_weight_invariants,
                                tableau_pair)
from upq_packets.errors import InternalInconsistencyError
from upq_packets.halfint import HalfInt, HalfIntMultiset
from upq_packets.oracle import (_unitarizable_splits, dominant_weights,
                                good_parameters_in_window)
from upq_packets.packets import (AParameter, PacketMember, contains_lowest_weight, d_zero,
                                 enumerate_D, epsilon,
                                 good_parameters_with_inf_char, inf_char,
                                 lowest_weight_of_packet, member,
                                 oracle_contains, packet, packets_containing)
from upq_packets.tableaux import (MINUS, PLUS, AntiTableau, SignedTableau, _pair_segments,
                                  build_initial, trapa_normalize)
from upq_packets.weights import (GroupSignature, KWeight, inf_char_of_lowest_weight,
                                 is_unitarizable, kweight_from_pq)

from test_properties import psis_sharing_a_weights_character, random_psis


def psi_of(p, q, *summands):
    return AParameter.from_summands(GroupSignature(p, q), list(summands))


def mset(*twices):
    return HalfIntMultiset.from_values(twices)


def w(p, q, *lam):
    return KWeight(GroupSignature(p, q), tuple(lam))


def test_goodness_validation():
    with pytest.raises(ValueError):
        psi_of(1, 1, (1, 2))  # t + a + N = 5, odd
    with pytest.raises(ValueError):
        psi_of(1, 1, (0, 1), (0, 1))  # t + a + N = 3, odd
    with pytest.raises(ValueError):
        psi_of(1, 1, (0, 3))  # dimensions exceed N
    psi_of(1, 1, (0, 2))
    psi_of(1, 1, (1, 1), (-1, 1))


def test_canonical_ordering():
    psi = psi_of(2, 1, (-4, 1), (2, 1), (2, 1))
    assert psi.summands == ((2, 1), (2, 1), (-4, 1))
    psi = psi_of(2, 2, (0, 2), (0, 2))
    assert psi.summands == ((0, 2), (0, 2))
    with pytest.raises(ValueError):
        AParameter(GroupSignature(1, 1), ((-1, 1), (1, 1)))


def test_inf_char_examples():
    assert inf_char(psi_of(1, 1, (0, 2))) == mset(1, -1)
    assert inf_char(psi_of(1, 1, (1, 1), (-1, 1))) == mset(1, -1)
    assert inf_char(psi_of(1, 2, (1, 2), (-2, 1))) == mset(2, 0, -2)


def test_enumerate_D_examples():
    assert [d.blocks for d in enumerate_D(psi_of(1, 1, (0, 2)))] == [((1, 1),)]
    assert [d.blocks for d in enumerate_D(psi_of(1, 1, (1, 1), (-1, 1)))] == [
        ((1, 0), (0, 1)), ((0, 1), (1, 0))]
    assert [d.blocks for d in enumerate_D(psi_of(2, 1, (0, 3)))] == [((2, 1),)]


def test_enumerate_D_counts():
    psi = psi_of(2, 2, (1, 1), (1, 1), (-1, 1), (-1, 1))
    ds = enumerate_D(psi)
    assert len(ds) == 6
    assert len({d.blocks for d in ds}) == 6


def test_the_counted_packet_size_is_the_enumerated_one():
    # |D(psi)| from the DP over the block sizes, on every packet whose
    # character lies in [-2, 2] up to N = 6.  Each datum enumerate_D
    # builds unchecked passes ThetaData's checks, the first is d_0, and the
    # p-parts strictly decrease lexicographically.
    checked = 0
    for n in range(1, 7):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(2)):
                ds = enumerate_D(psi)
                assert packets._count_D(psi) == len(ds), psi
                assert ds == [ThetaData(d.sig, d.blocks) for d in ds], psi
                assert ds[0] == d_zero(psi), psi
                parts = [[pk for pk, _ in d.blocks] for d in ds]
                assert all(a > b for a, b in zip(parts, parts[1:])), psi
                checked += 1
    assert checked > 1000


def test_d_zero_examples():
    d0 = d_zero(psi_of(1, 1, (1, 1), (-1, 1)))
    assert d0.pivot() == 0 and d0.blocks == ((1, 0), (0, 1))
    d0 = d_zero(psi_of(1, 1, (0, 2)))
    assert d0.pivot() == 0 and d0.blocks == ((1, 1),)
    d0 = d_zero(psi_of(2, 3, (1, 2), (0, 3)))
    assert d0.pivot() == 0 and d0.blocks == ((2, 0), (0, 3))
    d0 = d_zero(psi_of(0, 2, (0, 2)))
    assert d0.pivot() == 0 and d0.blocks == ((0, 2),)


def test_d_zero_pivot_is_the_straddling_index():
    # j = d_0.pivot() + 1 is the least j with a_1 + ... + a_j >= p.
    count = 0
    for n in range(1, 7):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(2)):
                d0 = d_zero(psi)
                assert d0 in enumerate_D(psi), psi
                assert d0.is_holomorphic(), psi
                least = next(j for j, total in enumerate(itertools.accumulate(psi.sizes()), 1)
                             if total >= p)
                assert d0.pivot() + 1 == least, psi
                count += 1
    assert count == 5358


def test_epsilon_values():
    psi = psi_of(1, 1, (0, 2))
    assert epsilon(psi, d_zero(psi)) == (1,)
    psi = psi_of(1, 1, (1, 1), (-1, 1))
    ds = enumerate_D(psi)
    assert epsilon(psi, ds[0]) == (1, 1)
    assert epsilon(psi, ds[1]) == (-1, -1)


def test_epsilon_is_the_written_out_sign_on_every_member_up_to_n_6():
    # epsilon reads psi's table of signs; the reference computes block i's
    # exponent p_i a_{<i} + q_i (a_{<i}+1) + a_i(a_i-1)/2 for each datum.
    checked = 0
    for n in range(1, 7):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(2)):
                for d in enumerate_D(psi):
                    expected, before = [], 0
                    for (pk, qk), (_, a) in zip(d.blocks, psi.summands):
                        exponent = pk * before + qk * (before + 1) + a * (a - 1) // 2
                        expected.append(1 if exponent % 2 == 0 else -1)
                        before += a
                    assert epsilon(psi, d) == tuple(expected), (psi, d)
                    checked += 1
    assert checked == 25771


def test_epsilon_ignores_t():
    # The sign character depends only on the blocks and sizes.
    a = psi_of(2, 2, (0, 2), (-2, 2))
    b = psi_of(2, 2, (4, 2), (-4, 2))
    for da, db in zip(enumerate_D(a), enumerate_D(b)):
        assert epsilon(a, da) == epsilon(b, db)


def test_member_examples():
    psi = psi_of(1, 1, (0, 2))
    m = member(psi, d_zero(psi))
    assert psi._values == (0,)
    assert m.nonzero
    psi = psi_of(2, 0, (1, 1), (1, 1))
    m = member(psi, enumerate_D(psi)[0])
    assert not m.nonzero and m.invariants is None


def test_member_rejects_foreign_block_data():
    psi = psi_of(1, 1, (0, 2))
    from upq_packets.cohind import ThetaData
    with pytest.raises(ValueError):
        member(psi, ThetaData(GroupSignature(1, 1), ((1, 0), (0, 1))))


def test_packet_multiplicity_one():
    psi = psi_of(1, 1, (1, 1), (-1, 1))
    ms = packet(psi)
    assert [m.nonzero for m in ms] == [True, True]
    assert ms[0].invariants[1].rows == ((2, PLUS),)
    assert ms[1].invariants[1].rows == ((2, MINUS),)


# U(3,2) with five far-apart S_1 summands: all ten members are nonzero.
TEN_LIVE = psi_of(3, 2, (8, 1), (4, 1), (0, 1), (-4, 1), (-8, 1))


def _with_invariants(monkeypatch, invariants_of):
    """Make packets._placed_invariants, which decides every member of
    TEN_LIVE but d_0's (every pair of it is apart, so none moves), hand
    out the invariants invariants_of(blocks, real) returns for the member
    with these blocks, where real is the pair actually read off its
    placement."""
    real_placed = packets._placed_invariants

    def fake(sig, blocks, segs, pairs):
        assert not pairs
        return invariants_of(blocks, real_placed(sig, blocks, segs, pairs))

    monkeypatch.setattr(packets, "_placed_invariants", fake)


def _open_pairs(segs):
    # (i, sing, aligned) for each adjacent pair of these segments that is
    # not apart: the pairs a member's placement is tested at.
    return [(i, *facts) for i, (left, right) in enumerate(zip(segs, segs[1:]))
            for facts in [_pair_segments(left, right)] if facts is not None]


def _normalized(stack):
    # trapa_normalize(stack), and whether it rewrote a pair.
    rewritten = []
    real = tableaux._rewrite_pair

    def counted(*args):
        rewritten.append(args)
        real(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tableaux, "_rewrite_pair", counted)
        out = trapa_normalize(stack)
    return out, bool(rewritten)


def _moving_members(psi):
    # The data of psi's members, d_0's left out, whose stack moves.
    return [d for d in enumerate_D(psi)[1:]
            if _normalized(build_initial(psi.sig, d.blocks, psi._segments))[1]]


@pytest.mark.parametrize("source, target", [(1, 4), (4, 1), (0, 9)])
def test_packet_repeated_pair_raises_naming_members_in_order(monkeypatch, source, target):
    psi = TEN_LIVE
    ds = enumerate_D(psi)
    copied = member(psi, ds[source]).invariants
    _with_invariants(monkeypatch,
                     lambda blocks, real: copied if blocks == ds[target].blocks else real)
    first, second = sorted((source, target))
    expected = f"members {ds[first].blocks} and {ds[second].blocks} of"
    with pytest.raises(InternalInconsistencyError, match=re.escape(expected)):
        packet(psi)


def test_packet_builds_a_descriptor_only_for_d0_once_per_psi(monkeypatch):
    # A member is its datum and its invariant pair.  packet() computes no
    # epsilon, and builds an InductionDescriptor only for d_0, whose member
    # psi keeps: once per psi, however often its packet is asked for and
    # whether or not a member moves.  Every psi of character window 2 up
    # to N = 4, each a fresh object.
    assert [f.name for f in dataclasses.fields(PacketMember)] == ["d", "invariants"]
    calls = collections.Counter()
    real_descriptor, real_epsilon = packets.InductionDescriptor, packets.epsilon

    def counting(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    monkeypatch.setattr(packets, "InductionDescriptor",
                        counting("descriptor", real_descriptor))
    monkeypatch.setattr(packets, "epsilon", counting("epsilon", real_epsilon))
    for n in range(1, 5):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(2)):
                calls["members"] += len(packet(psi))
                assert packet(psi)[0] is psi._d0_member
                calls["psi"] += 1
                calls["moves"] += len(_moving_members(psi))
    assert calls["epsilon"] == 0
    assert calls["descriptor"] == calls["psi"]
    assert calls["members"] > calls["descriptor"] and calls["moves"] > 0


def test_packet_compares_each_live_member_with_one_neighbour(monkeypatch):
    psi = TEN_LIVE
    calls = []
    real = packets.as_pair_equal

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(packets, "as_pair_equal", counting)
    live = sum(m.nonzero for m in packet(psi))
    assert live >= 10
    assert len(calls) == live - 1


def test_packet_refuses_a_member_of_another_character(monkeypatch):
    psi = TEN_LIVE
    shifted = psi_of(3, 2, *[(t + 2, a) for t, a in psi.summands])
    assert inf_char(shifted) != inf_char(psi)
    foreign = member(shifted, enumerate_D(shifted)[3]).invariants
    target = enumerate_D(psi)[3]
    _with_invariants(monkeypatch,
                     lambda blocks, real: foreign if blocks == target.blocks else real)
    with pytest.raises(InternalInconsistencyError, match="infinitesimal character"):
        packet(psi)


def test_packet_refuses_two_members_normalizing_to_one_outcome(monkeypatch):
    # packets._place puts member 6's boxes where member 1's go, so the two
    # read one pair off their placements.
    psi = TEN_LIVE
    ds = enumerate_D(psi)
    real_place = packets._place
    monkeypatch.setattr(packets, "_place", lambda sig, blocks: real_place(
        sig, ds[1].blocks if blocks == ds[6].blocks else blocks))
    expected = f"members {ds[1].blocks} and {ds[6].blocks} of"
    with pytest.raises(InternalInconsistencyError, match=re.escape(expected)) as info:
        packet(psi)
    assert "share an invariant pair" in str(info.value)


def test_packet_refuses_a_member_with_one_entry_shifted(monkeypatch):
    psi = TEN_LIVE
    target = enumerate_D(psi)[3]

    def shifted(blocks, real):
        if blocks != target.blocks:
            return real
        (top, *below), *rest = real[0].columns
        ann = AntiTableau(((top + 2, *below), *rest))  # still an antitableau
        assert ann.entries != real[0].entries
        return ann, real[1]

    _with_invariants(monkeypatch, shifted)
    with pytest.raises(InternalInconsistencyError,
                       match="another signature or infinitesimal character"):
        packet(psi)


def test_packet_refuses_a_member_whose_signed_tableau_has_another_signature(monkeypatch):
    # Member 3's signed tableau with every sign flipped: a signed tableau of
    # U(2,3), beside an antitableau that holds psi's character.
    psi = TEN_LIVE
    target = enumerate_D(psi)[3]

    def flipped(blocks, real):
        if blocks != target.blocks:
            return real
        as_tab = SignedTableau(GroupSignature(2, 3),
                               tuple((length, -first) for length, first in real[1].rows))
        assert as_tab.sig != psi.sig and real[0].entries == inf_char(psi).twice
        return real[0], as_tab

    _with_invariants(monkeypatch, flipped)
    with pytest.raises(InternalInconsistencyError,
                       match="another signature or infinitesimal character"):
        packet(psi)


def _check_placed_verdicts(psi):
    """packets._placed_invariants on every member of psi, d_0's included,
    against trapa_normalize on build_initial's stack, and packet(psi)
    against tableau_pair on every member's descriptor.  Returns the
    census of the verdicts: a member moved when normalizing its stack
    rewrites a pair."""
    census = collections.Counter()
    segs = psi._segments
    pairs = _open_pairs(segs)
    for d in enumerate_D(psi):
        stack = build_initial(psi.sig, d.blocks, segs)
        out, moved = _normalized(stack)
        invariants = packets._placed_invariants(psi.sig, d.blocks, segs, pairs)
        assert invariants == (None if out.is_zero else (out.ann, out.as_tab)), (psi, d)
        if moved:
            # Rewritten, or zero at a pair after the first rewrite.
            assert out.is_zero or out.stack is not stack, (psi, d)
            census["moved"] += 1
        elif out.is_zero:
            census["zero"] += 1
        else:
            assert out.stack is stack, (psi, d)
            census["normal"] += 1
    for m in packet(psi):
        out = tableau_pair(InductionDescriptor(m.d, psi._values))
        assert m.invariants == (None if out.is_zero else (out.ann, out.as_tab)), (psi, m.d)
    return census


def test_placed_verdicts_equal_the_normalized_stack_on_every_member_up_to_n_6():
    # Every member of every packet whose character lies in [-2, 2] up to
    # N = 6, counted by how its placement decides it: normal as placed,
    # zero at its first pair that is not idle, or moved.
    census = collections.Counter()
    for n in range(1, 7):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(2)):
                census += _check_placed_verdicts(psi)
    assert census == {"normal": 7082, "zero": 17854, "moved": 835}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(random_psis(max_n=10), psis_sharing_a_weights_character(max_n=10)))
def test_placed_verdicts_equal_the_normalized_stack_on_drawn_psi_up_to_n_10(psi):
    _check_placed_verdicts(psi)


def test_packet_builds_the_stacks_of_d0_and_of_the_members_that_move(monkeypatch):
    # Every psi of the N <= 4, window-2 sweep: packet(psi), then
    # oracle_contains(psi, w) for every weight of its character, build a
    # stack once for d_0, through tableau_pair (psi keeps its member), and
    # once for each member whose stack moves, through build_initial where
    # its placement moves, and for no other.
    built = collections.Counter()
    real_pair, real_build = packets.tableau_pair, packets.build_initial

    def counted_pair(desc):
        built[desc.d.blocks] += 1
        return real_pair(desc)

    def counted_build(sig, blocks, segments):
        built[blocks] += 1
        return real_build(sig, blocks, segments)

    monkeypatch.setattr(packets, "tableau_pair", counted_pair)
    monkeypatch.setattr(packets, "build_initial", counted_build)
    moved = 0
    for n in range(1, 5):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            for psi in good_parameters_in_window(sig, HalfInt.whole(2)):
                built.clear()
                members = packet(psi)
                for kw in _unitarizable_splits(sig, inf_char(psi)):
                    oracle_contains(psi, kw)
                moves = [d.blocks for d in _moving_members(psi)]
                assert members[0] is psi._d0_member, psi
                assert built == dict.fromkeys([d_zero(psi).blocks, *moves], 1), psi
                moved += len(moves)
    assert moved == 6


def test_contains_lowest_weight_u11():
    psi_ds = psi_of(1, 1, (1, 1), (-1, 1))
    psi_triv = psi_of(1, 1, (0, 2))
    ds = w(1, 1, 1, -1)
    triv = w(1, 1, 0, 0)
    assert contains_lowest_weight(psi_ds, ds)
    assert not contains_lowest_weight(psi_triv, ds)
    assert contains_lowest_weight(psi_triv, triv)
    assert not contains_lowest_weight(psi_ds, triv)
    assert oracle_contains(psi_ds, ds)
    assert not oracle_contains(psi_triv, ds)
    # Same infinitesimal character, different signature: a usage error.
    with pytest.raises(ValueError):
        contains_lowest_weight(psi_of(0, 2, (0, 2)), triv)


def test_lowest_weight_of_packet_fixtures():
    assert lowest_weight_of_packet(psi_of(1, 1, (0, 2))).lam == (0, 0)
    assert lowest_weight_of_packet(psi_of(1, 1, (1, 1), (-1, 1))).lam == (1, -1)
    assert lowest_weight_of_packet(psi_of(2, 1, (0, 3))).lam == (0, 0, 0)
    assert lowest_weight_of_packet(psi_of(1, 2, (1, 2), (-2, 1))).lam == (1, 0, -1)


def _searched_lowest_weight(psi):
    # The paper's explicit coordinates of the lowest K-type where q_j > 0,
    # written out in doubled ints: sigma = nu_{<j} || nu_{>j}, i0 the first
    # index of nu_j (largest first, then one step below it) at which
    # sigma's values above nu_j's i0-th value and nu_j's values from it
    # down number p.
    _, (lt, mid, gt), _ = psi._candidate
    p, q, n = psi.sig.p, psi.sig.q, psi.sig.N
    sigma, nu_vals, size = lt.union(gt).twice, mid.twice + (mid.twice[-1] - 2,), mid.size
    i0 = next(cand for cand in range(1, size + 2)
              if size - cand + 1 + sum(1 for x in sigma if x > nu_vals[cand - 1]) == p)
    top = nu_vals[0]
    lam = []
    for i in range(1, n + 1):
        if i < p - size + i0:
            val = sigma[i - 1] - (p - q + 1) + 2 * i
        elif i <= p:
            val = top + (n + 1) - 2 * size
        elif i <= p + i0 - 1:
            val = top - (n - 1)
        else:
            val = sigma[i - size - 1] - (n + 1) - 2 * p + 2 * i
        assert val % 2 == 0
        lam.append(val // 2)
    return KWeight(psi.sig, tuple(lam))


def test_lowest_weight_of_packet_search_is_the_written_out_formula():
    # Every psi of character window 3 up to N = 6, counted by which bound
    # on nu_j is attained; outside q_j = 0 the inversion of the searched P
    # must give the paper's coordinate formula.
    branches = collections.Counter()
    for n in range(1, 7):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(3)):
                (p_j, q_j), (lt, mid, gt), nonzero = psi._candidate
                if not nonzero:
                    branch = "none"
                elif q_j == 0:
                    branch = "q_j = 0"
                else:
                    if p_j == mid.intersection(gt).size:
                        branch = "p_j = |cap_gt|"
                    elif q_j == mid.intersection(lt).size:
                        branch = "q_j = |cap_lt|"
                    else:
                        branch = "interior"
                    assert lowest_weight_of_packet(psi) == _searched_lowest_weight(psi), psi
                branches[branch] += 1
    assert branches == {"none": 18673, "q_j = 0": 2338, "p_j = |cap_gt|": 933,
                        "q_j = |cap_lt|": 371, "interior": 759}


def _four_branch_lowest_weight(psi):
    # The four-branch rule for the lowest K-type: P named by which bound
    # is attained, q_j = 0, p_j = |nu_j /\ nu_{>j}| or q_j = |nu_j /\ nu_{<j}|,
    # and otherwise the search over nu_j's own values.
    (p_j, q_j), (lt, mid, gt), nonzero = psi._candidate
    if not nonzero:
        return None
    cap_gt, cap_lt = mid.intersection(gt), mid.intersection(lt)
    if q_j == 0:
        P = lt.union(mid)
    elif p_j == cap_gt.size:
        P = lt.union(cap_gt)
    elif q_j == cap_lt.size:
        P = lt.union(mid).difference(cap_lt)
    else:
        sigma, nu = lt.union(gt).twice, mid.twice
        P = next(HalfIntMultiset(above + nu[i:]) for i, v in enumerate(nu)
                 for above in [tuple(x for x in sigma if x > v)]
                 if len(above) + len(nu) - i == psi.sig.p)
    return kweight_from_pq(psi.sig, P, inf_char(psi).difference(P))


def test_lowest_weight_of_packet_equals_the_four_branch_rule_at_n_7_and_8():
    # The search, run one step past nu_j, names the P of both attained
    # bounds; every psi of character window 3 at N = 7 and 8.
    found = 0
    for n in (7, 8):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(3)):
                expected = _four_branch_lowest_weight(psi)
                assert lowest_weight_of_packet(psi) == expected, psi
                found += expected is not None
    assert found == 5804


def test_packets_containing_fixtures():
    assert [p.summands for p in packets_containing(w(1, 1, 1, -1))] == [
        ((1, 1), (-1, 1))]
    assert [p.summands for p in packets_containing(w(1, 1, 0, 0))] == [
        ((0, 2),)]
    assert [p.summands for p in packets_containing(w(1, 1, 1, 0))] == [
        ((1, 1), (1, 1))]


def test_packets_containing_equals_the_filter_up_to_n_6():
    # Every unitarizable weight of window 2 up to N = 6 against the filter
    # over every segment partition of its character, counted by the case
    # that selects the enumeration (0: p = 0 or q = 0; 1..4: the gap cases).
    cases = collections.Counter()
    for n in range(1, 7):
        for p in range(n + 1):
            for kw in dominant_weights(GroupSignature(p, n - p), 2):
                if is_unitarizable(kw):
                    chi = inf_char_of_lowest_weight(kw)
                    assert packets_containing(kw) == [
                        psi for psi in good_parameters_with_inf_char(kw.sig, chi)
                        if contains_lowest_weight(psi, kw)], kw
                    cases[packets._gap_case(kw)] += 1
    assert cases == {0: 922, 1: 66, 2: 66, 3: 63, 4: 302}


def test_packets_containing_u41_lists_three_admissible_straddles():
    # Gap case 1: P' = [-1, 2] and the bracket [-1, 0], so nu_j is one of
    # [-1, 2], [-1, 1] and [-1, 0].
    kw = w(4, 1, 1, 1, 1, 1, -2)
    assert packets._gap_case(kw) == 1
    assert packets._admissible_straddles(kw) == [(1, 4), (0, 3), (-1, 2)]
    assert [psi.summands for psi in packets_containing(kw)] == [
        ((1, 4), (0, 1)),
        ((2, 3), (-1, 2)),
        ((3, 2), (0, 1), (-1, 2)),
        ((4, 1), (0, 3), (0, 1)),
        ((4, 1), (1, 2), (-1, 2)),
        ((4, 1), (2, 1), (0, 1), (-1, 2))]


def test_packets_containing_u33_places_the_bracket_at_the_straddle():
    # Gap case 4: nu_j is the bracket [-3/2, 3/2].  chi minus the bracket
    # is {1/2, -1/2}, with two segment partitions; the bracket straddles
    # p = 3 in both, first in one and second in the other.
    kw = w(3, 3, 1, 1, 1, -1, -1, -1)
    assert packets._gap_case(kw) == 4
    assert packets._admissible_straddles(kw) == [(0, 4)]
    assert [psi.summands for psi in packets_containing(kw)] == [
        ((0, 4), (0, 2)), ((1, 1), (0, 4), (-1, 1))]


def test_packets_containing_refuses_an_admissible_segment_off_the_straddle(monkeypatch):
    # The straddling position and the containment in chi are proved in
    # packets_containing's docstring and checked on every candidate.
    kw = w(3, 3, 1, 1, 1, -1, -1, -1)
    monkeypatch.setattr(packets, "_admissible_straddles", lambda kw: [(-1, 1)])
    with pytest.raises(InternalInconsistencyError, match="not the straddling summand"):
        packets_containing(kw)
    monkeypatch.setattr(packets, "_admissible_straddles", lambda kw: [(0, 6)])
    with pytest.raises(InternalInconsistencyError, match="not in its infinitesimal character"):
        packets_containing(kw)


def test_good_parameters_enumeration_matches_partitions():
    chi = mset(2, 0, -2)
    psis = good_parameters_with_inf_char(GroupSignature(2, 1), chi)
    assert len(psis) == 4
    assert all(inf_char(p) == chi for p in psis)
    assert len({p.summands for p in psis}) == len(psis)


def test_triple_overlap_forces_vanishing():
    # chi = {3/2, 3/2, 1/2, 1/2, 1/2, -1/2} holds 1/2 three times; the
    # holomorphic member's tableau has two columns and cannot carry a value
    # thrice, so the packet has no lowest weight member even though the
    # one-sided bounds hold.
    psi = psi_of(3, 3, (2, 2), (1, 3), (1, 1))
    d0 = d_zero(psi)
    assert d0.pivot() == 1 and d0.blocks == ((2, 0), (1, 2), (0, 1))
    assert not member(psi, d0).nonzero
    assert lowest_weight_of_packet(psi) is None


def test_round_trip_a_on_samples():
    for psi in (psi_of(1, 1, (0, 2)), psi_of(1, 2, (1, 2), (-2, 1)),
                psi_of(2, 1, (0, 3)), psi_of(2, 2, (0, 2), (0, 2))):
        lam = lowest_weight_of_packet(psi)
        if lam is not None:
            assert contains_lowest_weight(psi, lam)
            assert oracle_contains(psi, lam)


def test_degenerate_signatures():
    psi = psi_of(0, 2, (1, 1), (-1, 1))
    lam = lowest_weight_of_packet(psi)
    assert lam is not None and lam.sig.p == 0
    assert oracle_contains(psi, lam)
    psi = psi_of(0, 2, (1, 1), (1, 1))  # repeated entry: no antitableau
    assert lowest_weight_of_packet(psi) is None
    psi = psi_of(2, 0, (1, 1), (-1, 1))
    lam = lowest_weight_of_packet(psi)
    assert lam is not None and oracle_contains(psi, lam)


def test_parameters_built_from_lists_equal_parameters_built_from_tuples():
    sig = GroupSignature(1, 1)
    from_tuples = AParameter(sig, ((0, 2),))
    for summands in ([(0, 2)], [[0, 2]]):
        from_lists = AParameter(sig, summands)
        assert from_lists.summands == ((0, 2),)
        assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
        assert from_lists.to_json() == from_tuples.to_json()
        assert lowest_weight_of_packet(from_lists) == lowest_weight_of_packet(from_tuples)


def test_memos_return_what_the_functions_compute():
    # Each weight is asked twice, so the second answer is a memo hit.
    for n in range(1, 5):
        for p in range(n + 1):
            for kw in dominant_weights(GroupSignature(p, n - p), 2):
                for _ in range(2):
                    if is_unitarizable(kw):
                        assert (lowest_weight_invariants(kw)
                                == lowest_weight_invariants.__wrapped__(kw)), kw
                    else:
                        # Exceptions are not kept: each call raises again.
                        with pytest.raises(ValueError, match="not unitarizable"):
                            lowest_weight_invariants(kw)


def test_oracle_contains_normalizes_d0_once_per_psi(monkeypatch):
    # Every psi of the N <= 4, window-2 sweep, asked about every
    # unitarizable weight with its character: the member stacks that
    # packets builds are d0's, once per psi object, and a fresh copy builds
    # it again.  The answers are those of a fresh copy per question.
    built = collections.Counter()
    real_pair = packets.tableau_pair

    def counted(desc):
        built[desc.d] += 1
        return real_pair(desc)

    asked = psis = 0
    for n in range(1, 5):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            for psi in good_parameters_in_window(sig, HalfInt.whole(2)):
                weights = list(_unitarizable_splits(sig, inf_char(psi)))
                expected = [oracle_contains(dataclasses.replace(psi), kw) for kw in weights]
                monkeypatch.setattr(packets, "tableau_pair", counted)
                for copy in (psi, dataclasses.replace(psi)):
                    built.clear()
                    for _ in range(2):
                        assert [oracle_contains(copy, kw) for kw in weights] == expected
                    assert built == ({d_zero(psi): 1} if weights else {}), psi
                monkeypatch.undo()
                asked += len(weights)
                psis += bool(weights)
    assert (psis, asked) == (332, 504)  # of 681 psi


@pytest.mark.parametrize("cls, fields, names", [
    (AParameter, ("sig", "summands"),
     ("_segments", "_chi", "_values", "_epsilon_signs", "_d0", "_candidate",
      "_d0_member")),
    (KWeight, ("sig", "lam"), ("_chi", "_stats", "_unitarity", "_bracket"))])
def test_parameters_and_weights_keep_what_they_derive(cls, fields, names):
    # Every psi and every swept weight of the N <= 4, window-2 sweep.  Each
    # value is derived once: a second read returns the same object, equal
    # to a derivation on a fresh copy.  The values are not fields, so an
    # object whose values were read compares and hashes like the fresh
    # copy, and a psi serializes like it.
    objs = []
    for n in range(1, 5):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            if cls is AParameter:
                objs += good_parameters_in_window(sig, HalfInt.whole(2))
            else:
                objs += [kw for kw in dominant_weights(sig, 2) if is_unitarizable(kw)]
    for obj in objs:
        fresh = dataclasses.replace(obj)
        for name in names:
            value = getattr(obj, name)
            assert getattr(obj, name) is value, (obj, name)
            assert getattr(cls, name).func(fresh) == value, (obj, name)
        assert tuple(f.name for f in dataclasses.fields(obj)) == fields
        assert obj == fresh and hash(obj) == hash(fresh) and repr(obj) == repr(fresh)
        if cls is AParameter:
            assert obj.to_json() == fresh.to_json()


def test_a_failing_derivation_raises_on_every_read(monkeypatch):
    # Block values whose segments miss psi's raise, and the failure is not
    # kept: each read derives again.
    psi = dataclasses.replace(TEN_LIVE)
    d = enumerate_D(psi)[0]
    real = packets._segment_starts
    monkeypatch.setattr(packets, "_segment_starts",
                        lambda n, sizes, values: [s + 2 for s in real(n, sizes, values)])
    for _ in range(2):
        with pytest.raises(InternalInconsistencyError, match="differs from nu_1"):
            member(psi, d)
    monkeypatch.undo()
    assert member(psi, d).nonzero
