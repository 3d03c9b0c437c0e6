"""Seeded property tests past the sweep's window: N = 7..10, and the JSON
writer.

The exhaustive sweep stops at N = 6.  Here hypothesis draws good
parameters and unitarizable weights at larger N, with a fixed seed
(derandomize=True), and checks the closed forms against the tableau
oracle, packets_containing against the filter over every segment
partition of the character, the rewriting engine against itself, and a
parameter's kept character and d_0 split against a written-out multiset
derivation (on every parameter of the character window 2 up to N = 6 as
well).  It also checks that a descriptor's JSON echoes its segments, and
that the package's JSON writer matches `json.dumps(obj, sort_keys=True,
indent=2)` byte for byte.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from upq_packets.cohind import InductionDescriptor, ThetaData, segments_of, tableau_pair
from upq_packets.halfint import (HalfInt, HalfIntMultiset, _count_segment_partitions,
                                _json_dumps, partition_into_segments)
from upq_packets.oracle import (dominant_weights, good_parameters_in_window,
                                oracle_lowest_weights)
from upq_packets.packets import (AParameter, contains_lowest_weight, d_zero,
                                 good_parameters_with_inf_char,
                                 lowest_weight_of_packet, oracle_contains, packet,
                                 packets_containing)
from upq_packets.tableaux import _sing, as_pair_equal, trapa_normalize
from upq_packets.weights import (GroupSignature, KWeight, inf_char_of_lowest_weight,
                                 is_unitarizable)

SEEDED = settings(derandomize=True, deadline=None, max_examples=100)


def segment_multiset(segments):
    # The multiset union of segments given as (doubled start, length)
    # pairs, each written out value by value: the tests' reference.
    return HalfIntMultiset.from_values(
        start + 2 * k for start, length in segments for k in range(length))


@st.composite
def random_psis(draw, max_n=9):
    n = draw(st.integers(7, max_n))
    p = draw(st.integers(0, n))
    sizes = [1]
    for cut in draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)):
        if cut:
            sizes.append(1)
        else:
            sizes[-1] += 1
    # t + a + N must be even.
    summands = [(2 * draw(st.integers(-3, 3)) + (a + n) % 2, a) for a in sizes]
    return AParameter.from_summands(GroupSignature(p, n - p), summands)


@st.composite
def unitarizable_weights(draw, max_n=9):
    n = draw(st.integers(7, max_n))
    p = draw(st.integers(0, n))

    def side(length):  # weakly decreasing
        entries = st.lists(st.integers(0, 3), min_size=length, max_size=length)
        return sorted(draw(entries), reverse=True)

    p_side, q_side = side(p), side(n - p)
    offset = 0
    if p_side and q_side:
        # Unitarizable exactly when lambda_p - lambda_{p+1} >= N - p' - q'.
        p_prime, q_prime = p_side.count(p_side[-1]), q_side.count(q_side[0])
        gap = draw(st.integers(n - p_prime - q_prime, n))
        offset = gap - p_side[-1] + q_side[0]
    shift = draw(st.integers(-2, 2))
    lam = [x + offset + shift for x in p_side] + [x + shift for x in q_side]
    w = KWeight(GroupSignature(p, n - p), tuple(lam))
    assert is_unitarizable(w)
    return w


@st.composite
def psis_sharing_a_weights_character(draw, max_n=9):
    # Random parameters rarely hold a lowest weight module; these share
    # the infinitesimal character of a unitarizable weight, so many do.
    w = draw(unitarizable_weights(max_n))
    return draw(st.sampled_from(
        good_parameters_with_inf_char(w.sig, inf_char_of_lowest_weight(w))))


good_psis = st.one_of(random_psis(), psis_sharing_a_weights_character())


@SEEDED
@given(good_psis)
def test_lowest_weight_of_packet_matches_oracle(psi):
    w = lowest_weight_of_packet(psi)
    assert oracle_lowest_weights(psi) == ([] if w is None else [w])


@SEEDED
@given(good_psis)
def test_normalize_is_idempotent_on_packet_members(psi):
    for m in packet(psi):
        if not m.nonzero:
            continue
        out = tableau_pair(InductionDescriptor(m.d, psi._values))
        again = trapa_normalize(out.stack)
        assert not again.is_zero
        assert again.stack == out.stack
        assert as_pair_equal((again.ann, again.as_tab), m.invariants)


@SEEDED
@given(unitarizable_weights())
def test_contains_lowest_weight_matches_oracle(w):
    chi = inf_char_of_lowest_weight(w)
    for psi in good_parameters_with_inf_char(w.sig, chi):
        assert contains_lowest_weight(psi, w) == oracle_contains(psi, w), psi


@SEEDED
@given(unitarizable_weights(max_n=10))
def test_packets_containing_equals_the_filter_on_drawn_weights(w):
    chi = inf_char_of_lowest_weight(w)
    assert packets_containing(w) == [psi for psi in good_parameters_with_inf_char(w.sig, chi)
                                     if contains_lowest_weight(psi, w)]


def _check_segment_partition_count(w):
    chi = inf_char_of_lowest_weight(w)
    assert (_count_segment_partitions(Counter(chi.twice))
            == len(partition_into_segments(chi))), w.lam


def test_segment_partitions_of_every_window_2_weight_up_to_n_6_are_counted_exactly():
    weights = [w for n in range(1, 7) for p in range(n + 1)
               for w in dominant_weights(GroupSignature(p, n - p), 2) if is_unitarizable(w)]
    for w in weights:
        _check_segment_partition_count(w)
    assert len(weights) == 1419


@SEEDED
@given(unitarizable_weights(max_n=10))
def test_segment_partitions_of_drawn_weights_are_counted_exactly(w):
    _check_segment_partition_count(w)


def _written_out_chi_and_candidate(psi):
    # AParameter._chi and _candidate as first written: a segment per
    # summand, the split as unions of segment multisets, and nonvanishing
    # by multiset intersections.
    segs = [(t - a + 1, a) for t, a in psi.summands]
    union = segment_multiset
    d0 = d_zero(psi)
    j = d0.pivot()
    lt, mid, gt = union(segs[:j]), union(segs[j:j + 1]), union(segs[j + 1:])
    p_j, q_j = d0.blocks[j]
    nonzero = (lt.is_multiplicity_free and gt.is_multiplicity_free
               and mid.intersection(lt).intersection(gt).is_empty
               and mid.intersection(gt).size <= p_j
               and mid.intersection(lt).size <= q_j)
    return union(segs), (d0.blocks[j], (lt, mid, gt), nonzero)


def _check_chi_and_candidate(psi):
    assert (psi._chi, psi._candidate) == _written_out_chi_and_candidate(psi), psi


def test_chi_and_candidate_match_the_written_out_derivation_up_to_n_6():
    count = 0
    nonzero = 0
    for n in range(1, 7):
        for p in range(n + 1):
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(2)):
                _check_chi_and_candidate(psi)
                count += 1
                nonzero += psi._candidate[2]
    assert (count, nonzero) == (5358, 770)


@SEEDED
@given(psis_sharing_a_weights_character(max_n=10))
def test_chi_and_candidate_match_the_written_out_derivation_on_drawn_psi(psi):
    _check_chi_and_candidate(psi)


def _wire(obj):
    # What a reader of the canonical JSON gets back.
    return json.loads(json.dumps(obj, sort_keys=True))


segments = st.tuples(st.integers(-40, 40), st.integers(0, 8)) | st.just((0, 0))


@st.composite
def descriptors(draw):
    blocks = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))
                           .filter(lambda b: b != (0, 0)), min_size=1, max_size=4))
    sig = GroupSignature(sum(b[0] for b in blocks), sum(b[1] for b in blocks))
    values = draw(st.lists(st.integers(-5, 5), min_size=len(blocks), max_size=len(blocks)))
    return InductionDescriptor(ThetaData(sig, tuple(blocks)), tuple(values))


@SEEDED
@given(segments, segments)
def test_segments_agree_with_their_multisets(s, t):
    # HalfIntMultiset is checked against collections.Counter, so it is the
    # reference for the doubled-int segment arithmetic.
    assert _sing(s, t) == segment_multiset([s]).intersection(segment_multiset([t])).size


@SEEDED
@given(descriptors())
def test_descriptor_json_round_trip_echoes_its_segments(desc):
    # Block i carries nu_i, of doubled start 2 value_i + N + 1 - 2 a_{<=i}.
    n, upto, segs = desc.d.sig.N, 0, []
    for size, value in zip(desc.d.sizes(), desc.values):
        upto += size
        segs.append({"len": size, "start_twice": 2 * value + n + 1 - 2 * upto})
    assert _wire(desc.to_json()) == {"p": desc.d.sig.p, "q": desc.d.sig.q,
                                     "blocks": [list(b) for b in desc.d.blocks],
                                     "values": list(desc.values), "segments": segs}
    assert segment_multiset(segments_of(desc)) == desc.inf_char()


# Strings with quotes, backslashes, control characters and non-ASCII text,
# beside whatever hypothesis draws.
json_strings = st.text() | st.sampled_from(['', '"', '\\', '\n\t\x00\x1f', 'é', '€😀', 'a"b\\c'])
json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | json_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=30)


@SEEDED
@given(json_trees)
def test_json_writer_matches_the_standard_encoder(tree):
    assert _json_dumps(tree) == json.dumps(tree, sort_keys=True, indent=2)
    for empty in ([], {}):
        assert _json_dumps([tree, empty]) == json.dumps([tree, empty], sort_keys=True, indent=2)


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


# Canonical output is built from plain dicts, lists, ints and strings; a
# tuple or a subclass is refused, not rendered as json.dumps would.
@pytest.mark.parametrize("bad", [1.5, 1.0, {"a": [0.0]}, [float("nan")], {1, 2},
                                 (1, 2), [(0,)], _Int(3), {"a": _Int(3)}, _Str("a"),
                                 [_Str("a")], _Dict(a=1), [_Dict()]])
def test_json_writer_refuses_what_json_does_not_hold(bad):
    with pytest.raises(TypeError):
        _json_dumps(bad)
