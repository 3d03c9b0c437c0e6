"""Seeded property tests past the sweep's window: N = 7..10, and JSON
round trips.

The exhaustive sweep stops at N = 6.  Here hypothesis draws good
parameters and unitarizable weights at larger N, with a fixed seed
(derandomize=True), and checks the closed forms against the tableau
oracle, packets_containing against the filter over every segment
partition of the character, the rewriting engine against itself, and a
parameter's kept character and d_0 split against a written-out multiset
derivation (on every parameter of the character window 2 up to N = 6 as
well).  It also checks that every type with a from_json reads back what its to_json wrote, and
refuses any number that is not a JSON integer, and that the package's JSON
writer matches `json.dumps(obj, sort_keys=True, indent=2)` byte for byte.
"""

import json
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from upq_packets.cohind import InductionDescriptor, ThetaData, segments_of, tableau_pair
from upq_packets.halfint import (HalfInt, HalfIntMultiset, Segment, _count_segment_partitions,
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
        out = tableau_pair(m.descriptor)
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
    # AParameter._chi and _candidate as first written: a Segment per
    # summand, the split as unions of segment multisets, and nonvanishing
    # by multiset intersections.
    segs = [Segment(t - a + 1, a) for t, a in psi.summands]

    def union(parts):
        return HalfIntMultiset.from_values(v for s in parts for v in s.as_multiset().twice)

    d0 = d_zero(psi)
    j = d0.pivot()
    lt, mid, gt = union(segs[:j]), segs[j].as_multiset(), union(segs[j + 1:])
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


half_ints = st.integers(-40, 40).map(HalfInt)
segments = st.builds(Segment, st.integers(-40, 40), st.integers(0, 8)) | st.just(Segment(0, 0))


@st.composite
def kweights(draw):
    n = draw(st.integers(1, 9))
    p = draw(st.integers(0, n))

    def side(length):
        return sorted(draw(st.lists(st.integers(-5, 5), min_size=length,
                                    max_size=length)), reverse=True)

    return KWeight(GroupSignature(p, n - p), tuple(side(p) + side(n - p)))


@st.composite
def descriptors(draw):
    blocks = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))
                           .filter(lambda b: b != (0, 0)), min_size=1, max_size=4))
    sig = GroupSignature(sum(b[0] for b in blocks), sum(b[1] for b in blocks))
    values = draw(st.lists(st.integers(-5, 5), min_size=len(blocks), max_size=len(blocks)))
    return InductionDescriptor(ThetaData(sig, tuple(blocks)), tuple(values))


@SEEDED
@given(half_ints, segments, st.lists(st.integers(-40, 40), max_size=8).map(HalfIntMultiset.from_values),
       kweights(), random_psis())
def test_json_round_trips(x, seg, mset, w, psi):
    assert HalfInt.from_json(_wire(x.to_json())) == x
    assert Segment.from_json(_wire(seg.to_json())) == seg
    assert HalfIntMultiset.from_json(_wire(mset.to_json())) == mset
    assert KWeight.from_json(_wire(w.to_json())) == w
    assert AParameter.from_json(_wire(psi.to_json())) == psi


@SEEDED
@given(segments, segments)
def test_segments_agree_with_their_multisets(s, t):
    # HalfIntMultiset is checked against collections.Counter, so it is the
    # reference for the doubled-int segment arithmetic.
    assert (_sing((s.start, s.length), (t.start, t.length))
            == s.as_multiset().intersection(t.as_multiset()).size)


@SEEDED
@given(descriptors())
def test_descriptor_json_round_trip_echoes_its_segments(desc):
    obj = _wire(desc.to_json())
    assert InductionDescriptor.from_json(obj) == desc
    assert [Segment.from_json(s) for s in obj["segments"]] == segments_of(desc)


def _int_paths(obj, path=()):
    # The path to every integer leaf of a JSON value.
    if type(obj) is int:
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _int_paths(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _int_paths(value, path + (index,))


def _replaced(obj, path, value):
    obj = _wire(obj)
    target = obj
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return obj


READER_SAMPLES = [
    HalfInt(-3), Segment(-1, 3),
    HalfIntMultiset.from_values([3, 3, -1]),
    KWeight(GroupSignature(1, 2), (1, 0, -1)),
    AParameter.from_summands(GroupSignature(1, 2), [(1, 2), (-2, 1)]),
    InductionDescriptor(ThetaData(GroupSignature(2, 1), ((1, 0), (1, 1))), (1, 0)),
]


@pytest.mark.parametrize("bad", [1.9, 1.0, True, "3"])
def test_from_json_refuses_non_integers(bad):
    for value in READER_SAMPLES:
        obj = value.to_json()
        if isinstance(value, InductionDescriptor):
            del obj["segments"]  # an echo the reader does not read
        paths = list(_int_paths(obj))
        assert paths and type(value).from_json(obj) == value
        for path in paths:
            with pytest.raises(ValueError, match="JSON integer"):
                type(value).from_json(_replaced(obj, path, bad))


def test_descriptor_from_json_refuses_a_block_that_is_not_a_pair():
    obj = {"p": 1, "q": 1, "blocks": [[1, 1, 5]], "values": [0]}
    with pytest.raises(ValueError):
        InductionDescriptor.from_json(obj)
    obj["blocks"] = [[1], [0, 1]]
    with pytest.raises(ValueError):
        InductionDescriptor.from_json(obj)


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
