import pytest

from upq_packets import cohind
from upq_packets.cohind import (InductionDescriptor, ThetaData, absorb_adjacent,
                                holomorphic_lowest_ktype,
                                lowest_weight_invariants, normalize_blocks,
                                range_class, realize_lowest_weight, segments_of,
                                tableau_pair, two_rho_u_cap_p)
from upq_packets.errors import InternalInconsistencyError
from upq_packets.tableaux import MINUS, PLUS
from upq_packets.weights import (GroupSignature, KWeight,
                                 inf_char_of_lowest_weight)

from test_oracle import two_block_data
from test_properties import segment_multiset


def seg(lo_twice, hi_twice):
    return (lo_twice, (hi_twice - lo_twice) // 2 + 1)


def desc(p, q, blocks, values):
    return InductionDescriptor(ThetaData(GroupSignature(p, q), tuple(blocks)),
                               tuple(values))


def w(p, q, *lam):
    return KWeight(GroupSignature(p, q), tuple(lam))


def invariants(dd):
    return tableau_pair(dd).invariants


def test_theta_data_validation():
    with pytest.raises(ValueError):
        ThetaData(GroupSignature(1, 1), ((1, 0),))
    with pytest.raises(ValueError):
        ThetaData(GroupSignature(1, 1), ((1, 0), (0, 0), (0, 1)))
    d = ThetaData(GroupSignature(2, 1), ((1, 0), (1, 1)))
    assert d.sizes() == [1, 2]


def test_holomorphic_detection():
    assert ThetaData(GroupSignature(1, 1), ((1, 0), (0, 1))).is_holomorphic()
    assert ThetaData(GroupSignature(1, 1), ((1, 1),)).is_holomorphic()
    assert ThetaData(GroupSignature(2, 2), ((1, 0), (1, 2))).is_holomorphic()
    assert not ThetaData(GroupSignature(1, 1), ((0, 1), (1, 0))).is_holomorphic()
    assert not ThetaData(GroupSignature(2, 1), ((1, 1), (1, 0))).is_holomorphic()
    assert ThetaData(GroupSignature(0, 2), ((0, 1), (0, 1))).pivot() == 0


def test_segments_of_examples():
    assert segments_of(desc(1, 1, [(1, 1)], [0])) == (seg(-1, 1),)
    assert segments_of(desc(1, 1, [(1, 0), (0, 1)], [0, 0])) == (seg(1, 1), seg(-1, -1))
    assert segments_of(desc(1, 2, [(1, 1), (0, 1)], [0, 0])) == (seg(0, 2), seg(-2, -2))


def test_segments_sizes_and_union():
    dd = desc(2, 2, [(1, 1), (1, 0), (0, 1)], [1, 0, -2])
    segs = segments_of(dd)
    assert [length for _, length in segs] == [2, 1, 1]
    assert dd.inf_char().size == 4


def test_range_class_examples():
    assert range_class(desc(1, 1, [(1, 1)], [0]))
    assert range_class(desc(1, 1, [(1, 0), (0, 1)], [0, 0]))
    # Segments ({-1/2}, {1/2}): the first segment sits strictly below the
    # second, so the datum is not mediocre.
    assert not range_class(desc(1, 1, [(0, 1), (1, 0)], [-1, 1]))
    # Equal segments are mediocre.
    assert range_class(desc(1, 1, [(1, 0), (0, 1)], [0, 1]))
    # Mediocre although a later segment has a higher mean: it is contained
    # in the earlier one, not strictly above it.
    assert range_class(desc(2, 1, [(1, 1), (1, 0)], [0, 2]))


def test_a_held_range_class_still_refuses_on_every_call():
    # The class is kept by (N, sizes, values), which both sign splits share;
    # tableau_pair asks for it on every call and refuses every time.
    for blocks in ([(0, 1), (1, 0)], [(1, 0), (0, 1)]):
        outside = desc(1, 1, blocks, [-1, 1])
        for _ in range(2):
            assert not range_class(outside)
            with pytest.raises(ValueError, match="mediocre"):
                tableau_pair(outside)


def test_two_rho_u_cap_p():
    d = ThetaData(GroupSignature(1, 1), ((1, 0), (0, 1)))
    assert two_rho_u_cap_p(d) == [1, -1]
    d = ThetaData(GroupSignature(1, 2), ((1, 1), (0, 1)))
    assert two_rho_u_cap_p(d) == [1, 0, -1]
    d = ThetaData(GroupSignature(2, 2), ((1, 0), (1, 0), (0, 1), (0, 1)))
    assert two_rho_u_cap_p(d) == [2, 2, -2, -2]


def test_holomorphic_lowest_ktype_examples():
    assert holomorphic_lowest_ktype(desc(1, 1, [(1, 0), (0, 1)], [0, 0])).lam == (1, -1)
    got = holomorphic_lowest_ktype(
        desc(1, 2, [(1, 0), (0, 1), (0, 1)], [0, 1, -1]))
    assert got.lam == (2, 0, -2)
    assert holomorphic_lowest_ktype(desc(1, 1, [(1, 1)], [0])).lam == (0, 0)


def test_holomorphic_lowest_ktype_rejects_nondominant():
    with pytest.raises(ValueError):
        holomorphic_lowest_ktype(desc(2, 0, [(1, 0), (1, 0)], [0, 1]))
    with pytest.raises(ValueError):
        holomorphic_lowest_ktype(desc(1, 1, [(0, 1), (1, 0)], [-1, 1]))


def test_realize_lowest_weight_examples():
    dd = realize_lowest_weight(w(1, 1, 0, 0))
    assert dd.d.blocks == ((1, 1),) and dd.values == (0,)
    assert segments_of(dd) == (seg(-1, 1),)

    dd = realize_lowest_weight(w(1, 1, 1, -1))
    assert dd.d.blocks == ((1, 0), (0, 1)) and dd.values == (0, 0)
    assert segments_of(dd) == (seg(1, 1), seg(-1, -1))

    dd = realize_lowest_weight(w(1, 2, 1, 0, -1))
    assert dd.d.blocks == ((1, 1), (0, 1)) and dd.values == (0, 0)
    assert segments_of(dd) == (seg(0, 2), seg(-2, -2))


def test_realize_rejects_nonunitarizable():
    with pytest.raises(ValueError):
        realize_lowest_weight(w(2, 2, 1, 0, 0, 0))


def test_round_trip_identity_window():
    from upq_packets.oracle import dominant_weights
    from upq_packets.weights import is_unitarizable
    for p in range(0, 5):
        for q in range(0, 5 - p):
            if p + q == 0:
                continue
            sig = GroupSignature(p, q)
            for kw in dominant_weights(sig, 2):
                if not is_unitarizable(kw):
                    continue
                dd = realize_lowest_weight(kw)
                assert holomorphic_lowest_ktype(dd) == kw
                assert segment_multiset(segments_of(dd)) == inf_char_of_lowest_weight(kw)


def test_lowest_weight_invariants_examples():
    ann, as_tab = lowest_weight_invariants(w(1, 1, 0, 0))
    assert ann.columns == ((1, -1),)
    assert sorted(as_tab.rows) == [(1, MINUS), (1, PLUS)]

    ann, as_tab = lowest_weight_invariants(w(1, 1, 1, -1))
    assert ann.columns == ((1,), (-1,))
    assert as_tab.rows == ((2, PLUS),)

    ann, as_tab = lowest_weight_invariants(w(1, 2, 1, 0, -1))
    assert ann.columns == ((2, 0), (-2,))
    assert sorted(as_tab.rows) == [(1, MINUS), (2, PLUS)]


def test_lowest_weight_tableau_shape_corollary():
    from upq_packets.oracle import dominant_weights
    from upq_packets.weights import is_unitarizable
    for p in range(0, 5):
        for q in range(0, 5 - p):
            if p + q == 0:
                continue
            sig = GroupSignature(p, q)
            for kw in dominant_weights(sig, 2):
                if not is_unitarizable(kw):
                    continue
                ann, as_tab = lowest_weight_invariants(kw)
                assert as_tab.n_columns <= 2
                for length, first in as_tab.rows:
                    assert length <= 2
                    if length == 2:
                        assert first == PLUS
                if as_tab.n_columns == 1 and p and q:
                    # One-column support means the module is a character:
                    # its character entries are distinct and consecutive.
                    col = ann.columns[0]
                    assert all(col[i] - col[i + 1] == 2
                               for i in range(len(col) - 1))


def test_normalize_blocks_identity_and_preservation():
    dd = realize_lowest_weight(w(1, 2, 1, 0, -1))
    out = normalize_blocks(dd)
    # Intersections are empty here, so only the middle and tail survive.
    assert out.d.blocks == dd.d.blocks
    assert segments_of(out) == segments_of(dd)
    assert invariants(dd) == invariants(out)


def test_normalize_blocks_five_block_form():
    # nu = ([2,3], [0,2]): the pivot segment meets the earlier one in {2},
    # so the rewrite splits the first block into {3} and {2}.
    dd = desc(3, 2, [(2, 0), (1, 2)], [1, 2])
    assert segments_of(dd) == (seg(4, 6), seg(0, 4))
    out = normalize_blocks(dd)
    assert out.d.blocks == ((1, 0), (1, 0), (1, 2))
    assert segments_of(out) == (seg(6, 6), seg(4, 4), seg(0, 4))
    assert invariants(dd) == invariants(out)


def test_normalize_blocks_refuses_non_segment_piece():
    # nu_{<j} = {5/2, 1/2} meets the pivot segment in a non-consecutive
    # set, which cannot serve as a block segment.
    dd = desc(4, 2, [(1, 0), (1, 0), (2, 2)], [0, -1, 2])
    assert range_class(dd)
    with pytest.raises(ValueError):
        normalize_blocks(dd)


def test_absorb_adjacent_preserves_invariants():
    # nu_1 = [0,1] contains nu_2 = {0}: swapping is the descent rewrite.
    dd = desc(1, 2, [(1, 1), (0, 1)], [0, 1])
    assert segments_of(dd) == (seg(0, 2), seg(0, 0))
    swapped = absorb_adjacent(dd, "next")
    assert segments_of(swapped) == (seg(0, 0), seg(0, 2))
    assert invariants(dd) == invariants(swapped)
    # The datum's other rewrite also applies (see the parity fault below).
    assert normalize_blocks(dd)


def test_a_segment_of_the_wrong_parity_is_an_internal_fault(monkeypatch):
    # Segments one doubled unit off start at the wrong parity, so no block
    # value gives them back.  Both rewrites raise the internal fault, which
    # the sweep records, never "rewrite unavailable", which it skips.
    dd = desc(1, 2, [(1, 1), (0, 1)], [0, 1])
    real = cohind._segment_starts
    monkeypatch.setattr(cohind, "_segment_starts",
                        lambda n, sizes, values: [s + 1 for s in real(n, sizes, values)])
    with pytest.raises(InternalInconsistencyError, match="not realizable"):
        normalize_blocks(dd)
    with pytest.raises(InternalInconsistencyError, match="not realizable"):
        absorb_adjacent(dd, "next")


def _absorb_written_out(dd, side):
    # absorb_adjacent as first written: nesting is multiset containment of
    # segments_of, and each value is read back from its segment's end.
    j = dd.d.pivot()
    segs = list(segments_of(dd))
    blocks = list(dd.d.blocks)
    p_j, q_j = blocks[j]
    k = j + 1 if side == "next" else j - 1
    if not 0 <= k < len(blocks):
        raise ValueError("no neighbour")
    if not segment_multiset([segs[j]]).contains(segment_multiset([segs[k]])):
        raise ValueError("neighbour not inside the pivot segment")
    a = segs[k][1]
    if (p_j if side == "next" else q_j) < a:
        raise ValueError("pivot too small for the swap")
    if side == "next":
        new_blocks = blocks[:j] + [(a, 0), (p_j - a, q_j + a)] + blocks[j + 2:]
    else:
        new_blocks = blocks[:j - 1] + [(p_j + a, q_j - a), (0, a)] + blocks[j + 1:]
    lo = min(j, k)
    new_segs = segs[:lo] + [segs[lo + 1], segs[lo]] + segs[lo + 2:]
    values, before = [], 0
    for (pk, qk), (start, length) in zip(new_blocks, new_segs):
        twice = start + 2 * length - 2 - (dd.d.sig.N - 1) + 2 * before
        if twice % 2:
            raise ValueError("segment not realizable at this position")
        values.append(twice // 2)
        before += pk + qk
    out = desc(dd.d.sig.p, dd.d.sig.q, new_blocks, values)
    if not range_class(out):
        raise ValueError("outside mediocre range")
    return out


def test_absorb_adjacent_equals_the_written_out_rewrite_on_two_block_data():
    swaps = 0
    for dd in two_block_data(6):
        if not dd.d.is_holomorphic():
            continue
        for side in ("next", "prev"):
            try:
                expected = _absorb_written_out(dd, side)
            except ValueError:
                expected = None
            try:
                got = absorb_adjacent(dd, side)
            except ValueError:
                got = None
            assert got == expected, (dd, side)
            swaps += got is not None
    assert swaps == 109  # of 1,232 (datum, side) cases


def test_tableau_pair_requires_mediocre():
    with pytest.raises(ValueError):
        tableau_pair(desc(1, 1, [(0, 1), (1, 0)], [-1, 1]))


def test_data_built_from_lists_equal_data_built_from_tuples():
    sig = GroupSignature(1, 2)
    from_lists = InductionDescriptor(ThetaData(sig, [[1, 1], [0, 1]]), [0, 0])
    from_tuples = desc(1, 2, [(1, 1), (0, 1)], [0, 0])
    assert from_lists.d.blocks == ((1, 1), (0, 1)) and from_lists.values == (0, 0)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert from_lists.to_json() == from_tuples.to_json()
    assert invariants(from_lists) == invariants(from_tuples)
    with pytest.raises(ValueError):
        ThetaData(sig, [[1, 1, 0], [0, 1]])
    weight_from_list, weight = KWeight(sig, [1, -1, -1]), w(1, 2, 1, -1, -1)
    assert weight_from_list.lam == (1, -1, -1)
    assert weight_from_list == weight and hash(weight_from_list) == hash(weight)
    assert lowest_weight_invariants(weight_from_list) == lowest_weight_invariants(weight)
