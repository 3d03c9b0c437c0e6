import itertools

import pytest

from upq_packets.halfint import HalfIntMultiset
from upq_packets.weights import (GroupSignature, KWeight, UnitarityClass,
                                 inf_char_of_lowest_weight, is_unitarizable,
                                 kweight_from_pq, unitarity_class, weight_stats)


def w(p, q, *lam):
    return KWeight(GroupSignature(p, q), tuple(lam))


def mset(*twices):
    return HalfIntMultiset.from_values(twices)


def test_dominance_is_enforced():
    with pytest.raises(ValueError):
        w(2, 0, 0, 1)
    with pytest.raises(ValueError):
        w(1, 2, 5, 0, 1)
    w(1, 2, -5, 3, 3)  # no constraint across the p/q boundary


def _stats_by_direct_evaluation(kw):
    # Independent oracle: evaluate the displayed formulas coordinate by
    # coordinate over the doubled integers.
    p, q, n = kw.sig.p, kw.sig.q, kw.sig.N
    lam = kw.lam
    P = [2 * lam[i - 1] - (n - 1) + 2 * (p - i) for i in range(1, p + 1)]
    Q = [2 * lam[i - 1] + (p - q + 1) + 2 * (n - i) for i in range(p + 1, n + 1)]
    return sorted(P), sorted(Q)


def test_weight_stats_u11_discrete_series():
    st = weight_stats(w(1, 1, 1, -1))
    assert (st.p_prime, st.q_prime) == (1, 1)
    assert st.P == mset(1) and st.Q == mset(-1)
    assert st.P_seg == mset(1)
    assert st.Q_seg == mset(-1)
    assert st.I.is_empty


def test_weight_stats_u11_trivial():
    st = weight_stats(w(1, 1, 0, 0))
    assert st.P == mset(-1) and st.Q == mset(1)
    assert st.P_seg == mset(-1)
    assert st.Q_seg == mset(1)
    assert st.I.is_empty


def test_weight_stats_u12():
    st = weight_stats(w(1, 2, 1, 0, -1))
    assert (st.p_prime, st.q_prime) == (1, 1)
    P_twice, Q_twice = _stats_by_direct_evaluation(w(1, 2, 1, 0, -1))
    assert sorted(st.P.twice) == P_twice
    assert sorted(st.Q.twice) == Q_twice
    assert st.P == mset(0)
    assert st.Q == mset(2, -2)
    assert st.Q_seg == mset(2)
    assert st.I.is_empty


def test_inf_char_is_P_union_Q_everywhere():
    for p in range(0, 4):
        for q in range(0, 4 - p):
            if p + q == 0:
                continue
            sig = GroupSignature(p, q)
            rng = range(2, -3, -1)
            for ps in itertools.combinations_with_replacement(rng, p):
                for qs in itertools.combinations_with_replacement(rng, q):
                    kw = KWeight(sig, tuple(ps) + tuple(qs))
                    st = weight_stats(kw)
                    chi = inf_char_of_lowest_weight(kw)
                    assert chi == st.P.union(st.Q)
                    assert chi.size == sig.N
                    P_tw, Q_tw = _stats_by_direct_evaluation(kw)
                    assert sorted(chi.twice) == sorted(P_tw + Q_tw)


def test_inf_char_examples():
    assert inf_char_of_lowest_weight(w(1, 1, 1, -1)) == mset(1, -1)
    assert inf_char_of_lowest_weight(w(1, 1, 0, 0)) == mset(1, -1)
    assert inf_char_of_lowest_weight(w(1, 2, 1, 0, -1)) == mset(2, 0, -2)


def test_bottom_segment_of_P():
    kw = w(3, 1, 4, 2, 2, 0)
    st = weight_stats(kw)
    # Members of P' are exactly the P-entries of indices with lambda_i = lambda_p.
    expected = [2 * 2 - 3 + 2 * (3 - i) for i in (2, 3)]
    assert sorted(st.P_seg.twice) == sorted(expected)
    assert st.P.contains(st.P_seg)


def test_all_equal_rows_collapse_to_segments():
    # q' = q forces Q = Q' (and symmetrically for P = P').
    st = weight_stats(w(2, 3, 4, 1, 0, 0, 0))
    assert st.q_prime == 3 and st.Q == st.Q_seg
    st = weight_stats(w(3, 1, 2, 2, 2, -4))
    assert st.p_prime == 3 and st.P == st.P_seg


def test_degenerate_signatures():
    st = weight_stats(w(0, 2, 3, 1))
    assert st.P.is_empty and st.P_seg.is_empty and st.I.is_empty
    assert st.Q.size == 2
    assert unitarity_class(w(0, 2, 3, 1)) is UnitarityClass.UNITARY
    st = weight_stats(w(2, 0, 3, 1))
    assert st.Q.is_empty and st.Q_seg.is_empty


def test_unitarity_classes():
    assert unitarity_class(w(1, 1, 1, -1)) is UnitarityClass.DISCRETE_SERIES
    assert unitarity_class(w(1, 1, 0, 0)) is UnitarityClass.UNITARY
    assert unitarity_class(w(1, 2, 1, 0, -1)) is UnitarityClass.UNITARY
    assert unitarity_class(w(1, 1, 1, 0)) is UnitarityClass.LIMIT_OF_DISCRETE_SERIES
    assert unitarity_class(w(2, 2, 1, 0, 0, 0)) is UnitarityClass.NON_UNITARY
    assert not is_unitarizable(w(2, 2, 1, 0, 0, 0))


def test_unitarity_monotone_in_gap():
    order = [UnitarityClass.NON_UNITARY, UnitarityClass.UNITARY,
             UnitarityClass.LIMIT_OF_DISCRETE_SERIES,
             UnitarityClass.DISCRETE_SERIES]
    prev = -1
    for gap in range(0, 7):
        kw = w(2, 2, gap + 1, gap, 0, 0)
        rank = order.index(unitarity_class(kw))
        assert rank >= prev
        prev = rank


def test_kweight_from_pq_round_trip():
    for kw in (w(1, 1, 1, -1), w(1, 2, 1, 0, -1), w(2, 2, 2, 1, 1, 0),
               w(0, 2, 3, 1), w(3, 0, 2, 2, -1)):
        st = weight_stats(kw)
        assert kweight_from_pq(kw.sig, st.P, st.Q) == kw


def test_kweight_from_pq_rejects_bad_splits():
    sig = GroupSignature(1, 1)
    assert kweight_from_pq(sig, mset(1, -1), HalfIntMultiset.empty()) is None
    # Swapping P and Q of the discrete series gives the trivial rep's split.
    got = kweight_from_pq(sig, mset(-1), mset(1))
    assert got == w(1, 1, 0, 0)
