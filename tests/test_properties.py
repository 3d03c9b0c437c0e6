"""Seeded property tests past the sweep's window: N = 7..9.

The exhaustive sweep stops at N = 6.  Here hypothesis draws good
parameters and unitarizable weights at larger N, with a fixed seed
(derandomize=True), and checks the closed forms against the tableau
oracle and the rewriting engine against itself.
"""

from hypothesis import given, settings, strategies as st

from upq_packets.cohind import tableau_pair
from upq_packets.oracle import oracle_lowest_weights
from upq_packets.packets import (AParameter, contains_lowest_weight,
                                 good_parameters_with_inf_char,
                                 lowest_weight_of_packet, oracle_contains, packet)
from upq_packets.tableaux import as_pair_equal, trapa_normalize
from upq_packets.weights import (GroupSignature, KWeight, inf_char_of_lowest_weight,
                                 is_unitarizable)

SEEDED = settings(derandomize=True, deadline=None, max_examples=100)


@st.composite
def random_psis(draw):
    n = draw(st.integers(7, 9))
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
def unitarizable_weights(draw):
    n = draw(st.integers(7, 9))
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
def psis_sharing_a_weights_character(draw):
    # Random parameters rarely hold a lowest weight module; these share
    # the infinitesimal character of a unitarizable weight, so many do.
    w = draw(unitarizable_weights())
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
