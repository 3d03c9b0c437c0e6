"""Dominant K-weights for U(p)xU(q) and their derived invariants.

A lowest weight module is determined by its lowest K-type, a dominant
integral weight lambda.  From lambda we derive the multisets P, Q (whose
union is the infinitesimal character), the bottom segments P', Q', their
intersection I, and the unitarizability classification by the gap
lambda_p - lambda_{p+1}.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .halfint import HalfIntMultiset


@dataclass(frozen=True)
class GroupSignature:
    """The pair (p, q) with N = p + q >= 1."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError(f"bad signature ({self.p},{self.q})")

    @property
    def N(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class KWeight:
    """A Delta_c^+-dominant integral weight of K = U(p) x U(q).  Its
    character, WeightStats, unitarity class and gap bracket are kept on it
    from first use, outside the fields."""

    sig: GroupSignature
    lam: tuple[int, ...]

    def __post_init__(self) -> None:
        p, q = self.sig.p, self.sig.q
        if len(self.lam) != p + q:
            raise ValueError("weight length must equal p+q")
        if any(self.lam[i] < self.lam[i + 1] for i in range(p - 1)):
            raise ValueError(f"p-side of {self.lam} is not weakly decreasing")
        if any(self.lam[i] < self.lam[i + 1] for i in range(p, p + q - 1)):
            raise ValueError(f"q-side of {self.lam} is not weakly decreasing")
        # A tuple, so that weights built from lists hash and compare equal.
        object.__setattr__(self, "lam", tuple(self.lam))

    @property
    def gap(self) -> int:
        """lambda_p - lambda_{p+1}; requires both sides nonempty."""
        p, q = self.sig.p, self.sig.q
        if p == 0 or q == 0:
            raise ValueError("gap undefined when p = 0 or q = 0")
        return self.lam[p - 1] - self.lam[p]

    @cached_property
    def _chi(self) -> HalfIntMultiset:
        # inf_char_of_lowest_weight(self).
        return HalfIntMultiset.from_values(_p_entries(self) + _q_entries(self))

    @cached_property
    def _stats(self) -> WeightStats:
        # weight_stats(self).
        p_prime, q_prime = _primes(self)
        P = HalfIntMultiset(tuple(_p_entries(self)))
        Q = HalfIntMultiset(tuple(_q_entries(self)))
        P_seg = HalfIntMultiset(P.twice[P.size - p_prime:])
        Q_seg = HalfIntMultiset(Q.twice[:q_prime])
        return WeightStats(p_prime, q_prime, P, Q, P_seg, Q_seg, P_seg.intersection(Q_seg))

    @cached_property
    def _unitarity(self) -> UnitarityClass:
        # unitarity_class(self).
        if self.sig.p == 0 or self.sig.q == 0:
            return UnitarityClass.UNITARY
        p_prime, q_prime = _primes(self)
        gap = self.gap
        n = self.sig.N
        if gap > n - 1:
            return UnitarityClass.DISCRETE_SERIES
        if gap == n - 1:
            return UnitarityClass.LIMIT_OF_DISCRETE_SERIES
        if gap >= n - p_prime - q_prime:
            return UnitarityClass.UNITARY
        return UnitarityClass.NON_UNITARY

    @cached_property
    def _bracket(self) -> HalfIntMultiset:
        """[lambda_p - (N-1)/2, lambda_{p+1} + (N-1)/2], empty when reversed
        and when p = 0 or q = 0 (no gap)."""
        p, n = self.sig.p, self.sig.N
        if p == 0 or self.sig.q == 0:
            return HalfIntMultiset.empty()
        return HalfIntMultiset(tuple(range(2 * self.lam[p] + (n - 1),
                                           2 * self.lam[p - 1] - (n - 1) - 1, -2)))


@dataclass(frozen=True)
class WeightStats:
    p_prime: int
    q_prime: int
    P: HalfIntMultiset
    Q: HalfIntMultiset
    P_seg: HalfIntMultiset
    Q_seg: HalfIntMultiset
    I: HalfIntMultiset


def _p_entries(w: KWeight) -> list[int]:
    # Doubled entries attached to lambda_1, ..., lambda_p on the p-side:
    # lambda_i - (N-1)/2 + (p-i), strictly decreasing in i.
    n, p = w.sig.N, w.sig.p
    return [2 * w.lam[i - 1] - (n - 1) + 2 * (p - i) for i in range(1, p + 1)]


def _q_entries(w: KWeight) -> list[int]:
    # Doubled entries attached to lambda_{p+1}, ..., lambda_N on the q-side:
    # lambda_i + (p-q+1)/2 + (N-i), strictly decreasing in i.
    n, p, q = w.sig.N, w.sig.p, w.sig.q
    return [2 * w.lam[i - 1] + (p - q + 1) + 2 * (n - i) for i in range(p + 1, n + 1)]


def _primes(w: KWeight) -> tuple[int, int]:
    """p' = #{i <= p : lambda_i = lambda_p} and
    q' = #{i > p : lambda_i = lambda_{p+1}}; 0 on an empty side."""
    p, q, lam = w.sig.p, w.sig.q, w.lam
    return (lam[:p].count(lam[p - 1]) if p else 0,
            lam[p:].count(lam[p]) if q else 0)


def _gap_case(w: KWeight) -> int:
    """Where the gap lambda_p - lambda_{p+1} falls against N - p' and
    N - q', numbered as in packets.contains_lowest_weight:

    1. gap in [N-p', N-q');
    2. gap in [N-q', N-p');
    3. gap >= both;
    4. gap < both.

    0 when p = 0 or q = 0 (no gap).  Case 4 is the small gap of
    cohind.realize_lowest_weight, whose module takes a mixed block."""
    sig = w.sig
    if sig.p == 0 or sig.q == 0:
        return 0
    p_prime, q_prime = _primes(w)
    past_p, past_q = w.gap >= sig.N - p_prime, w.gap >= sig.N - q_prime
    if past_p:
        return 3 if past_q else 1
    return 2 if past_q else 4


def weight_stats(w: KWeight) -> WeightStats:
    """p', q', the multisets P and Q, the segments P', Q' and I = P' /\\ Q'.

    P' holds the entries of the p' indices with lambda_i = lambda_p, the
    smallest of P; Q' those of the q' indices with lambda_i = lambda_{p+1},
    the largest of Q."""
    return w._stats


def inf_char_of_lowest_weight(w: KWeight) -> HalfIntMultiset:
    """Infinitesimal character of the lowest weight module with K-type w.

    The coordinates are lambda_1 + (p-q-1)/2, ..., lambda_p - (N-1)/2 on the
    p-side and lambda_{p+1} + (N-1)/2, ..., lambda_N + (p-q+1)/2 on the
    q-side; as a multiset this is P || Q.
    """
    return w._chi


class UnitarityClass(enum.Enum):
    NON_UNITARY = "non-unitary"
    UNITARY = "unitary"
    LIMIT_OF_DISCRETE_SERIES = "limit-of-discrete-series"
    DISCRETE_SERIES = "discrete-series"


def unitarity_class(w: KWeight) -> UnitarityClass:
    """Classify the lowest weight module by the gap lambda_p - lambda_{p+1}.

    Discrete series above N-1, limits at N-1, unitarizable down to
    N - p' - q', non-unitary below.  Degenerate signatures (p = 0 or q = 0)
    have no gap and are reported as UNITARY.
    """
    return w._unitarity


def is_unitarizable(w: KWeight) -> bool:
    return unitarity_class(w) is not UnitarityClass.NON_UNITARY


def kweight_from_pq(sig: GroupSignature, P: HalfIntMultiset,
                    Q: HalfIntMultiset) -> KWeight | None:
    """Invert the P/Q construction; None if no dominant weight produces them.

    The p-side entries lambda_i - (N-1)/2 + (p-i) are strictly decreasing in
    i, so the decreasing enumeration of P determines each lambda_i; likewise
    for Q.  Returns None when the sizes are wrong or the recovered weight is
    not dominant.
    """
    p, q, n = sig.p, sig.q, sig.N
    if P.size != p or Q.size != q:
        return None
    lam: list[int] = []
    for i, v in enumerate(P.twice, start=1):
        twice = v + (n - 1) - 2 * (p - i)
        if twice % 2 != 0:
            return None
        lam.append(twice // 2)
    for ell, v in enumerate(Q.twice, start=1):
        twice = v - (n + 1) + 2 * ell
        if twice % 2 != 0:
            return None
        lam.append(twice // 2)
    if any(lam[i] < lam[i + 1] for i in range(p - 1)):
        return None
    if any(lam[i] < lam[i + 1] for i in range(p, n - 1)):
        return None
    return KWeight(sig, tuple(lam))
