"""Good A-parameters of U(p,q) and their packets of cohomological inductions.

A good parameter is a formal sum of r summands (t_i, a_i) with sum of a_i
equal to N and every t_i + a_i + N even, listed with t_i decreasing and a_i
decreasing among equal t_i.  Each choice d = ((p_i, q_i))_i with
p_i + q_i = a_i produces one packet member; the member's block values are
(t_i + a_i - N)/2 + a_{<i} and its component-group character value on the
i-th generator is (-1)^(p_i a_{<i} + q_i (a_{<i}+1) + a_i(a_i-1)/2).

The classification theorems implemented here decide, in closed form, which
packets contain a given unitary lowest weight module and which lowest
K-type (if any) a packet can contain.  The tableau pipeline provides the
independent ground truth for both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .cohind import (InductionDescriptor, ThetaData, _segment_starts,
                     lowest_weight_invariants, tableau_pair)
from .errors import InternalInconsistencyError
from .halfint import HalfIntMultiset, _segment_str, _segment_values, partition_into_segments
from .tableaux import (AntiTableau, SignedTableau, _pair_segments, _placed_invariants,
                       as_pair_equal)
from .weights import (GroupSignature, KWeight, _gap_case, inf_char_of_lowest_weight,
                      is_unitarizable, kweight_from_pq, weight_stats)


@dataclass(frozen=True)
class AParameter:
    """A good A-parameter, canonically ordered.  What it determines is
    derived on first use and kept on it, outside the fields."""

    sig: GroupSignature
    summands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        n = self.sig.N
        if sum(a for _, a in self.summands) != n:
            raise ValueError("summand dimensions must sum to N")
        for t, a in self.summands:
            if a < 1:
                raise ValueError("summand dimension must be positive")
            if (t + a + n) % 2 != 0:
                raise ValueError(f"summand (t={t}, a={a}) violates the parity "
                                 f"condition t + a + N even")
        for i in range(len(self.summands) - 1):
            t1, a1 = self.summands[i]
            t2, a2 = self.summands[i + 1]
            if t1 < t2 or (t1 == t2 and a1 < a2):
                raise ValueError("summands must be listed with t decreasing, "
                                 "a decreasing among equal t")
        # Tuples, so that parameters built from lists hash and compare equal.
        object.__setattr__(self, "summands", tuple(map(tuple, self.summands)))

    @classmethod
    def from_summands(cls, sig: GroupSignature,
                      summands: list[tuple[int, int]]) -> "AParameter":
        ordered = sorted(summands, key=lambda ta: (-ta[0], -ta[1]))
        return cls(sig, tuple(ordered))

    def sizes(self) -> list[int]:
        return [a for _, a in self.summands]

    @cached_property
    def _segments(self) -> tuple[tuple[int, int], ...]:
        # The segments nu_i = [(t_i - a_i + 1)/2, (t_i + a_i - 1)/2] as
        # (doubled start, length) pairs.
        return tuple((t - a + 1, a) for t, a in self.summands)

    @cached_property
    def _chi(self) -> HalfIntMultiset:
        # inf_char(self).
        return HalfIntMultiset(_segment_values(self._segments))

    @cached_property
    def _values(self) -> tuple[int, ...]:
        """The block values (t_i + a_i - N)/2 + a_{<i} that every member
        shares, checked to give psi's segments back."""
        values = []
        before = 0
        n = self.sig.N
        for t, a in self.summands:
            values.append((t + a - n) // 2 + before)
            before += a
        # A member's sizes are psi's, so its segments agree when their starts do.
        for i, (start, (nu_start, a)) in enumerate(zip(_segment_starts(n, self.sizes(), values),
                                                       self._segments)):
            if start != nu_start:
                raise InternalInconsistencyError(
                    f"segment {_segment_str(start, a)} of the block values differs from "
                    f"nu_{i + 1} = {_segment_str(nu_start, a)}")
        return tuple(values)

    @cached_property
    def _epsilon_signs(self) -> tuple[tuple[int, ...], ...]:
        """For block i, the sign (-1)^(p_i a_{<i} + q_i (a_{<i}+1) + a_i(a_i-1)/2)
        at each p_i from 0 to a_i: epsilon reads a member's signs here.

        With q_i = a_i - p_i the exponent is
        a_i (a_{<i}+1) + a_i(a_i-1)/2 - p_i, so the signs alternate in p_i
        from their value at p_i = 0."""
        table = []
        before = 0
        for _, a in self.summands:
            first = (-1) ** (a * (before + 1) + a * (a - 1) // 2)
            table.append(((first, -first) * (a // 2 + 1))[:a + 1])
            before += a
        return tuple(table)

    @cached_property
    def _d0(self) -> ThetaData:
        # d_zero(self).
        sizes = self.sizes()
        p, q = self.sig.p, self.sig.q
        j, before = _straddle(self.summands, p)
        blocks = [(x, 0) for x in sizes[:j]]
        blocks.append((p - before, q - sum(sizes[j + 1:])))
        blocks += [(0, x) for x in sizes[j + 1:]]
        return ThetaData(self.sig, tuple(blocks))

    @cached_property
    def _candidate(self) -> tuple[tuple[int, int], tuple[HalfIntMultiset, ...], bool]:
        """The straddling block (p_j, q_j) of d_0, the split
        (nu_{<j}, nu_j, nu_{>j}) and whether the holomorphic member is
        nonzero.  j is d_0.pivot() + 1: the straddling summand, read
        with (p_j, q_j) = (p - a_{<j}, a_j - p_j) straight from the sizes.

        The member is nonzero exactly when nu_{<j} and nu_{>j} are multiplicity
        free, |nu_j /\\ nu_{>j}| <= p_j, |nu_j /\\ nu_{<j}| <= q_j, and no value
        is common to all three parts.  The last condition is forced by the
        complete invariants: a holomorphic datum builds a signed tableau with
        at most two columns, and its antitableau twin cannot hold any entry
        three times; a value in all three parts has multiplicity three.  When
        the character matches a lowest weight module (multiplicity at most
        two), the condition is vacuous.  For p = 0 (j = 1, nu_{<j} empty,
        p_j = 0) the conditions read "nu_{>1} multiplicity free and disjoint
        from nu_1", so the member is nonzero exactly when the infinitesimal
        character is multiplicity free.

        The parts are built as doubled ints straight from psi's segments.
        Once nu_{<j} and nu_{>j} are known to be multiplicity free, all
        three parts are sets (nu_j is a segment), so their multiset
        intersections are set intersections."""
        j, before = _straddle(self.summands, self.sig.p)
        segs = self._segments
        start, a = segs[j]
        p_j = self.sig.p - before
        q_j = a - p_j
        lt = _segment_values(segs[:j])
        mid = tuple(range(start + 2 * a - 2, start - 2, -2))
        gt = _segment_values(segs[j + 1:])
        lt_set, gt_set = set(lt), set(gt)
        nonzero = False
        if len(lt_set) == len(lt) and len(gt_set) == len(gt):
            cap_lt, cap_gt = lt_set.intersection(mid), gt_set.intersection(mid)
            nonzero = (cap_lt.isdisjoint(cap_gt)
                       and len(cap_gt) <= p_j and len(cap_lt) <= q_j)
        return ((p_j, q_j), (HalfIntMultiset(lt), HalfIntMultiset(mid), HalfIntMultiset(gt)),
                nonzero)

    @cached_property
    def _d0_member(self) -> PacketMember:
        # member(self, d_zero(self)): the holomorphic member, whose pair
        # oracle_contains compares with that of each weight it is asked
        # about and which packet() lists first, so its stack is normalized
        # once per psi object.
        return member(self, self._d0)

    def to_json(self) -> dict:
        return {"p": self.sig.p, "q": self.sig.q,
                "summands": [{"t": t, "a": a} for t, a in self.summands]}

    def __str__(self) -> str:
        return " + ".join(f"chi_{t}*S_{a}" for t, a in self.summands)


def _straddle(summands: Sequence[tuple[int, int]], p: int) -> tuple[int, int]:
    # (j, a_{<j}) for the straddling summand: the least 0-based j with
    # a_{<j} + a_j >= p, so a_{<j} < p unless p = 0 (then j = 0).
    before = 0
    for j, (_, a) in enumerate(summands):
        if before + a >= p:
            return j, before
        before += a
    raise InternalInconsistencyError("no straddling block: sizes sum to N >= p")


def inf_char(psi: AParameter) -> HalfIntMultiset:
    """The infinitesimal character: the union of the summand segments."""
    return psi._chi


# The most members packet() builds.  |D(psi)| is counted before anything
# is enumerated, and a larger packet is refused.  The largest packet of the
# benchmark's query streams has 91 members; U(8, 8) with 16 summands S_1
# has 12,870 and is answered in about 2 s on a 2-vCPU VM.
_MAX_PACKET_MEMBERS = 20000


def _count_D(psi: AParameter) -> int:
    # |D(psi)|: the ways to split p among the blocks, block i taking 0 to
    # a_i plus parts.  ways[s] counts the splits of s among the blocks so far.
    p = psi.sig.p
    ways = [1] + [0] * p
    for a in psi.sizes():
        ways = [sum(ways[max(0, s - a):s + 1]) for s in range(p + 1)]
    return ways[p]


def enumerate_D(psi: AParameter) -> list[ThetaData]:
    """All ((p_i, q_i))_i with p_i + q_i = a_i summing to the signature,
    in decreasing lexicographic order of the p-parts.  The first is d_0:
    the plus parts fill the first blocks.

    The data are listed level by level: each prefix of the blocks before
    i, in order, is extended by block i's p_i from largest to smallest, so
    the order is lexicographic at every level.  Every choice is a valid
    datum of psi's sizes, so each is built without ThetaData's checks."""
    sig = psi.sig
    later = sig.N  # the plus parts blocks i + 1 on can hold
    level: list[tuple[tuple[tuple[int, int], ...], int]] = [((), sig.p)]
    for a in psi.sizes():
        later -= a
        # Block i takes no more than remains, and leaves no more than the
        # later blocks hold (so the last block takes all that remains).
        level = [(blocks + ((pk, a - pk),), remaining - pk)
                 for blocks, remaining in level
                 for pk in range(min(a, remaining), max(0, remaining - later) - 1, -1)]
    return [ThetaData._unchecked(sig, blocks) for blocks, _ in level]


def d_zero(psi: AParameter) -> ThetaData:
    """The unique holomorphic candidate d_0: plus parts fill the first blocks.

    j is minimal with a_1 + ... + a_j >= p; the straddling block gets
    (p - a_{<j}, q - a_{>j}) and everything after is pure minus.  For p = 0
    this is j = 1 and the datum is all minus.  d_0 fixes j: it is
    d_0.pivot() + 1."""
    return psi._d0


def epsilon(psi: AParameter, d: ThetaData) -> tuple[int, ...]:
    """The component-group character attached to the member A_d(psi),
    read block by block from psi's table of signs by p_i."""
    return tuple([signs[pk] for signs, (pk, _) in zip(psi._epsilon_signs, d.blocks)])


@dataclass(frozen=True)
class PacketMember:
    """The member A_d(psi): its datum d and its invariant pair, or None
    when the member is zero.  What else a member has follows from psi and
    d: its induction descriptor is InductionDescriptor(d, psi._values) and
    its character epsilon(psi, d)."""

    d: ThetaData
    invariants: Optional[tuple[AntiTableau, SignedTableau]]

    @property
    def nonzero(self) -> bool:
        return self.invariants is not None


def member(psi: AParameter, d: ThetaData) -> PacketMember:
    """The packet member attached to d, with its tableau invariants, read
    off its normalized stack (tableau_pair).  psi keeps d_0's member
    (AParameter._d0_member); packet() decides the others from their
    placement."""
    if d.sig != psi.sig or [pk + qk for pk, qk in d.blocks] != psi.sizes():
        raise ValueError(f"{d.blocks} does not belong to D({psi})")
    return PacketMember(d, tableau_pair(InductionDescriptor(d, psi._values)).invariants)


def packet(psi: AParameter) -> list[PacketMember]:
    """All members, in enumerate_D order.  Nonzero members must have pairwise
    distinct invariant pairs (multiplicity one); a repeat raises.

    What every member shares is derived once.  The first member in
    enumerate_D order is d_0's, kept on psi (AParameter._d0_member): its
    stack is built and normalized by tableau_pair, which also checks that
    the data are mediocre, a verdict that reads only what the members
    share (N, sizes, values).  It is the only member for which an
    InductionDescriptor is built.  The block values and their check
    against psi's segments are kept on psi.  The half of each pair test
    that reads only the segments (_pair_segments) is the same on every
    member, so it is read once: the pairs that are apart, idle on every
    member, are dropped, and the others keep their sing and alignment.
    Every member but d_0's is placed and tested at those pairs only
    (tableaux._placed_invariants): it vanishes at a zero pair or is
    normal as placed, with no stack built, unless a pair moves; only then
    is its stack built and normalized, right there.  A member holds its datum
    and its invariant pair (PacketMember); its epsilon is not computed
    here.

    Every nonzero member is then checked against psi: its signed tableau
    has psi's signature and its antitableau holds exactly inf_char(psi),
    compared as plain doubled ints largest first (AntiTableau.entries,
    computed when the antitableau was built, against the character's
    `twice`).  With the signature fixed, the sort key (the antitableau's
    columns as doubled ints, then the signed tableau's rows) determines
    the pair, so equal pairs get equal keys and the sort puts them next to
    each other.  Comparing each member with its neighbour (as_pair_equal,
    which compares the two entry tuples before the pairs) therefore finds
    any repeat in live - 1 comparisons.  The sort is stable, so a clash
    names its two members in enumerate_D order.

    A packet of more than _MAX_PACKET_MEMBERS members raises ValueError,
    naming its count, before any member is built."""
    count = _count_D(psi)
    if count > _MAX_PACKET_MEMBERS:
        raise ValueError(f"the packet of {psi} has {count} members, more than "
                         f"the limit of {_MAX_PACKET_MEMBERS}")
    sig, segs = psi.sig, psi._segments
    pairs = [(i, *facts) for i, facts in enumerate(map(_pair_segments, segs, segs[1:]))
             if facts is not None]
    members = [psi._d0_member]
    members += [PacketMember(d, _placed_invariants(sig, d.blocks, segs, pairs))
                for d in enumerate_D(psi)[1:]]
    live = [m for m in members if m.nonzero]
    chi = psi._chi.twice
    for m in live:
        ann, as_tab = m.invariants
        if as_tab.sig != sig or ann.entries != chi:
            raise InternalInconsistencyError(
                f"member {m.d.blocks} of {psi} has invariants of another "
                f"signature or infinitesimal character")
    live.sort(key=lambda m: (m.invariants[0].columns, m.invariants[1].rows))
    for a, b in zip(live, live[1:]):
        if as_pair_equal(a.invariants, b.invariants):
            raise InternalInconsistencyError(
                f"members {a.d.blocks} and {b.d.blocks} of {psi} share an invariant pair")
    return members


def contains_lowest_weight(psi: AParameter, w: KWeight) -> bool:
    """Does the packet of psi contain the lowest weight module of w?

    Requires the infinitesimal characters to match and the holomorphic
    member to be nonzero; then the answer depends on how the gap compares
    with N - p' and N - q':

    1. gap in [N-p', N-q'):  [lambda_p - (N-1)/2, lambda_{p+1} + (N-1)/2]
       inside nu_j inside P';
    2. gap in [N-q', N-p'):  nu_{<=j} = P, or the same bracket inside nu_j
       inside Q';
    3. gap >= both:          P inside nu_{<=j} inside P || I, or
       I inside nu_j inside Q';
    4. gap < both:           nu_j equals the bracket exactly.

    Degenerate signatures have no gap; they fall back to the tableau
    equality test.
    """
    _refuse_foreign_weight(psi, w)
    if psi._chi != inf_char_of_lowest_weight(w):
        return False
    _, (lt, mid, gt), nonzero = psi._candidate
    if not nonzero:
        return False
    case = _gap_case(w)
    if not case:
        return oracle_contains(psi, w)

    st = weight_stats(w)
    bracket = w._bracket
    if case == 1:
        return mid.contains(bracket) and st.P_seg.contains(mid)
    if case == 2:
        return (lt.union(mid) == st.P
                or (mid.contains(bracket) and st.Q_seg.contains(mid)))
    if case == 3:
        nu_le = lt.union(mid)
        first = nu_le.contains(st.P) and st.P.union(st.I).contains(nu_le)
        second = mid.contains(st.I) and st.Q_seg.contains(mid)
        return first or second
    return mid == bracket


def _refuse_foreign_weight(psi: AParameter, w: KWeight) -> None:
    # A membership question needs a unitarizable w of psi's signature.
    if not is_unitarizable(w):
        raise ValueError(f"{w.lam} is not unitarizable")
    if psi.sig != w.sig:
        raise ValueError(f"{psi} and {w.lam} belong to different signatures")


def oracle_contains(psi: AParameter, w: KWeight) -> bool:
    """Ground truth: the holomorphic member's invariant pair equals the
    lowest weight module's pair, compared by value.  A w that is not unitarizable, or of
    another signature than psi, raises ValueError as contains_lowest_weight
    does, whatever the characters; mismatched infinitesimal characters are
    then an immediate False.

    The holomorphic member is built on the first call for a psi object and
    kept on it (AParameter._d0_member), so asking one psi about every
    weight of its character normalizes d_0's stack once."""
    _refuse_foreign_weight(psi, w)
    if psi._chi != inf_char_of_lowest_weight(w):
        return False
    return psi._d0_member.invariants == lowest_weight_invariants(w)


def lowest_weight_of_packet(psi: AParameter) -> Optional[KWeight]:
    """The lowest K-type of the unique unitary lowest weight module in the
    packet, or None when the packet has none.

    The packet has one exactly when nu_{<j} and nu_{>j} are multiplicity
    free, |nu_j /\\ nu_{>j}| <= p_j and |nu_j /\\ nu_{<j}| <= q_j.  One of
    two rules names the multiset P of the K-type's p-side entries, and
    kweight_from_pq inverts P and Q = chi \\ P:

    * q_j = 0: P = nu_{<=j};
    * otherwise (the search): with sigma = nu_{<j} || nu_{>j} and
      nu_j = {top, top - 1, ..., top - a_j + 1}, v runs over top, top - 1,
      ..., top - a_j (the last one step below nu_j) and stops at the first
      value at which sigma's values above v and nu_j's values from v down
      number p; P is those values.

    The search also covers the bounds that are attained.  Write
    cap_lt = nu_j /\\ nu_{<j} and cap_gt = nu_j /\\ nu_{>j}, and let q_j > 0.
    Summands are listed with t, twice a segment's centre, decreasing, so a
    segment of nu_{<j} with a value below nu_j, or one of nu_{>j} with a
    value above it, contains nu_j.  The first would force q_j = a_j, so
    p_j = 0, which the straddle allows only for p = 0, where nu_{<j} is
    empty; the second would force p_j = a_j, so q_j = 0.  So nu_{<j} has no
    value below nu_j and nu_{>j} none above it.  cap_lt and cap_gt are
    disjoint, so sigma holds each value of nu_j at most once.  With
    f(i) = #{sigma > nu_j[i]} + a_j - i for i = 0, ..., a_j (nu_j[a_j] one
    step below nu_j), f drops by one at each value of nu_j outside sigma
    and stays flat at each value inside it.  f runs from
    f(0) = |nu_{<j}| - |cap_lt| + a_j down to f(a_j) = |nu_{<j}| + |cap_gt|,
    and p = |nu_{<j}| + p_j lies between them by the two bounds, so the
    search stops.

    * p_j = |cap_gt| gives p = f(a_j).  The search may stop at an earlier
      i, but f is flat from there on, so nu_j[i:] lies in sigma, and P is
      sigma's values from nu_j's least value up: nu_{<j} || cap_gt.
    * q_j = |cap_lt| gives p = f(0), and i = 0 returns sigma's values
      above nu_j and all of nu_j: nu_{<=j} \\ cap_lt.
    * Otherwise f(a_j) < p < f(0), and the search stops inside nu_j.

    The q_j = 0 rule does not fold into the search: on U(1,4), psi =
    chi_4 S_1 + chi_3 S_4 has nu_j = {2} and nu_{>j} = [0, 3], P = {2} and
    lowest K-type (4, 1, 1, 1, 1), yet sigma's values above 2 already
    number p = 1 with nu_j's value 2 left over.

    The search is the paper's explicit coordinate formula.  Write
    sigma_1 >= sigma_2 >= ... and let v be the i0-th of the values the
    search runs over, i0 from 1 to a_j + 1, and list P and Q largest
    first.  kweight_from_pq reads 2 lambda_i = 2 P_i + (N-1) - 2(p-i) on
    the p-side and 2 lambda_{p+l} = 2 Q_l - (N+1) + 2l on the q-side.  P's
    first p - a_j + i0 - 1 entries are sigma's top values and the rest are
    nu_j's values from v down; Q holds nu_j's values above v, then sigma's
    values <= v.  So, for i from 1 to N,

        2 lambda_i = 2 sigma_i - (p - q + 1) + 2i        if i < p - a_j + i0,
        2 lambda_i = 2 top + (N + 1) - 2 a_j             if p - a_j + i0 <= i <= p,
        2 lambda_i = 2 top - (N - 1)                     if p < i < p + i0,
        2 lambda_i = 2 sigma_{i-a_j} - (N + 1) - 2p + 2i  if i >= p + i0.
    """
    (_, q_j), (lt, mid, gt), nonzero = psi._candidate
    if not nonzero:
        return None
    if q_j == 0:
        P = lt.union(mid)
    else:
        sigma, nu = lt.union(gt).twice, mid.twice
        for i, v in enumerate(nu + (nu[-1] - 2,)):
            above = tuple(x for x in sigma if x > v)
            if len(above) + len(nu) - i == psi.sig.p:
                P = HalfIntMultiset(above + nu[i:])
                break
        else:
            raise InternalInconsistencyError(
                f"no valid index i0 for {psi}; the classification formula "
                f"presupposes one exists")

    Q = psi._chi.difference(P)
    w = kweight_from_pq(psi.sig, P, Q)
    if w is None:
        raise InternalInconsistencyError(
            f"P = {P}, Q = {Q} for {psi} do not invert to a dominant weight")
    if not is_unitarizable(w):
        raise InternalInconsistencyError(
            f"recovered weight {w.lam} for {psi} is not unitarizable")
    return w


def good_parameters_with_inf_char(sig: GroupSignature,
                                  chi: HalfIntMultiset) -> list[AParameter]:
    """All good parameters whose infinitesimal character equals chi.

    Every partition of chi into segments gives one: partition_into_segments
    lists its parts as summands (t, a) in canonical order, so they are not
    sorted again; AParameter still checks the order.  The parity condition
    holds automatically for characters of lowest weight modules; a
    character whose parts break t + a + N even raises ValueError from
    AParameter.
    """
    return [AParameter(sig, tuple(parts)) for parts in partition_into_segments(chi)]


def packets_containing(w: KWeight) -> list[AParameter]:
    """All good parameters whose packet contains the lowest weight module
    of w, sorted by summand list, comparing (t, a) pair by pair: the order
    of good_parameters_with_inf_char.

    Gap cases 1 and 4 (see contains_lowest_weight) pin the straddling
    segment nu_j by itself: bracket <= nu_j <= P' in case 1, nu_j equal to
    the bracket in case 4.  There each admissible segment s
    (_admissible_straddles) is taken with each segment partition of
    chi \\ s, chi = chi(w), and the parameter they make is listed without
    a membership test.  This lists what filtering
    good_parameters_with_inf_char(chi) lists:

    * complete: a psi that the filter keeps has inf_char(psi) = chi and,
      by the case's condition, an admissible nu_j = s; its other
      summands are a segment partition of chi \\ s.
    * sound: every candidate's packet contains the module (last
      paragraph).
    * without repeats, given that s is always the straddling summand (next
      paragraph): a candidate then determines s and the partition of
      chi \\ s, and the partitions of one multiset are distinct.

    Write B = lambda_p - (N-1)/2 = min P and T = lambda_{p+1} + (N-1)/2 =
    max Q, so the bracket is [B, T] with L = N - gap values, P' = [B,
    B+p'-1] and Q' = [T-q'+1, T]; B+p' is not in P and T-q' not in Q.  An
    admissible s is [B, y] with y >= T, and it lies in chi: in case 1
    inside P', in case 4 inside P' u Q', as unitarity gives L <= p' + q'.
    It is also the straddling summand of every candidate.  chi holds each
    value at most twice, values above T only in P and below B only in Q,
    so chi \\ s meets [B, y] only in the shared values P /\\ Q /\\ [B, T].
    These miss B+p' <= T in case 4 (L > p') and T-q' >= B in case 1
    (L > q'), so no part of chi \\ s runs across [B, y].  A part with a
    value above y starts above B and comes before s; one with a value
    below B ends below y and comes after s; a part inside [B, T] may fall
    either side.  So a_{<j} = #(P above y) + d, with d the shared values
    in parts before s, while p = #(P above y) + #(P /\\ [B, y]).  Hence
    p <= a_{<j} + a_j, and a_{<j} < p holds as d < #(P /\\ [B, y]): in
    case 1 that is a_j >= L against at most L - 1 shared values; in case
    4 the part holding B's second copy, if any, ends below B+p' <= T and
    comes after s, so d counts shared values of P /\\ [B, T] other than
    B.  Both facts are checked as internal invariants.

    Every candidate's packet contains the module.  P and Q are each
    multiplicity free, min P = B and max Q = T, so every value that chi
    holds twice lies in [B, T], inside s, and chi \\ s is multiplicity
    free.  So nu_{<j} and nu_{>j} are multiplicity free and disjoint, and
    the values of s they hold are S = P /\\ Q /\\ [B, T], inside
    P /\\ [B, y], d of them in nu_{<j}.  P holds at most a_j values of
    [B, y], and p_j = p - a_{<j} = #(P /\\ [B, y]) - d, so

        |nu_j /\\ nu_{>j}| = |S| - d <= #(P /\\ [B, y]) - d = p_j,
        |nu_j /\\ nu_{<j}| = d <= a_j - #(P /\\ [B, y]) + d = q_j,

    and the holomorphic member is nonzero (_candidate).  The characters
    agree by construction, and nu_j = s meets the case condition by
    admissibility, so contains_lowest_weight holds.

    The compact case and gap cases 2 and 3 constrain nu_{<=j}, not nu_j
    alone; they keep the filter over every segment partition of chi."""
    if not is_unitarizable(w):
        raise ValueError(f"{w.lam} is not unitarizable")
    chi = inf_char_of_lowest_weight(w)
    straddles = _admissible_straddles(w)
    if straddles is None:
        return [psi for psi in good_parameters_with_inf_char(w.sig, chi)
                if contains_lowest_weight(psi, w)]
    sig = w.sig
    found = []
    for s in straddles:
        rest = chi.difference(HalfIntMultiset(_segment_values([(s[0] - s[1] + 1, s[1])])))
        if rest.size != chi.size - s[1]:
            raise InternalInconsistencyError(
                f"admissible segment {s} of {w.lam} is not in its infinitesimal character")
        for parts in partition_into_segments(rest):
            summands = sorted(parts + [s], reverse=True)
            if summands[_straddle(summands, sig.p)[0]] != s:
                raise InternalInconsistencyError(
                    f"admissible segment {s} of {w.lam} is not the straddling "
                    f"summand of {summands}")
            found.append(AParameter(sig, tuple(summands)))
    found.sort(key=lambda psi: psi.summands)
    return found


def _admissible_straddles(w: KWeight) -> Optional[list[tuple[int, int]]]:
    # The summands (t, a) whose segment nu_j = [(t-a+1)/2, (t+a-1)/2] meets
    # w's gap case condition on nu_j alone, or None in the cases that do
    # not pin nu_j.  Both cases have gap < N - 1, so the bracket [B, T]
    # holds N - gap >= 2 values; B is also the least value of P', so in
    # case 1 nu_j is [B, y] for each y of P' with y >= T.  Values are
    # doubled.
    case = _gap_case(w)
    if case not in (1, 4):
        return None
    bracket = w._bracket.twice
    top, bottom = bracket[0], bracket[-1]
    if case == 4:
        return [((top + bottom) // 2, len(bracket))]
    return [((y + bottom) // 2, (y - bottom) // 2 + 1)
            for y in weight_stats(w).P_seg.twice if y >= top]
