"""Theta-stable parabolic data and one-dimensional cohomological inductions.

An induction datum is a block sequence d = ((p_i, q_i))_i with an integer
value per block.  Each block carries the segment

    nu_i = [value_i + (N+1)/2 - a_{<=i},  value_i + (N-1)/2 - a_{<i}]

whose disjoint union is the infinitesimal character.  This module classifies
the positivity range of a datum, realizes a unitarizable lowest weight
module as such an induction, reads off lowest K-types of holomorphic data,
and rewrites block decompositions without changing the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import ge, gt
from typing import Sequence

from .errors import InternalInconsistencyError
from .halfint import HalfInt, HalfIntMultiset, _segment_str, _segment_values
from .tableaux import (AntiTableau, NormalizeOutcome, PLUS, SignedTableau, build_initial,
                       trapa_normalize)
from .weights import GroupSignature, KWeight, _gap_case, _primes, is_unitarizable


@dataclass(frozen=True)
class ThetaData:
    """A block sequence ((p_i, q_i))_i with p_i + q_i >= 1 summing to (p, q)."""

    sig: GroupSignature
    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("at least one block required")
        p = q = 0
        for pk, qk in self.blocks:
            if pk < 0 or qk < 0 or pk + qk == 0:
                raise ValueError(f"bad block ({pk},{qk})")
            p += pk
            q += qk
        if p != self.sig.p:
            raise ValueError("block p-parts do not sum to p")
        if q != self.sig.q:
            raise ValueError("block q-parts do not sum to q")
        # Tuples, so that data built from lists hash and compare equal.
        object.__setattr__(self, "blocks", tuple(map(tuple, self.blocks)))

    @classmethod
    def _unchecked(cls, sig: GroupSignature, blocks: tuple[tuple[int, int], ...]) -> "ThetaData":
        # A datum whose blocks, a tuple of tuples, are known to be valid:
        # built without __post_init__'s checks, for enumerate_D, whose
        # choices are valid by construction.
        d = object.__new__(cls)
        object.__setattr__(d, "sig", sig)
        object.__setattr__(d, "blocks", blocks)
        return d

    @property
    def r(self) -> int:
        return len(self.blocks)

    def sizes(self) -> list[int]:
        return [pk + qk for pk, qk in self.blocks]

    def is_holomorphic(self) -> bool:
        """True iff some pivot j has q_i = 0 before it and p_l = 0 after it."""
        return self.pivot() is not None

    def pivot(self) -> int | None:
        """0-based index j of the holomorphic pivot block, or None.

        For a holomorphic datum all plus parts sit in blocks <= j and all
        minus parts in blocks >= j; j is the last block with p_i > 0 when one
        exists, else 0.
        """
        j = 0
        for i, (pk, _) in enumerate(self.blocks):
            if pk > 0:
                j = i
        if any(qk > 0 for _, qk in self.blocks[:j]):
            return None
        if any(pk > 0 for pk, _ in self.blocks[j + 1:]):
            return None
        return j


@dataclass(frozen=True)
class InductionDescriptor:
    """A ThetaData together with the constant integer value of each block."""

    d: ThetaData
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.d.r:
            raise ValueError("one value per block required")
        object.__setattr__(self, "values", tuple(self.values))

    def inf_char(self) -> HalfIntMultiset:
        return HalfIntMultiset(_segment_values(segments_of(self)))

    def to_json(self) -> dict:
        return {"p": self.d.sig.p, "q": self.d.sig.q,
                "blocks": [list(b) for b in self.d.blocks],
                "values": list(self.values),
                "segments": [{"len": length, "start_twice": start}
                             for start, length in segments_of(self)]}


def segments_of(desc: InductionDescriptor) -> tuple[tuple[int, int], ...]:
    """The per-block segments nu_i as (doubled start, length) pairs; block
    i has |nu_i| = p_i + q_i.  They are the pairs that range_class's memo
    entry keeps beside the mediocre verdict."""
    return _range_entry(desc)[1]


def _segment_starts(n: int, sizes: Sequence[int], values: Sequence[int]) -> list[int]:
    # The doubled start of each block's segment, for blocks of these sizes
    # and values at rank N = n.
    starts = []
    upto = 0
    for size, value in zip(sizes, values):
        upto += size
        starts.append(2 * value + (n + 1) - 2 * upto)
    return starts


def range_class(desc: InductionDescriptor) -> bool:
    """Is the datum in the mediocre range?

    Mediocre: no earlier segment sits strictly componentwise below a later
    one, equivalently value_i - value_j >= -max(a_i, a_j) - (sizes between)
    for all i < j.  Both routes are computed and must agree.

    The answer reads only N, the block sizes and the values, not how each
    block splits into plus and minus parts.  The last 256 answers are kept
    per process, with the segments beside them as (doubled start, length)
    pairs.  A packet asks once, for d_0's member: its other members are
    decided from psi's segments.  The hits come from data asked about
    again soon after: the sweep's two-block share and the block rewrites
    test a datum here and then normalize it (tableau_pair), a descriptor's
    JSON and inf_char read the segments of a datum already asked about,
    and a lowest weight module's realization can share N, sizes and
    values with a parameter's d_0.
    """
    return _range_entry(desc)[0]


def _range_entry(desc: InductionDescriptor) -> tuple[bool, tuple[tuple[int, int], ...]]:
    # The memo entry of desc: its mediocre verdict and its segments.
    return _range_class(desc.d.sig.N, tuple(pk + qk for pk, qk in desc.d.blocks),
                        desc.values)


@lru_cache(maxsize=256)
def _range_class(n: int, sizes: tuple[int, ...],
                 values: tuple[int, ...]) -> tuple[bool, tuple[tuple[int, int], ...]]:
    r = len(sizes)
    starts = _segment_starts(n, sizes, values)
    ends = [start + 2 * size - 2 for start, size in zip(starts, sizes)]
    med_segs = True
    med_values = True
    for i in range(r):
        between = 0
        for j in range(i + 1, r):
            if starts[i] < starts[j] and ends[i] < ends[j]:
                med_segs = False
            if values[i] - values[j] < -max(sizes[i], sizes[j]) - between:
                med_values = False
            between += sizes[j]
    if med_segs != med_values:
        raise InternalInconsistencyError(
            f"mediocre tests disagree on sizes {sizes}, values {values} at N = {n}")
    return med_segs, tuple(zip(starts, sizes))


def two_rho_u_cap_p(d: ThetaData) -> list[int]:
    """Coordinates of 2rho(u cap p): each p-side coordinate of block i gets
    the number of minus coordinates in later blocks, each q-side coordinate
    of block i gets minus the number of plus coordinates in earlier blocks."""
    out: list[int] = []
    for i, (pk, _) in enumerate(d.blocks):
        later_minus = sum(qk for _, qk in d.blocks[i + 1:])
        out.extend([later_minus] * pk)
    for i, (_, qk) in enumerate(d.blocks):
        earlier_plus = sum(pk for pk, _ in d.blocks[:i])
        out.extend([-earlier_plus] * qk)
    return out


def _value_vector(desc: InductionDescriptor) -> list[int]:
    out = [v for (pk, _), v in zip(desc.d.blocks, desc.values) for _ in range(pk)]
    out += [v for (_, qk), v in zip(desc.d.blocks, desc.values) for _ in range(qk)]
    return out


def holomorphic_lowest_ktype(desc: InductionDescriptor) -> KWeight:
    """Lowest K-type of a nonzero holomorphic induction: value + 2rho(u cap p).

    For a fully split holomorphic chain the shift is (q,...,q, -p,...,-p).
    The result must be dominant; otherwise the datum is outside the scope of
    the occurrence formula and a ValueError is raised.
    """
    if not desc.d.is_holomorphic():
        raise ValueError("datum is not holomorphic")
    vec = _value_vector(desc)
    shift = two_rho_u_cap_p(desc.d)
    lam = tuple(a + b for a, b in zip(vec, shift))
    try:
        return KWeight(desc.d.sig, lam)
    except ValueError as exc:
        raise ValueError(f"lowest K-type {lam} outside lemma hypotheses") from exc


def realize_lowest_weight(w: KWeight) -> InductionDescriptor:
    """An induction descriptor whose module is the lowest weight module of w.

    Large gap (at least min(N-p', N-q'): every gap case but 4): fully split
    blocks ((1,0) x (p-p'), (p',0), (0,q'), (0,1) x (q-q')) with values
    lambda_i - q on the p-side and lambda_i + p on the q-side.  Small gap
    (gap case 4, below both): blocks
    ((1,0) x (p-p'), (p', N-gap-p'), (0,1) x (gap-p+p')) with the mixed block
    carrying lambda_{p+1} + p - p'.  Degenerate signatures use the
    appropriate one-sided chain.
    """
    if not is_unitarizable(w):
        raise ValueError(f"{w.lam} is not unitarizable")
    sig = w.sig
    p, q, n = sig.p, sig.q, sig.N
    lam = w.lam
    pp, qp = _primes(w)

    blocks: list[tuple[int, int]] = []
    values: list[int] = []
    if _gap_case(w) != 4:
        for i in range(p - pp):
            blocks.append((1, 0))
            values.append(lam[i] - q)
        if pp:
            blocks.append((pp, 0))
            values.append(lam[p - 1] - q)
        if qp:
            blocks.append((0, qp))
            values.append(lam[p] + p)
        for i in range(p + qp, n):
            blocks.append((0, 1))
            values.append(lam[i] + p)
    else:
        gap = w.gap
        mid_q = n - gap - pp
        tail = gap - p + pp
        for i in range(p - pp):
            blocks.append((1, 0))
            values.append(lam[i] - q)
        blocks.append((pp, mid_q))
        values.append(lam[p] + p - pp)
        for i in range(n - tail, n):
            blocks.append((0, 1))
            values.append(lam[i] + p)
    return InductionDescriptor(ThetaData(sig, tuple(blocks)), tuple(values))


def tableau_pair(desc: InductionDescriptor) -> NormalizeOutcome:
    """Build the initial stack for a mediocre-range datum and normalize it.

    Nothing is kept: each call builds and rewrites the stack afresh.  The
    one member asked for again and again, a psi's holomorphic member, is
    kept on psi (AParameter._d0_member).  A datum outside the mediocre
    range raises.

    packet() calls this for d_0's member only, whose verdict on the
    mediocre range holds for the whole packet.  Every other member is
    decided from where its boxes are placed (tableaux._placed_invariants),
    which builds and normalizes a stack, with no descriptor, only for a
    member whose placed pairs move.

    The mediocre verdict and the segments come from one lookup of
    range_class's memo; they depend only on what a whole packet shares
    (N, sizes, values)."""
    mediocre, segments = _range_entry(desc)
    if not mediocre:
        raise ValueError("datum is outside the mediocre range")
    return trapa_normalize(build_initial(desc.d.sig, desc.d.blocks, segments))


def _split_case_columns(w: KWeight) -> tuple[list[int], list[int]]:
    # Independent two-column description for the fully split realization.
    # Index k of the K-type carries the character entry
    # lambda_k + (p-q+1)/2 - k (p-side) or lambda_k + (N+1)/2 - (k-p)
    # (q-side).  The first column holds the p-side indices and the q-side
    # surplus beyond min(p,q), except that the i_0 bottom p-side indices
    # trade places with the i_0 bottom covered q-side indices; i_0 is the
    # least trade for which the arrangement is an antitableau.  Entries are
    # doubled.
    p, q, n = w.sig.p, w.sig.q, w.sig.N
    lam = w.lam
    m = min(p, q)

    def entry(k: int) -> int:
        if k <= p:
            return 2 * lam[k - 1] + (p - q + 1) - 2 * k
        return 2 * lam[k - 1] + (n + 1) - 2 * (k - p)

    def arrangement(i0: int) -> tuple[list[int], list[int]]:
        col1 = [entry(k) for k in range(1, p - i0 + 1)]
        col1 += [entry(k) for k in range(p + m + 1 - i0, n + 1)]
        col2 = [entry(k) for k in range(p + 1, p + m - i0 + 1)]
        col2 += [entry(k) for k in range(p + 1 - i0, p + 1)]
        return sorted(col1, reverse=True), sorted(col2, reverse=True)

    def valid(col1: list[int], col2: list[int]) -> bool:
        # col2 (m entries) is no longer than col1 (N - m), so zip covers every row.
        return (all(map(gt, col1, col1[1:])) and all(map(gt, col2, col2[1:]))
                and all(map(ge, col1, col2)))

    for i0 in range(m + 1):
        col1, col2 = arrangement(i0)
        if valid(col1, col2):
            return col1, col2
    raise InternalInconsistencyError(
        f"no column arrangement for {w.lam} is an antitableau")


@lru_cache(maxsize=256)  # holds every repeat of verify at N <= 4 (windows 2/2) and N <= 6 (1/1)
def lowest_weight_invariants(w: KWeight) -> tuple[AntiTableau, SignedTableau]:
    """The invariant pair of the lowest weight module of w, via the pipeline.

    Asserts the structural facts that hold for every unitary lowest weight
    module: the signed tableau has at most two columns and every two-box row
    reads plus-minus; in the fully split case the columns are cross-checked
    against the closed-form two-column description.

    The last 256 pairs are kept per process.  A weight that is not
    unitarizable, or whose checks fail, raises on every call."""
    desc = realize_lowest_weight(w)
    pair = tableau_pair(desc).invariants
    if pair is None:
        raise InternalInconsistencyError(
            f"realization of unitarizable {w.lam} normalized to zero")
    ann, as_tab = pair
    if as_tab.n_columns > 2:
        raise InternalInconsistencyError(
            f"lowest weight signed tableau {as_tab.rows} has >2 columns")
    for length, first in as_tab.rows:
        if length == 2 and first != PLUS:
            raise InternalInconsistencyError(
                f"two-box row of {as_tab.rows} is not plus-minus")

    # The realization is fully split exactly when no block mixes plus and
    # minus: the small-gap mixed block (p', N - gap - p') has both parts > 0.
    if all(pk == 0 or qk == 0 for pk, qk in desc.d.blocks):
        col1, col2 = _split_case_columns(w)
        expected = [c for c in (col1, col2) if c]
        got = list(map(list, ann.columns))
        if got != expected:
            shown = [[[str(HalfInt(v)) for v in c] for c in cols] for cols in (expected, got)]
            raise InternalInconsistencyError(
                f"split-case columns {shown[0]} differ from pipeline {shown[1]}")
    return ann, as_tab


def _descriptor_from_tops(sig: GroupSignature, blocks: list[tuple[int, int]],
                          tops: list[int]) -> InductionDescriptor:
    # The datum whose block i carries the segment of size p_i + q_i topped
    # by the doubled entry tops[i].  The integrality check cannot fire for
    # the two callers, normalize_blocks and absorb_adjacent: each takes
    # every top from one datum's segments, which all start at N + 1 mod 2.
    # So a top of the other parity is an internal fault, never a rewrite
    # that is merely unavailable.
    n = sig.N
    values = []
    before = 0
    for (pk, qk), top in zip(blocks, tops):
        size = pk + qk
        twice = top - (n - 1) + 2 * before
        if twice % 2 != 0:
            raise InternalInconsistencyError(
                f"segment {_segment_str(top - 2 * size + 2, size)} "
                f"not realizable at this position")
        values.append(twice // 2)
        before += size
    return InductionDescriptor(ThetaData(sig, tuple(blocks)), tuple(values))


def normalize_blocks(desc: InductionDescriptor) -> InductionDescriptor:
    """Rewrite a holomorphic datum into the five-block canonical form.

    The blocks become (nu_{<j} minus the overlap with nu_j, that overlap,
    nu_j, the overlap of nu_j with nu_{>j}, the remainder of nu_{>j}), with
    plus parts on the first two and minus parts on the last two.  Empty
    pieces are dropped.  The module is unchanged; a ValueError ("rewrite
    unavailable") is raised when a piece is not a segment or the rewritten
    datum leaves the mediocre range.
    """
    j = desc.d.pivot()
    if j is None:
        raise ValueError("datum is not holomorphic")
    segs = segments_of(desc)
    nu_lt, nu_j, nu_gt = (HalfIntMultiset(_segment_values(part))
                          for part in (segs[:j], segs[j:j + 1], segs[j + 1:]))
    cap_lt = nu_j.intersection(nu_lt)
    cap_gt = nu_j.intersection(nu_gt)
    pieces = [nu_lt.difference(cap_lt), cap_lt, nu_j, cap_gt, nu_gt.difference(cap_gt)]
    p_j, q_j = desc.d.blocks[j]

    blocks: list[tuple[int, int]] = []
    tops: list[int] = []
    for idx, piece in enumerate(pieces):
        if piece.is_empty:
            if idx == 2:
                raise ValueError("rewrite unavailable: empty middle block")
            continue
        if not piece.is_segment():
            raise ValueError(f"rewrite unavailable: piece {piece} is not a segment")
        if idx < 2:
            blocks.append((piece.size, 0))
        elif idx == 2:
            blocks.append((p_j, q_j))
        else:
            blocks.append((0, piece.size))
        tops.append(piece.twice[0])

    out = _descriptor_from_tops(desc.d.sig, blocks, tops)
    if not range_class(out):
        raise ValueError("rewrite unavailable: outside mediocre range")
    return out


def absorb_adjacent(desc: InductionDescriptor, side: str) -> InductionDescriptor:
    """Swap a neighbour segment contained in nu_j across the pivot block.

    side="next" requires nu_{j+1} inside nu_j and produces blocks
    (..., (q_{j+1}, 0), (p_j - q_{j+1}, q_j + q_{j+1}), ...) carrying
    nu_{j+1} then nu_j; side="prev" is the mirror image.  The module is
    unchanged when the result stays mediocre.
    """
    j = desc.d.pivot()
    if j is None:
        raise ValueError("datum is not holomorphic")
    blocks = list(desc.d.blocks)
    starts, sizes = zip(*segments_of(desc))
    tops = [start + 2 * size - 2 for start, size in zip(starts, sizes)]
    # Every segment of one datum starts at N + 1 mod 2, so a neighbour lies
    # inside nu_j exactly when its ends do.
    p_j, q_j = blocks[j]
    if side == "next":
        if j + 1 >= len(blocks):
            raise ValueError("no next block")
        a_next = sizes[j + 1]
        if starts[j + 1] < starts[j] or tops[j + 1] > tops[j]:
            raise ValueError("next segment not contained in pivot segment")
        if p_j < a_next:
            raise ValueError("pivot has too few plus parts for the swap")
        new_blocks = blocks[:j] + [(a_next, 0), (p_j - a_next, q_j + a_next)] + blocks[j + 2:]
        new_tops = tops[:j] + [tops[j + 1], tops[j]] + tops[j + 2:]
    elif side == "prev":
        if j == 0:
            raise ValueError("no previous block")
        a_prev = sizes[j - 1]
        if starts[j - 1] < starts[j] or tops[j - 1] > tops[j]:
            raise ValueError("previous segment not contained in pivot segment")
        if q_j < a_prev:
            raise ValueError("pivot has too few minus parts for the swap")
        new_blocks = blocks[:j - 1] + [(p_j + a_prev, q_j - a_prev), (0, a_prev)] + blocks[j + 1:]
        new_tops = tops[:j - 1] + [tops[j], tops[j - 1]] + tops[j + 1:]
    else:
        raise ValueError("side must be 'next' or 'prev'")
    out = _descriptor_from_tops(desc.d.sig, new_blocks, new_tops)
    if not range_class(out):
        raise ValueError("rewrite unavailable: outside mediocre range")
    return out
