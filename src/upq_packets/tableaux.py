"""Signed tableaux, antitableaux, and the rewriting algorithm for them.

A cohomological induction datum yields a stack of skew columns: one column
of signed boxes per block, placed stage by stage into a Young diagram, each
block filled top to bottom with its segment's entries in decreasing order.
The rewriting procedure repeatedly normalizes adjacent column pairs (four
cases driven by the overlap and sing counts) and either certifies the stack
equivalent to the formal zero tableau or produces the pair of complete
invariants: an antitableau (entries strictly decreasing down columns,
weakly decreasing along rows) and a signed tableau (rows of alternating
signs, considered up to interchange of equal-length rows).

Entries are doubled ints throughout: an antitableau column and a working
entry hold twice the value, and a segment is a (doubled start, length)
pair.  HalfInt is built only to print an entry.

Where each box goes depends only on the block signs; its entry depends only
on its block's segment.  A stack is therefore a frozen dataclass of each
box's row, column and sign, each block's segment, and the row shapes, all
tuples of ints (see ColumnStack).  _place computes the boxes, build_initial
returns them as a stack in that form, trapa_normalize decides it from its
segments and columns and rewrites it in the same form, and to_json writes
each box from those fields.

What a sign pattern fixes is computed once per pattern.  build_initial
reads the boxes from a memo keyed by (signature, block signs), the last 64
patterns (_placement); the rewriting moves entries, never boxes, so the
signed tableau and the antitableau's column heights depend only on the row
shapes, and come from a memo keyed by (signature, row shapes), the last 256
(_tableau_shape), which every stack with those shapes shares.  A packet's
members each have their own block signs and rarely repeat one, so a
member's placement in _placed_invariants is computed afresh, not kept.

The test of a pair has two halves.  _pair_segments reads only the two
segments: it finds the pairs that are apart, always idle, and for the
others the sing count and whether the segments are aligned.  _idle reads
the columns.  Most stacks need no rewrite: they vanish at their first pair
that is not idle, or are normal as placed.  So a packet reads the segment
half once from psi's segments, which all its members share, and builds a
stack only for its holomorphic member and for a member whose placed pairs
move; every other member is decided from _place's columns and row shapes
by _idle and assemble_antitableau alone (_placed_invariants).

Trapa's verdict on a stack is its invariant pair, or None for the formal
zero tableau (NormalizeOutcome.invariants, _placed_invariants), and two
verdicts are compared by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter, ge, gt, le, lt
from typing import Optional, Sequence

from .errors import InternalInconsistencyError, IterationCapExceeded
from .halfint import HalfInt, _segment_str
from .weights import GroupSignature

PLUS = 1
MINUS = -1


def _sign_str(sign: int) -> str:
    return "+" if sign == PLUS else "-"


@dataclass(frozen=True)
class SignedTableau:
    """A (p,q)-signed tableau, stored as its multiset of rows.

    A row is determined by (length, first sign) since signs alternate along
    it.  Rows are kept sorted by (length desc, plus-first) so that equal row
    multisets compare equal, which is exactly the tableau equivalence of
    interchanging rows of the same length.
    """

    sig: GroupSignature
    rows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # Largest first is longest first, then plus-first (PLUS > MINUS).
        object.__setattr__(self, "rows", tuple(sorted(self.rows, reverse=True)))
        # A row of length L has ceil(L/2) boxes of its first sign, floor(L/2) of the other.
        plus = minus = 0
        for length, first in self.rows:
            plus += (length + (first == PLUS)) // 2
            minus += (length + (first == MINUS)) // 2
        if (plus, minus) != (self.sig.p, self.sig.q):
            raise ValueError(f"row signs ({plus},{minus}) do not match signature "
                             f"({self.sig.p},{self.sig.q})")

    @property
    def n_columns(self) -> int:
        return self.rows[0][0] if self.rows else 0

    def row_signs(self, index: int) -> list[int]:
        length, first = self.rows[index]
        return [first if k % 2 == 0 else -first for k in range(length)]

    def to_json(self) -> dict:
        return {"p": self.sig.p, "q": self.sig.q,
                "rows": [{"len": length, "first_sign": _sign_str(first)}
                         for length, first in self.rows]}


@dataclass(frozen=True)
class AntiTableau:
    """An antitableau: one tuple of doubled entries per column, read top to
    bottom.

    `entries` is its multiset of entries as doubled ints, largest first,
    computed once when the tableau is built; it is not a field that
    equality, hashing or repr read, as the columns determine it."""

    columns: tuple[tuple[int, ...], ...]
    entries: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # One pass over the columns, each tested against the one before it;
        # a tableau that breaks several conditions is refused for the first
        # broken in that pass.
        prev: tuple[int, ...] = ()
        entries: list[int] = []
        for col in self.columns:
            if not col:
                raise ValueError("empty column")
            if prev and len(col) > len(prev):
                heights = [len(c) for c in self.columns]
                raise ValueError(f"column heights {heights} not weakly decreasing")
            if not all(map(gt, col, col[1:])):
                raise ValueError("column entries must strictly decrease downward")
            if not all(map(ge, prev, col)):
                raise ValueError("row entries must weakly decrease rightward")
            entries += col
            prev = col
        entries.sort(reverse=True)
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def shape(self) -> tuple[int, ...]:
        # Row lengths, the conjugate of the column heights: the rows from
        # height(c+1) to height(c) - 1 have length c.
        heights = [len(c) for c in self.columns] + [0]
        out: list[int] = []
        for c in range(len(self.columns), 0, -1):
            out += [c] * (heights[c - 1] - heights[c])
        return tuple(out)

    def row(self, r: int) -> list[int]:
        return [col[r] for col in self.columns if len(col) > r]

    def to_json(self) -> dict:
        return {"columns": [[{"twice": v} for v in col] for col in self.columns]}


@dataclass(frozen=True, slots=True)
class ColumnStack:
    """A block-partitioned signed filled tableau.

    A stack holds what placing its boxes decided: each box's row, column
    and sign, and each block's segment as a (doubled start, length) pair.
    Box k of a block whose segment tops at `top` holds top - 2k, so the
    entries need no record.  `cols` holds one tuple per block, its boxes'
    columns top to bottom; `rows` and `signs` are flat, in block order,
    block i's boxes starting at the sum of the lengths of the blocks
    before it.  row_shapes is the multiset of signed rows, fixed at build
    time (the rewriting moves entries, never boxes).

    A frozen dataclass of tuples of ints: equality, hashing and repr
    compare and show these fields, and no field can be reassigned.
    """

    sig: GroupSignature
    row_shapes: tuple[tuple[int, int], ...]
    segments: tuple[tuple[int, int], ...]
    cols: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]
    signs: tuple[int, ...]

    def to_json(self) -> dict:
        rows, signs = iter(self.rows), iter(self.signs)  # flat, in block order
        return {"p": self.sig.p, "q": self.sig.q,
                "blocks": [[{"row": next(rows), "col": col, "sign": _sign_str(next(signs)),
                             "entry": {"twice": start + 2 * (length - 1 - k)}}
                            for k, col in enumerate(cols)]
                           for (start, length), cols in zip(self.segments, self.cols)]}


def build_initial(sig: GroupSignature, block_signs: Sequence[tuple[int, int]],
                  segments: Sequence[tuple[int, int]]) -> ColumnStack:
    """Construct the initial stack for blocks (p_i, q_i) and their segments,
    each a (doubled start, length) pair: the blocks and segments are
    checked against each other and the signature on every call, and
    _place's boxes are kept with the segments in ColumnStack's one form.
    The boxes depend only on the signature and the block signs, so they
    are read from _placement's memo of the last 64 sign patterns, already
    in that form.  A block's entries need no record: box k of a block
    whose segment tops at `top` receives top - 2k.

    packet() builds a stack only for the holomorphic member, through
    tableau_pair, and for a member whose placed pairs move, which
    _placed_invariants normalizes where it finds the move; every other
    member is decided from _place's columns and row shapes alone.
    """
    if len(block_signs) != len(segments):
        raise ValueError("one segment per block required")
    p = q = 0
    for (pk, qk), (_, length) in zip(block_signs, segments):
        if pk < 0 or qk < 0 or pk + qk == 0:
            raise ValueError(f"bad block ({pk},{qk})")
        if length != pk + qk:
            raise ValueError(f"a segment of length {length} does not match block size {pk + qk}")
        p += pk
        q += qk
    if p != sig.p or q != sig.q:
        raise ValueError("block signs do not sum to the signature")
    # The memo key is a tuple of pairs, so blocks given as lists place too.
    row_shapes, cols, rows, signs = _placement(sig, tuple(map(tuple, block_signs)))
    return ColumnStack(sig, row_shapes, tuple(segments), cols, rows, signs)


@lru_cache(maxsize=64)
def _placement(sig: GroupSignature, block_signs: tuple[tuple[int, int], ...]
               ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...],
                          tuple[int, ...], tuple[int, ...]]:
    # _place's boxes as the tuples a ColumnStack holds, kept for the last 64
    # sign patterns: where the boxes go depends on the block signs alone.
    row_shapes, cols, rows, signs = _place(sig, block_signs)
    return row_shapes, tuple(cols), tuple(rows), tuple(signs)


def _place(sig: GroupSignature, block_signs: Sequence[tuple[int, int]]
           ) -> tuple[tuple[tuple[int, int], ...], list[tuple[int, ...]], list[int], list[int]]:
    """Place the boxes of blocks (p_i, q_i), which the caller has checked
    to be nonempty and to sum to the signature.  Returns the row shapes
    (length, first sign) by row id, each block's boxes' columns top to
    bottom, and each box's row id and sign, flat in block order.

    Stage 1 is a single column with p_1 plus boxes above q_1 minus boxes.
    Stage k appends at most one box per existing row end, scanning rows top
    to bottom (longest first, then by row id), with the sign forced by
    alternation and limited by the stage's remaining budget; the scan stops
    once the budget is spent.  Leftover pluses then minuses open new one-box
    rows at the bottom.  Block k's boxes, in that placement order, receive
    its segment's entries in decreasing order.

    The scan order is carried from stage to stage, not sorted afresh: a
    stage lengthens some rows by one, and each of them moves up past the
    rows it now outranks, which keeps the order exact.

    A block of one box (p_k + q_k = 1, most blocks of most packets) is
    placed directly.  Its sign s is its whole budget, so the general stage
    skips every row whose last sign is s, lengthens the first row whose
    last sign is -s and stops there, the budget being spent; with no such
    row nothing is lengthened and s opens a new row.  The direct stage does
    the same without the budget, the list of lengthened rows or the
    new-row loop: the one row lengthened moves up past the rows it now
    outranks.
    """
    # Per row id: its length, first and last signs, and its rank, id - n * length,
    # which orders rows longest first, then by id (there are at most n rows).
    n = sig.N
    lengths: list[int] = []
    firsts: list[int] = []
    lasts: list[int] = []
    ranks: list[int] = []
    order: list[int] = []  # row ids by rank
    cols: list[tuple[int, ...]] = []  # per block, its boxes' columns top to bottom
    rows: list[int] = []  # per box, in block order, its row id
    signs: list[int] = []  # and its sign

    def open_row(sign: int) -> int:
        # A new one-box row of this sign, last in the scan order; its id.
        rid = len(lengths)
        lengths.append(1)
        firsts.append(sign)
        lasts.append(sign)
        ranks.append(rid - n)
        order.append(rid)
        return rid

    for pk, qk in block_signs:
        if pk + qk == 1:
            # One box: the first row it alternates with, else a new row.
            sign = PLUS if pk else MINUS
            signs.append(sign)
            for pos, rid in enumerate(order):
                if lasts[rid] != sign:
                    break
            else:
                rows.append(open_row(sign))
                cols.append((1,))
                continue
            lasts[rid] = sign
            lengths[rid] += 1
            rank = ranks[rid] - n
            ranks[rid] = rank
            rows.append(rid)
            cols.append((lengths[rid],))
            while pos and ranks[order[pos - 1]] > rank:
                order[pos] = order[pos - 1]
                pos -= 1
            order[pos] = rid
            continue
        block_cols: list[int] = []
        grown: list[int] = []  # positions in `order` of the rows lengthened
        for pos, rid in enumerate(order):
            if not (pk or qk):
                break
            if lasts[rid] == MINUS:
                if not pk:
                    continue
                pk -= 1
                sign = PLUS
            else:
                if not qk:
                    continue
                qk -= 1
                sign = MINUS
            lasts[rid] = sign
            lengths[rid] += 1
            ranks[rid] -= n
            rows.append(rid)
            signs.append(sign)
            block_cols.append(lengths[rid])
            grown.append(pos)
        # Rows not lengthened keep their order, and so do the lengthened
        # ones; move each lengthened row up past the rows it now outranks.
        for pos in grown:
            rid = order[pos]
            rank = ranks[rid]
            while pos and ranks[order[pos - 1]] > rank:
                order[pos] = order[pos - 1]
                pos -= 1
            order[pos] = rid
        for sign, count in ((PLUS, pk), (MINUS, qk)):
            for _ in range(count):
                rows.append(open_row(sign))
                signs.append(sign)
                block_cols.append(1)
        cols.append(tuple(block_cols))
    return tuple(zip(lengths, firsts)), cols, rows, signs


class _WBox:
    """Mutable working box: position and sign are fixed, the entry moves."""

    __slots__ = ("row", "col", "sign", "entry")

    def __init__(self, row: int, col: int, sign: int, entry: int) -> None:
        self.row, self.col, self.sign, self.entry = row, col, sign, entry


def _entries_segment(block: Sequence[_WBox]) -> tuple[int, int]:
    """The segment a block of boxes holds, as (start doubled, length).

    The repartition lists a block's entries largest first, so this checks
    that order and never sorts: each entry must be exactly 1 above the
    next.
    """
    top = block[0].entry
    for k, b in enumerate(block):
        if b.entry != top - 2 * k:
            raise InternalInconsistencyError(
                f"block entries {[str(HalfInt(b.entry)) for b in block]} do not form a segment")
    return block[-1].entry, len(block)


def _sing(a: tuple[int, int], b: tuple[int, int]) -> int:
    # The number of entries two (start doubled, length) segments share.
    if (a[0] - b[0]) % 2:
        return 0
    lo, hi = max(a[0], b[0]), min(a[0] + 2 * a[1], b[0] + 2 * b[1]) - 2
    return (hi - lo) // 2 + 1 if hi >= lo else 0


def _overlap(left: Sequence[int], right: Sequence[int]) -> int:
    # The largest m such that each of the left block's bottom m boxes lies
    # in a column strictly left of the matching one of the right block's
    # top m; the blocks are given by their columns, top to bottom.
    ai, aj = len(left), len(right)
    for m in range(min(ai, aj), 0, -1):
        if all(map(lt, left[ai - m:], right)):
            return m
    return 0


def _bump(at: dict[int, list[_WBox]], value: int, step: int) -> None:
    # One bump toward restoring doubled entry `value`, for step = +2 (raise)
    # or -2 (lower): the box holding value - step strictly beyond the unique
    # box holding `value` in the step's direction (right for +2, left for -2)
    # moves to `value`; with no such box, the first box holding value - step
    # in that direction's column order (left-most for +2, right-most for -2).
    # `at` is the pair's entry -> boxes index, kept current.
    refs = at.setdefault(value, [])
    if len(refs) != 1:
        raise InternalInconsistencyError(
            f"expected a unique box holding {HalfInt(value)}, found {len(refs)}")
    ref_col = refs[0].col
    source = value - step
    candidates = at.get(source, [])
    beyond = [b for b in candidates if step * (b.col - ref_col) > 0]
    if len(beyond) > 1:
        raise InternalInconsistencyError(
            f"more than one box holding {HalfInt(source)} beyond the {HalfInt(value)} box")
    if not candidates:
        raise InternalInconsistencyError(
            f"no box holding {HalfInt(source)} to move to {HalfInt(value)}")
    target = beyond[0] if beyond else min(candidates, key=lambda b: (step * b.col, b.row))
    candidates.remove(target)
    refs.append(target)
    target.entry = value


def _unit_shift(twice: int) -> int:
    # The shift between the endpoints of nested segments: a whole number of
    # unit steps, never negative.
    if twice % 2 != 0 or twice < 0:
        raise InternalInconsistencyError(
            f"nested segments are {twice}/2 apart, not a nonnegative integer")
    return twice // 2


def _pair_segments(seg_l: tuple[int, int], seg_r: tuple[int, int]
                   ) -> Optional[tuple[int, bool]]:
    """The half of the pair test that reads only the two segments, each a
    (doubled start, length) pair.  Returns None when the pair is apart:
    its right segment lies wholly below its left one (end_r < start_l).
    Otherwise returns (sing, aligned): sing counts the entries the two
    segments share, and aligned is condition (a) of _idle,

    (a) start_r <= start_l and end_r <= end_l.

    A pair that is apart is already normal, whatever its columns.  Proof.
    If end_r < start_l the segments share no entry, so sing is 0 and
    neither the zero case nor a shift applies; every value in
    [start_r, end_r] is held only by a right-block box, so the
    repartition chain is the right block in its own order; the rest is
    the left block in its own order; so the blocks after equal the blocks
    before.

    A rewrite changes the segments of its pair, so trapa_normalize asks
    this of its current segments at each pair.  The members of a packet
    are placed on psi's segments, so packet() asks it once per psi."""
    (start_l, ai), (start_r, aj) = seg_l, seg_r
    end_r = start_r + 2 * aj - 2
    if end_r < start_l:
        return None
    return _sing(seg_l, seg_r), start_r <= start_l and end_r <= start_l + 2 * ai - 2


def _idle(left: Sequence[int], right: Sequence[int], sing: int,
          aligned: bool) -> tuple[Optional[bool], int]:
    """Is a pair of blocks that is not apart already normal?  left and
    right are the blocks' columns, top to bottom, and sing and aligned
    are what _pair_segments read off their segments.

    Returns (verdict, overlap).  The verdict is None when the pair
    rewrites to the formal zero tableau (overlap < sing), True when
    Trapa's pair rewrite would leave it as it is, and False when the
    rewrite would move it; _rewrite_pair takes the overlap and sing of a
    pair that moves.  The pair is already normal when all of these hold:

    (a) start_r <= start_l and end_r <= end_l (aligned);
    (b) overlap >= sing;
    (c) for each shared value, the right block's box lies in a column no
        further left than the left block's box.

    Proof.  Under (b) the pair is not zero, and under (a) no shift
    applies (m = 0): the descent case (seg_r inside seg_l) needs
    start_r >= start_l and shifts by start_r - start_l = 0, the ascent
    case (seg_l inside seg_r) needs end_l <= end_r and shifts by
    end_r - end_l = 0.  The chain then runs over [start_r, end_r], the
    right segment.  A value below start_l is held only by a right box.
    A shared value v in [start_l, end_r] is held by the left box
    left[(end_l - v) / 2], one of the bottom sing boxes, and by the right
    box right[(end_r - v) / 2], one of the top sing boxes; the chain takes
    the right-most of the two, the later in the pair on a tie, which by
    (c) is the right box.  So the chain is the right block in its own
    order, the rest is the left block, sorted as it was, and nothing
    moves.

    On a stack as build_initial places it, (b) implies (c): each block's
    columns weakly decrease downward, and overlap >= sing puts every one
    of the bottom sing left boxes strictly left of the right box it is
    compared with.  A rewritten block lists its boxes by entry, so (c) is
    tested rather than assumed; the one test serves both, and on a pair
    of placed blocks it never fails.

    The test is exact: when overlap >= sing on a pair that is not apart
    but (a) or (c) fails, the rewrite moves the pair.  If (a) fails, the
    new right block holds [min(start_l, start_r), min(end_l, end_r)],
    which differs from seg_r in its bottom or its top.  If (a) holds and
    (c) fails at v, the chain takes the left box holding v, in another
    column than the right box that held it.
    """
    ov = _overlap(left, right)
    if ov < sing:
        return None, ov
    return aligned and all(map(le, left[len(left) - sing:], right)), ov


def _rewrite_pair(segs: list[tuple[int, int]], cols: list[tuple[int, ...]],
                  rows: list[int], signs: list[int], i: int, ov: int, sg: int) -> None:
    """Normalize the adjacent pair (i, i+1), holding segments segs[i] and
    segs[i+1], which _idle found neither zero nor already normal, with
    the overlap ov that _idle measured and the sing sg that
    _pair_segments read.

    The four cases compare overlap and sing; the descent (resp. ascent)
    case shifts the right (resp. left) block's entries and restores them
    one unit at a time through bump steps, and every case ends with the
    chain repartition that re-splits the pair along the right-most boxes
    of consecutive entries.  The lists are copies of a stack's fields (see
    ColumnStack): only the pair is made into working boxes, and the two
    rewritten blocks go back into the same lists, their segments into
    `segs`, their columns into `cols`, and their rows and signs into the
    pair's stretch of `rows` and `signs`, which keeps its length.
    """
    (start_l, ai), (start_r, aj) = segs[i], segs[i + 1]
    end_l, end_r = start_l + 2 * ai - 2, start_r + 2 * aj - 2
    j = sum(length for _, length in segs[:i])  # the pair's first box in rows and signs
    left = [_WBox(rows[j + k], col, signs[j + k], end_l - 2 * k)
            for k, col in enumerate(cols[i])]
    right = [_WBox(rows[j + ai + k], col, signs[j + ai + k], end_r - 2 * k)
             for k, col in enumerate(cols[i + 1])]
    pair = left + right

    # Segments repeat no entry, so sg == aj puts seg_r inside seg_l, sg == ai the reverse.
    # Descent shifts the right block down by m units and raises it back (step
    # +2, one unit doubled); ascent shifts the left block up and lowers it
    # back (step -2).  Either way the targets run from the shifted segment's
    # far end, `anchor`.
    m = 0
    if ov == sg == aj:
        moved, step, anchor = right, 2, end_r
        m = _unit_shift(start_r - start_l)
    elif ov == sg == ai:
        moved, step, anchor = left, -2, start_l
        m = _unit_shift(end_r - end_l)
    # Remaining possibilities (ov = sg < min or ov > sg) keep the filling.
    if m > 0:
        for b in moved:
            b.entry -= step * m
        at: dict[int, list[_WBox]] = {}  # doubled entry -> the boxes holding it
        for b in pair:
            at.setdefault(b.entry, []).append(b)
        for s in range(m - 1, -1, -1):
            for k in range(len(moved)):
                _bump(at, anchor - step * (k + s), step)

    # Repartition: the new right block is the chain of right-most boxes
    # holding min(bottoms), min(bottoms)+1, ..., min(tops); of two in one
    # column, the later in the pair.
    rightmost: dict[int, _WBox] = {}
    for b in pair:
        if b.entry not in rightmost or b.col >= rightmost[b.entry].col:
            rightmost[b.entry] = b
    chain: list[_WBox] = []
    for value in range(min(start_l, start_r), min(end_l, end_r) + 1, 2):
        if value not in rightmost:
            raise InternalInconsistencyError(
                f"repartition found no box holding {HalfInt(value)}")
        chain.append(rightmost[value])
    taken = set(chain)
    rest = [b for b in pair if b not in taken]
    rest.sort(key=attrgetter("entry"), reverse=True)
    chain.reverse()
    if not rest or not chain:
        raise InternalInconsistencyError("repartition emptied a block")
    segs[i] = _entries_segment(rest)
    segs[i + 1] = _entries_segment(chain)
    cols[i] = tuple(b.col for b in rest)
    cols[i + 1] = tuple(b.col for b in chain)
    rows[j:j + ai + aj] = [b.row for b in rest + chain]
    signs[j:j + ai + aj] = [b.sign for b in rest + chain]


@dataclass(frozen=True)
class NormalizeOutcome:
    """Trapa's verdict on a stack: the normalized stack and its invariant
    pair (antitableau, signed tableau), or None for both when the stack is
    equivalent to the formal zero tableau.  Two verdicts on one stack are
    compared as their pairs, by value."""

    stack: Optional[ColumnStack]
    invariants: Optional[tuple[AntiTableau, SignedTableau]]

    @property
    def is_zero(self) -> bool:
        return self.stack is None


@lru_cache(maxsize=256)
def _tableau_shape(sig: GroupSignature, row_shapes: tuple[tuple[int, int], ...]
                   ) -> tuple[SignedTableau, tuple[int, ...]]:
    """The signed tableau of these row shapes and the column heights every
    antitableau on them has, the conjugate of the row lengths: column c
    holds as many boxes as there are rows of length at least c.  Both
    depend only on the row shapes, which the rewriting never moves, so the
    last 256 are kept and every stack with those shapes shares one
    SignedTableau."""
    heights = [0] * max(row_shapes)[0]
    for length, _ in row_shapes:
        heights[length - 1] += 1
    for c in range(len(heights) - 1, 0, -1):
        heights[c - 1] += heights[c]
    return SignedTableau(sig, row_shapes), tuple(heights)


def assemble_antitableau(segs: Sequence[tuple[int, int]], cols: Sequence[Sequence[int]],
                         heights: tuple[int, ...]) -> AntiTableau:
    """Read off the antitableau of a stack whose block i holds the segment
    segs[i] = (doubled start, length), largest entry first, in boxes with
    the columns cols[i], top to bottom: column c holds, sorted
    decreasingly, the entries of all boxes in column c.  heights are the
    column heights the stack's row shapes fix, the conjugate of its row
    lengths, as _tableau_shape reads them.
    Raises if the columns are not contiguous, if the result violates either
    antitableau condition, or if its column heights are not those heights
    (this is asserted, never assumed).

    Every stack trapa_normalize returns is read this way, from the
    segments and columns it holds: box k of block i holds top_i - 2k.
    The (column, entry) pairs are read in one loop, and each check exists
    once.

    The columns are collected in a list indexed by col - 1, as long as the
    longest row, len(heights).  This reads the same tableau as grouping
    the boxes by column and sorting each group.  Every row id holds the
    boxes of columns 1 to its length, so the columns in use are exactly 1
    to the longest row; a box outside the list or an empty column means
    they are not, and raises.  Each column is sorted largest first without
    a test, and AntiTableau tests strict decrease once.  A sorted tuple
    equals the input exactly when the input was strictly decreasing, as
    each column of an unmoved stack is in block order, so this reads what
    sorting only the columns that need it would.  The shape is checked on
    the column heights: column c must hold heights[c - 1] boxes.  Heights
    that AntiTableau accepted weakly decrease, so they form a partition,
    and conjugation is an involution on partitions: the heights are the
    conjugate of the row lengths exactly when the antitableau's shape,
    the conjugate of its heights, is the sorted row lengths.  That shape
    is built only for the error message.
    """
    width = len(heights)
    by_col: list[list[int]] = [[] for _ in range(width)]
    for (start, length), block_cols in zip(segs, cols):
        entry = start + 2 * length
        for col in block_cols:
            entry -= 2
            if not 0 < col <= width:
                raise InternalInconsistencyError("columns are not contiguous")
            by_col[col - 1].append(entry)
    if not all(by_col):
        raise InternalInconsistencyError("columns are not contiguous")
    for col in by_col:
        col.sort(reverse=True)
    try:
        ann = AntiTableau(tuple(map(tuple, by_col)))
    except ValueError as exc:
        raise InternalInconsistencyError(f"assembled tableau invalid: {exc}") from exc
    if tuple(map(len, by_col)) != heights:
        shape = [sum(h > r for h in heights) for r in range(heights[0])]
        raise InternalInconsistencyError(
            f"antitableau shape {ann.shape} differs from row shape {shape}")
    return ann


def trapa_normalize(stack: ColumnStack) -> NormalizeOutcome:
    """Run left-to-right rewriting sweeps to a fixpoint and test vanishing.

    Returns the zero outcome as soon as a pair rewrites to the formal zero
    tableau.  Otherwise returns the rewritten stack together with its
    invariant pair, its antitableau and signed tableau.  The sweep count
    is capped; hitting the cap raises, it never hangs or silently stops.

    Each sweep tests the pairs in order: _pair_segments reads the pair's
    current segments, and a pair that is apart is left as it is; _idle
    reads the columns of any other pair and moves nothing.  A pair found
    zero ends the run, a pair found already normal is left as it is, and
    any other pair is rewritten by _rewrite_pair, which writes back the
    pair's segments, columns, rows and signs.  The stack's tuples are
    copied into lists at the first rewrite, so a stack whose pairs are
    all already normal is only tested, and the returned stack is the
    input object itself; a rewritten stack is returned in the same form,
    and the antitableau is read off its segments and columns.

    The final conditions, that every adjacent pair has overlap >= sing and
    seg(i+1) <= seg(i) componentwise, then hold by the two tests'
    definitions: the sweeps stop only after a sweep in which every pair
    was apart (end_r < start_l, so start_r <= end_r < start_l <= end_l and
    sing is 0) or found already normal by _idle, with start_r <= start_l,
    end_r <= end_l and overlap >= sing.  Either gives seg(i+1) <= seg(i)
    componentwise.  On a stack that moved the componentwise test is still
    made, and a failure raises InternalInconsistencyError: it would be a
    fault in the rewriting, not a module that vanishes.
    """
    segs = list(stack.segments)
    cols, rows, signs = stack.cols, stack.rows, stack.signs  # copied at the first rewrite
    pairs = range(len(segs) - 1)
    cap = max(4, stack.sig.N ** 2)
    for _ in range(cap):
        changed = False
        for i in pairs:
            facts = _pair_segments(segs[i], segs[i + 1])
            if facts is None:
                continue
            idle, ov = _idle(cols[i], cols[i + 1], *facts)
            if idle is None:
                return NormalizeOutcome(None, None)
            if not idle:
                if rows is stack.rows:
                    cols, rows, signs = list(cols), list(rows), list(signs)
                _rewrite_pair(segs, cols, rows, signs, i, ov, facts[0])
                changed = True
        if not changed:
            break
    else:
        raise IterationCapExceeded(f"no fixpoint within {cap} sweeps")

    if rows is not stack.rows:
        for (hi_start, hi_len), (lo_start, lo_len) in zip(segs, segs[1:]):
            if not (lo_start <= hi_start and lo_start + 2 * lo_len <= hi_start + 2 * hi_len):
                raise InternalInconsistencyError(
                    f"the rewritten segments {', '.join(_segment_str(*s) for s in segs)} "
                    f"do not decrease componentwise")
        stack = ColumnStack(stack.sig, stack.row_shapes, tuple(segs), tuple(cols), tuple(rows),
                            tuple(signs))
    as_tab, heights = _tableau_shape(stack.sig, stack.row_shapes)
    return NormalizeOutcome(stack, (assemble_antitableau(segs, cols, heights), as_tab))


def _placed_invariants(sig: GroupSignature, blocks: Sequence[tuple[int, int]],
                       segs: Sequence[tuple[int, int]], pairs: Sequence[tuple[int, int, bool]]
                       ) -> Optional[tuple[AntiTableau, SignedTableau]]:
    """Trapa's verdict on the stack of these blocks and segments, read from
    where _place puts its boxes: trapa_normalize(build_initial(sig, blocks,
    segs)).invariants, the invariant pair, or None when the stack vanishes.

    pairs lists (i, sing, aligned) for each adjacent pair i that is not
    apart, as _pair_segments reads them off the segments; every other
    pair is idle as placed.  trapa_normalize's first sweep tests the pairs
    of build_initial's stack in order, and the first that is not idle
    decides:

    * a zero pair (overlap < sing): the stack vanishes, None;
    * a pair that moves: the stack is built and normalized here, and its
      verdict is returned;
    * no such pair: the stack is normal as placed, and its invariants are
      read off its segments and columns as trapa_normalize reads them.

    So up to its first rewrite this is trapa_normalize, with _idle given
    the same columns and the segment facts of the same segments, and the
    proofs of _pair_segments and _idle cover it."""
    row_shapes, cols, _, _ = _place(sig, blocks)
    for i, sing, aligned in pairs:
        idle = _idle(cols[i], cols[i + 1], sing, aligned)[0]
        if idle is None:
            return None
        if not idle:
            return trapa_normalize(build_initial(sig, blocks, segs)).invariants
    as_tab, heights = _tableau_shape(sig, row_shapes)
    return assemble_antitableau(segs, cols, heights), as_tab


def as_pair_equal(a: tuple[AntiTableau, SignedTableau],
                  b: tuple[AntiTableau, SignedTableau]) -> bool:
    """Equality of (annihilator, asymptotic-support) invariant pairs.

    Representations with the same signature and infinitesimal character are
    isomorphic exactly when these pairs coincide; comparing across different
    signatures or entry multisets is a usage error, not False.  The entry
    multisets are compared as the antitableaux's `entries`, doubled ints
    largest first, which each tableau computed when it was built.
    """
    ann_a, as_a = a
    ann_b, as_b = b
    if as_a.sig != as_b.sig:
        raise ValueError("signature mismatch in invariant comparison")
    if ann_a.entries != ann_b.entries:
        raise ValueError("entry multiset mismatch in invariant comparison")
    return ann_a == ann_b and as_a == as_b
