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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import InternalInconsistencyError, IterationCapExceeded
from .halfint import HalfInt, HalfIntMultiset, Segment
from .weights import GroupSignature

PLUS = 1
MINUS = -1


def _sign_str(sign: int) -> str:
    return "+" if sign == PLUS else "-"


@dataclass(frozen=True)
class Box:
    row: int
    col: int
    sign: int
    entry: HalfInt

    def to_json(self) -> dict:
        return {"row": self.row, "col": self.col,
                "sign": _sign_str(self.sign), "entry": self.entry.to_json()}


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
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=lambda r: (-r[0], -r[1]))))
        plus = sum(self._count(length, first, PLUS) for length, first in self.rows)
        minus = sum(self._count(length, first, MINUS) for length, first in self.rows)
        if (plus, minus) != (self.sig.p, self.sig.q):
            raise ValueError(f"row signs ({plus},{minus}) do not match signature "
                             f"({self.sig.p},{self.sig.q})")

    @staticmethod
    def _count(length: int, first: int, sign: int) -> int:
        if sign == first:
            return (length + 1) // 2
        return length // 2

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(length for length, _ in self.rows)

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
    """An antitableau: one tuple of entries per column, read top to bottom."""

    columns: tuple[tuple[HalfInt, ...], ...]

    def __post_init__(self) -> None:
        heights = [len(c) for c in self.columns]
        if any(h == 0 for h in heights):
            raise ValueError("empty column")
        if any(heights[i] < heights[i + 1] for i in range(len(heights) - 1)):
            raise ValueError(f"column heights {heights} not weakly decreasing")
        for col in self.columns:
            if any(col[i] <= col[i + 1] for i in range(len(col) - 1)):
                raise ValueError("column entries must strictly decrease downward")
        for c in range(len(self.columns) - 1):
            left, right = self.columns[c], self.columns[c + 1]
            if any(left[r] < right[r] for r in range(len(right))):
                raise ValueError("row entries must weakly decrease rightward")

    @property
    def shape(self) -> tuple[int, ...]:
        # Row lengths: row r spans the columns of height > r.
        if not self.columns:
            return ()
        return tuple(sum(1 for c in self.columns if len(c) > r)
                     for r in range(len(self.columns[0])))

    def entry_multiset(self) -> HalfIntMultiset:
        return HalfIntMultiset.from_values(v for col in self.columns for v in col)

    def row(self, r: int) -> list[HalfInt]:
        return [col[r] for col in self.columns if len(col) > r]

    def to_json(self) -> dict:
        return {"columns": [[v.to_json() for v in col] for col in self.columns]}


@dataclass(frozen=True)
class ColumnStack:
    """A block-partitioned signed filled tableau.

    blocks[i] lists block i's boxes top to bottom; within a block the entries
    strictly decrease downward.  row_shapes is the multiset of signed rows,
    fixed at build time (the rewriting moves entries, never boxes).
    """

    sig: GroupSignature
    blocks: tuple[tuple[Box, ...], ...]
    row_shapes: tuple[tuple[int, int], ...]

    def entry_multiset(self) -> HalfIntMultiset:
        return HalfIntMultiset.from_values(b.entry for blk in self.blocks for b in blk)

    def signed_tableau(self) -> SignedTableau:
        return SignedTableau(self.sig, self.row_shapes)

    def to_json(self) -> dict:
        return {"p": self.sig.p, "q": self.sig.q,
                "blocks": [[b.to_json() for b in blk] for blk in self.blocks]}


class _Row:
    __slots__ = ("rid", "length", "last_sign")

    def __init__(self, rid: int, sign: int) -> None:
        self.rid = rid
        self.length = 1
        self.last_sign = sign


def build_initial(sig: GroupSignature, block_signs: list[tuple[int, int]],
                  segments: list[Segment]) -> ColumnStack:
    """Construct the initial stack for blocks (p_i, q_i) and their segments.

    Stage 1 is a single column with p_1 plus boxes above q_1 minus boxes.
    Stage k appends at most one box per existing row end, scanning rows top
    to bottom (longest first), with the sign forced by alternation and
    limited by the stage's remaining budget; leftover pluses then minuses
    open new one-box rows at the bottom.  Block k's boxes, in that placement
    order, receive its segment's entries in decreasing order.
    """
    if len(block_signs) != len(segments):
        raise ValueError("one segment per block required")
    for (pk, qk), seg in zip(block_signs, segments):
        if pk < 0 or qk < 0 or pk + qk == 0:
            raise ValueError(f"bad block ({pk},{qk})")
        if seg.length != pk + qk:
            raise ValueError(f"segment {seg} does not match block size {pk + qk}")
    if sum(pk for pk, _ in block_signs) != sig.p or sum(qk for _, qk in block_signs) != sig.q:
        raise ValueError("block signs do not sum to the signature")

    rows: list[_Row] = []
    next_rid = 0
    blocks: list[tuple[Box, ...]] = []
    for k, ((pk, qk), seg) in enumerate(zip(block_signs, segments)):
        placed: list[tuple[int, int, int]] = []  # (row id, col, sign)
        budget = {PLUS: pk, MINUS: qk}
        if k > 0:
            for row in sorted(rows, key=lambda r: (-r.length, r.rid)):
                forced = -row.last_sign
                if budget[forced] > 0:
                    budget[forced] -= 1
                    row.length += 1
                    row.last_sign = forced
                    placed.append((row.rid, row.length, forced))
        for sign in (PLUS, MINUS):
            for _ in range(budget[sign]):
                rows.append(_Row(next_rid, sign))
                placed.append((next_rid, 1, sign))
                next_rid += 1
            budget[sign] = 0
        entries = seg.members_desc()
        blocks.append(tuple(Box(rid, col, sign, entry)
                            for (rid, col, sign), entry in zip(placed, entries)))

    row_shapes: list[tuple[int, int]] = []
    first_sign: dict[int, int] = {}
    for blk in blocks:
        for b in blk:
            if b.col == 1:
                first_sign[b.row] = b.sign
    for row in rows:
        row_shapes.append((row.length, first_sign[row.rid]))
    return ColumnStack(sig, tuple(blocks), tuple(row_shapes))


class _WBox:
    """Mutable working box; position and sign are fixed, the entry moves."""

    __slots__ = ("row", "col", "sign", "entry")

    def __init__(self, box: Box) -> None:
        self.row = box.row
        self.col = box.col
        self.sign = box.sign
        self.entry = box.entry

    def freeze(self) -> Box:
        return Box(self.row, self.col, self.sign, self.entry)


def _entries_segment(block: list[_WBox]) -> Segment:
    """The segment a block holds.

    Blocks list their entries largest first (build_initial places them so
    and the repartition sorts them), so this checks that order and never
    sorts: each entry must be exactly 1 above the next.
    """
    for upper, lower in zip(block, block[1:]):
        if upper.entry.twice - lower.entry.twice != 2:
            raise InternalInconsistencyError(
                f"block entries {[str(b.entry) for b in block]} do not form a segment")
    return Segment(block[-1].entry, len(block))


def _overlap(left: list[_WBox], right: list[_WBox]) -> int:
    ai, aj = len(left), len(right)
    for m in range(min(ai, aj), 0, -1):
        if all(left[ai - m + k].col < right[k].col for k in range(m)):
            return m
    return 0


class OverlapSing(NamedTuple):
    overlap: int
    sing: int


def overlap_and_sing(stack: ColumnStack, i: int) -> OverlapSing:
    """Overlap and sing for the adjacent blocks i, i+1 of the stack."""
    left = [_WBox(b) for b in stack.blocks[i]]
    right = [_WBox(b) for b in stack.blocks[i + 1]]
    sing = _entries_segment(left).intersect(_entries_segment(right)).length
    return OverlapSing(_overlap(left, right), sing)


def _bump(pair: list[_WBox], value: HalfInt, step: int) -> None:
    # One bump toward restoring entry `value`, for step = +1 (raise) or -1
    # (lower): the box holding value - step strictly beyond the unique box
    # holding `value` in the step's direction (right for +1, left for -1)
    # moves to `value`; with no such box, the first box holding value - step
    # in that direction's column order (left-most for +1, right-most for -1).
    refs = [b for b in pair if b.entry == value]
    if len(refs) != 1:
        raise InternalInconsistencyError(
            f"expected a unique box holding {value}, found {len(refs)}")
    ref_col = refs[0].col
    source = value - step
    candidates = [b for b in pair if b.entry == source]
    beyond = [b for b in candidates if step * (b.col - ref_col) > 0]
    if len(beyond) > 1:
        raise InternalInconsistencyError(
            f"more than one box holding {source} beyond the {value} box")
    if not candidates:
        raise InternalInconsistencyError(f"no box holding {source} to move to {value}")
    target = beyond[0] if beyond else min(candidates, key=lambda b: (step * b.col, b.row))
    target.entry = value


def _unit_shift(twice: int) -> int:
    # The shift between the endpoints of nested segments: a whole number of
    # unit steps, never negative.
    if twice % 2 != 0 or twice < 0:
        raise InternalInconsistencyError(
            f"nested segments are {twice}/2 apart, not a nonnegative integer")
    return twice // 2


def _rewrite_pair(blocks: list[list[_WBox]], i: int) -> Optional[bool]:
    """Normalize the adjacent pair (i, i+1) in place.

    Returns None when the pair rewrites to the formal zero tableau, else
    whether anything changed.  The four cases compare overlap and sing; the
    descent (resp. ascent) case shifts the right (resp. left) block's
    entries and restores them one unit at a time through bump steps, and
    every case ends with the chain repartition that re-splits the pair along
    the right-most boxes of consecutive entries.
    """
    left, right = blocks[i], blocks[i + 1]
    seg_l, seg_r = _entries_segment(left), _entries_segment(right)
    ov = _overlap(left, right)
    sg = seg_l.intersect(seg_r).length
    ai, aj = len(left), len(right)

    before = ([(b.col, b.entry) for b in left], [(b.col, b.entry) for b in right])
    pair = left + right

    if ov < sg:
        return None
    # Segments repeat no entry, so sg == aj puts seg_r inside seg_l, sg == ai the reverse.
    # Descent shifts the right block down by m and raises it back (step +1);
    # ascent shifts the left block up and lowers it back (step -1).  Either
    # way the targets run from the shifted segment's far end, `anchor`.
    m = 0
    if ov == sg == aj:
        moved, step, anchor = right, 1, seg_r.end
        m = _unit_shift(seg_r.start.twice - seg_l.start.twice)
    elif ov == sg == ai:
        moved, step, anchor = left, -1, seg_l.start
        m = _unit_shift(seg_r.end.twice - seg_l.end.twice)
    # Remaining possibilities (ov = sg < min or ov > sg) keep the filling.
    if m > 0:
        for b in moved:
            b.entry = b.entry - step * m
        for s in range(m - 1, -1, -1):
            for k in range(len(moved)):
                _bump(pair, anchor - step * (k + s), step)

    # Repartition: the new right block is the chain of right-most boxes
    # holding min(bottoms), min(bottoms)+1, ..., min(tops).
    bot = min(seg_l.start, seg_r.start)
    top = min(seg_l.end, seg_r.end)
    chain: list[_WBox] = []
    taken: set[int] = set()
    value = bot
    while value <= top:
        candidates = [(idx, b) for idx, b in enumerate(pair)
                      if b.entry == value and idx not in taken]
        if not candidates:
            raise InternalInconsistencyError(
                f"repartition found no box holding {value}")
        idx, box = max(candidates, key=lambda ib: (ib[1].col, ib[0]))
        taken.add(idx)
        chain.append(box)
        value = value + 1
    rest = [b for idx, b in enumerate(pair) if idx not in taken]
    rest.sort(key=lambda b: -b.entry.twice)
    chain.sort(key=lambda b: -b.entry.twice)
    if not rest or not chain:
        raise InternalInconsistencyError("repartition emptied a block")
    blocks[i] = rest
    blocks[i + 1] = chain
    _entries_segment(rest)

    after = ([(b.col, b.entry) for b in blocks[i]],
             [(b.col, b.entry) for b in blocks[i + 1]])
    return before != after


@dataclass(frozen=True)
class NormalizeOutcome:
    """Either the formal zero tableau, or the normalized stack and invariants."""

    stack: Optional[ColumnStack]
    ann: Optional[AntiTableau]
    as_tab: Optional[SignedTableau]

    @property
    def is_zero(self) -> bool:
        return self.stack is None

    @classmethod
    def zero(cls) -> "NormalizeOutcome":
        return cls(None, None, None)


def assemble_antitableau(stack: ColumnStack) -> AntiTableau:
    """Read off the antitableau: column c holds, sorted decreasingly, the
    entries of all boxes in column c.  Raises if the result violates either
    antitableau condition (this is asserted, never assumed)."""
    by_col: dict[int, list[HalfInt]] = {}
    for blk in stack.blocks:
        for b in blk:
            by_col.setdefault(b.col, []).append(b.entry)
    n_cols = max(by_col) if by_col else 0
    if sorted(by_col) != list(range(1, n_cols + 1)):
        raise InternalInconsistencyError("columns are not contiguous")
    columns = []
    for c in range(1, n_cols + 1):
        columns.append(tuple(sorted(by_col[c], key=lambda v: -v.twice)))
    try:
        ann = AntiTableau(tuple(columns))
    except ValueError as exc:
        raise InternalInconsistencyError(f"assembled tableau invalid: {exc}") from exc
    shape = sorted((length for length, _ in stack.row_shapes), reverse=True)
    if list(ann.shape) != shape:
        raise InternalInconsistencyError(
            f"antitableau shape {ann.shape} differs from row shape {shape}")
    return ann


def trapa_normalize(stack: ColumnStack) -> NormalizeOutcome:
    """Run left-to-right rewriting sweeps to a fixpoint and test vanishing.

    Returns the zero outcome as soon as a pair rewrites to the formal zero
    tableau, or when the final conditions fail: every adjacent pair must
    satisfy seg(i+1) <= seg(i) componentwise and overlap >= sing.  Otherwise
    returns the rewritten stack together with its antitableau and signed
    tableau.  The sweep count is capped; hitting the cap raises, it never
    hangs or silently stops.
    """
    blocks = [[_WBox(b) for b in blk] for blk in stack.blocks]
    r = len(blocks)
    n = stack.sig.N
    cap = max(4, n * n)
    for _ in range(cap):
        changed = False
        for i in range(r - 1):
            result = _rewrite_pair(blocks, i)
            if result is None:
                return NormalizeOutcome.zero()
            changed = changed or result
        if not changed:
            break
    else:
        raise IterationCapExceeded(f"no fixpoint within {cap} sweeps")

    segs = [_entries_segment(blk) for blk in blocks]
    for i in range(r - 1):
        lo, hi = segs[i + 1], segs[i]
        if not (lo.start <= hi.start and lo.end <= hi.end):
            return NormalizeOutcome.zero()
        if _overlap(blocks[i], blocks[i + 1]) < hi.intersect(lo).length:
            return NormalizeOutcome.zero()

    out = ColumnStack(stack.sig, tuple(tuple(b.freeze() for b in blk) for blk in blocks),
                      stack.row_shapes)
    ann = assemble_antitableau(out)
    return NormalizeOutcome(out, ann, out.signed_tableau())


def as_pair_equal(a: tuple[AntiTableau, SignedTableau],
                  b: tuple[AntiTableau, SignedTableau]) -> bool:
    """Equality of (annihilator, asymptotic-support) invariant pairs.

    Representations with the same signature and infinitesimal character are
    isomorphic exactly when these pairs coincide; comparing across different
    signatures or entry multisets is a usage error, not False.
    """
    ann_a, as_a = a
    ann_b, as_b = b
    if as_a.sig != as_b.sig:
        raise ValueError("signature mismatch in invariant comparison")
    if ann_a.entry_multiset() != ann_b.entry_multiset():
        raise ValueError("entry multiset mismatch in invariant comparison")
    return ann_a == ann_b and as_a == as_b
