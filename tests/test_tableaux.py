import dataclasses
import hashlib
import itertools
import json
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from upq_packets import cohind, tableaux
from upq_packets.cohind import InductionDescriptor, ThetaData, segments_of, tableau_pair
from upq_packets.errors import InternalInconsistencyError, IterationCapExceeded
from upq_packets.halfint import HalfInt, HalfIntMultiset
from upq_packets.oracle import SweepReport, _check_two_block, good_parameters_in_window
from upq_packets.packets import AParameter, enumerate_D
from upq_packets.tableaux import (MINUS, PLUS, AntiTableau, ColumnStack,
                                  NormalizeOutcome,
                                  SignedTableau, _bump, _entries_segment, _idle, _overlap,
                                  _pair_segments, _rewrite_pair, _sing, _unit_shift, _WBox,
                                  as_pair_equal,
                                  assemble_antitableau, build_initial, trapa_normalize)
from upq_packets.weights import GroupSignature

from test_oracle import two_block_data
from test_properties import psis_sharing_a_weights_character, random_psis, segment_multiset


class Box(NamedTuple):
    # One box of a stack, its entry doubled: the reference form the
    # written-out sweeps below read and write.
    row: int
    col: int
    sign: int
    entry: int


def seg(lo_twice, hi_twice):
    # The segment [lo, hi] as a stack holds it: (doubled start, length).
    return lo_twice, (hi_twice - lo_twice) // 2 + 1


def build(p, q, blocks, segments):
    return build_initial(GroupSignature(p, q), blocks, segments)


def desc(p, q, blocks, values):
    return InductionDescriptor(ThetaData(GroupSignature(p, q), tuple(blocks)),
                               tuple(values))


def ann_columns(out):
    return list(map(list, out.invariants[0].columns))


def _cols(block):
    # A block's columns, top to bottom: what _idle and _overlap read.
    return tuple(b.col for b in block)


def _verdict(left, right, seg_l, seg_r):
    # The whole pair test on a pair of blocks with these columns and
    # segments: (verdict, overlap, sing), a pair that is apart being
    # already normal with counts 0, 0.
    facts = _pair_segments(seg_l, seg_r)
    if facts is None:
        return True, 0, 0
    idle, ov = _idle(left, right, *facts)
    return idle, ov, facts[0]


def _boxes(stack):
    # A stack's boxes, block by block, each top to bottom: box k of a block
    # whose segment tops at `top` holds top - 2k.
    rows, signs = iter(stack.rows), iter(stack.signs)  # flat, in block order
    return tuple(tuple(Box(next(rows), col, next(signs), start + 2 * (length - 1 - k))
                       for k, col in enumerate(cols))
                 for (start, length), cols in zip(stack.segments, stack.cols))


def _stack_of_boxes(sig, blocks, row_shapes):
    # The stack whose block i holds the boxes blocks[i], top to bottom, each
    # block holding a segment listed largest first.
    return ColumnStack(sig, row_shapes, tuple(_entries_segment(blk) for blk in blocks),
                       tuple(_cols(blk) for blk in blocks),
                       tuple(b.row for blk in blocks for b in blk),
                       tuple(b.sign for blk in blocks for b in blk))


def _pairs(desc):
    # A datum's segments as the stack takes them.
    return list(segments_of(desc))


def _heights(row_shapes):
    # The column heights the row shapes fix: column c + 1 holds one box of
    # each row longer than c.
    return tuple(sum(length > c for length, _ in row_shapes)
                 for c in range(max(row_shapes)[0]))


def _assembled(blocks, row_shapes):
    # assemble_antitableau on a stack given by its boxes.
    return assemble_antitableau([_entries_segment(blk) for blk in blocks],
                                [_cols(blk) for blk in blocks], _heights(row_shapes))


def test_build_single_block_u11():
    stack = build(1, 1, [(1, 1)], [seg(-1, 1)])
    assert sorted(stack.row_shapes) == [(1, MINUS), (1, PLUS)]
    boxes = _boxes(stack)[0]
    assert [(b.col, b.sign, b.entry) for b in boxes] == [
        (1, PLUS, 1), (1, MINUS, -1)]


def test_build_two_singleton_blocks_merge_into_one_row():
    stack = build(1, 1, [(1, 0), (0, 1)], [seg(1, 1), seg(1, 1)])
    assert stack.row_shapes == ((2, PLUS),)
    assert [(b.col, b.entry) for b in _boxes(stack)[1]] == [(2, 1)]


def test_build_mixed_then_minus():
    stack = build(1, 2, [(1, 1), (0, 1)], [seg(0, 2), seg(-2, -2)])
    assert sorted(stack.row_shapes) == [(1, MINUS), (2, PLUS)]
    assert [(b.col, b.entry) for b in _boxes(stack)[0]] == [(1, 2), (1, 0)]
    assert [(b.col, b.entry) for b in _boxes(stack)[1]] == [(2, -2)]


def test_build_rejects_empty_block():
    with pytest.raises(ValueError):
        build(1, 0, [(1, 0), (0, 0)], [seg(1, 1), (0, 0)])


def test_build_sign_counts_and_shape():
    stack = build(2, 3, [(1, 2), (1, 1)], [seg(0, 4), seg(-3, -1)])
    plus = sum(1 for blk in _boxes(stack) for b in blk if b.sign == PLUS)
    minus = sum(1 for blk in _boxes(stack) for b in blk if b.sign == MINUS)
    assert (plus, minus) == (2, 3)
    lengths = sorted((length for length, _ in stack.row_shapes), reverse=True)
    assert lengths == sorted(lengths, reverse=True)
    assert sum(lengths) == 5


def test_overlap_and_sing_examples():
    def overlap_and_sing(stack):
        left, right = _boxes(stack)
        return _overlap(_cols(left), _cols(right)), _sing(_entries_segment(left),
                                                         _entries_segment(right))

    stack = build(1, 1, [(1, 0), (0, 1)], [seg(1, 1), seg(1, 1)])
    assert overlap_and_sing(stack) == (1, 1)

    stack = build(2, 0, [(1, 0), (1, 0)], [seg(1, 1), seg(1, 1)])
    assert overlap_and_sing(stack) == (0, 1)

    stack = build(1, 1, [(1, 0), (0, 1)], [seg(1, 1), seg(-1, -1)])
    assert overlap_and_sing(stack)[1] == 0

    # Multi-box blocks: [-1/2,1/2] and [-3/2,-1/2] share one entry.
    stack = build(2, 2, [(1, 1), (1, 1)], [seg(-1, 1), seg(-3, -1)])
    assert overlap_and_sing(stack) == (2, 1)

    # [1,2] lies inside [0,3].
    stack = build(2, 4, [(2, 2), (0, 2)], [seg(0, 6), seg(2, 4)])
    assert overlap_and_sing(stack) == (2, 2)

    # [0,1] and [-1/2,1/2] are a half-integer apart: nothing is shared.
    stack = build(2, 2, [(1, 1), (1, 1)], [seg(0, 2), seg(-1, 1)])
    assert overlap_and_sing(stack) == (2, 0)


def test_normalize_u11_one_row():
    out = trapa_normalize(build(1, 1, [(1, 0), (0, 1)], [seg(1, 1), seg(1, 1)]))
    assert not out.is_zero
    assert ann_columns(out) == [[1], [1]]
    assert out.invariants[1].rows == ((2, PLUS),)


def test_normalize_u20_zero():
    out = trapa_normalize(build(2, 0, [(1, 0), (1, 0)], [seg(1, 1), seg(1, 1)]))
    assert out.is_zero


def test_normalize_single_block_trivial():
    out = trapa_normalize(build(1, 1, [(1, 1)], [seg(-1, 1)]))
    assert not out.is_zero
    assert ann_columns(out) == [[1, -1]]
    assert sorted(out.invariants[1].rows) == [(1, MINUS), (1, PLUS)]


def test_normalize_descent_case_with_shift():
    # nu_1 = [0,3], nu_2 = {2}: the right block's entry must sink to the
    # bottom of the left segment and the chain repartition regrows it.
    out = trapa_normalize(build(2, 3, [(2, 2), (0, 1)], [seg(0, 6), seg(4, 4)]))
    assert not out.is_zero
    assert ann_columns(out) == [[6, 4, 2, 0], [4]]
    assert sorted(out.invariants[1].rows) == [(1, MINUS), (1, MINUS), (1, PLUS), (2, PLUS)]


def test_normalize_ascent_case_with_shift():
    # Mirror image: nu_1 = {2} inside nu_2 = [0,3]; the left block's entry
    # is shifted up to the top of the right segment and lowered back.
    out = trapa_normalize(build(3, 2, [(1, 0), (2, 2)], [seg(4, 4), seg(0, 6)]))
    assert not out.is_zero
    assert ann_columns(out) == [[6, 4, 2, 0], [4]]
    assert sorted(out.invariants[1].rows) == [(1, MINUS), (1, PLUS), (1, PLUS), (2, PLUS)]


def test_normalize_preserves_entries_and_shape():
    stack = build(2, 2, [(1, 1), (1, 1)], [seg(-1, 1), seg(-3, -1)])
    out = trapa_normalize(stack)
    assert not out.is_zero
    def entries(s):
        return HalfIntMultiset.from_values(b.entry for blk in _boxes(s) for b in blk)

    assert entries(out.stack) == entries(stack)
    assert entries(stack) == HalfIntMultiset.from_values([1, -1, -1, -3])
    assert out.invariants[1] == SignedTableau(stack.sig, stack.row_shapes)


def test_normalize_idempotent():
    cases = [
        build(1, 1, [(1, 0), (0, 1)], [seg(1, 1), seg(1, 1)]),
        build(2, 3, [(2, 2), (0, 1)], [seg(0, 6), seg(4, 4)]),
        build(2, 1, [(2, 0), (0, 1)], [seg(0, 2), seg(2, 2)]),
    ]
    for stack in cases:
        out = trapa_normalize(stack)
        assert not out.is_zero
        again = trapa_normalize(out.stack)
        assert not again.is_zero
        assert as_pair_equal(again.invariants, out.invariants)


def test_as_pair_equal_row_interchange_and_errors():
    out_a = trapa_normalize(build(1, 1, [(1, 1)], [seg(-1, 1)]))
    out_b = trapa_normalize(build(1, 1, [(1, 1)], [seg(-1, 1)]))
    assert as_pair_equal(out_a.invariants, out_b.invariants)

    holo = trapa_normalize(build(1, 1, [(1, 0), (0, 1)], [seg(1, 1), seg(-1, -1)]))
    anti = trapa_normalize(build(1, 1, [(0, 1), (1, 0)], [seg(1, 1), seg(-1, -1)]))
    assert not as_pair_equal(holo.invariants, anti.invariants)

    other = trapa_normalize(build(2, 0, [(2, 0)], [seg(-1, 1)]))
    with pytest.raises(ValueError):
        as_pair_equal(holo.invariants, other.invariants)
    shifted = trapa_normalize(build(1, 1, [(1, 0), (0, 1)], [seg(3, 3), seg(1, 1)]))
    with pytest.raises(ValueError):
        as_pair_equal(holo.invariants, shifted.invariants)


def test_two_block_nonvanishing_criterion():
    checked = 0
    for dd in two_block_data(5):
        (p1, q1), (p2, q2) = dd.d.blocks
        s1, s2 = segments_of(dd)
        sing = segment_multiset([s1]).intersection(segment_multiset([s2])).size
        expected = min(p1, q2) + min(q1, p2) >= sing
        out = tableau_pair(dd)
        assert (not out.is_zero) == expected, (
            f"blocks {dd.d.blocks} values {dd.values}: nonzero should be "
            f"{expected}")
        checked += 1
    assert checked > 400


def test_nonzero_outcome_is_valid_antitableau():
    for dd in two_block_data(4):
        out = tableau_pair(dd)
        if out.is_zero:
            continue
        ann = out.invariants[0]
        assert ann.entries == segment_multiset(segments_of(dd)).twice


def test_assemble_antitableau_refuses_a_repeated_column_entry():
    def stack(top, bottom):
        # Two one-box blocks stacked in column 1 of U(2,0).
        return _stack_of_boxes(GroupSignature(2, 0),
                               ((Box(1, 1, PLUS, top),), (Box(2, 1, PLUS, bottom),)),
                               ((1, PLUS), (1, PLUS)))

    # Column 1 arrives smallest first, so it is sorted; the result equals
    # the dict-and-sort assembly.
    good, bad = stack(0, 2), stack(0, 0)
    ann = _assembled(_boxes(good), good.row_shapes)
    assert ann.columns == ((2, 0),)
    assert ann == _dict_assembly(_boxes(good), good.row_shapes)
    for assemble in (_assembled, _dict_assembly):
        with pytest.raises(InternalInconsistencyError):
            assemble(_boxes(bad), bad.row_shapes)


@pytest.mark.parametrize("cols, longest", [((1, 3), 3), ((1, 2), 1), ((0, 1), 1)])
def test_assemble_antitableau_refuses_columns_that_are_not_contiguous(cols, longest):
    # An empty column, or a box outside columns 1 to the longest row.
    blocks = [[Box(0, c, PLUS, -2 * k)] for k, c in enumerate(cols)]
    for assemble in (_assembled, _dict_assembly):
        with pytest.raises(InternalInconsistencyError, match="not contiguous|shape"):
            assemble(blocks, ((longest, PLUS), (1, PLUS)))


def test_assemble_antitableau_refuses_column_heights_that_are_not_the_row_shape():
    # One box in each of columns 1 and 2: the columns are contiguous and
    # form an antitableau of shape (2), but the rows are (2, +) and (1, +),
    # so column 1 should hold two boxes.
    blocks = [[Box(0, 1, PLUS, 2)], [Box(0, 2, MINUS, 0)]]
    for assemble in (_assembled, _dict_assembly):
        with pytest.raises(InternalInconsistencyError, match="shape"):
            assemble(blocks, ((2, PLUS), (1, PLUS)))


def test_a_rewrite_that_never_settles_raises_at_the_sweep_cap(monkeypatch):
    # U(1,1) with {0} over {1}: the right segment lies above the left one,
    # so the pair is not already normal.  A rewrite that moves nothing
    # leaves it so in every sweep, and the fifth sweep would pass the cap
    # max(4, N^2) = 4.
    stack = build(1, 1, [(1, 0), (0, 1)], [seg(0, 0), seg(2, 2)])
    assert _verdict(*map(_cols, _boxes(stack)), (0, 1), (2, 1))[0] is False
    monkeypatch.setattr(tableaux, "_rewrite_pair",
                        lambda segs, cols, rows, signs, i, ov, sg: None)
    with pytest.raises(IterationCapExceeded, match="within 4 sweeps"):
        trapa_normalize(stack)


def test_a_final_pair_that_is_not_componentwise_decreasing_raises(monkeypatch):
    # U(1,3) with {-5/2}, {-3/2}, [-3/2,-1/2]: pair 1 moves, to [-3/2,-1/2]
    # over {-3/2}, and a _pair_segments that calls every pair whose right
    # segment starts above its left one apart lets pair 0 end as {-5/2}
    # over [-3/2,-1/2].  trapa_normalize raises rather than returning that
    # stack.
    stack = build(1, 3, [(0, 1), (0, 1), (1, 1)], [seg(-5, -5), seg(-3, -3), seg(-3, -1)])
    real = _pair_segments
    monkeypatch.setattr(tableaux, "_pair_segments", lambda seg_l, seg_r:
                        None if seg_r[0] > seg_l[0] else real(seg_l, seg_r))
    with pytest.raises(InternalInconsistencyError, match="componentwise"):
        trapa_normalize(stack)


@pytest.mark.parametrize("top, bottom, shown", [
    (1, 3, "['1/2', '3/2']"),  # a segment, listed smallest first
    (5, 1, "['5/2', '1/2']"),  # largest first, but 2 apart
])
def test_a_block_that_is_not_a_segment_listed_largest_first_is_refused(top, bottom, shown):
    # A rewritten block of working boxes, `top` over `bottom` (entries
    # doubled), that holds no segment largest first is an internal
    # inconsistency, shown in half-integers.
    block = [_WBox(0, 1, PLUS, top), _WBox(1, 1, MINUS, bottom)]
    with pytest.raises(InternalInconsistencyError) as info:
        _entries_segment(block)
    assert shown in str(info.value)
    assert "twice" not in str(info.value)


def _small_stacks(max_n=6, window=2):
    """Every two- and three-block stack up to N = max_n, over every sign
    split of every block and every doubled segment start in
    [-2 * window - 1, 2 * window + 1] of the parity a datum at that N has."""
    for n in range(2, max_n + 1):
        starts = range(-2 * window - (n + 1) % 2, 2 * window + 2, 2)
        for r in (2, 3):
            for sizes in itertools.product(range(1, n), repeat=r):
                if sum(sizes) != n:
                    continue
                for signs in itertools.product(*[[(pk, a - pk) for pk in range(a + 1)]
                                                 for a in sizes]):
                    sig = GroupSignature(sum(pk for pk, _ in signs),
                                         sum(qk for _, qk in signs))
                    for firsts in itertools.product(starts, repeat=r):
                        yield build_initial(sig, list(signs), list(zip(firsts, sizes)))


def _full_rewrite_pair(blocks, i):
    # Trapa's pair rewrite spelled out with no shortcut: the zero test, the
    # descent or ascent shift restored by bump steps, and the repartition
    # over the segments the pair held before the shift.
    left, right = blocks[i], blocks[i + 1]
    seg_l, seg_r = _entries_segment(left), _entries_segment(right)
    (start_l, ai), (start_r, aj) = seg_l, seg_r
    end_l, end_r = start_l + 2 * ai - 2, start_r + 2 * aj - 2
    ov, sg = _overlap(_cols(left), _cols(right)), _sing(seg_l, seg_r)
    if ov < sg:
        return None
    before = [[(b.col, b.entry) for b in blk] for blk in (left, right)]
    pair = left + right
    m = 0
    if ov == sg == aj:
        moved, step, anchor, m = right, 2, end_r, _unit_shift(start_r - start_l)
    elif ov == sg == ai:
        moved, step, anchor, m = left, -2, start_l, _unit_shift(end_r - end_l)
    if m > 0:
        for b in moved:
            b.entry -= step * m
        at = {}
        for b in pair:
            at.setdefault(b.entry, []).append(b)
        for s in range(m - 1, -1, -1):
            for k in range(len(moved)):
                _bump(at, anchor - step * (k + s), step)
    rightmost = {}
    for b in pair:
        if b.entry not in rightmost or b.col >= rightmost[b.entry].col:
            rightmost[b.entry] = b
    # The chain of right-most boxes holding min(tops), ..., min(bottoms),
    # of two in one column the later in the pair; the rest largest first.
    chain = [rightmost[v] for v in range(min(end_l, end_r), min(start_l, start_r) - 1, -2)]
    rest = sorted((b for b in pair if b not in chain), key=lambda b: -b.entry)
    blocks[i], blocks[i + 1] = rest, chain
    _entries_segment(rest)
    return before != [[(b.col, b.entry) for b in blk] for blk in (rest, chain)]


def _working(blocks):
    # A working copy of the blocks, one mutable box per box.
    return [[_WBox(*b) for b in blk] for blk in blocks]


def _frozen(blocks):
    # The boxes a working copy holds.
    return [[Box(b.row, b.col, b.sign, b.entry) for b in blk] for blk in blocks]


def _outcome_of(rewrite, blocks, i):
    # What a pair rewrite returns on a working copy of the blocks, and the
    # blocks it leaves.
    work = _working(blocks)
    result = rewrite(work, i)
    return result, _frozen(work)


def _rewritten(blocks, segs, i):
    # The blocks and segments _rewrite_pair leaves, given the counts the
    # pair test measured, on the blocks' segments, columns and flat rows and signs;
    # box k of a block whose segment tops at `top` holds top - 2k.
    segs = list(segs)
    cols = [_cols(blk) for blk in blocks]
    rows = [b.row for blk in blocks for b in blk]
    signs = [b.sign for blk in blocks for b in blk]
    _, ov, sg = _verdict(cols[i], cols[i + 1], segs[i], segs[i + 1])
    _rewrite_pair(segs, cols, rows, signs, i, ov, sg)
    assert len(rows) == len(signs) == sum(length for _, length in segs)
    rows, signs = iter(rows), iter(signs)
    return [[Box(next(rows), col, next(signs), start + 2 * (length - 1 - k))
             for k, col in enumerate(block_cols)]
            for (start, length), block_cols in zip(segs, cols)], segs


def test_a_pair_whose_right_segment_lies_below_its_left_is_left_alone():
    # On every pair of every small stack, the pair test's verdict is exact: zero
    # (None) when the full rewrite gives zero, already normal (True) when
    # it returns False and leaves the blocks as they were, and False when
    # it moves the pair.  On a pair that moves, _rewrite_pair leaves the
    # blocks the full rewrite leaves, and their segments.  A stack whose
    # segments each lie wholly below the one before is returned as it is.
    # `verdicts` counts the pairs by verdict, the wholly-below ones apart.
    verdicts = {None: 0, True: 0, False: 0, "below": 0}
    stacks = wholly_disjoint = 0
    for stack in _small_stacks():
        blocks = _boxes(stack)
        segs = [_entries_segment(blk) for blk in blocks]
        below = 0
        for i in range(len(blocks) - 1):
            expected = _outcome_of(_full_rewrite_pair, blocks, i)
            idle = _verdict(_cols(blocks[i]), _cols(blocks[i + 1]), segs[i], segs[i + 1])[0]
            assert idle is {None: None, False: True, True: False}[expected[0]], (blocks, i)
            if idle:
                assert expected[1] == list(map(list, blocks)), (blocks, i)
            elif idle is False:
                assert _rewritten(blocks, segs, i) == (
                    expected[1], [_entries_segment(blk) for blk in expected[1]]), (blocks, i)
            (start_l, _), (start_r, aj) = segs[i], segs[i + 1]
            if start_r + 2 * aj - 2 < start_l:
                assert _pair_segments(segs[i], segs[i + 1]) is None, (blocks, i)
                below += 1
                verdicts["below"] += 1
            else:
                verdicts[idle] += 1
        if below == len(blocks) - 1:
            out = trapa_normalize(stack)
            assert not out.is_zero and out.stack is stack, blocks
            wholly_disjoint += 1
        stacks += 1
    assert (stacks, wholly_disjoint) == (76386, 3297)
    assert verdicts == {None: 18612, True: 18105, False: 66760, "below": 44331}


@pytest.mark.parametrize("col, idle", [(2, True), (3, False)])
def test_a_shared_value_moves_only_when_its_left_box_lies_further_right(col, idle):
    # Left block 2, 1 in columns 1, col; right block 1, 0 in columns 2, 3
    # (entries doubled).  Overlap 2 >= sing 1 and seg_r lies below seg_l.
    # The chain takes the right-most box holding the shared value 1, the
    # later one on a tie: the right block's in column 2 when col = 2, so
    # the pair is already normal; the left block's when col = 3, so the
    # two boxes trade blocks.
    blocks = ((Box(0, 1, PLUS, 4), Box(1, col, MINUS, 2)),
              (Box(2, 2, PLUS, 2), Box(3, 4, MINUS, 0)))
    segs = [(2, 2), (0, 2)]
    assert list(map(_entries_segment, blocks)) == segs
    assert _verdict(*map(_cols, blocks), *segs)[0] is idle
    moved, expected = _outcome_of(_full_rewrite_pair, blocks, 0)
    assert moved is not idle
    if idle:
        assert expected == list(map(list, blocks))
    else:
        assert _rewritten(blocks, segs, 0) == (expected, list(map(_entries_segment, expected)))


# Packets whose members need many bump steps, at N = 8 and 9.
LONG_REWRITES = [
    ((4, 5), [(-2, 1), (-2, 1), (-1, 4), (-1, 2), (2, 1)]),
    ((5, 4), [(0, 1), (0, 5), (1, 2), (0, 1)]),
    ((4, 4), [(1, 1), (1, 3), (-3, 1), (1, 1), (3, 1), (1, 1)]),
    ((6, 3), [(-2, 5), (0, 1), (2, 1), (-2, 1), (-2, 1)]),
    ((5, 4), [(2, 3), (2, 5), (2, 1)]),
]


PINNED_COUNT = 3741
PINNED_SHA256 = "8afd95ba0d225d800f463c7714f5c7f340cbcb4bc9d18df0325c91ccc134822a"


def _pinned_descriptors():
    yield from two_block_data(6)
    psis = [psi for n in range(1, 7) for p in range(n + 1)
            for psi in good_parameters_in_window(GroupSignature(p, n - p), HalfInt.whole(1))]
    psis += [AParameter.from_summands(GroupSignature(*sig), summands)
             for sig, summands in LONG_REWRITES]
    for psi in psis:
        for d in enumerate_D(psi):
            yield InductionDescriptor(d, psi._values)


def test_rewrite_engine_outputs_are_pinned():
    # The full tableau_pair output, rewritten stack included, for every
    # two-block datum up to N = 6, every member of every packet whose
    # character lies in [-1, 1] up to N = 6, and the packets above.  The
    # digest was recorded before the engine moved to doubled ints.
    digest = hashlib.sha256()
    count = 0
    for desc in _pinned_descriptors():
        out = tableau_pair(desc)
        record = {"descriptor": desc.to_json(), "zero": out.is_zero}
        if not out.is_zero:
            record.update({"stack": out.stack.to_json(), "ann": out.invariants[0].to_json(),
                           "as": out.invariants[1].to_json()})
        digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (PINNED_COUNT, PINNED_SHA256)


def _written_out_build_initial(sig, block_signs, segments):
    # build_initial as first written: every stage sorts all rows afresh,
    # longest first, then by row id, and scans every one of them.
    rows = []  # [row id, length, first sign, last sign]
    blocks = []
    for (pk, qk), (start, _) in zip(block_signs, segments):
        placed = []
        budget = {PLUS: pk, MINUS: qk}
        for row in sorted(rows, key=lambda r: (-r[1], r[0])):
            forced = -row[3]
            if budget[forced] > 0:
                budget[forced] -= 1
                row[1] += 1
                row[3] = forced
                placed.append((row[0], row[1], forced))
        for sign in (PLUS, MINUS):
            for _ in range(budget[sign]):
                placed.append((len(rows), 1, sign))
                rows.append([len(rows), 1, sign, sign])
        top = start + 2 * len(placed)
        blocks.append(tuple(Box(rid, col, sign, top - 2 * k)
                            for k, (rid, col, sign) in enumerate(placed, 1)))
    return _stack_of_boxes(sig, tuple(blocks), tuple((row[1], row[2]) for row in rows))


def _block_sequences(n):
    # Every sequence of blocks (p_k, q_k) with p_k + q_k >= 1 summing to n.
    if n == 0:
        yield ()
        return
    for a in range(1, n + 1):
        for rest in _block_sequences(n - a):
            for pk in range(a + 1):
                yield ((pk, a - pk), *rest)


def _check_build_initial(block_signs):
    sig = GroupSignature(sum(pk for pk, _ in block_signs), sum(qk for _, qk in block_signs))
    segments = [(3 - 4 * k, pk + qk) for k, (pk, qk) in enumerate(block_signs)]
    assert (build_initial(sig, list(block_signs), segments)
            == _written_out_build_initial(sig, block_signs, segments)), block_signs


def test_build_initial_places_every_box_as_a_full_sort_at_every_stage_would():
    sequences = 0
    for n in range(1, 8):
        for block_signs in _block_sequences(n):
            _check_build_initial(block_signs)
            sequences += 1
    assert sequences == 4615  # 2 + 7 + 24 + 82 + 280 + 956 + 3264


@st.composite
def block_sequences(draw):
    blocks, left = [], draw(st.integers(1, 10))
    while left:
        a = draw(st.integers(1, left))
        pk = draw(st.integers(0, a))
        blocks.append((pk, a - pk))
        left -= a
    return tuple(blocks)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(block_sequences())
def test_build_initial_matches_a_full_sort_on_drawn_blocks_up_to_n_10(block_signs):
    _check_build_initial(block_signs)


def _dict_assembly(blocks, row_shapes):
    # assemble_antitableau spelled out: group the entries by column in a
    # dict, require the columns to be 1, ..., k, sort each column largest
    # first, and check the shape.
    by_col = {}
    for blk in blocks:
        for b in blk:
            by_col.setdefault(b.col, []).append(b.entry)
    if sorted(by_col) != list(range(1, len(by_col) + 1)):
        raise InternalInconsistencyError("columns are not contiguous")
    try:
        ann = AntiTableau(tuple(tuple(sorted(by_col[c], reverse=True))
                                for c in range(1, len(by_col) + 1)))
    except ValueError as exc:
        raise InternalInconsistencyError(str(exc)) from exc
    if list(ann.shape) != sorted((length for length, _ in row_shapes), reverse=True):
        raise InternalInconsistencyError("shape differs from the row shape")
    return ann


def _written_out_normalize(stack):
    # trapa_normalize spelled out with no shortcut: sweep a working copy of
    # every stack with the full pair rewrite, freeze it afresh and assemble
    # its antitableau by columns.  Also returns whether any pair moved.
    blocks = _working(_boxes(stack))
    moved = False
    for _ in range(max(4, stack.sig.N ** 2)):
        changed = False
        for i in range(len(blocks) - 1):
            result = _full_rewrite_pair(blocks, i)
            if result is None:
                return NormalizeOutcome(None, None), moved
            changed = changed or result
        if not changed:
            break
        moved = True
    segs = [_entries_segment(blk) for blk in blocks]
    for (hi_start, hi_len), (lo_start, lo_len) in zip(segs, segs[1:]):
        if not (lo_start <= hi_start and lo_start + 2 * lo_len <= hi_start + 2 * hi_len):
            return NormalizeOutcome(None, None), moved
    ann = _dict_assembly(blocks, stack.row_shapes)
    out = _stack_of_boxes(stack.sig, _frozen(blocks), stack.row_shapes)
    return NormalizeOutcome(out, (ann, SignedTableau(out.sig, out.row_shapes))), moved


def _check_against_the_written_out_sweep(stack):
    # trapa_normalize on a stack equals the written-out sweep; the stack
    # comes back itself exactly when no pair moved.  Returns the kind.
    out = trapa_normalize(stack)
    expected, moved = _written_out_normalize(stack)
    assert out.is_zero == expected.is_zero
    assert (out.stack, out.invariants) == (expected.stack, expected.invariants)
    if out.is_zero:
        return "zero"
    assert (out.stack is stack) == (not moved)
    return "moved" if moved else "unmoved"


def test_normalize_equals_copy_and_sweep_and_returns_an_unmoved_stack_itself():
    # On every pinned descriptor: the outcome equals the written-out
    # copy-and-sweep, its antitableau included (so the list assembly equals
    # the dict-and-sort one there), and the returned stack is the input
    # object exactly when no pair moved (then the refrozen copy equals it
    # too).  A returned stack normalizes to itself.
    kinds = {"zero": 0, "below": 0, "unmoved": 0, "moved": 0}
    for desc in _pinned_descriptors():
        stack = build_initial(desc.d.sig, list(desc.d.blocks), _pairs(desc))
        out = trapa_normalize(stack)
        expected, moved = _written_out_normalize(stack)
        assert out == expected, desc
        if out.is_zero:
            kinds["zero"] += 1
            continue
        assert (out.stack is stack) == (not moved), desc
        assert trapa_normalize(out.stack).stack is out.stack, desc
        if moved:
            kinds["moved"] += 1
            continue
        assert expected.stack == stack
        segs = stack.segments
        below = all(lo_start + 2 * lo_len - 2 < hi_start
                    for (hi_start, _), (lo_start, lo_len) in zip(segs, segs[1:]))
        kinds["below" if below else "unmoved"] += 1
    assert kinds == {"zero": 2183, "below": 657, "unmoved": 654, "moved": 247}


def test_normalize_equals_the_written_out_sweep_on_every_member_up_to_n_6():
    # Every member stack of every packet whose character lies in [-2, 2],
    # up to N = 6: the same zero or nonzero answer, the same stack and the
    # same invariant pair as the written-out sweep, and the input stack
    # itself back exactly when no pair moved.
    kinds = {"zero": 0, "unmoved": 0, "moved": 0}
    for n in range(1, 7):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            for psi in good_parameters_in_window(sig, HalfInt.whole(2)):
                segments = [(t - a + 1, a) for t, a in psi.summands]
                for d in enumerate_D(psi):
                    stack = build_initial(sig, d.blocks, segments)
                    kinds[_check_against_the_written_out_sweep(stack)] += 1
    assert kinds == {"zero": 18084, "unmoved": 7082, "moved": 605}


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.one_of(random_psis(max_n=10), psis_sharing_a_weights_character(max_n=10)))
def test_normalize_equals_the_written_out_sweep_on_drawn_psi_up_to_n_10(psi):
    # Every member stack of a drawn packet at N = 7..10, the sizes the
    # large packet dumps run.
    segments = [(t - a + 1, a) for t, a in psi.summands]
    for d in enumerate_D(psi):
        _check_against_the_written_out_sweep(build_initial(psi.sig, d.blocks, segments))


@pytest.mark.parametrize("p, q, blocks, starts, kind, verdicts", [
    # U(1,2): {1/2}, {-3/2}, {-1/2}.  Pair 0 is already normal (its right
    # segment lies wholly below), pair 1 is the first to move.
    (1, 2, [(0, 1), (0, 1), (1, 0)], [1, -3, -1], "moved", (True, False)),
    # U(0,3): {1/2}, {-3/2}, {3/2}.  Pair 1 moves, and in the next sweep
    # pair 0 does.
    (0, 3, [(0, 1), (0, 1), (0, 1)], [1, -3, 3], "moved", (True, False)),
    # U(2,1): {1/2}, {-1/2}, {-1/2}.  Pair 0 is already normal; pair 1
    # shares -1/2 with overlap 0, so the stack is zero there.
    (2, 1, [(0, 1), (1, 0), (1, 0)], [1, -1, -1], "zero", (True, None)),
])
def test_a_pair_past_the_first_decides_the_stack(p, q, blocks, starts, kind, verdicts):
    segments = [(s, 1) for s in starts]
    read = _boxes(build(p, q, blocks, segments))
    segs, cols = [_entries_segment(blk) for blk in read], [_cols(blk) for blk in read]
    assert tuple(_verdict(cols[i], cols[i + 1], segs[i], segs[i + 1])[0]
                 for i in range(2)) == verdicts
    assert _check_against_the_written_out_sweep(build(p, q, blocks, segments)) == kind


def test_a_stack_is_frozen_and_holds_tuples():
    # A placed stack, one that normalizes to itself, one rewritten from it
    # and one built from boxes: no field can be assigned, the columns,
    # rows and signs are tuples, and each segment is a (doubled start,
    # length) pair of ints.
    placed = build(1, 2, [(0, 1), (0, 1), (1, 0)], [(s, 1) for s in (1, -3, -1)])
    moved = trapa_normalize(placed).stack
    unmoved = build(1, 1, [(1, 0), (0, 1)], [(1, 1), (-1, 1)])
    assert moved != placed and trapa_normalize(unmoved).stack is unmoved
    given = _stack_of_boxes(moved.sig, _boxes(moved), moved.row_shapes)
    assert given == moved
    names = ["sig", "row_shapes", "segments", "cols", "rows", "signs"]
    assert [f.name for f in dataclasses.fields(ColumnStack)] == names
    for stack in (placed, moved, unmoved, given):
        assert all(type(getattr(stack, name)) is tuple for name in names[1:])
        assert all(type(col) is tuple for col in stack.cols)
        assert all(type(pair) is tuple and list(map(type, pair)) == [int, int]
                   for pair in stack.segments)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(stack, name, getattr(stack, name))


def test_a_member_stack_holds_the_segments_its_packet_keeps():
    # range_class's memo keeps a packet's segments once, as (doubled start,
    # length) pairs of ints, and each member's stack holds that tuple
    # itself unless the rewriting moved it: no member converts them.
    kinds = {"unmoved": 0, "moved": 0}
    for sig, summands in [*LONG_REWRITES, ((2, 2), [(3, 1), (1, 1), (-1, 1), (-3, 1)])]:
        psi = AParameter.from_summands(GroupSignature(*sig), summands)
        for d in enumerate_D(psi):
            desc = InductionDescriptor(d, psi._values)
            segs = cohind._range_entry(desc)[1]
            assert all(type(pair) is tuple and list(map(type, pair)) == [int, int]
                       for pair in segs)
            out = tableau_pair(desc)
            if out.is_zero:
                continue
            unmoved = out.stack == build_initial(psi.sig, d.blocks, segs)
            assert (out.stack.segments is segs) == unmoved, desc
            kinds["unmoved" if unmoved else "moved"] += 1
    assert kinds == {"unmoved": 6, "moved": 33}


def test_normalizing_a_stack_that_moves_leaves_it_as_built():
    # On every pinned descriptor whose stack moves, the input stack still
    # equals, and hashes as, a fresh build of the same data.
    moved = 0
    for desc in _pinned_descriptors():
        args = (desc.d.sig, list(desc.d.blocks), _pairs(desc))
        stack = build_initial(*args)
        out = trapa_normalize(stack)
        if out.is_zero or out.stack is stack:
            continue
        fresh = build_initial(*args)
        assert stack == fresh and hash(stack) == hash(fresh), desc
        assert out.stack != stack, desc
        moved += 1
    assert moved == 247


def _sign_pattern_cases():
    # (sig, blocks, segments) of every datum of D(psi) for each psi whose
    # character lies in [-2, 2] up to N = 6, then of the sweep's two-block
    # share up to N = 6.
    for n in range(1, 7):
        for p in range(n + 1):
            sig = GroupSignature(p, n - p)
            for psi in good_parameters_in_window(sig, HalfInt.whole(2)):
                segments = [(t - a + 1, a) for t, a in psi.summands]
                for d in enumerate_D(psi):
                    yield sig, d.blocks, segments
    for desc in two_block_data(6):
        yield desc.d.sig, desc.d.blocks, _pairs(desc)


def test_the_sign_pattern_memos_give_what_a_fresh_placement_gives():
    # build_initial reads its boxes from the placement memo, and
    # trapa_normalize and _placed_invariants read the signed tableau and
    # the column heights from the row-shape memo.  On every case, hit or
    # miss, the stack equals one built from a fresh _place, the signed
    # tableau equals a fresh SignedTableau of the row shapes, and the
    # heights are the conjugate of the row lengths.
    cases = 0
    for sig, blocks, segments in _sign_pattern_cases():
        row_shapes, cols, rows, signs = tableaux._place(sig, blocks)
        fresh = ColumnStack(sig, row_shapes, tuple(segments), tuple(cols), tuple(rows),
                            tuple(signs))
        assert build_initial(sig, blocks, segments) == fresh, (sig, blocks)
        as_tab, heights = tableaux._tableau_shape(sig, row_shapes)
        assert as_tab == SignedTableau(sig, row_shapes), (sig, blocks)
        assert heights == _heights(row_shapes), (sig, blocks)
        cases += 1
    assert cases == 18084 + 7082 + 605 + 1130
    # Both memos were read on hits and on misses, and the placement memo
    # also evicted.
    place, shape = tableaux._placement.cache_info(), tableaux._tableau_shape.cache_info()
    assert place.hits > place.misses > 0 and place.currsize == place.maxsize
    assert shape.hits > shape.misses > 0


def test_build_initial_takes_block_signs_given_as_lists():
    # The placement memo is keyed by a tuple of pairs, so lists place too.
    sig, segs = GroupSignature(2, 1), [(1, 1), (-1, 2)]
    assert (build_initial(sig, [[1, 0], [1, 1]], segs)
            == build_initial(sig, ((1, 0), (1, 1)), segs))


def test_two_block_data_pass_the_sweep_checks():
    # The nonvanishing criterion, the idempotence of normalizing a
    # normalized stack and the absorb-adjacent check on every two-block
    # datum up to N = 6.
    report = SweepReport({})
    for desc in two_block_data(6):
        _check_two_block(desc, report)
    assert report.property_failures == [] and report.instances_checked == 1130
