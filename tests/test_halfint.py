import itertools
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from upq_packets.halfint import (HalfInt, HalfIntMultiset, _count_segment_partitions,
                                partition_into_segments)

from test_properties import segment_multiset


def mset(*twices):
    return HalfIntMultiset.from_values(twices)


def test_halfint_prints_exact_values():
    assert str(HalfInt(3)) == "3/2" and str(HalfInt(4)) == "2" and str(HalfInt(-1)) == "-1/2"
    assert HalfInt.whole(-2) == HalfInt(-4)


def test_mset_algebra_examples():
    a, b = mset(1), mset(1)
    assert a.union(b) == mset(1, 1)
    assert a.intersection(b) == mset(1)
    assert a.difference(b).is_empty
    assert b.is_multiplicity_free

    a, b = mset(2, 0), mset(-2)
    assert a.intersection(b).is_empty
    assert a.union(b) == mset(2, 0, -2)

    a, b = mset(1, 1), HalfIntMultiset.empty()
    assert a.difference(b) == mset(1, 1)
    assert b.is_multiplicity_free and not a.is_multiplicity_free


def test_mset_algebra_identities():
    # Every operation against collections.Counter on the same pools.
    values = [-2, 0, 1, 3]
    pools = list(itertools.product(range(3), repeat=len(values)))[:40]

    def desc(counts):
        return tuple(sorted(counts.elements(), reverse=True))

    for ma in pools:
        for mb in pools[::3]:
            ca, cb = Counter(dict(zip(values, ma))), Counter(dict(zip(values, mb)))
            A, B = HalfIntMultiset(desc(ca)), HalfIntMultiset(desc(cb))
            assert A.union(B).twice == B.union(A).twice == desc(ca + cb)
            assert A.intersection(B).twice == B.intersection(A).twice == desc(ca & cb)
            assert A.difference(B).twice == desc(ca - cb)
            assert A.contains(B) == (cb - ca == Counter())
            assert A.size == sum(ma)
            assert A.is_multiplicity_free == (max(ma) <= 1)


@pytest.mark.parametrize("bad", [
    *(partial(HalfIntMultiset, m)
      for m in [(0, 2), (2, True), (HalfInt(2),), ((HalfInt(2), 1),), [2, 0]]),
    *(partial(HalfIntMultiset.from_values, m) for m in [[2, 1.5], [HalfInt(1)], [0, True]]),
    partial(HalfIntMultiset, (1.0,)), partial(HalfInt.whole, 0.5),
    partial(HalfInt, True), partial(HalfInt, 1.0),
])
def test_multiset_constructor_refuses_other_forms(bad):
    # A multiset that is unsorted, holds a bool, a HalfInt or the old
    # (HalfInt, multiplicity) pairs, or is a list; a multiset built from
    # values holding a float, a HalfInt or a bool, or holding a float
    # itself; a half-integer of half a float, or holding a bool or a
    # float.  All hold exact ints only.
    with pytest.raises(ValueError):
        bad()


def test_multiset_canonical_form_is_decreasing():
    m = mset(0, 4, 4, -2)
    assert m.twice == (4, 4, 0, -2)
    assert not m.is_multiplicity_free
    assert str(m) == "{2:2,0,-1}"
    assert m.to_json() == [{"twice": 4, "mult": 2}, {"twice": 0, "mult": 1},
                           {"twice": -2, "mult": 1}]


def test_partition_examples():
    # {1/2, -1/2}: the joined segment first, then the two singletons.
    # Parts are summands (t, a): the segment [(t - a + 1)/2, (t + a - 1)/2].
    parts = partition_into_segments(mset(1, -1))
    assert parts == [[(0, 2)], [(1, 1), (-1, 1)]]
    assert partition_into_segments(mset(0)) == [[(0, 1)]]
    # A doubled value can never sit inside one segment.
    assert partition_into_segments(mset(1, 1)) == [[(1, 1), (1, 1)]]


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def _brute_force_segment_partitions(m):
    items = list(range(m.size))
    values = m.twice
    seen = set()
    for part in _set_partitions(items):
        blocks = []
        ok = True
        for block in part:
            vals = sorted(values[i] for i in block)
            if any(vals[k + 1] - vals[k] != 2 for k in range(len(vals) - 1)):
                ok = False
                break
            blocks.append(tuple(vals))
        if ok:
            seen.add(tuple(sorted(blocks)))
    return seen


def test_partition_against_brute_force():
    cases = [
        mset(1, -1), mset(1, 1), mset(3, 1, 1, -1), mset(0, 2, 4, 4),
        mset(2, 0, 0, -2, -2, -4), mset(1, 1, 1), mset(5, 3, 1, -1, -3, -5),
    ]
    for m in cases:
        got = [[(t - a + 1, a) for t, a in parts]
               for parts in partition_into_segments(m)]
        # Every returned partition reassembles to m and parts are unique.
        reassembled = []
        for parts in got:
            assert segment_multiset(parts) == m
            reassembled.append(tuple(sorted(
                tuple(sorted(segment_multiset([s]).twice))
                for s in parts)))
        assert len(set(reassembled)) == len(got), "duplicate partitions"
        assert set(reassembled) == _brute_force_segment_partitions(m)


def _written_out_partitions(m):
    # partition_into_segments as first written: every step finds the
    # largest live value afresh, consumes and restores a whole part per
    # length, builds each part as a (doubled start, length) pair, and sorts
    # parts and partitions by keys of the pairs.  The partitions are read as
    # summands (t, a) at the end, the form partition_into_segments returns.
    results = []
    counts = Counter(m.twice)

    def rec(acc, last):
        live = [t for t, c in counts.items() if c > 0]
        if not live:
            results.append(sorted(acc, key=lambda s: (-(2 * s[0] + 2 * s[1] - 2), -s[1])))
            return
        top = max(live)
        max_len = last[1] if last is not None and last[0] == top else m.size
        length = 0
        while length < max_len:
            if counts.get(top - 2 * length, 0) <= 0:
                break
            length += 1
            for k in range(length):
                counts[top - 2 * k] -= 1
            rec(acc + [(top - 2 * (length - 1), length)], (top, length))
            for k in range(length):
                counts[top - 2 * k] += 1

    rec([], None)
    results.sort(key=lambda parts: [(2 * start + 2 * length - 2, length)
                                    for start, length in parts])
    return [[(start + length - 1, length) for start, length in parts] for parts in results]


def test_partition_equals_the_written_out_recursion_on_every_small_multiset():
    # Every multiset of size <= 7 over the doubled values -4..4, both
    # parities, each value at most three times: same list, same order.
    cases = 0
    for size in range(8):
        for twice in itertools.combinations_with_replacement(range(-4, 5), size):
            if size and max(Counter(twice).values()) > 3:
                continue
            m = HalfIntMultiset.from_values(twice)
            assert partition_into_segments(m) == _written_out_partitions(m), twice
            cases += 1
    assert cases == 9460


def test_segment_partitions_are_counted_exactly_on_every_small_multiset():
    # Every multiset of size <= 7 over the doubled values -4..4, both
    # parities and any multiplicity; never more than 2^(size-1).
    cases = 0
    for size in range(8):
        for twice in itertools.combinations_with_replacement(range(-4, 5), size):
            m = HalfIntMultiset.from_values(twice)
            count = _count_segment_partitions(Counter(twice))
            assert count == len(partition_into_segments(m)) <= max(1, 2 ** (size - 1))
            cases += 1
    assert cases == 11440


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(-6, 6), max_size=10))
def test_partition_equals_the_written_out_recursion_on_drawn_multisets(twice):
    m = HalfIntMultiset.from_values(twice)
    assert partition_into_segments(m) == _written_out_partitions(m)


def test_partition_determinism():
    m = mset(2, 0, 0, -2)
    assert partition_into_segments(m) == partition_into_segments(m)
