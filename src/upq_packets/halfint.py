"""Exact arithmetic in (1/2)Z and finite multisets of half-integers.

Every quantity that can be a strict half-integer (tableau entries,
infinitesimal-character coordinates, segment starts) is stored as its
doubled integer value, so all arithmetic and comparisons stay exact.
A segment is an integer-step interval [a, a+n-1], regarded as a
multiplicity-free multiset and held as the pair (doubled start a, length
n).  HalfInt prints one doubled value and builds the sweep's character
window; the JSON output writes the doubled ints themselves.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import ge, gt
from typing import Iterable


@dataclass(frozen=True)
class HalfInt:
    """One element of (1/2)Z, stored as twice its value: the form in which
    a doubled int is printed.  Arithmetic is done on the doubled ints
    themselves."""

    twice: int

    def __post_init__(self) -> None:
        if type(self.twice) is not int:
            raise ValueError(f"a half-integer holds a doubled int, not {self.twice!r}")

    @classmethod
    def whole(cls, k: int) -> "HalfInt":
        return cls(2 * k)

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _json_dumps(obj: object, indent: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for trees
    of dicts with string keys, lists, ints, bools, None and strings.  An
    indent sends json.dumps to its pure-Python encoder; this renderer keeps
    string escaping in C.  `indent` is the line break and leading spaces of
    obj's own line.  Any other type, floats included, raises TypeError.

    Dispatch is by exact type, most common first: a plain int, then a plain
    str, then the three constants, dict and list.  An int leaf inside a
    dict or list is rendered in place, without a recursive call, since
    canonical output is mostly small ints.  Each container joins its
    rendered children, so no list of all the output's pieces is held."""
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    if kind is dict:
        items = [f"{encode_basestring_ascii(k)}: "
                 f"{int.__repr__(v) if type(v) is int else _json_dumps(v, inner)}"
                 for k, v in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}" if items else "{}"
    if kind is list:
        items = [int.__repr__(v) if type(v) is int else _json_dumps(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(items)}{indent}]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@dataclass(frozen=True)
class HalfIntMultiset:
    """A finite multiset of half-integers.

    Canonical form: `twice` lists the doubled values largest first, each
    repeated by its multiplicity, matching the convention of listing entries
    largest first.
    """

    twice: tuple[int, ...]

    def __post_init__(self) -> None:
        if type(self.twice) is not tuple or not {int}.issuperset(map(type, self.twice)):
            raise ValueError(f"a multiset holds a tuple of doubled ints, not {self.twice!r}")
        if not all(map(ge, self.twice, self.twice[1:])):
            raise ValueError(f"doubled values {self.twice} are not listed largest first")

    @classmethod
    def from_values(cls, twice: Iterable[int]) -> "HalfIntMultiset":
        """The multiset of the given doubled values, in any order."""
        return cls(tuple(sorted(twice, reverse=True)))

    @classmethod
    def empty(cls) -> "HalfIntMultiset":
        return cls(())

    @property
    def size(self) -> int:
        return len(self.twice)

    @property
    def is_empty(self) -> bool:
        return not self.twice

    @property
    def is_multiplicity_free(self) -> bool:
        return all(map(gt, self.twice, self.twice[1:]))

    def union(self, other: "HalfIntMultiset") -> "HalfIntMultiset":
        return HalfIntMultiset(tuple(sorted(self.twice + other.twice, reverse=True)))

    def _merge(self, other: "HalfIntMultiset") -> tuple[list[int], list[int]]:
        # One pass over both descending tuples: (the values of self matched
        # in other, the unmatched rest of self), each largest first.
        a, b = self.twice, other.twice
        common: list[int] = []
        rest: list[int] = []
        j = 0
        for t in a:
            while j < len(b) and b[j] > t:
                j += 1
            if j < len(b) and b[j] == t:
                common.append(t)
                j += 1
            else:
                rest.append(t)
        return common, rest

    def intersection(self, other: "HalfIntMultiset") -> "HalfIntMultiset":
        return HalfIntMultiset(tuple(self._merge(other)[0]))

    def difference(self, other: "HalfIntMultiset") -> "HalfIntMultiset":
        return HalfIntMultiset(tuple(self._merge(other)[1]))

    def contains(self, other: "HalfIntMultiset") -> bool:
        # Both lists are sorted, so containment is being a subsequence;
        # `in` on the shared iterator consumes self up to each match.
        rest = iter(self.twice)
        return all(t in rest for t in other.twice)

    def is_segment(self) -> bool:
        """True iff this multiset is exactly a segment (consecutive, all mult 1)."""
        return all(a - b == 2 for a, b in zip(self.twice, self.twice[1:]))

    def __str__(self) -> str:
        parts = []
        for t, m in Counter(self.twice).items():
            parts.append(str(HalfInt(t)) if m == 1 else f"{HalfInt(t)}:{m}")
        return "{" + ",".join(parts) + "}"

    def to_json(self) -> list:
        return [{"twice": t, "mult": m} for t, m in Counter(self.twice).items()]


def _segment_values(segments: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The doubled values of the segments given as (doubled start, length)
    pairs, largest first: their multiset union."""
    return tuple(sorted([v for start, length in segments
                         for v in range(start, start + 2 * length, 2)], reverse=True))


def _segment_str(start: int, length: int) -> str:
    """The nonempty segment of this doubled start and length, printed as
    [first,last]."""
    return f"[{HalfInt(start)},{HalfInt(start + 2 * length - 2)}]"


def _count_segment_partitions(counts: Counter) -> int:
    """The number of multiset partitions into segments of the multiset
    holding each doubled value v counts[v] times.

    A segment steps by 1, so it never mixes the two parities of doubled
    values, and the count is the product of those of the two parities.
    Within one parity the values are read largest first.  The state is the
    parts still open, those that hold the value just read, grouped by
    their top value: parts with one top are interchangeable until they
    close, parts with different tops are not.  At value v with c = counts[v]
    copies, each group lets some of its parts continue down to v, at most
    c in all, and the other copies open one new group topped at v; the
    parts that do not continue close.  A gap (v not 1 below the value
    before) closes every part.  A partition fixes these choices value by
    value (how many parts of each top reach v), so each is counted once.
    The count of what follows depends only on the group sizes, so states
    with the same sizes are merged.  Each choice made is the start of some
    partition, so the work is at most one step per value for each partition
    the listing would produce.

    A multiset of s >= 1 values has at most 2^(s-1) segment partitions.
    The parts open above v number c', the copies of the value before, and
    groups of sizes k sum to c', so v has at most the product of the
    (k + 1), at most 2^c', choices; the first value of a run has one.  So
    the exponents add up to the copies of the values other than the last
    of each run, at most s - 1.
    """
    total = 1
    for parity in (0, 1):
        ways: dict[tuple[int, ...], int] = {(): 1}  # sorted group sizes -> count
        prev = None
        for v in sorted((v for v in counts if v % 2 == parity), reverse=True):
            if prev is not None and prev - v != 2:
                ways = {(): sum(ways.values())}
            c = counts[v]
            after: dict[tuple[int, ...], int] = {}
            for groups, count in ways.items():
                # (sizes of the groups that continue, parts taken so far)
                picks: list[tuple[tuple[int, ...], int]] = [((), 0)]
                for size in groups:
                    picks = [(kept + (j,) if j else kept, taken + j) for kept, taken in picks
                             for j in range(min(size, c - taken) + 1)]
                for kept, taken in picks:
                    key = tuple(sorted(kept + (c - taken,) if c > taken else kept))
                    after[key] = after.get(key, 0) + count
            ways, prev = after, v
        total *= sum(ways.values())
    return total


# The most segment partitions partition_into_segments lists.  They are
# counted before any is listed, and a larger multiset is refused.
_MAX_SEGMENT_PARTITIONS = 2 ** 14


def partition_into_segments(m: HalfIntMultiset) -> list[list[tuple[int, int]]]:
    """All multiset partitions of m whose parts are segments, each part
    given as its A-parameter summand (t, a): the segment
    [(t - a + 1)/2, (t + a - 1)/2] of length a.

    Each partition appears once (as a multiset of parts).  Parts are listed
    in the canonical summand order, largest (t, a) first, and the list of
    partitions is sorted lexicographically by its parts, so the output
    order is reproducible.  Both orders are plain tuple and list order.

    A multiset with more than _MAX_SEGMENT_PARTITIONS partitions raises
    ValueError, naming their count, before any partition is listed.  One
    of at most 15 values has at most 2^14 partitions and is not counted.
    """
    counts = Counter(m.twice)
    # Only a multiset whose bound 2^(size-1) passes the limit is counted.
    if 1 << m.size > 2 * _MAX_SEGMENT_PARTITIONS:
        count = _count_segment_partitions(counts)
        if count > _MAX_SEGMENT_PARTITIONS:
            raise ValueError(f"a multiset of {m.size} values has {count} partitions into "
                             f"segments, more than the limit of {_MAX_SEGMENT_PARTITIONS}")
    values = sorted(counts, reverse=True)
    found: list[list[tuple[int, int]]] = []
    acc: list[tuple[int, int]] = []  # the parts chosen so far, one per frame
    # A frame grows one part down from its top value: [i, left, top,
    # max_len, length], where values[i] == top, `left` counts the values
    # still to cover before the part is chosen, and `length` is how far the
    # part has grown, consuming counts as it goes.  The frames run on an
    # explicit stack, so the call depth does not grow with the multiset.
    stack: list[list[int]] = []

    def open_frame(i: int, left: int, last_top: int | None, last_len: int) -> None:
        # values[i:] holds every value still to be covered.
        if not left:
            found.append(sorted(acc, reverse=True))
            return
        while not counts[values[i]]:
            i += 1
        top = values[i]
        # Parts sharing a top value are consumed longest first; this makes
        # each multiset of parts arise along exactly one path.
        stack.append([i, left, top, last_len if last_top == top else left, 0])

    open_frame(0, m.size, None, 0)
    while stack:
        frame = stack[-1]
        i, left, top, max_len, length = frame
        if length:
            acc.pop()  # the part this frame chose last, now fully explored
        if length < max_len and counts[top - 2 * length]:
            # Lengthen the part by one value and explore the rest.
            counts[top - 2 * length] -= 1
            length += 1
            frame[4] = length
            acc.append((top - length + 1, length))
            open_frame(i, left - length, top, length)
        else:
            for k in range(length):
                counts[top - 2 * k] += 1
            stack.pop()

    found.sort()
    return found
