"""Classical pattern containment plus the two anchored 3412 variants.

A pattern spec is a short permutation (length at most 4) whose letters may
carry anchors pinning them to extremes of the host: the host's largest
value, its smallest value, its first position, or its last position. The
two anchored specs used by the shallowness theory are

* ``VALUE_ANCHORED_3412`` (text name ``3n12``): 3412 where the "4" must be
  the host's maximum and the "1" must be the value 1;
* ``POSITION_ANCHORED_3412`` (text name ``u3412``): 3412 where the "3"
  must sit in the first position and the "2" in the last.

``avoids`` decides the eight specs the library ships in one linear pass
each: 123 and 321 by a running-minimum scan, 132, 231, 213 and 312 by
Knuth's stack-sorting scan (231-avoiders are the stack-sortable
permutations), and ``3n12`` and ``u3412`` from their anchors. Each such
kernel returns the values of the one occurrence its scan meets, or None,
so a caller can tell which entries that occurrence uses. Every other
spec (classical 3412, patterns of length at most 2, other anchors) goes to
``find_occurrence``, a backtracking search over index tuples with early
pruning. That search is also the witness API and the oracle the kernels
are tested against. Witnesses are the lexicographically least index
tuples, so outputs are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import neg
from typing import Callable, Iterable, Optional

from .perms import Perm, parse_permutation, validate_permutation


# The values that make up one occurrence, in no fixed order, or None.
_Values = Optional[tuple[int, ...]]


class Anchor(Enum):
    VALUE_MAX = "value_max"
    VALUE_MIN = "value_min"
    POS_FIRST = "pos_first"
    POS_LAST = "pos_last"


@dataclass(frozen=True)
class PatternSpec:
    """A classical pattern with optional per-letter anchors."""

    pattern: Perm
    anchors: tuple[Optional[Anchor], ...] = field(default=())

    def __post_init__(self) -> None:
        validate_permutation(self.pattern)
        if len(self.pattern) > 4:
            raise ValueError("patterns longer than 4 are not supported")
        anchors = self.anchors
        if not anchors:
            anchors = (None,) * len(self.pattern)
            object.__setattr__(self, "anchors", anchors)
        if len(anchors) != len(self.pattern):
            raise ValueError("one anchor slot per pattern letter")
        for kind in Anchor:
            if sum(1 for a in anchors if a is kind) > 1:
                raise ValueError(f"anchor {kind.value} used more than once")
        for i, a in enumerate(anchors):
            if a is Anchor.POS_FIRST and i != 0:
                raise ValueError("pos_first anchor only on the first letter")
            if a is Anchor.POS_LAST and i != len(anchors) - 1:
                raise ValueError("pos_last anchor only on the last letter")

    @cached_property
    def _kernel(self) -> Optional[Callable[[Perm], _Values]]:
        """The linear-time search of this spec, if it has one: the values of
        one occurrence in a host, or None. Kept on the instance, so avoids
        need not hash the spec per call."""
        return _KERNELS.get(self)


def classical(pattern: Iterable[int]) -> PatternSpec:
    """Anchor-free spec for a plain pattern word."""
    return PatternSpec(pattern=tuple(pattern))


VALUE_ANCHORED_3412 = PatternSpec(
    pattern=(3, 4, 1, 2),
    anchors=(None, Anchor.VALUE_MAX, Anchor.VALUE_MIN, None),
)

POSITION_ANCHORED_3412 = PatternSpec(
    pattern=(3, 4, 1, 2),
    anchors=(Anchor.POS_FIRST, None, None, Anchor.POS_LAST),
)

# The one spec of each length-3 pattern, by its digit word.
LENGTH_3 = {name: classical(map(int, name)) for name in ("123", "132", "213", "231", "312", "321")}

NAMED_SPECS = {**LENGTH_3, "3n12": VALUE_ANCHORED_3412, "u3412": POSITION_ANCHORED_3412}


def parse_pattern(text: str) -> PatternSpec:
    """
    Resolve CLI pattern syntax: a digit word like "132" or "3412", or one
    of the reserved names "3n12" and "u3412". A name in NAMED_SPECS
    returns its one shared spec, so it keeps its cached kernel.
    """
    name = text.strip()
    if name in NAMED_SPECS:
        return NAMED_SPECS[name]
    return classical(parse_permutation(name))


def occurrence_matches(host: Perm, spec: PatternSpec, indices: tuple[int, ...]) -> bool:
    """Check that the 1-based indices are a valid occurrence of spec."""
    m = len(spec.pattern)
    n = len(host)
    if len(indices) != m:
        return False
    if any(not 1 <= i <= n for i in indices):
        return False
    if any(a >= b for a, b in zip(indices, indices[1:])):
        return False
    values = [host[i - 1] for i in indices]
    for a in range(m):
        for b in range(a + 1, m):
            if (values[a] < values[b]) != (spec.pattern[a] < spec.pattern[b]):
                return False
    for pos, anchor, value in zip(indices, spec.anchors, values):
        if anchor is Anchor.VALUE_MAX and value != n:
            return False
        if anchor is Anchor.VALUE_MIN and value != 1:
            return False
        if anchor is Anchor.POS_FIRST and pos != 1:
            return False
        if anchor is Anchor.POS_LAST and pos != n:
            return False
    return True


# The 0-based host position each anchor pins its letter to.
_ANCHOR_SLOTS: dict[Anchor, Callable[[Perm], int]] = {
    Anchor.VALUE_MAX: lambda host: host.index(len(host)),
    Anchor.VALUE_MIN: lambda host: host.index(1),
    Anchor.POS_FIRST: lambda host: 0,
    Anchor.POS_LAST: lambda host: len(host) - 1,
}


def find_occurrence(host: Perm, spec: PatternSpec) -> Optional[tuple[int, ...]]:
    """
    The lexicographically least occurrence of spec in host, as a tuple of
    1-based indices, or None when host avoids the spec.
    """
    patt, anchors = spec.pattern, spec.anchors
    m = len(patt)
    n = len(host)
    if m > n:
        return None

    chosen: list[int] = []

    def fits(letter: int, pos: int) -> bool:
        v = host[pos]
        for prev_letter, prev_pos in enumerate(chosen):
            if (host[prev_pos] < v) != (patt[prev_letter] < patt[letter]):
                return False
        return True

    def search(letter: int, start: int) -> Optional[tuple[int, ...]]:
        if letter == m:
            return tuple(pos + 1 for pos in chosen)
        # Leave room for the letters after this one. An anchor narrows the
        # candidates to its one slot, or to none when that is out of range.
        positions = range(start, n - (m - letter) + 1)
        if anchors[letter] is not None:
            slot = _ANCHOR_SLOTS[anchors[letter]](host)
            positions = (slot,) if slot in positions else ()
        for pos in positions:
            if not fits(letter, pos):
                continue
            chosen.append(pos)
            found = search(letter + 1, pos + 1)
            chosen.pop()
            if found is not None:
                return found
        return None

    return search(0, 0)


def _increasing_triple(seq, top: int) -> _Values:
    """
    Some a < b < c in increasing positions, or None: track the smallest
    value so far, and the smallest value with a smaller one before it
    together with that smaller one. Values lie below top.
    """
    low = mid = under = top
    for x in seq:
        if x > mid:
            return under, mid, x
        if x > low:
            under, mid = low, x
        else:
            low = x
    return None


def _stack_failure(seq, floor: int) -> _Values:
    """
    Some b, c, a in increasing positions with a < b < c, or None: one pass
    of Knuth's stack sort, failing when an entry a falls below the value b
    last popped, which c popped. Values lie above floor.
    """
    stack: list[int] = []
    popped = by = floor
    for x in seq:
        if x < popped:
            return popped, by, x
        while stack and stack[-1] < x:
            popped = stack.pop()
            by = x
        stack.append(x)
    return None


# Each kernel returns the values of one occurrence of its spec, or None.
# Reversing a word reverses its patterns; negating it complements them.
def _find_123(p: Perm) -> _Values:
    return _increasing_triple(p, len(p) + 1)


def _find_321(p: Perm) -> _Values:
    return _increasing_triple(reversed(p), len(p) + 1)


def _find_231(p: Perm) -> _Values:
    return _stack_failure(p, 0)


def _find_132(p: Perm) -> _Values:
    return _stack_failure(reversed(p), 0)


def _find_213(p: Perm) -> _Values:
    w = _stack_failure(map(neg, p), -len(p) - 1)
    return w and tuple(map(neg, w))


def _find_312(p: Perm) -> _Values:
    w = _stack_failure(map(neg, reversed(p)), -len(p) - 1)
    return w and tuple(map(neg, w))


def _find_3n12(p: Perm) -> _Values:
    """Contained only when n precedes 1, neither at an end, and some entry
    before n is larger than some entry after 1."""
    n = len(p)
    if n < 4:
        return None
    i = p.index(n)
    j = p.index(1)
    if not 0 < i < j < n - 1:
        return None
    three, two = max(p[:i]), min(p[j + 1:])
    return (three, n, 1, two) if three > two else None


def _find_u3412(p: Perm) -> _Values:
    """Contained only when p_n < p_1 and an interior entry above p_1 comes
    before a later interior entry below p_n."""
    if len(p) < 4 or p[-1] > p[0]:
        return None
    first, last = p[0], p[-1]
    above = 0
    for x in p[1:-1]:
        if x > first:
            above = x
        elif above and x < last:
            return first, above, x, last
    return None


_KERNELS = {
    LENGTH_3["123"]: _find_123,
    LENGTH_3["321"]: _find_321,
    LENGTH_3["231"]: _find_231,
    LENGTH_3["132"]: _find_132,
    LENGTH_3["213"]: _find_213,
    LENGTH_3["312"]: _find_312,
    VALUE_ANCHORED_3412: _find_3n12,
    POSITION_ANCHORED_3412: _find_u3412,
}


def avoids(host: Perm, specs: Iterable[PatternSpec]) -> bool:
    """
    True when host contains no occurrence of any spec.

    The eight shipped specs (the six of length 3, ``3n12`` and ``u3412``)
    take a linear-time kernel; any other spec takes find_occurrence.

    >>> avoids((2, 4, 1, 3), (classical((2, 3, 1)),))
    False
    >>> avoids((2, 4, 1, 3), (classical((1, 2, 3)), POSITION_ANCHORED_3412))
    True
    """
    for spec in specs:
        kernel = spec._kernel
        if kernel is None:
            if find_occurrence(host, spec) is not None:
                return False
        elif kernel(host) is not None:
            return False
    return True
