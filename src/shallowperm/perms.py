"""Permutation words, exact statistics, and symmetry operators.

Permutations are plain tuples of ints in one-line notation with 1-based
values, e.g. ``(4, 2, 1, 6, 3, 5)`` for 421635. Every position or index
that crosses a public interface is 1-based as well; only loop internals
use Python's 0-based indexing. The empty tuple is the (valid) permutation
of size 0.

The canonical text form is comma-separated values without whitespace,
``"4,2,1,6,3,5"``. A contiguous digit string such as ``"421635"`` is
accepted on input when every value is a single digit.

Each of the three involutive symmetries is named by the SymmetryClass of
the words it fixes: apply_symmetry applies it, is_in_class tests for a
fixed point.
"""
from __future__ import annotations

from enum import Enum
from operator import gt, sub
from typing import Iterable, NamedTuple, Sequence

Perm = tuple[int, ...]


class NotAPermutation(ValueError):
    """The word is not a rearrangement of 1..n."""


class ParseError(ValueError):
    """The text does not parse as a permutation at all."""


class DuplicateEntry(ValueError):
    """A word passed to reduce_word has a repeated entry."""


def validate_permutation(word: Iterable[int]) -> Perm:
    """Return the word as a tuple, raising NotAPermutation if invalid."""
    w = tuple(word)
    n = len(w)
    for v in w:
        if not isinstance(v, int) or v < 1 or v > n:
            raise NotAPermutation(f"value {v!r} out of range 1..{n}")
    seen: set[int] = set()
    for v in w:
        if v in seen:
            raise NotAPermutation(f"duplicate value {v}")
        seen.add(v)
    return w


def parse_permutation(text: str) -> Perm:
    """
    Parse one-line notation from text.

    Accepts a comma or whitespace separated list of integers, or a
    contiguous digit string when all values are single digits. Digit
    strings of length 10 or more are rejected as ambiguous (a value of
    10 could not be written); use separators there. Text that is not all
    ASCII is rejected, though int() would read other scripts' digits, and
    so is a token that is not all digits, though int() would read "+1"
    or "1_0".

    >>> parse_permutation("4,2,1,6,3,5")
    (4, 2, 1, 6, 3, 5)
    >>> parse_permutation("421635")
    (4, 2, 1, 6, 3, 5)
    >>> parse_permutation("")
    ()
    """
    stripped = text.strip()
    if not stripped.isascii():
        raise ParseError(f"cannot parse {text!r}")
    # Separators are commas and whitespace: in ASCII, str.isspace holds for
    # \t\n\v\f\r, the space and \x1c-\x1f.
    tokens = stripped.replace(",", " ").split()
    if tokens == [stripped]:
        if not stripped.isdigit():
            raise ParseError(f"cannot parse {text!r}")
        if len(stripped) >= 10:
            raise ParseError(
                "digit-string form is ambiguous for length >= 10; separate values with commas"
            )
        tokens = stripped
    elif tokens and not "".join(tokens).isdigit():
        raise ParseError(f"bad token {next(t for t in tokens if not t.isdigit())!r}")
    values = tuple(map(int, tokens))
    if set(values).issuperset(range(1, len(values) + 1)):
        return values
    return validate_permutation(values)  # raises, naming the first bad value


def format_permutation(p: Perm) -> str:
    """Canonical text form: comma-separated values, no whitespace."""
    return ",".join(map(str, p))


def identity(n: int) -> Perm:
    """The identity permutation 12...n."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return tuple(range(1, n + 1))


def decreasing(n: int) -> Perm:
    """The decreasing permutation n(n-1)...21."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return tuple(range(n, 0, -1))


class StatVector(NamedTuple):
    """The displacement/inversion/cycle statistics of one permutation."""

    displacement: int
    inversions: int
    cycles: int
    reflection_length: int
    descents: int
    lr_maxima: int
    rl_minima: int


def total_displacement(p: Perm) -> int:
    """Sum of |p_i - i| over all positions (Spearman's disarray)."""
    return sum(map(abs, map(sub, p, range(1, len(p) + 1))))


def inversion_count(p: Perm) -> int:
    """
    Number of pairs i < j with p_i > p_j.

    Each entry adds the number of earlier entries above it: bit v of the
    int ``seen`` is set once the value v has been seen, so those entries
    are the set bits of ``seen >> v``.

    >>> inversion_count((3, 2, 1))
    3
    """
    seen = 0
    total = 0
    for v in p:
        total += (seen >> v).bit_count()
        seen |= 1 << v
    return total


def cycle_count(p: Perm) -> int:
    """Number of cycles in the disjoint cycle decomposition."""
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j] - 1
    return count


def descent_count(p: Perm) -> int:
    """Number of positions i with p_i > p_{i+1}."""
    return sum(map(gt, p, p[1:]))


def lr_max_flags(p: Perm) -> tuple[bool, ...]:
    """flags[i] is True when p[i] exceeds everything before it."""
    flags = []
    best = 0
    for v in p:
        flags.append(v > best)
        if v > best:
            best = v
    return tuple(flags)


def rl_min_flags(p: Perm) -> tuple[bool, ...]:
    """flags[i] is True when p[i] is below everything after it."""
    n = len(p)
    flags = [False] * n
    best = n + 1
    for i in range(n - 1, -1, -1):
        if p[i] < best:
            flags[i] = True
            best = p[i]
    return tuple(flags)


def statistics(p: Perm) -> StatVector:
    """
    All seven statistics of p, computed from their definitions.

    >>> statistics((3, 2, 1))
    StatVector(displacement=4, inversions=3, cycles=2, reflection_length=1, descents=2, lr_maxima=1, rl_minima=1)
    """
    cyc = cycle_count(p)
    return StatVector(
        displacement=total_displacement(p),
        inversions=inversion_count(p),
        cycles=cyc,
        reflection_length=len(p) - cyc,
        descents=descent_count(p),
        lr_maxima=sum(lr_max_flags(p)),
        rl_minima=sum(rl_min_flags(p)),
    )


def inverse(p: Perm) -> Perm:
    """The algebraic inverse: inverse[j] = i exactly when p[i] = j."""
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def reverse_complement(p: Perm) -> Perm:
    """Rotate the permutation diagram by 180 degrees."""
    n = len(p)
    return tuple(n + 1 - v for v in reversed(p))


def reverse_complement_inverse(p: Perm) -> Perm:
    """Reflect the permutation diagram about the anti-diagonal."""
    return inverse(reverse_complement(p))


class SymmetryClass(Enum):
    INVOLUTION = "involution"
    CENTROSYMMETRIC = "centrosymmetric"
    PERSYMMETRIC = "persymmetric"


_INVOLUTION = SymmetryClass.INVOLUTION
_CENTROSYMMETRIC = SymmetryClass.CENTROSYMMETRIC
_PERSYMMETRIC = SymmetryClass.PERSYMMETRIC

_SYMMETRY_MAP = {
    _INVOLUTION: inverse,
    _CENTROSYMMETRIC: reverse_complement,
    _PERSYMMETRIC: reverse_complement_inverse,
}


def apply_symmetry(p: Perm, cls: SymmetryClass) -> Perm:
    """Apply the symmetry whose fixed points make up the class."""
    return _SYMMETRY_MAP[cls](p)


def is_in_class(p: Perm, cls: SymmetryClass) -> bool:
    """
    True when p is fixed by the symmetry defining the class.

    Each class is a fixed-point scan that stops at the first entry that
    breaks it, with no image built: in 0-based slots, an involution has
    p[p[i] - 1] = i + 1, a centrosymmetric word p[i] + p[n - 1 - i] = n + 1,
    and a persymmetric word p[n - p[i]] = n - i. The definition,
    ``p == apply_symmetry(p, cls)``, is the test oracle.

    >>> [is_in_class((2, 3, 4, 5, 1), cls) for cls in SymmetryClass]
    [False, False, True]
    """
    if cls is _INVOLUTION:
        for i, v in enumerate(p, 1):
            if p[v - 1] != i:
                return False
        return True
    if cls is _CENTROSYMMETRIC:
        top = len(p) + 1
        for i, v in enumerate(p):
            if v + p[-1 - i] != top:
                return False
        return True
    if cls is _PERSYMMETRIC:
        n = len(p)
        for i, v in enumerate(p):
            if p[n - v] != n - i:
                return False
        return True
    raise ValueError(f"not a symmetry class: {cls!r}")


def direct_sum(p: Perm, q: Perm) -> Perm:
    """
    Place q above and after p.

    >>> direct_sum((4, 3, 1, 2), (5, 3, 1, 4, 2))
    (4, 3, 1, 2, 9, 7, 5, 8, 6)
    """
    n = len(p)
    return p + tuple(v + n for v in q)


def skew_sum(p: Perm, q: Perm) -> Perm:
    """
    Place p above and before q.

    >>> skew_sum((2, 1), (1,))
    (3, 2, 1)
    """
    m = len(q)
    return tuple(v + m for v in p) + q


def reduce_word(word: Sequence[int]) -> Perm:
    """
    The permutation with the same relative order as the word.

    >>> reduce_word((4, 8, 2, 9, 1))
    (3, 4, 2, 5, 1)
    >>> reduce_word((9, 4, 8, 2))
    (4, 2, 3, 1)
    """
    if len(set(word)) != len(word):
        raise DuplicateEntry(f"entries must be pairwise distinct: {word!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)
