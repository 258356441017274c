"""Brute-force and constructive enumeration of shallow pattern avoiders.

Counts and profiles read their words from one stream per size, _words.
Each route yields exactly the shallow words of its set, so the stream
tests only what the route leaves open:

* brute force reads brute_shallow_words, which walks S_n in lexicographic
  order and decides I + T = D from figures carried down the prefix tree
  (test_brute_walk_equals_the_filtered_s_n); a query with a symmetry then
  tests the class;
* a constructive query with a symmetry walks that class's tree
  (generate_symmetric, exact by TestClassWalks);
* otherwise one that avoids the classical 321 walks the tree of the
  321-avoiders (generate_321_avoiding, exact by
  test_321_avoiders_have_321_avoiding_parents), which settles that spec;
* one of size 2 or more that avoids a classical spec with a kernel walks
  the whole tree with the specs' kernels (shallow._leaves), which search
  each parent once and build only the children that the parent's
  occurrence leaves open: at n = 8, 38-45% of the leaves for one length-3
  pattern. This serves counts (descent tables too) and profile's 132 side;
* any other walks the whole tree (generate_shallow), except that an
  unfiltered count of size 2 or more is tallied from the grandparents, the
  shallow words two sizes down.

The specs the route leaves open then filter the stream once. The "both"
method runs each method and raises on any disagreement. Counts are plain
Python ints end to end, so there is no word-size ceiling.
"""
from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from . import series
from .patterns import (
    LENGTH_3,
    POSITION_ANCHORED_3412,
    VALUE_ANCHORED_3412,
    PatternSpec,
    avoids,
    find_occurrence,
)
from .perms import (
    Perm,
    SymmetryClass,
    cycle_count,
    descent_count,
    is_in_class,
    lr_max_flags,
)
from .shallow import (
    _leaves,
    _walk,
    certify_shallow,
    generate_321_avoiding,
    generate_shallow,
    generate_symmetric,
    is_shallow,
)


class SizeCapExceeded(ValueError):
    """A query asked for sizes beyond the configured cap."""


class MethodDisagreement(RuntimeError):
    """Brute-force and constructive counts differ (an implementation bug)."""

    def __init__(self, n: int, brute: dict, constructive: dict):
        super().__init__(
            f"method disagreement at n={n}: brute={brute} constructive={constructive}"
        )
        self.n = n
        self.brute = brute
        self.constructive = constructive


class OracleDomainError(ValueError):
    """The oracle does not cover the table being verified."""


class Method(Enum):
    BRUTE_FORCE = "brute"
    CONSTRUCTIVE = "constructive"
    BOTH = "both"


@dataclass(frozen=True)
class Caps:
    """Size ceilings for the two enumeration strategies."""

    brute_force: int = 10
    constructive: int = 12

    def limit(self, method: Method) -> int:
        """The largest size `count` accepts under the method."""
        if method is Method.BOTH:
            return min(self.brute_force, self.constructive)
        return self.brute_force if method is Method.BRUTE_FORCE else self.constructive

    def check(self, method: Method, what: str, value: int) -> None:
        """Raise SizeCapExceeded when the size named what exceeds the method's cap."""
        limit = self.limit(method)
        if value > limit:
            raise SizeCapExceeded(f"{what} {value} beyond the {method.value} cap {limit}")


DEFAULT_CAPS = Caps()

_AVOID_132 = (LENGTH_3["132"],)
_AVOID_321 = (LENGTH_3["321"],)

REFINEMENTS: dict[str, Callable[[Perm], int]] = {
    "descents": descent_count,
    "cycles": cycle_count,
    "lrmax": lambda p: sum(lr_max_flags(p)),
}


@dataclass(frozen=True)
class CountQuery:
    """What to count: sizes, avoided patterns, symmetry, refinement, method."""

    sizes: tuple[int, ...]
    avoid: tuple[PatternSpec, ...] = ()
    symmetry: Optional[SymmetryClass] = None
    refine_by: Optional[str] = None
    method: Method = Method.CONSTRUCTIVE

    def __post_init__(self) -> None:
        if self.refine_by is not None and self.refine_by not in REFINEMENTS:
            raise ValueError(
                f"refine_by must be one of {sorted(REFINEMENTS)}, got {self.refine_by!r}"
            )
        if any(n < 0 for n in self.sizes):
            raise ValueError("sizes must be nonnegative")


@dataclass(frozen=True)
class CountRow:
    n: int
    k: Optional[int]
    count: int
    elapsed: float  # seconds spent on this row's enumeration pass


@dataclass(frozen=True)
class CountTable:
    query: CountQuery
    rows: tuple[CountRow, ...]

    def value(self, n: int, k: Optional[int] = None) -> int:
        for row in self.rows:
            if row.n == n and row.k == k:
                return row.count
        raise KeyError(f"no row for n={n}, k={k}")


def all_perms(n: int) -> Iterator[Perm]:
    """Every permutation of size n, in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def brute_shallow_words(n: int) -> Iterator[Perm]:
    """
    The shallow words of size n in lexicographic order: all of S_n walked
    depth first, each word decided by I + T = D from figures carried down
    the prefix tree instead of recomputed at the leaf.

    Placing v at position k (from 1) after the values in the bitmask used:
    - inversions grow by (used >> v).bit_count(), the earlier entries above v;
    - displacement grows by |v - k|;
    - closed cycles grow by one exactly when v starts the path that ends at
      k. The placed pairs i -> p_i form cycles and paths; start[e] is the
      first node of the path that ends at e, end[s] the last of the path
      that starts at s. Position k is unplaced, so it ends one path, from
      s = start[k]; v is unused, so it starts one. k -> v closes the cycle
      when v = s and otherwise joins the two paths: start[end[v]] becomes s
      and end[s] becomes end[v], both restored on backtrack.
    T is n minus the cycles, so a word is shallow exactly when the balance
    n + I - D - (closed cycles), carried as one int, ends at 0. The frame of
    position n - 2 places the last two entries itself. The walk holds O(n)
    ints; test_brute_walk_equals_the_filtered_s_n checks it against
    is_shallow over S_n for n <= 9.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n < 3:
        yield from all_perms(n)  # every word of size 2 or less is shallow
        return
    m = n - 1
    full = (1 << (n + 1)) - 2  # the values 1..n
    word = [0] * n
    start = list(range(n + 1))
    end = list(range(n + 1))

    def place(k: int, used: int, b: int) -> Iterator[Perm]:
        s = start[k]
        free = full ^ used
        while free:
            low = free & -free
            free ^= low
            v = low.bit_length() - 1
            word[k - 1] = v
            bv = b + (used >> v).bit_count() - abs(v - k)
            if v == s:
                bv -= 1
            else:
                e = end[v]
                start[e] = s
                end[s] = e
            if k < n - 2:
                yield from place(k + 1, used | low, bv)
            else:
                # Values a < c are left for positions m and n, the ends of the
                # two open paths, so a <= m; every value above c is placed,
                # and every value above a but c. If the path ending at m
                # starts at a, (a, c) closes two cycles and (c, a) one;
                # otherwise the reverse. So (a, c) lowers the balance by
                # 1 + closes, and (c, a) by 3 - closes if c = n, else 1 - closes.
                left = full ^ used ^ low
                a = (left & -left).bit_length() - 1
                c = left.bit_length() - 1
                closes = start[m] == a
                if bv == 1 + closes:
                    word[m - 1] = a
                    word[m] = c
                    yield tuple(word)
                if bv + closes == (3 if c == n else 1):
                    word[m - 1] = c
                    word[m] = a
                    yield tuple(word)
            if v != s:
                start[e] = v
                end[s] = k

    yield from place(1, 0, n)


def _words(
    n: int, avoid: tuple[PatternSpec, ...], symmetry: Optional[SymmetryClass], method: Method
) -> Iterable[Perm]:
    """
    The shallow words of size n that a query keeps: its route's stream (see
    the module docstring), tested once for each condition the route leaves
    open. The kernel route settles no spec, so every spec tests its survivors.
    """
    if method is Method.BRUTE_FORCE:
        stream = brute_shallow_words(n)
        if symmetry is not None:
            stream = filter(partial(is_in_class, cls=symmetry), stream)
    elif symmetry is not None:
        stream = generate_symmetric(n, symmetry)
    elif _AVOID_321[0] in avoid:
        stream = generate_321_avoiding(n)
        avoid = tuple(spec for spec in avoid if spec != _AVOID_321[0])
    else:
        # The anchor-free specs with a kernel drive the parents' skip. An
        # anchored spec may pin a letter to the maximum or the last position,
        # which both move from parent to child, so it only filters.
        kernels = [spec._kernel for spec in avoid if spec._kernel and not any(spec.anchors)]
        stream = _leaves(n, kernels=kernels) if kernels and n >= 2 else generate_shallow(n)
    if avoid:
        stream = filter(partial(avoids, specs=avoid), stream)
    return stream


def _counts_for(n: int, query: CountQuery, method: Method) -> dict[Optional[int], int]:
    if method is Method.BOTH:
        brute = _counts_for(n, query, Method.BRUTE_FORCE)
        constructive = _counts_for(n, query, Method.CONSTRUCTIVE)
        if brute != constructive:
            raise MethodDisagreement(n, brute, constructive)
        return constructive
    if method is Method.CONSTRUCTIVE and query.symmetry is None and not query.avoid and n >= 2:
        return _tally_grandparents(n, query.refine_by)
    stream = _words(n, query.avoid, query.symmetry, method)
    if query.refine_by is None:
        return {None: sum(1 for _ in stream)}
    return dict(Counter(map(REFINEMENTS[query.refine_by], stream)))


def _tally_grandparents(n: int, refine_by: Optional[str]) -> dict[Optional[int], int]:
    """
    The unfiltered constructive counts of size n >= 2, tallied from the
    shallow words of size n - 2 without building a word of size n - 1 or n.

    Exact: each shallow word of size n is the child of exactly one shallow
    parent, its right-operator reduction, at exactly one slot, the one that
    held n (or the end, when n came last); so each has one grandparent,
    reached by one (slot, slot) path, and is counted once.

    A word t with m = len(t) and s slots has 1 + s children: t + (m+1,),
    whose slots are those of t and m, and for the k-th slot i (k from 0),
    holding v = t[i], t with m+1 at i and v appended, whose slots are
    those before i, i, the r_k later slots holding a value below v, and m.
    A child has one cycle more than its parent when appended, as many
    otherwise (the new maximum joins the cycle of its slot), and its
    left-to-right maxima are those before its slot, plus the new maximum.
    With c, d and L the cycles, descents and left-to-right maxima of t, r
    the sum of the r_k, and b_k the left-to-right maxima of t before slot
    k, the grandchildren of t number s(s-1)/2 + 4s + 2 + r, and
    - cycles: one has c + 2, 2s + 1 have c + 1, the rest have c;
    - left-to-right maxima: one each has L + 2 and L + 1; for each k,
      s - k + 1 have b_k + 1 (the children at slot i of t + (m+1,) and of
      the children of slots k and after) and 2 + r_k have b_k + 2 (the
      appended, last-slot and later-slot children of the child of k);
    - descents: a slot child loses the pairs its slot made with its
      neighbours and gains the new last pair and (new maximum, right
      neighbour), always a descent. Pad t with 0 in front and m + 1
      behind, and let e_k be the descents slot k makes with its
      neighbours. The children of t + (m+1,) have d, d + 1 (the last
      slot) and d + 2 - e_k. The child of slot k has d_k = d + 1 - e_k +
      (t[-1] > v). Its appended child and its child at i have d_k; its
      child at the last slot, d_k + (t[-1] < v); at a later slot j,
      d_k + 2 - e_j, since a neighbour it changed stays above t[j] < v
      and (v, t[j]) is a descent; at an earlier slot j, d_k + 1 - e_j +
      (v > t[j]), or d_k + 2 - e_j when j = i - 1, whose right neighbour
      became the new maximum.
    test_one_step_rules_match_the_statistics checks these rules against
    the definitions, and test_matches_the_leaf_tallies the tally.
    """
    # Each statistic of a word of size n lies in 0..n.
    tally = [0] * (n + 1)
    total = 0
    for t, slots in _walk(n - 2):
        s = len(slots)
        if refine_by == "descents":
            d = descent_count(t)
            w = (0, *t, len(t) + 1)
            last = t[-1] if t else 0
            e = [(w[i] > w[i + 1]) + (w[i + 1] > w[i + 2]) for i in slots]
            tally[d] += 1
            tally[d + 1] += 1
            for k, i in enumerate(slots):
                v = t[i]
                dk = d + 1 - e[k] + (last > v)
                tally[d + 2 - e[k]] += 1
                tally[dk] += 2
                tally[dk + (last < v)] += 1
                for kk in range(k):
                    j = slots[kk]
                    tally[dk + 1 - e[kk] + (v > t[j] or j == i - 1)] += 1
                for kk in range(k + 1, s):
                    if t[slots[kk]] < v:
                        tally[dk + 2 - e[kk]] += 1
            continue
        # r_k for each slot k, right to left, from a bitmask of later values.
        seen = 0
        below = [0] * s
        for k in range(s - 1, -1, -1):
            v = t[slots[k]]
            below[k] = (seen & ((1 << v) - 1)).bit_count()
            seen |= 1 << v
        r = sum(below)
        if refine_by is None:
            total += s * (s - 1) // 2 + 4 * s + 2 + r
        elif refine_by == "cycles":
            c = cycle_count(t)
            tally[c + 2] += 1
            tally[c + 1] += 2 * s + 1
            tally[c] += s * (s - 1) // 2 + 2 * s + r
        else:  # lrmax
            # Every left-to-right maximum holds a slot, so a running maximum
            # over the slots counts those before each slot.
            top = 0
            b = 0
            for k, i in enumerate(slots):
                tally[b + 1] += s - k + 1
                tally[b + 2] += 2 + below[k]
                if t[i] > top:
                    top = t[i]
                    b += 1
            tally[b + 1] += 1
            tally[b + 2] += 1
    if refine_by is None:
        return {None: total}
    return {k: c for k, c in enumerate(tally) if c}


def count(query: CountQuery, caps: Caps = DEFAULT_CAPS) -> CountTable:
    """
    Count shallow permutations matching the query, one timed pass per size.

    With refine_by set, one row per observed statistic value is produced
    (their sum is the unrefined count). The "both" method runs brute force
    and the constructive generator and raises MethodDisagreement if they
    ever differ.
    """
    if query.sizes:
        caps.check(query.method, "size", max(query.sizes))
    rows: list[CountRow] = []
    for n in query.sizes:
        start = time.perf_counter()
        counts = _counts_for(n, query, query.method)
        elapsed = time.perf_counter() - start
        rows.extend(CountRow(n, k, c, elapsed) for k, c in sorted(counts.items()))
    return CountTable(query=query, rows=tuple(rows))


def descent_table(n_max: int, avoid: PatternSpec, caps: Caps = DEFAULT_CAPS) -> CountTable:
    """
    The constructive count of the shallow avoiders of one spec at sizes
    1..n_max, refined by descents. A descent number with no word has no
    row; verify counts it as zero.
    """
    return count(CountQuery(tuple(range(1, n_max + 1)), (avoid,), refine_by="descents"), caps)


# ---------------------------------------------------------------------------
# Verification against oracles


@dataclass(frozen=True)
class VerificationPair:
    """One checked value against its oracle; a finding row leaves both None."""

    label: str
    n: Optional[int] = None
    table_value: Optional[int] = None
    oracle_value: Optional[int] = None
    k: Optional[int] = None

    @property
    def match(self) -> bool:
        return self.table_value == self.oracle_value


@dataclass(frozen=True)
class VerificationReport:
    pairs: tuple[VerificationPair, ...]

    @property
    def first_mismatch(self) -> Optional[VerificationPair]:
        return next((p for p in self.pairs if not p.match), None)

    @property
    def overall(self) -> bool:
        return self.first_mismatch is None


def oracle_values(oracle: str, order: int, refined: bool = False) -> Callable[..., int]:
    """
    The exact values of a named oracle, expanded once up to size order.

    A univariate catalog series or a closed-form family gives value(n);
    a bivariate series gives value(n, k) and needs refined=True. Raises
    OracleDomainError for an unknown name or a refinement mismatch.
    """
    if oracle in series.CATALOG:
        expansion = series.catalog(oracle, order)
        bivariate = isinstance(expansion, series.BivariateSeries)
        value = expansion.value if bivariate else lambda n: int(series.coefficient(expansion, n))
    elif oracle in series.CLOSED_FORMS:
        bivariate, value = False, lambda n: series.closed_form(oracle, n)
    else:
        raise OracleDomainError(f"unknown oracle {oracle!r}")
    if bivariate != refined:
        raise OracleDomainError(f"{oracle} does not fit a {'' if refined else 'un'}refined table")
    return value


def verify(table: CountTable, oracle: str) -> VerificationReport:
    """
    Compare every table row against a catalog series or closed-form family.

    Unrefined tables check against univariate series (or closed forms);
    refined tables check against bivariate series, treating each (n, k) of
    the query's sizes that has no row as zero.
    """
    sizes = sorted(set(table.query.sizes))
    if not sizes:
        return VerificationReport(())
    refined = table.query.refine_by is not None
    expected = oracle_values(oracle, max(sizes), refined)
    if refined:
        observed = {(row.n, row.k): row.count for row in table.rows}
        return VerificationReport(tuple(
            VerificationPair(
                f"{oracle}[{n},{k}]", n, observed.get((n, k), 0), expected(n, k), k
            )
            for n in sizes
            for k in range(n + 1)
        ))
    try:
        return VerificationReport(tuple(
            VerificationPair(f"{oracle}[{row.n}]", row.n, row.count, expected(row.n))
            for row in table.rows
        ))
    except series.OutOfDomain as exc:
        raise OracleDomainError(str(exc)) from None


# ---------------------------------------------------------------------------
# Exploratory statistics for the open bijection question


@dataclass(frozen=True)
class StatProfile:
    n: int
    descriptor: str
    counts: tuple[tuple[tuple[int, int], int], ...]  # ((stat pair), multiplicity)

    def total(self) -> int:
        return sum(m for _, m in self.counts)


@dataclass(frozen=True)
class ProfilePair:
    left: StatProfile
    right: StatProfile
    consistent: bool


def profile(n: int, caps: Caps = DEFAULT_CAPS) -> ProfilePair:
    """
    Compare the (cycles, descents+1) multiset over shallow 132-avoiders
    with the (cycles, left-to-right maxima) multiset over shallow
    321-avoiders of the same size. The flag reports whether the two
    multisets coincide at this size; it is evidence, not a theorem.
    """
    caps.check(Method.CONSTRUCTIVE, "n", n)

    def side(
        avoid: tuple[PatternSpec, ...], stat: Callable[[Perm], int], descriptor: str
    ) -> StatProfile:
        words = _words(n, avoid, None, Method.CONSTRUCTIVE)
        tally = Counter(map(lambda p: (cycle_count(p), stat(p)), words))
        return StatProfile(n=n, descriptor=descriptor, counts=tuple(sorted(tally.items())))

    left = side(_AVOID_132, lambda p: descent_count(p) + 1,
                "shallow 132-avoiding: (cycles, descents+1)")
    right = side(_AVOID_321, REFINEMENTS["lrmax"],
                 "shallow 321-avoiding: (cycles, left-to-right maxima)")
    return ProfilePair(left=left, right=right, consistent=left.counts == right.counts)


def search_mesh_counterexample(
    n_max: int, caps: Caps = DEFAULT_CAPS
) -> Optional[Perm]:
    """
    The size-lexicographically first non-shallow permutation avoiding both
    anchored 3412 patterns, or None if none exists up to n_max.

    Any witness is re-checked against both conditions before being
    returned, through certify_shallow and find_occurrence rather than the
    is_shallow and avoids that the search used, so a fault in either cannot
    confirm itself.
    """
    caps.check(Method.BRUTE_FORCE, "n_max", n_max)
    both = (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412)
    for n in range(1, n_max + 1):
        for p in all_perms(n):
            if not is_shallow(p) and avoids(p, both):
                occurs = any(find_occurrence(p, s) is not None for s in both)
                if occurs or certify_shallow(p).verdict:
                    raise RuntimeError(f"witness self-check failed for {p}")
                return p
    return None
