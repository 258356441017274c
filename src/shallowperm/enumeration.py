"""Brute-force and constructive enumeration of shallow pattern avoiders.

Brute force iterates all of S_n in lexicographic order and filters;
constructive enumeration streams the shallow generator and filters. Both
agree by construction, and the "both" method runs each and raises on any
disagreement. Counts are plain Python ints end to end, so there is no
word-size ceiling.
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
from .shallow import _walk, generate_shallow, is_shallow


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


DEFAULT_CAPS = Caps()

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
    provenance: Method

    def value(self, n: int, k: Optional[int] = None) -> int:
        for row in self.rows:
            if row.n == n and row.k == k:
                return row.count
        raise KeyError(f"no row for n={n}, k={k}")


def all_perms(n: int) -> Iterator[Perm]:
    """Every permutation of size n, in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def _counts_for(n: int, query: CountQuery, method: Method) -> dict[Optional[int], int]:
    if method is Method.BOTH:
        brute = _counts_for(n, query, Method.BRUTE_FORCE)
        constructive = _counts_for(n, query, Method.CONSTRUCTIVE)
        if brute != constructive:
            raise MethodDisagreement(n, brute, constructive)
        return constructive
    brute_force = method is Method.BRUTE_FORCE
    if not brute_force and query.symmetry is None and not query.avoid and n >= 1:
        return _tally_parents(n, query.refine_by)
    stream: Iterable[Perm] = all_perms(n) if brute_force else generate_shallow(n)
    if query.symmetry is not None:
        stream = filter(partial(is_in_class, cls=query.symmetry), stream)
    if brute_force:
        stream = filter(is_shallow, stream)
    if query.avoid:
        stream = filter(partial(avoids, specs=query.avoid), stream)
    if query.refine_by is None:
        total = sum(1 for _ in stream)
        return {None: total} if total else {}
    return dict(Counter(map(REFINEMENTS[query.refine_by], stream)))


def _tally_parents(n: int, refine_by: Optional[str]) -> dict[Optional[int], int]:
    """
    The unfiltered constructive counts of size n >= 1, tallied from the
    shallow words of size n - 1 without building the words of size n.

    Exact: the shallow words of size n are the children of the shallow
    words of size n - 1, as the generator rests on, and each is a child of
    exactly one parent, its right-operator reduction, at exactly one slot,
    the one that held n (or the end, when n came last). So every word of
    size n is counted once. A parent t, walked with its slots, has
    1 + len(slots) children, and a child's statistic follows from t and
    its slot i, holding v = t[i], with m = len(t):
    - cycles: the appended child has one more than t; a slot child has as
      many, since n joins the cycle of slot i;
    - left-to-right maxima: those of t before the new maximum, plus it;
    - descents: the appended child has those of t. A slot child loses the
      pairs (t[i-1], v) and (v, t[i+1]) and gains (t[i-1], n), which is
      never a descent, (n, t[i+1]), which always is, and the new last pair
      (t[m-1], v); when i = m - 1 the last pair is (n, v), a descent.
    """
    parents = _walk(n - 1)
    if refine_by is None:
        return {None: sum(1 + len(slots) for _, slots in parents)}
    # Each statistic of a word of size n lies in 0..n.
    tally = [0] * (n + 1)
    if refine_by == "cycles":
        for t, slots in parents:
            c = cycle_count(t)
            tally[c + 1] += 1
            tally[c] += len(slots)
    elif refine_by == "lrmax":
        for t, slots in parents:
            # Every left-to-right maximum holds a slot, so the running
            # maximum over the slots is that of the whole prefix, and
            # before is one more than the left-to-right maxima before i.
            top = 0
            before = 1
            for i in slots:
                tally[before] += 1
                if t[i] > top:
                    top = t[i]
                    before += 1
            tally[before] += 1
    else:  # descents
        for t, slots in parents:
            d = descent_count(t)
            tally[d] += 1
            # w pads t with 0 in front and n at the end, so w[i] = t[i-1]
            # and the pairs at the ends are never descents.
            w = (0, *t, n)
            last = w[-2]
            for i in slots:
                v = w[i + 1]
                tally[d + 1 - (w[i] > v) - (v > w[i + 2]) + (last > v)] += 1
    return {k: c for k, c in enumerate(tally) if c}


def _rows(
    query: CountQuery,
    keys: Callable[[int, dict[Optional[int], int]], Iterable[Optional[int]]],
) -> tuple[CountRow, ...]:
    """One timed enumeration pass per size, then a row per key (absent keys count 0)."""
    rows: list[CountRow] = []
    for n in query.sizes:
        start = time.perf_counter()
        counts = _counts_for(n, query, query.method)
        elapsed = time.perf_counter() - start
        rows.extend(CountRow(n, k, counts.get(k, 0), elapsed) for k in keys(n, counts))
    return tuple(rows)


def count(query: CountQuery, caps: Caps = DEFAULT_CAPS) -> CountTable:
    """
    Count shallow permutations matching the query, size by size.

    With refine_by set, one row per observed statistic value is produced
    (their sum is the unrefined count). The "both" method runs brute force
    and the constructive generator and raises MethodDisagreement if they
    ever differ.
    """
    limit = caps.limit(query.method)
    over = [n for n in query.sizes if n > limit]
    if over:
        raise SizeCapExceeded(
            f"sizes {over} beyond the {query.method.value} cap {limit}"
        )
    rows = _rows(query, lambda n, counts: sorted(counts) if query.refine_by else (None,))
    return CountTable(query=query, rows=rows, provenance=query.method)


def descent_table(
    n_max: int, avoid: PatternSpec, caps: Caps = DEFAULT_CAPS
) -> CountTable:
    """
    Constructive descent refinement: one row per (n, k) with 0 <= k < n,
    zero counts included, for 1 <= n <= n_max.
    """
    if n_max > caps.constructive:
        raise SizeCapExceeded(f"n_max {n_max} beyond constructive cap {caps.constructive}")
    query = CountQuery(
        sizes=tuple(range(1, n_max + 1)),
        avoid=(avoid,),
        refine_by="descents",
        method=Method.CONSTRUCTIVE,
    )
    rows = _rows(query, lambda n, counts: range(n))
    return CountTable(query=query, rows=rows, provenance=Method.CONSTRUCTIVE)


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
    refined tables check against bivariate series, treating statistic
    values absent from the table as zero.
    """
    sizes = sorted({row.n for row in table.rows})
    if not sizes:
        return VerificationReport(())
    refined = any(row.k is not None for row in table.rows)
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


_AVOID_132 = (PatternSpec(pattern=(1, 3, 2)),)
_AVOID_321 = (PatternSpec(pattern=(3, 2, 1)),)


def profile(n: int, caps: Caps = DEFAULT_CAPS) -> ProfilePair:
    """
    Compare the (cycles, descents+1) multiset over shallow 132-avoiders
    with the (cycles, left-to-right maxima) multiset over shallow
    321-avoiders of the same size. The flag reports whether the two
    multisets coincide at this size; it is evidence, not a theorem.
    """
    if n > caps.constructive:
        raise SizeCapExceeded(f"n {n} beyond constructive cap {caps.constructive}")
    left: Counter = Counter()
    right: Counter = Counter()
    for p in generate_shallow(n):
        if avoids(p, _AVOID_132):
            left[(cycle_count(p), descent_count(p) + 1)] += 1
        if avoids(p, _AVOID_321):
            right[(cycle_count(p), sum(lr_max_flags(p)))] += 1
    left_profile = StatProfile(
        n=n,
        descriptor="shallow 132-avoiding: (cycles, descents+1)",
        counts=tuple(sorted(left.items())),
    )
    right_profile = StatProfile(
        n=n,
        descriptor="shallow 321-avoiding: (cycles, left-to-right maxima)",
        counts=tuple(sorted(right.items())),
    )
    return ProfilePair(
        left=left_profile, right=right_profile, consistent=left == right
    )


def search_mesh_counterexample(
    n_max: int, caps: Caps = DEFAULT_CAPS
) -> Optional[Perm]:
    """
    The size-lexicographically first non-shallow permutation avoiding both
    anchored 3412 patterns, or None if none exists up to n_max.

    Any witness is re-checked against both conditions before being
    returned, through find_occurrence rather than the avoids kernels the
    search used, so a fault in those kernels cannot confirm itself.
    """
    if n_max > caps.brute_force:
        raise SizeCapExceeded(f"n_max {n_max} beyond brute-force cap {caps.brute_force}")
    both = (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412)
    for n in range(1, n_max + 1):
        for p in all_perms(n):
            if is_shallow(p):
                continue
            if avoids(p, both):
                if is_shallow(p) or any(find_occurrence(p, s) is not None for s in both):
                    raise RuntimeError(f"witness self-check failed for {p}")
                return p
    return None
