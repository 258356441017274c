"""Named verification suites bundling the library's cross-checks.

Each check declares one method, whose cap bounds its top size. A check of
one row is built by _per_size from its words at each size (all of S_n, a
constructive count query read through enumeration._words, or the
decreasing word), a feature summed over them, and the expected value at
each size: a catalog series, a closed form, or zero violations. Any other
check computes its rows. A direct call clamps max_n to the check's cap;
run_suite rejects a max_n beyond the cap of any check of the suite. CI
runs the ``all`` suite at its default sizes.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from . import series
from .enumeration import (
    DEFAULT_CAPS, Caps, CountQuery, Method, VerificationPair, VerificationReport, _words,
    all_perms, brute_shallow_words, count, descent_table, oracle_values, profile,
    search_mesh_counterexample, verify,
)
from .patterns import (
    LENGTH_3, POSITION_ANCHORED_3412, VALUE_ANCHORED_3412, PatternSpec, avoids, classical,
)
from .perms import (
    Perm, SymmetryClass, SymmetryKind, apply_symmetry, decreasing, descent_count, direct_sum,
    format_permutation, identity, inverse, skew_sum,
)
from .shallow import achieves_upper_bound, certify_shallow, generate_shallow, is_shallow, wrap_n1

PATTERNS = LENGTH_3  # the shared spec of each length-3 pattern, by name

_TOTAL_ORACLES = (
    ("132", "FibOdd"),
    ("213", "FibOdd"),
    ("321", "FibOdd"),
    ("231", "T231"),
    ("312", "T231"),
    ("123", "T123"),
)

_SYMMETRY_ORACLES = (
    ("132", SymmetryClass.INVOLUTION, "132_involutions"),
    ("132", SymmetryClass.CENTROSYMMETRIC, "132_centrosymmetric"),
    ("132", SymmetryClass.PERSYMMETRIC, "P132"),
    ("231", SymmetryClass.INVOLUTION, "231_involutions"),
    ("231", SymmetryClass.CENTROSYMMETRIC, "231_centrosymmetric"),
    ("231", SymmetryClass.PERSYMMETRIC, "P231"),
    ("123", SymmetryClass.INVOLUTION, "123_involutions"),
    ("123", SymmetryClass.CENTROSYMMETRIC, "123_centrosymmetric"),
    ("123", SymmetryClass.PERSYMMETRIC, "P123"),
    ("321", SymmetryClass.INVOLUTION, "321_involutions"),
    ("321", SymmetryClass.CENTROSYMMETRIC, "321_centrosymmetric"),
    ("321", SymmetryClass.PERSYMMETRIC, "321_persymmetric"),
)

# Spec tuples for avoids, built once: no tuple per call, and every call on a
# pattern passes the same object.
_AVOID = {name: (spec,) for name, spec in PATTERNS.items()}
_AVOID_3412 = (classical((3, 4, 1, 2)),)
_AVOID_ANCHORED_3412 = (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412)

Row = tuple[str, Callable[[int], int]]  # a label stem and the expected value at n


def _query(
    avoid: tuple[PatternSpec, ...] = (), symmetry: Optional[SymmetryClass] = None
) -> Callable[[int], Iterable[Perm]]:
    """The words count reads at each size for a constructive query, taken
    from enumeration._words at call time, so a patched route is the one used."""
    return lambda n: _words(n, avoid, symmetry, Method.CONSTRUCTIVE)


def _top(method: Method, default: int, max_n: Optional[int], caps: Caps) -> int:
    """A check's top size: max_n, else its default, within the method's cap."""
    return min(default if max_n is None else max_n, caps.limit(method))


def _zero(n: int) -> int:
    """The expected value of a violation row."""
    return 0


# ---------------------------------------------------------------- oracle tables


def _tally(
    words: Callable[[int], Iterable[Perm]], sizes: Iterable[int], width: int,
    features: Callable[[Perm], tuple],
) -> list[dict[int, int]]:
    """One pass of words(n) per size; column i < width sums entry i of
    features(p) over the words of each size."""
    tally = {n: Counter(map(features, words(n))) for n in sizes}
    return [{n: sum(f[i] * m for f, m in counts.items()) for n, counts in tally.items()}
            for i in range(width)]


def _rows(
    columns: Sequence[dict[int, int]], rows: Iterable[Row], summed_to: Optional[int] = None
) -> list[VerificationPair]:
    """Row i observes column i at each size or, given the top size
    summed_to, once in total over the sizes."""
    pairs = []
    for column, (stem, expected) in zip(columns, rows):
        if summed_to is None:
            pairs += [VerificationPair(f"{stem}[{n}]", n, seen, expected(n))
                      for n, seen in column.items()]
        else:
            pairs.append(VerificationPair(f"{stem}[n<={summed_to}]", None,
                                          sum(column.values()), sum(map(expected, column))))
    return pairs


@dataclasses.dataclass(frozen=True)
class Check:
    """A suite check, called as check(max_n, caps) for its rows; method is
    the one whose cap bounds its top size (see _top) and run_suite's max_n.
    A check that computes its rows is declared by @partial(Check, method)."""

    method: Method
    compute: Callable[[Optional[int], Caps], list[VerificationPair]]

    def __call__(self, max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
        return self.compute(max_n, caps)


def _per_size(
    method: Method, words: Callable[[int], Iterable[Perm]], default: int, stem: str,
    feature: Callable[[Perm], int], first: int = 0, expected: Callable[[int], int] = _zero,
    summed: bool = False,
) -> Check:
    """A check of one row: feature(p) summed over words(n) at each size n
    from first to its top size, or with summed one total over the sizes."""

    def compute(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
        top = _top(method, default, max_n, caps)
        column = {n: sum(map(feature, words(n))) for n in range(first, top + 1)}
        return _rows([column], [(stem, expected)], top if summed else None)

    return Check(method, compute)


# --------------------------------------------------------------------- table1


@partial(Check, Method.BRUTE_FORCE)
def check_table1(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    """Each pattern's column as count --avoid reads it, then one brute walk,
    to no size beyond the columns, that tests each shallow word of S_n for
    all six patterns."""
    n_top = _top(Method.CONSTRUCTIVE, 10, max_n, caps)
    sizes = tuple(range(1, n_top + 1))
    built = [{row.n: row.count for row in count(CountQuery(sizes, _AVOID[name]), caps).rows}
             for name, _ in _TOTAL_ORACLES]
    b_top = min(_top(Method.BRUTE_FORCE, 9, max_n, caps), n_top)
    brute = _tally(brute_shallow_words, range(1, b_top + 1), len(built),
                   lambda p: tuple([avoids(p, _AVOID[name]) for name, _ in _TOTAL_ORACLES]))
    return _rows(
        built,
        [(f"t_n({name}) vs {oracle}", oracle_values(oracle, max(n_top, 0)))
         for name, oracle in _TOTAL_ORACLES],
    ) + _rows(
        brute,
        [(f"t_n({name}) brute vs constructive ", column.get)
         for (name, _), column in zip(_TOTAL_ORACLES, built)],
    )


# ------------------------------------------------------------------- descents


@partial(Check, Method.CONSTRUCTIVE)
def check_descents(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    """The descent refinements to size 9, then the Grassmannian counts to size
    10 read from the same 321 table: a word with at most one descent avoids 321."""
    n_top = _top(Method.CONSTRUCTIVE, 9, max_n, caps)
    g_top = _top(Method.CONSTRUCTIVE, 10, max_n, caps)
    tables = {
        name: descent_table(g_top if name == "321" else n_top, PATTERNS[name], caps)
        for name in ("132", "321", "231")
    }
    pairs = [
        dataclasses.replace(p, label=f"descents({name}) vs {p.label}")
        for name, oracle in (("132", "DescBinom132"), ("321", "A321xz"), ("231", "T231xt"))
        for p in verify(tables[name], oracle).pairs
        if p.n <= n_top
    ]
    rows = tables["321"].rows
    from_series = oracle_values("Grassmannian", max(g_top, 0))
    for n in range(2, g_top + 1):
        via_table = sum(row.count for row in rows if row.n == n and row.k <= 1)
        expected = series.binomial(n + 1, 3) + 1
        pairs += [
            VerificationPair(f"grassmannian via 321 descent table [{n}]", n, via_table, expected),
            VerificationPair(
                f"Grassmannian series vs binomial formula [{n}]", n, from_series(n), expected
            ),
        ]
    return pairs


# ------------------------------------------------------------------- symmetry


@partial(Check, Method.CONSTRUCTIVE)
def check_symmetry(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    """Each class's query walks its tree once per size; a word tallies
    whether it avoids the pattern of each row of its class."""
    top = _top(Method.CONSTRUCTIVE, 10, max_n, caps)
    columns = {}
    for cls in SymmetryClass:
        names = [name for name, c, _ in _SYMMETRY_ORACLES if c is cls]
        tallied = _tally(_query(symmetry=cls), range(1, top + 1), len(names),
                         lambda p: tuple([avoids(p, _AVOID[name]) for name in names]))
        columns.update(((name, cls), column) for name, column in zip(names, tallied))
    return _rows([columns[name, cls] for name, cls, _ in _SYMMETRY_ORACLES],
                 [(f"{name} {cls.value} vs {oracle}", oracle_values(oracle, max(top, 0)))
                  for name, cls, oracle in _SYMMETRY_ORACLES])


# -------------------------------------------------------------------- closure


check_decider_equivalence = _per_size(
    Method.BRUTE_FORCE, all_perms, 8, "decider equivalence violations ",
    lambda p: is_shallow(p) != certify_shallow(p).verdict)

check_symmetry_closure = _per_size(
    Method.CONSTRUCTIVE, _query(), 7, "symmetry closure violations ",
    lambda p: sum(not is_shallow(apply_symmetry(p, kind)) for kind in SymmetryKind))


@partial(Check, Method.CONSTRUCTIVE)
def check_direct_sum_closure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    total = _top(Method.CONSTRUCTIVE, 8, max_n, caps)
    small = [list(generate_shallow(n)) for n in range(total // 2 + 1)]
    bad = 0
    for m in range(total + 1):
        # Each pair of sizes is met once, at the larger size m; the smaller
        # one is at most total // 2, so only those sizes are kept in lists.
        partners = [q for level in small[: min(m, total - m) + 1] for q in level]
        for p in small[m] if m < len(small) else generate_shallow(m):
            for q in partners:
                bad += not is_shallow(direct_sum(p, q))
                if len(q) < m:
                    bad += not is_shallow(direct_sum(q, p))
    return [VerificationPair(f"direct-sum closure violations [|p|+|q|<={total}]", None, bad, 0)]


check_wrap_equivalence = _per_size(
    Method.BRUTE_FORCE, all_perms, 7, "wrap equivalence violations ",
    lambda p: is_shallow(wrap_n1(p)) != is_shallow(p))

check_decreasing = _per_size(
    Method.CONSTRUCTIVE, lambda n: (decreasing(n),), 12, "decreasing permutation not shallow ",
    lambda p: not is_shallow(p), summed=True)


@partial(Check, Method.CONSTRUCTIVE)
def check_skew_families(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    top = _top(Method.CONSTRUCTIVE, 5, max_n, caps)
    rng = range(top + 1)
    d = decreasing
    family = (
        [skew_sum((2, 1), direct_sum(d(j), d(k))) for j in rng for k in rng]
        + [skew_sum(d(i), direct_sum(identity(1), d(k))) for i in rng for k in rng]
        + [skew_sum(d(i), direct_sum(d(j), identity(1))) for i in rng for j in rng]
    )
    bad = sum(not is_shallow(p) for p in family)
    return [VerificationPair(f"decreasing-block family violations [params<={top}]", None, bad, 0)]


def _boolean_disagreement(p: Perm) -> bool:
    shallow = is_shallow(p)
    no321 = avoids(p, _AVOID["321"])
    a = shallow and no321
    b = no321 and avoids(p, _AVOID_3412)
    c = shallow and achieves_upper_bound(p)
    return not (a == b == c)


check_boolean_coincidence = _per_size(
    Method.BRUTE_FORCE, all_perms, 8, "boolean coincidence violations ", _boolean_disagreement)

check_descent_inverse = _per_size(
    Method.BRUTE_FORCE, all_perms, 7, "132 descent/inverse violations ",
    lambda p: avoids(p, _AVOID["132"]) and descent_count(p) != descent_count(inverse(p)),
    summed=True)


def _321_tail_broken(p: Perm) -> bool:
    """For a 321-avoider p: n is followed by two entries or more, and some
    1-based position k beyond the first of them does not hold k - 1."""
    n = len(p)
    j = p.index(n) + 1
    return j < n - 1 and (
        p[-1] != n - 1 or any(p[k - 1] != k - 1 for k in range(j + 2, n + 1))
    )


check_321_tail_structure = _per_size(
    Method.CONSTRUCTIVE, _query(_AVOID["321"]), 9, "321 tail structure violations ",
    _321_tail_broken, first=2, summed=True)

check_123_interior_count = _per_size(
    Method.CONSTRUCTIVE, _query(_AVOID["123"]), 10, "123 avoiders with interior extremes ",
    lambda p: p[0] != len(p) and p[-1] != 1,
    first=3, expected=lambda n: 2 * series.binomial(n - 1, 3) + n - 1)

check_leading_pair_231 = _per_size(
    Method.CONSTRUCTIVE, _query(), 10, "231 avoiders led by top pair ",
    lambda p: p[0] == len(p) and p[1] == len(p) - 1 and avoids(p, _AVOID["231"]),
    first=5, expected=lambda n: series.closed_form("231_leading_pair", n))


# ----------------------------------------------------------------------- mesh


check_mesh_necessary = _per_size(
    Method.CONSTRUCTIVE, _query(), 8, "shallow anchored-3412 violations ",
    lambda p: not avoids(p, _AVOID_ANCHORED_3412))


@partial(Check, Method.BRUTE_FORCE)
def check_mesh_counterexample(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _top(Method.BRUTE_FORCE, caps.brute_force, max_n, caps)
    witness = search_mesh_counterexample(n_top, caps)
    if witness is None:
        label = f"mesh counterexample search (n <= {n_top}): none found"
    else:
        label = (
            f"mesh counterexample search (n <= {n_top}): witness "
            f"{format_permutation(witness)} self-verified"
        )
    return [VerificationPair(label)]


# ---------------------------------------------------------------- exploratory


@partial(Check, Method.CONSTRUCTIVE)
def check_profiles(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _top(Method.CONSTRUCTIVE, 8, max_n, caps)
    pairs: list[VerificationPair] = []
    for n in range(1, n_top + 1):
        pair = profile(n, caps)
        expected = series.fibonacci(2 * n - 1)
        state = "consistent" if pair.consistent else "inconsistent"
        pairs += [
            VerificationPair(f"profile total 132 side [{n}]", n, pair.left.total(), expected),
            VerificationPair(f"profile total 321 side [{n}]", n, pair.right.total(), expected),
            VerificationPair(f"finding: joint statistic profiles {state} at n={n}"),
        ]
    return pairs


SUITES: dict[str, tuple[Check, ...]] = {
    "table1": (check_table1,),
    "descents": (check_descents,),
    "symmetry": (check_symmetry,),
    "closure": (
        check_decider_equivalence,
        check_symmetry_closure,
        check_direct_sum_closure,
        check_wrap_equivalence,
        check_decreasing,
        check_skew_families,
        check_boolean_coincidence,
        check_descent_inverse,
        check_321_tail_structure,
        check_123_interior_count,
        check_leading_pair_231,
    ),
    "mesh": (check_mesh_necessary, check_mesh_counterexample),
}
SUITES["all"] = (
    SUITES["table1"]
    + SUITES["descents"]
    + SUITES["symmetry"]
    + SUITES["closure"]
    + SUITES["mesh"]
    + (check_profiles,)
)

def run_suite(
    name: str, max_n: Optional[int] = None, caps: Caps = DEFAULT_CAPS
) -> VerificationReport:
    """Run a named suite and aggregate its rows into one report; a max_n
    beyond the cap of any check's method in the suite raises SizeCapExceeded first."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if max_n is not None:
        methods = {check.method for check in SUITES[name]}
        tightest = min(methods, key=lambda m: (caps.limit(m), m.value))
        caps.check(tightest, "max_n", max_n)
    pairs: list[VerificationPair] = []
    for check in SUITES[name]:
        pairs.extend(check(max_n, caps))
    return VerificationReport(tuple(pairs))
