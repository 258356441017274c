"""Named verification suites bundling the library's cross-checks.

Each check is a declaration: its walks, its default top size, and either a
feature function with rows of a label and an expected value per size (a
catalog series, a closed form, or zero violations), or the function that
computes its rows. A walk is the stream of permutations visited at one size,
and one cap bounds it. A direct call clamps max_n to its walks' caps;
run_suite rejects a max_n beyond any cap of the suite's walks. The ``all``
suite is the single entry point CI runs.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

from . import series
from .enumeration import (
    DEFAULT_CAPS, Caps, Method, SizeCapExceeded, VerificationPair, VerificationReport,
    all_perms, brute_shallow_words, descent_table, oracle_values, profile,
    search_mesh_counterexample, verify,
)
from .patterns import POSITION_ANCHORED_3412, VALUE_ANCHORED_3412, avoids, classical
from .perms import (
    Perm, SymmetryClass, SymmetryKind, apply_symmetry, decreasing, descent_count, direct_sum,
    format_permutation, identity, inverse, skew_sum,
)
from .shallow import (
    achieves_upper_bound, certify_shallow, generate_321_avoiding, generate_shallow,
    generate_symmetric, is_shallow, wrap_n1,
)

PATTERNS = {
    name: classical(tuple(int(c) for c in name))
    for name in ("123", "132", "213", "231", "312", "321")
}

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

# Each walk's stream at size n (the shallow generator, the trees of the
# 321-avoiders and of each symmetry class, brute force, all of S_n, the
# decreasing word) and the method whose cap bounds it. Brute force reads
# brute_shallow_words, which decides I + T = D from figures carried down the
# prefix tree of S_n, without is_shallow. The streams look their generator
# or walk up as they run, so a traced or patched one is the one used.
WALKS: dict[str, tuple[Callable[[int], Iterable[Perm]], Method]] = {
    "shallow": (lambda n: generate_shallow(n), Method.CONSTRUCTIVE),
    "321": (lambda n: generate_321_avoiding(n), Method.CONSTRUCTIVE),
    **{cls.value: (lambda n, cls=cls: generate_symmetric(n, cls), Method.CONSTRUCTIVE)
       for cls in SymmetryClass},
    "brute": (lambda n: brute_shallow_words(n), Method.BRUTE_FORCE),
    "all": (all_perms, Method.BRUTE_FORCE),
    "decreasing": (lambda n: (decreasing(n),), Method.CONSTRUCTIVE),
}


def _cap(walk: str, caps: Caps) -> tuple[int, str]:
    """The largest size the walk may visit under caps, and that cap's name."""
    method = WALKS[walk][1]
    return caps.limit(method), method.value


def _top(walk: str, default: int, max_n: Optional[int], caps: Caps) -> int:
    """A check's top size: max_n, else its default, within the walk's cap."""
    return min(default if max_n is None else max_n, _cap(walk, caps)[0])


def _zero(n: int) -> int:
    """The expected value of a violation row."""
    return 0


# ---------------------------------------------------------------- oracle tables


def _tally(walk: str, sizes: Iterable[int], features: Callable[[Perm], tuple]) -> dict:
    """One pass of the walk per size, counting how often each features(p) occurs."""
    stream = WALKS[walk][0]
    return {n: Counter(map(features, stream(n))) for n in sizes}


def _column(tally: dict, i: int) -> dict[int, int]:
    """Entry i of features(p), summed over the walk at each size."""
    return {n: sum(f[i] * m for f, m in counts.items()) for n, counts in tally.items()}


def _rows(
    tally: dict, rows: Iterable[Row], summed_to: Optional[int] = None
) -> list[VerificationPair]:
    """Row i observes column i of the tally at each size or, given the top
    size summed_to, once in total over the sizes."""
    pairs = []
    for i, (stem, expected) in enumerate(rows):
        column = _column(tally, i)
        if summed_to is None:
            pairs += [VerificationPair(f"{stem}[{n}]", n, seen, expected(n))
                      for n, seen in column.items()]
        else:
            pairs.append(VerificationPair(f"{stem}[n<={summed_to}]", None,
                                          sum(column.values()), sum(map(expected, column))))
    return pairs


@dataclasses.dataclass(frozen=True)
class Check:
    """A suite check, called as check(max_n, caps) for its rows.

    A tally check walks each size from first to its top size (see _top) and
    counts features(p), one entry per row of rows(top); with summed, each
    row is one total over the sizes. Any other check computes its rows.
    """

    walks: tuple[str, ...]
    top: Optional[int] = None
    first: int = 0
    features: Optional[Callable[[Perm], tuple]] = None
    rows: Optional[Callable[[int], Sequence[Row]]] = None
    summed: bool = False
    compute: Optional[Callable[[Optional[int], Caps], list[VerificationPair]]] = None

    def __call__(self, max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
        if self.compute is not None:
            return self.compute(max_n, caps)
        (walk,) = self.walks
        top = _top(walk, self.top, max_n, caps)
        tally = _tally(walk, range(self.first, top + 1), self.features)
        return _rows(tally, self.rows(top), top if self.summed else None)


def _declare(*walks: str) -> Callable[[Callable], Check]:
    """Declare the walks of a check whose rows are not a tally."""
    return lambda compute: Check(walks, compute=compute)


# --------------------------------------------------------------------- table1


def _avoidance(p: Perm) -> tuple[bool, ...]:
    return tuple([avoids(p, _AVOID[name]) for name, _ in _TOTAL_ORACLES])


@_declare("shallow", "brute")
def check_table1(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _top("shallow", 10, max_n, caps)
    built = _tally("shallow", range(1, n_top + 1), _avoidance)
    brute = _tally("brute", range(1, _top("brute", 9, max_n, caps) + 1), _avoidance)
    return _rows(
        built,
        [(f"t_n({name}) vs {oracle}", oracle_values(oracle, max(n_top, 0)))
         for name, oracle in _TOTAL_ORACLES],
    ) + _rows(
        brute,
        [(f"t_n({name}) brute vs constructive ", _column(built, i).get)
         for i, (name, _) in enumerate(_TOTAL_ORACLES)],
    )


# ------------------------------------------------------------------- descents


@_declare("shallow")
def check_descents(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    """The descent refinements to size 9, then the Grassmannian counts to size
    10 read from the same 321 table: a word with at most one descent avoids 321."""
    n_top = _top("shallow", 9, max_n, caps)
    g_top = _top("shallow", 10, max_n, caps)
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


@_declare(*(cls.value for cls in SymmetryClass))
def check_symmetry(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    """Each class's tree walked once per size; a word tallies whether it
    avoids the pattern of each row of its class, and 0 for other rows."""
    top = _top("involution", 10, max_n, caps)
    sizes = range(1, top + 1)
    tally = {n: Counter() for n in sizes}
    for cls in SymmetryClass:
        def features(p: Perm, cls: SymmetryClass = cls) -> tuple[bool, ...]:
            return tuple([c is cls and avoids(p, _AVOID[name]) for name, c, _ in _SYMMETRY_ORACLES])

        for n, counts in _tally(cls.value, sizes, features).items():
            tally[n].update(counts)
    return _rows(tally, [(f"{name} {cls.value} vs {oracle}", oracle_values(oracle, max(top, 0)))
                         for name, cls, oracle in _SYMMETRY_ORACLES])


# -------------------------------------------------------------------- closure


check_decider_equivalence = Check(
    ("all",), 8, features=lambda p: (is_shallow(p) != certify_shallow(p).verdict,),
    rows=lambda top: [("decider equivalence violations ", _zero)])

check_symmetry_closure = Check(
    ("shallow",), 7, rows=lambda top: [("symmetry closure violations ", _zero)],
    features=lambda p: (sum(not is_shallow(apply_symmetry(p, kind)) for kind in SymmetryKind),))


@_declare("shallow")
def check_direct_sum_closure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    total = _top("shallow", 8, max_n, caps)
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


check_wrap_equivalence = Check(
    ("all",), 7, features=lambda p: (is_shallow(wrap_n1(p)) != is_shallow(p),),
    rows=lambda top: [("wrap equivalence violations ", _zero)])

check_decreasing = Check(
    ("decreasing",), 12, features=lambda p: (not is_shallow(p),), summed=True,
    rows=lambda top: [("decreasing permutation not shallow ", _zero)])


@_declare("decreasing")
def check_skew_families(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    top = _top("decreasing", 5, max_n, caps)
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
    no321 = avoids(p, _AVOID["321"])
    a = is_shallow(p) and no321
    b = no321 and avoids(p, _AVOID_3412)
    c = is_shallow(p) and achieves_upper_bound(p)
    return not (a == b == c)


check_boolean_coincidence = Check(
    ("all",), 8, features=lambda p: (_boolean_disagreement(p),),
    rows=lambda top: [("boolean coincidence violations ", _zero)])

check_descent_inverse = Check(
    ("all",), 7, rows=lambda top: [("132 descent/inverse violations ", _zero)], summed=True,
    features=lambda p: (
        avoids(p, _AVOID["132"]) and descent_count(p) != descent_count(inverse(p)),
    ))


def _321_tail_broken(p: Perm) -> bool:
    """For a 321-avoider p: n is followed by two entries or more, and some
    1-based position k beyond the first of them does not hold k - 1."""
    n = len(p)
    j = p.index(n) + 1
    return j < n - 1 and (
        p[-1] != n - 1 or any(p[k - 1] != k - 1 for k in range(j + 2, n + 1))
    )


check_321_tail_structure = Check(
    ("321",), 9, first=2, features=lambda p: (_321_tail_broken(p),), summed=True,
    rows=lambda top: [("321 tail structure violations ", _zero)])

check_123_interior_count = Check(
    ("shallow",), 10, first=3,
    features=lambda p: (p[0] != len(p) and p[-1] != 1 and avoids(p, _AVOID["123"]),),
    rows=lambda top: [("123 avoiders with interior extremes ",
                       lambda n: 2 * series.binomial(n - 1, 3) + n - 1)])

check_leading_pair_231 = Check(
    ("shallow",), 10, first=5,
    features=lambda p: (p[0] == len(p) and p[1] == len(p) - 1 and avoids(p, _AVOID["231"]),),
    rows=lambda top: [("231 avoiders led by top pair ",
                       lambda n: series.closed_form("231_leading_pair", n))])


# ----------------------------------------------------------------------- mesh


check_mesh_necessary = Check(
    ("shallow",), 8, features=lambda p: (not avoids(p, _AVOID_ANCHORED_3412),),
    rows=lambda top: [("shallow anchored-3412 violations ", _zero)])


@_declare("all")
def check_mesh_counterexample(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _top("all", caps.brute_force, max_n, caps)
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


@_declare("shallow")
def check_profiles(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _top("shallow", 8, max_n, caps)
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

# Each suite's walks, read once as plain strings: tracing swaps the checks
# in SUITES for wrappers but leaves strings alone.
_SUITE_WALKS = {
    name: {walk for check in checks for walk in check.walks} for name, checks in SUITES.items()
}


def run_suite(
    name: str, max_n: Optional[int] = None, caps: Caps = DEFAULT_CAPS
) -> VerificationReport:
    """Run a named suite and aggregate its rows into one report; a max_n
    beyond the cap of any walk in the suite raises SizeCapExceeded first."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    if max_n is not None:
        limit, cap_name = min(_cap(walk, caps) for walk in _SUITE_WALKS[name])
        if max_n > limit:
            raise SizeCapExceeded(f"max_n {max_n} beyond the {cap_name} cap {limit}")
    pairs: list[VerificationPair] = []
    for check in SUITES[name]:
        pairs.extend(check(max_n, caps))
    return VerificationReport(tuple(pairs))
