"""Named verification suites bundling the library's cross-checks.

Each check is an oracle table: rows of a label and an expected value per
size (a catalog series, a closed form, another walk's count, or zero
violations), all observed in one walk per size. A walk is the shallow
generator, brute force (S_n filtered by is_shallow), or all of S_n. The
``all`` suite is the single entry point CI runs.

Every check has a stated default size; passing max_n clamps or extends
the size-parametric checks, while hard enumeration caps still apply.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Callable, Iterable, Iterator, Optional

from . import series
from .enumeration import (
    Caps,
    DEFAULT_CAPS,
    VerificationPair,
    VerificationReport,
    all_perms,
    descent_table,
    oracle_values,
    profile,
    report_from_pairs,
    search_mesh_counterexample,
    verify,
)
from .patterns import (
    POSITION_ANCHORED_3412,
    VALUE_ANCHORED_3412,
    avoids,
    classical,
)
from .perms import (
    Perm,
    SymmetryClass,
    SymmetryKind,
    apply_symmetry,
    decreasing,
    descent_count,
    direct_sum,
    format_permutation,
    identity,
    inverse,
    is_in_class,
    skew_sum,
)
from .shallow import (
    achieves_upper_bound,
    certify_shallow,
    generate_shallow,
    is_shallow,
    wrap_n1,
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

_CLASSES = tuple(SymmetryClass)
_IN_NO_CLASS = (False,) * len(_SYMMETRY_ORACLES)

Check = Callable[[Optional[int], Caps], list[VerificationPair]]
Walk = Callable[[int], Iterator[Perm]]


def _size(default: int, max_n: Optional[int], cap: int) -> int:
    return min(default if max_n is None else max_n, cap)


# ---------------------------------------------------------------- oracle tables


def _brute(n: int) -> Iterator[Perm]:
    """The brute-force oracle walk: S_n filtered by the definitional decider."""
    return filter(is_shallow, all_perms(n))


def _tally(walk: Walk, sizes: Iterable[int], features: Callable[[Perm], tuple]) -> dict:
    """One pass of walk(n) per size, counting how often each features(p) occurs."""
    return {n: Counter(map(features, walk(n))) for n in sizes}


def _column(tally: dict, i: int) -> dict[int, int]:
    """Entry i of features(p), summed over the walk at each size."""
    return {n: sum(f[i] * m for f, m in counts.items()) for n, counts in tally.items()}


def _rows(tally: dict, rows: Iterable[tuple[str, Callable]]) -> list[VerificationPair]:
    """Row i, a (label stem, expected value at n), observes column i of the tally."""
    return [
        VerificationPair(f"{stem}[{n}]", n, observed, expected(n))
        for i, (stem, expected) in enumerate(rows)
        for n, observed in _column(tally, i).items()
    ]


def _violations(
    stem: str, walk: Walk, sizes: Iterable[int], bad: Callable[[Perm], int]
) -> list[VerificationPair]:
    """A zero-expected row per size, counting bad(p) over the walk."""
    return [VerificationPair(f"{stem}[{n}]", n, sum(map(bad, walk(n))), 0) for n in sizes]


# --------------------------------------------------------------------- table1


def _avoidance(p: Perm) -> tuple[bool, ...]:
    return tuple([avoids(p, _AVOID[name]) for name, _ in _TOTAL_ORACLES])


def check_table1(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    built = _tally(generate_shallow, range(1, n_top + 1), _avoidance)
    brute = _tally(_brute, range(1, _size(9, max_n, caps.brute_force) + 1), _avoidance)
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


def check_descents(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(9, max_n, caps.constructive)
    return [
        dataclasses.replace(p, label=f"descents({name}) vs {p.label}")
        for name, oracle in (("132", "DescBinom132"), ("321", "A321xz"), ("231", "T231xt"))
        for p in verify(descent_table(n_top, PATTERNS[name], caps), oracle).pairs
    ]


def check_grassmannian(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    rows = descent_table(n_top, PATTERNS["321"], caps).rows
    from_series = oracle_values("Grassmannian", max(n_top, 0))
    pairs = []
    for n in range(2, n_top + 1):
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


def _symmetry_flags(p: Perm) -> tuple[bool, ...]:
    """Per symmetry oracle: p lies in its class and avoids its pattern."""
    inside = [is_in_class(p, cls) for cls in _CLASSES]
    if True not in inside:
        return _IN_NO_CLASS
    return tuple(
        [inside[_CLASSES.index(cls)] and avoids(p, _AVOID[name])
         for name, cls, _ in _SYMMETRY_ORACLES]
    )


def check_symmetry(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    return _rows(
        _tally(generate_shallow, range(1, n_top + 1), _symmetry_flags),
        [(f"{name} {cls.value} vs {oracle}", oracle_values(oracle, max(n_top, 0)))
         for name, cls, oracle in _SYMMETRY_ORACLES],
    )


# -------------------------------------------------------------------- closure


def check_decider_equivalence(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    return _violations(
        "decider equivalence violations ",
        all_perms,
        range(_size(8, max_n, caps.brute_force) + 1),
        lambda p: is_shallow(p) != certify_shallow(p).verdict,
    )


def check_symmetry_closure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    return _violations(
        "symmetry closure violations ",
        generate_shallow,
        range(_size(7, max_n, caps.constructive) + 1),
        lambda p: sum(not is_shallow(apply_symmetry(p, kind)) for kind in SymmetryKind),
    )


def check_direct_sum_closure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    total = _size(8, max_n, caps.constructive)
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


def check_wrap_equivalence(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    return _violations(
        "wrap equivalence violations ",
        all_perms,
        range(_size(7, max_n, caps.brute_force) + 1),
        lambda p: is_shallow(wrap_n1(p)) != is_shallow(p),
    )


def check_decreasing(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(12, max_n, caps.constructive)
    bad = sum(1 for n in range(n_top + 1) if not is_shallow(decreasing(n)))
    return [VerificationPair(f"decreasing permutation not shallow [n<={n_top}]", None, bad, 0)]


def check_skew_families(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    top = _size(5, max_n, caps.constructive)
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


def check_boolean_coincidence(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    return _violations(
        "boolean coincidence violations ",
        all_perms,
        range(_size(8, max_n, caps.brute_force) + 1),
        _boolean_disagreement,
    )


def check_descent_inverse(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(7, max_n, caps.brute_force)
    bad = sum(
        1
        for n in range(n_top + 1)
        for p in all_perms(n)
        if avoids(p, _AVOID["132"]) and descent_count(p) != descent_count(inverse(p))
    )
    return [VerificationPair(f"132 descent/inverse violations [n<={n_top}]", None, bad, 0)]


def _321_tail_broken(p: Perm) -> bool:
    n = len(p)
    if not avoids(p, _AVOID["321"]):
        return False
    j = p.index(n) + 1
    return j < n - 1 and (
        p[-1] != n - 1 or any(p[k - 1] != k - 1 for k in range(j + 2, n + 1))
    )


def check_321_tail_structure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(9, max_n, caps.constructive)
    bad = sum(_321_tail_broken(p) for n in range(2, n_top + 1) for p in generate_shallow(n))
    return [VerificationPair(f"321 tail structure violations [n<={n_top}]", None, bad, 0)]


def check_123_interior_count(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    tally = _tally(
        generate_shallow,
        range(3, _size(10, max_n, caps.constructive) + 1),
        lambda p: (p[0] != len(p) and p[-1] != 1 and avoids(p, _AVOID["123"]),),
    )
    return _rows(
        tally,
        [("123 avoiders with interior extremes ", lambda n: 2 * series.binomial(n - 1, 3) + n - 1)],
    )


def check_leading_pair_231(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    tally = _tally(
        generate_shallow,
        range(5, _size(10, max_n, caps.constructive) + 1),
        lambda p: (p[0] == len(p) and p[1] == len(p) - 1 and avoids(p, _AVOID["231"]),),
    )
    return _rows(
        tally,
        [("231 avoiders led by top pair ", lambda n: series.closed_form("231_leading_pair", n))],
    )


# ----------------------------------------------------------------------- mesh


def check_mesh_necessary(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    return _violations(
        "shallow anchored-3412 violations ",
        generate_shallow,
        range(_size(8, max_n, caps.constructive) + 1),
        lambda p: not avoids(p, _AVOID_ANCHORED_3412),
    )


def check_mesh_counterexample(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(caps.brute_force, max_n, caps.brute_force)
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


def check_profiles(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(8, max_n, caps.constructive)
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
    "descents": (check_descents, check_grassmannian),
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
    """Run a named suite and aggregate its rows into one report."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if max_n is not None and max_n < 0:
        raise ValueError(f"max_n must be nonnegative, got {max_n}")
    pairs: list[VerificationPair] = []
    for check in SUITES[name]:
        pairs.extend(check(max_n, caps))
    return report_from_pairs(pairs)
