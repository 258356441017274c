"""Named verification suites bundling the library's cross-checks.

Each suite produces a VerificationReport whose rows compare an enumerated
value against an independent oracle (a catalog series, a closed form, or
zero expected violations of a structural property). The ``all`` suite is
the single entry point CI runs.

Every check has a stated default size; passing max_n clamps or extends
the size-parametric checks, while hard enumeration caps still apply.
"""
from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional

from . import series
from .enumeration import (
    Caps,
    CountQuery,
    DEFAULT_CAPS,
    Method,
    VerificationPair,
    VerificationReport,
    all_perms,
    count,
    descent_table,
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
    SymmetryClass,
    SymmetryKind,
    apply_symmetry,
    decreasing,
    descent_count,
    direct_sum,
    format_permutation,
    identity,
    inverse,
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

Check = Callable[[Optional[int], Caps], list[VerificationPair]]


def _size(default: int, max_n: Optional[int], cap: int) -> int:
    return min(default if max_n is None else max_n, cap)


def _relabel(pairs: Iterable[VerificationPair], prefix: str) -> list[VerificationPair]:
    return [dataclasses.replace(p, label=f"{prefix} {p.label}") for p in pairs]


# --------------------------------------------------------------------- table1


def check_table1(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    sizes = tuple(range(1, n_top + 1))
    pairs: list[VerificationPair] = []
    constructive: dict[str, dict[int, int]] = {}
    for name, oracle in _TOTAL_ORACLES:
        table = count(
            CountQuery(sizes=sizes, avoid=(PATTERNS[name],), method=Method.CONSTRUCTIVE),
            caps,
        )
        constructive[name] = {row.n: row.count for row in table.rows}
        pairs.extend(_relabel(verify(table, oracle).pairs, f"t_n({name}) vs"))
    n_brute = _size(9, max_n, caps.brute_force)
    if n_brute >= 1:
        brute_sizes = tuple(range(1, n_brute + 1))
        for name, _ in _TOTAL_ORACLES:
            table = count(
                CountQuery(
                    sizes=brute_sizes,
                    avoid=(PATTERNS[name],),
                    method=Method.BRUTE_FORCE,
                ),
                caps,
            )
            pairs.extend(
                VerificationPair(
                    f"t_n({name}) brute vs constructive [{row.n}]",
                    row.n,
                    row.count,
                    constructive[name][row.n],
                )
                for row in table.rows
            )
    return pairs


# ------------------------------------------------------------------- descents


def check_descents(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(9, max_n, caps.constructive)
    pairs: list[VerificationPair] = []
    for name, oracle in (("132", "DescBinom132"), ("321", "A321xz"), ("231", "T231xt")):
        table = descent_table(n_top, PATTERNS[name], caps)
        pairs.extend(_relabel(verify(table, oracle).pairs, f"descents({name}) vs"))
    return pairs


def check_grassmannian(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    if n_top < 2:
        return []
    table = descent_table(n_top, PATTERNS["321"], caps)
    by_n: dict[int, int] = {}
    for row in table.rows:
        if row.k is not None and row.k <= 1:
            by_n[row.n] = by_n.get(row.n, 0) + row.count
    expansion = series.catalog("Grassmannian", n_top)
    pairs = []
    for n in range(2, n_top + 1):
        expected = series.binomial(n + 1, 3) + 1
        pairs.append(
            VerificationPair(
                f"grassmannian via 321 descent table [{n}]", n, by_n.get(n, 0), expected
            )
        )
        from_series = int(series.coefficient(expansion, n))
        pairs.append(
            VerificationPair(
                f"Grassmannian series vs binomial formula [{n}]", n, from_series, expected
            )
        )
    return pairs


# ------------------------------------------------------------------- symmetry


def check_symmetry(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    sizes = tuple(range(1, n_top + 1))
    pairs: list[VerificationPair] = []
    for name, cls, oracle in _SYMMETRY_ORACLES:
        table = count(
            CountQuery(
                sizes=sizes,
                avoid=(PATTERNS[name],),
                symmetry=cls,
                method=Method.CONSTRUCTIVE,
            ),
            caps,
        )
        pairs.extend(
            _relabel(verify(table, oracle).pairs, f"{name} {cls.value} vs")
        )
    return pairs


# -------------------------------------------------------------------- closure


def check_decider_equivalence(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(8, max_n, caps.brute_force)
    pairs = []
    for n in range(n_top + 1):
        bad = sum(
            1 for p in all_perms(n) if is_shallow(p) != certify_shallow(p).verdict
        )
        pairs.append(VerificationPair(f"decider equivalence violations [{n}]", n, bad, 0))
    return pairs


def check_symmetry_closure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(7, max_n, caps.constructive)
    pairs = []
    for n in range(n_top + 1):
        bad = 0
        for p in generate_shallow(n):
            for kind in SymmetryKind:
                if not is_shallow(apply_symmetry(p, kind)):
                    bad += 1
        pairs.append(VerificationPair(f"symmetry closure violations [{n}]", n, bad, 0))
    return pairs


def check_direct_sum_closure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    total = _size(8, max_n, caps.constructive)
    levels = {n: list(generate_shallow(n)) for n in range(total + 1)}
    bad = 0
    for a in range(total + 1):
        for b in range(total + 1 - a):
            for p in levels[a]:
                for q in levels[b]:
                    if not is_shallow(direct_sum(p, q)):
                        bad += 1
    return [VerificationPair(f"direct-sum closure violations [|p|+|q|<={total}]", None, bad, 0)]


def check_wrap_equivalence(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(7, max_n, caps.brute_force)
    pairs = []
    for n in range(n_top + 1):
        bad = sum(
            1 for p in all_perms(n) if is_shallow(wrap_n1(p)) != is_shallow(p)
        )
        pairs.append(VerificationPair(f"wrap equivalence violations [{n}]", n, bad, 0))
    return pairs


def check_decreasing(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(12, max_n, caps.constructive)
    bad = sum(1 for n in range(n_top + 1) if not is_shallow(decreasing(n)))
    return [VerificationPair(f"decreasing permutation not shallow [n<={n_top}]", None, bad, 0)]


def check_skew_families(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    top = _size(5, max_n, caps.constructive)
    bad = 0
    rng = range(top + 1)
    for j in rng:
        for k in rng:
            if not is_shallow(skew_sum((2, 1), direct_sum(decreasing(j), decreasing(k)))):
                bad += 1
    for i in rng:
        for k in rng:
            if not is_shallow(skew_sum(decreasing(i), direct_sum(identity(1), decreasing(k)))):
                bad += 1
    for i in rng:
        for j in rng:
            if not is_shallow(skew_sum(decreasing(i), direct_sum(decreasing(j), identity(1)))):
                bad += 1
    return [VerificationPair(f"decreasing-block family violations [params<={top}]", None, bad, 0)]


def check_boolean_coincidence(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(8, max_n, caps.brute_force)
    spec321 = PATTERNS["321"]
    spec3412 = classical((3, 4, 1, 2))
    pairs = []
    for n in range(n_top + 1):
        bad = 0
        for p in all_perms(n):
            no321 = avoids(p, (spec321,))
            a = is_shallow(p) and no321
            b = no321 and avoids(p, (spec3412,))
            c = is_shallow(p) and achieves_upper_bound(p)
            if not (a == b == c):
                bad += 1
        pairs.append(VerificationPair(f"boolean coincidence violations [{n}]", n, bad, 0))
    return pairs


def check_descent_inverse(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(7, max_n, caps.brute_force)
    spec = PATTERNS["132"]
    bad = 0
    for n in range(n_top + 1):
        for p in all_perms(n):
            if avoids(p, (spec,)) and descent_count(p) != descent_count(inverse(p)):
                bad += 1
    return [VerificationPair(f"132 descent/inverse violations [n<={n_top}]", None, bad, 0)]


def check_321_tail_structure(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(9, max_n, caps.constructive)
    spec = PATTERNS["321"]
    bad = 0
    for n in range(2, n_top + 1):
        for p in generate_shallow(n):
            if not avoids(p, (spec,)):
                continue
            j = p.index(n) + 1
            if j < n - 1:
                if p[-1] != n - 1 or any(p[k - 1] != k - 1 for k in range(j + 2, n + 1)):
                    bad += 1
    return [VerificationPair(f"321 tail structure violations [n<={n_top}]", None, bad, 0)]


def check_123_interior_count(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    spec = PATTERNS["123"]
    pairs = []
    for n in range(3, n_top + 1):
        got = sum(
            1
            for p in generate_shallow(n)
            if p[0] != n and p[-1] != 1 and avoids(p, (spec,))
        )
        expected = 2 * series.binomial(n - 1, 3) + (n - 1)
        pairs.append(
            VerificationPair(f"123 avoiders with interior extremes [{n}]", n, got, expected)
        )
    return pairs


def check_leading_pair_231(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(10, max_n, caps.constructive)
    spec = PATTERNS["231"]
    pairs = []
    for n in range(5, n_top + 1):
        got = sum(
            1
            for p in generate_shallow(n)
            if p[0] == n and p[1] == n - 1 and avoids(p, (spec,))
        )
        expected = series.closed_form("231_leading_pair", n)
        pairs.append(
            VerificationPair(f"231 avoiders led by top pair [{n}]", n, got, expected)
        )
    return pairs


# ----------------------------------------------------------------------- mesh


def check_mesh_necessary(max_n: Optional[int], caps: Caps) -> list[VerificationPair]:
    n_top = _size(8, max_n, caps.constructive)
    both = (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412)
    pairs = []
    for n in range(n_top + 1):
        bad = sum(1 for p in generate_shallow(n) if not avoids(p, both))
        pairs.append(VerificationPair(f"shallow anchored-3412 violations [{n}]", n, bad, 0))
    return pairs


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
        for side, prof in (("132 side", pair.left), ("321 side", pair.right)):
            pairs.append(
                VerificationPair(f"profile total {side} [{n}]", n, prof.total(), expected)
            )
        state = "consistent" if pair.consistent else "inconsistent"
        pairs.append(VerificationPair(f"finding: joint statistic profiles {state} at n={n}"))
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
    pairs: list[VerificationPair] = []
    for check in SUITES[name]:
        pairs.extend(check(max_n, caps))
    return report_from_pairs(pairs)
