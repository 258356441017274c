"""Acceptance gate: every criterion at its stated size, exact equality.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in
captured output) and then asserts. The checks delegate to the same suite
functions ``shallowperm verify`` runs, invoked here at the acceptance
sizes; criteria without a suite counterpart are spelled out inline.
"""
from fractions import Fraction

import pytest

from shallowperm import series
from shallowperm.enumeration import DEFAULT_CAPS, profile, search_mesh_counterexample
from shallowperm.patterns import POSITION_ANCHORED_3412, VALUE_ANCHORED_3412, avoids
from shallowperm.series import coefficient, fibonacci, multiply_by_polynomial
from shallowperm.shallow import is_shallow
from shallowperm.suites import (
    check_123_interior_count,
    check_321_tail_structure,
    check_boolean_coincidence,
    check_decider_equivalence,
    check_decreasing,
    check_descent_inverse,
    check_descents,
    check_direct_sum_closure,
    check_leading_pair_231,
    check_mesh_necessary,
    check_skew_families,
    check_symmetry,
    check_symmetry_closure,
    check_table1,
    check_wrap_equivalence,
)


def _report(criterion: str, pairs) -> None:
    failures = [p for p in pairs if not p.match]
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({len(pairs)} checks)")
    for p in failures[:10]:
        print(f"  mismatch: {p.label}: observed {p.table_value}, expected {p.oracle_value}")
    assert not failures


def test_criterion_1_decider_equivalence():
    pairs = check_decider_equivalence(8, DEFAULT_CAPS)
    _report("1 decider equivalence n<=8", pairs)


def test_criterion_2_table1_reproduction():
    pairs = check_table1(None, DEFAULT_CAPS)
    constructive = [p for p in pairs if "brute" not in p.label]
    cross = [p for p in pairs if "brute" in p.label]
    assert {p.n for p in constructive} == set(range(1, 11))
    assert {p.n for p in cross} == set(range(1, 10))
    _report("2 Table 1 totals n<=10 (brute cross-check n<=9)", pairs)


@pytest.fixture(scope="module")
def descents_rows():
    """One run of the descents check: its refinement rows, then its Grassmannian rows."""
    pairs = check_descents(None, DEFAULT_CAPS)
    refined = [p for p in pairs if p.label.startswith("descents(")]
    return refined, [p for p in pairs if not p.label.startswith("descents(")]


def test_criterion_3_descent_refinements(descents_rows):
    pairs, _ = descents_rows
    assert {p.n for p in pairs} == set(range(1, 10))
    _report("3 descent refinements n<=9", pairs)


def test_criterion_4_grassmannian(descents_rows):
    _, pairs = descents_rows
    assert {p.n for p in pairs} == set(range(2, 11))
    _report("4 grassmannian counts 2<=n<=10", pairs)


def test_criterion_5_symmetry_classes():
    pairs = check_symmetry(10, DEFAULT_CAPS)
    assert {p.n for p in pairs} == set(range(1, 11))
    assert len(pairs) == 12 * 10
    _report("5 symmetry classes n<=10", pairs)


def test_criterion_6_structural_identities():
    pairs = (
        check_leading_pair_231(10, DEFAULT_CAPS)
        + check_123_interior_count(10, DEFAULT_CAPS)
        + check_321_tail_structure(9, DEFAULT_CAPS)
    )
    _report("6 structural counting identities", pairs)


def test_criterion_7_closure_suites():
    pairs = (
        check_symmetry_closure(7, DEFAULT_CAPS)
        + check_direct_sum_closure(8, DEFAULT_CAPS)
        + check_wrap_equivalence(7, DEFAULT_CAPS)
        + check_decreasing(12, DEFAULT_CAPS)
        + check_skew_families(5, DEFAULT_CAPS)
        + check_mesh_necessary(8, DEFAULT_CAPS)
        + check_boolean_coincidence(8, DEFAULT_CAPS)
        + check_descent_inverse(7, DEFAULT_CAPS)
    )
    _report("7 closure and property suites", pairs)


def _rows_to_order(rows, order):
    """Rows of statistic-power -> coefficient dicts up to the order, zeros dropped."""
    padded = list(rows[: order + 1]) + [{}] * (order + 1 - len(rows))
    return [{e: c for e, c in row.items() if c} for row in padded]


def _times_rows(dense_rows, denominator, order):
    """The product of a bivariate expansion and a denominator, up to the order."""
    out = [{} for _ in range(order + 1)]
    for i, row in enumerate(dense_rows):
        for j, d in enumerate(denominator[: order + 1 - i]):
            for k, a in enumerate(row):
                for e, b in d.items():
                    out[i + j][k + e] = out[i + j].get(k + e, 0) + a * b
    return _rows_to_order(out, order)


def test_criterion_8_series_integrity():
    problems = []
    for name, entry in series.CATALOG.items():
        expansion = entry.build(12)
        if entry.kind == "univariate":
            product = multiply_by_polynomial(expansion, entry.denominator)
            padded = tuple(Fraction(c) for c in entry.numerator) + (Fraction(0),) * (
                13 - len(entry.numerator)
            )
            if product != padded:
                problems.append(f"{name}: expansion times denominator != numerator")
            values = [coefficient(expansion, n) for n in range(13)]
            if not all(v.denominator == 1 and v >= 0 for v in values):
                problems.append(f"{name}: non-integral or negative coefficient")
        else:
            # Building at order 12 already rejects negative statistic powers
            # and non-integral entries; the product must give back the
            # numerator rows.
            product = _times_rows(expansion.rows, entry.denominator, 12)
            if product != _rows_to_order(entry.numerator, 12):
                problems.append(f"{name}: expansion times denominator != numerator")
            if any(v < 0 for row in expansion.rows for v in row):
                problems.append(f"{name}: negative entry")
            if len(expansion.rows) != 13:
                problems.append(f"{name}: wrong order")
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE 8 series integrity at order 12: {status}")
    assert not problems, problems


def test_criterion_9_exploratory_findings():
    flags = {}
    for n in range(1, 9):
        pair = profile(n)
        expected = fibonacci(2 * n - 1)
        assert pair.left.total() == pair.right.total() == expected
        flags[n] = pair.consistent
    witness = search_mesh_counterexample(10)
    assert witness is not None
    assert not is_shallow(witness)
    assert avoids(witness, (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412))
    print(
        "ACCEPTANCE 9 exploratory: PASS "
        f"(profile consistency flags {flags}; mesh witness {witness})"
    )
