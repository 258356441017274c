import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shallowperm import series
from shallowperm.series import (
    CatalogEntry,
    NegativeDegreeResidue,
    NonIntegerCount,
    OrderExceeded,
    OutOfDomain,
    ZeroConstantTerm,
    binomial,
    catalog,
    catalog_names,
    closed_form,
    coefficient,
    expand_rational,
    fibonacci,
    multiply_by_polynomial,
)


def ints(s):
    return [int(coefficient(s, n)) for n in range(s.order + 1)]


class TestExpand:
    def test_geometric(self):
        assert ints(expand_rational([1], [1, -1], 4)) == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("den", [[0, 1], [], [0]], ids=["no_constant", "empty", "zero"])
    def test_zero_constant_term(self, den):
        with pytest.raises(ZeroConstantTerm):
            expand_rational([1], den, 3)

    def test_fractional_leading_coefficient(self):
        s = expand_rational([1], [2, -1], 2)
        assert s.coefficients == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
    )
    def test_division_round_trip(self, num, den):
        if den[0] == 0:
            den[0] = 1
        order = len(num) + len(den)
        s = expand_rational(num, den, order)
        product = multiply_by_polynomial(s, den)
        padded = tuple(Fraction(c) for c in num) + (Fraction(0),) * (
            order + 1 - len(num)
        )
        assert product == padded


class TestCoefficient:
    def test_order_exceeded(self):
        s = expand_rational([1], [1, -1], 3)
        with pytest.raises(OrderExceeded):
            coefficient(s, 4)

    def test_non_integer_count(self):
        for numerator, denominator, statistic_variable in [
            ((1,), (2, -1), None), (({0: 1},), ({0: 2},), "t"),
        ]:
            bogus = CatalogEntry(
                "bogus", "halves", numerator, denominator, statistic_variable=statistic_variable
            )
            with pytest.raises(NonIntegerCount, match="^bogus: entry \\(0,0\\) is 1/2$"):
                bogus.build(3)

    def test_negative_counting_coefficient(self):
        for numerator, denominator, statistic_variable in [
            ((-1,), (1,), None), (({0: -1},), ({0: 1},), "t"),
        ]:
            bogus = CatalogEntry(
                "bogus", "negative", numerator, denominator, statistic_variable=statistic_variable
            )
            with pytest.raises(NonIntegerCount, match="^bogus: entry \\(0,0\\) is -1$"):
                bogus.build(2)

    def test_constant_term(self):
        s = catalog("T231", 3)
        assert coefficient(s, 0) == 1


class TestNumberHelpers:
    def test_fibonacci(self):
        assert [fibonacci(m) for m in range(1, 10)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]
        assert fibonacci(7) == 13
        assert fibonacci(0) == 0
        assert fibonacci(-1) == 1
        assert fibonacci(-2) == -1

    def test_binomial(self):
        assert binomial(5, 1) == 5
        assert binomial(3, 5) == 0
        assert binomial(4, -1) == 0
        assert binomial(-2, 0) == 0
        assert binomial(6, 3) == 20


class TestUnivariateCatalog:
    def test_t231_coefficients(self):
        assert ints(catalog("T231", 5)) == [1, 1, 2, 5, 14, 41]

    def test_t123_coefficients(self):
        assert ints(catalog("T123", 8)) == [1, 1, 2, 5, 13, 35, 90, 225, 525]

    def test_fibodd(self):
        s = catalog("FibOdd", 8)
        assert ints(s)[1:6] == [1, 2, 5, 13, 34]
        assert all(
            int(coefficient(s, n)) == fibonacci(2 * n - 1) for n in range(1, 9)
        )

    def test_fibodd_recurrence(self):
        s = catalog("FibOdd", 20)
        a = ints(s)
        for n in range(4, 21):
            assert a[n] == 2 * a[n - 1] + 2 * a[n - 2] - a[n - 3]

    def test_grassmannian(self):
        s = catalog("Grassmannian", 8)
        assert int(coefficient(s, 4)) == 11
        assert all(
            int(coefficient(s, n)) == binomial(n + 1, 3) + 1 for n in range(9)
        )

    def test_persymmetric_low_coefficients(self):
        assert ints(catalog("P132", 4))[:4] == [1, 1, 2, 4]
        assert ints(catalog("P231", 4))[:4] == [1, 1, 2, 3]
        assert ints(catalog("P123", 4))[:4] == [1, 1, 2, 3]

    def test_round_trip_against_defining_fraction(self):
        for name, entry in series.CATALOG.items():
            if entry.kind != "univariate":
                continue
            s = entry.build(12)
            product = multiply_by_polynomial(s, entry.denominator)
            padded = tuple(Fraction(c) for c in entry.numerator) + (Fraction(0),) * (
                13 - len(entry.numerator)
            )
            assert product == padded, name

    def test_counting_coefficients_integral(self):
        for name, entry in series.CATALOG.items():
            expansion = entry.build(12)
            if entry.kind == "univariate":
                values = [coefficient(expansion, n) for n in range(13)]
                assert all(v.denominator == 1 and v >= 0 for v in values), name
            else:
                assert all(
                    v >= 0 for row in expansion.rows for v in row
                ), name


class TestBivariateCatalog:
    def test_a321_low_rows(self):
        a = catalog("A321xz", 4)
        assert a.rows == ((0,), (1, 0), (1, 1, 0), (1, 4, 0, 0), (1, 10, 2, 0, 0))
        assert (a.size_variable, a.statistic_variable) == ("z", "x")

    def test_a321_row_sums_are_fibodd(self):
        a = catalog("A321xz", 10)
        assert all(a.row_sum(n) == fibonacci(2 * n - 1) for n in range(1, 11))

    def test_a321_one_descent_column(self):
        a = catalog("A321xz", 10)
        assert all(a.value(n, 1) == binomial(n + 1, 3) for n in range(2, 11))

    def test_c231_low_rows(self):
        c = catalog("C231xt", 5)
        assert c.rows == (
            (0,),
            (0, 0),
            (0, 1, 0),
            (0, 0, 1, 0),
            (0, 0, 1, 1, 0),
            (0, 0, 0, 3, 1, 0),
        )

    def test_c231_row_totals_match_leading_pair_formula(self):
        c = catalog("C231xt", 10)
        assert all(c.row_sum(n) == 3 * n - 11 for n in range(5, 11))
        assert [c.row_sum(n) for n in (2, 3, 4)] == [1, 1, 2]

    def test_t231xt_specializes_to_t231(self):
        t_desc = catalog("T231xt", 10)
        totals = catalog("T231", 10)
        assert all(
            t_desc.row_sum(n) == int(coefficient(totals, n)) for n in range(11)
        )

    def test_desc_binom_132(self):
        d = catalog("DescBinom132", 4)
        assert d.value(4, 1) == 5
        assert d.value(1, 0) == 1
        assert d.rows[0] == (1,)

    def test_value_accessor(self):
        a = catalog("A321xz", 4)
        assert a.value(3, 3) == 0
        assert a.value(2, 2) == 0
        with pytest.raises(OrderExceeded):
            a.value(5, 0)

    def test_row_sum_rejects_negative_size(self):
        a = catalog("A321xz", 6)
        with pytest.raises(ValueError):
            a.value(-1, 0)
        with pytest.raises(ValueError):
            a.row_sum(-1)

    def test_negative_degree_guard(self):
        # A denominator led by t leaves 1/t at x^0; a numerator t^2 puts t^2 there.
        guard = CatalogEntry("guard", "1/t", ({0: 1},), ({1: 1},), statistic_variable="t")
        with pytest.raises(NegativeDegreeResidue, match="^guard: negative t-powers survive at x\\^0"):
            guard.build(2)
        guard = CatalogEntry("guard", "t^2", ({2: 1},), ({0: 1},), statistic_variable="t")
        with pytest.raises(ValueError, match="^guard: statistic degree exceeds size at 0$"):
            guard.build(2)


# Bivariate polynomials as {(size power, statistic power): coefficient}.
def _poly(rows):
    return {(n, e): c for n, row in enumerate(rows) for e, c in row.items() if c}


def _term(x_power, t_power, c=1):
    return {(x_power, t_power): c}


def _add(*terms):
    out = {}
    for term in terms:
        for key, c in term.items():
            out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _mul(f, g):
    terms = (
        _term(a + c, b + d, u * v)
        for (a, b), u in f.items()
        for (c, d), v in g.items()
    )
    return _add(*terms)


class TestCatalogRows:
    """The stored 231 rows against the paper's composition of C, B and T."""

    def test_231_rows_follow_from_the_leading_pair_series(self):
        entries = series.CATALOG
        p, q = _poly(entries["C231xt"].numerator), _poly(entries["C231xt"].denominator)
        n, d = _poly(entries["B231xt"].numerator), _poly(entries["B231xt"].denominator)
        minus_p = _mul(_term(0, 0, -1), p)
        one_minus_xt = _add(_term(0, 0), _term(1, 1, -1))
        assert q == _mul(one_minus_xt, one_minus_xt)
        assert p == _add(
            _mul(_term(4, 2), q), _mul(_term(2, 1), one_minus_xt), _term(5, 3, 3)
        )
        assert n == _add(_mul(_term(1, 1), q), _mul(_term(0, 1), p), minus_p)
        assert _mul(_term(1, 0), d) == _add(_mul(_term(1, 1), q), minus_p)
        assert _poly(entries["T231xt"].numerator) == d
        assert _poly(entries["T231xt"].denominator) == _add(d, _mul(_term(0, 0, -1), n))

    def test_t231xt_at_t_equal_1_is_t231(self):
        def at_t_1(rows):
            values = [sum(row.values()) for row in rows]
            while values and values[-1] == 0:
                values.pop()
            return tuple(values)

        bivariate, univariate = series.CATALOG["T231xt"], series.CATALOG["T231"]
        assert at_t_1(bivariate.numerator) == univariate.numerator
        assert at_t_1(bivariate.denominator) == univariate.denominator

    def test_desc_binom_132_rows_to_the_cap(self):
        rows = catalog("DescBinom132", series.ORDER_CAP).rows
        assert rows[0] == (1,)
        for n in range(1, series.ORDER_CAP + 1):
            assert rows[n] == tuple(binomial(2 * n - 2 - k, k) for k in range(n + 1)), n


class TestCatalogSurface:
    def test_names(self):
        assert set(catalog_names()) == {
            "T231", "T123", "P132", "P231", "P123", "FibOdd", "DescBinom132",
            "A321xz", "C231xt", "B231xt", "T231xt", "Grassmannian",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("T999", 4)

    def test_order_cap(self):
        with pytest.raises(OrderExceeded):
            catalog("T231", series.ORDER_CAP + 1)

    def test_repeated_calls_agree_and_errors_repeat(self):
        for name in catalog_names():
            first = catalog(name, 9)
            assert catalog(name, 9) is first
            assert first == series.CATALOG[name].build(9)
        for _ in range(2):
            with pytest.raises(KeyError):
                catalog("T999")
            with pytest.raises(KeyError):
                catalog("T999", 4)
            with pytest.raises(ValueError):
                catalog("T231", -1)
            with pytest.raises(OrderExceeded):
                catalog("T231", series.ORDER_CAP + 1)

    @pytest.mark.parametrize("name", sorted(series.CATALOG))
    def test_every_entry_builds_at_the_cap(self, name):
        # The pinned bivariate prefixes stop at order 24, short of the cap.
        assert catalog(name, series.ORDER_CAP).order == series.ORDER_CAP

    @pytest.mark.parametrize("name", sorted(series.CATALOG))
    def test_build_rejects_negative_order(self, name):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            series.CATALOG[name].build(-1)

    def test_bivariate_rows_are_read_only(self):
        bivariate = [e for e in series.CATALOG.values() if e.kind == "bivariate"]
        assert len(bivariate) == 5
        for entry in bivariate:
            for row in entry.numerator + entry.denominator:
                with pytest.raises(TypeError):
                    row[1] = 7

    def test_variable_roles_present(self):
        for entry in series.CATALOG.values():
            assert entry.size_variable
            if entry.kind == "bivariate":
                assert entry.statistic_variable


PINNED_EXPANSIONS = Path(__file__).parent / "data" / "catalog_expansions.json"


def test_every_expansion_matches_pinned_prefix():
    pinned = json.loads(PINNED_EXPANSIONS.read_text())
    assert set(pinned["univariate"]) | set(pinned["bivariate"]) == set(catalog_names())
    for name, coefficients in pinned["univariate"].items():
        for m in range(pinned["univariate_order"] + 1):
            s = catalog(name, m)
            assert all(type(c) is Fraction for c in s.coefficients), (name, m)
            assert list(s.coefficients) == coefficients[: m + 1], (name, m)
    for name, rows in pinned["bivariate"].items():
        for m in range(pinned["bivariate_order"] + 1):
            b = catalog(name, m)
            assert all(type(v) is int for row in b.rows for v in row), (name, m)
            assert [list(row) for row in b.rows] == rows[: m + 1], (name, m)


class TestClosedForms:
    def test_goldens(self):
        assert closed_form("231_involutions", 5) == 16
        assert closed_form("231_leading_pair", 5) == 4
        assert closed_form("123_involutions", 4) == 5
        assert closed_form("132_involutions", 5) == 8
        assert closed_form("123_centrosymmetric", 7) == 1
        assert closed_form("123_centrosymmetric", 6) == 10
        assert closed_form("321_centrosymmetric", 1) == 1
        assert closed_form("321_centrosymmetric", 6) == 13

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            closed_form("231_leading_pair", 4)
        with pytest.raises(OutOfDomain):
            closed_form("132_involutions", 0)

    def test_unknown_family(self):
        with pytest.raises(KeyError):
            closed_form("641_involutions", 3)
