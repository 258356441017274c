"""Exact power series and the catalog of counting formulas.

Everything here is exact: coefficients are Fractions or unbounded ints,
and no floating point appears anywhere. Univariate series are truncated
expansions of rational functions in the size variable. Bivariate series
track a second statistic (descents); they are stored as one integer row
per size, entry k counting the permutations with statistic value k.

Every catalog entry is data: a numerator and a denominator polynomial.
There is one long division, the Laurent-coefficient `_ls_div`, and it
expands every entry. A univariate series is its degree-0 case: its
coefficients are lifted to constant Laurent polynomials, divided, and
read back at degree 0. `CatalogEntry.build` takes one path for both
kinds: it divides, then checks every coefficient once, rejecting
negative or above-size statistic powers and any count that is not a
nonnegative integer, and only then wraps the rows as a series.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Optional, Sequence, Union

ORDER_CAP = 64


class ZeroConstantTerm(ValueError):
    """The denominator has no constant term, so no expansion exists."""


class OrderExceeded(ValueError):
    """A coefficient beyond the truncation order was requested."""


class NonIntegerCount(ValueError):
    """A counting series produced a non-integer or negative coefficient."""


class NegativeDegreeResidue(ValueError):
    """Negative powers of the statistic survived a bivariate division."""


class OutOfDomain(ValueError):
    """A closed form was evaluated outside its stated domain."""


@dataclass(frozen=True)
class RationalSeries:
    """Truncated power series with exact rational coefficients."""

    coefficients: tuple[Fraction, ...]
    variable: str = "x"

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class BivariateSeries:
    """Triangular table of counts by size n and statistic value k <= n."""

    rows: tuple[tuple[int, ...], ...]
    size_variable: str
    statistic_variable: str

    @property
    def order(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, k: int) -> int:
        if n < 0 or k < 0:
            raise ValueError("indices must be nonnegative")
        if n > self.order:
            raise OrderExceeded(f"size {n} beyond order {self.order}")
        if k > n:
            return 0
        return self.rows[n][k]

    def row_sum(self, n: int) -> int:
        if n < 0:
            raise ValueError("size must be nonnegative")
        if n > self.order:
            raise OrderExceeded(f"size {n} beyond order {self.order}")
        return sum(self.rows[n])


def expand_rational(
    numerator: Sequence[Union[int, Fraction]],
    denominator: Sequence[Union[int, Fraction]],
    order: int,
) -> RationalSeries:
    """
    Long division of two polynomials as a power series up to the order.

    The polynomials are coefficient sequences indexed by exponent. The
    denominator's constant term must be nonzero.

    >>> [int(c) for c in expand_rational([1], [1, -1], 4).coefficients]
    [1, 1, 1, 1, 1]
    """
    rows = _ls_div(_constant_rows(numerator), _constant_rows(denominator), order)
    return RationalSeries(tuple(Fraction(row.get(0, 0)) for row in rows))


def coefficient(series: RationalSeries, n: int) -> Fraction:
    """The exact coefficient of the n-th power."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n > series.order:
        raise OrderExceeded(f"coefficient {n} beyond order {series.order}")
    return series.coefficients[n]


def multiply_by_polynomial(
    series: RationalSeries, poly: Sequence[Union[int, Fraction]]
) -> tuple[Fraction, ...]:
    """Product coefficients up to the series order (for round-trip checks)."""
    out = [Fraction(0)] * (series.order + 1)
    for e, c in enumerate(poly):
        c = Fraction(c)
        if c == 0:
            continue
        for n in range(series.order + 1 - e):
            out[n + e] += c * series.coefficients[n]
    return tuple(out)


def fibonacci(m: int) -> int:
    """
    Fibonacci numbers under the F_1 = F_2 = 1 convention, extended to
    negative indices by F_{-m} = (-1)^{m+1} F_m (so F_{-1} = 1).
    """
    if m < 0:
        value = fibonacci(-m)
        return value if (-m) % 2 == 1 else -value
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever k < 0 or k > n."""
    if k < 0 or k > n or n < 0:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Series internals: one row per power of the size variable, each row a
# Laurent polynomial in the statistic (exponent -> coefficient); a
# denominator led by a power of the statistic shifts the exponents down.
# Coefficients stay ints unless the leading coefficient is other than +-1.

Laurent = dict[int, Union[int, Fraction]]
_LSeries = Sequence[Laurent]


def _ls_div(num: _LSeries, den: _LSeries, order: int) -> list[Laurent]:
    """The quotient num/den to the order; den[0] must be a single monomial."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    lead = den[0] if den else {}
    if len(lead) != 1:
        raise ZeroConstantTerm(
            "series division needs a monomial leading coefficient"
        )
    ((lead_exp, lead_coeff),) = lead.items()
    inverse = lead_coeff if lead_coeff in (1, -1) else 1 / Fraction(lead_coeff)
    out: list[Laurent] = []
    for n in range(order + 1):
        acc = dict(num[n]) if n < len(num) else {}
        for i in range(max(0, n - len(den) + 1), n):
            d = den[n - i]
            if not d:
                continue
            for ea, ca in out[i].items():
                for eb, cb in d.items():
                    e = ea + eb
                    acc[e] = acc.get(e, 0) - ca * cb
        out.append({e - lead_exp: c * inverse for e, c in acc.items() if c})
    return out


def _constant_rows(poly: Sequence[Union[int, Fraction]]) -> list[Laurent]:
    """A univariate polynomial as degree-0 Laurent rows."""
    return [{0: c} if c else {} for c in poly]


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_pow(a: Sequence[int], e: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for _ in range(e):
        out = _poly_mul(out, a)
    return out


# ---------------------------------------------------------------------------
# Catalog


# Compared and hashed by identity, since the bivariate rows are mappings.
@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """
    A counting series given as numerator / denominator.

    A univariate entry holds int tuples indexed by the power of its size
    variable. A bivariate entry holds one read-only row per size power,
    each mapping powers of the statistic variable to coefficients.
    """

    name: str
    description: str
    numerator: Union[tuple[int, ...], tuple[Laurent, ...]]
    denominator: Union[tuple[int, ...], tuple[Laurent, ...]]
    size_variable: str = "x"
    statistic_variable: Optional[str] = None

    def __post_init__(self) -> None:
        if self.statistic_variable is not None:
            for side in ("numerator", "denominator"):
                rows = tuple(MappingProxyType(dict(row)) for row in getattr(self, side))
                object.__setattr__(self, side, rows)

    @property
    def kind(self) -> str:
        return "univariate" if self.statistic_variable is None else "bivariate"

    def build(self, order: int) -> Union[RationalSeries, BivariateSeries]:
        num, den = self.numerator, self.denominator
        if self.statistic_variable is None:
            num, den = _constant_rows(num), _constant_rows(den)
        return self._counts(_ls_div(num, den, order))

    def _counts(self, rows: _LSeries) -> Union[RationalSeries, BivariateSeries]:
        """
        Check that the quotient rows are counts, then wrap them by kind.

        Every statistic power must lie in 0..n at size power n, and every
        coefficient must be a nonnegative integer.
        """
        x, t = self.size_variable, self.statistic_variable
        for n, row in enumerate(rows):
            if any(k < 0 for k in row):
                raise NegativeDegreeResidue(
                    f"{self.name}: negative {t}-powers survive at {x}^{n}: {sorted(row)}"
                )
            if any(k > n for k in row):
                raise ValueError(f"{self.name}: statistic degree exceeds size at {n}")
            for k, c in sorted(row.items()):
                if c.denominator != 1 or c < 0:
                    raise NonIntegerCount(f"{self.name}: entry ({n},{k}) is {c}")
        if t is None:
            return RationalSeries(tuple(Fraction(row.get(0, 0)) for row in rows), x)
        return BivariateSeries(
            tuple(tuple(int(row.get(k, 0)) for k in range(n + 1)) for n, row in enumerate(rows)),
            x,
            t,
        )


# The 231 descent series, x marking size and t descents. The leading-pair
# series is C = P/Q with
#     Q = (1 - xt)^2,    P = t^2 x^4 Q + t x^2 (1 - xt) + 3 t^3 x^5,
# the head series is B = (x + C - C/t) / (1 - C/(xt)) and the total is
# T = 1/(1 - B). Clearing the 1/t and 1/(xt) factors gives B = N/D and
# T = D/(D - N) with
#     D = tQ - P/x,    N = xtQ + tP - P.
# D leads with the monomial t, which the division divides out.
_Q231 = ({0: 1}, {1: -2}, {2: 1})
_P231 = ({}, {}, {1: 1}, {2: -1}, {2: 1}, {3: 1}, {4: 1})
_D231 = ({1: 1}, {1: -1, 2: -2}, {2: 1, 3: 1}, {2: -1}, {3: -1}, {4: -1})
_N231 = (
    {}, {1: 1}, {1: -1, 2: -1}, {2: 1}, {2: -1, 3: 1}, {3: -1, 4: 1}, {4: -1, 5: 1}
)
_D231_MINUS_N231 = (
    {1: 1}, {1: -2, 2: -2}, {1: 1, 2: 2, 3: 1}, {2: -2}, {2: 1, 3: -2},
    {3: 1, 4: -2}, {4: 1, 5: -1},
)

CATALOG: dict[str, CatalogEntry] = {
    entry.name: entry
    for entry in [
        CatalogEntry(
            "T231",
            "shallow 231-avoiding (equivalently 312-avoiding) permutations by size",
            (1, -3, 2, -1, -1, -1),
            (1, -4, 4, -2, -1, -1),
        ),
        CatalogEntry(
            "T123",
            "shallow 123-avoiding permutations by size",
            (1, -3, 0, 11, -13, 7, 6, 3),
            _poly_mul(_poly_pow((1, -1), 4), (1, 0, -4, 0, 1)),
        ),
        CatalogEntry(
            "P132",
            "shallow 132-avoiding persymmetric permutations by size",
            (1, 0, -1, 2),
            _poly_mul((1, -1), (1, 0, -2, 0, -1)),
        ),
        CatalogEntry(
            "P231",
            "shallow 231-avoiding persymmetric permutations by size",
            (-1, -1, 2, 1, -2, -1, 1, 1, 2, 0, 1),
            (-1, 0, 4, 0, -4, 0, 2, 0, 1, 0, 1),
        ),
        CatalogEntry(
            "P123",
            "shallow 123-avoiding persymmetric permutations by size",
            (1, 0, -2, 1, 0, 1, 1),
            _poly_mul(
                _poly_mul(_poly_pow((-1, 1), 2), (1, 1)), (1, 0, -2, 0, -1)
            ),
        ),
        CatalogEntry(
            "FibOdd",
            "odd-indexed Fibonacci numbers F(2n-1); shallow 132-, 213- or "
            "321-avoiding permutations by size",
            (1, -2),
            (1, -3, 1),
        ),
        CatalogEntry(
            "Grassmannian",
            "shallow permutations with at most one descent, by size",
            (1, -3, 4, -1),
            _poly_pow((1, -1), 4),
        ),
        CatalogEntry(
            "A321xz",
            "shallow 321-avoiding permutations by size (z) and descents (x)",
            ({}, {0: 1}, {0: -2, 1: 1}, {0: 1, 1: -1}),
            ({0: 1}, {0: -3}, {0: 3, 1: -2}, {0: -1, 1: 1}),
            size_variable="z",
            statistic_variable="x",
        ),
        CatalogEntry(
            "C231xt",
            "shallow 231-avoiding permutations starting with the two largest "
            "values in order, by size (x) and descents (t)",
            _P231,
            _Q231,
            statistic_variable="t",
        ),
        CatalogEntry(
            "B231xt",
            "shallow 231-avoiding permutations starting with the largest "
            "value, by size (x) and descents (t)",
            _N231,
            _D231,
            statistic_variable="t",
        ),
        CatalogEntry(
            "T231xt",
            "shallow 231-avoiding permutations by size (x) and descents (t)",
            _D231,
            _D231_MINUS_N231,
            statistic_variable="t",
        ),
        CatalogEntry(
            "DescBinom132",
            "shallow 132-avoiding permutations by size (n) and descents (k): "
            "binomial(2n-2-k, k)",
            # (1 - 2kn + (k^2 - k) n^2) / (1 - (1 + 2k) n + k^2 n^2)
            ({0: 1}, {1: -2}, {1: -1, 2: 1}),
            ({0: 1}, {0: -1, 1: -2}, {2: 1}),
            size_variable="n",
            statistic_variable="k",
        ),
    ]
}


def catalog_names() -> tuple[str, ...]:
    return tuple(CATALOG)


@functools.lru_cache(maxsize=128)
def catalog(name: str, order: int = 12) -> Union[RationalSeries, BivariateSeries]:
    """
    Expand a named catalog entry to the requested truncation order.

    Raises KeyError for unknown names and OrderExceeded beyond ORDER_CAP.
    Expansions are immutable and memoised by the call's arguments; a call
    that raises is not cached, so it raises again.
    """
    if name not in CATALOG:
        raise KeyError(f"unknown catalog name {name!r}; see catalog_names()")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > ORDER_CAP:
        raise OrderExceeded(f"order {order} beyond the configured cap {ORDER_CAP}")
    return CATALOG[name].build(order)


# ---------------------------------------------------------------------------
# Closed-form count families


def _grid(n: int) -> int:
    return n * n // 4 + 1


_CLOSED_FORM_FUNCS: dict[str, tuple[int, Callable[[int], int]]] = {
    "132_involutions": (1, lambda n: fibonacci(n + 1)),
    "132_centrosymmetric": (1, lambda n: (n + 2) // 2),
    "231_involutions": (1, lambda n: 2 ** (n - 1)),
    "231_centrosymmetric": (1, lambda n: 2 ** (n // 2)),
    "231_leading_pair": (5, lambda n: 3 * n - 11),
    "123_involutions": (1, _grid),
    "123_centrosymmetric": (1, lambda n: _grid(n) if n % 2 == 0 else 1),
    "321_involutions": (1, lambda n: fibonacci(n + 1)),
    "321_centrosymmetric": (1, lambda n: fibonacci(n + 1) if n % 2 == 0 else fibonacci(n - 2)),
    "321_persymmetric": (1, lambda n: fibonacci(n + 1)),
}

CLOSED_FORMS = tuple(_CLOSED_FORM_FUNCS)


def closed_form(family: str, n: int) -> int:
    """
    Evaluate one of the named closed-form count families.

    >>> closed_form("231_involutions", 5)
    16
    >>> closed_form("231_leading_pair", 5)
    4
    """
    if family not in _CLOSED_FORM_FUNCS:
        raise KeyError(f"unknown closed form {family!r}; see CLOSED_FORMS")
    min_n, func = _CLOSED_FORM_FUNCS[family]
    if n < min_n:
        raise OutOfDomain(f"{family} is stated for n >= {min_n}, got {n}")
    return func(n)
