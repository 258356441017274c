"""The benchmark's workloads: operation lists and the oracles that check them.

An operation is one call a user makes: a ``shallowperm`` command line run
in-process through ``shallowperm.cli.main`` with its output captured, or a
call of a public library function. Each operation carries a check that
compares its answer with an oracle computed before any timing starts, so
no check calls into the library while the clock or the tracer runs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from shallowperm import cli, perms, series, shallow, suites

# Number of shallow permutations of each size n = 0..10, from the
# constructive generator; brute force over S_n gives the same values for
# every n up to the brute-force cap of 10 (tests check n <= 9 on each run).
SHALLOW_TOTALS = (1, 1, 2, 6, 23, 103, 511, 2719, 15205, 88197, 526018)

# Shallow permutations of size 9 by descent count and by cycle count.
DESCENTS_9 = {0: 1, 1: 120, 2: 2646, 3: 16664, 4: 35459, 5: 26512, 6: 6422, 7: 372, 8: 1}
CYCLES_9 = {1: 8558, 2: 22608, 3: 26880, 4: 18816, 5: 8442, 6: 2436, 7: 420, 8: 36, 9: 1}

PATTERNS = ("123", "132", "213", "231", "312", "321")

# Catalog series counting the shallow avoiders of each length-3 pattern.
TOTAL_SERIES = {
    "123": "T123", "132": "FibOdd", "213": "FibOdd",
    "231": "T231", "312": "T231", "321": "FibOdd",
}

CENSUS_N = 8
BRUTE_N = 8
DEEP_N = 10


class Oracle:
    """Expected values, computed once from the catalog and closed forms."""

    def __init__(self):
        self.univariate = {
            name: [int(c) for c in series.catalog(name, series.ORDER_CAP).coefficients]
            for name, entry in series.CATALOG.items() if entry.kind == "univariate"
        }
        self.bivariate = {
            name: series.catalog(name, CENSUS_N).rows
            for name, entry in series.CATALOG.items() if entry.kind == "bivariate"
        }
        self.closed = {family: _closed_values(family) for family in series.CLOSED_FORMS}
        self.polynomials = {
            name: (entry.numerator, entry.denominator)
            for name, entry in series.CATALOG.items() if entry.kind == "univariate"
        }
        t231 = self.univariate["T231"]
        fib = self.univariate["FibOdd"]
        b231 = [-v for v in _inverse_series(t231, series.ORDER_CAP)]
        b231[0] += 1  # B = 1 - 1/T over the shallow 231 avoiders
        # bivariate name -> (first size covered, row sum of size n): each
        # bivariate entry summed over its statistic is a univariate count.
        self.row_sums = {
            "A321xz": (1, fib.__getitem__),
            "DescBinom132": (0, fib.__getitem__),
            "T231xt": (0, t231.__getitem__),
            "B231xt": (0, b231.__getitem__),
            "C231xt": (5, lambda n: 3 * n - 11),
        }

    def value(self, name: str, n: int, k: Optional[int] = None) -> int:
        if k is not None:
            row = self.bivariate[name][n]
            return row[k] if k < len(row) else 0
        if name in self.univariate:
            return self.univariate[name][n]
        return self.closed[name][n]


def _closed_values(family: str) -> dict[int, int]:
    values = {}
    for n in range(series.ORDER_CAP + 1):
        try:
            values[n] = series.closed_form(family, n)
        except series.OutOfDomain:
            continue
    return values


def _inverse_series(coefficients: list[int], order: int) -> list[int]:
    """Coefficients of 1/f for an integer series with constant term 1."""
    inverse = [1]
    for n in range(1, order + 1):
        inverse.append(-sum(coefficients[i] * inverse[n - i] for i in range(1, n + 1)))
    return inverse


# ------------------------------------------------------------------ operations


@dataclass
class Op:
    """One timed call and the check of its answer (None when correct)."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class CliAnswer:
    code: int
    stdout: str


def call_cli(argv: list[str]) -> CliAnswer:
    """Run one command line in-process, capturing what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return CliAnswer(code, out.getvalue())


def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def canonical(answer) -> str:
    """The answer without its timings, for comparing traced and untraced runs."""
    if isinstance(answer, CliAnswer):
        try:
            doc = _strip_timings(json.loads(answer.stdout))
        except json.JSONDecodeError:
            doc = answer.stdout
        return json.dumps([answer.code, doc], sort_keys=True)
    return repr(answer)


def _payload(answer: CliAnswer, code: int = 0) -> dict:
    if answer.code != code:
        raise ValueError(f"exit code {answer.code}, expected {code}")
    return json.loads(answer.stdout)["payload"]


def _checked(check: Callable[[object], Optional[str]]) -> Callable[[object], Optional[str]]:
    """A check that reports a malformed answer instead of raising."""

    def run(answer):
        try:
            return check(answer)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"malformed answer: {exc}"

    return run


def cli_op(kind: str, argv: list[str], check: Callable[[CliAnswer], Optional[str]]) -> Op:
    return Op(kind, " ".join(argv), lambda: call_cli(argv), _checked(check))


def expect_counts(expected: dict) -> Callable[[CliAnswer], Optional[str]]:
    """Check a count payload's rows against {(n, k): count}."""

    def check(answer):
        rows = _payload(answer)["rows"]
        got = {(row["n"], row["k"]): int(row["count"]) for row in rows}
        if got != expected:
            wrong = sorted(set(got.items()) ^ set(expected.items()), key=str)[:4]
            return f"counts differ from oracle: {wrong}"
        return None

    return check


def count_op(oracle: Oracle, pattern: str, n_max: int) -> Op:
    """``count --n 1..n_max --avoid pattern``, checked against the catalog."""
    series_name = TOTAL_SERIES[pattern]
    expected = {(n, None): oracle.value(series_name, n) for n in range(1, n_max + 1)}
    argv = ["count", "--n", f"1..{n_max}", "--avoid", pattern]
    return cli_op("count", argv, expect_counts(expected))


_ORACLE_ROW = re.compile(r" vs (\w+)\[(\d+)(?:,(\d+))?\]$")
_GRASSMANNIAN_ROW = re.compile(
    r"^(grassmannian via 321 descent table|Grassmannian series vs binomial formula) \[(\d+)\]$"
)


def verify_op(oracle: Oracle, suite: str, max_n: int, rows: int) -> Op:
    """``verify --suite``: every row must match and agree with the oracle here."""

    def check(answer):
        payload = _payload(answer)
        checks = payload["checks"]
        if not payload["overall"] or len(checks) != rows:
            return f"overall={payload['overall']} with {len(checks)} rows, expected {rows}"
        for row in checks:
            label = row["check"]
            match = _ORACLE_ROW.search(label)
            grass = _GRASSMANNIAN_ROW.match(label)
            if match:
                name, n, k = match.group(1), int(match.group(2)), match.group(3)
                expected = oracle.value(name, n, None if k is None else int(k))
            elif grass:
                expected = math.comb(int(grass.group(2)) + 1, 3) + 1
            else:
                return f"row without an oracle: {label}"
            if not row["match"] or int(row["observed"]) != expected:
                return f"{label}: observed {row['observed']}, oracle {expected}"
        return None

    return cli_op("verify", ["verify", "--suite", suite, "--max-n", str(max_n)], check)


def suite_check_op(name: str, max_n: int) -> Op:
    """A suite check called through the library: every row has 0 violations."""

    def run():
        return getattr(suites, name)(max_n, suites.DEFAULT_CAPS)

    def check(pairs):
        if len(pairs) != max_n + 1:
            return f"{len(pairs)} rows, expected {max_n + 1}"
        bad = [p.label for p in pairs if p.table_value != 0 or not p.match]
        return f"violations: {bad}" if bad else None

    return Op("library", f"suites.{name}({max_n})", run, _checked(check))


# ------------------------------------------------------------------- workloads


def census_ops(oracle: Oracle) -> list[Op]:
    n = CENSUS_N
    ops = [count_op(oracle, pattern, n) for pattern in PATTERNS]
    ops.append(verify_op(oracle, "symmetry", n, rows=12 * n))
    descent_rows = 3 * sum(m + 1 for m in range(1, n + 1)) + 2 * (n - 1)
    ops.append(verify_op(oracle, "descents", n, rows=descent_rows))
    return ops


def brute_ops(oracle: Oracle) -> list[Op]:
    n = BRUTE_N
    total = {(n, None): SHALLOW_TOTALS[n]}
    fib = {(m, None): oracle.value("FibOdd", m) for m in range(1, n)}
    return [
        cli_op("count", ["count", "--method", "brute", "--n", str(n)], expect_counts(total)),
        suite_check_op("check_decider_equivalence", n),
        cli_op("count", ["count", "--method", "both", "--n", f"1..{n - 1}", "--avoid", "321"],
               expect_counts(fib)),
        suite_check_op("check_wrap_equivalence", n - 1),
        # Every shallow permutation avoids both anchored 3412 patterns.
        cli_op("count", ["count", "--method", "brute", "--n", str(n),
                         "--avoid", "3n12", "--avoid", "u3412"], expect_counts(total)),
    ]


def deep_ops(oracle: Oracle) -> list[Op]:
    n = DEEP_N
    by_descents = {(n - 1, k): c for k, c in DESCENTS_9.items()}
    by_cycles = {(n - 1, k): c for k, c in CYCLES_9.items()}
    return [
        cli_op("count", ["count", "--n", str(n)], expect_counts({(n, None): SHALLOW_TOTALS[n]})),
        cli_op("count", ["count", "--n", str(n - 1), "--by", "descents"], expect_counts(by_descents)),
        cli_op("count", ["count", "--n", str(n - 1), "--by", "cycles"], expect_counts(by_cycles)),
    ]


# -------------------------------------------------------------------- requests

# Requests of each kind in one pass. The kinds are the four short
# subcommands, weighted like the calls of each that return an answer in
# tests/test_cli.py: 7 count, 7 gf, 6 certify, 5 profile (verify is left
# to batch). The multiplier 45 spreads gf evenly over GF_CELLS and certify
# over CERTIFY_SIZES, and gives at least 1000 requests, so the 99th
# percentile of a pass has at least ten samples beyond it.
KIND_REQUESTS = {"count": 7 * 45, "gf": 7 * 45, "certify": 6 * 45, "profile": 5 * 45}

# certify sizes: the same number of requests in each octave from 10 to 500.
# Within an octave the seed draws the size; half of the permutations are
# shallow by construction, half drawn uniformly.
CERTIFY_SIZES = ((10, 19), (20, 39), (40, 79), (80, 159), (160, 319), (320, 500))

# gf (name, order): every catalog name at orders 8, 16, 32 and 64, the same
# number of requests each. T231xt stops at order 16 and B231xt at 32: one
# call takes 6.7 s for T231xt at order 64 and 1.0 s for B231xt, so a few of
# them would fill a whole run.
GF_ORDERS = (8, 16, 32, 64)
GF_MAX_ORDER = {"T231xt": 16, "B231xt": 32}
GF_CELLS = tuple(
    (name, order) for name in series.CATALOG for order in GF_ORDERS
    if order <= GF_MAX_ORDER.get(name, series.ORDER_CAP)
)

COUNT_SIZES = (3, 6)  # count --n 1..k --avoid P, k drawn from 3..6
PROFILE_SIZES = (2, 5)  # profile --n k, k drawn from 2..5


def grow_shallow(rng: random.Random, n: int) -> perms.Perm:
    """A shallow permutation of size n from a random walk of extend_right."""
    p: perms.Perm = (1,)
    while len(p) < n:
        lr, rl = perms.lr_max_flags(p), perms.rl_min_flags(p)
        slots = [None] + [i + 1 for i in range(len(p)) if lr[i] or rl[i]]
        p = shallow.extend_right(p, rng.choice(slots))
    return p


def certify_op(p: perms.Perm, expected: bool, origin: str) -> Op:
    text = ",".join(map(str, p))

    def check(answer):
        payload = _payload(answer, 0 if expected else 1)
        if payload["verdict"] is not expected or payload["subject"] != text:
            return f"verdict {payload['verdict']} for {origin} permutation, expected {expected}"
        if len(payload["steps"]) != len(p) - 1:
            return f"{len(payload['steps'])} reduction steps for size {len(p)}"
        return None

    return cli_op("certify", ["certify", text], check)


def gf_op(oracle: Oracle, name: str, order: int) -> Op:
    """``gf``: the series identities of the catalog's integrity criterion."""
    if name in oracle.polynomials:
        numerator, denominator = oracle.polynomials[name]

        def check(answer):
            c = [int(v) for v in _payload(answer)["coefficients"]]
            if len(c) != order + 1:
                return f"{len(c)} coefficients for order {order}"
            for n in range(order + 1):
                product = sum(c[n - e] * d for e, d in enumerate(denominator) if e <= n)
                if product != (numerator[n] if n < len(numerator) else 0):
                    return f"expansion times denominator differs from numerator at {n}"
            return None
    else:
        first, expected = oracle.row_sums[name]

        def check(answer):
            rows = [[int(v) for v in row] for row in _payload(answer)["rows"]]
            if len(rows) != order + 1 or any(v < 0 for row in rows for v in row):
                return f"{len(rows)} rows for order {order}, or a negative entry"
            for n in range(first, order + 1):
                if sum(rows[n]) != expected(n):
                    return f"row {n} sums to {sum(rows[n])}, expected {expected(n)}"
            return None

    return cli_op("gf", ["gf", "--name", name, "--order", str(order)], check)


def profile_op(oracle: Oracle, n: int) -> Op:
    def check(answer):
        payload = _payload(answer)
        totals = (int(payload["left"]["total"]), int(payload["right"]["total"]))
        expected = oracle.value("FibOdd", n)
        if totals != (expected, expected):
            return f"profile totals {totals}, expected {expected}"
        return None

    return cli_op("profile", ["profile", "--n", str(n)], check)


def requests_ops(oracle: Oracle, seed: int) -> tuple[list[Op], dict]:
    """The seeded request mix and its composition.

    The seed draws every certify permutation and its size inside its
    octave, the count and profile arguments and the order of the requests.
    The number of requests of each kind, certify octave and gf cell is
    fixed, so runs with different seeds do comparable work.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    per_octave = KIND_REQUESTS["certify"] // len(CERTIFY_SIZES)
    sizes: Counter = Counter()
    for lo, hi in CERTIFY_SIZES:
        for i in range(per_octave):
            n = rng.randint(lo, hi)
            if i % 2 == 0:
                ops.append(certify_op(grow_shallow(rng, n), True, "grown"))
            else:
                p = list(range(1, n + 1))
                rng.shuffle(p)
                p = tuple(p)
                ops.append(certify_op(p, shallow.is_shallow(p), "uniform"))
            sizes[f"{lo}..{hi}"] += 1
    per_cell = KIND_REQUESTS["gf"] // len(GF_CELLS)
    orders: Counter = Counter()
    for name, order in GF_CELLS:
        ops.extend(gf_op(oracle, name, order) for _ in range(per_cell))
        orders[order] += per_cell
    small: Counter = Counter()
    for _ in range(KIND_REQUESTS["count"]):
        hi = rng.randint(*COUNT_SIZES)
        ops.append(count_op(oracle, rng.choice(PATTERNS), hi))
        small[f"count n<={hi}"] += 1
    for _ in range(KIND_REQUESTS["profile"]):
        n = rng.randint(*PROFILE_SIZES)
        ops.append(profile_op(oracle, n))
        small[f"profile n={n}"] += 1
    rng.shuffle(ops)
    kinds = Counter(op.kind for op in ops)
    composition = {
        "requests": len(ops),
        "share": {kind: kinds[kind] / len(ops) for kind in sorted(kinds)},
        "certify_sizes": dict(sizes),
        "gf_orders": {str(k): v for k, v in sorted(orders.items())},
        "count_profile_sizes": dict(sorted(small.items())),
    }
    return ops, composition


WORKLOADS = ("batch", "requests")


def build(workload: str, seed: int) -> tuple[list[Op], dict]:
    """The workload's operation list and a record of how the seed was used.

    ``batch`` is the census, brute and deep parts run one after another in
    each pass. As separate workloads their figures spread too much from run
    to run on a host whose speed changes for minutes at a time, and one
    workload with longer runs averages over those phases.
    """
    oracle = Oracle()
    if workload == "requests":
        ops, composition = requests_ops(oracle, seed)
        return ops, {"seed_used": True, "composition": composition}
    parts = {"census": census_ops(oracle), "brute": brute_ops(oracle), "deep": deep_ops(oracle)}
    ops = [op for part in parts.values() for op in part]
    return ops, {"seed_used": False, "parts": {name: len(part) for name, part in parts.items()}}
