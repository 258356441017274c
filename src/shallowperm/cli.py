"""Command-line front end: shallowperm count | verify | certify | gf | profile.

Output is a machine-readable document. JSON (the default) wraps the
payload in an envelope with a schema version, the command, its
parameters, and the elapsed wall time; csv and md render exactly the
payload rows. Count-like numbers are serialized as decimal strings so
arbitrarily large values survive consumers that parse JSON numbers as
doubles.

Each `_cmd_*` handler takes the parsed arguments and returns
`(exit code, parameters, payload, table)`. A list of records (certify
steps, count rows, verify checks, profile entries) is built once, as a
`_Table` of columns that the payload holds; `table` is the one `_Table`
that csv and md print, its keys the header and its columns zipped the
rows. `main` owns the rest in one place: the clock, the single `_emit`
call, and the map from errors to exit codes.

`_dumps` writes the JSON envelope with the same bytes as
`json.dumps(doc, indent=2)`. CPython serves any indented dump with its
pure-Python encoder, which took half of a large `certify` call. `_dumps`
joins each container in one pass and writes each scalar in it in place,
through one lookup by exact type; strings go to the C escaper. A `_Table`
is written as its array of objects a column at a time: a column of one
exact scalar type through one mapped writer, and each record as one join
of its cells with the `"key": ` heads, escaped once for the table. A
size-450 certificate is written in about a fifth of `json.dumps`'s time
(0.4 against 2.1 ms on 2 cores, Python 3.11).

Exit codes: 0 success (all checks pass, permutation shallow); 1 domain
failure (a mismatch, a non-shallow permutation, or a raised
SizeCapExceeded, OrderExceeded or MethodDisagreement, or a stdout whose
reader has closed the pipe); 2 usage error (bad flags, or any other
ValueError: unparseable input, unknown catalog name).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Optional, Sequence

from . import series
from .enumeration import (
    DEFAULT_CAPS,
    REFINEMENTS,
    CountQuery,
    Method,
    MethodDisagreement,
    SizeCapExceeded,
    count,
    profile,
)
from .patterns import parse_pattern
from .perms import SymmetryClass, format_permutation, parse_permutation
from .series import OrderExceeded
from .shallow import StepKind, certify_shallow
from .suites import SUITES, run_suite

SCHEMA_VERSION = "1"

_SYMMETRIES = {
    "inv": SymmetryClass.INVOLUTION,
    "centro": SymmetryClass.CENTROSYMMETRIC,
    "persym": SymmetryClass.PERSYMMETRIC,
}

_STEP_KINDS = {kind: kind.value for kind in StepKind}


def _parse_sizes(text: str) -> range:
    """N or LO..HI; argparse prints an ArgumentTypeError's reason as it is."""
    lo, dots, hi = text.partition("..")
    try:
        sizes = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError(f"empty size range {text!r}")
    return sizes


def _fmt_count(value) -> Optional[str]:
    return None if value is None else str(value)


def _render_rows(table: _Table, fmt: str) -> str:
    header, rows = table.keys, zip(*table.columns)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])
        return buf.getvalue()
    # A pipe inside a cell would end it early in a GFM table.
    cells = [[("" if v is None else str(v)).replace("|", r"\|") for v in row] for row in rows]
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("-" for _ in header) + " |")
    for row in cells:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


_escape = json.encoder.encode_basestring_ascii
# The JSON writer of each scalar type a payload holds, keyed by exact type.
_scalar_writer = {
    str: _escape,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}.get


@dataclass
class _Table:
    """Records held as columns: the JSON keys, and one sequence of cells per key.
    A table only printed as csv or md may hold iterators, read once."""

    keys: tuple[str, ...]
    columns: tuple[Sequence, ...]


def _columns(rows, width: int) -> tuple:
    """The columns of equal-length rows, `width` empty ones when there are no rows."""
    return tuple(zip(*rows)) or ((),) * width


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, with every newline followed by ``pad``'s indent.

    A `_Table` is written as its list of records. Only the exact types
    that payloads hold take the fast path. Anything else (floats,
    subclasses such as IntEnum or OrderedDict, non-str keys) is left to
    ``json.dumps`` and its newlines re-padded, which is exact because a
    JSON string never holds a raw newline; so a table may sit only in
    lists, tuples and str-keyed dicts, never under such a value.
    """
    kind = type(value)
    write = _scalar_writer(kind)
    if write is not None:
        return write(value)
    inner = pad + "  "
    if kind is dict and {str}.issuperset(map(type, value)):
        if not value:
            return "{}"
        items = [_escape(key) + ": " + text for key, text in zip(value, _cells(value.values(), inner))]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple or kind is _Table:
        items = _records(value, inner) if kind is _Table else _cells(value, inner)
        if not items:
            return "[]"
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value, indent=2).replace("\n", pad)


def _cells(values, pad: str) -> list[str]:
    """Each value's JSON text: a scalar written in place, anything else by `_dumps`."""
    return [write(v) if (write := _scalar_writer(type(v))) else _dumps(v, pad) for v in values]


def _records(table: _Table, pad: str) -> list[str]:
    """Each record's JSON text, its ``"key": `` heads escaped once for the table.

    A column whose cells all have one exact scalar type is written by
    mapping that type's writer over it, any other cell by cell. Each record
    is then one join of the heads interleaved with its cells. A table has
    at least one key.
    """
    inner = pad + "  "
    parts = []
    for key, column in zip(table.keys, table.columns):
        kinds = set(map(type, column))
        write = _scalar_writer(kinds.pop()) if len(kinds) == 1 else None
        texts = list(map(write, column)) if write else _cells(column, inner)
        parts += repeat("," + inner + _escape(key) + ": "), texts
    parts[0] = repeat("{" + inner + _escape(table.keys[0]) + ": ")
    return list(map("".join, zip(*parts, repeat(pad + "}"))))


def _emit(command: str, parameters: dict, payload: dict, table: _Table, fmt: str, started: float) -> None:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "parameters": parameters,
            "payload": payload,
            "elapsed_ms": int(round((time.perf_counter() - started) * 1000)),
        }
        print(_dumps(doc))
    else:
        sys.stdout.write(_render_rows(table, fmt))


# ------------------------------------------------------------------- handlers


def _cmd_count(args):
    try:
        specs = tuple(parse_pattern(text) for text in args.avoid or [])
    except ValueError as exc:
        raise ValueError(f"bad pattern: {exc}") from None
    sizes, method = args.n, Method(args.method)
    # A range is checked from its ends, so one wider than the cap is never copied.
    if sizes[0] < 0:
        raise ValueError("sizes must be nonnegative")
    DEFAULT_CAPS.check(method, "size", sizes[-1])
    table = count(CountQuery(
        sizes=tuple(sizes),
        avoid=specs,
        symmetry=_SYMMETRIES[args.symmetry] if args.symmetry else None,
        refine_by=args.by,
        method=method,
    ))
    records = _Table(("n", "k", "count", "elapsed_ms"), _columns(
        ((row.n, row.k, str(row.count), int(round(row.elapsed * 1000))) for row in table.rows), 4
    ))
    parameters = {
        "n": list(sizes),
        "avoid": list(args.avoid or []),
        "symmetry": args.symmetry,
        "by": args.by,
        "method": args.method,
    }
    payload = {"method": table.query.method.value, "rows": records}
    return 0, parameters, payload, _Table(records.keys[:3], records.columns[:3])


def _cmd_verify(args):
    report = run_suite(args.suite, args.max_n)
    checks = _Table(("check", "n", "k", "observed", "expected", "match"), _columns(
        ((p.label, p.n, p.k, _fmt_count(p.table_value), _fmt_count(p.oracle_value), p.match)
         for p in report.pairs), 6
    ))
    mismatch = next((dict(zip(checks.keys, row)) for row in zip(*checks.columns) if not row[-1]), None)
    payload = {
        "suite": args.suite,
        "max_n": args.max_n,
        "overall": mismatch is None,
        "checks": checks,
        "first_mismatch": mismatch,
    }
    parameters = {"suite": args.suite, "max_n": args.max_n}
    return (0 if mismatch is None else 1), parameters, payload, checks


def _cmd_certify(args):
    cert = certify_shallow(parse_permutation(args.permutation))
    positions, moved, kinds = _columns(cert.steps, 3)
    m, n = len(positions), len(cert.subject)
    classification = list(map(_STEP_KINDS.__getitem__, kinds))
    steps = _Table(
        ("step", "size", "position_of_max", "moved_value", "classification"),
        (range(1, m + 1), range(n, n - m, -1), positions, moved, classification),
    )
    payload = {
        "subject": format_permutation(cert.subject),
        "verdict": cert.verdict,
        "steps": steps,
    }
    code = 0 if cert.verdict else 1
    return code, {"permutation": args.permutation}, payload, steps


def _cmd_gf(args):
    try:
        expansion = series.catalog(args.name, args.order)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    payload = {"name": args.name}
    if isinstance(expansion, series.RationalSeries):
        coeffs = list(map(str, expansion.coefficients))
        payload.update(kind="univariate", size_variable=expansion.variable,
                       order=args.order, coefficients=coeffs)
        table = _Table(("n", "coefficient"), (range(len(coeffs)), coeffs))
    else:
        rows = [[str(v) for v in row] for row in expansion.rows]
        payload.update(kind="bivariate", size_variable=expansion.size_variable,
                       statistic_variable=expansion.statistic_variable, order=args.order,
                       rows=rows)
        # Read only when csv or md prints it.
        table = _Table(("n", "k", "value"), (
            (n for n, row in enumerate(rows) for _ in row),
            (k for row in rows for k in range(len(row))),
            chain.from_iterable(rows),
        ))
    return 0, {"name": args.name, "order": args.order}, payload, table


def _cmd_profile(args):
    pair = profile(args.n)
    payload = {
        "n": pair.left.n,
        "note": "exploratory evidence; equality is reported, not asserted",
        "consistent": pair.consistent,
    }
    rows = []
    for side, prof in (("left", pair.left), ("right", pair.right)):
        entries = _Table(("cycles", "statistic", "count"), _columns(
            ((c, s, str(m)) for (c, s), m in prof.counts), 3
        ))
        payload[side] = {"descriptor": prof.descriptor, "total": str(prof.total()), "entries": entries}
        rows.extend(zip(repeat(side), *entries.columns))
    return 0, {"n": args.n}, payload, _Table(("side", "cycles", "statistic", "count"), _columns(rows, 4))


# ---------------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowperm",
        description="Count, verify, certify, and expand shallow-permutation formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count shallow permutations")
    p_count.add_argument("--n", type=_parse_sizes, required=True, metavar="N|LO..HI")
    p_count.add_argument("--avoid", action="append", metavar="PATTERN",
                         help="pattern word like 132, or named spec 3n12 / u3412; repeatable")
    p_count.add_argument("--symmetry", choices=tuple(_SYMMETRIES))
    p_count.add_argument("--by", choices=tuple(REFINEMENTS))
    p_count.add_argument("--method", choices=[m.value for m in Method], default="constructive")
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=tuple(SUITES), required=True)
    p_verify.add_argument("--max-n", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_certify = sub.add_parser("certify", help="certify shallowness of one permutation")
    p_certify.add_argument("permutation")
    p_certify.set_defaults(func=_cmd_certify)

    p_gf = sub.add_parser("gf", help="expand a catalog generating function")
    p_gf.add_argument("--name", required=True)
    p_gf.add_argument("--order", type=int, default=12)
    p_gf.set_defaults(func=_cmd_gf)

    p_profile = sub.add_parser("profile", help="compare exploratory statistic profiles")
    p_profile.add_argument("--n", type=int, required=True)
    p_profile.set_defaults(func=_cmd_profile)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        code, parameters, payload, table = args.func(args)
    except (SizeCapExceeded, OrderExceeded, MethodDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args.command, parameters, payload, table, args.format, started)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone. Point the descriptor at devnull so that the
        # interpreter's flush at exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
