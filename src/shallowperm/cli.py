"""Command-line front end: shallowperm count | verify | certify | gf | profile.

Output is a machine-readable document. JSON (the default) wraps the
payload in an envelope with a schema version, the command, its
parameters, and the elapsed wall time; csv and md render exactly the
payload rows. Count-like numbers are serialized as decimal strings so
arbitrarily large values survive consumers that parse JSON numbers as
doubles.

Each `_cmd_*` handler takes the parsed arguments and returns
`(exit code, parameters, payload, header, rows)`: the flat rows are the
csv/md output and, where the fields coincide, the source of the JSON
records. `main` owns the rest in one place: the clock, the single `_emit`
call, and the map from errors to exit codes.

`_dumps` writes the JSON envelope with the same bytes as
`json.dumps(doc, indent=2)`. CPython serves any indented dump with its
pure-Python encoder, which took half of a large `certify` call. `_dumps`
joins each container in one pass and writes each scalar in it in place,
through one lookup by exact type; strings go to the C escaper. A list of
plain dicts with one key layout (certify steps, count rows, verify
checks, profile entries) is written a column at a time, each `"key": `
head escaped once for the list. A size-450 certificate is written in
about a third of `json.dumps`'s time (0.8 against 2.5 ms on 2 cores,
Python 3.11).

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


def _render_rows(header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
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


def _dumps(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, with every newline followed by ``pad``'s indent.

    Only the exact types that payloads hold take the fast path. Anything
    else (floats, subclasses such as IntEnum or OrderedDict, non-str keys)
    is left to ``json.dumps`` and its newlines re-padded, which is exact
    because a JSON string never holds a raw newline.
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
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = _records(value, inner) or _cells(value, inner)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value, indent=2).replace("\n", pad)


def _cells(values, pad: str) -> list[str]:
    """Each value's JSON text: a scalar written in place, anything else by `_dumps`."""
    return [write(v) if (write := _scalar_writer(type(v))) else _dumps(v, pad) for v in values]


def _records(values, pad: str) -> Optional[list[str]]:
    """Each item's JSON text, when all are plain dicts with the same str keys in one order.

    The ``"key": `` heads are escaped once for the whole list, and the
    cells are written one column at a time. Any other list gets None.
    """
    if not {dict}.issuperset(map(type, values)) or not values[0]:
        return None
    keys = list(values[0])
    if not {str}.issuperset(map(type, chain.from_iterable(values))) or any(list(v) != keys for v in values):
        return None
    inner = pad + "  "
    heads = ["," + inner + _escape(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    columns = [
        [head + text for text in _cells([v[key] for v in values], inner)]
        for head, key in zip(heads, keys)
    ]
    return list(map("".join, zip(*columns, repeat(pad + "}"))))


def _emit(command: str, parameters: dict, payload: dict, header, rows, fmt: str, started: float) -> None:
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
        sys.stdout.write(_render_rows(header, rows, fmt))


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
    header = ("n", "k", "count")
    rows = [[row.n, row.k, str(row.count)] for row in table.rows]
    records = [
        {**dict(zip(header, flat)), "elapsed_ms": int(round(row.elapsed * 1000))}
        for flat, row in zip(rows, table.rows)
    ]
    parameters = {
        "n": list(sizes),
        "avoid": list(args.avoid or []),
        "symmetry": args.symmetry,
        "by": args.by,
        "method": args.method,
    }
    return 0, parameters, {"method": table.query.method.value, "rows": records}, header, rows


def _cmd_verify(args):
    report = run_suite(args.suite, args.max_n)
    header = ("check", "n", "k", "observed", "expected", "match")
    rows = [
        [p.label, p.n, p.k, _fmt_count(p.table_value), _fmt_count(p.oracle_value), p.match]
        for p in report.pairs
    ]
    checks = [dict(zip(header, row)) for row in rows]
    mismatch = next((check for check in checks if not check["match"]), None)
    payload = {
        "suite": args.suite,
        "max_n": args.max_n,
        "overall": mismatch is None,
        "checks": checks,
        "first_mismatch": mismatch,
    }
    parameters = {"suite": args.suite, "max_n": args.max_n}
    return (0 if mismatch is None else 1), parameters, payload, header, rows


def _cmd_certify(args):
    cert = certify_shallow(parse_permutation(args.permutation))
    header = ("step", "size", "position_of_max", "moved_value", "classification")
    top = len(cert.subject) + 1
    rows = [
        [i, top - i, position, moved, _STEP_KINDS[kind]]
        for i, (position, moved, kind) in enumerate(cert.steps, start=1)
    ]
    payload = {
        "subject": format_permutation(cert.subject),
        "verdict": cert.verdict,
        "steps": [dict(zip(header, row)) for row in rows],
    }
    return (0 if cert.verdict else 1), {"permutation": args.permutation}, payload, header, rows


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
        header, rows = ("n", "coefficient"), list(enumerate(coeffs))
    else:
        payload.update(kind="bivariate", size_variable=expansion.size_variable,
                       statistic_variable=expansion.statistic_variable, order=args.order,
                       rows=[[str(v) for v in row] for row in expansion.rows])
        header = ("n", "k", "value")
        rows = [(n, k, v) for n, row in enumerate(payload["rows"]) for k, v in enumerate(row)]
    return 0, {"name": args.name, "order": args.order}, payload, header, rows


def _cmd_profile(args):
    pair = profile(args.n)
    payload = {
        "n": pair.left.n,
        "note": "exploratory evidence; equality is reported, not asserted",
        "consistent": pair.consistent,
    }
    for side, prof in (("left", pair.left), ("right", pair.right)):
        payload[side] = {
            "descriptor": prof.descriptor,
            "total": str(prof.total()),
            "entries": [
                {"cycles": c, "statistic": s, "count": str(m)} for (c, s), m in prof.counts
            ],
        }
    rows = [
        (side, e["cycles"], e["statistic"], e["count"])
        for side in ("left", "right")
        for e in payload[side]["entries"]
    ]
    return 0, {"n": args.n}, payload, ("side", "cycles", "statistic", "count"), rows


# ---------------------------------------------------------------------- entry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowperm",
        description="Count, verify, certify, and expand shallow-permutation formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv", "md"), default="json")

    p_count = sub.add_parser("count", help="count shallow permutations")
    p_count.add_argument("--n", type=_parse_sizes, required=True, metavar="N|LO..HI")
    p_count.add_argument("--avoid", action="append", metavar="PATTERN",
                         help="pattern word like 132, or named spec 3n12 / u3412; repeatable")
    p_count.add_argument("--symmetry", choices=tuple(_SYMMETRIES))
    p_count.add_argument("--by", choices=tuple(REFINEMENTS))
    p_count.add_argument("--method", choices=[m.value for m in Method], default="constructive")
    add_format(p_count)
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=tuple(SUITES), required=True)
    p_verify.add_argument("--max-n", type=int, default=None)
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_certify = sub.add_parser("certify", help="certify shallowness of one permutation")
    p_certify.add_argument("permutation")
    add_format(p_certify)
    p_certify.set_defaults(func=_cmd_certify)

    p_gf = sub.add_parser("gf", help="expand a catalog generating function")
    p_gf.add_argument("--name", required=True)
    p_gf.add_argument("--order", type=int, default=12)
    add_format(p_gf)
    p_gf.set_defaults(func=_cmd_gf)

    p_profile = sub.add_parser("profile", help="compare exploratory statistic profiles")
    p_profile.add_argument("--n", type=int, required=True)
    add_format(p_profile)
    p_profile.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        code, parameters, payload, header, rows = args.func(args)
    except (SizeCapExceeded, OrderExceeded, MethodDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _emit(args.command, parameters, payload, header, rows, args.format, started)
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
