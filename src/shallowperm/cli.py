"""Command-line front end: shallowperm count | verify | certify | gf | profile.

Output is a machine-readable document. JSON (the default) wraps the
payload in an envelope with a schema version, the command, its
parameters, and the elapsed wall time; csv and md render exactly the
payload rows. Count-like numbers are serialized as decimal strings so
arbitrarily large values survive consumers that parse JSON numbers as
doubles.

Exit codes: 0 success (all checks pass, permutation shallow); 1 domain
failure (a mismatch, a non-shallow permutation, a cap or disagreement
error); 2 usage error (bad flags, unparseable input, unknown name).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from typing import Optional, Sequence

from . import series
from .enumeration import (
    CountQuery,
    CountTable,
    Method,
    MethodDisagreement,
    ProfilePair,
    SizeCapExceeded,
    VerificationReport,
    count,
    profile,
)
from .patterns import parse_pattern
from .perms import (
    NotAPermutation,
    ParseError,
    SymmetryClass,
    format_permutation,
    parse_permutation,
)
from .series import OrderExceeded
from .shallow import ShallowCertificate, certify_shallow
from .suites import SUITES, run_suite

SCHEMA_VERSION = "1"

_METHODS = {
    "brute": Method.BRUTE_FORCE,
    "constructive": Method.CONSTRUCTIVE,
    "both": Method.BOTH,
}

_SYMMETRIES = {
    "inv": SymmetryClass.INVOLUTION,
    "centro": SymmetryClass.CENTROSYMMETRIC,
    "persym": SymmetryClass.PERSYMMETRIC,
}


def _parse_sizes(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty size range {text!r}")
        return tuple(range(lo, hi + 1))
    return (int(text),)


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
    cells = [[("" if v is None else str(v)) for v in row] for row in rows]
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("-" for _ in header) + " |")
    for row in cells:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _emit(command: str, parameters: dict, payload: dict, header, rows, fmt: str, started: float) -> None:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "parameters": parameters,
            "payload": payload,
            "elapsed_ms": int(round((time.perf_counter() - started) * 1000)),
        }
        print(json.dumps(doc, indent=2))
    else:
        sys.stdout.write(_render_rows(header, rows, fmt))


# ---------------------------------------------------------------------- count


def _count_payload(table: CountTable):
    rows_json = []
    rows_flat = []
    for row in table.rows:
        rows_json.append(
            {
                "n": row.n,
                "k": row.k,
                "count": str(row.count),
                "elapsed_ms": int(round(row.elapsed * 1000)),
            }
        )
        rows_flat.append([row.n, row.k, str(row.count)])
    payload = {"method": table.provenance.value, "rows": rows_json}
    return payload, ("n", "k", "count"), rows_flat


def _cmd_count(args) -> int:
    started = time.perf_counter()
    try:
        specs = tuple(parse_pattern(text) for text in args.avoid or [])
    except (ParseError, NotAPermutation, ValueError) as exc:
        print(f"error: bad pattern: {exc}", file=sys.stderr)
        return 2
    query = CountQuery(
        sizes=args.n,
        avoid=specs,
        symmetry=_SYMMETRIES[args.symmetry] if args.symmetry else None,
        refine_by=args.by,
        method=_METHODS[args.method],
    )
    try:
        table = count(query)
    except (SizeCapExceeded, MethodDisagreement) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload, header, rows = _count_payload(table)
    parameters = {
        "n": [int(v) for v in args.n],
        "avoid": list(args.avoid or []),
        "symmetry": args.symmetry,
        "by": args.by,
        "method": args.method,
    }
    _emit("count", parameters, payload, header, rows, args.format, started)
    return 0


# --------------------------------------------------------------------- verify


def _verify_payload(report: VerificationReport, suite: str, max_n):
    checks = []
    rows = []
    for pair in report.pairs:
        checks.append(
            {
                "check": pair.label,
                "n": pair.n,
                "k": pair.k,
                "observed": _fmt_count(pair.table_value),
                "expected": _fmt_count(pair.oracle_value),
                "match": pair.match,
            }
        )
        rows.append(
            [
                pair.label,
                pair.n,
                pair.k,
                _fmt_count(pair.table_value),
                _fmt_count(pair.oracle_value),
                pair.match,
            ]
        )
    payload = {
        "suite": suite,
        "max_n": max_n,
        "overall": report.overall,
        "checks": checks,
        "first_mismatch": None
        if report.first_mismatch is None
        else checks[report.pairs.index(report.first_mismatch)],
    }
    return payload, ("check", "n", "k", "observed", "expected", "match"), rows


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    try:
        report = run_suite(args.suite, args.max_n)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload, header, rows = _verify_payload(report, args.suite, args.max_n)
    parameters = {"suite": args.suite, "max_n": args.max_n}
    _emit("verify", parameters, payload, header, rows, args.format, started)
    return 0 if report.overall else 1


# -------------------------------------------------------------------- certify


def _certify_payload(cert: ShallowCertificate):
    steps = []
    rows = []
    size = len(cert.subject)
    for index, step in enumerate(cert.steps, start=1):
        entry = {
            "step": index,
            "size": size,
            "position_of_max": step.position_of_max,
            "moved_value": step.moved_value,
            "classification": step.classification.value,
        }
        steps.append(entry)
        rows.append(
            [index, size, step.position_of_max, step.moved_value, step.classification.value]
        )
        size -= 1
    payload = {
        "subject": format_permutation(cert.subject),
        "verdict": cert.verdict,
        "steps": steps,
    }
    header = ("step", "size", "position_of_max", "moved_value", "classification")
    return payload, header, rows


def _cmd_certify(args) -> int:
    started = time.perf_counter()
    try:
        subject = parse_permutation(args.permutation)
    except (ParseError, NotAPermutation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cert = certify_shallow(subject)
    payload, header, rows = _certify_payload(cert)
    _emit("certify", {"permutation": args.permutation}, payload, header, rows, args.format, started)
    return 0 if cert.verdict else 1


# ------------------------------------------------------------------------- gf


def _gf_payload(expansion, name: str, order: int):
    if isinstance(expansion, series.RationalSeries):
        coeffs = [str(series.coefficient(expansion, n)) for n in range(order + 1)]
        payload = {
            "name": name,
            "kind": "univariate",
            "size_variable": expansion.variable,
            "order": order,
            "coefficients": coeffs,
        }
        rows = [[n, c] for n, c in enumerate(coeffs)]
        return payload, ("n", "coefficient"), rows
    payload = {
        "name": name,
        "kind": "bivariate",
        "size_variable": expansion.size_variable,
        "statistic_variable": expansion.statistic_variable,
        "order": order,
        "rows": [[str(v) for v in row] for row in expansion.rows],
    }
    rows = [
        [n, k, str(v)] for n, row in enumerate(expansion.rows) for k, v in enumerate(row)
    ]
    return payload, ("n", "k", "value"), rows


def _cmd_gf(args) -> int:
    started = time.perf_counter()
    try:
        expansion = series.catalog(args.name, args.order)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except OrderExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload, header, rows = _gf_payload(expansion, args.name, args.order)
    _emit("gf", {"name": args.name, "order": args.order}, payload, header, rows, args.format, started)
    return 0


# -------------------------------------------------------------------- profile


def _profile_payload(pair: ProfilePair):
    def side(profile_side):
        return {
            "descriptor": profile_side.descriptor,
            "total": str(profile_side.total()),
            "entries": [
                {"cycles": c, "statistic": s, "count": str(m)}
                for (c, s), m in profile_side.counts
            ],
        }

    payload = {
        "n": pair.left.n,
        "note": "exploratory evidence; equality is reported, not asserted",
        "consistent": pair.consistent,
        "left": side(pair.left),
        "right": side(pair.right),
    }
    rows = []
    for label, prof in (("left", pair.left), ("right", pair.right)):
        for (c, s), m in prof.counts:
            rows.append([label, c, s, str(m)])
    return payload, ("side", "cycles", "statistic", "count"), rows


def _cmd_profile(args) -> int:
    started = time.perf_counter()
    try:
        pair = profile(args.n)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload, header, rows = _profile_payload(pair)
    _emit("profile", {"n": args.n}, payload, header, rows, args.format, started)
    return 0


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
    p_count.add_argument("--by", choices=("descents", "cycles", "lrmax"))
    p_count.add_argument("--method", choices=tuple(_METHODS), default="constructive")
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
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
