import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowperm import cli, enumeration, perms, series, suites
from shallowperm.cli import main
from shallowperm.enumeration import MethodDisagreement, VerificationPair
from shallowperm.patterns import LENGTH_3
from words import grown


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def csv_rows(capsys, *argv):
    return list(csv.reader(io.StringIO(run(capsys, *argv, "--format", "csv")[1])))


def cells(values):
    """JSON values as the csv writer writes them."""
    return ["" if v is None else str(v) for v in values]


class TestCount:
    def test_basic(self, capsys):
        code, doc = run_json(capsys, "count", "--n", "4", "--avoid", "231")
        assert code == 0
        assert doc["schema_version"] == "1"
        assert doc["command"] == "count"
        assert doc["payload"]["rows"] == [
            {"n": 4, "k": None, "count": "14", "elapsed_ms": doc["payload"]["rows"][0]["elapsed_ms"]}
        ]

    def test_range_totals(self, capsys):
        code, doc = run_json(capsys, "count", "--n", "1..8", "--avoid", "132")
        assert code == 0
        counts = [row["count"] for row in doc["payload"]["rows"]]
        assert counts == ["1", "2", "5", "13", "34", "89", "233", "610"]

    def test_symmetry_filter(self, capsys):
        code, doc = run_json(
            capsys, "count", "--n", "5", "--avoid", "123", "--symmetry", "centro"
        )
        assert code == 0
        assert doc["payload"]["rows"][0]["count"] == "1"

    def test_refinement(self, capsys):
        code, doc = run_json(
            capsys, "count", "--n", "4", "--avoid", "132", "--by", "descents"
        )
        assert code == 0
        by_k = {row["k"]: row["count"] for row in doc["payload"]["rows"]}
        assert by_k == {0: "1", 1: "5", 2: "6", 3: "1"}

    def test_separated_321_walks_the_321_tree(self, capsys, monkeypatch):
        # "3,2,1" names no shared spec, so it parses to an equal new one.
        walked = []
        real = enumeration.generate_321_avoiding
        monkeypatch.setattr(enumeration, "generate_321_avoiding", lambda n: walked.append(n) or real(n))
        counts = []
        for text in ("3,2,1", "321"):
            code, doc = run_json(capsys, "count", "--n", "1..6", "--avoid", text)
            assert code == 0
            counts.append([row["count"] for row in doc["payload"]["rows"]])
        assert counts[0] == counts[1] == ["1", "2", "5", "13", "34", "89"]
        assert walked == [*range(1, 7)] * 2

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "3", "--method", "both")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc)) == doc

    def test_csv_matches_json_rows(self, capsys):
        code, out_json, _ = run(capsys, "count", "--n", "2..4", "--avoid", "321")
        rows_json = json.loads(out_json)["payload"]["rows"]
        code, out_csv, _ = run(
            capsys, "count", "--n", "2..4", "--avoid", "321", "--format", "csv"
        )
        parsed = list(csv.reader(io.StringIO(out_csv)))
        assert parsed[0] == ["n", "k", "count"]
        assert [[r["n"], r["k"], r["count"]] for r in rows_json] == [
            [int(row[0]), None if row[1] == "" else int(row[1]), row[2]]
            for row in parsed[1:]
        ]

    def test_md_matches_csv_rows(self, capsys):
        _, out_csv, _ = run(capsys, "count", "--n", "3", "--format", "csv")
        _, out_md, _ = run(capsys, "count", "--n", "3", "--format", "md")
        csv_rows = list(csv.reader(io.StringIO(out_csv)))[1:]
        md_rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in out_md.strip().splitlines()[2:]
        ]
        assert [[c for c in row] for row in csv_rows] == md_rows

    def test_bad_pattern_exit_2(self, capsys):
        code, out, err = run(capsys, "count", "--n", "3", "--avoid", "1,0,2")
        assert code == 2
        assert "error" in err

    def test_cap_exit_1(self, capsys):
        code, out, err = run(capsys, "count", "--n", "13")
        assert code == 1

    def test_wide_range_rejected_from_its_ends(self, capsys):
        code, out, err = run(capsys, "count", "--n", "1..1000000000")
        assert (code, out) == (1, "")
        assert err == "error: size 1000000000 beyond the constructive cap 12\n"
        code, out, err = run(capsys, "count", "--n", "5..1000000000", "--method", "brute")
        assert err == "error: size 1000000000 beyond the brute cap 10\n"
        code, out, err = run(capsys, "count", "--n=-5..1000000000")
        assert (code, out) == (2, "")
        assert err == "error: sizes must be nonnegative\n"

    def test_method_disagreement_exit_1(self, capsys, monkeypatch):
        def disagree(query):
            raise MethodDisagreement(3, {None: 4}, {None: 5})

        monkeypatch.setattr(cli, "count", disagree)
        code, out, err = run(capsys, "count", "--n", "3", "--method", "both")
        assert (code, out) == (1, "")
        assert err == "error: method disagreement at n=3: brute={None: 4} constructive={None: 5}\n"

    def test_bad_flag_exit_2(self, capsys):
        assert main(["count", "--n", "3", "--method", "psychic"]) == 2
        assert main(["count", "--n", "abc"]) == 2
        assert main(["count", "--n", "5..2"]) == 2

    def test_big_counts_survive_as_strings(self, capsys):
        from shallowperm.series import fibonacci

        code, doc = run_json(capsys, "gf", "--name", "FibOdd", "--order", "40")
        raw = doc["payload"]["coefficients"][40]
        assert isinstance(raw, str)
        assert int(raw) == fibonacci(79)
        assert int(raw) > 2**53


class TestFormatParity:
    def test_gf_csv_matches_json(self, capsys):
        _, doc = run_json(capsys, "gf", "--name", "T123", "--order", "6")
        coeffs = doc["payload"]["coefficients"]
        _, out_csv, _ = run(capsys, "gf", "--name", "T123", "--order", "6", "--format", "csv")
        parsed = list(csv.reader(io.StringIO(out_csv)))
        assert [row[1] for row in parsed[1:]] == coeffs

    def test_certify_csv_matches_json(self, capsys):
        _, doc = run_json(capsys, "certify", "4,2,1,6,3,5")
        steps = doc["payload"]["steps"]
        _, out_csv, _ = run(capsys, "certify", "4,2,1,6,3,5", "--format", "csv")
        parsed = list(csv.reader(io.StringIO(out_csv)))
        assert len(parsed) - 1 == len(steps)
        for row, step in zip(parsed[1:], steps):
            assert int(row[0]) == step["step"]
            assert row[4] == step["classification"]

    def test_verify_csv_matches_json(self, capsys):
        args = ("verify", "--suite", "mesh", "--max-n", "5")
        _, doc = run_json(capsys, *args)
        checks = doc["payload"]["checks"]
        _, out_csv, _ = run(capsys, *args, "--format", "csv")
        parsed = list(csv.reader(io.StringIO(out_csv)))
        assert [row[0] for row in parsed[1:]] == [c["check"] for c in checks]

    @pytest.mark.parametrize("n", [10, 57, 320, 500])
    def test_certify_csv_rows_are_json_steps(self, capsys, n):
        rng = random.Random(n)
        for word in (grown(rng, n), tuple(rng.sample(range(1, n + 1), n))):
            text = perms.format_permutation(word)
            steps = run_json(capsys, "certify", text)[1]["payload"]["steps"]
            assert len(steps) == n - 1
            assert csv_rows(capsys, "certify", text) == [list(steps[0])] + [cells(s.values()) for s in steps]

    @pytest.mark.parametrize("argv, records", [
        (("count", "--n", "1..7", "--by", "descents"), ("rows",)),
        (("verify", "--suite", "symmetry", "--max-n", "6"), ("checks",)),
    ])
    def test_csv_rows_are_json_records(self, capsys, argv, records):
        value = run_json(capsys, *argv)[1]["payload"]
        for key in records:
            value = value[key]
        keys = [key for key in value[0] if key != "elapsed_ms"]
        assert csv_rows(capsys, *argv) == [keys] + [cells(r[key] for key in keys) for r in value]

    def test_profile_csv_rows_are_json_entries(self, capsys):
        payload = run_json(capsys, "profile", "--n", "5")[1]["payload"]
        expected = [["side", *payload["left"]["entries"][0]]]
        for side in ("left", "right"):
            expected += [[side, *cells(e.values())] for e in payload[side]["entries"]]
        assert csv_rows(capsys, "profile", "--n", "5") == expected

    def test_every_command_round_trips(self, capsys):
        invocations = [
            ("count", "--n", "3"),
            ("verify", "--suite", "closure", "--max-n", "3"),
            ("certify", "2,1"),
            ("gf", "--name", "FibOdd", "--order", "4"),
            ("profile", "--n", "2"),
        ]
        for argv in invocations:
            _, out, _ = run(capsys, *argv)
            doc = json.loads(out)
            assert json.loads(json.dumps(doc)) == doc
            assert doc["schema_version"] == "1"
            assert doc["command"] == argv[0]
            assert isinstance(doc["elapsed_ms"], int)


class TestVerify:
    def test_small_all_suite(self, capsys):
        code, doc = run_json(capsys, "verify", "--suite", "all", "--max-n", "4")
        assert code == 0
        assert doc["payload"]["overall"] is True
        assert doc["payload"]["first_mismatch"] is None
        assert all(c["match"] for c in doc["payload"]["checks"])

    def test_table1_suite(self, capsys):
        code, doc = run_json(capsys, "verify", "--suite", "table1", "--max-n", "5")
        assert code == 0
        labels = [c["check"] for c in doc["payload"]["checks"]]
        assert any("t_n(132)" in label for label in labels)
        assert any("brute vs constructive" in label for label in labels)

    def test_failing_suite_reports_first_mismatch(self, capsys, monkeypatch):
        def check(max_n, caps):
            return [VerificationPair("good", 3, 5, 5), VerificationPair("bad", 4, 7, 8, 1)]

        monkeypatch.setitem(suites.SUITES, "mesh", (check,))
        code, doc = run_json(capsys, "verify", "--suite", "mesh")
        assert code == 1
        payload = doc["payload"]
        assert payload["overall"] is False
        assert [c["check"] for c in payload["checks"]] == ["good", "bad"]
        assert payload["first_mismatch"] == {
            "check": "bad", "n": 4, "k": 1, "observed": "7", "expected": "8", "match": False
        }
        code, out, _ = run(capsys, "verify", "--suite", "mesh", "--format", "csv")
        assert code == 1
        assert out.splitlines() == [
            "check,n,k,observed,expected,match", "good,3,,5,5,True", "bad,4,1,7,8,False"
        ]
        code, out, _ = run(capsys, "verify", "--suite", "mesh", "--format", "md")
        assert code == 1
        assert out.splitlines()[2:] == [
            "| good | 3 |  | 5 | 5 | True |", "| bad | 4 | 1 | 7 | 8 | False |"
        ]

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "everything"]) == 2

    def test_negative_max_n_exit_2(self, capsys):
        for suite, max_n in (("all", "-3"), ("table1", "-1")):
            code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", max_n)
            assert code == 2
            assert out == ""
            assert err == f"error: max_n must be nonnegative, got {max_n}\n"


class TestCertify:
    def test_shallow_exit_0(self, capsys):
        code, doc = run_json(capsys, "certify", "4,2,1,6,3,5")
        assert code == 0
        assert doc["payload"]["verdict"] is True
        assert len(doc["payload"]["steps"]) == 5
        first = doc["payload"]["steps"][0]
        assert first["position_of_max"] == 4
        assert first["moved_value"] == 5
        assert first["classification"] == "left_to_right_max"

    def test_not_shallow_exit_1(self, capsys):
        code, doc = run_json(capsys, "certify", "3,4,1,2")
        assert code == 1
        assert doc["payload"]["verdict"] is False
        assert any(
            s["classification"] == "violation" for s in doc["payload"]["steps"]
        )

    def test_singleton(self, capsys):
        code, doc = run_json(capsys, "certify", "1")
        assert code == 0
        assert doc["payload"]["steps"] == []

    def test_parse_failure_exit_2(self, capsys):
        code, out, err = run(capsys, "certify", "4,2,2")
        assert code == 2

    @pytest.mark.parametrize("word, code", [("4,2,1,6,3,5", 0), ("3,4,1,2", 1)])
    def test_package_runs_as_a_module(self, word, code):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "shallowperm", "certify", word],
                              capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (code, b"")
        assert json.loads(done.stdout)["payload"]["verdict"] is (code == 0)


class TestGf:
    def test_univariate(self, capsys):
        code, doc = run_json(capsys, "gf", "--name", "T231", "--order", "5")
        assert code == 0
        assert doc["payload"]["coefficients"] == ["1", "1", "2", "5", "14", "41"]
        assert doc["payload"]["size_variable"] == "x"

    def test_bivariate(self, capsys):
        code, doc = run_json(capsys, "gf", "--name", "A321xz", "--order", "6")
        assert code == 0
        rows = doc["payload"]["rows"]
        sums = [sum(int(v) for v in row) for row in rows]
        assert sums[1:] == [1, 2, 5, 13, 34, 89]
        assert doc["payload"]["statistic_variable"] == "x"

    def test_grassmannian_values(self, capsys):
        code, doc = run_json(capsys, "gf", "--name", "Grassmannian", "--order", "6")
        assert [int(c) for c in doc["payload"]["coefficients"][2:]] == [
            2, 5, 11, 21, 36,
        ]

    def test_unknown_name_exit_2(self, capsys):
        code, out, err = run(capsys, "gf", "--name", "T999")
        assert code == 2

    def test_order_cap_exit_1(self, capsys):
        code, out, err = run(capsys, "gf", "--name", "T231", "--order", "100")
        assert code == 1

    def test_negative_order_exit_2(self, capsys):
        code, out, err = run(capsys, "gf", "--name", "T231", "--order", "-1")
        assert code == 2
        assert "nonnegative" in err


class TestProfile:
    def test_size5(self, capsys):
        code, doc = run_json(capsys, "profile", "--n", "5")
        assert code == 0
        assert doc["payload"]["left"]["total"] == "34"
        assert doc["payload"]["right"]["total"] == "34"
        assert doc["payload"]["consistent"] is False
        assert "evidence" in doc["payload"]["note"]

    def test_size1(self, capsys):
        code, doc = run_json(capsys, "profile", "--n", "1")
        assert code == 0
        assert doc["payload"]["consistent"] is True

    def test_cap_exit_1(self, capsys):
        code, out, err = run(capsys, "profile", "--n", "20")
        assert code == 1

    def test_csv_rows(self, capsys):
        _, out_json, _ = run(capsys, "profile", "--n", "3")
        entries = json.loads(out_json)["payload"]
        expected = []
        for side in ("left", "right"):
            for e in entries[side]["entries"]:
                expected.append([side, str(e["cycles"]), str(e["statistic"]), e["count"]])
        _, out_csv, _ = run(capsys, "profile", "--n", "3", "--format", "csv")
        parsed = list(csv.reader(io.StringIO(out_csv)))
        assert parsed[1:] == expected


@pytest.mark.parametrize("command", ["count", "verify", "certify", "gf", "profile"])
def test_help_lists_format_once(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    listed = [line.split()[:2] for line in out.splitlines() if line.lstrip().startswith("--format")]
    assert (code, listed) == (0, [["--format", "{json,csv,md}"]])


class TestSuccessiveCalls:
    """A call's answer does not depend on the call made before it in the process."""

    @staticmethod
    def answer(capsys, argv):
        code, out, err = run(capsys, *argv)
        doc = json.loads(out) if out else None
        if doc:
            doc.pop("elapsed_ms")
            for row in doc["payload"].get("rows", []):
                row.pop("elapsed_ms", None)
        return code, doc, err

    @pytest.mark.parametrize("first, second", [
        (["count", "--n", "1..6", "--avoid", "132"], ["count", "--n", "1..6"]),
        (["count", "--n", "x"], ["count", "--n", "3", "--avoid", "231"]),
        (["certify", "3,4,1,2"], ["certify", "4,2,1,6,3,5"]),
    ])
    def test_second_call_answers_as_if_alone(self, capsys, first, second):
        alone = self.answer(capsys, second)
        self.answer(capsys, first)
        assert self.answer(capsys, second) == alone
        assert alone[0] == 0 and alone[2] == ""


class TestClosedPipe:
    # The 400-entry certificate fails inside the write itself; the short
    # csv fits in the stream's buffer and fails at the flush.
    @pytest.mark.parametrize("argv", [
        ["certify", ",".join(map(str, range(1, 401)))],
        ["count", "--n", "1..8", "--format", "csv"],
    ])
    def test_exit_1_without_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "shallowperm.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")


def _flag(flag, values):
    """The flag and one of the values, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda drawn: [command, *(a for part in drawn for a in part)])


# Sizes in the caps stop at 7, where every query answers in well under a
# second; the others pass every cap, are negative or reversed, or do not parse.
_SIZE = st.one_of(st.integers(0, 7).map(str), st.sampled_from(["13", "40", "-1", "x", ""]))
_RANGE = st.one_of(
    _SIZE,
    st.tuples(st.integers(-2, 7), st.integers(-2, 7)).map(lambda r: f"{r[0]}..{r[1]}"),
    st.sampled_from(["1..40", "1..", "..5", "1...3"]),
)
_PATTERN = st.sampled_from([*LENGTH_3, "3n12", "u3412", "1,3,2", "3412", "21", "1", "", "x",
                            "1,1", "0,1", "-1", "12a", "1234567890"])
_PERMUTATION = st.one_of(
    st.integers(0, 12).flatmap(lambda n: st.permutations(range(1, n + 1))).map(
        perms.format_permutation),
    st.sampled_from(["", " ", "x", "1,1", "0,1", "2,+1", "1_0,9", "-1,2", "1234567890", "\u0661"]),
)
_ORDER = st.sampled_from(["-1", "0", "7", "64", "65", "x", ""])
_NAME = st.sampled_from([*series.CATALOG, "T999", "", "fibodd", "321_involutions"])

_ARGV = st.one_of(
    _argv("count", _flag("--n", _RANGE),
          st.lists(_PATTERN, max_size=2).map(lambda ps: [a for p in ps for a in ("--avoid", p)]),
          _flag("--symmetry", st.sampled_from(["inv", "centro", "persym", "sym"])),
          _flag("--by", st.sampled_from(["descents", "cycles", "lrmax", "size"])),
          _flag("--method", st.sampled_from(["brute", "constructive", "both", "psychic"]))),
    # Without --max-n a suite runs at its default sizes, which take minutes.
    _argv("verify", _flag("--suite", st.sampled_from([*suites.SUITES, "none"])),
          _SIZE.map(lambda v: ["--max-n", v])),
    _argv("certify", _PERMUTATION.map(lambda text: [text])),
    _argv("gf", _flag("--name", _NAME), _flag("--order", _ORDER)),
    _argv("profile", _flag("--n", _SIZE)),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV, st.sampled_from(["json", "csv", "md"]))
def test_argv_fuzz_exits_0_1_or_2(argv, fmt):
    # Malformed, negative, reversed and over-cap arguments are refused with
    # exit 2 or 1, never with a traceback.
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", fmt])
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
