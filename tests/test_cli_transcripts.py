"""Pinned CLI transcripts: stdout, stderr and exit code of every command path.

Each entry of ``data/cli_transcripts.json`` is one in-process ``main`` call.
Elapsed times are masked. For argparse usage errors only the exit code and
the last stderr line are pinned, because the usage text wraps with the
terminal width.

Regenerate with ``PYTHONPATH=src python tests/test_cli_transcripts.py``.
"""
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from shallowperm import cli

PINNED = Path(__file__).parent / "data" / "cli_transcripts.json"

GF_NAMES = (
    "T231", "T123", "P132", "P231", "P123", "FibOdd", "Grassmannian",
    "A321xz", "C231xt", "B231xt", "T231xt", "DescBinom132",
)

# 40-entry words, so that the pinned certificates nest many step records:
# one grown shallow by a seeded extend_right walk, one drawn uniformly and
# not shallow.
GROWN_40 = ("37,3,6,4,2,10,5,7,11,9,13,12,14,27,20,16,18,19,15,8,"
            "21,23,17,33,25,24,26,30,29,22,31,36,32,28,34,39,35,40,38,1")
UNIFORM_40 = ("27,6,37,17,13,12,22,36,2,18,29,9,35,21,24,33,16,23,25,30,"
              "8,7,4,10,31,15,3,1,19,26,20,39,40,5,34,28,32,14,38,11")

BASE_COMMANDS = [
    ["count", "--n", "4", "--avoid", "231"],
    ["count", "--n", "1..8", "--avoid", "132"],
    ["count", "--n", "5", "--avoid", "123", "--symmetry", "centro"],
    ["count", "--n", "4", "--avoid", "132", "--by", "descents"],
    ["count", "--n", "3", "--method", "both"],
    ["count", "--n", "2..4", "--avoid", "321", "--method", "brute"],
    ["count", "--n", "0..3"],
    ["count", "--n", "5", "--symmetry", "inv", "--by", "cycles"],
    ["count", "--n", "6", "--symmetry", "persym", "--by", "lrmax"],
    ["count", "--n", "6", "--avoid", "3n12"],
    ["count", "--n", "6", "--avoid", "u3412", "--avoid", "132"],
    ["count", "--n", "3", "--avoid", "1,0,2"],
    ["count", "--n", "3", "--avoid", "xyz"],
    ["count", "--n", "13"],
    ["count", "--n", "10..14"],
    ["count", "--n", "11", "--method", "brute"],
    ["count", "--n", "1..40"],
    ["count", "--n", "-3"],
    ["count", "--n", "-3..2"],
    ["count", "--n=-3..2"],
    ["count", "--n", "9..11", "--method", "both"],
    ["count", "--n", "abc"],
    ["count", "--n", "5..2"],
    ["count", "--n", "1..3..5"],
    ["count", "--n", "3", "--method", "psychic"],
    ["count"],
    ["verify", "--suite", "all", "--max-n", "4"],
    ["verify", "--suite", "table1", "--max-n", "5"],
    ["verify", "--suite", "descents", "--max-n", "5"],
    ["verify", "--suite", "symmetry", "--max-n", "5"],
    ["verify", "--suite", "closure", "--max-n", "3"],
    ["verify", "--suite", "mesh", "--max-n", "5"],
    ["verify", "--suite", "all", "--max-n", "-3"],
    ["verify", "--suite", "everything"],
    ["verify", "--suite", "table1", "--max-n", "13"],
    ["verify", "--suite", "closure", "--max-n", "11"],
    ["verify", "--suite", "symmetry", "--max-n", "13"],
    ["verify", "--suite", "mesh", "--max-n", "20"],
    ["certify", "4,2,1,6,3,5"],
    ["certify", "3,4,1,2"],
    ["certify", "1"],
    ["certify", "2,1"],
    ["certify", "4,2,2"],
    ["certify", "abc"],
    ["certify", "0,1"],
    ["certify", ""],
    *(["gf", "--name", name, "--order", "5"] for name in GF_NAMES),
    ["gf", "--name", "T231"],
    ["gf", "--name", "A321xz", "--order", "0"],
    ["gf", "--name", "T999"],
    ["gf", "--name", "T231", "--order", "100"],
    ["gf", "--name", "T231", "--order", "-1"],
    ["gf", "--name", "T231", "--order", "x"],
    ["profile", "--n", "1"],
    ["profile", "--n", "3"],
    ["profile", "--n", "5"],
    ["profile", "--n", "20"],
    ["profile", "--n", "-1"],
    ["profile", "--n", "x"],
    ["bogus"],
    [],
    ["certify", GROWN_40],
    ["certify", UNIFORM_40],
]

CORPUS = [
    argv + extra
    for argv in BASE_COMMANDS
    for extra in ([], ["--format", "csv"], ["--format", "md"])
]

_ELAPSED = re.compile(r'"elapsed_ms": \d+')


def transcript(argv):
    """One in-process CLI call as a pinnable record."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    record = {"argv": list(argv), "code": code,
              "stdout": _ELAPSED.sub('"elapsed_ms": 0', out.getvalue())}
    if err.getvalue().startswith("usage:"):
        record["stderr_last_line"] = err.getvalue().splitlines()[-1]
    else:
        record["stderr"] = err.getvalue()
    return record


@pytest.fixture(scope="module")
def pinned():
    return {tuple(r["argv"]): r for r in json.loads(PINNED.read_text())}


def test_corpus_is_pinned(pinned):
    assert list(pinned) == [tuple(argv) for argv in CORPUS]


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "<none>")
def test_transcript_matches(argv, pinned):
    assert transcript(argv) == pinned[tuple(argv)]


_UNESCAPED_PIPE = re.compile(r"(?<!\\)\|")


def test_md_rows_have_as_many_cells_as_the_header(pinned):
    tables = [r["stdout"] for argv, r in pinned.items()
              if argv[-2:] == ("--format", "md") and r["stdout"]]
    assert len(tables) == 41
    for table in tables:
        header, *rows = table.splitlines()
        width = len(_UNESCAPED_PIPE.split(header))
        for row in rows:
            assert len(_UNESCAPED_PIPE.split(row)) == width, row


if __name__ == "__main__":
    PINNED.write_text(json.dumps([transcript(argv) for argv in CORPUS], indent=1) + "\n")
