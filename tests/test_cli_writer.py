"""The CLI's JSON writer against ``json.dumps(value, indent=2)``, byte for byte.

``cli._dumps`` replaces the indented ``json.dumps`` call behind every JSON
envelope, so it is checked on every document the CLI writes in the pinned
transcripts, on large certificates and catalog expansions, on the full
verification suite, on lists of dicts in any key layout, on record tables
(``cli._Table``, written as lists of records), and on arbitrary JSON values.
"""
import contextlib
import enum
import io
import json
import random
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowperm import cli, perms, series, suites
from shallowperm.enumeration import VerificationPair
from words import grown

PINNED = Path(__file__).parent / "data" / "cli_transcripts.json"


def plain(value):
    """The value with every record table turned into its list of dicts."""
    if type(value) is cli._Table:
        return [dict(zip(value.keys, map(plain, row))) for row in zip(*value.columns)]
    if isinstance(value, dict):
        return type(value)((key, plain(v)) for key, v in value.items())
    if type(value) in (list, tuple):
        return type(value)(map(plain, value))
    return value


def expected(value, pad="\n"):
    return json.dumps(plain(value), indent=2).replace("\n", pad)


@pytest.fixture
def written(monkeypatch):
    """Run CLI calls and return every (value, pad, text) the writer produced."""
    writer = cli._dumps
    calls = []

    def spy(value, pad="\n"):
        text = writer(value, pad)
        calls.append((value, pad, text))
        return text

    monkeypatch.setattr(cli, "_dumps", spy)

    def run(*commands):
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
        return calls

    return run


def assert_identical(calls, documents):
    """Every call matched json.dumps, and `documents` envelopes were written."""
    assert sum(pad == "\n" for _, pad, _ in calls) == documents
    for value, pad, text in calls:
        assert text == expected(value, pad)


def test_pinned_transcript_documents(written):
    records = json.loads(PINNED.read_text())
    commands = [r["argv"] for r in records if r["stdout"].startswith("{")]
    assert_identical(written(*commands), len(commands))


@pytest.mark.parametrize("n", [10, 57, 320, 500, 2000])
def test_certify_documents(written, n):
    rng = random.Random(n)
    uniform = list(range(1, n + 1))
    rng.shuffle(uniform)
    words = [grown(rng, n), tuple(uniform)]
    calls = written(*(["certify", perms.format_permutation(w)] for w in words))
    assert_identical(calls, 2)
    docs = [plain(value) for value, pad, _ in calls if pad == "\n"]
    assert [len(doc["payload"]["steps"]) for doc in docs] == [n - 1, n - 1]


def test_catalog_documents(written):
    commands = [
        ["gf", "--name", name, "--order", str(order)]
        for name in series.catalog_names()
        for order in (0, 8, 16, 32, 64)
        if order <= series.ORDER_CAP
    ]
    assert_identical(written(*commands), len(commands))


def test_verify_all_document(written):
    assert_identical(written(["verify", "--suite", "all", "--max-n", "6"]), 1)


def test_failing_suite_document(written, monkeypatch):
    # first_mismatch is a plain dict written beside the checks table.
    def check(max_n, caps):
        return [VerificationPair("good", 3, 5, 5), VerificationPair("bad", 4, 7, 8, 1)]

    monkeypatch.setitem(suites.SUITES, "mesh", (check,))
    calls = written(["verify", "--suite", "mesh"])
    assert_identical(calls, 1)
    payload = calls[-1][0]["payload"]
    assert type(payload["checks"]) is cli._Table
    assert payload["first_mismatch"] == plain(payload["checks"])[1]


def test_payload_records_take_the_record_path(written, monkeypatch):
    # Each handler returns its records as a table, and the writer's table path serves it.
    records = cli._records
    served = []

    def spy(table, pad):
        served.append(table)
        return records(table, pad)

    monkeypatch.setattr(cli, "_records", spy)
    calls = written(
        ["certify", "4,2,1,6,3,5"],
        ["count", "--n", "1..4", "--by", "descents"],
        ["verify", "--suite", "closure", "--max-n", "3"],
        ["profile", "--n", "3"],
    )
    assert_identical(calls, 4)
    payloads = [value["payload"] for value, pad, _ in calls if pad == "\n"]
    tables = [
        payloads[0]["steps"],
        payloads[1]["rows"],
        payloads[2]["checks"],
        payloads[3]["left"]["entries"],
        payloads[3]["right"]["entries"],
    ]
    assert all(type(table) is cli._Table for table in tables)
    assert all(any(table is seen for seen in served) for table in tables)


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


class Text(str):
    pass


class Wildcard(str):
    """A key that compares equal to every key, though it is written as itself."""

    def __eq__(self, other):
        return True

    __hash__ = str.__hash__


# Lists of dicts, whatever their key layouts, are written item by item on
# the generic path; only a table is written a column at a time.
RECORD_LISTS = {
    "same keys": [{"n": 1, "k": None, "count": "2"}, {"n": 2, "k": 0, "count": "10"}],
    "one record": [{"a": "\u00e9\n\"", "b": -(2**70)}],
    "tuple of records": ({"a": 1}, {"a": 2}),
    "keys in another order": [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
    "missing key": [{"a": 1, "b": 2}, {"a": 1}],
    "extra key": [{"a": 1}, {"a": 1, "b": 2}],
    "nested values": [
        {"a": [1, [2, {}], []], "b": {"c": {"d": [None]}, "e": [{"f": 1}, {"f": 2}]}},
        {"a": [], "b": {}},
    ],
    "True beside 1": [{"a": True, "b": 1}, {"a": 1, "b": False}],
    "IntEnum, float and str subclass": [
        {"a": Level.HIGH, "b": 1.5, "c": Text("x")},
        {"a": Level.LOW, "b": float("nan"), "c": "y"},
    ],
    "str subclass key": [{"a": 1}, {Text("a"): 2}],
    "key equal to any key": [{"a": 1}, {Wildcard("b"): 2}],
    "non-str key": [{"a": 1}, {1: 2}],
    "dict subclass": [{"a": 1}, OrderedDict(a=2)],
    "a record beside a scalar": [{"a": 1}, 1],
    "empty dicts": [{}, {}],
    "empty dict first": [{}, {"a": 1}],
    "empty dict last": [{"a": 1}, {}],
}


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("value", list(RECORD_LISTS.values()), ids=list(RECORD_LISTS))
def test_record_lists(value, depth):
    pad = "\n" + "  " * depth
    assert cli._dumps(value, pad) == expected(value, pad)


Table = cli._Table

# Tables the writer takes apart a column at a time; a column of one exact
# scalar type is mapped through one writer, any other column cell by cell.
TABLES = {
    "empty": Table(("n", "k"), ((), ())),
    "one record": Table(("a",), (("x",),)),
    "None column": Table(("n", "k", "count"), ((1, 2), (None, None), ("2", "10"))),
    "ranges and lists": Table(("step", "size", "kind"), (range(1, 4), [3, 2, 1], ("a", "b", "c"))),
    "escaped and non-BMP strings": Table(
        ("k\u00e9\"y\n", "\U0001f600"), (("\u00e9\n\"", "\U0001f600\ud800"), ("\\", "\x00\x1f"))
    ),
    "big integers": Table(("a",), ((-(2**70), 10**40),)),
    "True beside 1": Table(("a", "b"), ((True, 1), (1, False))),
    "float, IntEnum, str subclass and nested cells": Table(
        ("float", "enum", "text", "nested"),
        (
            (1.5, float("nan")),
            (Level.HIGH, Level.LOW),
            (Text("x"), "y"),
            ([1, [2, {}], []], {"c": {"d": [None]}, "e": [{"f": 1}, {"f": 2}]}),
        ),
    ),
    "a key containing %": Table(("%s", "100%", "%%d"), ((1, 2), ("%", "%s"), (None, 3))),
    "a table in a cell": Table(("t",), ((Table(("a",), ((1, 2),)), Table(("b",), ((),))),)),
}


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("value", list(TABLES.values()), ids=list(TABLES))
def test_tables(value, depth):
    pad = "\n" + "  " * depth
    assert cli._dumps(value, pad) == expected(value, pad)
    assert cli._dumps({"x": [value]}, pad) == expected({"x": [value]}, pad)


STRINGS = st.text(st.characters(exclude_categories=()))  # surrogates too
SCALARS = st.one_of(
    STRINGS,
    st.characters(min_codepoint=0, max_codepoint=0x1F),
    st.characters(min_codepoint=0x10000),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.sampled_from(Level),
    st.text(max_size=3).map(Text),
)
KEYS = st.one_of(STRINGS, st.integers(), st.booleans(), st.none())


def tables(cells):
    """Tables of 1-3 distinct keys and 0-4 records; a column often holds one scalar type."""

    def column(size):
        return st.one_of(*(
            st.lists(kind, min_size=size, max_size=size)
            for kind in (cells, st.integers(), STRINGS, st.booleans(), st.none(), st.floats())
        )).flatmap(lambda values: st.sampled_from([values, tuple(values)]))

    def table(keys, size):
        return st.tuples(*(column(size) for _ in keys)).map(lambda columns: Table(tuple(keys), columns))

    return st.tuples(st.lists(STRINGS, min_size=1, max_size=3, unique=True), st.integers(0, 4)).flatmap(
        lambda shape: table(*shape)
    )


# JSON values with no table in them, then values that hold tables too. A
# table sits only in containers the writer walks itself: a value it hands
# to json.dumps (an OrderedDict, a non-str key) holds none.
PLAIN_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(STRINGS, children, max_size=4).map(OrderedDict),
        st.lists(STRINGS, min_size=1, max_size=3, unique=True).flatmap(
            lambda keys: st.lists(st.fixed_dictionaries(dict.fromkeys(keys, children)), max_size=4)
        ),
    ),
    max_leaves=20,
)
VALUES = st.recursive(
    PLAIN_VALUES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
        tables(children),
    ),
    max_leaves=4,
)


@settings(max_examples=400)
@given(VALUES, st.integers(min_value=0, max_value=3))
def test_arbitrary_values(value, depth):
    pad = "\n" + "  " * depth
    assert cli._dumps(value, pad) == expected(value, pad)


@settings(max_examples=400)
@given(tables(SCALARS), st.integers(min_value=0, max_value=3))
def test_arbitrary_tables(value, depth):
    pad = "\n" + "  " * depth
    assert cli._dumps(value, pad) == expected(value, pad)
