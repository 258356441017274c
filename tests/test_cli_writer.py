"""The CLI's JSON writer against ``json.dumps(value, indent=2)``, byte for byte.

``cli._dumps`` replaces the indented ``json.dumps`` call behind every JSON
envelope, so it is checked on every document the CLI writes in the pinned
transcripts, on large certificates and catalog expansions, on the full
verification suite, and on arbitrary JSON values.
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

from shallowperm import cli, perms, series, shallow

PINNED = Path(__file__).parent / "data" / "cli_transcripts.json"


def expected(value, pad="\n"):
    return json.dumps(value, indent=2).replace("\n", pad)


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


def grown(rng, n):
    p = (1,)
    while len(p) < n:
        lr, rl = perms.lr_max_flags(p), perms.rl_min_flags(p)
        slots = [None] + [i + 1 for i in range(len(p)) if lr[i] or rl[i]]
        p = shallow.extend_right(p, rng.choice(slots))
    return p


@pytest.mark.parametrize("n", [10, 57, 320, 500, 2000])
def test_certify_documents(written, n):
    rng = random.Random(n)
    uniform = list(range(1, n + 1))
    rng.shuffle(uniform)
    words = [grown(rng, n), tuple(uniform)]
    calls = written(*(["certify", perms.format_permutation(w)] for w in words))
    assert_identical(calls, 2)
    steps = [value for value, pad, _ in calls if pad == "\n"]
    assert [len(doc["payload"]["steps"]) for doc in steps] == [n - 1, n - 1]


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


class Level(enum.IntEnum):
    LOW = -1
    HIGH = 2**70


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
)
KEYS = st.one_of(STRINGS, st.integers(), st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(STRINGS, children, max_size=4).map(OrderedDict),
    ),
    max_leaves=20,
)


@settings(max_examples=400)
@given(VALUES, st.integers(min_value=0, max_value=3))
def test_arbitrary_values(value, depth):
    pad = "\n" + "  " * depth
    assert cli._dumps(value, pad) == expected(value, pad)
