import functools
import itertools
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from shallowperm import enumeration, shallow, suites
from shallowperm.enumeration import Caps, Method, SizeCapExceeded
from shallowperm.patterns import LENGTH_3
from shallowperm.shallow import generate_shallow
from shallowperm.suites import (
    SUITES,
    check_decreasing,
    check_direct_sum_closure,
    check_table1,
    run_suite,
)


def test_suite_names():
    assert set(SUITES) == {"table1", "descents", "symmetry", "closure", "mesh", "all"}


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("everything")


@pytest.mark.parametrize("name", ["all", "table1"])
def test_negative_max_n_rejected(name):
    with pytest.raises(ValueError, match="max_n must be nonnegative"):
        run_suite(name, max_n=-1)


def test_small_closure_suite_passes():
    report = run_suite("closure", max_n=3)
    assert report.overall
    assert report.first_mismatch is None
    assert report.pairs


def test_max_n_clamps_table1():
    pairs = check_table1(4, Caps())
    assert max(p.n for p in pairs) == 4
    # Under a brute cap above the constructive one, the brute rows stop at
    # the columns' top rather than compare against a missing column entry.
    assert all(p.match for p in check_table1(None, Caps(brute_force=5, constructive=4)))


def test_mesh_suite_small():
    report = run_suite("mesh", max_n=5)
    assert report.overall
    assert any("witness" in p.label for p in report.pairs)


SMALL_CAPS = Caps(brute_force=4, constructive=5)
# The largest max_n each suite accepts under SMALL_CAPS: the least cap of the
# methods its checks declare. Every suite that walks S_n is bounded by brute force.
SMALL_LIMITS = {"table1": 4, "descents": 5, "symmetry": 5, "closure": 4, "mesh": 4, "all": 4}


@pytest.mark.parametrize("name", sorted(SMALL_LIMITS))
def test_suite_runs_at_its_cap_and_rejects_beyond(name):
    limit = SMALL_LIMITS[name]
    assert run_suite(name, max_n=limit, caps=SMALL_CAPS).overall
    cap = "brute cap 4" if limit == 4 else "constructive cap 5"
    start = time.perf_counter()
    with pytest.raises(SizeCapExceeded, match=f"^max_n {limit + 1} beyond the {cap}$"):
        run_suite(name, max_n=limit + 1, caps=SMALL_CAPS)
    assert time.perf_counter() - start < 1.0


def test_wrapped_checks_keep_their_cap(monkeypatch):
    # The benchmark's tracer swaps each check for a functools.wraps wrapper,
    # which copies the check's fields, method among them, onto the wrapper.
    def wrap(check):
        @functools.wraps(check)
        def wrapper(max_n, caps):
            return check(max_n, caps)

        return wrapper

    monkeypatch.setitem(SUITES, "closure", tuple(map(wrap, SUITES["closure"])))
    assert not any(isinstance(check, suites.Check) for check in SUITES["closure"])
    assert run_suite("closure", max_n=3).overall
    with pytest.raises(SizeCapExceeded, match="^max_n 11 beyond the brute cap 10$"):
        run_suite("closure", max_n=11)


def test_every_check_declares_a_capped_walk(monkeypatch):
    # run_suite rejects an over-cap max_n only through check.method, so it
    # must be the tightest of the methods whose caps the check reads, and a
    # check that walks S_n must stay within the brute cap.
    methods, walked = set(), []
    top, permutations, brute = suites._top, itertools.permutations, suites.brute_shallow_words

    def recording_top(method, *args):
        methods.add(method)
        return top(method, *args)

    def recording_permutations(values, *args):
        values = tuple(values)
        walked.append(len(values))
        return permutations(values, *args)

    def recording_brute(n):
        walked.append(n)
        return brute(n)

    monkeypatch.setattr(suites, "_top", recording_top)
    monkeypatch.setattr(itertools, "permutations", recording_permutations)
    monkeypatch.setattr(suites, "brute_shallow_words", recording_brute)
    for check in SUITES["all"]:
        methods.clear()
        walked.clear()
        check(None, SMALL_CAPS)
        assert check.method is min(methods, key=SMALL_CAPS.limit), check
        assert max(walked, default=0) <= SMALL_CAPS.brute_force, check


def test_table1_reads_the_count_routes(monkeypatch):
    # A kernel route that drops one survivor of each parent shows in each
    # column that count --avoid reads through it, against both the catalog
    # and brute force; the 321 column reads the 321 tree, so it still matches.
    def dropping(n, kernels):
        survivors = shallow._leaves(n, kernels=kernels)
        for _, children in itertools.groupby(survivors, key=shallow.r_operator):
            yield from itertools.islice(children, 1, None)

    monkeypatch.setattr(enumeration, "_leaves", dropping)
    pairs = run_suite("table1", max_n=6).pairs
    for name in ("132", "213", "231", "312", "123"):
        for against in ("vs ", "brute vs "):
            rows = [p for p in pairs if p.label.startswith(f"t_n({name}) {against}")]
            assert rows and not all(p.match for p in rows), (name, against)
    assert all(p.match for p in pairs if p.label.startswith("t_n(321)"))


def test_check_decreasing_clamps_to_constructive_cap():
    start = time.perf_counter()
    pairs = check_decreasing(10**6, Caps())
    assert time.perf_counter() - start < 2.0
    assert [p.label for p in pairs] == ["decreasing permutation not shallow [n<=12]"]
    assert pairs[0].match


# Every row of run_suite("all", max_n=6) as (label, n, k, observed, expected,
# match), recorded before the checks became oracle tables.
PINNED_ROWS = Path(__file__).parent / "data" / "verify_all_max6.json"


def test_all_suite_rows_match_pinned_file():
    pinned = json.loads(PINNED_ROWS.read_text())
    rows = [
        [p.label, p.n, p.k, p.table_value, p.oracle_value, p.match]
        for p in run_suite("all", max_n=6).pairs
    ]
    assert len(pinned) == 300
    assert rows == pinned


def test_direct_sum_closure_memory_is_bounded():
    # Only summands of size <= 4 are held in lists; keeping every size up to
    # 8 in lists peaked at about 2.9 MB.
    tracemalloc.start()
    try:
        pairs = check_direct_sum_closure(8, Caps())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(p.label, p.table_value) for p in pairs] == [
        ("direct-sum closure violations [|p|+|q|<=8]", 0)
    ]
    assert peak < 1.45e6


def test_direct_sum_closure_tests_every_pair_once(monkeypatch):
    # A decider that rejects everything makes the row count every (p, q) tested.
    monkeypatch.setattr(suites, "is_shallow", lambda p: False)
    shallow = [sum(1 for _ in generate_shallow(n)) for n in range(8)]
    for total in range(8):
        pairs = sum(
            shallow[a] * shallow[b] for a in range(total + 1) for b in range(total + 1 - a)
        )
        assert check_direct_sum_closure(total, Caps())[0].table_value == pairs


def test_descents_suite_builds_each_table_once(monkeypatch):
    # One 321 table serves both the A321xz rows and the Grassmannian rows.
    calls = []
    build = suites.descent_table

    def recording(n_max, avoid, caps):
        calls.append((n_max, next(name for name, spec in LENGTH_3.items() if spec is avoid)))
        return build(n_max, avoid, caps)

    monkeypatch.setattr(suites, "descent_table", recording)
    assert run_suite("descents", 8).overall
    assert calls == [(8, "132"), (8, "321"), (8, "231")]
    calls.clear()
    assert run_suite("descents").overall
    assert calls == [(9, "132"), (10, "321"), (9, "231")]
