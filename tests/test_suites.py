import time

import pytest

from shallowperm.enumeration import Caps
from shallowperm.suites import SUITES, check_decreasing, check_table1, run_suite


def test_suite_names():
    assert set(SUITES) == {"table1", "descents", "symmetry", "closure", "mesh", "all"}


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("everything")


def test_small_closure_suite_passes():
    report = run_suite("closure", max_n=3)
    assert report.overall
    assert report.first_mismatch is None
    assert report.pairs


def test_max_n_clamps_table1():
    pairs = check_table1(4, Caps())
    assert max(p.n for p in pairs) == 4


def test_mesh_suite_small():
    report = run_suite("mesh", max_n=5)
    assert report.overall
    assert any("witness" in p.label for p in report.pairs)


def test_check_decreasing_clamps_to_constructive_cap():
    start = time.perf_counter()
    pairs = check_decreasing(10**6, Caps())
    assert time.perf_counter() - start < 2.0
    assert [p.label for p in pairs] == ["decreasing permutation not shallow [n<=12]"]
    assert pairs[0].match
