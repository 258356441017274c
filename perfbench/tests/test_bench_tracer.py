"""Tracer arithmetic, wrapper coverage and answer identity under tracing."""
import shallowperm
from shallowperm import enumeration, shallow, suites

import tracer as tracing
import workloads


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans_and_leaves():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def advance(seconds, result=None):
        clock.now += seconds
        return result

    def outer_leaf():
        advance(1)
        tr.call_leaf("m.inner_leaf", advance, (2, True), {})  # 2 s nested
        return advance(1, True)

    outer = tr.begin("m.outer")  # t = 0
    clock.now = 1
    inner = tr.begin("m.inner")  # t = 1
    clock.now = 2
    tr.call_leaf("m.outer_leaf", outer_leaf, (), {})  # t = 2 .. 6
    clock.now = 7
    tr.end(inner)  # inner lasts 6 s, 4 s of it in outer_leaf
    clock.now = 10
    tr.end(outer)  # outer lasts 10 s, 6 s of it in inner

    spans = {s["name"]: s for s in tr.spans}
    assert spans["m.outer"]["self_s"] == 4
    assert spans["m.inner"]["self_s"] == 2
    assert spans["m.inner"]["parent"] == spans["m.outer"]["id"]
    inner_id = spans["m.inner"]["id"]
    assert tr.leaves[(inner_id, "m.outer_leaf")] == [1, 4, 2, 1]
    assert tr.leaves[(inner_id, "m.inner_leaf")] == [1, 2, 2, 1]

    table = tracing.layer_table(tr)
    assert table["m.outer_leaf"] == {"calls": 1, "total_s": 4, "self_s": 2, "hits": 1}
    assert table["m"]["self_s"] == 10  # self times add up to the outermost span


def test_generator_leaf_counts_items():
    tr = tracing.Tracer()
    items = list(tracing._TracedIterator(tr, "gen", iter("abc")))
    assert items == ["a", "b", "c"]
    calls, _, _, hits = tr.leaves[(None, "gen")]
    assert (calls, hits) == (4, 3)  # the final next() raises StopIteration


def test_coverage_check_catches_unwrapped_binding(monkeypatch):
    original_is_shallow = shallow.is_shallow
    original_check = suites.check_symmetry
    with tracing.Instrumentation(tracing.Tracer()) as inst:
        assert inst.unwrapped() == []
        assert suites.is_shallow is not original_is_shallow
        assert enumeration.is_shallow is not original_is_shallow
        assert shallowperm.is_shallow is not original_is_shallow
        assert suites.SUITES["symmetry"][0] is not original_check
        monkeypatch.setattr(suites, "is_shallow", original_is_shallow)
        monkeypatch.setitem(suites.SUITES, "symmetry", (original_check,))
        missing = inst.unwrapped()
        assert "shallowperm.suites.is_shallow" in missing
        assert "shallowperm.suites.SUITES['symmetry']" in missing
        monkeypatch.undo()
    assert shallow.is_shallow is original_is_shallow
    assert suites.SUITES["symmetry"][0] is original_check


def test_traced_answers_equal_untraced():
    oracle = workloads.Oracle()
    ops = [
        workloads.count_op(oracle, "231", 6),
        workloads.verify_op(oracle, "descents", 5, rows=3 * sum(m + 1 for m in range(1, 6)) + 8),
        workloads.suite_check_op("check_decider_equivalence", 5),
        workloads.cli_op("count", ["count", "--n", "6", "--by", "cycles"],
                         lambda answer: None),
    ]
    plain = [workloads.canonical(op.run()) for op in ops]
    tr = tracing.Tracer()
    with tracing.Instrumentation(tr):
        traced = [workloads.canonical(op.run()) for op in ops]
    assert traced == plain
    assert all(op.check(op.run()) is None for op in ops)
    names = {name for _, name in tr.leaves} | {s["name"] for s in tr.spans}
    assert {"cli.main", "cli.parse", "cli.emit", "enumeration.descent_table",
            "suites.check_decider_equivalence", "series.catalog",
            "shallow.generate_shallow", "perms.cycle_count", "perms.inversion_count",
            "patterns.avoids.231"} <= names
