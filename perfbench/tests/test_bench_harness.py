"""Answer checking, the seeded request mix, committed totals and the
agreement of BENCHMARK.json with the metrics the harness reports."""
import argparse
import dataclasses
import itertools
import json
from collections import Counter
from pathlib import Path

from shallowperm import cli
from shallowperm.perms import cycle_count, descent_count
from shallowperm.shallow import is_shallow

import harness
import workloads

REPO = Path(__file__).resolve().parents[2]


def _run(monkeypatch, capsys, ops, trace=0):
    monkeypatch.setattr(workloads, "build", lambda workload, seed: (ops, {"seed_used": False}))
    args = argparse.Namespace(workload="batch", seed=1, seconds=0.01, trace=trace)
    assert harness.run_workload(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_wrong_answer_is_counted(monkeypatch, capsys):
    oracle = workloads.Oracle()
    real_count = cli.count

    def off_by_one(query, *rest):
        table = real_count(query, *rest)
        wrong = dataclasses.replace(table.rows[0], count=table.rows[0].count + 1)
        return dataclasses.replace(table, rows=(wrong,) + table.rows[1:])

    ops = [workloads.count_op(oracle, "132", 5), workloads.count_op(oracle, "123", 5)]
    document, result = _run(monkeypatch, capsys, ops)
    assert (result["correct"], result["failed"]) == (True, 0)

    monkeypatch.setattr(cli, "count", off_by_one)
    document, result = _run(monkeypatch, capsys, ops)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2
    assert document["failed_ratio"] == 1.0
    assert "counts differ from oracle" in document["failures"][0]["problem"]


def test_raising_operation_is_counted(monkeypatch, capsys):
    def boom():
        raise RuntimeError("injected")

    ops = [workloads.Op("library", "boom", boom, lambda answer: None)]
    document, result = _run(monkeypatch, capsys, ops)
    assert result["failed"] == result["attempted"] >= 1
    assert "injected" in document["failures"][0]["problem"]


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    oracle = workloads.Oracle()
    ops = [workloads.count_op(oracle, "321", 6), workloads.profile_op(oracle, 4)]
    document, result = _run(monkeypatch, capsys, ops, trace=1)
    assert result["correct"] and document["answers_identical"]
    assert document["coverage"]["unwrapped"] == []
    assert list(result["metrics"]) == [name for name, _ in harness.PER_LAYER]
    assert result["metrics"]["patterns.avoids.calls"]["value"] > 0
    assert (REPO / document["trace_file"]).is_file()


def test_request_mix_is_seeded_with_fixed_composition():
    oracle = workloads.Oracle()
    first, mix = workloads.requests_ops(oracle, 7)
    again, _ = workloads.requests_ops(oracle, 7)
    other, other_mix = workloads.requests_ops(oracle, 8)
    assert [op.label for op in first] == [op.label for op in again]
    assert [op.label for op in first] != [op.label for op in other]
    fixed = ("requests", "share", "certify_sizes", "gf_orders")
    assert [mix[key] for key in fixed] == [other_mix[key] for key in fixed]
    assert mix["requests"] >= 1000
    kinds = Counter(op.kind for op in first)
    assert dict(kinds) == workloads.KIND_REQUESTS
    assert kinds["gf"] % len(workloads.GF_CELLS) == 0
    assert kinds["certify"] % len(workloads.CERTIFY_SIZES) == 0
    assert harness.tail([float(i) for i in range(mix["requests"])])[1] >= 10


def test_committed_totals_match_brute_force():
    for n in range(10):
        shallow_perms = [p for p in itertools.permutations(range(1, n + 1)) if is_shallow(p)]
        assert len(shallow_perms) == workloads.SHALLOW_TOTALS[n], n
    assert Counter(map(descent_count, shallow_perms)) == workloads.DESCENTS_9
    assert Counter(map(cycle_count, shallow_perms)) == workloads.CYCLES_9


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
