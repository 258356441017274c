"""Measurement of one workload: passes, end-to-end and per-layer metrics."""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import shallowperm

import speed
import tracer as tracing
import workloads

# The directory holding the shallowperm package the workloads run, so that
# set-up is timed on the same sources.
SOURCE = Path(shallowperm.__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"
# Set-up samples taken before each pass. Spread over the run, they see
# more of the host's speed phases than samples taken all at once.
SETUP_SAMPLES_PER_PASS = 3
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import shallowperm, shallowperm.cli; shallowperm.cli.build_parser()"
)


def load_average():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def measure_setup(samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until shallowperm is
    imported and the CLI parser is built, once per sample. Not scaled by
    the speed probe: the kernel, run in this process, does not follow the
    cost of starting another one."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SOURCE)], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_op(op) -> tuple[object, Optional[str], float, float]:
    """The answer, the problem raised (None if it returned), and the clock
    readings at its start and end."""
    start = time.perf_counter()
    try:
        answer = op.run()
        problem = None
    except Exception:  # an operation that raises counts as failed, the run goes on
        answer = None
        problem = "raised " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
    return answer, problem, start, time.perf_counter()


def new_pass() -> dict:
    return {"intervals": [], "failures": [], "digest": hashlib.sha256()}


def record(result: dict, index: int, op, answer, problem: Optional[str],
           start: float, end: float) -> None:
    """Add one timed operation to a pass and check its answer, untimed."""
    result["intervals"].append((start, end))
    if problem is None:
        problem = op.check(answer)
    if problem is not None:
        result["failures"].append({"op": index, "label": op.label[:120], "problem": problem[:300]})
    result["digest"].update(workloads.canonical(answer).encode())


def close_pass(result: dict) -> dict:
    result["digest"] = result["digest"].hexdigest()
    result["wall_s"] = sum(end - start for start, end in result["intervals"])
    return result


def run_pass(ops) -> dict:
    """Run every operation once; time it, then check its answer untimed."""
    result = new_pass()
    for index, op in enumerate(ops):
        record(result, index, op, *run_op(op))
    return close_pass(result)


def run_passes(ops, seconds: float, make_pass=run_pass) -> list[dict]:
    """Passes made by ``make_pass`` until the next one would end after
    ``seconds``; at least one."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(make_pass(ops))
        elapsed = time.perf_counter() - started
        if elapsed + passes[-1]["wall_s"] > seconds:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail(latencies: list[float]) -> tuple[float, int]:
    """The 99th percentile of one pass and the number of samples beyond it."""
    p99 = percentile(latencies, 99)
    return p99, sum(1 for t in latencies if t > p99)


# End-to-end metrics of the untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
)


def pass_figures(latencies: list[float]) -> tuple[float, float, float, int]:
    """Wall time, median, 99th percentile and samples beyond it of one pass."""
    p99, beyond = tail(latencies)
    return sum(latencies), statistics.median(latencies), p99, beyond


def untraced_run(ops, seconds: float) -> tuple[dict, dict, list[dict]]:
    """The end-to-end metrics. Set-up is sampled before each pass. Every
    other time is scaled to the reference speed of the ``speed`` probe,
    and each figure is the median over the run's passes of that figure in
    each pass."""
    probe, setup = speed.SpeedProbe(), []

    def sampled_pass(ops):
        setup.extend(measure_setup(SETUP_SAMPLES_PER_PASS))
        with probe:
            return run_pass(ops)

    passes = run_passes(ops, seconds, sampled_pass)
    timed = [[probe.scaled(*interval) for interval in p["intervals"]] for p in passes]
    raw = [pass_figures([busy for busy, _ in t]) for t in timed]
    scaled = [pass_figures([s for _, s in t]) for t in timed]

    def median(figures, k):
        return statistics.median(f[k] for f in figures)

    values = {
        "setup_s": statistics.median(setup),
        "wall_s": median(scaled, 0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_p50_ms": median(scaled, 1) * 1000,
        "latency_p99_ms": median(scaled, 2) * 1000,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "speed_probe": probe.summary(),
        "setup_s_samples": setup,
        "latency_samples_per_pass": len(ops),
        "latency_p99_samples_beyond_per_pass": [f[3] for f in scaled],
    }
    for name, figures in (("", scaled), ("_raw", raw)):
        detail[f"wall_s{name}_passes"] = [f[0] for f in figures]
        detail[f"latency_p50_ms{name}_passes"] = [f[1] * 1000 for f in figures]
        detail[f"latency_p99_ms{name}_passes"] = [f[2] * 1000 for f in figures]
    return metrics, detail, passes


def traced_run(ops, seconds: float, trace_path: Path) -> tuple[dict, dict, list[dict]]:
    """Untraced passes for half of ``seconds``, then a paired pass: each
    operation runs untraced and at once again traced. The tracing overhead
    is the sum of the traced minus the untraced times, so a change in the
    host's speed between operations cancels out."""
    passes = run_passes(ops, seconds / 2)
    tracer = tracing.Tracer()
    instrumentation = tracing.Instrumentation(tracer)
    with instrumentation:
        unwrapped = instrumentation.unwrapped()
    if unwrapped:
        raise SystemExit(f"coverage check failed; unwrapped bindings: {unwrapped}")
    untraced, traced = new_pass(), new_pass()
    for index, op in enumerate(ops):
        record(untraced, index, op, *run_op(op))
        with instrumentation:
            tracer.op = index
            span = tracer.begin("op." + op.kind)
            outcome = run_op(op)
            tracer.end(span)
            tracer.op = None
        record(traced, index, op, *outcome)
    passes.append(close_pass(untraced))
    close_pass(traced)
    overhead = traced["wall_s"] - untraced["wall_s"]
    table = tracing.layer_table(tracer)
    metrics, ratios = layer_metrics(table, tracer, overhead)
    same = all(p["digest"] == traced["digest"] for p in passes)
    if not same:
        traced["failures"].append({"op": None, "label": "traced pass",
                                   "problem": "answers differ from the untraced passes"})
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(tracer.dump()))
    detail = {
        "untraced_wall_s_passes": [p["wall_s"] for p in passes],
        "traced_wall_s": traced["wall_s"],
        "coverage": {"traced_functions": len(instrumentation.table), "unwrapped": unwrapped},
        "answers_identical": same,
        "ratios": ratios,
        "layers": table,
        "trace_file": f"{OUT.parent.name}/{OUT.name}/{trace_path.name}",
    }
    return metrics, detail, passes + [traced]


# Per-layer metrics of the traced run: (name, unit). Every name is
# reported on every workload; a layer a workload never calls reads 0.
PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.build_parser.self_s", "s"),
    ("cli.parse.self_s", "s"),
    ("cli.emit.self_s", "s"),
    ("cli.self_s", "s"),
    ("enumeration.count.calls", "count"),
    ("enumeration.count.self_s", "s"),
    ("enumeration.descent_table.calls", "count"),
    ("enumeration.regen_ratio", "1"),
    ("enumeration.brute.visited", "count"),
    ("enumeration.self_s", "s"),
    ("shallow.generate_shallow.perms", "count"),
    ("shallow.generate_shallow.self_s", "s"),
    ("shallow.generate_shallow.perms_per_s", "1/s"),
    ("shallow.is_shallow.calls", "count"),
    ("shallow.certify_shallow.calls", "count"),
    ("shallow.certify_shallow.self_s", "s"),
    ("shallow.self_s", "s"),
    ("perms.inversion_count.calls", "count"),
    ("perms.cycle_count.calls", "count"),
    ("perms.descent_count.calls", "count"),
    ("perms.is_in_class.calls", "count"),
    ("perms.self_s", "s"),
    ("patterns.avoids.calls", "count"),
    ("patterns.avoids.self_s", "s"),
    ("series.catalog.calls", "count"),
    ("series.catalog.self_s", "s"),
    ("suites.check.calls", "count"),
    ("trace.overhead_s", "s"),
)


def _ratio(numerator, denominator) -> dict:
    return {"value": numerator / denominator if denominator else 0.0,
            "numerator": numerator, "denominator": denominator}


def layer_metrics(table: dict, tracer, overhead: float) -> tuple[dict, dict]:
    """The PER_LAYER metrics of one traced pass, and the ratios behind them."""

    def field(name, key):
        return table.get(name, {}).get(key, 0)

    generator = table.get("shallow.generate_shallow", {"hits": 0, "self_s": 0.0})
    needed = sum(workloads.SHALLOW_TOTALS[n] for n in tracer.generator_sizes)
    brute_calls = brute_hits = 0
    for (parent, name), (calls, _, _, hits) in tracer.leaves.items():
        if name == "shallow.is_shallow" and parent is not None \
                and tracer.spans[parent]["name"] == "enumeration.count":
            brute_calls += calls
            brute_hits += hits
    ratios = {
        "enumeration.regen_ratio": _ratio(generator["hits"], needed),
        "enumeration.brute.shallow_ratio": _ratio(brute_hits, brute_calls),
        "patterns.avoids.kept_ratio": _ratio(field("patterns.avoids", "hits"),
                                             field("patterns.avoids", "calls")),
    }
    values = {
        "enumeration.regen_ratio": ratios["enumeration.regen_ratio"]["value"],
        "enumeration.brute.visited": brute_calls,
        "shallow.generate_shallow.perms": generator["hits"],
        "shallow.generate_shallow.perms_per_s": generator["hits"] / generator["self_s"]
        if generator["self_s"] else 0.0,
        "suites.check.calls": sum(e["calls"] for n, e in table.items()
                                  if n.startswith("suites.check_")),
        "trace.overhead_s": overhead,
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            layer, key = name.rsplit(".", 1)
            values[name] = field(layer, key)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics, ratios


def run_workload(args) -> int:
    load_before = load_average()
    ops, seed_record = workloads.build(args.workload, args.seed)
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        metrics, detail, passes = traced_run(ops, args.seconds, trace_path)
    else:
        metrics, detail, passes = untraced_run(ops, args.seconds)
    attempted = sum(len(p["intervals"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    document = {
        "workload": args.workload,
        "seed": args.seed,
        **seed_record,
        "trace": args.trace,
        "seconds": args.seconds,
        "operations_per_pass": len(ops),
        "passes": len(passes),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "environment": {**environment(), "loadavg_before": load_before,
                        "loadavg_after": load_average()},
        **detail,
        "result": result,
    }
    print(json.dumps(document))
    print(json.dumps(result))
    return 0
