"""Benchmark of shallowperm: run one workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seconds 60 --trace 0 --out perfbench/results/BENCH_x.json

One run measures for about ``--seconds`` seconds: it repeats the workload's
operation list (a pass) while another pass still fits, checks every answer
against its oracle, and prints as its last line a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it holds the full result: the per-pass figures, the run environment and,
for ``requests``, the composition of the seeded mix.

With ``--trace 0`` the metrics are the end-to-end ones, measured without
tracing, with times scaled to a fixed host speed by the probe in
``speed.py``. With ``--trace 1`` the run makes untraced passes for half of
``--seconds``, then one pass that runs each operation untraced and at once
traced, and reports the per-layer metrics, the tracing overhead and the
coverage check; the spans are written to ``perfbench/out/``. ``--workload all`` runs every workload in its own
process and prints each metric by name with its unit.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def run_all(args, names) -> int:
    """Each workload in its own process, one after another."""
    documents = {}
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"workload {name} failed with exit code {done.returncode}")
        document, result = json.loads(lines[-2]), json.loads(lines[-1])
        documents[name] = document
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: {result['attempted']} operations, {result['failed']} failed "
              f"(failed_ratio {document['failed_ratio']:g})")
        for key, entry in result["metrics"].items():
            print(f"  {key:<44} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{key}"] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(documents, indent=1) + "\n")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if not (SOURCE / "shallowperm" / "__init__.py").is_file():
        sys.exit(f"error: no shallowperm sources at {SOURCE}; run from a checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    import harness
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --workload all: write the result documents to this file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    return harness.run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
