#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny sizes, in seconds.

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json, runs perfbench/run.py --smoke with
--trace 0 and --trace 1 and checks that

  * the run exits 0 and its correctness gate passed (correct, failed == 0);
  * the last line is JSON with exactly correct, attempted, failed, metrics;
  * it holds exactly the end-to-end (trace 0) or per-layer (trace 1)
    metrics of BENCHMARK.json, each with its declared unit, and each is
    also printed on a human-readable "metric <name> <value> <unit>" line;
  * the traced run wrote its span file, and the file parses.

Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(bench, workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    problems = []
    if out.returncode != 0:
        problems.append(f"exit code {out.returncode}: {out.stderr[-500:]}")
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return problems + [f"last line is not JSON: {e}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness gate failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    wanted = bench["end_to_end" if trace == 0 else "per_layer"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append("metric names differ: missing "
                        f"{sorted({m['name'] for m in wanted} - set(metrics))}, "
                        f"extra {sorted(set(metrics) - {m['name'] for m in wanted})}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"{m['name']}: {got} (want unit {m['unit']})")
        if printed.get(m["name"]) != m["unit"]:
            problems.append(f"{m['name']}: no human-readable line with its unit")
    if trace == 1:
        span_file = ROOT / ".bench_build" / "traces" / f"{workload}-seed7.json"
        try:
            spans = json.loads(span_file.read_text())["spans"]
            if not spans:
                problems.append("span file holds no spans")
        except (OSError, ValueError, KeyError) as e:
            problems.append(f"span file {span_file}: {e}")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = check_run(bench, w["name"], trace)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {w['name']} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
