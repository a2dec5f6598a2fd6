#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and prints,
per workload and end-to-end metric of BENCHMARK.json, the median over the
seeds and the spread: the distance between the first and third quartile as
a share of the median (statistics.quantiles, n=4). A spread at or above the
metric's bound is marked FAIL, one at or above a third of it "wide". Raw
results are saved to .bench_build/spread.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            t0 = time.time()
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - t0
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {out.returncode}, "
                      f"failed {result.get('failed')}")
            runs.append({"seed": seed, "wall_s": wall, "result": result})
        raw[workload] = runs
        walls = [r["wall_s"] for r in runs]
        print(f"\n{workload}: {len(runs)} runs, wall "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"]
                      for r in runs if m["name"] in r["result"].get("metrics", {})]
            if len(values) < 2:
                print(f"  {m['name']:<22} missing")
                ok = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if spread >= m["bound"]:
                mark = "FAIL"
                if m["name"] != "setup_s":
                    ok = False
            elif spread >= m["bound"] / 3:
                mark = "wide"
            print(f"  {m['name']:<22} median {med:14.6f} {m['unit']:<9} "
                  f"spread {spread:6.3f} bound {m['bound']:.2f} {mark}")
    out_path = ROOT / ".bench_build" / "spread.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(raw, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
