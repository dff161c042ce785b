#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload W [--seeds 1-10] [--trace 0|1]

Runs perfbench/run.py once per seed (run_seconds from BENCHMARK.json) and
prints, per metric, the median, the quartiles and the quartile spread as a
share of the median -- the figure each end-to-end bound must exceed.
Summaries go to .bench_runs/spread-<workload>-t<trace>.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, failures = {}, 0
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{out.stderr[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        failures += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={res['correct']}", file=sys.stderr)

    rows = {}
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "bound": bounds.get(name), "values": xs}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else "WIDE" if spread < bound else "OVER")
        print(f"{name:24s} median {med:14.6g}  spread {spread:7.4f}  "
              f"bound {bound}  {verdict}")
    print(f"failed operations: {failures}")
    tag = f"spread-{args.workload}-t{args.trace}.json"
    (ROOT / ".bench_runs" / tag).write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main()
