#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload, one run at a time,
and prints for every end-to-end metric its median and the distance between
its first and third quartiles as a share of the median, next to a third of
the metric's bound from BENCHMARK.json (the target for a steady benchmark).

    python3 perfbench/spread.py --workloads roundtrip cli --seeds 1 2 3 4 5
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst_ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} tasks failed", file=sys.stderr)
                worst_ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print(f"{workload}: seeds {args.seeds}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread < bounds[name] / 3 or name == "setup_s"
            worst_ok = worst_ok and steady
            print(f"  {name:12s} median {med:.6g}  spread {spread:.4f}  "
                  f"bound/3 {bounds[name] / 3:.4f}  {'ok' if steady else 'WIDE'}")
        sys.stdout.flush()
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
