#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload paper-apsp --seeds 1-10 [--trace 0]

Runs the command from BENCHMARK.json from the repository root, with the
run_seconds it declares, and prints per metric the median, the quartiles and
the spread (third minus first quartile, as a share of the median) next to the
metric's bound, plus each run's wall time. Exits non-zero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    """`3-7` or `1,1,1`."""
    if "," in spec:
        return [int(s) for s in spec.split(",")]
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-5")
    p.add_argument("--trace", default="0")
    p.add_argument("--show", default="", help="comma-separated metrics to print per run")
    a = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, walls = {}, []
    for seed in seeds(a.seeds):
        cmd = bench["command"] + [
            "--workload", a.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", a.trace,
        ]
        start = time.time()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.time() - start)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}: {last}")
        result = json.loads(last)
        shown = "".join(f", {n} {result['metrics'][n]['value']:.6g}"
                        for n in a.show.split(",") if n)
        print(f"seed {seed}: {walls[-1]:.1f} s, attempted {result['attempted']}, "
              f"failed {result['failed']}{shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} "
              f"{bound if bound is not None else '':>6}{flag}")
    print(f"wall per run: max {max(walls):.1f} s, mean {statistics.mean(walls):.1f} s")


if __name__ == "__main__":
    main()
