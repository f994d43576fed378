#!/usr/bin/env python3
"""Seed-to-seed spread of every end-to-end metric, as the driver measures it.

    python3 benchmark/spread.py [first_seed] [workload,workload,...]

Runs BENCHMARK.json's command ten times per workload, each time with
another --seed, and prints for each metric the distance between the first
and third quartile of its ten values as a share of their median, beside
the metric's bound. Exits 1 if a spread (other than setup_s's) exceeds its
bound. Run from the repo root; takes about two minutes per workload.
"""

import json
import statistics
import subprocess
import sys


def main(argv):
    spec = json.load(open("BENCHMARK.json"))
    first = int(argv[0]) if argv else 1
    names = argv[1].split(",") if len(argv) > 1 else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = 0
    for w in names:
        values = {}
        for seed in range(first, first + 10):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{p.stderr}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {result}")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w}  seeds {first}..{first + 9}", flush=True)
        for k, v in values.items():
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q[2] - q[0]) / med
            flag = ""
            if spread > bounds[k] and k != "setup_s":
                flag = "  OVER BOUND"
                over += 1
            elif spread > bounds[k] / 3:
                flag = "  over a third of the bound"
            print(f"  {k:<16} median {med:>14.6f}  spread {spread:.4f}  bound {bounds[k]:.2f}{flag}", flush=True)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
