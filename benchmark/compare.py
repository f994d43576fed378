#!/usr/bin/env python3
"""Compare two results files written by `copier-benchmark --all`.

    compare.py a.json b.json            # a = parent commit, b = change
    compare.py --same-commit a.json b.json

Prints one row per (workload, metric) and exits 1 if any row regressed (or,
with --same-commit, differs).

Virtual-clock metrics are a pure function of (commit, workload, seed): two
results of the same commit and seed must be exactly equal, and across two
commits they are compared exactly, against the same-seed bounds below.
Host-clock metrics carry the sandbox's noise: they are compared on medians
against the bound stored in the file, and reported `unresolved` when either
side's quartile spread is wider than the bound.
"""

import json
import sys

# Same-seed regression bounds for the virtual-clock end-to-end metrics:
# ("rel", share of a's value) or ("abs", amount). Tighter than the
# cross-seed bounds in BENCHMARK.json because nothing but the commit varies.
SAME_SEED = {
    "goodput_gbps": ("rel", 0.02),
    "op_p50_us": ("rel", 0.05),
    "op_p99_us": ("rel", 0.05),
    "e2e.op_mean_us": ("rel", 0.05),
    "e2e.op_p999_us": ("rel", 0.10),
    "slo_ok_frac": ("abs", 0.005),
    "served_frac": ("abs", 0.002),
    "fair_share_min": ("abs", 0.02),
}


def worse_by(a, b, better):
    """How much worse b is than a (negative: better)."""
    return a - b if better == "higher" else b - a


def verdict(name, ma, mb, same_commit):
    a, b = ma["value"], mb["value"]
    better = ma["better"]
    if ma["clock"] == "virtual":
        if a == b:
            return "equal"
        if same_commit:
            return "DIFFERS"
        if name not in SAME_SEED:
            return "moved"  # per-layer count: no bound, shown for diagnosis
        kind, bound = SAME_SEED[name]
        allowed = bound * abs(a) if kind == "rel" else bound
        w = worse_by(a, b, better)
        return "improved" if w < 0 else "within" if w <= allowed else "REGRESSED"
    # Host clock.
    if ma["kind"] != "end_to_end":
        return "info"
    bound = ma["bound"]
    for m in (ma, mb):
        if m["value"] and (m["q3"] - m["q1"]) / abs(m["value"]) > bound:
            return "unresolved"
    w = worse_by(a, b, better)
    return "improved" if w < 0 else "within" if w <= bound * abs(a) else "REGRESSED"


def main(argv):
    same_commit = "--same-commit" in argv
    files = [x for x in argv if not x.startswith("--")]
    if len(files) != 2:
        sys.exit(__doc__)
    ra, rb = (json.load(open(f)) for f in files)
    if ra["seed"] != rb["seed"] or ra["smoke"] != rb["smoke"]:
        sys.exit("the two results were not taken with the same seed and scale")
    bad = 0
    print(f"{'workload':<15} {'metric':<32} {'a':>16} {'b':>16} {'b/a-1':>9}  verdict")
    for w, wa in ra["workloads"].items():
        wb = rb["workloads"].get(w)
        if wb is None:
            print(f"{w:<15} missing from {files[1]}")
            bad += 1
            continue
        for side, r in (("a", wa), ("b", wb)):
            if not r["correct"]:
                print(f"{w:<15} output checks FAILED in {side}")
                bad += 1
        for name, ma in wa["metrics"].items():
            mb = wb["metrics"].get(name)
            if mb is None:
                print(f"{w:<15} {name:<32} missing from {files[1]}")
                bad += 1
                continue
            v = verdict(name, ma, mb, same_commit)
            a, b = ma["value"], mb["value"]
            delta = f"{b / a - 1:+.4f}" if a else "n/a"
            print(f"{w:<15} {name:<32} {a:>16.6g} {b:>16.6g} {delta:>9}  {v}")
            bad += v in ("REGRESSED", "DIFFERS")
    print(f"{bad} row(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
