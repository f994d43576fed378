#!/usr/bin/env bash
# Print the perf trajectory from every committed BENCH_*.json in one
# uniform table. Each bench writes a top-level `summary` array of
# {name, metric, bar, value} rows (see copier_bench::json::Json::summary);
# the metric suffix encodes the bar direction: *_max means value <= bar
# passes, *_min means value >= bar passes.
#
# Rows from smoke-mode runs are marked but not gated — smoke workloads
# are plumbing checks, their timings are not meaningful. Exits non-zero
# if any full-mode row misses its bar.
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
files=(BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
    echo "no BENCH_*.json files found — run the fig_* benches first" >&2
    exit 1
fi

python3 - "${files[@]}" <<'EOF'
import json, sys

fail = 0
print(f"{'bench':<18} {'name':<26} {'metric':<14} {'bar':>8} {'value':>10}  status")
for path in sys.argv[1:]:
    with open(path) as f:
        d = json.load(f)
    bench = d.get("bench", path)
    smoke = d.get("smoke", False)
    rows = d.get("summary")
    if rows is None:
        print(f"{bench:<18} (no summary array)")
        continue
    for r in rows:
        name, metric = r["name"], r["metric"]
        bar, value = float(r["bar"]), float(r["value"])
        ok = value <= bar if metric.endswith("_max") else value >= bar
        if smoke:
            status = "smoke"
        elif ok:
            status = "ok"
        else:
            status = "MISS"
            fail = 1
        print(f"{bench:<18} {name:<26} {metric:<14} {bar:>8.3g} {value:>10.4g}  {status}")
sys.exit(fail)
EOF
