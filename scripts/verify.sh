#!/usr/bin/env bash
# Tier-1 verify, hermetically: the workspace must build and test with
# zero registry access. --offline is the point — a dependency on a
# non-vendored crate regresses exactly this command, which is how the
# seed state (rand/proptest/criterion unfetchable) broke the build.
# Cargo.lock is committed; --locked refuses silent re-resolution.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
# A round has one shape at every shard count (DESIGN.md §17): nothing
# compares the service's shard count. The one place a count of one matters
# is the round barrier's lone-arriver early-out, and `RoundBarrier` asks
# that of its own arriver count.
[ -z "$(grep -rhE 'nshards\(\) *(>|==|!=)' crates/*/src)" ]
# The full-sweep reference branches in one file (DESIGN.md §2): outside the
# config field's definition, `full_sweep` and the two predicates it used to
# feed may be named only by the aggregates that keep both behaviours.
[ "$(grep -rlE 'full_sweep|fast_path\(\)|hash_cached\(\)' crates/copier-core/src | sort | tr '\n' ' ')" \
    = 'crates/copier-core/src/config.rs crates/copier-core/src/service/aggregates.rs ' ]
# A shard owns its clients (DESIGN.md §17): a shard's list changes only in
# `ShardState::join` / `leave`. Nothing in the service crate picks a shard's
# clients by comparing their stamp (`c.shard.get() == idx`, the filter over a
# service-wide table), and no file but `service/aggregates.rs` keeps a
# `Vec<Rc<Client>>` field.
filters=$(grep -rnE 'shard\.get\(\) *[!=]=|[!=]= *[A-Za-z_.()]*shard\.get\(\)' crates/copier-core/src || true)
[ -z "$filters" ] || { echo "clients filtered by shard stamp in:"; echo "$filters"; exit 1; }
tables=$(grep -rnE '^[[:space:]]*(pub(\([a-z]+\))? +)?[a-z_][a-z_0-9]*: .*Vec<Rc<Client>>' crates/copier-core/src \
    | grep -v '^crates/copier-core/src/service/aggregates\.rs:' || true)
[ -z "$tables" ] || { echo "a client list outside ShardState in:"; echo "$tables"; exit 1; }
# An address space translates a range one way (DESIGN.md §12): `resolve` is
# the one fault handler, so each kind of fault is booked on one line of
# `copier-mem/src/space.rs`, and its private `scan` is the one place
# copier-mem builds an `Extent` from page-table entries.
faults=$(grep -rnE '(demand_zero|cow_remap|cow_copy) \+= 1\b' crates/*/src || true)
[ "$(printf '%s\n' "$faults" | grep -c '^crates/copier-mem/src/space\.rs:')" = 3 ] \
    && [ "$(printf '%s\n' "$faults" | grep -c .)" = 3 ] \
    || { echo "faults booked outside AddressSpace::resolve:"; echo "$faults"; exit 1; }
builders=$(grep -rnE '(^|[^A-Za-z_])Extent \{' crates/copier-mem/src | grep -v 'struct Extent {' || true)
[ "$(printf '%s\n' "$builders" | grep -c .)" = 1 ] \
    || { echo "extents built in more than one place:"; echo "$builders"; exit 1; }
# No file of the service crate outgrows 1,000 lines, and no function of
# the service 100 code lines: `service/mod.rs` denies
# `clippy::too_many_lines` for its whole module tree (threshold in
# clippy.toml), which the clippy run below enforces.
over=$(find crates/copier-core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')
[ -z "$over" ] || { echo "over 1000 lines:"; echo "$over"; exit 1; }
grep -qx '#!\[deny(clippy::too_many_lines)\]' crates/copier-core/src/service/mod.rs
grep -qx 'too-many-lines-threshold = 100' clippy.toml
# One way into a ring (DESIGN.md §11): at most one libCopier function spells
# the ring-retry idiom — a push whose rejection is matched (`Err(rejected)`,
# `Err(RingFull(…))`) or tested (`.push(…).is_ok()` / `.is_err()`, on one
# line or at the end of a multi-line statement). Everything else calls
# `push_bounded`. A new way in obliges a row in `tests/overload.rs`'s
# budget property, not a new loop.
pushers=$(awk '
    FNR == 1 { inpush = 0 }
    /^[[:space:]]*(pub(\([a-z]+\))? )?(async )?fn [A-Za-z_0-9]+/ {
        match($0, /fn [A-Za-z_0-9]+/)
        fn = FILENAME ":" substr($0, RSTART + 3, RLENGTH - 3)
        inpush = 0
    }
    /\.push\(/ { inpush = 1 }
    /Err\((rejected|RingFull)/ || (inpush && /\.is_(ok|err)\(\)/) { print fn }
    /;[[:space:]]*$/ { inpush = 0 }
' crates/copier-client/src/*.rs | sort -u)
[ "$(printf '%s' "$pushers" | grep -c .)" -le 1 ] || { echo "ring pushed by hand in:"; echo "$pushers"; exit 1; }
# One poll idiom (DESIGN.md §12): a loop that charges core time and changes
# nothing itself — no `let`, no assignment, no notification wait — is a
# busy-wait for someone else's event, and `Core::spin` is the one way to
# spell it: the core answers each step boundary without waking the task.
# The spin oracle spells the loop on purpose (it is what `spin` must equal),
# and nothing charges the service's idle poll through `advance`.
pollers=$(awk '
    FNR == 1 { depth = 0; nloops = 0 }
    /^[[:space:]]*(pub(\([a-z]+\))? )?(async )?(unsafe )?fn [A-Za-z_0-9]+/ {
        match($0, /fn [A-Za-z_0-9]+/)
        fn = FILENAME ":" substr($0, RSTART + 3, RLENGTH - 3)
    }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (line ~ /(^|[^A-Za-z_0-9])(while[[:space:]].*|loop[[:space:]]*)\{[[:space:]]*$/) {
            nloops++; ldepth[nloops] = depth; adv[nloops] = 0; busy[nloops] = 0; lfn[nloops] = fn
        } else {
            for (i = 1; i <= nloops; i++) {
                if (line ~ /\.advance\(/) adv[i] = 1
                if (line ~ /^[[:space:]]*let[[:space:]]/ || line ~ /\.notified\(/ \
                    || (line ~ /[^=!<>]=[^=>]/ && line !~ /(if|while) let /)) busy[i] = 1
            }
        }
        o = gsub(/\{/, "{", line); c = gsub(/\}/, "}", line)
        depth += o - c
        while (nloops > 0 && depth <= ldepth[nloops]) {
            if (adv[nloops] && !busy[nloops]) print lfn[nloops]
            nloops--
        }
    }
' $(ls crates/*/src/*.rs crates/*/src/*/*.rs | grep -v '/spin_oracle\.rs$') | sort -u)
[ -z "$pollers" ] || { echo "condition polled by hand (use Core::spin) in:"; echo "$pollers"; exit 1; }
[ -z "$(grep -rE 'advance\([^)]*poll_idle' crates/*/src)" ]
# The await rule (DESIGN.md §12): a wait that nothing can interrupt
# completes in place and its task runs on in the same poll, which is exact
# because that poll would have ended at the wait's `Pending` — true of
# every straight-line `.await`. Outside the simulator, whose own futures
# and oracles the rule is stated for, nothing polls a future by hand
# (`poll_fn`, an `impl Future for`, `.poll(`) or awaits two at once (a
# join or select).
unruly=$(grep -rnE 'poll_fn|impl(<[^>]*>)? +([a-z_]+::)*Future +for|\.poll\(|\b(try_)?(join|select)(_biased)?!|\b(join|select)_all\b' \
    $(ls -d crates/*/src | grep -v '^crates/copier-sim/') || true)
[ -z "$unruly" ] || { echo "a future polled by hand, joined or selected in:"; echo "$unruly"; exit 1; }
cargo build --release --offline --locked
cargo test -q --workspace --offline --locked
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

# Order oracle: the executor, Notify/Chan and Core against their
# `#[cfg(test)]` reference (the Arc/Mutex executor and driver-task cores
# they replaced) on random programs; every poll and resumption, each
# core's busy time and the end time must match. Spin oracle: `Core::spin`
# against the advance loop it stands for (foreign timers on its
# boundaries, run_until pauses, second demands mid-spell); every
# resumption and predicate answer must match. In-place oracle: the order
# oracle's programs, made straight-line, with waits completing in place and
# with every wait evented; every resumption and predicate answer must
# match, and the polls saved must be the waits completed in place. The
# workspace run above did 3000, 2000 and 3000 programs; this is the deeper
# pass.
TESTKIT_CASES=20000 cargo test -q -p copier-sim --offline --locked _oracle::

# Translation-cache oracle (every hit == a fresh page-table read over 1–64
# spaces, a neighbour cycling its pool changes nothing for a space, dropped
# spaces leave no tables) and the landing bookkeeping against its
# `#[cfg(test)]` bit-at-a-time / `covers`-loop references (word-wise
# `range_ready`/`mark_range`, `mark_landed`), deeper than the workspace run
# above; the fleet differential (`tests/atcache_differential.rs`) ran there
# in full.
TESTKIT_CASES=2000 cargo test -q -p copier-hw --offline --locked --test atcache_oracle
TESTKIT_CASES=20000 cargo test -q -p copier-core --offline --locked --lib descriptor::
TESTKIT_CASES=20000 cargo test -q -p copier-core --offline --locked --test interval_props

# Abort retires, promotion by byte range, the dispatcher's balance cut
# (DESIGN.md §3), deeper than the workspace run above: random
# submit/copy/abort/csync interleavings (every abort returns its credit,
# fires its handler once, leaves window == index == live tasks), partly
# synced lazy chains against sequential memcpy, and the bounds `plan_into`
# guarantees on random contiguous/scattered batches. `tests/proxy_soak.rs`
# (20 000 messages end to end) and `absorb_differential` ran there in full.
TESTKIT_CASES=2000 cargo test -q -p copier-client --offline --locked --test abort_retire
TESTKIT_CASES=2000 cargo test -q -p copier-client --offline --locked --test lazy_promotion
TESTKIT_CASES=20000 cargo test -q -p copier-hw --offline --locked --lib dispatch::

# Round structure (DESIGN.md §3), deeper than the workspace run above: a
# round is one copy slice served down the vruntime order. Recorded
# multi-tenant runs at 1 and 4 shards walked with an exact model of the
# selection — bytes per round, pick order, early stops, backlogged
# fairness and the 1:4 cgroup split — plus chained tenants against
# sequential memcpy and record → replay identity. The two fixed
# regressions (a deferred least-served client, three clients in one
# slice) ran there.
TESTKIT_CASES=200 cargo test -q --offline --locked --test slice_rounds

# Admission (DESIGN.md §11), deeper than the workspace run above: the
# watermark is a per-shard budget. Recorded runs at 2–4 shards walked with
# an exact model of the shard-local latch (every admission decision), the
# sampled per-shard bound, a quiet shard beside a backlogged one, a lone
# hot shard against the whole watermark, and record → replay at 4 shards.
# The one-shard recording pinned to the parent's hash ran there.
TESTKIT_CASES=200 cargo test -q --offline --locked --test shard_budget

# The repo benchmark is a package of its own (own lock file, path deps on
# crates/*), so the workspace commands above never compile it: a crate API
# change that breaks it must fail here, not in the benchmark pipeline. Its
# smoke test drives every workload at 1/50 scale through the real binary.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

# Host-perf smoke: the wall-clock bench must run end to end and emit
# parseable JSON (tiny sizes; this is a plumbing check, not a perf gate),
# with all six executor rows (a sleep and a free-core advance each in place
# and evented, a contended advance, a notify round trip), both progress
# rows (a landed page, a csync poll) and an over-floor summary row for each
# of the eight.
HOSTPERF_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_hostperf
if command -v jq >/dev/null 2>&1; then
    jq -e '(.layouts | length > 0)
       and ([.executor[].name] == ["sleep", "sleep_evented", "advance", "advance_evented", "advance_contended", "notify_round_trip"])
       and ([.progress[].name] == ["landing_4k", "range_ready_256"])
       and ([.executor[], .progress[] | .ns > 0 and .over_floor > 0] | all)
       and ([.summary[] | select(.metric == "over_floor_max")] | length == 8)' BENCH_hostperf.json >/dev/null
else
    python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_hostperf.json"))
ok = bool(d["layouts"])
ok = ok and [r["name"] for r in d["executor"]] == ["sleep", "sleep_evented", "advance", "advance_evented", "advance_contended", "notify_round_trip"]
ok = ok and [r["name"] for r in d["progress"]] == ["landing_4k", "range_ready_256"]
ok = ok and all(r["ns"] > 0 and r["over_floor"] > 0 for r in d["executor"] + d["progress"])
ok = ok and len([r for r in d["summary"] if r["metric"] == "over_floor_max"]) == 8
sys.exit(0 if ok else 1)
PY
fi
echo "BENCH_hostperf.json OK"

# Control-plane smoke: same plumbing check for the pending-index bench
# (it also re-asserts linear/indexed plan identity on every window).
CTRLPERF_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_ctrlperf
if command -v jq >/dev/null 2>&1; then
    jq -e '.depths | length > 0' BENCH_ctrlperf.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_ctrlperf.json")); sys.exit(0 if d["depths"] else 1)'
fi
echo "BENCH_ctrlperf.json OK"

# Trace smoke: record a fig07-class run, replay it in lockstep, and
# localize an injected perturbation — the bench asserts all three, and
# the JSON must confirm the replay was bit-identical (DESIGN.md §14).
# The small-op group must be there too, and long enough even in smoke
# mode to have taken a periodic memory checkpoint (the incremental
# digest path, not just the closing one).
TRACE_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_trace
if command -v jq >/dev/null 2>&1; then
    jq -e '.replay.identical == true
       and .small_ops.checkpoints >= 1
       and ([.summary[] | select(.name == "record_overhead_small_ops")] | length == 1)' BENCH_trace.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_trace.json")); rows=[r for r in d["summary"] if r["name"]=="record_overhead_small_ops"]; sys.exit(0 if d["replay"]["identical"] and d["small_ops"]["checkpoints"] >= 1 and len(rows) == 1 else 1)'
fi
echo "BENCH_trace.json OK"

# Crash smoke: journaled run + seeded crash/restart sweep — the bench
# asserts virtual-time identity and crash coverage; the JSON must show
# zero exactly-once violations (DESIGN.md §15). The 5% record-overhead
# bar is full-mode only (smoke timings are too short to be meaningful).
CRASH_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_crash
if command -v jq >/dev/null 2>&1; then
    jq -e '.exactly_once.violations == 0 and .exactly_once.crashes > 0' BENCH_crash.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_crash.json"))["exactly_once"]; sys.exit(0 if d["violations"] == 0 and d["crashes"] > 0 else 1)'
fi
echo "BENCH_crash.json OK"

# Integrity smoke: verified copies under injected silent corruption —
# the bench asserts clean-run virtual-time identity across policies and
# zero escapes under Full; the JSON must confirm no corruption escaped
# (DESIGN.md §16). The 5% verify-overhead bar is full-mode only.
INTEGRITY_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_integrity
if command -v jq >/dev/null 2>&1; then
    jq -e '[.coverage[] | select(.policy == "full")] | all(.escapes == 0 and .detected > 0)' BENCH_integrity.json >/dev/null
else
    python3 -c 'import json,sys; c=[x for x in json.load(open("BENCH_integrity.json"))["coverage"] if x["policy"]=="full"]; sys.exit(0 if c and all(x["escapes"]==0 and x["detected"]>0 for x in c) else 1)'
fi
echo "BENCH_integrity.json OK"

# Shard-scale smoke: the sharded control plane must sweep 1→N shards
# end to end, drain every pin, and replay the same seed to a bit-identical
# outcome at 4 shards (DESIGN.md §17). The ≥5.5× goodput bar and the 0.10
# barrier-wait bar are full-mode only — smoke workloads (8 tenants hashed
# onto 4 shards, 200 µs) are too small and too unevenly placed for them to
# be meaningful. Every point reports its ATCache hit fraction; at 4 shards
# the tenants' recycled pools must hit more often than not (per-space
# tables: a tenant's hits do not depend on its neighbours). Every point
# also reports the share of its service cores' time spent parked at the
# round barrier (a fraction; 0 at one shard, where there is no barrier),
# and the run with more shards must not end later (virtual time, so exact
# in smoke mode too).
SHARDSCALE_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_shardscale
if command -v jq >/dev/null 2>&1; then
    jq -e '(.sweep | length > 0)
       and ([.sweep[] | select(.shards == 4) | .atc_hit_frac > 0.5] == [true])
       and ([.sweep[] | .barrier_wait_frac | type == "number" and . >= 0 and . < 1] | all)
       and ([.sweep[] | select(.shards == 1) | .barrier_wait_frac == 0] | all)
       and ([.summary[] | select(.name == "end_ns_monotone") | .value] == [1])
       and ([.summary[] | select(.name == "shard_determinism")] | all(.value == 1))' BENCH_shardscale.json >/dev/null
else
    python3 -c 'import json,sys; d=json.load(open("BENCH_shardscale.json")); det=[r for r in d["summary"] if r["name"]=="shard_determinism"]; mono=[r["value"] for r in d["summary"] if r["name"]=="end_ns_monotone"]; hit=[p["atc_hit_frac"] for p in d["sweep"] if p["shards"]==4]; wait=all(isinstance(p.get("barrier_wait_frac"),(int,float)) and 0<=p["barrier_wait_frac"]<1 and (p["shards"]>1 or p["barrier_wait_frac"]==0) for p in d["sweep"]); sys.exit(0 if d["sweep"] and len(hit)==1 and hit[0]>0.5 and wait and mono==[1] and det and all(r["value"]==1 for r in det) else 1)'
fi
echo "BENCH_shardscale.json OK"

# Soak smoke: the O(active)-per-round control plane must beat the
# full-sweep reference on per-round cost, produce ordered latency
# percentiles from a non-empty sample population, and replay the same
# seed bit-identically (DESIGN.md §18). The ≥20× reduction and p999
# bars are full-mode only — smoke tenant counts are too small for the
# sweep cost to dominate honestly.
SOAK_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_soak
if command -v jq >/dev/null 2>&1; then
    jq -e '(([.points[] | select(.settled > 0)] | length) == (.points | length))
       and ([.points[] | .p50_ns <= .p99_ns and .p99_ns <= .p999_ns] | all)
       and ([.summary[] | select(.name == "soak_determinism")] | all(.value == 1))
       and ([.summary[] | select(.name == "round_cost_reduction_1e5")] | all(.value > 1))' BENCH_soak.json >/dev/null
else
    python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_soak.json"))
ok = all(p["settled"] > 0 and p["p50_ns"] <= p["p99_ns"] <= p["p999_ns"] for p in d["points"])
det = [r for r in d["summary"] if r["name"] == "soak_determinism"]
red = [r for r in d["summary"] if r["name"] == "round_cost_reduction_1e5"]
ok = ok and det and all(r["value"] == 1 for r in det) and red and all(r["value"] > 1 for r in red)
sys.exit(0 if ok else 1)
PY
fi
echo "BENCH_soak.json OK"

# Fig. 12 smoke: the proxy chain through a verifying sink (150 messages a
# point; the bench asserts the same rows itself). One payload copy per
# 16 KB message, a pending index that does not grow with the run, no
# damaged payload in any column — the absorption-off ablations included —
# and Copier ahead of the baseline at every size. Virtual time, so the
# smoke values are exact too.
FIG12_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig12_proxy
if command -v jq >/dev/null 2>&1; then
    jq -e '([.summary[] | select(.name == "copied_per_payload_16k") | .value <= 1.15] == [true])
       and ([.summary[] | select(.name == "index_entries_peak") | .value <= 16] == [true])
       and ([.summary[] | select(.name == "damaged_payloads") | .value == 0] == [true])
       and ([.summary[] | select(.name | startswith("copier_vs_baseline_")) | .value >= 1] == [true, true, true, true])
       and (.points | length == 24)
       and ([.points[] | .damaged == 0] | all)' BENCH_fig12.json >/dev/null
else
    python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_fig12.json"))
rows = {r["name"]: r["value"] for r in d["summary"]}
ok = rows["copied_per_payload_16k"] <= 1.15 and rows["index_entries_peak"] <= 16
ok = ok and rows["damaged_payloads"] == 0
vs = [v for n, v in rows.items() if n.startswith("copier_vs_baseline_")]
ok = ok and len(vs) == 4 and all(v >= 1 for v in vs)
ok = ok and len(d["points"]) == 24 and all(p["damaged"] == 0 for p in d["points"])
sys.exit(0 if ok else 1)
PY
fi
echo "BENCH_fig12.json OK"

# Fig. 11: the mini-Redis under two connections in all five systems. The
# client byte-compares every reply (GET payloads and SET acknowledgements)
# and the bench asserts every request was served, so exit 0 is the gate;
# it prints rows and commits no file (seconds, virtual time).
cargo bench -q -p copier-bench --offline --locked --bench fig11_redis >/dev/null
echo "fig11_redis OK"

# §4.6 break-even: the copy size from which Copier beats a sync AVX2 copy,
# with a Copy-Use window and without one. Virtual time and under a second,
# so it runs in full and rewrites BENCH_breakeven.json with the committed
# values; the bench asserts both sizes against their bars (1 KB / 64 KB),
# so exit 0 is the gate.
cargo bench -q -p copier-bench --offline --locked --bench fig_breakeven >/dev/null
git diff --exit-code -- BENCH_breakeven.json
echo "fig_breakeven OK"

# Repro-corpus replay: every committed .cptr trace under tests/repros/
# must replay through the current build without divergence — a frozen
# regression net over the corruption-draw wire format, the service's
# round structure and the state-hash definitions. The corpus is trace
# version 3 (re-recorded in PR 22 with REPRO_RECORD=1); an older file is
# refused by version, not replayed. It is the corpus as committed that
# must pass: any build replays traces it has just re-recorded itself
# (REPRO_RECORD=1), so uncommitted changes under tests/repros fail the
# script.
REPRO_REPLAY=1 cargo test -q --offline --locked --test integrity repro_corpus_replays_identically
git diff --exit-code -- tests/repros
echo "repro corpus OK"
