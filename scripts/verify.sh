#!/usr/bin/env bash
# Tier-1 verify, hermetically: the workspace must build and test with
# zero registry access. --offline is the point — a dependency on a
# non-vendored crate regresses exactly this command, which is how the
# seed state (rand/proptest/criterion unfetchable) broke the build.
# Cargo.lock is committed; --locked refuses silent re-resolution.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
# Architecture rules. The build and the clippy run below enforce most of
# them (`[lints]` in the Cargo.tomls, `clippy.toml`, privacy; DESIGN.md
# §12 lists them). The greps here are the rules no type or lint can
# state, each with the reason why.
# A round has one shape at every shard count (DESIGN.md §17): nothing
# compares the service's shard count. The one place a count of one matters
# is the round barrier's lone-arriver early-out, and `RoundBarrier` asks
# that of its own arriver count. (The count is a public `usize` the
# benchmark reads; a lint forbids calls, not comparisons.)
[ -z "$(grep -rhE 'nshards\(\) *(>|==|!=)' crates/*/src)" ]
# The full-sweep reference branches in one file (DESIGN.md §2): outside the
# config field's definition, `full_sweep` and the two predicates it used to
# feed may be named only by the aggregates that keep both behaviours.
# (A `pub` config field is readable crate-wide: `pub(in …)` cannot name a
# sibling module, and clippy has no disallowed-fields list.)
[ "$(grep -rlE 'full_sweep|fast_path\(\)|hash_cached\(\)' crates/copier-core/src | sort | tr '\n' ' ')" \
    = 'crates/copier-core/src/config.rs crates/copier-core/src/service/aggregates.rs ' ]
# A shard owns its clients (DESIGN.md §17): a shard's list changes only in
# `ShardState::join` / `leave`, and no file but `service/aggregates.rs`
# keeps a `Vec<Rc<Client>>` field. (A field's type is anyone's to write; no
# type can withhold it. The stamp is private to that file, so a filter over
# clients by stamp does not compile: DESIGN.md §12.)
tables=$(grep -rnE '^[[:space:]]*(pub(\([a-z]+\))? +)?[a-z_][a-z_0-9]*: .*Vec<Rc<Client>>' crates/copier-core/src \
    | grep -v '^crates/copier-core/src/service/aggregates\.rs:' || true)
[ -z "$tables" ] || { echo "a client list outside ShardState in:"; echo "$tables"; exit 1; }
# Counters belong to the shard that counts them (DESIGN.md §17): the service
# keeps no service-wide counter field (`self.stats` / `svc.stats` outside a
# `stats()` call). (A new field is a new name; no lint forbids declaring
# one. Reading a row is clippy's, above.)
cells=$(grep -rnE '\b(self|svc)\.stats($|[^_a-z0-9(])' crates/copier-core/src/service || true)
[ -z "$cells" ] || { echo "a service-wide counter field in:"; echo "$cells"; exit 1; }
# A round reads only its own shard (DESIGN.md §17): a vruntime lives in a
# `Cell` only on a client (`copied_total`) or in its shard's state
# (`service/aggregates.rs`), so no cgroup or service-wide table holds one
# that two shards charge. (A vruntime is a `u64` by name only.)
vrs=$(grep -rnE '^[[:space:]]*(pub(\([a-z]+\))? +)?([a-z0-9_]*_)?(vruntime|vr)(_[a-z0-9_]*)?: .*Cell<' crates/*/src \
    | grep -vE '^crates/copier-core/src/(service/aggregates|client)\.rs:' || true)
[ -z "$vrs" ] || { echo "a vruntime cell outside ShardState and Client in:"; echo "$vrs"; exit 1; }
# A batch's state lives in its `execute_batch` call (DESIGN.md §3,
# Dispatcher): the one dispatcher every shard shares has no
# interior-mutable field a batch could leave state in for another shard's
# batch to find, and no service-wide drain of per-batch results. (Stable
# Rust has no bound for "no interior mutability", and `Dispatcher` holds
# `Rc`s, so `Sync` cannot stand in.)
dfile=$(grep -rlE '^pub struct Dispatcher \{' crates/*/src)
[ "$(printf '%s\n' "$dfile" | grep -c .)" = 1 ] || { echo "struct Dispatcher not found once:"; echo "$dfile"; exit 1; }
dcells=$(awk '
    /^pub struct Dispatcher \{/ { on = 1; next }
    on && /^\}/ { on = 0 }
    on && /Cell</ { print FILENAME ":" FNR ": " $0 }
' "$dfile")
[ -z "$dcells" ] || { echo "per-batch state on the shared Dispatcher:"; echo "$dcells"; exit 1; }
drains=$(grep -rn 'take_corrupted' crates/*/src tests || true)
[ -z "$drains" ] || { echo "a service-wide drain of a batch's corruptions:"; echo "$drains"; exit 1; }
# An address space translates a range one way (DESIGN.md §12): `resolve` is
# the one fault handler, so each kind of fault is booked on one line of
# `copier-mem/src/space.rs`, and its private `scan` is the one place
# copier-mem builds an `Extent` from page-table entries. (Privacy stops at
# a module, and `space.rs` is one; `Extent` is a plain value copier-hw
# slices and tests build.)
faults=$(grep -rnE '(demand_zero|cow_remap|cow_copy) \+= 1\b' crates/*/src || true)
[ "$(printf '%s\n' "$faults" | grep -c '^crates/copier-mem/src/space\.rs:')" = 3 ] \
    && [ "$(printf '%s\n' "$faults" | grep -c .)" = 3 ] \
    || { echo "faults booked outside AddressSpace::resolve:"; echo "$faults"; exit 1; }
builders=$(grep -rnE '(^|[^A-Za-z_])Extent \{' crates/copier-mem/src | grep -v 'struct Extent {' || true)
[ "$(printf '%s\n' "$builders" | grep -c .)" = 1 ] \
    || { echo "extents built in more than one place:"; echo "$builders"; exit 1; }
# A record is spelled once (DESIGN.md §14, §15): `copier_sim::wire` owns
# the LEB128 varint and FNV-1a under both durable formats, so no other file
# does varint arithmetic (`& 0x7f`; `copier-apps/src/proto.rs` is the
# Protobuf miniature's own format), and the FNV prime has two homes: the
# wire module and `copier-mem`, which depends on nothing. (A literal is not
# a path; no lint can forbid a number.)
primes=$(grep -rlF '0x100_0000_01b3' crates/*/src | sort | tr '\n' ' ')
[ "$primes" = 'crates/copier-mem/src/phys.rs crates/copier-sim/src/wire.rs ' ] \
    || { echo "the FNV prime spelled outside its two homes:"; echo "$primes"; exit 1; }
varints=$(grep -rnE '&[[:space:]]*0x7f\b' crates/*/src \
    | grep -vE '^crates/(copier-sim/src/wire|copier-apps/src/proto)\.rs:' || true)
[ -z "$varints" ] || { echo "varint arithmetic outside copier_sim::wire:"; echo "$varints"; exit 1; }
# No file of the service crate outgrows 1,000 lines, and no function of
# the service 100 code lines: `service/mod.rs` denies
# `clippy::too_many_lines` for its whole module tree (threshold in
# clippy.toml), which the clippy run below enforces. (No lint measures a
# file, and these two greps keep that lint's own settings in place.)
over=$(find crates/copier-core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')
[ -z "$over" ] || { echo "over 1000 lines:"; echo "$over"; exit 1; }
grep -qx '#!\[deny(clippy::too_many_lines)\]' crates/copier-core/src/service/mod.rs
grep -qx 'too-many-lines-threshold = 100' clippy.toml
# One poll idiom (DESIGN.md §12): a loop that charges core time and changes
# nothing itself — no `let`, no assignment, no notification wait — is a
# busy-wait for someone else's event, and `Core::spin` is the one way to
# spell it: the core answers each step boundary without waking the task.
# The spin oracle spells the loop on purpose (it is what `spin` must equal),
# and nothing charges the service's idle poll through `advance`. (What a
# loop changes is its shape, not its type: `advance` itself is legitimate.)
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
# Reach census (ROADMAP item 6c): no public item of non-test crates/*/src
# code is reached by nothing, or only by its own crate's unit tests, unless
# scripts/census.allow names it with a reason its cited section confirms.
# Each use is resolved by the compiler (a `cargo check` of a marked copy
# under target/census), so a name shared with a live item hides nothing.
# `scripts/census.sh --table` prints what reaches every item.
scripts/census.sh
cargo build --release --offline --locked
cargo test -q --workspace --offline --locked
cargo clippy --workspace --all-targets --offline --locked -- -D warnings
# The docs resolve: every intra-doc link names a live item, and no public
# doc links to a private one, so renaming or deleting an item breaks the
# doc build instead of leaving a stale reference.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline --locked --document-private-items

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

# The host copy engine (DESIGN.md §12) against a synchronous model, deeper
# than the workspace run above: random scripts of deferred, inline,
# overlapping and chained copies mixed with every arena reader, writer and
# allocation, on rings of 2–4 slots, every read and digest compared.
TESTKIT_CASES=2000 cargo test -q -p copier-mem --offline --locked --lib phys::queue_differential

# Abort retires, promotion by byte range, the dispatcher's balance cut
# (DESIGN.md §3), deeper than the workspace run above: random
# submit/copy/abort/csync interleavings (every abort returns its credit,
# fires its handler once, leaves window == index == live tasks), partly
# synced lazy chains against sequential memcpy, and the bounds the in-place
# `Dispatcher::plan` guarantees on random contiguous/scattered batches, with
# its equality to the retired re-chunk-then-plan oracle. `tests/proxy_soak.rs`
# (20 000 messages end to end) and `absorb_differential` ran there in full.
TESTKIT_CASES=2000 cargo test -q -p copier-client --offline --locked --test abort_retire
TESTKIT_CASES=2000 cargo test -q -p copier-client --offline --locked --test lazy_promotion
TESTKIT_CASES=20000 cargo test -q -p copier-hw --offline --locked --lib dispatch::

# The two durable formats' decoders are total (DESIGN.md §14, §15), deeper
# than the workspace run above: sampled trace events and scripted journal
# stores, cut, bit-flipped, spliced or re-framed around a damaged payload,
# decode to `Ok`/`Err` and replay to a `Recovered` without panicking.
TESTKIT_CASES=20000 cargo test -q -p copier-sim --offline --locked --lib trace::tests::decode_is_total
TESTKIT_CASES=20000 cargo test -q -p copier-core --offline --locked --lib journal::tests::replay_is_total

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
# of the eight, both digest rows (the lane kernel against the serial
# fold on a 4 KiB page and a 1,506-byte extent) with the page's speed-up
# summary row, and the five copy-engine rows the deferral threshold is
# sourced from (submission, a fence round trip with the worker awake and
# parked, a 256 KiB scattered batch inline and deferred) with the batch
# ratio's summary row and the counters that show the batch went through
# the queue, and both deferral thresholds' summary rows (cold and warm,
# each threshold over its break-even): in smoke mode only that they
# exist, in full mode that each sits at or above its break-even.
HOSTPERF_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_hostperf
python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_hostperf.json"))
summary = lambda key, name: [r for r in d["summary"] if r.get(key) == name]
ce = d["copy_engine"]
ok = len(d["layouts"]) > 0
ok = ok and [r["name"] for r in d["executor"]] == ["sleep", "sleep_evented", "advance", "advance_evented", "advance_contended", "notify_round_trip"]
ok = ok and [r["name"] for r in d["progress"]] == ["landing_4k", "range_ready_256"]
ok = ok and all(r["ns"] > 0 and r["over_floor"] > 0 for r in d["executor"] + d["progress"])
ok = ok and len(summary("metric", "over_floor_max")) == 8
ok = ok and [r["name"] for r in d["digest"]] == ["digest-page", "digest-extent"]
ok = ok and all(r["lane_ns"] > 0 and r["serial_ns"] > 0 for r in d["digest"])
ok = ok and len(summary("name", "speedup_digest-page")) == 1
ok = ok and [r["name"] for r in ce["rows"]] == ["submit", "fence_awake", "fence_parked", "batch_inline", "batch_deferred"]
ok = ok and all(r["ns"] > 0 for r in ce["rows"]) and ce["counters"]["deferred_copies"] > 0
ok = ok and len(summary("name", "copy_engine_batch")) == 1
ok = ok and ce["breakeven_kib"] > 0 and ce["breakeven_warm_kib"] > 0
for name in ("defer_threshold_cold", "defer_threshold_warm"):
    rows = summary("name", name)
    ok = ok and len(rows) == 1 and (d["smoke"] or rows[0]["value"] >= rows[0]["bar"])
sys.exit(0 if ok else 1)
PY
echo "BENCH_hostperf.json OK"

# Control-plane smoke: same plumbing check for the pending-index bench
# (it also re-asserts linear/indexed plan identity on every window).
CTRLPERF_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_ctrlperf
python3 -c 'import json,sys; sys.exit(0 if len(json.load(open("BENCH_ctrlperf.json"))["depths"]) > 0 else 1)'
echo "BENCH_ctrlperf.json OK"

# Trace smoke: record a fig07-class run, replay it in lockstep, and
# localize an injected perturbation — the bench asserts all three, and
# the JSON must confirm the replay was bit-identical (DESIGN.md §14).
# The small-op group must be there too, and long enough even in smoke
# mode to have taken a periodic memory checkpoint (the incremental
# digest path, not just the closing one).
TRACE_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_trace
python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_trace.json"))
rows = [r for r in d["summary"] if r["name"] == "record_overhead_small_ops"]
ok = d["replay"]["identical"] is True and d["small_ops"]["checkpoints"] >= 1 and len(rows) == 1
sys.exit(0 if ok else 1)
PY
echo "BENCH_trace.json OK"

# Crash smoke: journaled run + seeded crash/restart sweep — the bench
# asserts virtual-time identity and crash coverage; the JSON must show
# zero exactly-once violations (DESIGN.md §15). The 5% record-overhead
# bar is full-mode only (smoke timings are too short to be meaningful).
CRASH_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_crash
python3 -c 'import json,sys; d=json.load(open("BENCH_crash.json"))["exactly_once"]; sys.exit(0 if d["violations"] == 0 and d["crashes"] > 0 else 1)'
echo "BENCH_crash.json OK"

# Integrity smoke: verified copies under injected silent corruption —
# the bench asserts clean-run virtual-time identity across policies and
# zero escapes under Full; the JSON must confirm no corruption escaped
# (DESIGN.md §16). The 5% verify-overhead bar is full-mode only.
INTEGRITY_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_integrity
python3 -c 'import json,sys; c=[x for x in json.load(open("BENCH_integrity.json"))["coverage"] if x["policy"]=="full"]; sys.exit(0 if c and all(x["escapes"]==0 and x["detected"]>0 for x in c) else 1)'
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
python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_shardscale.json"))
vals = lambda name: [r["value"] for r in d["summary"] if r["name"] == name]
number = lambda x: isinstance(x, (int, float)) and not isinstance(x, bool)
ok = len(d["sweep"]) > 0
ok = ok and [p["atc_hit_frac"] > 0.5 for p in d["sweep"] if p["shards"] == 4] == [True]
ok = ok and all(number(p.get("barrier_wait_frac")) and 0 <= p["barrier_wait_frac"] < 1 for p in d["sweep"])
ok = ok and all(p["barrier_wait_frac"] == 0 for p in d["sweep"] if p["shards"] == 1)
ok = ok and vals("end_ns_monotone") == [1]
det = vals("shard_determinism")
ok = ok and len(det) > 0 and all(v == 1 for v in det)
sys.exit(0 if ok else 1)
PY
echo "BENCH_shardscale.json OK"

# Soak smoke: the O(active)-per-round control plane must beat the
# full-sweep reference on per-round cost, produce ordered latency
# percentiles from a non-empty sample population, replay the same seed
# bit-identically, and report the resident bytes a registered tenant
# adds on every point (DESIGN.md §18). The ≥20× reduction and p999
# bars are full-mode only — smoke tenant counts are too small for the
# sweep cost to dominate honestly.
SOAK_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig_soak
python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_soak.json"))
vals = lambda name: [r["value"] for r in d["summary"] if r["name"] == name]
ok = all(p["settled"] > 0 and p["p50_ns"] <= p["p99_ns"] <= p["p999_ns"]
         and "reg_bytes_per_tenant" in p for p in d["points"])
det, red = vals("soak_determinism"), vals("round_cost_reduction_1e5")
ok = ok and len(det) > 0 and all(v == 1 for v in det)
ok = ok and len(red) > 0 and all(v > 1 for v in red)
sys.exit(0 if ok else 1)
PY
echo "BENCH_soak.json OK"

# Fig. 12 smoke: the proxy chain through a verifying sink (150 messages a
# point; the bench asserts the same rows itself). One payload copy per
# 16 KB message, a pending index that does not grow with the run, no
# damaged payload in any column — the absorption-off ablations included —
# and Copier ahead of the baseline at every size. Virtual time, so the
# smoke values are exact too.
FIG12_SMOKE=1 cargo bench -q -p copier-bench --offline --locked --bench fig12_proxy
python3 - <<'PY'
import json, sys
d = json.load(open("BENCH_fig12.json"))
vals = lambda match: [r["value"] for r in d["summary"] if match(r["name"])]
ok = [v <= 1.15 for v in vals(lambda n: n == "copied_per_payload_16k")] == [True]
ok = ok and [v <= 16 for v in vals(lambda n: n == "index_entries_peak")] == [True]
ok = ok and [v == 0 for v in vals(lambda n: n == "damaged_payloads")] == [True]
ok = ok and [v >= 1 for v in vals(lambda n: n.startswith("copier_vs_baseline_"))] == [True] * 4
ok = ok and len(d["points"]) == 24 and all(p["damaged"] == 0 for p in d["points"])
sys.exit(0 if ok else 1)
PY
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
