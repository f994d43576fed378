//! fig_ctrlperf — host wall-clock scaling of the control plane.
//!
//! Like fig_hostperf, this measures the *host* cost of service-side work,
//! not virtual time: the per-round absorption/hazard analysis and the
//! csync waiter lookup over deep pending windows. The linear reference
//! sweeps every earlier window entry per considered task (O(n) per task,
//! O(n²) per round); the address-indexed path (`PendIndex`) answers the
//! same questions with ordered window queries. Plans are asserted
//! identical before timing, so the speedup is pure bookkeeping — see
//! DESIGN.md §13 for why virtual-time outputs cannot change.
//!
//! Windows are built from `copier-sim::workload` multi-tenant open-loop
//! arrivals (8 tenants, seeded): mostly disjoint transfers, with every
//! fourth submission chaining off the previous one (absorption work) and
//! every third producer left half-copied (piece splitting).
//!
//! Measured per depth (64 → 4096 pending entries):
//! - `absorb-sweep` — analyze every window entry against its earlier
//!   entries: the round-poll/absorption path. The ≥5× acceptance bar at
//!   depth 4096 applies here.
//! - `csync-lookup` — latest-unfinished-overlap waiter lookup for 64
//!   synced ranges: the §4.2.2 reverse traversal.
//!
//! Writes `BENCH_ctrlperf.json` at the repo root.
//! Set `CTRLPERF_SMOKE=1` for a fast run (CI smoke; same depths, fewer
//! samples).

use std::rc::Rc;
use std::time::Instant;

use copier_bench::json::Json;
use copier_bench::section;
use copier_core::absorb::{self, AbsorbPlan};
use copier_core::interval::ranges_overlap;
use copier_core::{CopyTask, PendEntry, PendIndex, RangeKind, SegDescriptor};
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, VirtAddr};
use copier_sim::{Nanos, WorkloadConfig, WorkloadPlan};
use copier_testkit::{black_box, Bench};

const TENANTS: usize = 8;
const CSYNC_QUERIES: usize = 64;

/// A synthetic pending window: entries in key order plus the index the
/// service would have maintained.
struct Window {
    entries: Vec<Rc<PendEntry>>,
    index: PendIndex,
}

fn entry(tid: u64, sp: &Rc<AddressSpace>, src: u64, dst: u64, len: usize) -> Rc<PendEntry> {
    Rc::new(PendEntry::new(
        tid,
        (0, 1, tid),
        CopyTask {
            dst_space: Rc::clone(sp),
            dst: VirtAddr(dst),
            src_space: Rc::clone(sp),
            src: VirtAddr(src),
            len,
            seg: 4096,
            descr: Rc::new(SegDescriptor::new(len, 4096)),
            func: None,
            lazy: false,
            verify: false,
        },
        Nanos::ZERO,
    ))
}

/// Builds a `depth`-entry window from the merged multi-tenant arrival
/// stream. Per tenant: fresh transfers walk disjoint source/destination
/// cursors; every fourth submission instead re-copies the tenant's
/// previous destination (a RAW chain absorption resolves); every third
/// chain producer is left half-copied so layering splits pieces.
fn build_window(depth: usize, seed: u64) -> Window {
    let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
    let spaces: Vec<Rc<AddressSpace>> = (0..TENANTS)
        .map(|t| AddressSpace::new(100 + t as u32, Rc::clone(&pm)))
        .collect();
    let plan = WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants: TENANTS,
        mean_gap: Nanos::from_micros(2),
        len_min: 4 * 1024,
        len_max: 64 * 1024,
        // Generous horizon; the merged stream is truncated to `depth`.
        horizon: Nanos(2_000 * depth as u64),
        ..Default::default()
    });
    let merged = plan.merged();
    assert!(merged.len() >= depth, "horizon too short for depth {depth}");

    let mut src_cur = [0x1000_0000u64; TENANTS];
    let mut dst_cur = [0x8000_0000u64; TENANTS];
    let mut prev: Vec<Option<(u64, usize)>> = vec![None; TENANTS];
    let mut count = [0usize; TENANTS];
    let index = PendIndex::new();
    let mut entries = Vec::with_capacity(depth);
    for (i, &(t, a)) in merged.iter().take(depth).enumerate() {
        let k = count[t];
        count[t] += 1;
        let (src, len) = match prev[t] {
            Some((pdst, plen)) if k % 4 == 1 => (pdst, plen),
            _ => {
                let s = src_cur[t];
                src_cur[t] += a.len as u64;
                (s, a.len)
            }
        };
        let dst = dst_cur[t];
        dst_cur[t] += len as u64;
        let e = entry(i as u64 + 1, &spaces[t], src, dst, len);
        if k.is_multiple_of(3) {
            e.copied.borrow_mut().insert(0, len / 2);
        }
        prev[t] = Some((dst, len));
        index.insert(&e);
        entries.push(e);
    }
    Window { entries, index }
}

/// An [`AbsorbPlan`] reduced to comparable values: blocked, blocker tids,
/// absorbed bytes, and each piece as `(off, len, space, va, depth)`.
type NormPlan = (bool, Vec<u64>, usize, Vec<(usize, usize, u32, u64, u32)>);

fn norm_plan(p: &AbsorbPlan) -> NormPlan {
    (
        p.blocked,
        p.blockers.iter().map(|b| b.tid).collect(),
        p.absorbed_bytes,
        p.pieces
            .iter()
            .map(|x| (x.off, x.len, x.space.id(), x.va.0, x.depth))
            .collect(),
    )
}

/// The csync waiter lookup the service used to run: latest unfinished
/// window entry whose destination overlaps the synced range.
fn csync_linear(entries: &[Rc<PendEntry>], sp: u32, lo: usize, hi: usize) -> Option<usize> {
    entries.iter().rposition(|p| {
        !p.finished()
            && p.task.dst_space.id() == sp
            && ranges_overlap(
                (p.task.dst.0 as usize, p.task.dst.0 as usize + p.task.len),
                (lo, hi),
            )
    })
}

/// The indexed lookup: max key among the window query's matches.
fn csync_indexed(w: &Window, sp: u32, lo: usize, hi: usize) -> Option<usize> {
    let mut best: Option<(u64, u8, u64)> = None;
    w.index
        .for_each_overlap(RangeKind::Dst, sp, lo as u64, hi as u64, |p| {
            if !p.finished() && best.is_none_or(|b| p.key > b) {
                best = Some(p.key);
            }
        });
    best.map(|k| w.entries.partition_point(|p| p.key < k))
}

struct DepthResult {
    depth: usize,
    absorb_linear_ns: u64,
    absorb_indexed_ns: u64,
    csync_linear_ns: u64,
    csync_indexed_ns: u64,
    absorbed_bytes: usize,
    index_records: usize,
}

impl DepthResult {
    fn absorb_speedup(&self) -> f64 {
        self.absorb_linear_ns as f64 / self.absorb_indexed_ns.max(1) as f64
    }
    fn csync_speedup(&self) -> f64 {
        self.csync_linear_ns as f64 / self.csync_indexed_ns.max(1) as f64
    }
}

fn run_depth(bench: &Bench, depth: usize) -> DepthResult {
    let w = build_window(depth, 0xC0FF_EE00 + depth as u64);

    // Differential sanity before timing: both paths must produce the same
    // plan for every window entry (the property test covers adversarial
    // windows; this pins the exact workload being timed).
    let mut absorbed_total = 0usize;
    for (i, e) in w.entries.iter().enumerate() {
        let lin = absorb::analyze(e, &w.entries[..i], true);
        let (idx, _) = absorb::analyze_indexed(e, &w.index, true);
        assert_eq!(norm_plan(&lin), norm_plan(&idx), "plan diverged at {i}");
        absorbed_total += lin.absorbed_bytes;
    }
    assert!(absorbed_total > 0, "workload produced no absorption chains");

    let absorb_linear = bench.run_and_print(&format!("absorb-sweep/{depth}/linear"), || {
        let mut acc = 0usize;
        for (i, e) in w.entries.iter().enumerate() {
            let plan = absorb::analyze(e, &w.entries[..i], true);
            acc += plan.absorbed_bytes + plan.pieces.len();
        }
        black_box(acc);
    });
    let absorb_indexed = bench.run_and_print(&format!("absorb-sweep/{depth}/indexed"), || {
        let mut acc = 0usize;
        for e in &w.entries {
            let (plan, _) = absorb::analyze_indexed(e, &w.index, true);
            acc += plan.absorbed_bytes + plan.pieces.len();
        }
        black_box(acc);
    });

    // csync queries: the destinations of evenly spaced window entries.
    let queries: Vec<(u32, usize, usize)> = (0..CSYNC_QUERIES)
        .map(|q| {
            let e = &w.entries[(q * w.entries.len()) / CSYNC_QUERIES];
            let (sp, lo, hi) = e.task.dst_range();
            (sp, lo as usize, hi as usize)
        })
        .collect();
    for &(sp, lo, hi) in &queries {
        assert_eq!(
            csync_linear(&w.entries, sp, lo, hi),
            csync_indexed(&w, sp, lo, hi),
            "csync lookup diverged"
        );
    }
    let csync_lin = bench.run_and_print(&format!("csync-lookup/{depth}/linear"), || {
        let mut acc = 0usize;
        for &(sp, lo, hi) in &queries {
            acc += csync_linear(&w.entries, sp, lo, hi).unwrap_or(0);
        }
        black_box(acc);
    });
    let csync_idx = bench.run_and_print(&format!("csync-lookup/{depth}/indexed"), || {
        let mut acc = 0usize;
        for &(sp, lo, hi) in &queries {
            acc += csync_indexed(&w, sp, lo, hi).unwrap_or(0);
        }
        black_box(acc);
    });

    DepthResult {
        depth,
        absorb_linear_ns: absorb_linear.median_ns(),
        absorb_indexed_ns: absorb_indexed.median_ns(),
        csync_linear_ns: csync_lin.median_ns(),
        csync_indexed_ns: csync_idx.median_ns(),
        absorbed_bytes: absorbed_total,
        index_records: w.index.len(),
    }
}

fn main() {
    let smoke = std::env::var("CTRLPERF_SMOKE").is_ok_and(|v| v == "1");
    let bench = if smoke {
        Bench::fast()
    } else {
        Bench::default()
    };
    let depths = [64usize, 256, 1024, 4096];
    let t0 = Instant::now();

    section("fig_ctrlperf: control-plane scaling (host wall clock)");
    println!(
        "  mode: {}, tenants: {TENANTS}, csync queries: {CSYNC_QUERIES}",
        if smoke { "smoke" } else { "full" }
    );
    let results: Vec<DepthResult> = depths.iter().map(|&d| run_depth(&bench, d)).collect();
    let suite_ms = t0.elapsed().as_secs_f64() * 1e3;

    section("summary (per round-sweep / per 64-query batch)");
    for r in &results {
        println!(
            "  depth={:>5}  absorb: linear={:>11}ns indexed={:>9}ns speedup={:>6.1}x  \
             csync: linear={:>9}ns indexed={:>7}ns speedup={:>6.1}x",
            r.depth,
            r.absorb_linear_ns,
            r.absorb_indexed_ns,
            r.absorb_speedup(),
            r.csync_linear_ns,
            r.csync_indexed_ns,
            r.csync_speedup(),
        );
    }

    let json = Json::obj([
        ("bench", Json::Str("fig_ctrlperf".into())),
        ("smoke", Json::Bool(smoke)),
        ("tenants", Json::Int(TENANTS as u64)),
        ("suite_ms", Json::Num(suite_ms)),
        (
            "depths",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("depth", Json::Int(r.depth as u64)),
                            ("index_records", Json::Int(r.index_records as u64)),
                            ("absorbed_bytes", Json::Int(r.absorbed_bytes as u64)),
                            ("absorb_linear_ns", Json::Int(r.absorb_linear_ns)),
                            ("absorb_indexed_ns", Json::Int(r.absorb_indexed_ns)),
                            ("absorb_speedup", Json::Num(r.absorb_speedup())),
                            ("csync_linear_ns", Json::Int(r.csync_linear_ns)),
                            ("csync_indexed_ns", Json::Int(r.csync_indexed_ns)),
                            ("csync_speedup", Json::Num(r.csync_speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::Arr({
                // The trajectory metric is the deepest point of the sweep:
                // that is where the linear control plane hurts most and the
                // index must pay for itself.
                let deepest = results.last().expect("sweep is non-empty");
                vec![
                    Json::summary(
                        "absorb_speedup_deep",
                        "speedup_min",
                        1.0,
                        deepest.absorb_speedup(),
                    ),
                    Json::summary(
                        "csync_speedup_deep",
                        "speedup_min",
                        1.0,
                        deepest.csync_speedup(),
                    ),
                ]
            }),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ctrlperf.json");
    json.write_file(path).expect("write BENCH_ctrlperf.json");
    println!("\n  wrote {path} (suite {suite_ms:.0} ms)");
}
