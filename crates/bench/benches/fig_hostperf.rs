//! fig_hostperf — host wall-clock throughput of the fast-path copy engine.
//!
//! Unlike the fig* targets (which report *virtual-time* results of the
//! simulation), this bench measures how fast the engine itself moves real
//! bytes on the host: batched translation (`resolve_range`) plus
//! run-coalesced arena copies (`copy_run`), against the per-page baseline
//! (`resolve` per page + page-bounded `copy`) that the engine replaced.
//! Virtual-time outputs are unaffected by construction — see DESIGN.md §12.
//!
//! Layouts (all measured in a warm address space with a deep page table —
//! `DEPTH` background pages mapped, as in a long-running system):
//! - `translate-contig` — the gather-path translation stage alone:
//!   `resolve_range` walks the PTE range with one ordered scan, vs. one
//!   BTreeMap lookup per page. This is where the batching wins big; the
//!   ≥3× acceptance bar applies here.
//! - `gather-contig`  — translation + copy of a small hot window; the
//!   copy stage is memcpy-bound, so the end-to-end win is smaller.
//! - `gather-scattered` — same with fragmented frames: extents collapse
//!   to single pages, showing the bounded win without contiguity.
//! - `overlap-move`   — `memmove` within one region (arena `copy_within`
//!   vs. page-tiled moves).
//!
//! The `executor` group times what one simulated event costs the host:
//! a `sleep` and an `advance` on a free core, each both completed in place
//! (nothing due first) and evented (a foreign timer ties its end, so it
//! takes its timer and its poll), an `advance` on a shared core, a
//! `Notify` round trip. Each is also given as a multiple of a floor
//! measured in the same round of the same run (a `BinaryHeap` push+pop
//! of a 32-byte entry plus a `VecDeque` push+pop: what a timer event
//! cannot avoid), and the bars are on the multiples, because this host's
//! speed swings by whole factors within minutes and a bar in ns cannot
//! hold.
//!
//! The `progress` group times, against the same floor, the bookkeeping
//! one landed page costs the service (the three steps of its
//! `mark_progress`: copied set, in-flight set, descriptor bits) on a
//! 256 KiB task of 256 segments, and what one `csync` poll of that
//! descriptor costs the client (`range_ready` over all 256 segments, the
//! last one missing, so no early exit helps).
//!
//! Writes `BENCH_hostperf.json` at the repo root (host GB/s per layout
//! plus suite wall-clock) — the seed point of the BENCH perf trajectory.
//! Set `HOSTPERF_SMOKE=1` for a tiny, fast run (CI smoke).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;
use std::time::Instant;

use copier_bench::json::Json;
use copier_bench::{kb, section};
use copier_core::{IntervalSet, SegDescriptor, DEFAULT_SEGMENT};
use copier_mem::{frames_of, AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier_sim::{Machine, Nanos, Notify, Sim};
use copier_testkit::{black_box, median, Bench};

/// One measured layout: fast vs. per-page GB/s over the same bytes.
struct LayoutResult {
    name: &'static str,
    bytes: usize,
    fast_gbps: f64,
    paged_gbps: f64,
}

impl LayoutResult {
    fn speedup(&self) -> f64 {
        self.fast_gbps / self.paged_gbps
    }
}

fn gbps(bytes: usize, ns: u64) -> f64 {
    bytes as f64 / ns.max(1) as f64
}

/// A warm address space with `depth` mapped-and-touched background pages,
/// so the page table has the depth of a long-running process rather than
/// a ten-entry toy map.
fn deep_space(pm: &Rc<PhysMem>, depth: usize) -> Rc<AddressSpace> {
    let asp = AddressSpace::new(1, Rc::clone(pm));
    if depth > 0 {
        let bg = asp.mmap(depth * PAGE_SIZE, Prot::RW, true).unwrap();
        for p in 0..depth {
            asp.write_bytes(VirtAddr(bg.0 + (p * PAGE_SIZE) as u64), &[1u8])
                .unwrap();
        }
    }
    asp
}

/// Builds a populated RW mapping of `pages` pages filled with a pattern.
fn mapped(asp: &Rc<AddressSpace>, pages: usize, tag: u8) -> VirtAddr {
    let va = asp.mmap(pages * PAGE_SIZE, Prot::RW, true).unwrap();
    let data: Vec<u8> = (0..pages * PAGE_SIZE)
        .map(|i| (i % 251) as u8 ^ tag)
        .collect();
    asp.write_bytes(va, &data).unwrap();
    va
}

/// The engine fast path: one batched walk per side, then one `copy_run`
/// per extent pair. Extent lists are position-sliced against each other
/// the way the dispatcher's subtask splitter does, so fragmented sides
/// still pair correctly.
fn engine_fast(pm: &PhysMem, asp: &AddressSpace, dst: VirtAddr, src: VirtAddr, len: usize) {
    let (sx, _) = asp.resolve_range(src, len, false).unwrap();
    let (dx, _) = asp.resolve_range(dst, len, true).unwrap();
    let (mut si, mut di) = (0usize, 0usize);
    let (mut s_off, mut d_off) = (0usize, 0usize);
    let mut left = len;
    while left > 0 {
        let s = sx[si];
        let d = dx[di];
        let take = (s.len - s_off).min(d.len - d_off).min(left);
        pm.copy_run(d.frame, d.off + d_off, s.frame, s.off + s_off, take);
        s_off += take;
        d_off += take;
        if s_off == s.len {
            si += 1;
            s_off = 0;
        }
        if d_off == d.len {
            di += 1;
            d_off = 0;
        }
        left -= take;
    }
    asp.reset_fault_stats();
}

/// The per-page baseline the fast path replaced: resolve each page of
/// both sides independently, copy page by page.
fn engine_paged(pm: &PhysMem, asp: &AddressSpace, dst: VirtAddr, src: VirtAddr, len: usize) {
    let mut done = 0usize;
    while done < len {
        let s_va = src.add(done);
        let d_va = dst.add(done);
        let (sf, _) = asp.resolve(s_va, false).unwrap();
        let (df, _) = asp.resolve(d_va, true).unwrap();
        let take = (len - done)
            .min(PAGE_SIZE - s_va.page_off())
            .min(PAGE_SIZE - d_va.page_off());
        pm.copy(df, d_va.page_off(), sf, s_va.page_off(), take);
        done += take;
    }
    asp.reset_fault_stats();
}

/// Translation stage alone: both sides of a transfer, no byte movement.
/// GB/s here is bytes *gathered* per second.
fn run_translate(bench: &Bench, depth: usize, pages: usize) -> LayoutResult {
    let pm = Rc::new(PhysMem::new(
        depth + pages * 2 + 64,
        AllocPolicy::Sequential,
    ));
    let asp = deep_space(&pm, depth);
    let src = mapped(&asp, pages, 0x00);
    let dst = mapped(&asp, pages, 0xFF);
    let len = pages * PAGE_SIZE;

    let fast = bench.run_and_print("translate-contig/fast", || {
        let (sx, _) = asp.resolve_range(src, black_box(len), false).unwrap();
        let (dx, _) = asp.resolve_range(dst, len, true).unwrap();
        black_box((sx, dx));
        asp.reset_fault_stats();
    });
    let paged = bench.run_and_print("translate-contig/paged", || {
        let mut done = 0usize;
        while done < len {
            let (sf, _) = asp.resolve(src.add(done), false).unwrap();
            let (df, _) = asp.resolve(dst.add(done), true).unwrap();
            black_box((sf, df));
            done += PAGE_SIZE;
        }
        asp.reset_fault_stats();
    });
    // Sanity: the batched walk must see the exact frames the per-page
    // walk sees.
    let (sx, _) = asp.resolve_range(src, len, false).unwrap();
    let per_page: Vec<_> = (0..pages)
        .map(|p| asp.resolve(src.add(p * PAGE_SIZE), false).unwrap().0)
        .collect();
    assert_eq!(frames_of(&sx), per_page, "batched vs per-page frames");
    asp.reset_fault_stats();

    LayoutResult {
        name: "translate-contig",
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// Full gather engine (translate + copy) over a hot window.
fn run_gather(
    bench: &Bench,
    name: &'static str,
    policy: AllocPolicy,
    depth: usize,
    pages: usize,
) -> LayoutResult {
    let pm = Rc::new(PhysMem::new(depth + pages * 2 + 64, policy));
    let asp = deep_space(&pm, depth);
    let src = mapped(&asp, pages, 0x00);
    let dst = mapped(&asp, pages, 0xFF);
    let len = pages * PAGE_SIZE;

    let fast = bench.run_and_print(&format!("{name}/fast"), || {
        engine_fast(&pm, &asp, dst, src, black_box(len));
    });
    let paged = bench.run_and_print(&format!("{name}/paged"), || {
        engine_paged(&pm, &asp, dst, src, black_box(len));
    });
    // Sanity: both paths must have produced identical destination bytes.
    let mut a = vec![0u8; len];
    let mut b = vec![0u8; len];
    asp.read_bytes(src, &mut a).unwrap();
    asp.read_bytes(dst, &mut b).unwrap();
    assert_eq!(a, b, "{name}: dst must equal src after the copy");

    LayoutResult {
        name,
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// Overlapping in-region move: `memmove` semantics through the arena
/// (single `copy_within`) vs. page-tiled moves (`copy_run_paged`).
fn run_overlapping(bench: &Bench, pages: usize) -> LayoutResult {
    let pm = Rc::new(PhysMem::new(pages + 64, AllocPolicy::Sequential));
    let base = pm.alloc_contiguous(pages).unwrap();
    let shift = 1500usize; // non-page-aligned, heavily overlapping
    let len = (pages - 1) * PAGE_SIZE;
    let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
    pm.write_run(base, 0, &data);

    let fast = bench.run_and_print("overlap-move/fast", || {
        pm.copy_run(base, shift, base, 0, black_box(len));
    });
    let paged = bench.run_and_print("overlap-move/paged", || {
        pm.copy_run_paged(base, shift, base, 0, black_box(len));
    });
    // Sanity on a fresh buffer: a single shifted move preserves the data.
    pm.write_run(base, 0, &data);
    pm.copy_run(base, shift, base, 0, len);
    let mut got = vec![0u8; len];
    pm.read_run(base, shift, &mut got);
    assert_eq!(got, data, "overlapping move must have memmove semantics");

    LayoutResult {
        name: "overlap-move",
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// One primitive and the bar on its cost over the floor.
struct ExecCase {
    name: &'static str,
    /// `over_floor` at or below this passes. For the evented cases, set
    /// between what this bench read on the day for the executor before
    /// them (a waker allocated per poll, a locked ready queue, cores as
    /// tasks: 8.8, 25, 17 and 16 floors for a sleep, a free-core advance,
    /// a contended one and a notify round trip) and for the one after (3.0,
    /// 4.7, 3.0 and 5.6). The in-place cases' bars are their own.
    bar: f64,
    /// Host ns per event over this many events.
    run: fn(u64) -> f64,
}

/// A sleep completed in place: between what its evented twin read on the
/// day the path went in (3.15 floors) and what it read itself (1.05).
const SLEEP_IN_PLACE_BAR: f64 = 2.0;
/// An advance served in place: between what its evented twin read on the
/// day the path went in (4.27 floors) and what it read itself (0.56).
const ADVANCE_IN_PLACE_BAR: f64 = 2.0;

const EXEC_CASES: [ExecCase; 6] = [
    ExecCase {
        name: "sleep",
        bar: SLEEP_IN_PLACE_BAR,
        run: |n| sleep_ns(n, 1),
    },
    ExecCase {
        name: "sleep_evented",
        bar: 5.0,
        run: |n| sleep_ns(n, 2),
    },
    ExecCase {
        name: "advance",
        bar: ADVANCE_IN_PLACE_BAR,
        run: |n| advance_ns(n, 1, 1),
    },
    ExecCase {
        name: "advance_evented",
        bar: 10.0,
        run: |n| advance_ns(n, 2, 2),
    },
    ExecCase {
        name: "advance_contended",
        bar: 8.0,
        run: |n| advance_ns(n, 2, 1),
    },
    ExecCase {
        name: "notify_round_trip",
        bar: 10.0,
        run: notify_ns,
    },
];

/// The task of the `progress` group: 256 segments, 64 pages.
const PROGRESS_LEN: usize = 256 * 1024;

/// What one landed page costs, and one poll of the descriptor it lands
/// in. Bars between what this bench read for the code before (a `covers`
/// search per touched segment, `Vec::splice`, one asserted `is_marked`
/// per polled segment: 5.0 and 38 floors) and for this one (1.9 and 0.44).
const PROGRESS_CASES: [ExecCase; 2] = [
    ExecCase {
        name: "landing_4k",
        bar: 3.5,
        run: landing_ns,
    },
    ExecCase {
        name: "range_ready_256",
        bar: 4.0,
        run: poll_ns,
    },
];

/// Host ns per landing: the task's 64 pages land alternately from the
/// front (the CPU's share) and from the back (the DMA's), `events`
/// landings in all.
fn landing_ns(events: u64) -> f64 {
    let pages = PROGRESS_LEN / PAGE_SIZE;
    let d = SegDescriptor::new(PROGRESS_LEN, DEFAULT_SEGMENT);
    let t0 = Instant::now();
    for _ in 0..(events as usize).div_ceil(pages) {
        d.reset();
        let mut copied = IntervalSet::new();
        let mut inflight = IntervalSet::from_range(0, PROGRESS_LEN);
        for i in 0..pages {
            let page = if i % 2 == 0 { i / 2 } else { pages - 1 - i / 2 };
            let (off, end) = black_box((page * PAGE_SIZE, (page + 1) * PAGE_SIZE));
            copied.insert(off, end);
            inflight.remove(off, end);
            d.mark_landed(&copied, off, end);
        }
        assert!(d.all_ready() && inflight.is_empty());
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// Host ns per `range_ready` over the whole descriptor, all segments but
/// the last marked.
fn poll_ns(events: u64) -> f64 {
    let d = SegDescriptor::new(PROGRESS_LEN, DEFAULT_SEGMENT);
    d.mark_range(0, d.num_segments() - 2);
    let t0 = Instant::now();
    for _ in 0..events {
        assert!(!black_box(&d).range_ready(0, black_box(PROGRESS_LEN)));
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// A case's host ns per event and that over the floor, each the median
/// over the rounds.
struct ExecRow {
    case: &'static ExecCase,
    ns: f64,
    over_floor: f64,
}

/// Host ns per iteration of `events` iterations of the floor: the heap
/// and queue traffic of one timer event with nothing else around it.
fn floor_ns(events: u64) -> f64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64, u64)>> = BinaryHeap::new();
    let mut ready: VecDeque<usize> = VecDeque::new();
    let t0 = Instant::now();
    for i in 0..events {
        heap.push(Reverse(black_box((i, i, 0, 0))));
        let Reverse((_, id, _, _)) = heap.pop().expect("just pushed");
        ready.push_back(black_box(id as usize));
        black_box(ready.pop_front());
    }
    t0.elapsed().as_nanos() as f64 / events as f64
}

/// Runs `build`'s simulation to its end; host ns per event of `events`,
/// and how many waits completed in place.
fn sim_ns(events: u64, build: impl FnOnce(&mut Sim)) -> (f64, u64) {
    let mut sim = Sim::new();
    build(&mut sim);
    let t0 = Instant::now();
    sim.run();
    let ns = t0.elapsed().as_nanos() as f64 / events as f64;
    (ns, sim.stats().in_place)
}

/// `sleepers` tasks, `events` 1 ns sleeps in all. One alone completes
/// every sleep in place; two tie each other's timers, so every sleep
/// takes its timer and its poll.
fn sleep_ns(events: u64, sleepers: u64) -> f64 {
    let (ns, in_place) = sim_ns(events, |sim| {
        for _ in 0..sleepers {
            let h = sim.handle();
            sim.spawn("sleeper", async move {
                for _ in 0..events / sleepers {
                    h.sleep(Nanos(1)).await;
                }
            });
        }
    });
    let want = if sleepers == 1 { events } else { 0 };
    assert_eq!(in_place, want, "{sleepers} sleepers: sleeps in place");
    ns
}

/// `tasks` threads on `cores` cores (round-robin), `events` sub-quantum
/// advances in all. One thread alone is served in place; two on two
/// cores tie each other's slice timers, so every advance is filed; two on
/// one core take turns.
fn advance_ns(events: u64, tasks: u64, cores: usize) -> f64 {
    let (ns, in_place) = sim_ns(events, |sim| {
        let machine = Machine::new(&sim.handle(), cores);
        for t in 0..tasks {
            let core = machine.core(t as usize % cores);
            sim.spawn("worker", async move {
                for _ in 0..events / tasks {
                    core.advance(Nanos(100)).await;
                }
            });
        }
    });
    if tasks as usize == cores {
        let want = if tasks == 1 { events } else { 0 };
        assert_eq!(
            in_place, want,
            "{tasks} threads, one a core: served in place"
        );
    }
    ns
}

/// Two tasks hand a count back and forth through two `Notify` cells; one
/// event is one round trip (two notifies, two waits).
fn notify_ns(events: u64) -> f64 {
    sim_ns(events, |sim| {
        let ping = Rc::new((Notify::new(), Cell::new(0u64)));
        let pong = Rc::new((Notify::new(), Cell::new(0u64)));
        let (ping2, pong2) = (Rc::clone(&ping), Rc::clone(&pong));
        sim.spawn("caller", async move {
            for i in 1..=events {
                ping.1.set(i);
                ping.0.notify_one();
                while pong.1.get() < i {
                    pong.0.notified().await;
                }
            }
        });
        sim.spawn("echo", async move {
            for i in 1..=events {
                while ping2.1.get() < i {
                    ping2.0.notified().await;
                }
                pong2.1.set(i);
                pong2.0.notify_one();
            }
        });
    })
    .0
}

/// A group of cases: `rounds` rounds, each timing the floor and the
/// cases back to back so that a swing of the host lands on a round's
/// numerator and denominator alike.
fn run_cases(cases: &'static [ExecCase], rounds: usize, events: u64) -> (f64, Vec<ExecRow>) {
    let mut floors = Vec::with_capacity(rounds);
    let mut ns = vec![Vec::with_capacity(rounds); cases.len()];
    for _ in 0..rounds {
        floors.push(floor_ns(events));
        for (case, ns) in cases.iter().zip(&mut ns) {
            ns.push((case.run)(events));
        }
    }
    let rows = cases
        .iter()
        .zip(&ns)
        .map(|(case, ns)| {
            let over: Vec<f64> = ns.iter().zip(&floors).map(|(t, f)| t / f).collect();
            ExecRow {
                case,
                ns: median(ns),
                over_floor: median(&over),
            }
        })
        .collect();
    (median(&floors), rows)
}

fn print_cases(floor: f64, rows: &[ExecRow]) {
    println!("  floor (heap push+pop of 32 B, queue push+pop): {floor:.1} ns");
    for r in rows {
        println!(
            "  {:<18} {:>7.1} ns  = {:>5.2}x floor  (bar {}x)",
            r.case.name, r.ns, r.over_floor, r.case.bar
        );
    }
}

fn cases_json(rows: &[ExecRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("name", Json::Str(r.case.name.into())),
                    ("ns", Json::Num(r.ns)),
                    ("over_floor", Json::Num(r.over_floor)),
                ])
            })
            .collect(),
    )
}

fn main() {
    let smoke = std::env::var("HOSTPERF_SMOKE").is_ok_and(|v| v == "1");
    let bench = if smoke {
        Bench::fast()
    } else {
        Bench::default()
    };
    // Background mapping depth: 128 MB full / 8 MB smoke of warm pages.
    let depth = if smoke { 2048 } else { 32768 };
    let t0 = Instant::now();

    section("fig_hostperf: host copy-engine throughput (wall clock)");
    println!(
        "  mode: {}, page-table depth: {depth} pages",
        if smoke { "smoke" } else { "full" }
    );
    let results = vec![
        run_translate(&bench, depth, if smoke { 64 } else { 256 }),
        run_gather(&bench, "gather-contig", AllocPolicy::Sequential, depth, 4),
        run_gather(&bench, "gather-scattered", AllocPolicy::Scattered, depth, 4),
        run_overlapping(&bench, if smoke { 16 } else { 1024 }),
    ];
    section("executor: host cost of one simulated event");
    let (rounds, events) = if smoke { (3, 20_000) } else { (15, 400_000) };
    let (floor, executor) = run_cases(&EXEC_CASES, rounds, events);
    print_cases(floor, &executor);
    section("progress: host cost of one landed page and of one csync poll");
    let (progress_floor, progress) = run_cases(&PROGRESS_CASES, rounds, events);
    print_cases(progress_floor, &progress);
    let suite_ms = t0.elapsed().as_secs_f64() * 1e3;

    section("summary (GB/s, higher is better)");
    for r in &results {
        println!(
            "  {:<17} {:>6}  fast={:>7.2} GB/s  paged={:>7.2} GB/s  speedup={:.2}x",
            r.name,
            kb(r.bytes),
            r.fast_gbps,
            r.paged_gbps,
            r.speedup()
        );
    }

    let json = Json::obj([
        ("bench", Json::Str("fig_hostperf".into())),
        ("smoke", Json::Bool(smoke)),
        ("depth_pages", Json::Int(depth as u64)),
        ("suite_ms", Json::Num(suite_ms)),
        (
            "layouts",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj([
                            ("name", Json::Str(r.name.into())),
                            ("bytes", Json::Int(r.bytes as u64)),
                            ("fast_gbps", Json::Num(r.fast_gbps)),
                            ("paged_gbps", Json::Num(r.paged_gbps)),
                            ("speedup", Json::Num(r.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("executor_floor_ns", Json::Num(floor)),
        ("executor", cases_json(&executor)),
        ("progress_floor_ns", Json::Num(progress_floor)),
        ("progress", cases_json(&progress)),
        (
            "summary",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        // overlap-move is memmove-bound either way: parity
                        // is the honest expectation, so its bar is only a
                        // no-regression check. The translate/gather paths
                        // must actually win.
                        let bar = if r.name == "overlap-move" { 0.8 } else { 1.0 };
                        Json::summary(
                            &format!("speedup_{}", r.name),
                            "speedup_min",
                            bar,
                            r.speedup(),
                        )
                    })
                    .chain(
                        [("exec", &executor), ("progress", &progress)]
                            .into_iter()
                            .flat_map(|(group, rows)| {
                                rows.iter().map(move |r| {
                                    Json::summary(
                                        &format!("{group}_{}", r.case.name),
                                        "over_floor_max",
                                        r.case.bar,
                                        r.over_floor,
                                    )
                                })
                            }),
                    )
                    .collect(),
            ),
        ),
    ]);
    // The bench binary runs with the package root as cwd; anchor the
    // output at the repo root so every BENCH_*.json lands in one place.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hostperf.json");
    json.write_file(path).expect("write BENCH_hostperf.json");
    println!("\n  wrote {path} (suite {suite_ms:.0} ms)");
}
