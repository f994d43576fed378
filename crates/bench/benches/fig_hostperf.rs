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
//! The `digest` group times the guards' digest kernel
//! (`PhysMem::extent_digest` at full coverage: the four-lane word fold
//! every extent and frame digest runs) against a bench-local serial
//! reference (the one-dependent-multiply-per-word fold it replaced), on
//! a hot 4 KiB page and on a 1,506-byte extent (the mean bytes an
//! admission's journal digest folded on `guarded_small`). The bar is on
//! the page's speed-up.
//!
//! The `copy_engine` group sources the dispatcher's two deferral
//! thresholds (`copier_mem::DEFER_MIN_BATCH` for a cold engine,
//! `DEFER_WARM_MIN_BATCH` for an awake one; DESIGN.md §12): what queueing
//! one copy for the host copy engine costs the simulation thread, one
//! fence round trip (a deferred 64-byte copy, then a read of its
//! destination) with the worker awake and with it parked, and a 256 KiB
//! batch of scattered 4 KiB pages copied inline and deferred, each page
//! beside a fixed bookkeeping loop that stands for the dispatcher's own
//! work. One bar is on the deferred/inline batch ratio. The two
//! break-even rows divide a round trip — parked for a cold batch, awake
//! for a warm one — by the saving per page, in bytes, and each threshold
//! is gated to sit at or above its break-even.
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
use copier_mem::Extent;
use copier_mem::{
    frames_of, AddressSpace, AllocPolicy, FrameId, PhysMem, Prot, VirtAddr, PAGE_SIZE,
};
use copier_sim::wire::{fnv_bytes, FNV_OFFSET};
use copier_sim::{Machine, Nanos, Notify, Sim};
use copier_testkit::{black_box, median, Bench, PairedRuns};

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

/// The per-page move the arena replaced: [`PhysMem::copy_run`] called
/// once per page-bounded chunk, like the old cell-per-frame backing, with
/// memmove semantics kept by walking the chunks backwards when the
/// destination overlaps above the source (so no source byte is clobbered
/// before it is copied).
fn move_paged(
    pm: &PhysMem,
    dst: FrameId,
    dst_off: usize,
    src: FrameId,
    src_off: usize,
    len: usize,
) {
    let chunk = |d_abs: usize, s_abs: usize, take: usize| {
        pm.copy_run(
            FrameId(dst.0 + (d_abs / PAGE_SIZE) as u32),
            d_abs % PAGE_SIZE,
            FrameId(src.0 + (s_abs / PAGE_SIZE) as u32),
            s_abs % PAGE_SIZE,
            take,
        );
    };
    let s0 = src.0 as usize * PAGE_SIZE + src_off;
    let d0 = dst.0 as usize * PAGE_SIZE + dst_off;
    if d0 <= s0 {
        let mut done = 0usize;
        while done < len {
            let (s_abs, d_abs) = (src_off + done, dst_off + done);
            let take = (len - done)
                .min(PAGE_SIZE - s_abs % PAGE_SIZE)
                .min(PAGE_SIZE - d_abs % PAGE_SIZE);
            chunk(d_abs, s_abs, take);
            done += take;
        }
    } else {
        // The last forward chunk ends at `rem` and starts at the nearest
        // source or destination page boundary below it.
        let mut rem = len;
        while rem > 0 {
            let take = rem
                .min((src_off + rem - 1) % PAGE_SIZE + 1)
                .min((dst_off + rem - 1) % PAGE_SIZE + 1);
            rem -= take;
            chunk(dst_off + rem, src_off + rem, take);
        }
    }
}

/// Overlapping in-region move: `memmove` semantics through the arena
/// (single `copy_within`) vs. page-tiled moves ([`move_paged`]).
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
        move_paged(&pm, base, shift, base, 0, black_box(len));
    });
    // Sanity on a fresh buffer: a single shifted move preserves the data,
    // on both paths and in both directions.
    let mut got = vec![0u8; len];
    for (name, mv) in [
        (
            "fast",
            PhysMem::copy_run as fn(&PhysMem, FrameId, usize, FrameId, usize, usize),
        ),
        ("paged", move_paged),
    ] {
        for (dst_off, src_off) in [(shift, 0), (0, shift)] {
            pm.write_run(base, src_off, &data);
            mv(&pm, base, dst_off, base, src_off, len);
            pm.read_run(base, dst_off, &mut got);
            assert_eq!(got, data, "overlap-move/{name} must have memmove semantics");
        }
    }

    LayoutResult {
        name: "overlap-move",
        bytes: len,
        fast_gbps: gbps(len, fast.median_ns()),
        paged_gbps: gbps(len, paged.median_ns()),
    }
}

/// One digest case: the lane kernel against the serial reference over
/// the same bytes.
struct DigestRow {
    name: &'static str,
    bytes: usize,
    lane_ns: u64,
    serial_ns: u64,
}

impl DigestRow {
    fn speedup(&self) -> f64 {
        self.serial_ns as f64 / self.lane_ns.max(1) as f64
    }
}

/// The page's bar: a standalone microbenchmark of the two folds read
/// 3.3x on the day the lane kernel became the only one.
const DIGEST_PAGE_BAR: f64 = 2.5;

/// The serial word fold the lane kernel replaced: FNV-1a over
/// little-endian words, each multiply waiting on the one before, then
/// the remainder bytes. Bench-local: the crates keep only the lane fold.
fn serial_fold(prime: u64, h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(h, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(prime)
    });
    words
        .remainder()
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(prime))
}

/// Times one extent of a hot frame run both ways.
fn run_digest(bench: &Bench, name: &'static str, off: usize, len: usize) -> DigestRow {
    let pm = PhysMem::new(4, AllocPolicy::Sequential);
    let frame = pm.alloc_contiguous(2).unwrap();
    let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
    pm.write_run(frame, 0, &data);
    let ext = Extent { frame, off, len };
    let bytes = &data[off..off + len];
    // The prime is byte-FNV of a lone 1 from 0.
    let prime = fnv_bytes(0, &[1]);
    let lane = bench.run_and_print(&format!("{name}/lane"), || {
        black_box(pm.extent_digest(black_box(ext), true));
    });
    let serial = bench.run_and_print(&format!("{name}/serial"), || {
        black_box(serial_fold(prime, FNV_OFFSET, black_box(bytes)));
    });
    DigestRow {
        name,
        bytes: len,
        lane_ns: lane.median_ns(),
        serial_ns: serial.median_ns(),
    }
}

/// The deferred/inline ratio of the 256 KiB batch must stay at or below
/// this: it read 0.61–0.64 when the engine went in, on a 2-vCPU Xeon
/// KVM guest.
const COPY_ENGINE_BATCH_BAR: f64 = 0.85;
/// Pages of the batch rows: 256 KiB, the copy slice a bulk round serves.
const BATCH_PAGES: usize = 64;
/// Batches the rows rotate over, so a batch's pages come from a 64 MiB
/// working set, as `bulk_stream`'s buffers (up to 40 MiB, plus what
/// the rest of the process touches between two uses) do.
const BATCH_SETS: usize = 128;
/// Batches per timed run of the batch rows.
const BATCHES_PER_RUN: usize = 16;
/// Dependent multiply steps of the per-page bookkeeping loop: about what
/// `bulk_stream` spends per landed page besides the copy.
const BOOKKEEPING_STEPS: u64 = 512;

/// What the `copy_engine` group measured, in host ns.
struct CopyEngineRows {
    submit_ns: u64,
    fence_awake_ns: u64,
    fence_parked_ns: u64,
    batch_inline_ns: u64,
    batch_deferred_ns: u64,
    /// Median over interleaved pairs of the deferred run's time over the
    /// inline one's.
    batch_ratio: f64,
    /// The pool's counters after the batch rows.
    counters: copier_mem::CopyEngineStats,
}

impl CopyEngineRows {
    /// The batch size, in KiB, at which deferring pays for a fixed cost
    /// of `round_trip_ns`: that over the saving per page.
    fn breakeven_at(&self, round_trip_ns: u64) -> f64 {
        let saved = self.batch_inline_ns as f64 - self.batch_deferred_ns as f64;
        let per_page = saved.max(1.0) / BATCH_PAGES as f64;
        round_trip_ns as f64 / per_page * (PAGE_SIZE / 1024) as f64
    }

    /// The break-even of a cold batch, whose first fence wakes the worker.
    fn breakeven_kib(&self) -> f64 {
        self.breakeven_at(self.fence_parked_ns)
    }

    /// The break-even of a batch queued while the worker is awake.
    fn breakeven_warm_kib(&self) -> f64 {
        self.breakeven_at(self.fence_awake_ns)
    }
}

/// The cold and the warm deferral thresholds, in KiB.
const COLD_KIB: usize = copier_mem::DEFER_MIN_BATCH / 1024;
const WARM_KIB: usize = copier_mem::DEFER_WARM_MIN_BATCH / 1024;

/// The fixed per-page work beside each copy of a batch row: a chain of
/// dependent multiplies the optimizer cannot fold.
fn bookkeeping(seed: u64) -> u64 {
    (0..BOOKKEEPING_STEPS).fold(black_box(seed), |h, i| {
        (h ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(7)
    })
}

/// Times the host copy engine: submission, fence round trips, and a
/// scattered batch inline against deferred.
fn run_copy_engine(bench: &Bench, parked_reps: usize, batch_reps: usize) -> CopyEngineRows {
    // Scattered frames: every page of a batch is its own run, as on a
    // long-running system.
    let pages = BATCH_SETS * BATCH_PAGES;
    let pm = PhysMem::new(2 * pages + 16, AllocPolicy::Scattered);
    let src: Vec<FrameId> = (0..pages).map(|_| pm.alloc().unwrap()).collect();
    let dst: Vec<FrameId> = (0..pages).map(|_| pm.alloc().unwrap()).collect();
    for (i, &f) in src.iter().enumerate() {
        pm.write(f, 0, &[(i % 251) as u8; PAGE_SIZE]);
    }
    let mut byte = [0u8; 1];
    // Start the worker before anything is timed.
    pm.defer_copy_run(dst[0], 0, src[0], 0, 64);
    pm.read(dst[0], 0, &mut byte);
    let mut at = 0usize;
    let submit = bench.run_and_print("copy_engine/submit_64B", || {
        at = (at + 64) % PAGE_SIZE;
        pm.defer_copy_run(dst[0], at, src[0], at, 64);
    });
    let fence_awake = bench.run_and_print("copy_engine/fence_awake", || {
        pm.defer_copy_run(dst[1], 0, src[1], 0, 64);
        pm.read(dst[1], 0, &mut byte);
    });
    // Parked: the worker has sat idle past its spin before each trip.
    let trips: Vec<f64> = (0..parked_reps)
        .map(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let t = Instant::now();
            pm.defer_copy_run(dst[2], 0, src[2], 0, 64);
            pm.read(dst[2], 0, &mut byte);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let fence_parked_ns = median(&trips) as u64;
    println!("  copy_engine/fence_parked     median={fence_parked_ns:>8}ns  (n={parked_reps})");
    let mut set = 0usize;
    let batch = |deferred: bool| {
        set = (set + 1) % BATCH_SETS;
        let pages = set * BATCH_PAGES..(set + 1) * BATCH_PAGES;
        let mut h = 0u64;
        for (i, (&d, &s)) in dst[pages.clone()].iter().zip(&src[pages]).enumerate() {
            if deferred {
                pm.defer_copy_run(d, 0, s, 0, PAGE_SIZE);
            } else {
                pm.copy_run(d, 0, s, 0, PAGE_SIZE);
            }
            h ^= bookkeeping(i as u64);
        }
        // The batch is done when its last page reads back.
        let last = dst[(set + 1) * BATCH_PAGES - 1];
        pm.read(last, PAGE_SIZE - 1, &mut [0u8]);
        black_box(h);
    };
    // Interleaved pairs: this host's speed drifts within a run.
    let batch = std::cell::RefCell::new(batch);
    let runs = |deferred: bool| {
        for _ in 0..BATCHES_PER_RUN {
            batch.borrow_mut()(deferred);
        }
    };
    let pairs = PairedRuns::measure(batch_reps, || runs(false), || runs(true));
    let per_batch = |ms: &[f64]| (median(ms) * 1e6 / BATCHES_PER_RUN as f64) as u64;
    let (batch_inline_ns, batch_deferred_ns) = (per_batch(&pairs.a_ms), per_batch(&pairs.b_ms));
    println!(
        "  copy_engine/batch_inline     median={batch_inline_ns:>8}ns\n  \
         copy_engine/batch_deferred   median={batch_deferred_ns:>8}ns  (n={batch_reps} pairs)"
    );
    let counters = pm.copy_engine_stats();
    println!(
        "  copy_engine self-drains: {} ({} cold, {} racing an awake worker)",
        counters.self_drains,
        counters.self_drains - counters.racing_drains,
        counters.racing_drains
    );
    CopyEngineRows {
        submit_ns: submit.median_ns(),
        fence_awake_ns: fence_awake.median_ns(),
        fence_parked_ns,
        batch_inline_ns,
        batch_deferred_ns,
        batch_ratio: 1.0 + pairs.overhead(),
        counters,
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

/// The `copy_engine` rows, the break-even and the pool's counters.
fn copy_engine_json(e: &CopyEngineRows) -> Json {
    let row =
        |name: &str, ns: u64| Json::obj([("name", Json::Str(name.into())), ("ns", Json::Int(ns))]);
    let c = e.counters;
    Json::obj([
        (
            "rows",
            Json::Arr(vec![
                row("submit", e.submit_ns),
                row("fence_awake", e.fence_awake_ns),
                row("fence_parked", e.fence_parked_ns),
                row("batch_inline", e.batch_inline_ns),
                row("batch_deferred", e.batch_deferred_ns),
            ]),
        ),
        ("batch_bytes", Json::Int((BATCH_PAGES * PAGE_SIZE) as u64)),
        ("batch_ratio", Json::Num(e.batch_ratio)),
        ("breakeven_kib", Json::Num(e.breakeven_kib())),
        ("breakeven_warm_kib", Json::Num(e.breakeven_warm_kib())),
        ("threshold_kib", Json::Int(COLD_KIB as u64)),
        ("threshold_warm_kib", Json::Int(WARM_KIB as u64)),
        (
            "counters",
            Json::obj([
                ("deferred_copies", Json::Int(c.deferred_copies)),
                ("deferred_bytes", Json::Int(c.deferred_bytes)),
                ("fences_waited", Json::Int(c.fences_waited)),
                ("self_drains", Json::Int(c.self_drains)),
                ("racing_drains", Json::Int(c.racing_drains)),
                ("wakeups", Json::Int(c.wakeups)),
            ]),
        ),
    ])
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
    section("digest: lane kernel vs. serial word fold");
    let digests = [
        run_digest(&bench, "digest-page", 0, PAGE_SIZE),
        run_digest(&bench, "digest-extent", 100, 1506),
    ];
    for d in &digests {
        println!(
            "  {:<14} {:>5} B  lane={:>5} ns  serial={:>5} ns  speedup={:.2}x",
            d.name,
            d.bytes,
            d.lane_ns,
            d.serial_ns,
            d.speedup()
        );
    }
    section("copy_engine: the host copy engine's costs");
    let engine = if smoke {
        run_copy_engine(&bench, 5, 3)
    } else {
        run_copy_engine(&bench, 200, 41)
    };
    println!(
        "  deferred/inline batch = {:.2}, break-even cold = {:.1} KiB (threshold {} KiB), \
         warm = {:.1} KiB (threshold {} KiB)",
        engine.batch_ratio,
        engine.breakeven_kib(),
        COLD_KIB,
        engine.breakeven_warm_kib(),
        WARM_KIB
    );
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
        (
            "digest",
            Json::Arr(
                digests
                    .iter()
                    .map(|d| {
                        Json::obj([
                            ("name", Json::Str(d.name.into())),
                            ("bytes", Json::Int(d.bytes as u64)),
                            ("lane_ns", Json::Int(d.lane_ns)),
                            ("serial_ns", Json::Int(d.serial_ns)),
                            ("speedup", Json::Num(d.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("copy_engine", copy_engine_json(&engine)),
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
                    .chain([
                        Json::summary(
                            "speedup_digest-page",
                            "speedup_min",
                            DIGEST_PAGE_BAR,
                            digests[0].speedup(),
                        ),
                        Json::summary(
                            "copy_engine_batch",
                            "ratio_max",
                            COPY_ENGINE_BATCH_BAR,
                            engine.batch_ratio,
                        ),
                        // Each threshold at or above its break-even.
                        Json::summary(
                            "defer_threshold_cold",
                            "ratio_min",
                            1.0,
                            COLD_KIB as f64 / engine.breakeven_kib(),
                        ),
                        Json::summary(
                            "defer_threshold_warm",
                            "ratio_min",
                            1.0,
                            WARM_KIB as f64 / engine.breakeven_warm_kib(),
                        ),
                    ])
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
