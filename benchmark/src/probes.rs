//! Host-clock micro-probes of single layers, called directly with inputs
//! the size of the workload's mean op. They price the primitives the
//! per-layer counters count.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use copier_core::{CopyTask, QueueEntry, Ring, SegDescriptor};
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, PAGE_SIZE};
use copier_sim::{Nanos, Sim};

pub struct Probes {
    /// `sim`: host ns per `sleep` wake-up through the executor.
    pub event_ns: f64,
    /// `core`: host ns per `Ring::push` + `Ring::pop` of a copy task.
    pub ring_push_pop_ns: f64,
    /// `mem`: host GB/s of `PhysMem::copy_run` at the mean op length.
    pub copy_run_gbps: f64,
    /// `mem`: host ns per page of `AddressSpace::resolve_range`.
    pub resolve_range_ns_per_page: f64,
}

const EVENTS: u64 = 1_000_000;
const RING_OPS: usize = 1 << 20;
/// Bytes each of the two memory probes moves or resolves in total.
const MEM_PROBE_BYTES: usize = 256 << 20;

/// `div` shrinks every probe's iteration count (the smoke run's 1/50).
pub fn run(mean_len: usize, div: u64) -> Probes {
    let events = EVENTS / div;
    let ring_ops = RING_OPS / div as usize;
    let pages = mean_len.div_ceil(PAGE_SIZE);
    let pm = Rc::new(PhysMem::new(4 * pages + 16, AllocPolicy::Sequential));
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let va = space.mmap(mean_len, Prot::RW, true).expect("probe buffer");

    let event_ns = {
        let mut sim = Sim::new();
        let h = sim.handle();
        sim.spawn("ticker", async move {
            for _ in 0..events {
                h.sleep(Nanos(1)).await;
            }
        });
        let t0 = Instant::now();
        sim.run();
        t0.elapsed().as_nanos() as f64 / events as f64
    };

    let ring_push_pop_ns = {
        let ring: Ring<QueueEntry> = Ring::new(1024);
        let task = CopyTask {
            dst_space: Rc::clone(&space),
            dst: va,
            src_space: Rc::clone(&space),
            src: va,
            len: mean_len,
            seg: 1024,
            descr: Rc::new(SegDescriptor::new(mean_len, 1024)),
            func: None,
            lazy: false,
            verify: false,
        };
        let t0 = Instant::now();
        for _ in 0..ring_ops / 512 {
            for _ in 0..512 {
                let _ = black_box(ring.push(QueueEntry::Copy(task.clone())));
            }
            while let Some(e) = ring.pop() {
                black_box(e);
            }
        }
        t0.elapsed().as_nanos() as f64 / (ring_ops / 512 * 512) as f64
    };

    let iters = (MEM_PROBE_BYTES / div as usize / mean_len).clamp(64, 1 << 20);
    let copy_run_gbps = {
        let src = pm.alloc_contiguous(pages).expect("probe src frames");
        let dst = pm.alloc_contiguous(pages).expect("probe dst frames");
        let t0 = Instant::now();
        for _ in 0..iters {
            pm.copy_run(black_box(dst), 0, black_box(src), 0, mean_len);
        }
        (iters * mean_len) as f64 / t0.elapsed().as_nanos().max(1) as f64
    };

    let resolve_range_ns_per_page = {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(
                space
                    .resolve_range(black_box(va), mean_len, false)
                    .expect("mapped"),
            );
        }
        t0.elapsed().as_nanos() as f64 / (iters * pages) as f64
    };

    Probes {
        event_ns,
        ring_push_pop_ns,
        copy_run_gbps,
        resolve_range_ns_per_page,
    }
}

/// Host seconds [`calibration_s`] takes on this sandbox when nothing
/// else competes for it: the speed host times are reported at.
pub const CALIBRATION_REF_S: f64 = 0.15;

/// A fixed piece of work that touches no crate of the repo: fresh pages, a
/// large memcpy, ordered-map inserts and lookups, and small-allocation
/// churn, which is what the simulator's host time is made of. The runner
/// times it around every child and scales the child's host times by
/// `CALIBRATION_REF_S / calibration_s`, because this sandbox's speed
/// drifts by up to 2x within minutes (README, "Calibrated host seconds").
/// `div` shortens it for the smoke run.
pub fn calibration_s(div: u64) -> f64 {
    use std::collections::BTreeMap;
    const BUF: usize = 32 << 20;
    let n = 200_000 / div;
    let t0 = Instant::now();
    let src = vec![1u8; BUF / div as usize];
    let mut dst = vec![0u8; BUF / div as usize];
    for _ in 0..4 {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    }
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        map.insert(x >> 20, i);
    }
    let mut hits = 0u64;
    for k in 0..n {
        hits += map.range(k << 24..).next().map_or(0, |(_, v)| *v);
    }
    black_box(hits);
    let boxes: Vec<Box<[u64; 8]>> = (0..n).map(|i| Box::new([i; 8])).collect();
    black_box(&boxes);
    drop(boxes);
    t0.elapsed().as_secs_f64()
}
