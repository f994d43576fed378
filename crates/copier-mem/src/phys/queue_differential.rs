//! The copy queue against a plain synchronous model: random scripts of
//! deferred and inline copies — overlapping, self-overlapping, and chains
//! where one copy's destination is the next one's source — mixed with
//! reads, writes, page folds, extent digests, pool digests and
//! allocation, run on a pool with a ring of 2–4 slots and a small byte
//! bound, and on a `Vec<u8>` where every copy is a `copy_within`. Every
//! read and every digest must agree.
//!
//! The tiny ring makes full-ring waits common, and a worker that parks
//! as soon as it is idle makes a fence find the queue unattended, so the
//! waiting thread runs it itself; the test checks that both paths ran.
//! Mutants it kills, each seen failing in a scratch copy: a read with no
//! fence (stale destination bytes), a write that skips the
//! source-overlap check (a queued copy reads the new bytes), the worker
//! running entries out of order (a chain lands its older copy last), and
//! `Drop` freeing the arena before the join (the worker finds the arena
//! gone: `drop_joins_the_worker_before_freeing`).

use std::cell::Cell;
use std::time::Duration;

use copier_testkit::{check_with, prop_assert_eq, shrink_vec, Config, TestRng};

use super::*;

const POOL: usize = 12;

/// One step. Frames are named by rank among the allocated ones and
/// lengths are clamped to the allocated run when the step executes, so
/// every script is legal however it is shrunk.
#[derive(Debug, Clone)]
enum Op {
    Alloc,
    AllocContiguous(usize),
    Free(usize),
    Write {
        at: (usize, usize),
        len: usize,
        fill: u8,
    },
    /// `copy_run` or `defer_copy_run`, each side `(rank, offset)`.
    Copy {
        dst: (usize, usize),
        src: (usize, usize),
        len: usize,
        deferred: bool,
    },
    Read {
        at: (usize, usize),
        len: usize,
    },
    FoldPage {
        at: (usize, usize),
        len: usize,
    },
    ExtentDigest {
        at: (usize, usize),
        len: usize,
        full: bool,
    },
    Digest,
}

/// A script and the ring it runs on.
#[derive(Debug, Clone)]
struct Case {
    slots: usize,
    max_bytes: usize,
    /// Whether the worker parks as soon as it is idle.
    eager_park: bool,
    ops: Vec<Op>,
}

fn gen_at(rng: &mut TestRng) -> (usize, usize) {
    let off = if rng.gen_bool(0.4) {
        // Near a page end, where a run crosses into the next frame.
        PAGE_SIZE - 1 - rng.range_usize(0, 16)
    } else {
        rng.range_usize(0, PAGE_SIZE)
    };
    (rng.range_usize(0, POOL), off)
}

fn gen_len(rng: &mut TestRng) -> usize {
    if rng.gen_bool(0.4) {
        rng.range_usize(1, 3 * PAGE_SIZE)
    } else {
        rng.range_usize(1, 64)
    }
}

fn gen_case(rng: &mut TestRng) -> Case {
    let mut ops = vec![Op::AllocContiguous(POOL / 2)];
    // The last copy's destination: the next copy often reads it.
    let mut last_dst = (0, 0);
    for _ in 0..rng.range_usize(1, 120) {
        let op = match rng.gen_range(16) {
            0 => Op::Alloc,
            1 => Op::AllocContiguous(rng.range_usize(2, 5)),
            2 => Op::Free(rng.range_usize(0, POOL)),
            3 | 4 => Op::Write {
                at: gen_at(rng),
                len: gen_len(rng),
                fill: rng.next_u64() as u8,
            },
            5..=9 => {
                let dst = gen_at(rng);
                let src = match rng.gen_range(3) {
                    // A chain: this copy reads what the last one wrote.
                    0 => last_dst,
                    // Self-overlap: the same frame, a few bytes away.
                    1 => (dst.0, dst.1.saturating_sub(rng.range_usize(0, 64))),
                    _ => gen_at(rng),
                };
                last_dst = dst;
                Op::Copy {
                    dst,
                    src,
                    len: gen_len(rng),
                    deferred: rng.gen_bool(0.8),
                }
            }
            10 | 11 => Op::Read {
                at: gen_at(rng),
                len: gen_len(rng),
            },
            12 => Op::FoldPage {
                at: gen_at(rng),
                len: gen_len(rng),
            },
            13 | 14 => Op::ExtentDigest {
                at: gen_at(rng),
                len: gen_len(rng),
                full: rng.gen_bool(0.5),
            },
            _ => Op::Digest,
        };
        ops.push(op);
    }
    Case {
        slots: rng.range_usize(2, 5),
        max_bytes: rng.range_usize(PAGE_SIZE, 6 * PAGE_SIZE),
        eager_park: rng.gen_bool(0.5),
        ops,
    }
}

/// The pool as plain bytes: frames zeroed when allocated, every copy a
/// `copy_within`.
struct Model {
    bytes: Vec<u8>,
}

impl Model {
    fn zero(&mut self, f: FrameId, n: usize) {
        let base = f.0 as usize * PAGE_SIZE;
        self.bytes[base..base + n * PAGE_SIZE].fill(0);
    }

    fn run(&self, f: FrameId, off: usize, len: usize) -> &[u8] {
        let base = f.0 as usize * PAGE_SIZE + off;
        &self.bytes[base..base + len]
    }

    /// What `PhysMem::digest` must return: the sum of the allocated
    /// frames' terms.
    fn digest(&self, pm: &PhysMem) -> u64 {
        (0..POOL)
            .filter(|&f| pm.refcount(FrameId(f as u32)) > 0)
            .fold(0u64, |sum, f| {
                sum.wrapping_add(frame_term(f, self.run(FrameId(f as u32), 0, PAGE_SIZE)))
            })
    }
}

/// Runs one step on both; `Err` names the first disagreement.
fn step(pm: &PhysMem, model: &mut Model, op: &Op) -> Result<(), String> {
    let live: Vec<usize> = (0..POOL)
        .filter(|&f| pm.refcount(FrameId(f as u32)) > 0)
        .collect();
    // `(rank, off)` resolved to a frame, and the bytes from there to the
    // end of its allocated run.
    let run = |(rank, off): (usize, usize)| -> Option<(FrameId, usize, usize)> {
        let f = *live.get(rank % live.len().max(1))?;
        let frames = (f..POOL)
            .take_while(|&g| pm.refcount(FrameId(g as u32)) > 0)
            .count();
        Some((FrameId(f as u32), off, frames * PAGE_SIZE - off))
    };
    match *op {
        Op::Alloc => {
            if let Ok(f) = pm.alloc() {
                model.zero(f, 1);
            }
        }
        Op::AllocContiguous(n) => {
            if let Ok(f) = pm.alloc_contiguous(n) {
                model.zero(f, n);
            }
        }
        Op::Free(rank) => {
            if let Some((f, _, _)) = run((rank, 0)) {
                pm.decref(f);
            }
        }
        Op::Write { at, len, fill } => {
            if let Some((f, off, room)) = run(at) {
                let data: Vec<u8> = (0..len.min(room))
                    .map(|i| fill.wrapping_add(i as u8))
                    .collect();
                pm.write_run(f, off, &data);
                let base = f.0 as usize * PAGE_SIZE + off;
                model.bytes[base..base + data.len()].copy_from_slice(&data);
            }
        }
        Op::Copy {
            dst,
            src,
            len,
            deferred,
        } => {
            if let (Some((d, doff, droom)), Some((s, soff, sroom))) = (run(dst), run(src)) {
                let len = len.min(droom).min(sroom);
                if deferred {
                    pm.defer_copy_run(d, doff, s, soff, len);
                } else {
                    pm.copy_run(d, doff, s, soff, len);
                }
                let s0 = s.0 as usize * PAGE_SIZE + soff;
                model
                    .bytes
                    .copy_within(s0..s0 + len, d.0 as usize * PAGE_SIZE + doff);
            }
        }
        Op::Read { at, len } => {
            if let Some((f, off, room)) = run(at) {
                let mut got = vec![0u8; len.min(room)];
                pm.read_run(f, off, &mut got);
                prop_assert_eq!(got.as_slice(), model.run(f, off, got.len()), "read");
            }
        }
        Op::FoldPage { at, len } => {
            if let Some((f, off, room)) = run(at) {
                let len = len.min(room).min(PAGE_SIZE - off);
                prop_assert_eq!(
                    pm.fold_page(7, f, off, len),
                    fold_words(7, model.run(f, off, len)),
                    "fold_page"
                );
            }
        }
        Op::ExtentDigest { at, len, full } => {
            if let Some((f, off, room)) = run(at) {
                let len = len.min(room);
                prop_assert_eq!(
                    pm.run_digest(f, off, len, full),
                    digest_bytes(model.run(f, off, len), full),
                    "extent digest"
                );
            }
        }
        Op::Digest => prop_assert_eq!(pm.digest(), model.digest(pm), "pool digest"),
    }
    Ok(())
}

fn shape(slots: usize, max_bytes: usize, eager_park: bool) -> RingShape {
    RingShape {
        slots,
        max_bytes,
        idle_spin: if eager_park {
            Duration::ZERO
        } else {
            RING.idle_spin
        },
    }
}

/// Runs `case` against the model; returns the pool's engine counters.
fn run_case(case: &Case) -> Result<CopyEngineStats, String> {
    let pm = PhysMem::with_ring(
        POOL,
        AllocPolicy::Sequential,
        shape(case.slots, case.max_bytes, case.eager_park),
    );
    let mut model = Model {
        bytes: vec![0; POOL * PAGE_SIZE],
    };
    for (i, op) in case.ops.iter().enumerate() {
        step(&pm, &mut model, op).map_err(|e| format!("step {i}: {e}"))?;
    }
    // Whatever is still queued lands before anything reads it.
    let mut end = vec![0u8; POOL * PAGE_SIZE];
    for f in (0..POOL as u32).map(FrameId) {
        if pm.refcount(f) > 0 {
            let page = &mut end[f.0 as usize * PAGE_SIZE..][..PAGE_SIZE];
            pm.read(f, 0, page);
            prop_assert_eq!(
                &*page,
                model.run(f, 0, PAGE_SIZE),
                "frame {} at the end",
                f.0
            );
        }
    }
    let s = pm.copy_engine_stats();
    if s.racing_drains > s.self_drains {
        return Err(format!("racing drains outnumber self-drains: {s:?}"));
    }
    Ok(s)
}

/// Runs the differential at `cfg` and returns the summed counters.
fn check_cases(cfg: &Config) -> CopyEngineStats {
    let totals = Cell::new(CopyEngineStats::default());
    check_with(
        cfg,
        gen_case,
        |case: &Case| {
            shrink_vec(&case.ops, |_| Vec::new())
                .into_iter()
                .map(|ops| Case {
                    ops,
                    ..case.clone()
                })
                .collect()
        },
        |case: &Case| {
            let (mut t, s) = (totals.get(), run_case(case)?);
            t.deferred_copies += s.deferred_copies;
            t.deferred_bytes += s.deferred_bytes;
            t.fences_waited += s.fences_waited;
            t.self_drains += s.self_drains;
            t.racing_drains += s.racing_drains;
            t.wakeups += s.wakeups;
            totals.set(t);
            Ok(())
        },
    );
    totals.get()
}

#[test]
fn the_queue_reads_like_a_synchronous_pool() {
    let cfg = Config::from_env();
    let t = check_cases(&cfg);
    // Both paths ran somewhere in the cases (a lone replayed case need not
    // take them).
    if cfg.repro.is_some() {
        return;
    }
    assert!(t.deferred_copies > 0 && t.deferred_bytes > 0, "{t:?}");
    assert!(t.fences_waited > 0, "no fence waited: {t:?}");
    assert!(t.self_drains > 0, "no waiting thread ran the queue: {t:?}");
}

/// With no worker to race, every copy is run by a waiting thread, and
/// every such self-drain is cold; the bytes still read as the model's.
#[test]
fn with_no_worker_every_self_drain_is_cold() {
    arena::NO_WORKER.with(|c| c.set(true));
    let env = Config::from_env();
    let t = check_cases(&Config {
        cases: env.cases.min(64),
        ..env
    });
    arena::NO_WORKER.with(|c| c.set(false));
    assert_eq!(t.racing_drains, 0, "{t:?}");
    assert!(t.self_drains > 0 && t.wakeups == 0, "{t:?}");
}

/// A pool dropped with copies still queued: the worker drains them and
/// is joined before the arena goes, so it never finds the arena freed
/// (it asserts it has not been).
#[test]
fn drop_joins_the_worker_before_freeing() {
    for _ in 0..20 {
        let frames = 512;
        let pm = PhysMem::with_ring(frames, AllocPolicy::Sequential, shape(8, 1 << 20, true));
        let f = pm.alloc_contiguous(frames).unwrap();
        pm.write_run(f, 0, &[0x5A; 64 * PAGE_SIZE]);
        for i in 0..4u32 {
            pm.defer_copy_run(FrameId(f.0 + 64 * (i + 1)), 0, f, 0, 64 * PAGE_SIZE);
        }
        assert_eq!(pm.copy_engine_stats().deferred_copies, 4);
        drop(pm);
    }
}

/// A copy larger than the ring's byte bound runs at once, and the
/// engine never starts for it.
#[test]
fn a_copy_over_the_byte_bound_runs_inline() {
    let pm = PhysMem::with_ring(8, AllocPolicy::Sequential, shape(2, PAGE_SIZE, false));
    let f = pm.alloc_contiguous(8).unwrap();
    pm.write_run(f, 0, &[3; 2 * PAGE_SIZE]);
    pm.defer_copy_run(FrameId(f.0 + 4), 0, f, 0, 2 * PAGE_SIZE);
    assert_eq!(pm.copy_engine_stats(), CopyEngineStats::default());
    let mut got = vec![0u8; 2 * PAGE_SIZE];
    pm.read_run(FrameId(f.0 + 4), 0, &mut got);
    assert!(got.iter().all(|&b| b == 3));
}

/// The deferral rule reads the engine's state: with no worker yet, or
/// with one that parked, only a batch worth a cold start
/// (`DEFER_MIN_BATCH`) is worth deferring; with the worker awake in its
/// idle spin, a batch of `DEFER_WARM_MIN_BATCH` is too.
#[test]
fn a_warm_engine_takes_smaller_batches() {
    let cold_only = |pm: &PhysMem| {
        !pm.worth_deferring(DEFER_WARM_MIN_BATCH)
            && !pm.worth_deferring(DEFER_MIN_BATCH - 1)
            && pm.worth_deferring(DEFER_MIN_BATCH)
    };
    let queue_one = |pm: &PhysMem| {
        let f = pm.alloc_contiguous(2).unwrap();
        pm.defer_copy_run(FrameId(f.0 + 1), 0, f, 0, 64);
        pm.read(FrameId(f.0 + 1), 0, &mut [0u8; 64]);
    };
    // A spin long enough that the worker stays awake for the whole test.
    let lingering = RingShape {
        idle_spin: Duration::from_secs(600),
        ..shape(4, 1 << 20, false)
    };
    let pm = PhysMem::with_ring(4, AllocPolicy::Sequential, lingering);
    assert!(cold_only(&pm), "no worker yet");
    queue_one(&pm);
    assert!(pm.worth_deferring(DEFER_WARM_MIN_BATCH));
    assert!(!pm.worth_deferring(DEFER_WARM_MIN_BATCH - 1));
    drop(pm);

    let pm = PhysMem::with_ring(4, AllocPolicy::Sequential, shape(4, 1 << 20, true));
    assert!(cold_only(&pm), "no worker yet");
    queue_one(&pm);
    // The eager worker parks as soon as the queue is empty.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while pm.worth_deferring(DEFER_WARM_MIN_BATCH) {
        assert!(
            std::time::Instant::now() < deadline,
            "the worker never parked"
        );
        std::thread::yield_now();
    }
    assert!(cold_only(&pm), "a parked worker");
}
