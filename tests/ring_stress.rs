//! Real-thread stress of the lock-free CSH ring (§5.1 / Fig. 12-b's
//! "thanks to Copier's lock-free queue design").
//!
//! Everything else in the repository runs on the deterministic simulator;
//! this test exercises the identical `Ring` type under genuine OS-thread
//! concurrency: many producers acquiring slots with CAS, one consumer; and
//! two consumers taking turns through the ring's consumer claim.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use copier::core::Ring;
use copier_testkit::TestRng;

#[test]
fn mpsc_no_loss_no_duplication_per_producer_fifo() {
    const PRODUCERS: u64 = 3;
    const PER: u64 = 30_000;
    let ring: Arc<Ring<u64>> = Arc::new(Ring::new(512));
    let stop = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let ring = Arc::clone(&ring);
        handles.push(std::thread::spawn(move || {
            for i in 0..PER {
                let v = p << 32 | i;
                while ring.push(v).is_err() {
                    std::thread::yield_now();
                }
            }
        }));
    }

    let consumer = {
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = [None::<u64>; PRODUCERS as usize];
            let mut seen = 0u64;
            while seen < PRODUCERS * PER {
                match ring.pop() {
                    Some(v) => {
                        let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                        assert!(
                            last[p].is_none_or(|x| x < i),
                            "producer {p} out of order: {i} after {:?}",
                            last[p]
                        );
                        last[p] = Some(i);
                        seen += 1;
                    }
                    None => {
                        if stop.load(Ordering::Relaxed) {
                            // Producers done: drain whatever remains.
                            std::thread::yield_now();
                        }
                        std::hint::spin_loop();
                    }
                }
            }
            assert_eq!(last, [Some(PER - 1); PRODUCERS as usize]);
        })
    };

    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    consumer.join().unwrap();
    assert!(ring.pop().is_none(), "ring fully drained");
}

/// Randomized interleavings: seeded per-thread streams vary producer
/// count, ring capacity, burst sizes, and yield points, so each seed
/// exercises a different contention pattern against the same
/// no-loss / no-duplication / per-producer-FIFO contract.
#[test]
fn randomized_interleavings_preserve_ring_contract() {
    for seed in 0..6u64 {
        let mut root = TestRng::new(0xB1A5_0000 + seed);
        let producers = root.range_usize(2, 5);
        let capacity = 1 << root.range_usize(3, 9); // 8..=256 slots
        let per: u64 = root.range_usize(2_000, 12_000) as u64;
        let ring: Arc<Ring<u64>> = Arc::new(Ring::new(capacity));

        let mut handles = Vec::new();
        for p in 0..producers as u64 {
            let ring = Arc::clone(&ring);
            let mut rng = root.fork();
            handles.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while i < per {
                    // Push a random burst, then maybe yield to shake
                    // up which producer owns the CAS race.
                    let burst = rng.range_usize(1, 64) as u64;
                    for _ in 0..burst.min(per - i) {
                        let v = p << 32 | i;
                        while ring.push(v).is_err() {
                            std::thread::yield_now();
                        }
                        i += 1;
                    }
                    if rng.gen_bool(0.3) {
                        std::thread::yield_now();
                    }
                }
            }));
        }

        let consumer = {
            let ring = Arc::clone(&ring);
            let mut rng = root.fork();
            std::thread::spawn(move || {
                let mut last = vec![None::<u64>; producers];
                let mut seen = 0u64;
                while seen < producers as u64 * per {
                    match ring.pop() {
                        Some(v) => {
                            let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
                            assert!(
                                last[p].is_none_or(|x| x < i),
                                "producer {p} out of order: {i} after {:?}",
                                last[p]
                            );
                            last[p] = Some(i);
                            seen += 1;
                            // Random consumer stalls force the ring
                            // through full/empty transitions.
                            if rng.gen_bool(0.05) {
                                std::thread::yield_now();
                            }
                        }
                        None => std::hint::spin_loop(),
                    }
                }
                assert_eq!(last, vec![Some(per - 1); producers]);
            })
        };

        for h in handles {
            h.join().unwrap();
        }
        consumer.join().unwrap();
        assert!(ring.pop().is_none(), "seed {seed}: ring fully drained");
    }
}

/// One producer, two consumer threads, 200 000 values through 64 slots.
/// `pop` is safe on a shared ring, so two consumers must each take a value
/// whole or not at all: no value comes out twice, none is lost, each
/// consumer sees the producer's order, and the producer never finds a ring
/// full that the consumers have drained (a `tail` stored backwards would
/// leave it full for good). A stall of 10 s counts as a wedge.
#[test]
fn two_consumers_take_each_value_once() {
    const N: u64 = 200_000;
    const STALL: Duration = Duration::from_secs(10);
    let ring: Arc<Ring<u64>> = Arc::new(Ring::new(64));
    let taken = Arc::new(AtomicU64::new(0));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let (ring, taken) = (Arc::clone(&ring), Arc::clone(&taken));
            std::thread::spawn(move || {
                let (mut got, mut idle) = (Vec::new(), Instant::now());
                while taken.load(Ordering::Relaxed) < N && idle.elapsed() < STALL {
                    if let Some(v) = ring.pop() {
                        got.push(v);
                        taken.fetch_add(1, Ordering::Relaxed);
                        idle = Instant::now();
                    } else {
                        std::thread::yield_now();
                    }
                }
                got
            })
        })
        .collect();
    let mut since = Instant::now();
    for v in 0..N {
        while ring.push(v).is_err() {
            let n = taken.load(Ordering::Relaxed);
            assert!(
                since.elapsed() < STALL,
                "producer wedged at {v} with {n} taken"
            );
            std::thread::yield_now();
        }
        since = Instant::now();
    }
    let mut all = Vec::new();
    for h in consumers {
        let got = h.join().unwrap();
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "a consumer saw values out of order"
        );
        all.extend(got);
    }
    all.sort_unstable();
    let dups = all.windows(2).filter(|w| w[0] == w[1]).count();
    assert_eq!(dups, 0, "{dups} values came out twice");
    assert_eq!(all.len() as u64, N, "values lost");
    assert!(ring.pop().is_none());
}

#[test]
fn descriptor_visible_across_threads() {
    // The descriptor contract: a consumer thread marking segments, then
    // poisoning the descriptor, is observed by a producer-side csync poll
    // (release/acquire pairing).
    use copier::core::{CopyFault, SegDescriptor};
    let d = Arc::new(SegDescriptor::new(64 * 1024, 1024));
    let d2 = Arc::clone(&d);
    let marker = std::thread::spawn(move || {
        for i in 0..64 {
            d2.mark(i);
        }
        d2.poison(CopyFault::Corrupted);
    });
    // Spin until fully ready; must terminate (no lost marks).
    while !d.all_ready() {
        std::hint::spin_loop();
    }
    while d.fault().is_none() {
        std::hint::spin_loop();
    }
    marker.join().unwrap();
    assert_eq!(d.ready_segments(), 64);
    assert_eq!(d.fault(), Some(CopyFault::Corrupted));
}
