//! Lock-free CSH queue ring buffer (§5.1 "Multithreading and concurrency").
//!
//! The paper's design, reproduced directly: producers *acquire* a slot by
//! advancing `head` with a CAS-bounded fetch, fill the task fields, then set
//! the slot's *valid* bit; the (single) consumer takes a slot at `tail` only
//! once valid, clears it, and advances. Task order follows slot-acquisition
//! order, so the ring is FIFO per queue while allowing concurrent producers
//! (multi-threaded clients submitting to a shared per-process queue).
//!
//! The same type serves two roles: inside the deterministic simulator
//! (single host thread — the atomics cost nothing) and under real OS
//! threads in the `ring_stress` integration test backing Fig. 12-b.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Error returned when the ring has no free slot. Carries the rejected
/// value back to the producer so no submission path can drop it silently
/// — the caller either retries, requeues it elsewhere, or surfaces a
/// typed error.
pub struct RingFull<T>(pub T);

impl<T> std::fmt::Debug for RingFull<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RingFull(..)")
    }
}

struct Slot<T> {
    valid: AtomicBool,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded MPSC ring buffer.
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    /// Next slot to acquire (total enqueues attempted).
    head: AtomicUsize,
    /// Next slot to consume (total dequeues).
    tail: AtomicUsize,
}

// SAFETY: slots are handed out exclusively — a producer owns slot `h` after
// winning the CAS on `head` and publishes with a release store to `valid`;
// the consumer reads after an acquire load of `valid` and releases the slot
// by clearing `valid` only after moving the value out. `T: Send` therefore
// suffices to move values across threads.
unsafe impl<T: Send> Sync for Ring<T> {}
unsafe impl<T: Send> Send for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring with `capacity` slots (rounded up to a power of two).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Ring {
            slots: (0..cap)
                .map(|_| Slot {
                    valid: AtomicBool::new(false),
                    val: UnsafeCell::new(MaybeUninit::uninit()),
                })
                .collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently enqueued (approximate under concurrency).
    ///
    /// Wrapping subtraction, matching `push`'s occupancy check: the
    /// counters are monotone and may wrap `usize`, after which `head`
    /// reads *below* `tail` and a saturating difference would clamp the
    /// occupancy to 0 (under-reporting a possibly full ring). Since the
    /// capacity divides 2^64, `head - tail mod 2^64` is the true
    /// occupancy across the wrap.
    pub fn len(&self) -> usize {
        self.head
            .load(Ordering::Acquire)
            .wrapping_sub(self.tail.load(Ordering::Acquire))
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total values ever pushed (the queue *position* used by barriers).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire) as u64
    }

    /// Producer: enqueues a value; a full ring returns the value back.
    pub fn push(&self, v: T) -> Result<(), RingFull<T>> {
        let cap = self.slots.len();
        let mut h = self.head.load(Ordering::Relaxed);
        loop {
            let t = self.tail.load(Ordering::Acquire);
            if h.wrapping_sub(t) >= cap {
                return Err(RingFull(v));
            }
            match self.head.compare_exchange_weak(
                h,
                h.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(cur) => h = cur,
            }
        }
        let slot = &self.slots[h % cap];
        // The slot must have been released by the consumer; under the
        // capacity check above this is guaranteed.
        debug_assert!(!slot.valid.load(Ordering::Acquire));
        // SAFETY: we exclusively own slot `h` after winning the CAS and
        // until we set `valid`; no other producer can acquire the same
        // index and the consumer ignores invalid slots.
        unsafe { (*slot.val.get()).write(v) };
        slot.valid.store(true, Ordering::Release);
        Ok(())
    }

    /// Consumer: dequeues the next value if one is ready.
    ///
    /// Must be called from a single consumer at a time.
    pub fn pop(&self) -> Option<T> {
        let cap = self.slots.len();
        let t = self.tail.load(Ordering::Relaxed);
        let slot = &self.slots[t % cap];
        if !slot.valid.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: `valid` was observed with acquire ordering, so the
        // producer's write to the slot happened-before this read; we are
        // the only consumer, so the slot is ours until we clear `valid`.
        let v = unsafe { (*slot.val.get()).assume_init_read() };
        slot.valid.store(false, Ordering::Release);
        self.tail.store(t.wrapping_add(1), Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drain remaining initialized slots so their values are dropped.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_single_thread() {
        let r = Ring::new(8);
        for i in 0..5 {
            r.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let r = Ring::new(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        let rejected = r.push(99).expect_err("full ring must reject");
        assert_eq!(rejected.0, 99, "rejected value is returned to the caller");
        assert_eq!(r.pop(), Some(0));
        r.push(99).unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn wraps_around_many_times() {
        let r = Ring::new(4);
        for round in 0..100u64 {
            r.push(round).unwrap();
            assert_eq!(r.pop(), Some(round));
        }
        assert_eq!(r.pushed(), 100);
    }

    #[test]
    fn occupancy_survives_counter_wraparound() {
        // Regression for the ISSUE 6 satellite: `len()` used
        // `saturating_sub` while `push` used `wrapping_sub`, so once the
        // monotone counters wrapped usize, `len()` clamped to 0 while
        // the ring was actually populated. Start the counters just below
        // the wrap (capacity is a power of two, so slot indexing stays
        // aligned) and drive push/pop across the boundary.
        let r = Ring::new(4);
        let start = usize::MAX - 5; // wraps mid-test
        r.head.store(start, Ordering::SeqCst);
        r.tail.store(start, Ordering::SeqCst);
        assert_eq!(r.len(), 0);
        let mut expect_front = 0u64;
        let mut next = 0u64;
        for _ in 0..3 {
            r.push(next).unwrap();
            next += 1;
        }
        for step in 0..12u64 {
            assert_eq!(r.len(), 3, "occupancy wrong at step {step}");
            assert_eq!(r.pop(), Some(expect_front), "FIFO broke at step {step}");
            expect_front += 1;
            r.push(next).unwrap();
            next += 1;
        }
        // Post-wrap: head is now small, tail may still be near MAX or
        // past it; a full ring must still reject.
        r.push(next).unwrap();
        assert_eq!(r.len(), 4);
        assert!(r.push(999).is_err(), "full ring must reject across wrap");
        for _ in 0..4 {
            assert_eq!(r.pop(), Some(expect_front));
            expect_front += 1;
        }
        assert!(r.is_empty());
        assert!(
            r.head.load(Ordering::SeqCst) < start,
            "wrap actually happened"
        );
    }

    #[test]
    fn drop_releases_queued_values() {
        let counter = Arc::new(AtomicUsize::new(0));
        struct D(Arc<AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let r = Ring::new(8);
        for _ in 0..3 {
            r.push(D(Arc::clone(&counter))).unwrap();
        }
        drop(r);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn mpsc_under_real_threads() {
        // 4 producers × 10_000 items, one consumer; per-producer FIFO must
        // hold and nothing may be lost or duplicated.
        let r = Arc::new(Ring::<(u8, u32)>::new(256));
        let mut handles = Vec::new();
        for p in 0..4u8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u32 {
                    loop {
                        if r.push((p, i)).is_ok() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut last = [None::<u32>; 4];
        let mut count = 0usize;
        while count < 40_000 {
            if let Some((p, i)) = r.pop() {
                let prev = &mut last[p as usize];
                assert!(prev.is_none_or(|x| x < i), "producer {p} out of order");
                *prev = Some(i);
                count += 1;
            } else {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(last, [Some(9_999); 4]);
        assert!(r.pop().is_none());
    }
}
