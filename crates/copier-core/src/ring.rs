//! CSH queue ring buffer (§5.1 "Multithreading and concurrency").
//!
//! The paper's rings are lock-free so that client threads on real cores
//! can submit concurrently. Here the whole service runs on one host
//! thread and the cross-core cost of a submission is charged in virtual
//! time (`task_submit`, `poll_idle`), so a ring is a plain bounded FIFO:
//! `push` at `head`, `pop` at `tail`, both single-threaded. The ring is
//! `!Sync` (its slots are `Cell`s), so the compiler refuses to share one
//! between host threads.
//!
//! A ring's slot array is allocated by its first `push`, not by `new`: a
//! registered tenant owns six rings (§4.2.1) and most of them never carry
//! an entry, so an idle tenant pays for the ring headers only.

use std::cell::{Cell, OnceCell};

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

/// A bounded FIFO ring buffer.
pub struct Ring<T> {
    /// The slot array, `cap` long; unset until the first `push`. A slot
    /// holds a value iff its position is in `tail..head`.
    slots: OnceCell<Box<[Cell<Option<T>>]>>,
    /// Capacity in slots, a power of two.
    cap: u64,
    /// Total values ever pushed: the next slot to fill.
    head: Cell<u64>,
    /// Total values ever popped: the next slot to take.
    tail: Cell<u64>,
}

impl<T> Ring<T> {
    /// Creates a ring with `capacity` slots (rounded up to a power of two).
    /// The slots themselves are allocated by the first `push`.
    pub fn new(capacity: usize) -> Self {
        Ring {
            slots: OnceCell::new(),
            cap: capacity.next_power_of_two().max(2) as u64,
            head: Cell::new(0),
            tail: Cell::new(0),
        }
    }

    /// Capacity in slots.
    pub(crate) fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// The slot of queue position `pos`.
    fn slot(slots: &[Cell<Option<T>>], pos: u64) -> &Cell<Option<T>> {
        &slots[(pos & (slots.len() as u64 - 1)) as usize]
    }

    /// Entries currently enqueued.
    pub(crate) fn len(&self) -> usize {
        (self.head.get() - self.tail.get()) as usize
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total values ever pushed (the queue *position* used by barriers).
    pub fn pushed(&self) -> u64 {
        self.head.get()
    }

    /// Producer: enqueues a value; a full ring returns the value back.
    pub fn push(&self, v: T) -> Result<(), RingFull<T>> {
        if self.len() == self.capacity() {
            return Err(RingFull(v));
        }
        let h = self.head.get();
        let slots = self
            .slots
            .get_or_init(|| (0..self.cap).map(|_| Cell::new(None)).collect());
        Self::slot(slots, h).set(Some(v));
        self.head.set(h + 1);
        Ok(())
    }

    /// Consumer: dequeues the oldest value, if any.
    pub fn pop(&self) -> Option<T> {
        let t = self.tail.get();
        if t == self.head.get() {
            return None;
        }
        let v = Self::slot(self.slots.get()?, t).take();
        self.tail.set(t + 1);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_testkit::{check_with, prop_assert_eq, Config, TestRng};
    use std::collections::VecDeque;
    use std::rc::Rc;

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
    fn drop_releases_queued_values() {
        let counter = Rc::new(());
        let r = Ring::new(8);
        for _ in 0..3 {
            r.push(Rc::clone(&counter)).unwrap();
        }
        assert_eq!(Rc::strong_count(&counter), 4);
        drop(r);
        assert_eq!(Rc::strong_count(&counter), 1);
    }

    #[test]
    fn a_ring_never_pushed_holds_no_slots() {
        let r: Ring<u64> = Ring::new(1000);
        assert_eq!(r.capacity(), 1024);
        assert!(r.slots.get().is_none(), "`new` allocated the slots");
        assert_eq!((r.len(), r.is_empty(), r.pushed()), (0, true, 0));
        assert_eq!(r.pop(), None);
        assert!(r.slots.get().is_none(), "`pop` allocated the slots");
        drop(r);
        let r = Ring::new(4);
        r.push(7u64).unwrap();
        assert_eq!(r.slots.get().map(|s| s.len()), Some(4));
        assert_eq!(r.pop(), Some(7));
    }

    /// `(requested capacity, [push?])`: a ring and a script of pushes and
    /// pops, pushes often enough to fill it.
    type Script = (usize, Vec<bool>);

    fn gen_script(rng: &mut TestRng) -> Script {
        let cap = rng.range_usize(0, 20);
        let bias = [0.3, 0.5, 0.7][rng.range_usize(0, 3)];
        (
            cap,
            (0..rng.range_usize(0, 200))
                .map(|_| rng.gen_bool(bias))
                .collect(),
        )
    }

    /// The ring against a `VecDeque` bounded at the ring's capacity: the
    /// same values come out in the same order, a push is refused exactly
    /// when the model is full (and hands its value back), and `len`,
    /// `is_empty` and `pushed` agree after every step.
    #[test]
    fn ring_equals_a_bounded_vecdeque() {
        check_with(
            &Config::from_env(),
            gen_script,
            |_| Vec::new(),
            |(cap, ops): &Script| {
                let r = Ring::new(*cap);
                prop_assert_eq!(r.capacity(), cap.next_power_of_two().max(2));
                let mut model = VecDeque::new();
                let (mut next, mut pushed) = (0u64, 0u64);
                for &push in ops {
                    if push {
                        next += 1;
                        match r.push(next) {
                            Ok(()) => {
                                prop_assert_eq!(model.len() < r.capacity(), true);
                                model.push_back(next);
                                pushed += 1;
                            }
                            Err(RingFull(v)) => {
                                prop_assert_eq!((model.len(), v), (r.capacity(), next));
                            }
                        }
                    } else {
                        prop_assert_eq!(r.pop(), model.pop_front());
                    }
                    prop_assert_eq!(
                        (r.len(), r.is_empty(), r.pushed()),
                        (model.len(), model.is_empty(), pushed)
                    );
                }
                Ok(())
            },
        );
    }
}
