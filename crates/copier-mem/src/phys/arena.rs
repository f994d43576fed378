//! The arena behind [`PhysMem`](super::PhysMem) and the host copy engine
//! that moves its bytes off the simulation thread (DESIGN.md §12, "Host
//! copy engine").
//!
//! Every frame's bytes live in one raw allocation, and two threads may
//! touch it: the simulation thread, which owns the [`Arena`], and one
//! worker thread, spawned on the first deferred copy, that runs queued
//! copies in FIFO order. Who may touch which bytes, and when:
//!
//! - A queued copy `(dst, src, len)` belongs to the queue from
//!   [`Arena::defer`] until `done` passes it. The holder of the run token
//!   (the worker, or a waiting simulation thread) reads its source and
//!   writes its destination; nobody else writes either range or reads
//!   the destination.
//! - The simulation thread reaches bytes only through [`Arena::read`],
//!   [`Arena::write`] and [`Arena::copy`]. Each first *fences* its range:
//!   it waits until every queued copy that overlaps it has run — for a
//!   read, those whose destination overlaps; for a write, those whose
//!   source or destination does. Entries run in FIFO order, so waiting for
//!   the newest overlapping entry waits for every entry it depends on.
//!   Only then is a view made, limited to the fenced range and to the
//!   call.
//! - A copy queued while the ring holds its maximum of entries or bytes
//!   first waits for the oldest ones. A wait that finds nobody holding
//!   the run token (the worker is parked, or not yet awake) takes it and
//!   runs the entries it waits for itself instead of paying the wake-up.
//! - `Drop` shuts the worker down — it drains the queue first — and joins
//!   it before the allocation is freed.
//!
//! So every byte the simulation reads is the byte a synchronous copy would
//! have left there, whenever the worker runs.
//!
//! The two threads share as few cache lines per entry as they can: an
//! entry is published by a sequence number in its own slot's line (no
//! shared tail counter), the simulation thread's fences scan its own
//! record of the queue and re-read the worker's `done` counter only when
//! that record grows long or a fence must wait, and each shared counter
//! has a line to itself.

use std::cell::{Cell, OnceCell};
use std::hint::spin_loop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Host-side counters of the copy engine. Nothing virtual reads them:
/// how often a fence waits or the worker wakes depends on host timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyEngineStats {
    /// Copies queued by [`PhysMem::defer_copy_run`](super::PhysMem::defer_copy_run).
    pub deferred_copies: u64,
    /// Bytes of those copies.
    pub deferred_bytes: u64,
    /// Fences that found an overlapping copy still queued, and copies
    /// that found the ring full, and waited.
    pub fences_waited: u64,
    /// Waits in which the waiting thread took the run token and ran the
    /// queue up to the entry it needed itself. Those that found the worker
    /// absent or asleep are cold; the rest are `racing_drains`.
    pub self_drains: u64,
    /// Self-drains that found the worker awake, between two entries: the
    /// waiting thread took the token in a race it could have left to it.
    pub racing_drains: u64,
    /// Times a queued copy woke a parked worker.
    pub wakeups: u64,
}

/// The queue's bounds and the worker's patience.
#[derive(Debug, Clone, Copy)]
pub(super) struct RingShape {
    /// Entries in flight at most.
    pub slots: usize,
    /// Bytes in flight at most: what can be left to copy when the
    /// simulation returns.
    pub max_bytes: usize,
    /// How long an idle worker spins for a next entry before it parks.
    pub idle_spin: Duration,
}

/// A fence re-reads the shared `done` before scanning more entries than
/// this: below it, scanning its own record is cheaper than pulling the
/// line the worker writes on every entry.
const FRESH_SCAN: u64 = 16;

#[cfg(test)]
thread_local! {
    /// Test hook: while set, `defer` spawns no worker, so every queued
    /// copy is run by a waiting simulation thread (a cold self-drain).
    pub(super) static NO_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether `defer` may start the worker: always, unless a test has
/// turned it off (`NO_WORKER`).
fn worker_allowed() -> bool {
    #[cfg(test)]
    if NO_WORKER.with(Cell::get) {
        return false;
    }
    true
}

/// Spins of a wait before it starts yielding its core.
const SPINS: u32 = 64;

/// How a thread waits on the other: a few spins, then a yield per look,
/// so a waiter whose partner has lost its core (the host is busy) lets
/// the OS run it instead of burning the time slice it waits for.
#[derive(Default)]
struct Backoff(u32);

impl Backoff {
    fn snooze(&mut self) {
        if self.0 < SPINS {
            self.0 += 1;
            spin_loop();
        } else {
            thread::yield_now();
        }
    }
}

/// The production ring: 256 entries, 1 MiB in flight, 50 µs of spin.
pub(super) const RING: RingShape = RingShape {
    slots: 256,
    max_bytes: 1 << 20,
    idle_spin: Duration::from_micros(50),
};

/// One queued copy, as arena offsets, with the sequence number that
/// publishes it, on a cache line of its own: queueing an entry moves that
/// one line to the worker and nothing else, and the worker reading one
/// slot never contends with the next being filled.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    /// `seq + 1` once entry `seq` is in the slot; stored last.
    published: AtomicU64,
    dst: AtomicUsize,
    src: AtomicUsize,
    len: AtomicUsize,
}

/// A cache line (two, for the adjacent-line prefetcher) to itself: the
/// queue's counters are written by different threads, and sharing a line
/// would bounce it between the cores on every entry.
#[derive(Default)]
#[repr(align(128))]
struct Line<T>(T);

/// What the worker shares with the simulation thread.
struct Queue {
    /// The arena's first byte; null once the arena is freed.
    base: AtomicPtr<u8>,
    slots: Box<[Slot]>,
    idle_spin: Duration,
    /// Entries run; written only by the run token's holder, `Release`
    /// after each copy and read with `Acquire`, so a reader that sees an
    /// entry done sees its bytes.
    done: Line<AtomicU64>,
    /// The run token: its holder runs entries, oldest first. Taken with
    /// `Acquire` and given back with `Release`, so each holder sees the
    /// bytes and `done` the previous holder left.
    running: Line<AtomicBool>,
    parked: Line<AtomicBool>,
    /// Set by the worker around `thread::park`: unlike `parked`, which a
    /// waker clears before the unpark, it stays set until the worker runs
    /// again. Only the self-drain count reads it, so it is `Relaxed`.
    asleep: AtomicBool,
    shutdown: AtomicBool,
}

/// The simulation thread's own record of a queued copy: what its fences
/// scan without touching the shared slots.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    dst: usize,
    src: usize,
    len: usize,
    /// Bytes queued before this entry.
    before: u64,
}

impl Queue {
    fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq % self.slots.len() as u64) as usize]
    }

    /// Whether entry `seq` is queued (and so its slot filled).
    fn published(&self, seq: u64) -> bool {
        self.slot(seq).published.load(Ordering::Acquire) == seq + 1
    }

    fn try_run(&self) -> bool {
        self.running
            .0
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Runs queued entries, oldest first, until `end` have run or the
    /// next one is not queued. The caller holds the run token.
    fn run_to(&self, end: u64) {
        let base = self.base.load(Ordering::Acquire);
        assert!(!base.is_null(), "a queued copy outlived the arena");
        let mut done = self.done.0.load(Ordering::Acquire);
        while done < end && self.published(done) {
            let s = self.slot(done);
            let dst = s.dst.load(Ordering::Relaxed);
            let src = s.src.load(Ordering::Relaxed);
            let len = s.len.load(Ordering::Relaxed);
            // SAFETY: `defer` queued only ranges inside the arena, which
            // stays allocated until the worker is joined. Until `done`
            // passes this entry, only the token's holder (us) writes
            // `dst`, and no other thread reads `dst` or writes `src`:
            // every view and synchronous copy of the simulation thread
            // fences on both first. `ptr::copy` is memmove, so a
            // self-overlapping entry is fine.
            unsafe { std::ptr::copy(base.add(src), base.add(dst), len) };
            done += 1;
            self.done.0.store(done, Ordering::Release);
        }
    }

    fn release(&self) {
        self.running.0.store(false, Ordering::Release);
    }
}

/// The worker: runs whatever is queued, spins a while when idle, then
/// parks until a copy is queued. Exits once shut down and drained.
fn work(q: &Queue) {
    let mut idle_since = Instant::now();
    let mut backoff = Backoff::default();
    loop {
        if q.published(q.done.0.load(Ordering::Acquire)) {
            if q.try_run() {
                q.run_to(u64::MAX);
                q.release();
                backoff = Backoff::default();
            } else {
                backoff.snooze();
            }
            idle_since = Instant::now();
            continue;
        }
        if q.shutdown.load(Ordering::Acquire) {
            return;
        }
        if idle_since.elapsed() < q.idle_spin {
            backoff.snooze();
            continue;
        }
        // Announce the park, then look once more: a copy queued after
        // this store sees `parked` and unparks us (both sides SeqCst).
        q.parked.0.store(true, Ordering::SeqCst);
        let next = q.done.0.load(Ordering::SeqCst);
        if q.slot(next).published.load(Ordering::SeqCst) != next + 1
            && !q.shutdown.load(Ordering::SeqCst)
        {
            q.asleep.store(true, Ordering::Relaxed);
            thread::park();
            q.asleep.store(false, Ordering::Relaxed);
        }
        q.parked.0.store(false, Ordering::SeqCst);
        idle_since = Instant::now();
        backoff = Backoff::default();
    }
}

/// Clears the open-view flag when a view's call returns or unwinds.
struct ViewGuard<'a>(&'a Cell<bool>);

impl Drop for ViewGuard<'_> {
    fn drop(&mut self) {
        self.0.set(false);
    }
}

/// The pool's bytes and their copy queue. Owned by the simulation thread.
pub(super) struct Arena {
    /// The allocation, from `Box::into_raw`; freed in `Drop`.
    bytes: NonNull<[u8]>,
    queue: Arc<Queue>,
    worker: OnceCell<JoinHandle<()>>,
    /// The queued entries as this thread wrote them, by `seq % slots`.
    entries: Box<[Cell<Entry>]>,
    /// Entries queued.
    tail: Cell<u64>,
    /// `queue.done` as last read: no entry below it is still queued.
    seen_done: Cell<u64>,
    /// Bytes queued so far.
    queued_bytes: Cell<u64>,
    max_bytes: usize,
    /// Whether a view is open: views never nest.
    viewing: Cell<bool>,
    stats: Cell<CopyEngineStats>,
}

impl Arena {
    /// A zeroed arena of `len` bytes (the host commits its pages on first
    /// touch) with a ring of `shape`. No thread starts until a copy is
    /// deferred.
    pub(super) fn new(len: usize, shape: RingShape) -> Self {
        assert!(shape.slots > 0 && shape.max_bytes > 0);
        let bytes = NonNull::new(Box::into_raw(vec![0u8; len].into_boxed_slice()))
            .expect("Box::into_raw is never null");
        Arena {
            bytes,
            queue: Arc::new(Queue {
                base: AtomicPtr::new(bytes.cast::<u8>().as_ptr()),
                slots: (0..shape.slots).map(|_| Slot::default()).collect(),
                idle_spin: shape.idle_spin,
                done: Line::default(),
                running: Line::default(),
                parked: Line::default(),
                asleep: AtomicBool::new(false),
                shutdown: AtomicBool::new(false),
            }),
            worker: OnceCell::new(),
            entries: (0..shape.slots).map(|_| Cell::default()).collect(),
            tail: Cell::new(0),
            seen_done: Cell::new(0),
            queued_bytes: Cell::new(0),
            max_bytes: shape.max_bytes,
            viewing: Cell::new(false),
            stats: Cell::new(CopyEngineStats::default()),
        }
    }

    pub(super) fn stats(&self) -> CopyEngineStats {
        self.stats.get()
    }

    /// Whether the worker is awake — spawned and not parked — so a copy
    /// queued now pays no spawn and no wake-up. A hint: the worker may
    /// park a moment later, which costs host time and nothing else, so
    /// the load is `Relaxed`: no byte or counter is read on its word.
    pub(super) fn awake(&self) -> bool {
        self.worker.get().is_some() && !self.queue.parked.0.load(Ordering::Relaxed)
    }

    fn count(&self, f: impl FnOnce(&mut CopyEngineStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn base(&self) -> *mut u8 {
        self.bytes.cast::<u8>().as_ptr()
    }

    fn check(&self, at: usize, len: usize) {
        assert!(
            at.checked_add(len)
                .is_some_and(|end| end <= self.bytes.len()),
            "arena range {at}+{len} out of bounds"
        );
    }

    /// Waits until `upto` entries have run. If nobody holds the run token,
    /// runs them here instead of waiting for the worker to wake.
    fn wait_done(&self, upto: u64) {
        let q = &*self.queue;
        let mut done = q.done.0.load(Ordering::Acquire);
        if done < upto {
            let (mut ran, mut racing) = (false, false);
            let mut backoff = Backoff::default();
            loop {
                if q.try_run() {
                    if q.done.0.load(Ordering::Acquire) < upto {
                        racing = self.awake() && !q.asleep.load(Ordering::Relaxed);
                        q.run_to(upto);
                        ran = true;
                    }
                    q.release();
                }
                done = q.done.0.load(Ordering::Acquire);
                if done >= upto {
                    break;
                }
                backoff.snooze();
            }
            self.count(|s| {
                s.fences_waited += 1;
                s.self_drains += ran as u64;
                s.racing_drains += racing as u64;
            });
        }
        self.seen_done.set(done);
    }

    fn entry(&self, seq: u64) -> Entry {
        self.entries[(seq % self.entries.len() as u64) as usize].get()
    }

    /// Waits out the queued copies that overlap `[at, at + len)`: those
    /// writing it, and for a `write` also those reading it. Scans this
    /// thread's own record of the queue, from the last `done` it read: a
    /// stale `done` costs a longer scan, never a missed entry.
    fn fence(&self, at: usize, len: usize, write: bool) {
        let tail = self.tail.get();
        if tail - self.seen_done.get() > FRESH_SCAN {
            self.seen_done
                .set(self.queue.done.0.load(Ordering::Acquire));
        }
        let end = at + len;
        let hits = |a: usize, n: usize| a < end && at < a + n;
        // Newest first: the first hit is the last entry to wait for.
        let newest = (self.seen_done.get()..tail).rev().find(|&seq| {
            let e = self.entry(seq);
            hits(e.dst, e.len) || (write && hits(e.src, e.len))
        });
        if let Some(seq) = newest {
            self.wait_done(seq + 1);
        }
    }

    fn open_view(&self) -> ViewGuard<'_> {
        assert!(!self.viewing.replace(true), "arena views never nest");
        ViewGuard(&self.viewing)
    }

    /// Calls `f` on bytes `[at, at + len)` once no queued copy writes them.
    pub(super) fn read<R>(&self, at: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.check(at, len);
        self.fence(at, len, false);
        let _view = self.open_view();
        // SAFETY: the range is inside the allocation (`check`). No queued
        // copy writes it (`fence`), only this thread queues copies and it
        // queues none while `f` runs, and no mutable view is open
        // (`open_view`), so nothing writes these bytes while `f` reads.
        f(unsafe { std::slice::from_raw_parts(self.base().add(at), len) })
    }

    /// Calls `f` on bytes `[at, at + len)`, mutably, once no queued copy
    /// reads or writes them.
    pub(super) fn write<R>(&self, at: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.check(at, len);
        self.fence(at, len, true);
        let _view = self.open_view();
        // SAFETY: the range is inside the allocation (`check`). No queued
        // copy reads or writes it (`fence`), only this thread queues
        // copies and it queues none while `f` runs, and no other view is
        // open (`open_view`), so this reference is the only access.
        f(unsafe { std::slice::from_raw_parts_mut(self.base().add(at), len) })
    }

    /// Copies `len` bytes from `src` to `dst` now, with memmove semantics,
    /// once the queue is done with both ranges.
    pub(super) fn copy(&self, dst: usize, src: usize, len: usize) {
        self.check(src, len);
        self.check(dst, len);
        self.fence(src, len, false);
        self.fence(dst, len, true);
        let _view = self.open_view();
        // SAFETY: both ranges are inside the allocation (`check`); no
        // queued copy writes `src` or touches `dst` (the fences), and no
        // view is open. `ptr::copy` is memmove, so overlap is fine.
        unsafe { std::ptr::copy(self.base().add(src), self.base().add(dst), len) };
    }

    /// Queues a copy of `len` bytes from `src` to `dst` (memmove
    /// semantics) for the worker and returns. A copy larger than the ring
    /// bound runs now.
    pub(super) fn defer(&self, dst: usize, src: usize, len: usize) {
        self.check(src, len);
        self.check(dst, len);
        assert!(!self.viewing.get(), "no copy is queued under an open view");
        if len > self.max_bytes {
            return self.copy(dst, src, len);
        }
        let q = &*self.queue;
        let tail = self.tail.get();
        let queued = self.queued_bytes.get();
        // Room for one more: at most `slots` entries and `max_bytes`
        // bytes in flight once it is in. Entry `k` and the ones after it
        // hold `queued - before(k)` bytes, which falls as `k` grows.
        let mut need = (tail + 1).saturating_sub(q.slots.len() as u64);
        if let Some(floor) = (queued + len as u64).checked_sub(self.max_bytes as u64) {
            let (mut lo, mut hi) = (need.max(self.seen_done.get()), tail);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.entry(mid).before >= floor {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            need = need.max(lo);
        }
        if need > self.seen_done.get() {
            self.wait_done(need);
        }
        let i = (tail % q.slots.len() as u64) as usize;
        self.entries[i].set(Entry {
            dst,
            src,
            len,
            before: queued,
        });
        let s = &q.slots[i];
        s.dst.store(dst, Ordering::Relaxed);
        s.src.store(src, Ordering::Relaxed);
        s.len.store(len, Ordering::Relaxed);
        // Publishes the entry and every byte written before it; SeqCst
        // pairs with the worker's park announcement.
        s.published.store(tail + 1, Ordering::SeqCst);
        self.tail.set(tail + 1);
        self.queued_bytes.set(queued + len as u64);
        self.count(|s| {
            s.deferred_copies += 1;
            s.deferred_bytes += len as u64;
        });
        if let Some(w) = self.worker.get() {
            if q.parked.0.load(Ordering::SeqCst) && q.parked.0.swap(false, Ordering::SeqCst) {
                w.thread().unpark();
                self.count(|s| s.wakeups += 1);
            }
        } else if worker_allowed() {
            let q = Arc::clone(&self.queue);
            let w = thread::Builder::new()
                .name("copier-mem-copy".into())
                .spawn(move || work(&q))
                .expect("spawn the copy worker");
            let _ = self.worker.set(w);
        }
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        if let Some(w) = self.worker.take() {
            self.queue.shutdown.store(true, Ordering::SeqCst);
            w.thread().unpark();
            // The worker drains the queue before it returns. It panics
            // only on a broken invariant of this module (a copy past the
            // arena's life), which must surface — but not as a second
            // panic while one unwinds, which would abort.
            if w.join().is_err() && !thread::panicking() {
                panic!("the copy worker panicked");
            }
        }
        self.queue
            .base
            .store(std::ptr::null_mut(), Ordering::SeqCst);
        // SAFETY: `bytes` came from `Box::into_raw` in `new` and is freed
        // only here, after the join: no thread can reach it any more.
        drop(unsafe { Box::from_raw(self.bytes.as_ptr()) });
    }
}
