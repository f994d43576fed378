//! Client registration state and the service-side in-flight window.
//!
//! Each client (a user process, or an OS service with a standalone context)
//! owns one *default* [`QueueSet`] — a paired u-mode and k-mode set of CSH
//! queues (§4.2.1) — and may create extra per-thread sets (§5.1 multi-queue
//! support; dependencies are only tracked within a set).
//!
//! The service drains queue entries into the set's *pending window*, a list
//! of [`PendEntry`] ordered by the merged cross-privilege key computed from
//! barrier tasks.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use copier_mem::{AddressSpace, FrameId};
use copier_sim::Nanos;

use crate::descriptor::CopyFault;
use crate::interval::IntervalSet;
use crate::pendindex::PendIndex;
use crate::ring::Ring;
use crate::task::{CopyTask, Handler, Privilege, QueueEntry, SyncTask, TaskId};

/// Client identifier.
pub type ClientId = u32;

/// Default capacity (slots) of each CSH queue.
pub const DEFAULT_QUEUE_CAP: usize = 1024;

/// One privilege level's CSH queues.
pub struct QueuePair {
    /// Copy Queue — `QueueEntry::Copy` and `QueueEntry::Barrier`.
    pub copy: Ring<QueueEntry>,
    /// Sync Queue — promotion and abort requests.
    pub sync: Ring<SyncTask>,
    /// Handler Queue — completed UFUNCs for `post_handlers()` (u-mode only;
    /// unused on the k-mode pair).
    pub handler: Ring<Handler>,
}

impl QueuePair {
    /// Creates a queue pair with `cap` slots per ring.
    pub fn new(cap: usize) -> Rc<Self> {
        Rc::new(QueuePair {
            copy: Ring::new(cap),
            sync: Ring::new(cap),
            handler: Ring::new(cap),
        })
    }
}

/// Merge key: `(barrier_key, privilege, drain_seq)`; see §4.2.1.
pub type OrderKey = (u64, u8, u64);

/// A task in the service's in-flight window.
pub struct PendEntry {
    /// Service-wide id.
    pub tid: TaskId,
    /// Merged execution-order key.
    pub key: OrderKey,
    /// The request itself.
    pub task: CopyTask,
    /// Byte ranges physically copied so far.
    pub copied: RefCell<IntervalSet>,
    /// Byte ranges currently handed to the dispatcher (in flight).
    pub inflight: RefCell<IntervalSet>,
    /// Byte ranges deferred by copy absorption (§4.4) — still owed, but
    /// intentionally off the fast path.
    pub deferred: RefCell<IntervalSet>,
    /// Don't execute deferred/lazy bytes before this virtual instant.
    pub defer_until: Cell<Nanos>,
    /// Byte ranges a Sync Task asked for (§4.2.2): they run ahead of the
    /// FIFO and of the lazy and deferral timers. A whole-task promotion is
    /// the full range `[0, len)`; a `csync` of part of a lazy task is the
    /// segments it touches. The promotion is over once those bytes landed.
    pub promoted: RefCell<IntervalSet>,
    /// Abort requested (§4.4): discard the remaining work.
    pub aborted: Cell<bool>,
    /// Planning failed (fault); the descriptor has been poisoned.
    pub failed: Cell<Option<CopyFault>>,
    /// When the task entered the window (drives lazy expiry).
    pub submitted_at: Nanos,
    /// Pinned frames to release at completion: `(space, frames)`.
    pub pins: RefCell<Vec<(Rc<AddressSpace>, Vec<FrameId>)>>,
    /// Set by the first finalizer — makes completion idempotent: an orphan
    /// sweep or an adoption may finalize an entry that a suspended round
    /// still holds in its batch.
    pub finalized: Cell<bool>,
}

impl PendEntry {
    /// A fresh window entry: nothing copied, deferred or promoted.
    pub fn new(tid: TaskId, key: OrderKey, task: CopyTask, submitted_at: Nanos) -> Self {
        PendEntry {
            tid,
            key,
            task,
            copied: RefCell::new(IntervalSet::new()),
            inflight: RefCell::new(IntervalSet::new()),
            deferred: RefCell::new(IntervalSet::new()),
            defer_until: Cell::new(Nanos::ZERO),
            promoted: RefCell::new(IntervalSet::new()),
            aborted: Cell::new(false),
            failed: Cell::new(None),
            submitted_at,
            pins: RefCell::new(Vec::new()),
            finalized: Cell::new(false),
        }
    }

    /// Promotes the task-relative bytes `[lo, hi)`.
    pub fn promote(&self, lo: usize, hi: usize) {
        self.promoted.borrow_mut().insert(lo, hi.min(self.task.len));
    }

    /// Promotes the whole task.
    pub fn promote_all(&self) {
        self.promote(0, self.task.len);
    }

    /// Whether promoted bytes are still to land.
    pub fn is_promoted(&self) -> bool {
        let copied = self.copied.borrow();
        self.promoted
            .borrow()
            .iter()
            .any(|(lo, hi)| !copied.covers(lo, hi))
    }

    /// Bytes not yet copied, aborted, or in flight.
    pub fn remaining(&self) -> usize {
        let done = self.copied.borrow().total() + self.inflight.borrow().total();
        self.task.len.saturating_sub(done)
    }

    /// Whether every byte has landed (or the task was cancelled).
    pub fn finished(&self) -> bool {
        self.aborted.get()
            || self.failed.get().is_some()
            || self.copied.borrow().covers(0, self.task.len)
    }

    /// Whether the task is lazy and still inside its lazy period: only its
    /// promoted bytes may run.
    fn held_lazy(&self, now: Nanos, lazy_period: Nanos) -> bool {
        self.task.lazy && now < self.submitted_at + lazy_period
    }

    /// Whether any byte of `[lo, hi)` is neither copied nor in flight nor,
    /// unless `force`, deferred. Walks the range skipping covered prefixes
    /// instead of materializing the gap list (the poll fast path).
    fn has_gap_in(&self, lo: usize, hi: usize, force: bool) -> bool {
        let copied = self.copied.borrow();
        let inflight = self.inflight.borrow();
        let deferred = self.deferred.borrow();
        let mut cur = lo;
        while cur < hi {
            if let Some(e) = copied.end_of_covering_range(cur) {
                cur = e;
                continue;
            }
            if let Some(e) = inflight.end_of_covering_range(cur) {
                cur = e;
                continue;
            }
            if !force {
                if let Some(e) = deferred.end_of_covering_range(cur) {
                    cur = e;
                    continue;
                }
            }
            return true;
        }
        false
    }

    /// Appends to `out` the parts of `[lo, hi)` still to copy, excluding
    /// deferred ranges unless `force`.
    fn gaps_in(&self, lo: usize, hi: usize, force: bool, out: &mut Vec<(usize, usize)>) {
        let copied = self.copied.borrow();
        let inflight = self.inflight.borrow();
        let deferred = self.deferred.borrow();
        for (s, e) in copied.gaps(lo, hi) {
            // Subtract in-flight pieces.
            for (s2, e2) in inflight.gaps(s, e) {
                if force {
                    out.push((s2, e2));
                } else {
                    out.extend(deferred.gaps(s2, e2));
                }
            }
        }
    }

    /// Whether [`Self::runnable_gaps_into`] would find any, without building
    /// the list.
    pub fn has_runnable_gaps(&self, now: Nanos, lazy_period: Nanos) -> bool {
        (!self.held_lazy(now, lazy_period)
            && self.has_gap_in(0, self.task.len, now >= self.defer_until.get()))
            || self
                .promoted
                .borrow()
                .iter()
                .any(|(lo, hi)| self.has_gap_in(lo, hi, true))
    }

    /// Fills `out` with the gaps a round at `now` may copy: every promoted
    /// byte, and — once a lazy task's period is over — every other byte
    /// that is not deferred, or all of them after the deferral timer.
    /// Bytes copied or in flight are never in it.
    pub fn runnable_gaps_into(
        &self,
        now: Nanos,
        lazy_period: Nanos,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        if !self.held_lazy(now, lazy_period) {
            self.gaps_in(0, self.task.len, now >= self.defer_until.get(), out);
        }
        let promoted = self.promoted.borrow();
        if promoted.is_empty() {
            return;
        }
        for (plo, phi) in promoted.iter() {
            self.gaps_in(plo, phi, true, out);
        }
        // Timed and promoted gaps may overlap: merge them.
        let mut all = IntervalSet::new();
        for &(lo, hi) in out.iter() {
            all.insert(lo, hi);
        }
        out.clear();
        out.extend(all.iter());
    }
}

/// A destination range a faulted copy never (fully) wrote. Remembered on
/// the owning set so that later-submitted tasks sourcing from the range
/// are failed in dependency order (§4.4) instead of silently reading
/// stale bytes; a fresh copy that fully overwrites the range clears it.
#[derive(Debug, Clone, Copy)]
pub struct TaintRange {
    /// Address-space id of the garbaged destination.
    pub space: u32,
    /// Start virtual address (inclusive).
    pub lo: u64,
    /// End virtual address (exclusive).
    pub hi: u64,
    /// The fault to propagate to dependents.
    pub fault: CopyFault,
}

/// A paired u-mode/k-mode queue set with its merge and window state.
pub struct QueueSet {
    /// u-mode queues (mapped into the client).
    pub uq: Rc<QueuePair>,
    /// k-mode queues (used by kernel services in this process context).
    pub kq: Rc<QueuePair>,
    /// Current k-mode barrier key (peer u-queue position at last barrier).
    pub cur_k_key: Cell<u64>,
    /// Count of u-mode copy tasks drained so far (the u key).
    pub u_index: Cell<u64>,
    /// Monotone drain sequence for stable ties.
    pub seq: Cell<u64>,
    /// The in-flight window, sorted by `key`.
    pub pending: RefCell<VecDeque<Rc<PendEntry>>>,
    /// Address index over the window's src/dst ranges, kept in lockstep
    /// with `pending` by the service (submit / finalize / reap).
    pub index: PendIndex,
    /// Destinations garbaged by faulted copies (bounded; oldest evicted).
    pub tainted: RefCell<Vec<TaintRange>>,
    /// Handlers that did not fit the (bounded) handler ring; drained by
    /// `post_handlers` before the ring so delivery order is preserved.
    /// Never dropped silently.
    pub handler_overflow: RefCell<VecDeque<Handler>>,
}

impl QueueSet {
    /// Creates an empty set with the given per-ring capacity.
    pub fn new(cap: usize) -> Rc<Self> {
        Rc::new(QueueSet {
            uq: QueuePair::new(cap),
            kq: QueuePair::new(cap),
            cur_k_key: Cell::new(0),
            u_index: Cell::new(0),
            seq: Cell::new(0),
            pending: RefCell::new(VecDeque::new()),
            index: PendIndex::new(),
            tainted: RefCell::new(Vec::new()),
            handler_overflow: RefCell::new(VecDeque::new()),
        })
    }

    /// Whether the address index exactly mirrors the pending window
    /// (invariant checked after chaos teardown).
    pub fn index_consistent(&self) -> Result<(), String> {
        self.index.check_against(self.pending.borrow().iter())
    }

    /// The queue pair for a privilege level.
    pub fn pair(&self, p: Privilege) -> &Rc<QueuePair> {
        match p {
            Privilege::K => &self.kq,
            Privilege::U => &self.uq,
        }
    }
}

/// A registered client.
pub struct Client {
    /// Identifier (also used to match Sync Tasks to spaces).
    pub id: ClientId,
    /// The client's user address space.
    pub uspace: Rc<AddressSpace>,
    /// Queue sets; index 0 is the default per-process set.
    pub sets: RefCell<Vec<Rc<QueueSet>>>,
    /// Scheduler state: total copied length (the CFS vruntime analogue).
    pub copied_total: Cell<u64>,
    /// The cgroup this client is charged to.
    pub cgroup: Cell<usize>,
    /// Signals delivered on unrecoverable faults (simulated SIGSEGV).
    pub signals: RefCell<Vec<CopyFault>>,
    /// Set by orphan reclamation when the owning process died; the library
    /// side must stop submitting and waiting.
    pub dead: Cell<bool>,
    /// Submission credits (the quota the service has granted this client).
    /// libCopier consumes one per copy submission; the service returns one
    /// on the completion path of each finished task. Shared state mapped
    /// into the client, like the CSH rings.
    pub credits: Cell<u64>,
    /// Credit-pool capacity (== the per-client in-flight task quota).
    pub credit_cap: Cell<u64>,
    /// Tasks currently in the service window (admission accounting).
    pub inflight_tasks: Cell<u64>,
    /// Bytes currently in the service window (admission accounting).
    pub inflight_bytes: Cell<u64>,
    /// Frames currently pinned on this client's behalf.
    pub pinned: Cell<u64>,
    /// Epoch of the service incarnation the client is attached to —
    /// stamped at registration and re-attach; the rings' epoch tag. A
    /// mismatch against the live service tells the library its rings
    /// predate a restart.
    pub epoch: Cell<u64>,
    /// Control-plane shard owning this client (DESIGN.md §17). Stamped by
    /// the service at registration/adoption from the deterministic hash of
    /// the client's address-space id; 0 at one shard. Every
    /// drain/schedule/finalize touch of this client happens on its shard.
    pub shard: Cell<usize>,
    /// Registration sequence number (DESIGN.md §18): stamped by the
    /// service at registration *and* adoption from a monotone counter, so
    /// iterating clients in `reg_seq` order is exactly their shard's list
    /// (registration) order, which the full sweep uses — scheduler
    /// tie-breaks stay identical under active-set iteration.
    pub reg_seq: Cell<u64>,
    /// The client's cells in its shard's incremental aggregates (§18):
    /// active-set membership and the cached trace-hash contribution.
    /// Written only by the types that own those invariants.
    pub(crate) marks: crate::service::Marks,
}

impl Client {
    /// Creates a client with one default queue set.
    pub fn new(id: ClientId, uspace: Rc<AddressSpace>, cap: usize) -> Rc<Self> {
        Rc::new(Client {
            id,
            uspace,
            sets: RefCell::new(vec![QueueSet::new(cap)]),
            copied_total: Cell::new(0),
            cgroup: Cell::new(0),
            signals: RefCell::new(Vec::new()),
            dead: Cell::new(false),
            credits: Cell::new(cap as u64),
            credit_cap: Cell::new(cap as u64),
            inflight_tasks: Cell::new(0),
            inflight_bytes: Cell::new(0),
            pinned: Cell::new(0),
            epoch: Cell::new(0),
            shard: Cell::new(0),
            reg_seq: Cell::new(0),
            marks: Default::default(),
        })
    }

    /// Resizes the credit pool (set by the service at registration from
    /// its admission quota). Outstanding credits are topped up to the cap.
    pub fn set_credit_cap(&self, cap: u64) {
        self.credit_cap.set(cap);
        self.credits.set(cap);
    }

    /// Consumes one submission credit; `false` means the pool is empty
    /// (the client is at its in-flight quota and must back off).
    pub fn take_credit(&self) -> bool {
        let c = self.credits.get();
        if c == 0 {
            return false;
        }
        self.credits.set(c - 1);
        true
    }

    /// Returns one credit to the pool, saturating at the cap. Called by
    /// the service on the completion path (and by the library when a
    /// submission it took a credit for never reached the ring).
    pub fn grant_credit(&self) {
        let c = self.credits.get();
        if c < self.credit_cap.get() {
            self.credits.set(c + 1);
        }
    }

    /// The default queue set.
    pub fn default_set(&self) -> Rc<QueueSet> {
        Rc::clone(&self.sets.borrow()[0])
    }

    /// Creates an additional per-thread queue set, returning its index
    /// (the `fd` of `copier_create_queue`).
    pub fn create_queue_set(&self, cap: usize) -> usize {
        let mut sets = self.sets.borrow_mut();
        sets.push(QueueSet::new(cap));
        sets.len() - 1
    }

    /// Queue set by index.
    pub fn set(&self, idx: usize) -> Rc<QueueSet> {
        Rc::clone(&self.sets.borrow()[idx])
    }

    /// Queue set by index, or `None` past the end — lets the service walk
    /// sets without snapshot-cloning the whole list each poll.
    pub fn set_at(&self, idx: usize) -> Option<Rc<QueueSet>> {
        self.sets.borrow().get(idx).map(Rc::clone)
    }

    /// Whether any set has queued or windowed work runnable at `now`
    /// (mirrors the service's batch-selection rules).
    pub fn has_work(&self, now: Nanos, lazy_period: Nanos) -> bool {
        if self.dead.get() {
            return false;
        }
        self.sets.borrow().iter().any(|s| {
            !s.uq.copy.is_empty()
                || !s.kq.copy.is_empty()
                || !s.uq.sync.is_empty()
                || !s.kq.sync.is_empty()
                || s.pending
                    .borrow()
                    .iter()
                    .any(|p| !p.finished() && p.has_runnable_gaps(now, lazy_period))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SegDescriptor;
    use copier_mem::{AllocPolicy, PhysMem, VirtAddr};

    fn dummy_task(len: usize) -> CopyTask {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let space = AddressSpace::new(1, pm);
        CopyTask {
            dst_space: Rc::clone(&space),
            dst: VirtAddr(0x1000),
            src_space: space,
            src: VirtAddr(0x9000),
            len,
            seg: 1024,
            descr: Rc::new(SegDescriptor::new(len, 1024)),
            func: None,
            lazy: false,
            verify: false,
        }
    }

    fn entry(len: usize) -> PendEntry {
        PendEntry::new(1, (0, 1, 0), dummy_task(len), Nanos::ZERO)
    }

    fn runnable_gaps(e: &PendEntry, now: Nanos, period: Nanos) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        e.runnable_gaps_into(now, period, &mut out);
        out
    }

    #[test]
    fn runnable_gaps_subtract_copied_inflight_deferred() {
        let e = entry(4096);
        e.copied.borrow_mut().insert(0, 1024);
        e.inflight.borrow_mut().insert(1024, 2048);
        e.deferred.borrow_mut().insert(3000, 4096);
        e.defer_until.set(Nanos(10));
        let period = Nanos(50);
        assert_eq!(runnable_gaps(&e, Nanos(9), period), vec![(2048, 3000)]);
        assert_eq!(runnable_gaps(&e, Nanos(10), period), vec![(2048, 4096)]);
        assert_eq!(e.remaining(), 4096 - 2048);
        assert!(!e.finished());
    }

    #[test]
    fn promoted_ranges_run_ahead_of_the_lazy_and_deferral_timers() {
        let period = Nanos(50);
        let mut t = dummy_task(4096);
        t.lazy = true;
        let e = PendEntry::new(1, (0, 1, 0), t, Nanos::ZERO);
        assert!(!e.has_runnable_gaps(Nanos(49), period));
        assert_eq!(runnable_gaps(&e, Nanos(49), period), vec![]);
        // One synced segment: it alone runs inside the lazy period, even
        // where an absorbing consumer deferred it.
        e.deferred.borrow_mut().insert(0, 4096);
        e.defer_until.set(Nanos(80));
        e.promote(1024, 2048);
        assert!(e.is_promoted() && e.has_runnable_gaps(Nanos(49), period));
        assert_eq!(runnable_gaps(&e, Nanos(49), period), vec![(1024, 2048)]);
        // Landed: the promotion is over, the rest waits for its timers.
        e.copied.borrow_mut().insert(1024, 2048);
        assert!(!e.is_promoted() && !e.has_runnable_gaps(Nanos(79), period));
        assert_eq!(
            runnable_gaps(&e, Nanos(80), period),
            vec![(0, 1024), (2048, 4096)]
        );
        // A whole-task promotion is the full range of the same set.
        let whole = PendEntry::new(2, (0, 1, 1), e.task.clone(), Nanos(100));
        whole.deferred.borrow_mut().insert(512, 1024);
        whole.defer_until.set(Nanos(300));
        whole.promote_all();
        assert_eq!(runnable_gaps(&whole, Nanos(101), period), vec![(0, 4096)]);
    }

    #[test]
    fn finished_via_copied_or_abort() {
        let e = entry(100);
        assert!(!e.finished());
        e.copied.borrow_mut().insert(0, 100);
        assert!(e.finished());
        let e2 = entry(100);
        e2.aborted.set(true);
        assert!(e2.finished());
    }

    #[test]
    fn client_work_detection() {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let space = AddressSpace::new(7, pm);
        let c = Client::new(7, space, 16);
        assert!(!c.has_work(Nanos::ZERO, Nanos::ZERO));
        let set = c.default_set();
        set.uq.copy.push(QueueEntry::Copy(dummy_task(64))).unwrap();
        assert!(c.has_work(Nanos::ZERO, Nanos::ZERO));
    }

    #[test]
    fn extra_queue_sets_are_independent() {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let space = AddressSpace::new(7, pm);
        let c = Client::new(7, space, 16);
        let fd = c.create_queue_set(16);
        assert_eq!(fd, 1);
        let s1 = c.set(1);
        s1.uq.copy.push(QueueEntry::Copy(dummy_task(64))).unwrap();
        assert!(c.set(0).uq.copy.is_empty());
        assert!(!c.set(1).uq.copy.is_empty());
    }
}
