//! libCopier: the high- and low-level client API (Table 2, §5.1).
//!
//! `amemcpy`/`csync` keep the familiar memcpy shape: submit asynchronously,
//! synchronize immediately before use. The handle maintains per-process
//! default queues, a descriptor pool, and the tracking table that lets
//! `csync(addr, len)` find the descriptor covering an address.
//!
//! Kernel services copy through [`CopierHandle::kernel_amemcpy`], which
//! plants the cross-queue barrier tasks of §4.2.1 around the copy. Every
//! copy takes one submission path, and every ring entry one bounded push.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::rc::Rc;

use copier_core::{
    Client, Copier, CopyFault, CopyTask, Handler, QueueEntry, QueueSet, Ring, RingFull,
    SegDescriptor, SyncTask,
};
use copier_hw::{CostModel, CpuCopyKind};
use copier_mem::{AddressSpace, VirtAddr};
use copier_sim::{Again, Core, Nanos};

use crate::pool::DescriptorPool;

/// Result of a csync: `Err` if the copy faulted or was aborted.
pub type CsyncResult = Result<(), CopyFault>;

/// Why a submission could not be placed. Every submission path ends in
/// success, a bounded-backoff retry, or one of these — never an unbounded
/// spin and never a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Nonblocking submission found no credit or ring slot available
    /// right now; retry after completions return credits.
    WouldBlock,
    /// The submission could not be placed even after bounded backoff —
    /// the service is overloaded (credit pool and ring stayed exhausted).
    Overloaded,
}

/// Result of an async-copy submission.
pub type SubmitResult = Result<Rc<SegDescriptor>, SubmitError>;

/// Backoffs a copy waits for a credit, or for a ring slot, before it
/// reports `Overloaded`. Generous — virtual milliseconds — so transient
/// bursts ride through, while true overload still surfaces as an error.
const SUBMIT_BUDGET: u32 = 32;
/// Backoffs an `abort` Sync Task waits for a slot; a `false` is benign.
const ABORT_BUDGET: u32 = 8;
/// Backoffs csync's promotion Sync Task waits for a slot. Promotion is an
/// optimization: the wait still ends once the copy lands in FIFO order.
const PROMOTE_BUDGET: u32 = 3;
/// Client-side spin step while waiting in csync or backing off.
const SPIN_STEP: Nanos = Nanos(200);

struct Tracked {
    space_id: u32,
    start: u64,
    len: usize,
    descr: Rc<SegDescriptor>,
}

/// Whether a tracked copy leaves nothing to wait for: it faulted, or every
/// byte landed — and, for a zero-length copy (born with every byte
/// landed), the service has settled it.
fn retired(d: &SegDescriptor) -> bool {
    d.fault().is_some() || (d.all_ready() && (!d.is_empty() || d.delivered()))
}

/// Options for the low-level `_amemcpy` (§5.1, Table 2), `try_amemcpy`
/// and `kernel_amemcpy`.
#[derive(Default)]
pub struct AmemcpyOpts {
    /// Queue-set index (the `fd`); 0 = the per-process default queues.
    pub fd: usize,
    /// Post-copy handler.
    pub func: Option<Handler>,
    /// Customized descriptor (reuse for recycled I/O buffers); `None`
    /// draws from the pool.
    pub descr: Option<Rc<SegDescriptor>>,
    /// Mark the task lazy (§4.4).
    pub lazy: bool,
    /// Segment granularity; 0 = the service default.
    pub seg: usize,
    /// Source address space override (`None` = the process space).
    pub src_space: Option<Rc<AddressSpace>>,
    /// Destination address space override.
    pub dst_space: Option<Rc<AddressSpace>>,
    /// Skip the tracking table (caller keeps the descriptor and uses
    /// `_csync` with it directly).
    pub untracked: bool,
    /// Force full end-to-end verification for this task (§integrity):
    /// the dispatcher digests the whole source extent at dispatch and
    /// re-digests the destination at completion, regardless of the
    /// service-wide `VerifyPolicy`. Set by `amemcpy_verified`.
    pub verified: bool,
}

/// The front-end a copy came in through: it picks the ring, how long the
/// submission may wait, and the rules only `_amemcpy` has.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    /// `try_amemcpy`: one look at the credit pool and the u-ring.
    Try,
    /// `_amemcpy`: the u-ring, with bounded backoff.
    User,
    /// `kernel_amemcpy`: the k-ring, with bounded backoff.
    Kernel,
}

/// A per-process libCopier instance.
pub struct CopierHandle {
    /// The service incarnation this handle currently talks to; swapped
    /// by [`CopierHandle::reattach`] after a crash–restart.
    svc: RefCell<Rc<Copier>>,
    /// The registered client (queues and scheduler state).
    pub client: Rc<Client>,
    cost: Rc<CostModel>,
    /// The process's user address space.
    pub uspace: Rc<AddressSpace>,
    pool: DescriptorPool,
    tracked: RefCell<Vec<Tracked>>,
    /// §4.6 synchronous copies performed because the service was down.
    sync_fallbacks: Cell<u64>,
    /// Tasks submitted with per-task full verification
    /// (`amemcpy_verified`).
    verified_submitted: Cell<u64>,
    /// `Corrupted` faults this client observed through csync — copies
    /// whose destination failed end-to-end verification past repair.
    corrupted_seen: Cell<u64>,
}

impl CopierHandle {
    /// Registers a process with the service (`copier_create_mapped_queue`).
    pub fn new(svc: &Rc<Copier>, uspace: Rc<AddressSpace>) -> Rc<Self> {
        let client = svc.register_client(Rc::clone(&uspace));
        Rc::new(CopierHandle {
            svc: RefCell::new(Rc::clone(svc)),
            client,
            cost: Rc::clone(svc.cost_model()),
            uspace,
            pool: DescriptorPool::new(),
            tracked: RefCell::new(Vec::new()),
            sync_fallbacks: Cell::new(0),
            verified_submitted: Cell::new(0),
            corrupted_seen: Cell::new(0),
        })
    }

    /// The service incarnation this handle currently talks to (never hold
    /// the borrow across an await: every use clones the `Rc` out).
    pub fn service(&self) -> Rc<Copier> {
        Rc::clone(&self.svc.borrow())
    }

    /// The control-plane shard serving this client (DESIGN.md §17):
    /// always 0 on an unsharded service. Purely observational — the
    /// library never routes by shard; the service stamps ownership at
    /// registration/adoption from the address-space hash.
    pub fn shard(&self) -> usize {
        self.client.shard.get()
    }

    /// Submission doorbell: marks this client active on its shard so the
    /// O(active) control plane (DESIGN.md §18) sees the freshly queued
    /// work, then wakes the service. Used on every path that lands an
    /// entry in a ring; paths that failed to land anything keep the
    /// plain `awaken`.
    fn doorbell(&self) {
        self.service().doorbell(&self.client);
    }

    /// Synchronous fallback copies performed while the service was down.
    pub fn sync_fallbacks(&self) -> u64 {
        self.sync_fallbacks.get()
    }

    /// Per-client integrity counters:
    /// `(verified_submitted, corrupted_seen)`.
    pub fn integrity_stats(&self) -> (u64, u64) {
        (self.verified_submitted.get(), self.corrupted_seen.get())
    }

    /// Re-attaches this handle to a restarted service incarnation
    /// (DESIGN.md §15 client side). The client's rings, window, credits
    /// and descriptors all live in client-owned memory and survived the
    /// crash; `adopt_client` reconciles them against the new
    /// incarnation's replayed journal and hands back the tasks whose
    /// admission never became durable. Those are resubmitted here —
    /// they still hold their original submission credits, so they go
    /// straight back into the rings without re-taking one. Returns the
    /// number of tasks resubmitted.
    pub async fn reattach(self: &Rc<Self>, core: &Rc<Core>, new_svc: &Rc<Copier>) -> usize {
        let dropped = new_svc.adopt_client(&self.client);
        *self.svc.borrow_mut() = Rc::clone(new_svc);
        let mut n = 0usize;
        for (set_idx, task) in dropped {
            // The drop rolled the task back to "submitted, not yet
            // admitted". Admissions journal before any of their bytes
            // move, so the descriptor carries no real progress; reset
            // re-arms recycled descriptors whose bits predate this
            // submission.
            task.descr.reset();
            let descr = Rc::clone(&task.descr);
            let set = self.client.set(set_idx as usize);
            let entry = QueueEntry::Copy(task);
            if self
                .push_bounded(core, &set.uq.copy, SUBMIT_BUDGET, entry, |e| e, || false)
                .await
            {
                n += 1;
            } else {
                // The ring stayed full across the whole budget: surface a
                // typed overload and return the credit the original
                // submission still holds.
                descr.poison(CopyFault::Overloaded);
                self.client.grant_credit();
            }
        }
        new_svc.doorbell(&self.client);
        n
    }

    /// Creates an extra per-thread queue set (`copier_create_queue`);
    /// returns its fd.
    pub fn create_queue(&self, cap: usize) -> usize {
        self.client.create_queue_set(cap)
    }

    /// One bounded-backoff step: wake the service, then spin (early
    /// attempts, cache-warm) or sleep with exponentially growing slices
    /// (later attempts) so a blocked submitter never monopolizes its core.
    async fn backoff(&self, core: &Rc<Core>, attempt: u32) {
        let svc = self.service();
        svc.awaken();
        if attempt < 4 {
            core.advance(SPIN_STEP).await;
        } else {
            let exp = (attempt - 4).min(10);
            let ns = (SPIN_STEP.as_nanos() << exp).min(200_000);
            svc.sim_handle().sleep(Nanos(ns)).await;
        }
    }

    /// The one bounded ring push: offers `entry` to `ring` up to
    /// `budget + 1` times with a backoff between misses, so `budget` 0 is
    /// a single attempt that spends no time. After a miss, `give_up` ends
    /// the retry at once; before each retry, `refresh` rebuilds the entry
    /// (a barrier re-reads its peer position). Returns whether it landed.
    async fn push_bounded<T>(
        &self,
        core: &Rc<Core>,
        ring: &Ring<T>,
        budget: u32,
        mut entry: T,
        refresh: impl Fn(T) -> T,
        give_up: impl Fn() -> bool,
    ) -> bool {
        let mut attempt = 0;
        loop {
            match ring.push(entry) {
                Ok(()) => return true,
                Err(RingFull(back)) => entry = back,
            }
            if give_up() || attempt == budget {
                return false;
            }
            self.backoff(core, attempt).await;
            attempt += 1;
            entry = refresh(entry);
        }
    }

    /// Acquires a submission credit with bounded backoff. `Err` means the
    /// pool stayed empty across the whole retry budget — the client is at
    /// its in-flight quota and the caller must surface `Overloaded`.
    async fn acquire_credit(&self, core: &Rc<Core>) -> Result<(), SubmitError> {
        let mut attempt = 0u32;
        while !self.client.take_credit() {
            if self.client.dead.get() {
                // A dead client's credits never refill; the caller's
                // dead-check right after handles it.
                return Ok(());
            }
            if attempt >= SUBMIT_BUDGET {
                return Err(SubmitError::Overloaded);
            }
            self.backoff(core, attempt).await;
            attempt += 1;
        }
        Ok(())
    }

    /// High-level async memcpy on the default queues (Table 2).
    pub async fn amemcpy(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
    ) -> SubmitResult {
        self._amemcpy(core, dst, src, len, AmemcpyOpts::default())
            .await
    }

    /// Verified async memcpy (§integrity): like [`CopierHandle::amemcpy`]
    /// but the service digests the whole source extent at dispatch and
    /// re-checks the destination at completion, regardless of the
    /// service-wide `VerifyPolicy`. Silent corruption on the copy path is
    /// either repaired before the descriptor completes or surfaced as
    /// [`CopyFault::Corrupted`] through csync.
    pub async fn amemcpy_verified(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
    ) -> SubmitResult {
        self._amemcpy(
            core,
            dst,
            src,
            len,
            AmemcpyOpts {
                verified: true,
                ..AmemcpyOpts::default()
            },
        )
        .await
    }

    /// Registers a long-lived buffer pair with the service's background
    /// scrubber: `primary` is guarded against silent bit-rot, `replica`
    /// must hold the same bytes and is the heal source. Both live in this
    /// process's address space.
    pub fn register_scrub(&self, primary: VirtAddr, replica: VirtAddr, len: usize, chunk: usize) {
        let svc = self.service();
        svc.register_scrub_region(&self.client, &self.uspace, primary, replica, len, chunk);
    }

    /// Nonblocking async memcpy: submits only if a credit and a ring slot
    /// are available right now, otherwise fails with `WouldBlock` without
    /// burning any wait time.
    pub fn try_amemcpy<'a>(
        self: &'a Rc<Self>,
        core: &'a Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> impl Future<Output = SubmitResult> + 'a {
        self.submit(Via::Try, core, dst, src, len, opts)
    }

    /// Low-level async memcpy with full options (Table 2). Blocks at most
    /// a bounded backoff budget: past it the submission fails with a typed
    /// [`SubmitError::Overloaded`] instead of spinning forever.
    pub fn _amemcpy<'a>(
        self: &'a Rc<Self>,
        core: &'a Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> impl Future<Output = SubmitResult> + 'a {
        self.submit(Via::User, core, dst, src, len, opts)
    }

    /// A k-mode copy, as a kernel service issues it inside a simulated
    /// trap (§4.2.1): a barrier recording the u-ring's position at trap
    /// entry, the copy on the k-ring, and the return-to-user barrier.
    /// `opts` names the queue set and the kernel side's address space; the
    /// copy is tracked so user-side `csync` finds it. `Err` means no copy
    /// was queued — the caller copies synchronously instead (§4.6).
    pub async fn kernel_amemcpy(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> SubmitResult {
        let set = self.client.set(opts.fd);
        // Without the trap-entry barrier the k/u merge order is wrong: it
        // is a prerequisite of the copy, not a best-effort nicety.
        if !self.plant_barrier(core, &set).await {
            return Err(SubmitError::Overloaded);
        }
        let copied = self.submit(Via::Kernel, core, dst, src, len, opts).await;
        self.plant_barrier(core, &set).await;
        copied
    }

    /// The one submission path behind [`Self::try_amemcpy`],
    /// [`Self::_amemcpy`] and [`Self::kernel_amemcpy`]: credit, build,
    /// `task_submit`, push, track, doorbell. A copy that found no room
    /// returns its credit and fails typed; a reaped client's copy ends as
    /// an `Aborted` tombstone that csync still finds (a real process would
    /// be gone; this covers exit races).
    async fn submit(
        &self,
        via: Via,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: AmemcpyOpts,
    ) -> SubmitResult {
        // §4.6 availability fallback: between a service crash and the
        // supervisor's restart there is nobody to drain the rings, so
        // `_amemcpy` copies on the caller's core instead — the call still
        // returns a completed (or faulted) descriptor, without a credit.
        let crashed = via == Via::User && self.service().has_crashed();
        if via == Via::Try {
            if !self.client.take_credit() {
                return Err(SubmitError::WouldBlock);
            }
        } else if !crashed {
            self.acquire_credit(core).await.inspect_err(|_| {
                if let Some(d) = &opts.descr {
                    d.reset();
                    d.poison(CopyFault::Overloaded);
                }
            })?;
        }
        let (descr, task) = self.build_task(dst, src, len, &opts);
        let space_id = task.dst_space.id();
        let mut landed = false;
        if crashed {
            self.sync_fallback(core, task).await;
        } else {
            core.advance(self.cost.task_submit).await;
            let user = via != Via::Kernel;
            let reaped = || self.client.dead.get();
            if !reaped() {
                let set = self.client.set(opts.fd);
                let ring = if user { &set.uq.copy } else { &set.kq.copy };
                let budget = if via == Via::Try { 0 } else { SUBMIT_BUDGET };
                let entry = QueueEntry::Copy(task);
                // Only a user-ring retry also stops at a reap mid-backoff.
                landed = self
                    .push_bounded(core, ring, budget, entry, |e| e, || user && reaped())
                    .await;
                if !(landed || user && reaped()) {
                    // The budget ran out with nothing queued.
                    self.client.grant_credit();
                    if via == Via::Try {
                        self.service().awaken();
                        return Err(SubmitError::WouldBlock);
                    }
                    descr.poison(CopyFault::Overloaded);
                    return Err(SubmitError::Overloaded);
                }
            }
            if !landed {
                descr.poison(CopyFault::Aborted);
            }
        }
        if !opts.untracked {
            self.track(space_id, dst, len, Rc::clone(&descr));
        }
        if landed {
            self.doorbell();
        }
        Ok(descr)
    }

    /// Plants a §4.2.1 barrier in the k-ring. It records the u-ring's
    /// position, re-read on every attempt since the u-ring may move while
    /// this one backs off. Its budget ends in a backoff, not an attempt:
    /// `SUBMIT_BUDGET` of each.
    async fn plant_barrier(&self, core: &Rc<Core>, set: &QueueSet) -> bool {
        let barrier = || QueueEntry::Barrier {
            peer_pos: set.uq.copy.pushed(),
        };
        let last = SUBMIT_BUDGET - 1;
        let planted = self
            .push_bounded(core, &set.kq.copy, last, barrier(), |_| barrier(), || false)
            .await;
        if planted {
            // The barrier sits in the k-ring until drained: ring the
            // doorbell so the O(active) fast path sees it.
            self.doorbell();
        } else {
            self.backoff(core, last).await;
        }
        planted
    }

    /// The crash-window synchronous path (§4.6): performs the copy
    /// inline, marks every segment, and settles the completion side
    /// effects (handler, no credit was ever taken) under the same
    /// exactly-once claim the service uses — so a duplicate settle after
    /// recovery is impossible by construction.
    async fn sync_fallback(&self, core: &Rc<Core>, task: CopyTask) {
        let r = crate::syncops::sync_copy(
            core,
            &self.cost,
            CpuCopyKind::Avx2,
            &task.dst_space,
            task.dst,
            &task.src_space,
            task.src,
            task.len,
        )
        .await;
        let descr = &task.descr;
        match r {
            Ok(_) => {
                // A zero-length descriptor has no segment to mark.
                if let Some(last) = descr.num_segments().checked_sub(1) {
                    descr.mark_range(0, last);
                }
                if descr.claim_delivery() {
                    if let Some(Handler::UFunc(f)) = &task.func {
                        f();
                    }
                }
            }
            Err(e) => descr.poison(e.into()),
        }
        self.sync_fallbacks.set(self.sync_fallbacks.get() + 1);
    }

    /// Builds the descriptor and task for a submission.
    fn build_task(
        &self,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
        opts: &AmemcpyOpts,
    ) -> (Rc<SegDescriptor>, CopyTask) {
        // `len == 0` is legal, like `memcpy(d, s, 0)`: the descriptor is
        // born all-ready and the service completes the task at the drain
        // boundary without touching memory.
        let seg = if opts.seg == 0 {
            self.service().config().segment
        } else {
            opts.seg
        };
        let descr = match &opts.descr {
            Some(d) => {
                assert!(d.len() == len && d.segment_size() == seg);
                d.reset();
                Rc::clone(d)
            }
            None => self.pool.take(len, seg),
        };
        let space = |s: &Option<Rc<AddressSpace>>| Rc::clone(s.as_ref().unwrap_or(&self.uspace));
        if opts.verified {
            self.verified_submitted
                .set(self.verified_submitted.get() + 1);
        }
        let task = CopyTask {
            dst_space: space(&opts.dst_space),
            dst,
            src_space: space(&opts.src_space),
            src,
            len,
            seg,
            descr: Rc::clone(&descr),
            func: opts.func.clone(),
            lazy: opts.lazy,
            verify: opts.verified,
        };
        (descr, task)
    }

    /// Async memmove: overlapping ranges are split so no task's source is
    /// overwritten before it is read (§4.1 footnote 3). On `Overloaded`
    /// the already-submitted chunks stay in flight (their descriptors are
    /// in the tracking table; `csync` over the range finds them).
    pub async fn amemmove(
        self: &Rc<Self>,
        core: &Rc<Core>,
        dst: VirtAddr,
        src: VirtAddr,
        len: usize,
    ) -> Result<Vec<Rc<SegDescriptor>>, SubmitError> {
        let (d, s) = (dst.0, src.0);
        let overlap = d < s + len as u64 && s < d + len as u64 && d != s;
        if !overlap {
            return Ok(vec![self.amemcpy(core, dst, src, len).await?]);
        }
        let shift = d.abs_diff(s) as usize;
        // Heavy self-overlap degenerates to many chunks; bounce through a
        // synchronous copy below 1/16 shift (documented fallback).
        if shift < len / 16 {
            let moved =
                crate::syncops::sync_memmove(core, &self.cost, &self.uspace, dst, src, len).await;
            let Err(e) = moved else {
                return Ok(Vec::new());
            };
            // A fault ends like any client fault: a poisoned descriptor
            // that `csync(dst, len)` reports.
            let descr = self.pool.take(len, self.service().config().segment);
            descr.poison(e.into());
            self.track(self.uspace.id(), dst, len, Rc::clone(&descr));
            return Ok(vec![descr]);
        }
        let mut out = Vec::new();
        if d > s {
            // Forward overlap: submit tail chunks first.
            let mut end = len;
            while end > 0 {
                let start = end.saturating_sub(shift);
                out.push(
                    self.amemcpy(core, dst.add(start), src.add(start), end - start)
                        .await?,
                );
                end = start;
            }
        } else {
            let mut start = 0;
            while start < len {
                let take = shift.min(len - start);
                out.push(
                    self.amemcpy(core, dst.add(start), src.add(start), take)
                        .await?,
                );
                start += take;
            }
        }
        Ok(out)
    }

    /// Registers a copy so `csync` can find it by destination address.
    fn track(&self, space_id: u32, start: VirtAddr, len: usize, descr: Rc<SegDescriptor>) {
        let mut t = self.tracked.borrow_mut();
        if t.len() > 128 {
            t.retain(|x| !retired(&x.descr));
            self.pool.recycle();
        }
        t.push(Tracked {
            space_id,
            start: start.0,
            len,
            descr,
        });
    }

    /// High-level csync (Table 2): block until `[addr, addr+len)` of prior
    /// async copies is ready for use.
    pub async fn csync(
        self: &Rc<Self>,
        core: &Rc<Core>,
        addr: VirtAddr,
        len: usize,
    ) -> CsyncResult {
        self.csync_in(core, self.uspace.id(), addr, len, 0).await
    }

    /// csync against an explicit address space and queue set.
    pub async fn csync_in(
        self: &Rc<Self>,
        core: &Rc<Core>,
        space_id: u32,
        addr: VirtAddr,
        len: usize,
        fd: usize,
    ) -> CsyncResult {
        core.advance(self.cost.csync_hit).await;
        let lo = addr.0;
        let hi = addr.0 + len as u64;
        // Collect overlapping tracked copies (newest last; all must hold).
        let waits: Vec<(Rc<SegDescriptor>, usize, usize)> = self
            .tracked
            .borrow()
            .iter()
            .filter(|t| t.space_id == space_id && t.start < hi && lo < t.start + t.len as u64)
            .map(|t| {
                let s = lo.max(t.start) - t.start;
                let e = hi.min(t.start + t.len as u64) - t.start;
                (Rc::clone(&t.descr), s as usize, e as usize)
            })
            .collect();
        for (descr, s, e) in waits {
            match self
                .wait_descr(core, &descr, s, e - s, space_id, addr, len, fd)
                .await
            {
                // An aborted copy was explicitly discarded by this client
                // (§4.4); a later csync over the same buffer must not
                // trip over its tombstone.
                Err(CopyFault::Aborted) => continue,
                Err(fault) => {
                    // A real fault is reported exactly once (errno
                    // semantics): consume the tombstone so later copies
                    // into the same buffer aren't shadowed by it.
                    self.tracked
                        .borrow_mut()
                        .retain(|t| !Rc::ptr_eq(&t.descr, &descr));
                    return Err(fault);
                }
                Ok(()) => {}
            }
        }
        Ok(())
    }

    /// `_csync` (Table 2): wait on a caller-managed descriptor directly,
    /// skipping the tracking-table lookup.
    #[allow(clippy::too_many_arguments)]
    pub async fn _csync(
        self: &Rc<Self>,
        core: &Rc<Core>,
        descr: &Rc<SegDescriptor>,
        off: usize,
        len: usize,
        space_id: u32,
        addr: VirtAddr,
        fd: usize,
    ) -> CsyncResult {
        core.advance(self.cost.csync_hit).await;
        self.wait_descr(core, descr, off, len, space_id, addr, len, fd)
            .await
    }

    #[allow(clippy::too_many_arguments)]
    async fn wait_descr(
        self: &Rc<Self>,
        core: &Rc<Core>,
        descr: &Rc<SegDescriptor>,
        off: usize,
        len: usize,
        space_id: u32,
        addr: VirtAddr,
        sync_len: usize,
        fd: usize,
    ) -> CsyncResult {
        // `Some` once there is nothing left to wait for.
        let outcome = || {
            if let Some(f) = descr.fault() {
                if f == CopyFault::Corrupted {
                    self.corrupted_seen.set(self.corrupted_seen.get() + 1);
                }
                return Some(Err(f));
            }
            descr.range_ready(off, len).then_some(Ok(()))
        };
        if let Some(done) = outcome() {
            return done;
        }
        // Submit a Sync Task to promote the segments (§4.1), then poll the
        // descriptor — the client-side blocking cost is real spin time.
        core.advance(self.cost.task_submit).await;
        let set = self.client.set(fd);
        let promote = SyncTask {
            space_id,
            addr,
            len: sync_len,
            abort: false,
            target: None,
        };
        self.push_bounded(core, &set.uq.sync, PROMOTE_BUDGET, promote, |e| e, || false)
            .await;
        self.doorbell();
        let d = Rc::clone(descr);
        self.spin_until(core, move || d.fault().is_some() || d.range_ready(off, len))
            .await;
        // Neither faulted nor ready: the client was reaped mid-wait.
        outcome().unwrap_or(Err(CopyFault::Aborted))
    }

    /// Polls `done` the way a blocked csync waits: spin briefly (the
    /// paper's polling wait, `SPIN_STEP` quanta answered by the core), then
    /// yield the core in slices — on a saturated machine a blocked csync
    /// must not starve co-scheduled work (sched_yield behavior). Also
    /// returns once the client is reaped: it will never be served again,
    /// so the waiter must not spin forever.
    async fn spin_until(&self, core: &Rc<Core>, done: impl Fn() -> bool + Clone + 'static) {
        let client = Rc::clone(&self.client);
        let waiting = move || !done() && !client.dead.get();
        if !waiting() {
            return;
        }
        let h = self.service().sim_handle();
        let spin_deadline = h.now() + Nanos::from_micros(2);
        let spinning = waiting.clone();
        let again: Again = Rc::new(move |at| spinning() && at < spin_deadline);
        core.spin(SPIN_STEP, &again).await;
        while waiting() {
            h.sleep(Nanos(500)).await;
        }
    }

    /// `csync_all` (Table 2): waits for every tracked async copy, then
    /// runs pending user handlers.
    ///
    /// A zero-length copy is born complete, so there are no bytes to wait
    /// for; `csync_all` waits for the service to settle it instead (its
    /// handler delivered, its credit returned). No zero-length submission
    /// is still sitting in the ring when this returns — so, exactly as for
    /// a copy with bytes, the call blocks while the service is not serving
    /// (a `ScenarioDriven` service outside its scenario) and returns once
    /// it is. A caller-owned descriptor reused for a later submission
    /// (legal only once the earlier one has settled) is waited on for the
    /// later one: `reset` re-arms `delivered` with everything else.
    pub async fn csync_all(self: &Rc<Self>, core: &Rc<Core>) -> CsyncResult {
        let snapshot: Vec<(u32, u64, usize, Rc<SegDescriptor>)> = self
            .tracked
            .borrow()
            .iter()
            .map(|t| (t.space_id, t.start, t.len, Rc::clone(&t.descr)))
            .collect();
        let mut result = Ok(());
        for (sp, start, len, d) in snapshot {
            if d.is_empty() {
                let d = Rc::clone(&d);
                self.spin_until(core, move || retired(&d)).await;
            }
            if let Err(e) = self
                .wait_descr(core, &d, 0, len, sp, VirtAddr(start), len, 0)
                .await
            {
                // Aborted tasks are an expected way to retire tracked
                // copies; real faults are surfaced.
                if e != CopyFault::Aborted {
                    result = Err(e);
                }
            }
        }
        self.post_handlers(core).await;
        self.prune();
        result
    }

    /// Submits an `abort` Sync Task (§4.4) discarding a queued copy.
    /// Returns whether the request was placed; a `false` under overload
    /// is benign — the copy simply completes normally.
    pub fn abort<'a>(
        self: &'a Rc<Self>,
        core: &'a Rc<Core>,
        addr: VirtAddr,
        len: usize,
    ) -> impl Future<Output = bool> + 'a {
        let st = SyncTask {
            space_id: self.uspace.id(),
            addr,
            len,
            abort: true,
            target: None,
        };
        self.submit_abort(core, 0, st)
    }

    /// `abort` a specific task by its descriptor — immune to buffer reuse
    /// races (the preferred form for recycled I/O buffers).
    pub fn abort_task<'a>(
        self: &'a Rc<Self>,
        core: &'a Rc<Core>,
        descr: &Rc<SegDescriptor>,
        fd: usize,
    ) -> impl Future<Output = bool> + 'a {
        let st = SyncTask {
            space_id: 0,
            addr: VirtAddr(0),
            len: 0,
            abort: true,
            target: Some(Rc::clone(descr)),
        };
        self.submit_abort(core, fd, st)
    }

    /// Charges `task_submit` and places an abort Sync Task within
    /// `ABORT_BUDGET`; `false` means the sync ring stayed full.
    async fn submit_abort(&self, core: &Rc<Core>, fd: usize, st: SyncTask) -> bool {
        core.advance(self.cost.task_submit).await;
        let set = self.client.set(fd);
        let placed = self
            .push_bounded(core, &set.uq.sync, ABORT_BUDGET, st, |e| e, || false)
            .await;
        if placed {
            self.doorbell();
        }
        placed
    }

    /// Runs completed UFUNC handlers (Fig. 4 `post_handlers`). Handlers
    /// that overflowed the bounded ring are drained first so delivery
    /// order is preserved (overflow entries are always older).
    pub async fn post_handlers(self: &Rc<Self>, core: &Rc<Core>) -> usize {
        let mut n = 0;
        let sets: Vec<_> = self.client.sets.borrow().iter().cloned().collect();
        for set in sets {
            let overflow = std::iter::from_fn(|| set.handler_overflow.borrow_mut().pop_front());
            for h in overflow.chain(std::iter::from_fn(|| set.uq.handler.pop())) {
                if let Handler::UFunc(f) = h {
                    core.advance(Nanos(60)).await;
                    f();
                    n += 1;
                }
            }
        }
        n
    }

    /// Drops completed entries from the tracking table and recycles their
    /// descriptors into the pool.
    pub fn prune(&self) {
        self.tracked.borrow_mut().retain(|t| !retired(&t.descr));
        self.pool.recycle();
    }

    /// Binds a descriptor registry to a shared-memory region (Table 2's
    /// `shm_descr_bind`). Producers `attach` per-message descriptors;
    /// consumers `csync_shm` by offset.
    pub fn shm_descr_bind(&self, base: VirtAddr, len: usize) -> Rc<ShmBinding> {
        Rc::new(ShmBinding {
            base,
            len,
            descrs: RefCell::new(std::collections::BTreeMap::new()),
        })
    }

    /// Descriptor-pool statistics `(allocs, reuses)`.
    pub fn pool_stats(&self) -> (u64, u64) {
        self.pool.stats()
    }
}

/// A descriptor binding for a shared-memory region (`shm_descr_bind`,
/// Table 2): producers attach the descriptor of each message they copy
/// into the region; consumers `csync` by offset without any table lookup.
/// Android-Binder-style IPC is the canonical user (§5.1).
pub struct ShmBinding {
    base: VirtAddr,
    len: usize,
    descrs: RefCell<std::collections::BTreeMap<u64, (usize, Rc<SegDescriptor>)>>,
}

impl ShmBinding {
    /// Registers the descriptor covering `[off, off+len)` of the region.
    pub fn attach(&self, off: usize, len: usize, descr: Rc<SegDescriptor>) {
        assert!(off + len <= self.len, "binding outside the region");
        self.descrs.borrow_mut().insert(off as u64, (len, descr));
    }

    /// The region's base address.
    pub fn base(&self) -> VirtAddr {
        self.base
    }

    /// Waits until `[off, off+len)` of the shared region is ready.
    pub async fn csync_shm(
        &self,
        lib: &Rc<CopierHandle>,
        core: &Rc<Core>,
        off: usize,
        len: usize,
    ) -> CsyncResult {
        let targets: Vec<(Rc<SegDescriptor>, usize, usize)> = self
            .descrs
            .borrow()
            .iter()
            .filter(|(&s, (l, _))| (s as usize) < off + len && off < s as usize + l)
            .map(|(&s, (l, d))| {
                let lo = off.max(s as usize) - s as usize;
                let hi = (off + len).min(s as usize + l) - s as usize;
                (Rc::clone(d), lo, hi)
            })
            .collect();
        for (d, lo, hi) in targets {
            lib._csync(core, &d, lo, hi - lo, 0, self.base.add(off), 0)
                .await?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_core::{Copier, CopierConfig};
    use copier_mem::{AllocPolicy, PhysMem, Prot};
    use copier_sim::{FaultConfig, FaultPlan, Machine, Sim};

    /// The crash-window fallback marks a finished descriptor whole — a
    /// zero-length one (no segment to mark) and one spanning several
    /// bitmap words both come back `all_ready()`.
    #[test]
    fn sync_fallback_marks_every_segment() {
        const SEG: usize = 64;
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let pm = Rc::new(PhysMem::new(256, AllocPolicy::Sequential));
        // The first drained submission kills the service (MidDrain).
        let plan = FaultPlan::new(FaultConfig {
            crash_prob: 1.0,
            max_crashes: 1,
            ..Default::default()
        });
        let svc = Copier::new(
            &h,
            Rc::clone(&pm),
            vec![machine.core(1)],
            Rc::new(CostModel::default()),
            CopierConfig {
                fault_plan: Some(plan),
                ..Default::default()
            },
        );
        svc.start();
        let space = AddressSpace::new(1, pm);
        let lib = CopierHandle::new(&svc, Rc::clone(&space));
        let core = machine.core(0);
        let len = 300 * SEG;
        let src = space.mmap(len, Prot::RW, true).unwrap();
        let dst = space.mmap(len, Prot::RW, true).unwrap();
        let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        space.write_bytes(src, &bytes).unwrap();
        let checked = Rc::new(Cell::new(false));
        let checked2 = Rc::clone(&checked);
        sim.spawn("client", async move {
            lib.amemcpy(&core, dst, src, SEG).await.expect("admitted");
            while !svc.has_crashed() {
                h.sleep(Nanos(1_000)).await;
            }
            for len in [0, len] {
                let opts = AmemcpyOpts {
                    seg: SEG,
                    ..Default::default()
                };
                let d = lib._amemcpy(&core, dst, src, len, opts).await.unwrap();
                assert_eq!(d.num_segments(), len / SEG);
                assert!(d.all_ready() && d.fault().is_none(), "len {len}");
                assert_eq!(d.ready_segments(), len / SEG);
            }
            assert_eq!(lib.sync_fallbacks(), 2);
            let mut got = vec![0u8; len];
            space.read_bytes(dst, &mut got).unwrap();
            assert_eq!(got, bytes);
            checked2.set(true);
        });
        sim.run();
        assert!(checked.get(), "the client task ran to its end");
    }

    /// The client half of ROADMAP item 5's poll-depth proxy (the service's
    /// round is `copier-core`'s `round_future_size_is_bounded`): every
    /// copy's future is `submit`'s, a k-mode one inside
    /// `kernel_amemcpy`'s. Reported, and bounded about 10 % above what they
    /// were when the bound was set (704 and 888 B, debug and release
    /// alike), so a new `async fn` layer shows.
    #[test]
    fn submit_future_size_is_bounded() {
        const SUBMIT_MAX: usize = 776;
        const KERNEL_MAX: usize = 976;
        let sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let svc = Copier::new(
            &h,
            Rc::clone(&pm),
            vec![machine.core(1)],
            Rc::new(CostModel::default()),
            CopierConfig::default(),
        );
        let lib = CopierHandle::new(&svc, AddressSpace::new(1, pm));
        let (core, at) = (machine.core(0), VirtAddr(0));
        let opts = AmemcpyOpts::default;
        let submit = std::mem::size_of_val(&lib.submit(Via::User, &core, at, at, 0, opts()));
        let kernel = std::mem::size_of_val(&lib.kernel_amemcpy(&core, at, at, 0, opts()));
        println!("future sizes: submit {submit} B, kernel_amemcpy {kernel} B");
        assert!(
            submit <= SUBMIT_MAX,
            "submit future {submit} B > {SUBMIT_MAX}"
        );
        assert!(
            kernel <= KERNEL_MAX,
            "kernel_amemcpy future {kernel} B > {KERNEL_MAX}"
        );
    }
}
