//! Round steps 5–6: plan a selected batch — translate and pin, faulting
//! proactively (§4.5.4) — and dispatch it to the copy units (§4.3), or
//! copy it synchronously when the pool is under pressure (§4.6).

use std::cell::RefCell;
use std::rc::Rc;

use copier_hw::{
    slice_extents_into, split_subtasks_into, CpuCopyKind, DispatchReport, PlannedCopy, SubTask,
};
use copier_mem::{AddressSpace, Extent, FrameId, VirtAddr, PAGE_SIZE};
use copier_sim::{Core, CrashPoint, Nanos};

use super::aggregates::ShardState;
use super::complete::release_pins;
use super::select::Selected;
use super::shard::RoundScratch;
use super::Copier;
use crate::absorb::AbsorbPlan;
use crate::client::{Client, PendEntry};
use crate::descriptor::CopyFault;
use crate::task::TaskId;

/// Per-thread dispatch progress lookup, reused across rounds (cleared, not
/// reallocated — host-only optimization): the batch's entries by task id,
/// sorted once the batch is planned.
pub(super) type ByTid = Rc<RefCell<Vec<(TaskId, Rc<PendEntry>)>>>;

/// `plan_entry`'s working vectors.
#[derive(Default)]
pub(super) struct PlanScratch {
    /// Recycled inner vectors for `RoundScratch::planned`.
    subtask_pool: Vec<Vec<SubTask>>,
    /// Translations of the gap being planned, and the destination's part
    /// under one source piece.
    dst_ex: Vec<Extent>,
    src_ex: Vec<Extent>,
    dst_slice: Vec<Extent>,
}

impl Selected {
    /// Fills `gaps` with what a round at `now` may copy of this task: its
    /// runnable gaps, cut down to its share of the slice. False when
    /// there is nothing.
    fn round_gaps_into(
        &self,
        now: Nanos,
        lazy_period: Nanos,
        gaps: &mut Vec<(usize, usize)>,
    ) -> bool {
        if self.entry.finished() {
            return false;
        }
        self.entry.runnable_gaps_into(now, lazy_period, gaps);
        truncate_gaps(gaps, self.cap);
        !gaps.is_empty()
    }
}

impl Copier {
    /// Translates and pins a range on shard `sh`'s core, via the ATCache
    /// when possible: fills `extents` and returns the pinned frames (the
    /// fault work performed is charged here).
    async fn translate_pin(
        &self,
        sh: &ShardState,
        space: &Rc<AddressSpace>,
        va: VirtAddr,
        len: usize,
        write: bool,
        extents: &mut Vec<Extent>,
    ) -> Result<Vec<FrameId>, CopyFault> {
        if self.atcache.lookup_into(space, va, len, write, extents) {
            // One charge per lookup, however many pages the range spans.
            sh.core.advance(self.cost.atc_hit).await;
            let stale = self
                .cfg
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.decide_atc_stale());
            if !stale {
                return Ok(space.pin_extents(extents));
            }
            // Injected stale hit: the cached translation cannot be trusted;
            // pay the hit, fall through to a full walk (which re-validates
            // it).
        }
        let pages = len.div_ceil(PAGE_SIZE).max(1) as u64;
        // Sequential walks over one range share PT cache lines (8 PTEs per
        // line): the first walk pays full price, the rest a quarter.
        let walk_cost =
            Nanos(self.cost.pte_walk.as_nanos() + (pages - 1) * self.cost.pte_walk.as_nanos() / 4);
        // One walk resolves the range (faulting as needed) into its
        // extents; fault accounting, and so every charged duration below,
        // is per page.
        match space.resolve_range(va, len, write) {
            Ok((walked, work)) => {
                let frames = space.pin_extents(&walked);
                // Charge the walk and any proactive fault handling.
                let mut cost = walk_cost;
                let faults = (work.demand_zero + work.cow_remap + work.cow_copy) as u64;
                cost += Nanos(self.cost.page_fault.as_nanos() * faults);
                if work.bytes_copied > 0 {
                    cost += self.cost.cpu_copy(CpuCopyKind::Avx2, work.bytes_copied);
                }
                sh.core.advance(cost).await;
                sh.count().proactive_faults += faults;
                self.atcache.insert(space, va, len, write, &walked);
                *extents = walked;
                Ok(frames)
            }
            Err(e) => {
                sh.core.advance(walk_cost).await;
                Err(e.into())
            }
        }
    }

    /// Plans, dispatches, and completes `scratch.selected`.
    pub(super) async fn execute(
        self: &Rc<Self>,
        core: &Rc<Core>,
        client: &Rc<Client>,
        scratch: &mut RoundScratch,
    ) {
        let RoundScratch {
            selected: sel,
            by_tid,
            progress,
            gaps,
            planned,
            plan: bufs,
            ..
        } = scratch;
        if self.pm.pressure() {
            return self.execute_degraded(core, client, sel, gaps).await;
        }
        let now = self.h.now();
        // Last batch's vectors go back to the pool (a crashed round
        // returns early and leaves them here).
        bufs.subtask_pool
            .extend(planned.drain(..).map(|pc| pc.subtasks));
        by_tid.borrow_mut().clear();
        let mut planned_bytes = 0usize;
        for s in sel.iter() {
            let e = &s.entry;
            if !s.round_gaps_into(now, self.cfg.lazy_period, gaps) {
                continue;
            }
            let plan_res = self.plan_entry(client, e, &s.plan, gaps, bufs).await;
            if self.crashed.get() {
                // Zombie resume: a peer shard crashed this incarnation
                // while `plan_entry` was suspended in translate/pin. Pins
                // taken after adoption's release sweep would never be
                // drained again (the successor may have finalized the
                // entry already), so release the whole batch now and
                // abandon the round — a crashed kernel dispatches
                // nothing.
                return self.drain_batch_pins(client, sel);
            }
            match plan_res {
                Ok(pc) => {
                    self.put_in_flight(client, e, gaps);
                    planned_bytes += pc.subtasks.iter().map(|st| st.len()).sum::<usize>();
                    by_tid.borrow_mut().push((e.tid, Rc::clone(e)));
                    planned.push(pc);
                }
                Err(fault) => self.fail_entry(client, &s.set, e, fault),
            }
        }
        // Crash point: planned and pinned, nothing dispatched yet. The
        // batch's pins are released on the spot — adoption also sweeps
        // window-entry pins, but no successor ever adopts when the crash
        // lands as the run winds down (tenants fail fast on a dead
        // service), and nothing else would unpin these frames.
        if self.maybe_crash(self.shard_of(client), CrashPoint::MidDispatch) {
            return self.drain_batch_pins(client, sel);
        }
        if !planned.is_empty() {
            by_tid.borrow_mut().sort_unstable_by_key(|(tid, _)| *tid);
            let report = self
                .dispatcher
                .execute_batch(core, planned, Rc::clone(progress))
                .await;
            // Peer crash while the batch was in flight: a dead kernel
            // records nothing and completes nothing. Drop the report,
            // release the batch's pins, and abandon the round.
            if self.crashed.get() {
                return self.drain_batch_pins(client, sel);
            }
            self.account_dispatch(client, sel, planned, &report);
            self.charge_client(client, planned_bytes);
        }
        // Crash point: bytes landed (descriptor segments are marked, the
        // copied intervals recorded) but nothing finalized — no handler,
        // no credit, no Complete record. Adoption finds these entries
        // finished and settles them exactly once.
        if self.maybe_crash(self.shard_of(client), CrashPoint::PreFinalize) {
            return self.drain_batch_pins(client, sel);
        }
        self.finalize_finished(client, sel);
    }

    /// Hands `e`'s planned `gaps` to the dispatcher's care: in flight, and
    /// no longer deferred (counting the deferred obligations among them as
    /// executed).
    fn put_in_flight(&self, client: &Client, e: &PendEntry, gaps: &[(usize, usize)]) {
        let deferred_exec: usize = {
            let d = e.deferred.borrow();
            gaps.iter()
                .map(|&(lo, hi)| d.overlaps(lo, hi).map(|(a, b)| b - a).sum::<usize>())
                .sum()
        };
        self.shard_of(client).count().bytes_deferred_executed += deferred_exec as u64;
        for &(lo, hi) in gaps {
            e.inflight.borrow_mut().insert(lo, hi);
            e.deferred.borrow_mut().remove(lo, hi);
        }
    }

    /// Books one dispatch report, and fails the tasks of the batch whose
    /// verification mismatch survived bounded repair.
    fn account_dispatch(
        &self,
        client: &Rc<Client>,
        sel: &[Selected],
        planned: &[PlannedCopy],
        report: &DispatchReport,
    ) {
        {
            let mut st = self.shard_of(client).count();
            st.bytes_copied += (report.cpu_bytes + report.dma_bytes) as u64;
            st.retries += report.retries;
            st.fallback_bytes += report.fallback_bytes as u64;
            st.dispatch.cpu_bytes += report.cpu_bytes;
            st.dispatch.dma_bytes += report.dma_bytes;
            st.dispatch.dma_descriptors += report.dma_descriptors;
            st.dispatch.dma_wait += report.dma_wait;
            st.dispatch.retries += report.retries;
            st.dispatch.fallback_bytes += report.fallback_bytes;
            st.dispatch.corruptions += report.corruptions;
            st.dispatch.repairs += report.repairs;
        }
        // Verification failures that exhausted bounded repair: the
        // destination bytes are wrong even though every segment was
        // marked, so the descriptor is poisoned `Corrupted` and the
        // taint cascades exactly like a mid-copy fault — nothing
        // downstream may consume the range.
        for pc in planned.iter().filter(|pc| pc.corrupted) {
            let Some(s) = sel.iter().find(|s| s.entry.tid == pc.task_id) else {
                continue;
            };
            let e = &s.entry;
            if e.failed.get().is_some() {
                continue;
            }
            self.shard_of(client).count().corrupted_poisoned += 1;
            self.fail_entry(client, &s.set, e, CopyFault::Corrupted);
        }
    }

    /// Completion pass over a served batch.
    fn finalize_finished(&self, client: &Rc<Client>, sel: &[Selected]) {
        for s in sel {
            if s.entry.finished() {
                self.finalize(client, &s.set, &s.entry);
            }
        }
    }

    /// Executes a selected batch synchronously under memory pressure —
    /// the §4.6 break-even fallback. No pinning, no ATCache refill, no
    /// DMA: each gap is resolved and copied page by page with the kernel
    /// ERMS copier, so a pressured pool is never asked to hold more
    /// frames. Recovery is automatic: once allocations fall below the low
    /// watermark, [`PhysMem::pressure`](copier_mem::PhysMem::pressure) clears and the next round takes
    /// the pinned asynchronous path again.
    async fn execute_degraded(
        self: &Rc<Self>,
        core: &Rc<Core>,
        client: &Rc<Client>,
        sel: &[Selected],
        gaps: &mut Vec<(usize, usize)>,
    ) {
        let now = self.h.now();
        let mut degraded_bytes = 0usize;
        for s in sel {
            let e = &s.entry;
            if !s.round_gaps_into(now, self.cfg.lazy_period, gaps) {
                continue;
            }
            match self.degraded_copy(core, e, &s.plan, gaps).await {
                Ok(copied) => {
                    degraded_bytes += copied;
                    self.shard_of(client).count().degraded_sync_copies += 1;
                    self.shard_of(client).count().bytes_copied += copied as u64;
                }
                Err(fault) => self.fail_entry(client, &s.set, e, fault),
            }
        }
        self.charge_client(client, degraded_bytes);
        self.finalize_finished(client, sel);
    }

    /// One entry's gaps, copied synchronously page by page. Pages are
    /// resolved (faulting on demand, cost-charged) but never pinned, and
    /// the data moves through [`PhysMem::copy`](copier_mem::PhysMem::copy) under the ERMS cost curve
    /// — slower per byte and paying per-page startup, which is exactly
    /// the break-even trade the paper's §4.6 fallback makes.
    async fn degraded_copy(
        &self,
        core: &Rc<Core>,
        e: &Rc<PendEntry>,
        plan: &AbsorbPlan,
        gaps: &[(usize, usize)],
    ) -> Result<usize, CopyFault> {
        let t = &e.task;
        let mut copied = 0usize;
        for &(glo, ghi) in gaps {
            e.deferred.borrow_mut().remove(glo, ghi);
            for p in &plan.pieces {
                let lo = glo.max(p.off);
                let hi = ghi.min(p.off + p.len);
                if lo >= hi {
                    continue;
                }
                let mut off = lo;
                while off < hi {
                    let dst_va = t.dst.add(off);
                    let src_va = p.va.add(off - p.off);
                    let take = (hi - off)
                        .min(PAGE_SIZE - dst_va.page_off())
                        .min(PAGE_SIZE - src_va.page_off());
                    let (df, dw) = t.dst_space.resolve(dst_va, true)?;
                    let (sf, sw) = p.space.resolve(src_va, false)?;
                    let faults = (dw.demand_zero
                        + dw.cow_remap
                        + dw.cow_copy
                        + sw.demand_zero
                        + sw.cow_remap
                        + sw.cow_copy) as u64;
                    let mut cost = self.cost.cpu_copy(CpuCopyKind::Erms, take);
                    cost += Nanos(self.cost.pte_walk.as_nanos() * (dw.walks + sw.walks) as u64);
                    cost += Nanos(self.cost.page_fault.as_nanos() * faults);
                    if dw.bytes_copied + sw.bytes_copied > 0 {
                        cost += self
                            .cost
                            .cpu_copy(CpuCopyKind::Avx2, dw.bytes_copied + sw.bytes_copied);
                    }
                    core.advance(cost).await;
                    self.pm
                        .copy(df, dst_va.page_off(), sf, src_va.page_off(), take);
                    mark_progress(e, off, take);
                    copied += take;
                    off += take;
                }
            }
        }
        Ok(copied)
    }

    /// Builds the hardware plan for one entry's executable gaps. Both
    /// sides are translated and pinned gap by gap, so a task served over
    /// several rounds pins each of its frames once.
    async fn plan_entry(
        &self,
        client: &Rc<Client>,
        e: &Rc<PendEntry>,
        plan: &AbsorbPlan,
        gaps: &[(usize, usize)],
        bufs: &mut PlanScratch,
    ) -> Result<PlannedCopy, CopyFault> {
        let t = &e.task;
        let sh = self.shard_of(client);
        // Pins stay on the entry until `finalize`.
        let hold = |space: &Rc<AddressSpace>, frames: Vec<FrameId>| {
            client.pinned.set(client.pinned.get() + frames.len() as u64);
            e.pins.borrow_mut().push((Rc::clone(space), frames));
        };
        let PlanScratch {
            subtask_pool,
            dst_ex,
            src_ex,
            dst_slice,
        } = bufs;
        let mut subtasks = subtask_pool.pop().unwrap_or_default();
        subtasks.clear();
        for &(glo, ghi) in gaps {
            let dst_frames = self
                .translate_pin(sh, &t.dst_space, t.dst.add(glo), ghi - glo, true, dst_ex)
                .await?;
            hold(&t.dst_space, dst_frames);
            for p in &plan.pieces {
                let lo = glo.max(p.off);
                let hi = ghi.min(p.off + p.len);
                if lo >= hi {
                    continue;
                }
                let src_va = p.va.add(lo - p.off);
                let src_frames = self
                    .translate_pin(sh, &p.space, src_va, hi - lo, false, src_ex)
                    .await?;
                hold(&p.space, src_frames);
                slice_extents_into(dst_ex, lo - glo, hi - lo, dst_slice);
                split_subtasks_into(dst_slice, src_ex, lo, self.cost.max_subtask, &mut subtasks);
            }
        }
        subtasks.sort_unstable_by_key(|st| st.task_off);
        Ok(PlannedCopy {
            task_id: e.tid,
            len: t.len,
            subtasks,
            verify: t.verify,
            corrupted: false,
        })
    }

    /// Releases every pin a crashed round's batch still holds. A crashed
    /// incarnation exits `execute` through one of its crash checks with
    /// planned-but-unfinalized entries; adoption also sweeps window-entry
    /// pins, but when the crash lands as the run winds down no successor
    /// is ever installed, so the round must clean up after itself.
    /// Draining is idempotent against adoption's sweep — whoever runs
    /// second finds the vectors empty.
    fn drain_batch_pins(&self, client: &Rc<Client>, sel: &[Selected]) {
        for s in sel {
            release_pins(client, &s.entry);
        }
    }
}

/// Cuts a gap list down to at most `cap` total bytes (copy-slice rounds).
fn truncate_gaps(gaps: &mut Vec<(usize, usize)>, cap: usize) {
    let mut left = cap;
    gaps.retain_mut(|(lo, hi)| {
        let take = (*hi - *lo).min(left);
        *hi = *lo + take;
        left -= take;
        take > 0
    });
}

/// Records landed bytes and flips fully covered descriptor segments.
///
/// Zero-length progress (`len == 0`, or `off` at/past the task's end) is
/// a no-op: the old `(end - 1) / seg` then `num_segments() - 1` span math
/// underflowed for empty ranges — debug builds panicked, release builds
/// wrapped to a huge segment index and tripped the `mark` bounds assert.
pub(super) fn mark_progress(e: &Rc<PendEntry>, off: usize, len: usize) {
    let end = (off + len).min(e.task.len);
    if end <= off {
        return;
    }
    e.copied.borrow_mut().insert(off, end);
    e.inflight.borrow_mut().remove(off, end);
    e.task.descr.mark_landed(&e.copied.borrow(), off, end);
}
