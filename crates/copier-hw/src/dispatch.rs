//! Piggyback-based hardware dispatcher (§4.3).
//!
//! The dispatcher works in rounds over a batch of dependency-free copies:
//!
//! 1. **Packed scheduling** — subtasks large enough to amortize a DMA
//!    descriptor are *DMA candidates*. For one large task (≥ 12 KB) the
//!    candidates are drawn from the task's own tail (*i-piggyback*); for a
//!    run of smaller tasks, from the later tasks of the batch
//!    (*e-piggyback*) — later bytes have longer Copy-Use windows. The DMA
//!    byte share targets equal AVX/DMA completion times: a candidate that
//!    would carry the device past that balance point is cut there and only
//!    its tail goes to DMA (a subtask is a contiguous extent pair, so it
//!    may be cut at any byte).
//! 2. **Parallel execution** — DMA descriptors are submitted first (their
//!    submission cost burns copier-core CPU), AVX subtasks execute while the
//!    device streams, and completions are confirmed last.
//!
//! Progress callbacks fire per subtask the moment its bytes land (from the
//! device task for DMA subtasks), driving fine-grained descriptor updates.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier_mem::{Extent, PhysMem};
use copier_sim::{Again, Core, Nanos};

use crate::cost::{CostModel, CpuCopyKind};
use crate::dma::{DmaEngine, DmaError};
use crate::units::{copy_extent_pair, CpuUnit, SubTask};

/// How much of each DMA transfer the dispatcher digest-verifies.
///
/// Verification brackets a transfer with FNV digests: the *source* is
/// digested at submission, the *destination* at completion; a mismatch
/// means the device landed wrong bytes while reporting success (silent
/// corruption). CPU subtasks are exact by construction and are never
/// verified. Digesting is host-side work — it charges no virtual time,
/// so `Off` and `Full` runs are byte-identical in virtual time when no
/// corruption fires (the ≤5% bar in `fig_integrity` is host overhead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VerifyPolicy {
    /// Trust completion status (the pre-integrity behavior).
    #[default]
    Off,
    /// Digest the first and last 64 bytes of each transfer: `O(1)` per
    /// descriptor, catches misdirected writes and edge damage but is
    /// blind to interior bit flips.
    Sampled,
    /// Digest every byte of each transfer: detects any corruption.
    Full,
}

/// A copy ready for hardware: already split into subtasks.
#[derive(Debug, Clone)]
pub struct PlannedCopy {
    /// Caller-chosen identifier threaded through progress callbacks.
    pub task_id: u64,
    /// Total length in bytes.
    pub len: usize,
    /// Subtasks in task order (offsets strictly increasing).
    pub subtasks: Vec<SubTask>,
    /// Force full verification for this task regardless of the
    /// dispatcher-wide [`VerifyPolicy`] (`amemcpy_verified`).
    pub verify: bool,
}

/// What the dispatcher did for one batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchReport {
    /// Bytes copied by the CPU unit.
    pub cpu_bytes: usize,
    /// Bytes copied by DMA.
    pub dma_bytes: usize,
    /// DMA descriptors submitted.
    pub dma_descriptors: usize,
    /// Copier-core time spent waiting on straggling DMA completions.
    pub dma_wait: Nanos,
    /// Transient-failed descriptors resubmitted (bounded backoff).
    pub retries: u64,
    /// Bytes rescued by the CPU after DMA gave up (counted in `cpu_bytes`
    /// too; subtracted from `dma_bytes`).
    pub fallback_bytes: usize,
    /// Digest mismatches caught by verification (silent corruptions
    /// detected).
    pub corruptions: u64,
    /// Detected corruptions healed by a bounded re-copy from a
    /// still-valid source. `corruptions - repairs` tasks surface through
    /// [`Dispatcher::take_corrupted`].
    pub repairs: u64,
}

/// Progress notification: `(task_id, offset_within_task, len)`.
pub type ProgressFn = Rc<dyn Fn(u64, usize, usize)>;

/// Per-batch working vectors, kept across rounds so steady-state dispatch
/// does no per-round heap allocation (host-only; plans are unchanged).
/// One per batch in flight: the dispatcher keeps as many as service
/// threads ever overlapped in `execute_batch`.
#[derive(Default)]
struct Scratch {
    /// Re-chunked batch (`normalize` output).
    normalized: Vec<PlannedCopy>,
    /// Per-(task, subtask) DMA assignment (`plan` output).
    assign: Vec<Vec<bool>>,
    /// Recycled inner vectors for `normalized`.
    subtask_pool: Vec<Vec<SubTask>>,
    /// Recycled inner vectors for `assign`.
    bool_pool: Vec<Vec<bool>>,
}

/// The hardware dispatcher.
pub struct Dispatcher {
    pm: Rc<PhysMem>,
    cost: Rc<CostModel>,
    cpu: CpuUnit,
    dma: Option<Rc<DmaEngine>>,
    scratch: RefCell<Vec<Scratch>>,
    verify: Cell<VerifyPolicy>,
    /// Task ids whose corruption survived the repair budget this batch,
    /// drained by the service after `execute_batch`.
    corrupted: RefCell<Vec<u64>>,
}

/// FNV digest of a physical extent — full-extent when `full`, else the
/// first and last 64 bytes. Only comparable against digests from this
/// same function at the same coverage.
fn extent_phys_digest(pm: &PhysMem, ext: Extent, full: bool) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (ext.len as u64);
    h = h.wrapping_mul(PRIME);
    let mut fold = |chunk: &[u8]| {
        let mut words = chunk.chunks_exact(8);
        for w in words.by_ref() {
            h = (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    let mut buf = [0u8; 4096];
    if full {
        let mut done = 0usize;
        while done < ext.len {
            let take = (ext.len - done).min(buf.len());
            pm.read_run(ext.frame, ext.off + done, &mut buf[..take]);
            fold(&buf[..take]);
            done += take;
        }
    } else {
        let head = ext.len.min(64);
        pm.read_run(ext.frame, ext.off, &mut buf[..head]);
        fold(&buf[..head]);
        if ext.len > 64 {
            let tail = (ext.len - 64).max(head);
            let n = ext.len - tail;
            pm.read_run(ext.frame, ext.off + tail, &mut buf[..n]);
            fold(&buf[..n]);
        }
    }
    h
}

impl Dispatcher {
    /// Creates a dispatcher; `dma = None` degrades to pure CPU copy (the
    /// hardware ablation of Fig. 12-c).
    pub fn new(pm: Rc<PhysMem>, cost: Rc<CostModel>, dma: Option<Rc<DmaEngine>>) -> Self {
        let cpu = CpuUnit::new(CpuCopyKind::Avx2, Rc::clone(&cost));
        Dispatcher {
            pm,
            cost,
            cpu,
            dma,
            scratch: RefCell::new(Vec::new()),
            verify: Cell::new(VerifyPolicy::Off),
            corrupted: RefCell::new(Vec::new()),
        }
    }

    /// Sets the dispatcher-wide verification policy.
    pub fn set_verify(&self, policy: VerifyPolicy) {
        self.verify.set(policy);
    }

    /// Drains the task ids whose detected corruption could not be
    /// repaired in the last `execute_batch` (the service poisons them as
    /// `CopyFault::Corrupted`).
    pub fn take_corrupted(&self) -> Vec<u64> {
        std::mem::take(&mut *self.corrupted.borrow_mut())
    }

    /// The attached DMA engine, if any (for quarantine observability).
    pub fn dma(&self) -> Option<&Rc<DmaEngine>> {
        self.dma.as_ref()
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &Rc<CostModel> {
        &self.cost
    }

    /// Re-chunks any subtask larger than [`CostModel::max_subtask`] (real
    /// DMA engines cap per-descriptor transfer sizes) into caller-owned
    /// storage, drawing inner vectors from `pool` instead of the allocator.
    fn normalize_into(
        &self,
        batch: &[PlannedCopy],
        out: &mut Vec<PlannedCopy>,
        pool: &mut Vec<Vec<SubTask>>,
    ) {
        let max = self.cost.max_subtask.max(4096);
        out.clear();
        for t in batch {
            let mut subtasks = pool.pop().unwrap_or_default();
            debug_assert!(subtasks.is_empty());
            for st in &t.subtasks {
                if st.len() <= max {
                    subtasks.push(*st);
                    continue;
                }
                let mut off = 0usize;
                while off < st.len() {
                    let take = (st.len() - off).min(max);
                    subtasks.push(st.slice(off, take));
                    off += take;
                }
            }
            out.push(PlannedCopy {
                task_id: t.task_id,
                len: t.len,
                subtasks,
                verify: t.verify,
            });
        }
    }

    /// Plans a batch: returns it as the hardware will see it — re-chunked,
    /// and with the subtask at the balance point cut in two — plus the
    /// per-(batch-index, subtask) assignments, `true` meaning DMA. Exposed
    /// for tests and ablation studies.
    pub fn plan(&self, batch: &[PlannedCopy]) -> (Vec<PlannedCopy>, Vec<Vec<bool>>) {
        let (mut planned, mut assign) = (Vec::new(), Vec::new());
        self.normalize_into(batch, &mut planned, &mut Vec::new());
        self.plan_into(&mut planned, &mut assign, &mut Vec::new());
        (planned, assign)
    }

    /// The DMA byte count that lets AVX and DMA finish together on a round
    /// of `total` bytes (§4.3), or `None` where submission overhead is not
    /// worth it: no live channel, or a lone task below the i-piggyback
    /// floor.
    fn dma_target(&self, batch: &[PlannedCopy]) -> Option<usize> {
        // A fully quarantined engine is as good as absent: plan pure CPU.
        if self.dma.as_ref().map_or(0, |d| d.live_channels()) == 0 {
            return None;
        }
        // Balance against the bytes actually in this round's subtasks (a
        // copy-slice round may carry only part of a large task).
        let total: usize = batch
            .iter()
            .map(|t| t.subtasks.iter().map(|s| s.len()).sum::<usize>())
            .sum();
        let single_large = batch.len() == 1 && total >= self.cost.ipiggyback_min;
        let fused_small = batch.len() > 1;
        (single_large || fused_small).then(|| (total as f64 * self.cost.dma_share()) as usize)
    }

    /// Assigns subtasks of the (normalized) `batch` to DMA, into
    /// caller-owned storage, drawing inner vectors from `pool` instead of
    /// the allocator. Walks candidates from the batch tail — later bytes
    /// have longer Copy-Use windows — taking each whole while the device
    /// stays within a quarter of [`Self::dma_target`] past it. A candidate
    /// that would overshoot is cut instead: its last `target − picked`
    /// bytes become a DMA subtask of their own when that is still a
    /// candidate's worth, which lands DMA exactly on the target; otherwise
    /// it is passed over. So DMA never carries more than `target +
    /// target / 4`, and ends less than one `dma_candidate_min` short of
    /// `target` unless every candidate went to it.
    fn plan_into(
        &self,
        batch: &mut [PlannedCopy],
        assign: &mut Vec<Vec<bool>>,
        pool: &mut Vec<Vec<bool>>,
    ) {
        assign.clear();
        for t in batch.iter() {
            let mut row = pool.pop().unwrap_or_default();
            debug_assert!(row.is_empty());
            row.resize(t.subtasks.len(), false);
            assign.push(row);
        }
        let Some(target) = self.dma_target(batch) else {
            return;
        };
        let min = self.cost.dma_candidate_min;
        let mut picked = 0usize;
        for (ti, task) in batch.iter_mut().enumerate().rev() {
            for si in (0..task.subtasks.len()).rev() {
                let st = task.subtasks[si];
                if st.len() < min {
                    continue;
                }
                if picked + st.len() <= target + target / 4 {
                    assign[ti][si] = true;
                    picked += st.len();
                } else if target - picked >= min {
                    // A too-large pick leaves the CPU idle-waiting on the
                    // device: give it the tail up to the balance point.
                    let head = st.len() - (target - picked);
                    task.subtasks[si] = st.slice(0, head);
                    task.subtasks
                        .insert(si + 1, st.slice(head, st.len() - head));
                    assign[ti].insert(si + 1, true);
                    picked = target;
                }
                if picked >= target {
                    return;
                }
            }
        }
    }

    /// Executes a batch of independent copies on the given copier core,
    /// invoking `progress` as bytes land. Returns a report.
    pub async fn execute_batch(
        &self,
        core: &Rc<Core>,
        batch: &[PlannedCopy],
        progress: ProgressFn,
    ) -> DispatchReport {
        // Take a scratch by value: nothing borrows the cell across an
        // await, and a call overlapping another thread's takes its own.
        let mut scr = self.scratch.borrow_mut().pop().unwrap_or_default();
        self.normalize_into(batch, &mut scr.normalized, &mut scr.subtask_pool);
        self.plan_into(&mut scr.normalized, &mut scr.assign, &mut scr.bool_pool);
        let batch = &scr.normalized;
        let assign = &scr.assign;
        let mut report = DispatchReport::default();
        let mut completions = Vec::new();

        // Phase 1: submit all DMA descriptors (batched, paying CPU per
        // descriptor), so the device streams while AVX runs. Under a
        // verification policy the source of each transfer is digested
        // *before* submission (host-side; no virtual time charged) —
        // the reference the destination is checked against in phase 3.
        if let Some(dma) = &self.dma {
            let mut first = true;
            for (ti, task) in batch.iter().enumerate() {
                let policy = if task.verify {
                    VerifyPolicy::Full
                } else {
                    self.verify.get()
                };
                for (si, st) in task.subtasks.iter().enumerate() {
                    if assign[ti][si] {
                        // First descriptor pays the doorbell; the rest
                        // chain onto the open batch.
                        core.advance(if first {
                            self.cost.dma_submit
                        } else {
                            self.cost.dma_chain
                        })
                        .await;
                        first = false;
                        let expect = match policy {
                            VerifyPolicy::Off => None,
                            VerifyPolicy::Sampled => {
                                Some((extent_phys_digest(&self.pm, st.src, false), false))
                            }
                            VerifyPolicy::Full => {
                                Some((extent_phys_digest(&self.pm, st.src, true), true))
                            }
                        };
                        let p = Rc::clone(&progress);
                        let task_id = task.task_id;
                        let c = dma.submit(
                            *st,
                            Some(Box::new(move |s: &SubTask| {
                                p(task_id, s.task_off, s.len());
                            })),
                        );
                        completions.push((c, task_id, expect));
                        report.dma_descriptors += 1;
                        report.dma_bytes += st.len();
                    }
                }
            }
        }

        // Phase 2: AVX subtasks execute meanwhile.
        for (ti, task) in batch.iter().enumerate() {
            for (si, st) in task.subtasks.iter().enumerate() {
                if !assign[ti][si] {
                    let cost = self.cpu.cost_of(st.len());
                    core.advance(cost).await;
                    // The data lands when the copy instruction stream ends.
                    crate::units::copy_extent_pair(&self.pm, st.dst, st.src);
                    core.cache.note_inline_copy(st.len());
                    progress(task.task_id, st.task_off, st.len());
                    report.cpu_bytes += st.len();
                }
            }
        }

        // Phase 3: confirm DMA completions, recovering failures so the
        // batch still lands every byte. Transient errors are resubmitted
        // under a bounded deterministic exponential backoff; a descriptor
        // that outlives its wait budget is cancelled; anything that cannot
        // be retried (dead channel, timeout, retry budget spent) falls back
        // to the CPU unit. Segment accounting stays exact because progress
        // fires exactly once per subtask: from the device on success, from
        // the fallback copy otherwise (failed/cancelled descriptors never
        // fire `on_done`).
        if let Some(dma) = &self.dma {
            for (mut c, task_id, expect) in completions {
                let mut attempts = 0u32;
                loop {
                    core.advance(self.cost.dma_complete_check).await;
                    let budget = Nanos(
                        self.cost
                            .dma_transfer(c.subtask.len())
                            .as_nanos()
                            .saturating_mul(self.cost.dma_wait_budget.max(1)),
                    );
                    let t0 = core_now(core);
                    if !c.is_settled() {
                        let (c2, me) = (Rc::clone(&c), Rc::downgrade(core));
                        let again: Again = Rc::new(move |_| {
                            !c2.is_settled()
                                && me.upgrade().is_some_and(|k| core_now(&k) - t0 <= budget)
                        });
                        let poll = self.cost.dma_complete_check.max(Nanos(100));
                        core.spin(poll, &again).await;
                        if core_now(core) - t0 > budget {
                            // The device is stalling far past the modeled
                            // time; withdraw the descriptor. The device
                            // re-checks the flag before landing bytes, so a
                            // cancelled descriptor can never complete behind
                            // our back and double-fire progress. If it
                            // settled between the check and the cancel, the
                            // cancel is a no-op and the result stands.
                            c.cancel();
                        }
                    }
                    report.dma_wait += core_now(core) - t0;
                    if c.is_done() {
                        // The device believes this transfer succeeded; the
                        // digest is the only thing that can contradict it.
                        if let Some((want, full)) = expect {
                            if extent_phys_digest(&self.pm, c.subtask.dst, full) != want {
                                report.corruptions += 1;
                                dma.note_corruption(c.channel);
                                if self.repair(core, dma, &c.subtask, want, full).await {
                                    report.repairs += 1;
                                } else {
                                    self.corrupted.borrow_mut().push(task_id);
                                }
                            }
                        }
                        break;
                    }
                    let err = c.error().unwrap_or(DmaError::Timeout);
                    if err == DmaError::Transient
                        && attempts < self.cost.dma_retry_limit
                        && dma.live_channels() > 0
                    {
                        attempts += 1;
                        report.retries += 1;
                        let backoff =
                            Nanos(self.cost.dma_retry_backoff.as_nanos() << (attempts - 1).min(16));
                        core.advance(backoff).await;
                        core.advance(self.cost.dma_submit).await;
                        let p = Rc::clone(&progress);
                        let tid = task_id;
                        let st = c.subtask;
                        c = dma.submit(
                            st,
                            Some(Box::new(move |s: &SubTask| {
                                p(tid, s.task_off, s.len());
                            })),
                        );
                        continue;
                    }
                    // CPU fallback: rescue the descriptor's bytes inline.
                    let st = c.subtask;
                    core.advance(self.cpu.cost_of(st.len())).await;
                    crate::units::copy_extent_pair(&self.pm, st.dst, st.src);
                    core.cache.note_inline_copy(st.len());
                    progress(task_id, st.task_off, st.len());
                    report.fallback_bytes += st.len();
                    report.cpu_bytes += st.len();
                    report.dma_bytes -= st.len();
                    break;
                }
            }
        }
        // Recycle the round's vectors for the next batch.
        for mut t in scr.normalized.drain(..) {
            t.subtasks.clear();
            scr.subtask_pool.push(t.subtasks);
        }
        for mut row in scr.assign.drain(..) {
            row.clear();
            scr.bool_pool.push(row);
        }
        self.scratch.borrow_mut().push(scr);
        report
    }

    /// Bounded re-copy of a subtask whose destination failed digest
    /// verification. Each attempt first confirms the *source* still
    /// digests to the pre-dispatch value (repairing from a since-mutated
    /// source would heal to garbage), then re-copies — on a healthy DMA
    /// channel when one survives, inline on the CPU otherwise — and
    /// re-verifies. Progress already fired for the original
    /// believed-successful transfer, so the re-copy carries no progress
    /// callback and segment accounting stays exact.
    async fn repair(
        &self,
        core: &Rc<Core>,
        dma: &Rc<DmaEngine>,
        st: &SubTask,
        want: u64,
        full: bool,
    ) -> bool {
        /// Re-copy attempts per detected corruption before giving the
        /// task up as [`Dispatcher::take_corrupted`].
        const REPAIR_LIMIT: u32 = 2;
        for _ in 0..REPAIR_LIMIT {
            if extent_phys_digest(&self.pm, st.src, full) != want {
                return false;
            }
            if dma.live_channels() > 0 {
                core.advance(self.cost.dma_submit).await;
                let c = dma.submit(*st, None);
                c.wait().await;
                if c.is_done() {
                    // A corrupted *repair* is a verified strike too — a
                    // channel that damages retries gets retired faster.
                    if extent_phys_digest(&self.pm, st.dst, full) != want {
                        dma.note_corruption(c.channel);
                    }
                } else {
                    // The re-copy failed outright: rescue on the CPU.
                    core.advance(self.cpu.cost_of(st.len())).await;
                    copy_extent_pair(&self.pm, st.dst, st.src);
                    core.cache.note_inline_copy(st.len());
                }
            } else {
                core.advance(self.cpu.cost_of(st.len())).await;
                copy_extent_pair(&self.pm, st.dst, st.src);
                core.cache.note_inline_copy(st.len());
            }
            if extent_phys_digest(&self.pm, st.dst, full) == want {
                return true;
            }
        }
        false
    }
}

// Small helper: a core doesn't expose its sim handle, so thread time via
// busy accounting — we instead measure wait with the core's own busy time,
// which equals elapsed virtual time while polling (the poll loop is the
// only demand during confirmation in copier's dedicated-core setup).
fn core_now(core: &Rc<Core>) -> Nanos {
    core.busy_time()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_mem::{AllocPolicy, Extent, FrameId, PAGE_SIZE};
    use copier_sim::{Machine, Sim};
    use std::cell::RefCell;

    fn planned(pm: &PhysMem, task_id: u64, pages: usize) -> PlannedCopy {
        let src = pm.alloc_contiguous(pages).unwrap();
        let dst = pm.alloc_contiguous(pages).unwrap();
        let len = pages * PAGE_SIZE;
        // Fill the source with a recognizable pattern.
        for p in 0..pages {
            let bytes: Vec<u8> = (0..PAGE_SIZE)
                .map(|i| ((i + p * 7 + task_id as usize) % 251) as u8)
                .collect();
            pm.write(FrameId(src.0 + p as u32), 0, &bytes);
        }
        let st = SubTask {
            task_off: 0,
            src: Extent {
                frame: src,
                off: 0,
                len,
            },
            dst: Extent {
                frame: dst,
                off: 0,
                len,
            },
        };
        PlannedCopy {
            task_id,
            len,
            subtasks: vec![st],
            verify: false,
        }
    }

    fn split_pages(p: PlannedCopy) -> PlannedCopy {
        // Re-split a single-extent task into page-sized subtasks.
        let st = p.subtasks[0];
        let pages = st.len() / PAGE_SIZE;
        let subtasks = (0..pages)
            .map(|i| SubTask {
                task_off: i * PAGE_SIZE,
                src: Extent {
                    frame: FrameId(st.src.frame.0 + i as u32),
                    off: 0,
                    len: PAGE_SIZE,
                },
                dst: Extent {
                    frame: FrameId(st.dst.frame.0 + i as u32),
                    off: 0,
                    len: PAGE_SIZE,
                },
            })
            .collect();
        PlannedCopy { subtasks, ..p }
    }

    #[test]
    fn lone_small_task_stays_on_cpu() {
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let h = sim.handle();
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost));
        let d = Dispatcher::new(Rc::clone(&pm), cost, Some(dma));
        let task = planned(&pm, 1, 1); // 4 KB < 12 KB i-piggyback floor
        let (_, plan) = d.plan(&[task]);
        assert!(plan[0].iter().all(|&x| !x));
    }

    #[test]
    fn i_piggyback_sends_tail_to_dma() {
        let pm = Rc::new(PhysMem::new(128, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let h = sim.handle();
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost));
        let d = Dispatcher::new(Rc::clone(&pm), Rc::clone(&cost), Some(dma));
        let task = split_pages(planned(&pm, 1, 8)); // 32 KB in 8 page subtasks
        let (hw, plan) = d.plan(std::slice::from_ref(&task));
        assert_eq!(hw[0].subtasks, task.subtasks, "pages fit: nothing is cut");
        let dma_idx: Vec<usize> = plan[0]
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
            .collect();
        assert!(!dma_idx.is_empty());
        // Picked from the tail.
        assert_eq!(*dma_idx.iter().max().unwrap(), 7);
        let dma_bytes: usize = dma_idx.len() * PAGE_SIZE;
        let target = (task.len as f64 * cost.dma_share()) as usize;
        // The overshoot guard keeps the pick within a quarter above and
        // less than a page below the balance target.
        assert!(
            dma_bytes + PAGE_SIZE > target && dma_bytes <= target + target / 4,
            "dma {dma_bytes} vs target {target}"
        );
    }

    #[test]
    fn a_contiguous_task_is_cut_at_the_balance_point() {
        let pm = Rc::new(PhysMem::new(128, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let h = sim.handle();
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost));
        let d = Dispatcher::new(Rc::clone(&pm), Rc::clone(&cost), Some(dma));
        // 16 KB skb → skb: one subtask, the whole of which used to go to
        // the device at 4.2 B/ns while the CPU sat waiting.
        let task = planned(&pm, 1, 4);
        let (whole, len) = (task.subtasks[0], task.len);
        let target = (len as f64 * cost.dma_share()) as usize;
        let (hw, plan) = d.plan(&[task]);
        assert_eq!(plan[0], vec![false, true], "the tail goes to DMA");
        assert_eq!(
            hw[0].subtasks,
            vec![
                whole.slice(0, len - target),
                whole.slice(len - target, target)
            ]
        );
    }

    #[test]
    fn a_small_fused_batch_parks_no_whole_page_on_the_device() {
        let pm = Rc::new(PhysMem::new(128, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let h = sim.handle();
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost));
        let d = Dispatcher::new(Rc::clone(&pm), cost, Some(dma));
        // 8 KB over two tasks: the balance point is 2.2 KB, below what a
        // descriptor amortizes, and a page would be 1.8 × that.
        let batch: Vec<PlannedCopy> = (0..2).map(|i| planned(&pm, i, 1)).collect();
        let (hw, plan) = d.plan(&batch);
        assert!(plan.iter().flatten().all(|&dma| !dma));
        assert!(hw.iter().zip(&batch).all(|(a, b)| a.subtasks == b.subtasks));
    }

    /// A batch as extent lengths per task: one length is a physically
    /// contiguous copy, several are scattered pieces.
    type Shapes = Vec<Vec<usize>>;

    fn gen_shapes(rng: &mut copier_testkit::TestRng) -> Shapes {
        (0..rng.range_usize(1, 5))
            .map(|_| {
                if rng.gen_bool(0.4) {
                    vec![rng.range_usize(1, 50) * PAGE_SIZE + rng.range_usize(0, 2) * 777]
                } else {
                    (0..rng.range_usize(1, 40))
                        .map(|_| match rng.gen_range(4) {
                            0 => rng.range_usize(1, PAGE_SIZE),
                            1 => rng.range_usize(PAGE_SIZE, 3 * PAGE_SIZE),
                            _ => PAGE_SIZE,
                        })
                        .collect()
                }
            })
            .collect()
    }

    /// Source and destination runs far apart, each piece on frames of its
    /// own: `plan` never touches the bytes.
    fn shaped(shapes: &Shapes) -> Vec<PlannedCopy> {
        let mut frame = 0u32;
        let mut take = |len: usize| {
            let e = Extent {
                frame: FrameId(frame),
                off: 0,
                len,
            };
            frame += len.div_ceil(PAGE_SIZE) as u32 + 1;
            e
        };
        shapes
            .iter()
            .enumerate()
            .map(|(ti, lens)| {
                let mut task_off = 0;
                let subtasks: Vec<SubTask> = lens
                    .iter()
                    .map(|&len| {
                        let st = SubTask {
                            task_off,
                            src: take(len),
                            dst: take(len),
                        };
                        task_off += len;
                        st
                    })
                    .collect();
                PlannedCopy {
                    task_id: ti as u64,
                    len: task_off,
                    subtasks,
                    verify: false,
                }
            })
            .collect()
    }

    /// What `plan_into` guarantees, on random contiguous and scattered
    /// batches: every byte planned once and in order; DMA carries at most
    /// `target + target / 4`; it ends at `target` or beyond, or less than
    /// one `dma_candidate_min` short of it, unless every candidate is on
    /// it; at most one subtask is cut, and the device gets its tail.
    /// Mutants tried, each caught here: no cut (the shortfall bound, 16 KB
    /// contiguous), cutting the head off instead of the tail (the tail
    /// check), exempting the first pick from the overshoot guard (the
    /// upper bound, two small tasks).
    #[test]
    fn the_dma_share_lands_on_the_balance_point() {
        use copier_testkit::{check_with, prop_assert, prop_assert_eq, shrink_vec, Config};
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let dma = DmaEngine::new(&sim.handle(), Rc::clone(&pm), Rc::clone(&cost));
        let d = Dispatcher::new(pm, Rc::clone(&cost), Some(dma));
        let (min, max) = (cost.dma_candidate_min, cost.max_subtask);
        let shrink = |shapes: &Shapes| {
            shrink_vec(shapes, |lens| {
                shrink_vec(lens, |&len| {
                    if len > 1 {
                        vec![len / 2, len - 1]
                    } else {
                        Vec::new()
                    }
                })
                .into_iter()
                .filter(|lens| !lens.is_empty())
                .collect()
            })
            .into_iter()
            .filter(|shapes| !shapes.is_empty())
            .collect()
        };
        check_with(
            &Config::from_env(),
            gen_shapes,
            shrink,
            |shapes: &Shapes| {
                let batch = shaped(shapes);
                let (hw, assign) = d.plan(&batch);
                prop_assert_eq!(hw.len(), batch.len());
                let (mut dma_bytes, mut cuts, mut idle_candidates) = (0, 0, 0);
                for ((task, planned), row) in batch.iter().zip(&hw).zip(&assign) {
                    prop_assert_eq!(row.len(), planned.subtasks.len());
                    let mut pieces = planned.subtasks.iter().zip(row).peekable();
                    for whole in &task.subtasks {
                        // The pieces of `whole`, back to back from its start.
                        let mut off = 0;
                        while off < whole.len() {
                            let Some((piece, &on_dma)) = pieces.next() else {
                                return Err(format!("task {} ends early", task.task_id));
                            };
                            prop_assert!(off + piece.len() <= whole.len());
                            prop_assert_eq!(*piece, whole.slice(off, piece.len()));
                            off += piece.len();
                            if on_dma {
                                dma_bytes += piece.len();
                                prop_assert!(piece.len() >= min, "a sliver on the device");
                            } else if piece.len() >= min {
                                idle_candidates += 1;
                            }
                            // Re-chunking cuts at multiples of `max_subtask`;
                            // any other inner boundary is the balance cut.
                            if off < whole.len() && off % max != 0 {
                                cuts += 1;
                                let tail_on_dma = pieces.peek().is_some_and(|(_, &dma)| dma);
                                prop_assert!(!on_dma && tail_on_dma, "the device gets the tail");
                            }
                        }
                    }
                    prop_assert!(pieces.next().is_none(), "bytes planned twice");
                }
                prop_assert!(cuts <= 1);
                let Some(target) = d.dma_target(&batch) else {
                    prop_assert_eq!(dma_bytes, 0);
                    return Ok(());
                };
                prop_assert!(dma_bytes <= target + target / 4, "{dma_bytes} of {target}");
                prop_assert!(
                    dma_bytes >= target || dma_bytes + min > target || idle_candidates == 0,
                    "{dma_bytes} of {target} with {idle_candidates} candidates left"
                );
                prop_assert!(
                    cuts == 0 || dma_bytes == target,
                    "a cut lands on the target"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn e_piggyback_fuses_small_tasks() {
        let pm = Rc::new(PhysMem::new(128, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let h = sim.handle();
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost));
        let d = Dispatcher::new(Rc::clone(&pm), cost, Some(dma));
        let batch: Vec<PlannedCopy> = (0..4).map(|i| planned(&pm, i, 1)).collect();
        let (_, plan) = d.plan(&batch);
        let picked: usize = plan.iter().flatten().filter(|&&b| b).count();
        assert!(picked >= 1, "fused batch should engage DMA");
        // Later tasks are preferred.
        assert!(plan[3][0], "the last task's subtask goes to DMA first");
    }

    #[test]
    fn execute_batch_moves_all_bytes_and_reports() {
        let pm = Rc::new(PhysMem::new(256, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost));
        let d = Rc::new(Dispatcher::new(Rc::clone(&pm), cost, Some(dma)));

        let task = split_pages(planned(&pm, 7, 16)); // 64 KB
        let expect_src = task.subtasks[0].src.frame;
        let expect_dst = task.subtasks[0].dst.frame;
        let progress: Rc<RefCell<Vec<(u64, usize, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let p2 = Rc::clone(&progress);
        let core = m.core(0);
        let d2 = Rc::clone(&d);
        let task2 = task.clone();
        let report = Rc::new(RefCell::new(DispatchReport::default()));
        let report2 = Rc::clone(&report);
        sim.spawn("copier", async move {
            let cb: ProgressFn = Rc::new(move |id, off, len| {
                p2.borrow_mut().push((id, off, len));
            });
            let r = d2.execute_batch(&core, &[task2], cb).await;
            *report2.borrow_mut() = r;
        });
        sim.run();

        let r = *report.borrow();
        assert_eq!(r.cpu_bytes + r.dma_bytes, 16 * PAGE_SIZE);
        assert!(r.dma_bytes > 0 && r.cpu_bytes > 0, "{r:?}");
        // Every byte reported exactly once.
        let mut covered = vec![false; 16 * PAGE_SIZE];
        for (id, off, len) in progress.borrow().iter() {
            assert_eq!(*id, 7);
            for (b, seen) in covered.iter_mut().enumerate().skip(*off).take(*len) {
                assert!(!*seen, "byte {b} reported twice");
                *seen = true;
            }
        }
        assert!(covered.iter().all(|&b| b));
        // Data integrity: destination equals source.
        for p in 0..16u32 {
            let mut s = vec![0u8; PAGE_SIZE];
            let mut dd = vec![0u8; PAGE_SIZE];
            pm.read(FrameId(expect_src.0 + p), 0, &mut s);
            pm.read(FrameId(expect_dst.0 + p), 0, &mut dd);
            assert_eq!(s, dd, "page {p}");
        }
    }

    fn run_with_flips(policy: VerifyPolicy) -> (DispatchReport, Vec<u64>, bool, u64) {
        // Every DMA transfer is bit-flipped in flight; returns the
        // report, the unrepaired task ids, whether dst == src at the
        // end, and the corrupt-quarantined channel count.
        let pm = Rc::new(PhysMem::new(256, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let plan = copier_sim::FaultPlan::new(copier_sim::FaultConfig {
            seed: 17,
            dma_flip_prob: 1.0,
            ..Default::default()
        });
        let dma = DmaEngine::with_channels(&h, Rc::clone(&pm), Rc::clone(&cost), 1, Some(plan));
        let eng = Rc::clone(&dma);
        let d = Rc::new(Dispatcher::new(Rc::clone(&pm), cost, Some(dma)));
        d.set_verify(policy);
        let task = split_pages(planned(&pm, 3, 16));
        let (src0, dst0) = (task.subtasks[0].src.frame, task.subtasks[0].dst.frame);
        let core = m.core(0);
        let d2 = Rc::clone(&d);
        let task2 = task.clone();
        let report = Rc::new(RefCell::new(DispatchReport::default()));
        let report2 = Rc::clone(&report);
        sim.spawn("copier", async move {
            let cb: ProgressFn = Rc::new(|_, _, _| {});
            *report2.borrow_mut() = d2.execute_batch(&core, &[task2], cb).await;
        });
        sim.run();
        let mut intact = true;
        for p in 0..16u32 {
            let mut s = vec![0u8; PAGE_SIZE];
            let mut dd = vec![0u8; PAGE_SIZE];
            pm.read(FrameId(src0.0 + p), 0, &mut s);
            pm.read(FrameId(dst0.0 + p), 0, &mut dd);
            if s != dd {
                intact = false;
            }
        }
        let r = *report.borrow();
        (r, d.take_corrupted(), intact, eng.corrupt_quarantined())
    }

    #[test]
    fn verify_off_lets_silent_corruption_through() {
        let (r, unrepaired, intact, _) = run_with_flips(VerifyPolicy::Off);
        assert!(r.dma_bytes > 0, "DMA must have engaged");
        assert_eq!(r.corruptions, 0, "nothing looked, nothing found");
        assert!(unrepaired.is_empty());
        assert!(!intact, "the corruption landed and nobody noticed");
    }

    #[test]
    fn full_verify_detects_strikes_channel_and_repairs() {
        let (r, unrepaired, intact, corrupt_quarantined) = run_with_flips(VerifyPolicy::Full);
        assert!(r.corruptions > 0, "every DMA transfer was flipped");
        assert_eq!(r.repairs, r.corruptions, "all repairable: source intact");
        assert!(unrepaired.is_empty());
        assert!(intact, "repair healed every flipped transfer");
        assert_eq!(
            corrupt_quarantined, 1,
            "the flaky channel was retired by verified strikes"
        );
    }

    #[test]
    fn no_dma_dispatcher_is_pure_cpu() {
        let pm = Rc::new(PhysMem::new(128, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let d = Rc::new(Dispatcher::new(Rc::clone(&pm), cost, None));
        let task = split_pages(planned(&pm, 1, 8));
        let core = m.core(0);
        let d2 = Rc::clone(&d);
        let report = Rc::new(RefCell::new(DispatchReport::default()));
        let report2 = Rc::clone(&report);
        sim.spawn("copier", async move {
            let cb: ProgressFn = Rc::new(|_, _, _| {});
            *report2.borrow_mut() = d2.execute_batch(&core, &[task], cb).await;
        });
        sim.run();
        let r = *report.borrow();
        assert_eq!(r.dma_bytes, 0);
        assert_eq!(r.cpu_bytes, 8 * PAGE_SIZE);
    }

    #[test]
    fn piggyback_beats_cpu_only_on_large_copies() {
        // The headline of Fig. 9: AVX+DMA in parallel outruns AVX alone.
        fn run(with_dma: bool) -> Nanos {
            let pm = Rc::new(PhysMem::new(600, AllocPolicy::Sequential));
            let cost = Rc::new(CostModel::default());
            let mut sim = Sim::new();
            let h = sim.handle();
            let m = Machine::new(&h, 1);
            let dma = with_dma.then(|| DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost)));
            let d = Rc::new(Dispatcher::new(Rc::clone(&pm), cost, dma));
            let task = split_pages(planned(&pm, 1, 64)); // 256 KB
            let core = m.core(0);
            sim.spawn("copier", async move {
                let cb: ProgressFn = Rc::new(|_, _, _| {});
                d.execute_batch(&core, &[task], cb).await;
            });
            sim.run()
        }
        let cpu_only = run(false);
        let hybrid = run(true);
        assert!(
            hybrid < cpu_only,
            "hybrid {hybrid} should beat cpu-only {cpu_only}"
        );
        // Ideal speedup is 1/(1-dma_share) ≈ 1.38; allow slack for
        // submission costs and integer page granularity.
        let speedup = cpu_only.as_nanos() as f64 / hybrid.as_nanos() as f64;
        assert!(speedup > 1.15, "speedup = {speedup}");
    }
}
