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
//!
//! Whether a batch's landings — CPU subtasks and DMA descriptors alike —
//! go to the host copy engine ([`PhysMem::defer_copy_run`]) is decided
//! once per batch by [`PhysMem::worth_deferring`], from the batch's bytes
//! and whether the engine's worker is awake: the bytes are queued for a
//! worker thread and every later access to them waits for them, so what
//! the simulation observes is unchanged and only host time moves. The
//! batch decides, not the subtask: subtasks are page-sized, and only the
//! batch sees the total that pays for a queue round trip (DESIGN.md §12).

use std::rc::Rc;

use copier_mem::PhysMem;
use copier_sim::{Again, Core, Nanos};

use crate::cost::{CostModel, CpuCopyKind};
use crate::dma::{DmaCompletion, DmaEngine, DmaError};
use crate::units::{copy_extent_pair, SubTask};

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
    /// Subtasks in task order (offsets strictly increasing), none longer
    /// than [`CostModel::max_subtask`] ([`crate::split_subtasks_into`]).
    /// [`Dispatcher::execute_batch`] plans them in place: it cuts one at
    /// the balance point and marks those it sends to DMA.
    pub subtasks: Vec<SubTask>,
    /// Force full verification for this task regardless of the
    /// dispatcher-wide [`VerifyPolicy`] (`amemcpy_verified`).
    pub verify: bool,
    /// Set by [`Dispatcher::execute_batch`] when a detected corruption of
    /// this task's bytes survived bounded repair: its destination is
    /// wrong although every byte was reported landed.
    pub corrupted: bool,
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
    /// still-valid source. `corruptions - repairs` tasks come back
    /// [`PlannedCopy::corrupted`].
    pub repairs: u64,
}

/// The smallest subtask that is a DMA candidate: one page. §4.3 makes a
/// subtask a candidate when it is large enough to amortize a descriptor;
/// submission (`dma_submit`) costs as much as a 1.4 KB AVX2 copy, so a
/// page pays for its descriptor about three times over.
const DMA_CANDIDATE_MIN: usize = 4096;

/// The task size from which a lone task is split between AVX and DMA
/// (i-piggyback): 12 KB, §4.3.
const IPIGGYBACK_MIN: usize = 12 * 1024;

/// Resubmissions a transient DMA error gets before the dispatcher falls
/// back to the CPU. The paper has no figure for this: it is the fault
/// model's choice (DESIGN.md §10), exercised by `tests/chaos.rs`.
const DMA_RETRY_LIMIT: u32 = 3;

/// The first resubmission's backoff; it doubles per attempt
/// (deterministic exponential backoff). The fault model's choice, like
/// [`DMA_RETRY_LIMIT`].
const DMA_RETRY_BACKOFF: Nanos = Nanos(200);

/// The wait a descriptor gets, as a multiple of its modeled transfer
/// time, before the dispatcher cancels it and falls back to the CPU. The
/// fault model's choice (DESIGN.md §10): far past any honest transfer,
/// far short of a stalled one ([`crate::dma::DMA_TIMEOUT_STALL`]).
const DMA_WAIT_BUDGET: u64 = 8;

// A stalled descriptor must outlast the wait budget, so the dispatcher's
// cancellation always wins the race against the stalled device.
const _: () = assert!(crate::dma::DMA_TIMEOUT_STALL > DMA_WAIT_BUDGET);

/// Progress notification: `(task_id, offset_within_task, len)`.
pub type ProgressFn = Rc<dyn Fn(u64, usize, usize)>;

/// The hardware dispatcher: what every batch shares. A batch's own state
/// — its plan, its DMA completions, its unrepaired corruptions — lives in
/// its [`Self::execute_batch`] call and in the caller's batch, so batches
/// of different service threads may overlap freely.
pub struct Dispatcher {
    pm: Rc<PhysMem>,
    cost: Rc<CostModel>,
    dma: Option<Rc<DmaEngine>>,
    verify: VerifyPolicy,
}

impl Dispatcher {
    /// Creates a dispatcher verifying DMA transfers under `verify`;
    /// `dma = None` degrades to pure CPU copy (the hardware ablation of
    /// Fig. 12-c).
    pub fn new(
        pm: Rc<PhysMem>,
        cost: Rc<CostModel>,
        dma: Option<Rc<DmaEngine>>,
        verify: VerifyPolicy,
    ) -> Self {
        Dispatcher {
            pm,
            cost,
            dma,
            verify,
        }
    }

    /// The attached DMA engine, if any (for quarantine observability).
    pub fn dma(&self) -> Option<&Rc<DmaEngine>> {
        self.dma.as_ref()
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
        // Balance against the bytes actually in this round's subtasks.
        let total = batch_bytes(batch);
        let single_large = batch.len() == 1 && total >= IPIGGYBACK_MIN;
        let fused_small = batch.len() > 1;
        (single_large || fused_small).then(|| (total as f64 * self.cost.dma_share()) as usize)
    }

    /// Marks subtasks of `batch` for DMA, in place. Walks candidates from
    /// the batch tail — later bytes have longer Copy-Use windows — taking
    /// each whole while the device stays within a quarter of
    /// [`Self::dma_target`] past it. A candidate that would overshoot is
    /// cut instead: its last `target − picked` bytes become a DMA subtask
    /// of their own when that is still a candidate's worth, which lands
    /// DMA exactly on the target; otherwise it is passed over. So DMA
    /// never carries more than `target + target / 4`, and ends less than
    /// one [`DMA_CANDIDATE_MIN`] short of `target` unless every candidate
    /// went to it.
    fn plan(&self, batch: &mut [PlannedCopy]) {
        let Some(target) = self.dma_target(batch) else {
            return;
        };
        let min = DMA_CANDIDATE_MIN;
        let mut picked = 0usize;
        for task in batch.iter_mut().rev() {
            for si in (0..task.subtasks.len()).rev() {
                let st = task.subtasks[si];
                if st.len() < min {
                    continue;
                }
                if picked + st.len() <= target + target / 4 {
                    task.subtasks[si].dma = true;
                    picked += st.len();
                } else if target - picked >= min {
                    // A too-large pick leaves the CPU idle-waiting on the
                    // device: give it the tail up to the balance point.
                    let head = st.len() - (target - picked);
                    let tail = SubTask {
                        dma: true,
                        ..st.slice(head, st.len() - head)
                    };
                    task.subtasks[si] = st.slice(0, head);
                    task.subtasks.insert(si + 1, tail);
                    picked = target;
                }
                if picked >= target {
                    return;
                }
            }
        }
    }

    /// Plans `batch` in place ([`PlannedCopy::subtasks`]) and executes it
    /// on the given copier core, invoking `progress` as bytes land. Marks
    /// the tasks whose corruption survived repair
    /// [`PlannedCopy::corrupted`]. Returns a report.
    pub async fn execute_batch(
        &self,
        core: &Rc<Core>,
        batch: &mut [PlannedCopy],
        progress: ProgressFn,
    ) -> DispatchReport {
        self.plan(batch);
        let defer = self.pm.worth_deferring(batch_bytes(batch));
        let mut report = DispatchReport::default();
        let mut completions = Vec::new();

        // Phase 1: submit all DMA descriptors (batched, paying CPU per
        // descriptor), so the device streams while AVX runs. Under a
        // verification policy the source of each transfer is digested
        // *before* submission (host-side; no virtual time charged) —
        // the reference the destination is checked against in phase 3.
        if let Some(dma) = &self.dma {
            // The first descriptor pays the doorbell; the rest chain onto
            // the open batch.
            let mut charge = self.cost.dma_submit;
            for (ti, task) in batch.iter().enumerate() {
                let policy = if task.verify {
                    VerifyPolicy::Full
                } else {
                    self.verify
                };
                for st in task.subtasks.iter().filter(|st| st.dma) {
                    core.advance(charge).await;
                    charge = self.cost.dma_chain;
                    let expect = match policy {
                        VerifyPolicy::Off => None,
                        VerifyPolicy::Sampled => {
                            Some((self.pm.extent_digest(st.src, false), false))
                        }
                        VerifyPolicy::Full => Some((self.pm.extent_digest(st.src, true), true)),
                    };
                    let c = submit(dma, task.task_id, *st, &progress, defer);
                    completions.push((c, ti, expect));
                    report.dma_descriptors += 1;
                    report.dma_bytes += st.len();
                }
            }
        }

        // Phase 2: AVX subtasks execute meanwhile.
        for task in batch.iter() {
            for st in task.subtasks.iter().filter(|st| !st.dma) {
                self.cpu_copy(core, st, defer, Some((&progress, task.task_id)))
                    .await;
                report.cpu_bytes += st.len();
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
            for (mut c, ti, expect) in completions {
                let task_id = batch[ti].task_id;
                let mut attempts = 0u32;
                loop {
                    core.advance(self.cost.dma_complete_check).await;
                    let budget = Nanos(
                        self.cost
                            .dma_transfer(c.subtask.len())
                            .as_nanos()
                            .saturating_mul(DMA_WAIT_BUDGET),
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
                            if self.pm.extent_digest(c.subtask.dst, full) != want {
                                report.corruptions += 1;
                                dma.note_corruption(c.channel);
                                if self.repair(core, dma, &c.subtask, want, full).await {
                                    report.repairs += 1;
                                } else {
                                    batch[ti].corrupted = true;
                                }
                            }
                        }
                        break;
                    }
                    let err = c.error().unwrap_or(DmaError::Timeout);
                    if err == DmaError::Transient
                        && attempts < DMA_RETRY_LIMIT
                        && dma.live_channels() > 0
                    {
                        attempts += 1;
                        report.retries += 1;
                        let backoff = Nanos(DMA_RETRY_BACKOFF.as_nanos() << (attempts - 1).min(16));
                        core.advance(backoff).await;
                        core.advance(self.cost.dma_submit).await;
                        c = submit(dma, task_id, c.subtask, &progress, defer);
                        continue;
                    }
                    // CPU fallback: rescue the descriptor's bytes inline.
                    let st = c.subtask;
                    self.cpu_copy(core, &st, defer, Some((&progress, task_id)))
                        .await;
                    report.fallback_bytes += st.len();
                    report.cpu_bytes += st.len();
                    report.dma_bytes -= st.len();
                    break;
                }
            }
        }
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
        /// task up as [`PlannedCopy::corrupted`].
        const REPAIR_LIMIT: u32 = 2;
        for _ in 0..REPAIR_LIMIT {
            if self.pm.extent_digest(st.src, full) != want {
                return false;
            }
            let mut landed = false;
            if dma.live_channels() > 0 {
                core.advance(self.cost.dma_submit).await;
                let c = dma.submit(*st, None, false);
                c.wait().await;
                landed = c.is_done();
                // A corrupted *repair* is a verified strike too — a
                // channel that damages retries gets retired faster.
                if landed && self.pm.extent_digest(st.dst, full) != want {
                    dma.note_corruption(c.channel);
                }
            }
            if !landed {
                // No channel left, or the re-copy failed outright: rescue
                // on the CPU.
                self.cpu_copy(core, st, false, None).await;
            }
            if self.pm.extent_digest(st.dst, full) == want {
                return true;
            }
        }
        false
    }

    /// Copies `st` on the CPU unit: charges the AVX2 curve (§4.3), then
    /// lands the bytes — on the host, now or `deferred` to the copy
    /// engine — and reports them to `progress` as
    /// task `task_id`'s bytes when given one.
    async fn cpu_copy(
        &self,
        core: &Rc<Core>,
        st: &SubTask,
        deferred: bool,
        progress: Option<(&ProgressFn, u64)>,
    ) {
        core.advance(self.cost.cpu_copy(CpuCopyKind::Avx2, st.len()))
            .await;
        copy_extent_pair(&self.pm, st.dst, st.src, deferred);
        if let Some((progress, task_id)) = progress {
            progress(task_id, st.task_off, st.len());
        }
    }
}

/// Queues `st` on the device, which reports its bytes to `progress` as
/// task `task_id`'s when they land. The caller has charged the submission
/// on its own core.
fn submit(
    dma: &DmaEngine,
    task_id: u64,
    st: SubTask,
    progress: &ProgressFn,
    deferred: bool,
) -> Rc<DmaCompletion> {
    let p = Rc::clone(progress);
    let on_done = Box::new(move |s: &SubTask| p(task_id, s.task_off, s.len()));
    dma.submit(st, Some(on_done), deferred)
}

/// The bytes a batch's subtasks carry: what this round actually copies,
/// which for a copy-slice round may be part of a task.
fn batch_bytes(batch: &[PlannedCopy]) -> usize {
    batch
        .iter()
        .map(|t| t.subtasks.iter().map(|s| s.len()).sum::<usize>())
        .sum()
}

/// The confirmation loop's clock. A [`Core`] holds no sim handle, so the
/// loop reads the core's busy time: it charges and spins on the core for
/// the whole wait, so on a copier core that runs nothing else meanwhile
/// busy time advances with virtual time.
fn core_now(core: &Rc<Core>) -> Nanos {
    core.busy_time()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::split_subtasks_into;
    use copier_mem::{AllocPolicy, Extent, FrameId, DEFER_MIN_BATCH, PAGE_SIZE};
    use copier_sim::{Machine, Sim};
    use std::cell::RefCell;

    /// A batch's subtasks per task, and which of them are on DMA.
    type Plan = (Vec<Vec<SubTask>>, Vec<Vec<bool>>);

    /// `batch` as [`Dispatcher::plan`] leaves it, the marks read off into
    /// a table of their own.
    fn planned_by(d: &Dispatcher, batch: &[PlannedCopy]) -> Plan {
        let mut batch = batch.to_vec();
        d.plan(&mut batch);
        let assign = batch
            .iter()
            .map(|t| t.subtasks.iter().map(|st| st.dma).collect())
            .collect();
        let subtasks = batch
            .into_iter()
            .map(|t| {
                let unmark = |st: SubTask| SubTask { dma: false, ..st };
                t.subtasks.into_iter().map(unmark).collect()
            })
            .collect();
        (subtasks, assign)
    }

    /// The plan as the dispatcher made it before subtasks were cut at
    /// `max_subtask` where they are made: it re-chunked a copy of the
    /// batch, then assigned the copy's subtasks in a table of its own.
    /// The differential oracle of [`Dispatcher::plan`].
    fn oracle(d: &Dispatcher, batch: &[PlannedCopy]) -> Plan {
        let max = d.cost.max_subtask.max(4096);
        let mut normalized: Vec<PlannedCopy> = batch.to_vec();
        for t in &mut normalized {
            t.subtasks = t
                .subtasks
                .iter()
                .flat_map(|st| {
                    (0..st.len())
                        .step_by(max)
                        .map(|off| st.slice(off, (st.len() - off).min(max)))
                })
                .collect();
        }
        let mut assign: Vec<Vec<bool>> = normalized
            .iter()
            .map(|t| vec![false; t.subtasks.len()])
            .collect();
        let mut subtasks: Vec<Vec<SubTask>> =
            normalized.iter().map(|t| t.subtasks.clone()).collect();
        let Some(target) = d.dma_target(&normalized) else {
            return (subtasks, assign);
        };
        let min = DMA_CANDIDATE_MIN;
        let mut picked = 0usize;
        for ti in (0..subtasks.len()).rev() {
            for si in (0..subtasks[ti].len()).rev() {
                let st = subtasks[ti][si];
                if st.len() < min {
                    continue;
                }
                if picked + st.len() <= target + target / 4 {
                    assign[ti][si] = true;
                    picked += st.len();
                } else if target - picked >= min {
                    let head = st.len() - (target - picked);
                    subtasks[ti][si] = st.slice(0, head);
                    subtasks[ti].insert(si + 1, st.slice(head, st.len() - head));
                    assign[ti].insert(si + 1, true);
                    picked = target;
                }
                if picked >= target {
                    return (subtasks, assign);
                }
            }
        }
        (subtasks, assign)
    }

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
            dma: false,
        };
        PlannedCopy {
            task_id,
            len,
            subtasks: vec![st],
            verify: false,
            corrupted: false,
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
                dma: false,
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
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Dispatcher::new(Rc::clone(&pm), cost, Some(dma), VerifyPolicy::Off);
        let task = planned(&pm, 1, 1); // 4 KB < 12 KB i-piggyback floor
        let (_, plan) = planned_by(&d, &[task]);
        assert!(plan[0].iter().all(|&x| !x));
    }

    #[test]
    fn i_piggyback_sends_tail_to_dma() {
        let pm = Rc::new(PhysMem::new(128, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let h = sim.handle();
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Dispatcher::new(
            Rc::clone(&pm),
            Rc::clone(&cost),
            Some(dma),
            VerifyPolicy::Off,
        );
        let task = split_pages(planned(&pm, 1, 8)); // 32 KB in 8 page subtasks
        let (hw, plan) = planned_by(&d, std::slice::from_ref(&task));
        assert_eq!(hw[0], task.subtasks, "pages fit: nothing is cut");
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
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Dispatcher::new(
            Rc::clone(&pm),
            Rc::clone(&cost),
            Some(dma),
            VerifyPolicy::Off,
        );
        // 16 KB skb → skb: one subtask, the whole of which used to go to
        // the device at 4.2 B/ns while the CPU sat waiting.
        let task = planned(&pm, 1, 4);
        let (whole, len) = (task.subtasks[0], task.len);
        let target = (len as f64 * cost.dma_share()) as usize;
        let (hw, plan) = planned_by(&d, &[task]);
        assert_eq!(plan[0], vec![false, true], "the tail goes to DMA");
        assert_eq!(
            hw[0],
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
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Dispatcher::new(Rc::clone(&pm), cost, Some(dma), VerifyPolicy::Off);
        // 8 KB over two tasks: the balance point is 2.2 KB, below what a
        // descriptor amortizes, and a page would be 1.8 × that.
        let batch: Vec<PlannedCopy> = (0..2).map(|i| planned(&pm, i, 1)).collect();
        let (hw, plan) = planned_by(&d, &batch);
        assert!(plan.iter().flatten().all(|&dma| !dma));
        assert!(hw.iter().zip(&batch).all(|(a, b)| *a == b.subtasks));
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
    /// own, split as the service splits them with a `max`-byte limit:
    /// `plan` never touches the bytes.
    fn shaped(shapes: &Shapes, max: usize) -> Vec<PlannedCopy> {
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
                let (mut task_off, mut subtasks) = (0, Vec::new());
                for &len in lens {
                    let src = take(len);
                    split_subtasks_into(&[take(len)], &[src], task_off, max, &mut subtasks);
                    task_off += len;
                }
                PlannedCopy {
                    task_id: ti as u64,
                    len: task_off,
                    subtasks,
                    verify: false,
                    corrupted: false,
                }
            })
            .collect()
    }

    /// What `plan` guarantees, on random contiguous and scattered batches
    /// split at `max_subtask` as the service splits them: every byte
    /// planned once and in order; DMA carries at most `target + target /
    /// 4`; it ends at `target` or beyond, or less than one
    /// [`DMA_CANDIDATE_MIN`] short of it, unless every candidate is on it;
    /// at most one subtask is cut, and the device gets its tail. And the
    /// plan made in place equals, subtask for subtask and mark for mark,
    /// what [`oracle`] makes of the same batch left whole.
    /// Mutants tried, each caught here: no cut (the shortfall bound, 16 KB
    /// contiguous), cutting the head off instead of the tail (the tail
    /// check), exempting the first pick from the overshoot guard (the
    /// upper bound, two small tasks); and, by the oracle, a splitter that
    /// does not cut at `max` (a contiguous run over 32 KiB) and a cut
    /// whose tail is left off the device. A `SubTask::slice` that drops
    /// the mark passes here, since the plan never slices a marked
    /// subtask; `units::tests::a_long_run_is_cut_at_max` kills it.
    #[test]
    fn the_dma_share_lands_on_the_balance_point() {
        use copier_testkit::{check_with, prop_assert, prop_assert_eq, shrink_vec, Config};
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let sim = Sim::new();
        let dma = DmaEngine::new(&sim.handle(), Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Dispatcher::new(pm, Rc::clone(&cost), Some(dma), VerifyPolicy::Off);
        let (min, max) = (DMA_CANDIDATE_MIN, cost.max_subtask);
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
                let batch = shaped(shapes, usize::MAX);
                let plan = planned_by(&d, &shaped(shapes, max));
                prop_assert_eq!(plan, oracle(&d, &batch), "the in-place plan");
                let (hw, assign) = plan;
                prop_assert_eq!(hw.len(), batch.len());
                let (mut dma_bytes, mut cuts, mut idle_candidates) = (0, 0, 0);
                for ((task, planned), row) in batch.iter().zip(&hw).zip(&assign) {
                    prop_assert_eq!(row.len(), planned.len());
                    let mut pieces = planned.iter().zip(row).peekable();
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
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Dispatcher::new(Rc::clone(&pm), cost, Some(dma), VerifyPolicy::Off);
        let batch: Vec<PlannedCopy> = (0..4).map(|i| planned(&pm, i, 1)).collect();
        let (_, plan) = planned_by(&d, &batch);
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
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);
        let d = Rc::new(Dispatcher::new(
            Rc::clone(&pm),
            cost,
            Some(dma),
            VerifyPolicy::Off,
        ));

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
            let r = d2.execute_batch(&core, &mut [task2], cb).await;
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

    /// Runs one batch of `pages`-page tasks split into pages on a fresh
    /// pool with DMA; returns the report, whether every destination
    /// reads back as its source, and the pool's copy-engine counters.
    fn run_batch(tasks: u64, pages: usize) -> (DispatchReport, bool, copier_mem::CopyEngineStats) {
        run_batch_on(
            &Rc::new(PhysMem::new(512, AllocPolicy::Sequential)),
            tasks,
            pages,
        )
    }

    /// [`run_batch`] on `pm`, whose counters it returns as they stand.
    fn run_batch_on(
        pm: &Rc<PhysMem>,
        tasks: u64,
        pages: usize,
    ) -> (DispatchReport, bool, copier_mem::CopyEngineStats) {
        let cost = Rc::new(CostModel::default());
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let dma = DmaEngine::new(&h, Rc::clone(pm), Rc::clone(&cost), 1, None, 2);
        let d = Rc::new(Dispatcher::new(
            Rc::clone(pm),
            cost,
            Some(dma),
            VerifyPolicy::Off,
        ));
        let mut batch: Vec<PlannedCopy> = (0..tasks)
            .map(|i| split_pages(planned(pm, i, pages)))
            .collect();
        let pairs: Vec<(FrameId, FrameId)> = batch
            .iter()
            .map(|t| (t.subtasks[0].src.frame, t.subtasks[0].dst.frame))
            .collect();
        let report = Rc::new(RefCell::new(DispatchReport::default()));
        let (core, report2) = (m.core(0), Rc::clone(&report));
        sim.spawn("copier", async move {
            let cb: ProgressFn = Rc::new(|_, _, _| {});
            *report2.borrow_mut() = d.execute_batch(&core, &mut batch, cb).await;
        });
        sim.run();
        let (mut s, mut dd) = (vec![0u8; pages * PAGE_SIZE], vec![0u8; pages * PAGE_SIZE]);
        let intact = pairs.iter().all(|&(src, dst)| {
            pm.read_run(src, 0, &mut s);
            pm.read_run(dst, 0, &mut dd);
            s == dd
        });
        let r = *report.borrow();
        (r, intact, pm.copy_engine_stats())
    }

    /// A batch of `DEFER_MIN_BATCH` bytes queues every landing — CPU
    /// subtasks and DMA descriptors — for the host copy engine, and what
    /// reads back is the source; one page less copies everything inline.
    #[test]
    fn a_large_batch_lands_through_the_copy_engine() {
        let pages = DEFER_MIN_BATCH / PAGE_SIZE / 2;
        let (r, intact, engine) = run_batch(2, pages);
        assert!(r.dma_descriptors > 0 && r.cpu_bytes > 0, "{r:?}");
        assert!(intact, "every destination reads back as its source");
        assert_eq!(engine.deferred_bytes, DEFER_MIN_BATCH as u64);
        assert_eq!(engine.deferred_copies, 2 * pages as u64);
        let (r, intact, engine) = run_batch(1, 2 * pages - 1);
        assert!(r.dma_descriptors > 0 && intact);
        assert_eq!(engine, copier_mem::CopyEngineStats::default());
    }

    /// While the engine's worker is awake, a batch far below
    /// `DEFER_MIN_BATCH` queues its landings too; on a fresh pool, whose
    /// worker never started, the same batch lands inline.
    #[test]
    fn a_small_batch_lands_through_a_warm_copy_engine() {
        let pages = 16 * 1024 / PAGE_SIZE;
        let (r, intact, engine) = run_batch(1, pages);
        assert!(r.dma_descriptors > 0 && r.cpu_bytes > 0, "{r:?}");
        assert!(intact, "every destination reads back as its source");
        assert_eq!(engine, copier_mem::CopyEngineStats::default());
        let pm = Rc::new(PhysMem::new(512, AllocPolicy::Sequential));
        let (src, dst) = (pm.alloc().unwrap(), pm.alloc().unwrap());
        // A queued copy wakes the worker, which then stays awake for its
        // idle spin (50 µs of host time). A host that takes this thread
        // off its core for longer before the batch gets another try.
        let warm = (0..20).any(|_| {
            pm.defer_copy_run(dst, 0, src, 0, 64);
            let before = pm.copy_engine_stats().deferred_bytes;
            let (r, intact, engine) = run_batch_on(&pm, 1, pages);
            assert!(r.dma_descriptors > 0 && r.cpu_bytes > 0, "{r:?}");
            assert!(intact, "every destination reads back as its source");
            engine.deferred_bytes - before == (pages * PAGE_SIZE) as u64
        });
        assert!(warm, "a 16 KiB batch never went through the awake engine");
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
        let dma = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, Some(plan), 2);
        let eng = Rc::clone(&dma);
        let d = Rc::new(Dispatcher::new(Rc::clone(&pm), cost, Some(dma), policy));
        let task = split_pages(planned(&pm, 3, 16));
        let (src0, dst0) = (task.subtasks[0].src.frame, task.subtasks[0].dst.frame);
        let core = m.core(0);
        let d2 = Rc::clone(&d);
        let task2 = task.clone();
        let report = Rc::new(RefCell::new(DispatchReport::default()));
        let report2 = Rc::clone(&report);
        let unrepaired = Rc::new(RefCell::new(Vec::new()));
        let unrepaired2 = Rc::clone(&unrepaired);
        sim.spawn("copier", async move {
            let cb: ProgressFn = Rc::new(|_, _, _| {});
            let mut batch = [task2];
            *report2.borrow_mut() = d2.execute_batch(&core, &mut batch, cb).await;
            let corrupted = batch.iter().filter(|t| t.corrupted).map(|t| t.task_id);
            unrepaired2.borrow_mut().extend(corrupted);
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
        (r, unrepaired.take(), intact, eng.corrupt_quarantined())
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
        let d = Rc::new(Dispatcher::new(
            Rc::clone(&pm),
            cost,
            None,
            VerifyPolicy::Off,
        ));
        let task = split_pages(planned(&pm, 1, 8));
        let core = m.core(0);
        let d2 = Rc::clone(&d);
        let report = Rc::new(RefCell::new(DispatchReport::default()));
        let report2 = Rc::clone(&report);
        sim.spawn("copier", async move {
            let cb: ProgressFn = Rc::new(|_, _, _| {});
            *report2.borrow_mut() = d2.execute_batch(&core, &mut [task], cb).await;
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
            let dma =
                with_dma.then(|| DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2));
            let d = Rc::new(Dispatcher::new(
                Rc::clone(&pm),
                cost,
                dma,
                VerifyPolicy::Off,
            ));
            let task = split_pages(planned(&pm, 1, 64)); // 256 KB
            let core = m.core(0);
            sim.spawn("copier", async move {
                let cb: ProgressFn = Rc::new(|_, _, _| {});
                d.execute_batch(&core, &mut [task], cb).await;
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

    /// The lane fold spelled by word index, from this crate's side of
    /// the wire: word `i` of the whole 32-byte steps goes to lane `i % 4`,
    /// the lanes fold into `h` in order, then the remainder's words and
    /// bytes fold serially. The prime is byte-FNV of a lone 1 from 0.
    fn naive_lane_fold(h: u64, bytes: &[u8]) -> u64 {
        let prime = copier_sim::wire::fnv_bytes(0, &[1]);
        let step = |h: u64, w: u64| (h ^ w).wrapping_mul(prime);
        let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        let body = bytes.len() / 32 * 4;
        let mut lanes = [h, h ^ 1, h ^ 2, h ^ 3];
        for i in 0..body {
            lanes[i % 4] = step(lanes[i % 4], word(i));
        }
        let mut acc = lanes.iter().fold(h, |a, &l| step(a, l));
        let words = bytes.len() / 8;
        for i in body..words {
            acc = step(acc, word(i));
        }
        for &b in &bytes[8 * words..] {
            acc = step(acc, b as u64);
        }
        acc
    }

    /// The copy-verification digest of thirteen extents, head/tail and
    /// full, pinned to the values of [`naive_lane_fold`] (the seed is the
    /// offset basis with the length folded in; full coverage folds 4 KiB
    /// chunks from the extent's start, head/tail the first 64 bytes then
    /// the rest of the last 64). The spelling is checked against the pins
    /// too, so a pin is never program output. An extent of at most 64
    /// bytes digests differently at the two coverages (head/tail also
    /// folds the empty tail, and the lane fold of nothing is not the
    /// identity); no caller compares across coverages.
    #[test]
    fn extent_digests_keep_their_values() {
        let pm = PhysMem::new(16, AllocPolicy::Sequential);
        let base = pm.alloc_contiguous(4).unwrap();
        let mut bytes = vec![0u8; 4 * PAGE_SIZE];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for b in bytes.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        pm.write_run(base, 0, &bytes);
        let cases = [
            (0usize, 0usize),
            (0, 1),
            (3, 7),
            (0, 63),
            (5, 64),
            (1, 65),
            (4000, 100),
            (8, 128),
            (0, 4095),
            (0, 4096),
            (17, 4097),
            (100, 9000),
            (0, 4 * PAGE_SIZE),
        ];
        let pinned = [
            0xaf63_bd4c_8601_b7df,
            0xaf63_bd4c_8601_b7df,
            0x18a3_d414_ae76_7edf,
            0xa8db_51a8_4b38_0da3,
            0xbdae_1752_6db6_c185,
            0xd430_4e5b_687b_aa35,
            0x2c0f_014b_4dd0_0512,
            0xba4e_60e6_9ac1_d316,
            0x9588_8b16_6a8a_f8f7,
            0xabf0_58c0_8edf_7d5b,
            0xe1f7_0644_95b7_4a91,
            0xa434_8ae7_90ac_3285,
            0x420c_2e66_434e_988a,
            0x7699_7329_22f1_0bf6,
            0xf9f7_ffd4_177f_da86,
            0xcabb_1f37_b074_a1be,
            0x17ec_25db_8efa_d28e,
            0x9277_ac7a_2d1a_7cb7,
            0x6577_47e9_2adf_9c51,
            0xecec_0af5_ce38_ca01,
            0x1e23_b60b_0908_4fb4,
            0x345d_edb6_a298_f4cb,
            0x6df9_cccc_332f_c988,
            0x57ff_5420_bc70_81a1,
            0x3c15_7de6_bd1b_4f79,
            0xca60_8359_c454_afc2,
        ];
        let prime = copier_sim::wire::fnv_bytes(0, &[1]);
        let seed = |len: usize| (copier_sim::wire::FNV_OFFSET ^ len as u64).wrapping_mul(prime);
        let naive: Vec<u64> = cases
            .iter()
            .flat_map(|&(off, len)| {
                let e = &bytes[off..off + len];
                if len == 0 {
                    return [seed(0), seed(0)];
                }
                let head = len.min(64);
                let tail = len.saturating_sub(64).max(head);
                let sampled = naive_lane_fold(naive_lane_fold(seed(len), &e[..head]), &e[tail..]);
                let full = e.chunks(PAGE_SIZE).fold(seed(len), naive_lane_fold);
                [sampled, full]
            })
            .collect();
        assert_eq!(naive, pinned, "the naive spelling reproduces the pins");
        let got: Vec<u64> = cases
            .iter()
            .flat_map(|&(off, len)| {
                let ext = Extent {
                    frame: base,
                    off,
                    len,
                };
                [pm.extent_digest(ext, false), pm.extent_digest(ext, true)]
            })
            .collect();
        assert_eq!(got, pinned);
    }
}
