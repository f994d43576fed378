//! The Copier service: polling threads, planning, and execution (§4).
//!
//! Each Copier thread is a shard: it runs on a dedicated simulated core,
//! owns the clients hashed to it, and loops:
//!
//! 1. **Drain** client CSH queues into per-set pending windows, merging
//!    u-mode and k-mode order via barrier keys (§4.2.1);
//! 2. **Serve Sync Tasks** (k-mode first): promotion with dependency
//!    closure, or `abort` (§4.2.2, §4.4);
//! 3. **Schedule** the runnable clients (CFS-by-copy-length within
//!    cgroups, §4.5.3) and serve them in that order, steps 4–7 for one
//!    client after another, until the round's copy slice is spent;
//! 4. **Select** a batch of runnable, mutually independent tasks from
//!    what is left of the slice, applying layered copy absorption (§4.4)
//!    and deferring absorbed obligations;
//! 5. **Plan** each task: proactive fault handling — resolve + pin every
//!    page, via the ATCache when possible (§4.5.4, §4.3);
//! 6. **Dispatch** the batch to the piggybacked AVX+DMA units (§4.3),
//!    marking descriptor segments as bytes land;
//! 7. **Complete**: run `KFUNC`s, queue `UFUNC`s, unpin, release.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use copier_hw::{
    slice_extents_into, split_subtasks_into, ATCache, CostModel, CpuCopyKind, DispatchReport,
    Dispatcher, DmaEngine, PlannedCopy, ProgressFn, SubTask,
};
use copier_mem::{
    frames_of, AddressSpace, Extent, FrameId, MemError, PhysMem, VirtAddr, PAGE_SIZE,
};
use copier_sim::trace::{fnv_fold, TraceEvent, FNV_OFFSET};
use copier_sim::{stream_seed, Core, CrashPoint, Nanos, Notify, SimHandle};

use crate::absorb::{self, AbsorbPlan};
use crate::client::{Client, ClientId, PendEntry, QueueSet, TaintRange};
use crate::config::{CopierConfig, PollMode};
use crate::descriptor::{CopyFault, SegDescriptor};
use crate::interval::IntervalSet;
use crate::journal::{AdmitRec, Journal, JournalStats, Recovered, TaintRec};
use crate::sched::{min_live_vruntime, vruntime_before, RunOrder, Scheduler};
use crate::task::{CopyTask, Handler, QueueEntry, SyncTask, TaskId};

/// Per-thread dispatch progress lookup, reused across rounds (cleared, not
/// reallocated — host-only optimization): the batch's entries by task id,
/// sorted once the batch is planned.
type ByTid = Rc<RefCell<Vec<(TaskId, Rc<PendEntry>)>>>;

/// Per-thread round scratch, reused across polls so a settled round
/// allocates nothing and a served copy only what outlives the round (its
/// window entry, its plan's pieces, its pin lists): the lists below are
/// refilled in place.
struct RoundScratch {
    clients: Vec<Rc<Client>>,
    /// Assignment epoch the `clients` buffer was built at. While the
    /// service-wide [`Copier::assign_epoch`] matches, the buffer is
    /// reused as-is — a settled poll over a stable client population
    /// costs O(1) list maintenance instead of an O(clients) rebuild.
    epoch: u64,
    /// Registration watermark latched at round start: the fast path only
    /// admits clients with `reg_seq < watermark` into this round's lists,
    /// mirroring the legacy snapshot semantics (a client registered
    /// mid-round was absent from the round-start snapshot).
    reg_watermark: u64,
    /// The round's service order over `clients` (heap buffer reused).
    order: RunOrder,
    /// The batch selected for the client being served; empty otherwise.
    selected: Vec<Selected>,
    by_tid: ByTid,
    /// Marks bytes landed on `by_tid`'s entries; one closure per thread.
    progress: ProgressFn,
    /// The gaps of the entry being planned.
    gaps: Vec<(usize, usize)>,
    /// The batch as handed to the dispatcher.
    planned: Vec<PlannedCopy>,
    plan: PlanScratch,
}

/// `plan_entry`'s working vectors.
#[derive(Default)]
struct PlanScratch {
    /// Recycled inner vectors for `RoundScratch::planned`.
    subtask_pool: Vec<Vec<SubTask>>,
    /// Translations of the gap being planned, and the destination's part
    /// under one source piece.
    dst_ex: Vec<Extent>,
    src_ex: Vec<Extent>,
    dst_slice: Vec<Extent>,
}

impl RoundScratch {
    fn new(svc: &Rc<Copier>) -> Self {
        let by_tid = ByTid::default();
        let (map, me) = (Rc::clone(&by_tid), Rc::downgrade(svc));
        let progress: ProgressFn = Rc::new(move |tid, off, len| {
            // A dead incarnation processes no completions: once this
            // service has crashed, a late DMA landing must not mark
            // the (shared, adoption-surviving) entry or any segment:
            // the successor clears the in-flight ranges at adoption and
            // re-copies unmarked gaps idempotently.
            let Some(svc) = me.upgrade() else { return };
            if svc.crashed.get() {
                return;
            }
            // Clone out of the list before marking: the short borrow
            // never outlives the callback's own bookkeeping.
            let entry = {
                let map = map.borrow();
                map.binary_search_by_key(&tid, |(t, _)| *t)
                    .ok()
                    .map(|i| Rc::clone(&map[i].1))
            };
            if let Some(e) = entry {
                mark_progress(&e, off, len);
            }
        });
        RoundScratch {
            clients: Vec::new(),
            epoch: u64::MAX,
            reg_watermark: u64::MAX,
            order: RunOrder::default(),
            selected: Vec::new(),
            by_tid,
            progress,
            gaps: Vec::new(),
            planned: Vec::new(),
            plan: PlanScratch::default(),
        }
    }
}

/// Host-side control-plane cost observables (DESIGN.md §18) — how much
/// per-round work the service actually did, exposed so the soak bench
/// and the differential suite can prove O(active) scaling instead of
/// inferring it from wall clock. Not part of [`CopierStats`]: that
/// vector's layout is frozen (journal checkpoints + trace state hashes),
/// so new counters live here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlObs {
    /// Clients entering a shard's active set (submission doorbell,
    /// scrub heal, adoption).
    pub activations: u64,
    /// Clients leaving a shard's active set (fully settled at round end).
    pub deactivations: u64,
    /// Assignment-list rebuilds (epoch misses). Every legacy round paid
    /// one; the fast path pays one per membership change.
    pub assign_rebuilds: u64,
    /// O(shard-clients) min-vruntime rescans (cache invalidations hit by
    /// a read). The legacy path paid one per barrier and admission scan.
    pub minvr_recomputes: u64,
    /// Per-client trace-hash contributions re-folded (dirty clients at a
    /// traced round close); the full-sweep oracle folds every client.
    pub hash_refolds: u64,
    /// Virtual ns shards spent parked at the round barrier, from arriving
    /// to the generation's release, summed over shards (the last arriver
    /// of a generation waits 0). Divided by shards × run time it is the
    /// share of every service core the lockstep costs.
    pub barrier_wait_ns: u64,
}

/// Aggregate service statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CopierStats {
    /// Copy tasks fully completed.
    pub tasks_completed: u64,
    /// Bytes physically copied by the service.
    pub bytes_copied: u64,
    /// Bytes whose source was short-circuited by absorption.
    pub bytes_absorbed: u64,
    /// Bytes of deferred obligations eventually executed.
    pub bytes_deferred_executed: u64,
    /// Sync tasks processed.
    pub syncs: u64,
    /// Promotions performed.
    pub promotions: u64,
    /// Tasks aborted.
    pub aborts: u64,
    /// Tasks failed by faults.
    pub faults: u64,
    /// Idle poll sweeps.
    pub idle_polls: u64,
    /// Scheduling rounds that executed work.
    pub busy_rounds: u64,
    /// Dispatcher aggregate.
    pub dispatch: DispatchReport,
    /// Page faults proactively resolved during planning.
    pub proactive_faults: u64,
    /// Transient-failed DMA descriptors resubmitted.
    pub retries: u64,
    /// Bytes rescued by the CPU after DMA gave up on them.
    pub fallback_bytes: u64,
    /// DMA channels currently quarantined (point-in-time, not cumulative).
    pub quarantined_channels: u64,
    /// Orphaned tasks reclaimed from dead clients.
    pub orphans_reclaimed: u64,
    /// Dependent tasks aborted in dependency order after a fault (§4.4).
    pub dependents_aborted: u64,
    /// Submissions rejected by admission control (quota or watermark).
    pub admission_rejected: u64,
    /// Bytes of rejected submissions (the shed offered load).
    pub shed_bytes: u64,
    /// Submission credits returned to clients on the completion path.
    pub credits_granted: u64,
    /// Tasks served via the degraded synchronous path under memory
    /// pressure (§4.6 break-even fallback; no pinning, no absorption).
    pub degraded_sync_copies: u64,
    /// Transitions of the physical pool into the pressured state.
    pub pressure_events: u64,
    /// Hazard/absorption analyses performed (one per considered task).
    pub hazard_scans: u64,
    /// Records visited by address-index window queries (analysis, csync
    /// lookup, and taint cascades) — the work the index did instead of
    /// full window sweeps.
    pub index_hits: u64,
    /// High-water mark of resident index records across all queue sets.
    pub index_entries_peak: u64,
    /// Poll rounds that found no batch to execute (the settled fast path).
    pub rounds_settled: u64,
    /// Poll rounds that selected and executed a batch.
    pub rounds_active: u64,
    /// Injected crashes taken by this incarnation (DESIGN.md §15).
    pub crashes: u64,
    /// Unfinished window entries re-adopted from the journal after a
    /// restart; execution continues where the dead service stopped.
    pub recovered_tasks: u64,
    /// Journaled entries found already finished at adoption (the crash
    /// hit between the bytes landing and finalization) and settled then.
    pub recovered_finalized: u64,
    /// Window entries whose admission never became durable, dropped
    /// undelivered at adoption — recovered via client resubmission.
    pub dropped_unjournaled: u64,
    /// Journaled tasks whose destination was found torn at recovery and
    /// poisoned [`CopyFault::Torn`].
    pub torn_poisoned: u64,
    /// Tasks whose verification mismatch survived bounded repair and were
    /// poisoned [`CopyFault::Corrupted`].
    pub corrupted_poisoned: u64,
    /// Scrub chunks re-digested by the background walker.
    pub scrub_chunks: u64,
    /// Rotted scrub chunks healed from an intact replica.
    pub scrub_heals: u64,
    /// Rotted scrub chunks with no intact replica (taint remembered).
    pub scrub_unrepairable: u64,
    /// DMA channels quarantined by corruption strikes (point-in-time,
    /// disjoint from hard-death `quarantined_channels`).
    pub corrupt_quarantined: u64,
}

struct Selected {
    set: Rc<QueueSet>,
    entry: Rc<PendEntry>,
    plan: AbsorbPlan,
    /// Per-round byte budget for this task (copy-slice partial execution).
    cap: usize,
}

/// A long-lived region registered for background integrity scrubbing
/// (pinned I/O buffers, journaled state): the walker re-digests one chunk
/// per `scrub_period` rounds against the golden digests taken at
/// registration and heals rot from the replica.
struct ScrubRegion {
    client: ClientId,
    space: Rc<AddressSpace>,
    /// The guarded range.
    primary: VirtAddr,
    /// Known-good copy of the same bytes; heal tasks source from it.
    replica: VirtAddr,
    len: usize,
    chunk: usize,
    /// Full-coverage (stride-1) digest per chunk, taken at registration.
    golden: Vec<u64>,
    /// Chunk found rotted with no intact replica: taint remembered once,
    /// chunk retired from the walk.
    dead: Vec<Cell<bool>>,
    /// A heal copy for this chunk is queued or in flight; the walker
    /// skips it until the task settles (the handler clears the flag).
    healing: Vec<Rc<Cell<bool>>>,
}

/// One control-plane shard's private state (DESIGN.md §17). The hot
/// counters (`bytes`, the stats deltas) are written and read only by the
/// owning shard during its round; the one cross-shard value, the
/// `peer_min_vr` mirror, is rewritten for every shard by the last arriver
/// at the round barrier, in shard-id order — the deterministic "message
/// round". Reads of cross-shard state therefore never observe a peer
/// mid-round, which is what keeps N-shard runs bit-reproducible from a
/// seed.
#[derive(Default)]
struct ShardState {
    /// Bytes currently admitted by this shard's clients — what the
    /// shard's share of the watermarks gates.
    bytes: Cell<u64>,
    /// Wrap-safe minimum live vruntime across every *other* shard as of
    /// the last barrier (`None`: peers have no live clients). Keeps the
    /// least-served admission exemption global without scanning peer
    /// client tables mid-round.
    peer_min_vr: Cell<Option<u64>>,
    /// Latched watermark-shedding state (hysteresis over this shard's
    /// share of the watermarks).
    shedding: Cell<bool>,
    /// Monotone per-shard round counter: round identity in the
    /// record/replay trace. Counts every traced poll round, active or
    /// idle — idle rounds emit nothing thanks to lazy headers.
    round_no: Cell<u64>,
    /// Bytes physically copied by this shard (stats delta).
    bytes_copied: Cell<u64>,
    /// Tasks completed by this shard (stats delta).
    tasks_completed: Cell<u64>,
    /// Rounds in which this shard executed a batch (stats delta).
    rounds_active: Cell<u64>,
    /// Deterministic active set (DESIGN.md §18): the shard's clients with
    /// unsettled state, keyed by `reg_seq` so iteration order equals the
    /// legacy clients-vec (registration) order. Clients enter on the
    /// submission doorbell (or scrub heal / adoption) and leave when
    /// fully settled at round end. Maintained only on the fast path.
    active: RefCell<BTreeMap<u64, Rc<Client>>>,
    /// Cached wrap-safe minimum live vruntime over this shard's clients,
    /// with the count of clients sitting at that minimum. `min_valid`
    /// false means stale (recomputed lazily on the next read); valid with
    /// `min_count == 0` means "no live clients".
    min_vr: Cell<u64>,
    min_count: Cell<u64>,
    min_valid: Cell<bool>,
    /// Commutative per-shard trace-hash accumulators: wrapping sums of
    /// every shard client's cached `(hp, hx)` contribution. Maintained
    /// only while delta-folded hashing is on (tracer + fast path).
    hp_sum: Cell<u64>,
    hx_sum: Cell<u64>,
    /// Clients whose hash contribution went stale since the last fold.
    hash_dirty: RefCell<Vec<Rc<Client>>>,
}

/// The asynchronous-copy OS service.
pub struct Copier {
    h: SimHandle,
    pm: Rc<PhysMem>,
    cost: Rc<CostModel>,
    cfg: CopierConfig,
    dispatcher: Rc<Dispatcher>,
    atcache: Rc<ATCache>,
    /// The copy-length scheduler and cgroup controller.
    pub sched: Scheduler,
    clients: RefCell<Vec<Rc<Client>>>,
    /// One dedicated core per shard; `cores[i]` runs shard `i`'s thread.
    cores: Vec<Rc<Core>>,
    scenario_active: Cell<bool>,
    wake: Rc<Notify>,
    parked: Cell<usize>,
    next_tid: Cell<TaskId>,
    next_client: Cell<ClientId>,
    stats: RefCell<CopierStats>,
    stopping: Cell<bool>,
    /// Per-shard control planes; `len() == cfg.shards.max(1)`. The
    /// per-shard counters are maintained at every shard count (host-side
    /// `Cell` writes, no virtual time).
    shards: Vec<ShardState>,
    /// Round-barrier generation (bumped by the last arriver).
    barrier_gen: Cell<u64>,
    /// Shards arrived at the current barrier generation.
    barrier_arrived: Cell<usize>,
    /// OR-accumulator of `did_work` across the current generation's
    /// arrivals; folded into `barrier_any` at release.
    barrier_acc: Cell<bool>,
    /// Whether any shard did work in the last completed generation — the
    /// barrier-agreed idleness fact: shards park only when this is
    /// false, so they spin down (and wake) together.
    barrier_any: Cell<bool>,
    /// Wakes shards parked at the round barrier. Distinct from `wake`:
    /// submission wakeups must not release a barrier early.
    barrier_wake: Rc<Notify>,
    /// Set when an injected crash killed this incarnation: threads exit
    /// immediately and the control plane survives only in the journal
    /// store and client-owned memory.
    crashed: Cell<bool>,
    /// Service incarnation epoch (journal-derived; 0 when unjournaled).
    epoch: Cell<u64>,
    /// This incarnation's journal writer, if journaling is on.
    journal: Option<Journal>,
    /// What journal replay reconstructed at construction; consumed by
    /// [`Copier::adopt_client`] for digest reconciliation.
    recovered: RefCell<Option<Recovered>>,
    /// Regions under background scrub (§integrity).
    scrub: RefCell<Vec<ScrubRegion>>,
    /// Scrub cadence counter. Deliberately not `round_no`: that one only
    /// advances when tracing is on, and the walker must pace identically
    /// either way.
    scrub_tick: Cell<u64>,
    /// Walk resume position (chunk index across all regions).
    scrub_pos: Cell<usize>,
    /// Assignment epoch (DESIGN.md §18): bumped whenever the per-thread
    /// assignment lists could change — register/reap/adopt and
    /// active-set membership changes. Round scratches compare against it
    /// to reuse their client lists.
    assign_epoch: Cell<u64>,
    /// Monotone registration sequence feeding [`Client::reg_seq`].
    next_reg: Cell<u64>,
    /// Control-plane cost observables (host-side, not in CopierStats).
    obs: Cell<ControlObs>,
}

impl Copier {
    /// Creates the service over dedicated `cores`, one per shard
    /// (`cores.len() == cfg.shards`): a service thread is a shard.
    pub fn new(
        h: &SimHandle,
        pm: Rc<PhysMem>,
        cores: Vec<Rc<Core>>,
        cost: Rc<CostModel>,
        cfg: CopierConfig,
    ) -> Rc<Self> {
        let dma = cfg.use_dma.then(|| {
            let d = DmaEngine::with_channels(
                h,
                Rc::clone(&pm),
                Rc::clone(&cost),
                cfg.dma_channels.max(1),
                cfg.fault_plan.clone(),
            );
            d.set_corruption_threshold(cfg.corrupt_quarantine_threshold);
            d
        });
        let dispatcher = Rc::new(Dispatcher::new(Rc::clone(&pm), Rc::clone(&cost), dma));
        dispatcher.set_verify(cfg.verify);
        let atcache = Rc::new(ATCache::new(cfg.atcache_capacity));
        let nshards = cfg.shards.max(1);
        assert_eq!(
            cores.len(),
            nshards,
            "a service thread is a shard: Copier needs exactly one dedicated core per shard"
        );
        assert!(
            nshards == 1 || matches!(cfg.polling, PollMode::Napi { .. }),
            "sharded service requires NAPI polling"
        );
        // Journal attach: replay whatever a previous incarnation left in
        // the store (truncating a torn tail) and open a new epoch. The
        // tid high-water mark carries forward so task ids never collide
        // across incarnations, and a checkpointed stats vector restores
        // the cumulative counters.
        let (journal, recovered) = match &cfg.journal {
            Some(store) => {
                let (j, r) = Journal::attach(store);
                (Some(j), Some(r))
            }
            None => (None, None),
        };
        let epoch = journal.as_ref().map_or(0, |j| j.epoch());
        let next_tid = recovered.as_ref().map_or(1, |r| r.next_tid.max(1));
        let stats = recovered
            .as_ref()
            .and_then(|r| r.stats.as_deref())
            .map(stats_from_vec)
            .unwrap_or_default();
        Rc::new(Copier {
            h: h.clone(),
            pm,
            cost,
            dispatcher,
            atcache,
            sched: {
                let s = Scheduler::new();
                s.set_copy_slice(cfg.copy_slice);
                s
            },
            cfg,
            clients: RefCell::new(Vec::new()),
            cores,
            scenario_active: Cell::new(true),
            wake: Rc::new(Notify::new()),
            parked: Cell::new(0),
            next_tid: Cell::new(next_tid),
            next_client: Cell::new(1),
            stats: RefCell::new(stats),
            stopping: Cell::new(false),
            shards: (0..nshards).map(|_| ShardState::default()).collect(),
            barrier_gen: Cell::new(0),
            barrier_arrived: Cell::new(0),
            barrier_acc: Cell::new(false),
            barrier_any: Cell::new(false),
            barrier_wake: Rc::new(Notify::new()),
            crashed: Cell::new(false),
            epoch: Cell::new(epoch),
            journal,
            recovered: RefCell::new(recovered),
            scrub: RefCell::new(Vec::new()),
            scrub_tick: Cell::new(0),
            scrub_pos: Cell::new(0),
            assign_epoch: Cell::new(0),
            next_reg: Cell::new(0),
            obs: Cell::default(),
        })
    }

    /// The cost model shared with clients.
    pub fn cost_model(&self) -> &Rc<CostModel> {
        &self.cost
    }

    /// The simulation handle (clients use it for yield-waits).
    pub fn sim_handle(&self) -> SimHandle {
        self.h.clone()
    }

    /// The physical pool.
    pub fn phys(&self) -> &Rc<PhysMem> {
        &self.pm
    }

    /// The active configuration.
    pub fn config(&self) -> &CopierConfig {
        &self.cfg
    }

    /// The ATCache (for experiment counters).
    pub fn atcache(&self) -> &Rc<ATCache> {
        &self.atcache
    }

    /// Snapshot of the service statistics.
    pub fn stats(&self) -> CopierStats {
        let mut s = *self.stats.borrow();
        (
            s.quarantined_channels,
            s.pressure_events,
            s.corrupt_quarantined,
        ) = self.stats_gauges();
        s
    }

    /// The `(quarantined_channels, pressure_events, corrupt_quarantined)`
    /// stats that live in the DMA engine and the frame pool and are read
    /// at snapshot time instead of being counted here.
    fn stats_gauges(&self) -> (u64, u64, u64) {
        let dma = self.dispatcher.dma();
        (
            dma.map_or(0, |d| d.quarantined() as u64),
            self.pm.pressure_events(),
            dma.map_or(0, |d| d.corrupt_quarantined()),
        )
    }

    /// Bytes currently admitted into service windows across all clients.
    pub fn admitted_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes.get()).sum()
    }

    /// Bytes currently admitted by shard `idx`'s clients — the quantity
    /// the shard's share of the watermarks gates. Valid for
    /// `idx < nshards()`.
    pub fn shard_admitted_bytes(&self, idx: usize) -> u64 {
        self.shards[idx].bytes.get()
    }

    /// Number of control-plane shards (1 = the classic single-instance
    /// service).
    pub fn nshards(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic shard owner of an address space: a splitmix-mixed
    /// hash of the space id. Stable across runs, registration order, and
    /// shard count (only the modulus changes), so the same tenant lands
    /// on the same shard in every run of a given configuration.
    pub fn shard_of_space(&self, space_id: u32) -> usize {
        (stream_seed(space_id as u64, 0) % self.shards.len() as u64) as usize
    }

    /// Per-shard `(bytes_copied, tasks_completed, rounds_active)` deltas
    /// — the observables the shard-scaling bench and the differential
    /// suite read. Valid for `idx < nshards()`.
    pub fn shard_stats(&self, idx: usize) -> (u64, u64, u64) {
        let s = &self.shards[idx];
        (
            s.bytes_copied.get(),
            s.tasks_completed.get(),
            s.rounds_active.get(),
        )
    }

    /// Snapshot of the control-plane cost observables (DESIGN.md §18).
    pub fn control_obs(&self) -> ControlObs {
        self.obs.get()
    }

    /// Updates the control-plane cost observables in place.
    fn obs(&self, bump: impl FnOnce(&mut ControlObs)) {
        let mut o = self.obs.get();
        bump(&mut o);
        self.obs.set(o);
    }

    /// Cross-checks every incrementally maintained aggregate against a
    /// from-scratch recomputation: the cached min-vruntime (when valid),
    /// active-set completeness (on the fast path every live inactive
    /// client must be settled), and — under delta-folded hashing — the
    /// commutative hash sums after a refold. Test instrumentation for the
    /// soak differential suite; returns the first discrepancy as an error
    /// string. Host-side only: charges no virtual time.
    pub fn audit_aggregates(&self) -> Result<(), String> {
        let clients = self.clients.borrow();
        for (idx, sh) in self.shards.iter().enumerate() {
            if sh.min_valid.get() {
                let live = clients
                    .iter()
                    .filter(|c| c.shard.get() == idx && !c.dead.get());
                match min_live_vruntime(live.clone()) {
                    Some(m) => {
                        let n = live.filter(|c| c.copied_total.get() == m).count() as u64;
                        if sh.min_count.get() != n || sh.min_vr.get() != m {
                            return Err(format!(
                                "shard {idx}: min-vr cache ({}, {}) != sweep ({m}, {n})",
                                sh.min_vr.get(),
                                sh.min_count.get()
                            ));
                        }
                    }
                    None => {
                        if sh.min_count.get() != 0 {
                            return Err(format!(
                                "shard {idx}: min-vr cache claims {} holder(s), none live",
                                sh.min_count.get()
                            ));
                        }
                    }
                }
            }
            if self.fast_path() {
                for c in clients.iter().filter(|c| c.shard.get() == idx) {
                    if !c.dead.get() && !c.active.get() && !self.settled(c) {
                        return Err(format!(
                            "shard {idx}: inactive client {} holds unsettled work",
                            c.id
                        ));
                    }
                }
            }
            if self.hash_cached() {
                self.refold_dirty(idx);
                let (mut hp, mut hx) = (0u64, 0u64);
                for c in clients.iter().filter(|c| c.shard.get() == idx) {
                    let (p, x) = fold_client_commutative(c);
                    hp = hp.wrapping_add(p);
                    hx = hx.wrapping_add(x);
                }
                if (hp, hx) != (sh.hp_sum.get(), sh.hx_sum.get()) {
                    return Err(format!(
                        "shard {idx}: hash sums ({:#x}, {:#x}) != recompute ({hp:#x}, {hx:#x})",
                        sh.hp_sum.get(),
                        sh.hx_sum.get()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether rounds iterate per-shard active sets instead of the whole
    /// client table: always, unless `full_sweep` asks for the reference
    /// behaviour.
    fn fast_path(&self) -> bool {
        !self.cfg.full_sweep
    }

    /// Whether the trace state hashes are maintained as delta-folded
    /// per-client contributions: every traced service on the fast path.
    /// One thread owns all of a shard's clients, so nothing touches a
    /// client behind the round that marked it dirty; under `full_sweep`
    /// every traced round recomputes the same sums from scratch.
    fn hash_cached(&self) -> bool {
        self.cfg.tracer.is_some() && self.fast_path()
    }

    /// Submission doorbell (DESIGN.md §18): marks `client` active on its
    /// shard and wakes parked service threads. Called by libCopier after
    /// every ring push; service-internal producers (scrub heals,
    /// adoption) call [`Self::activate`] directly.
    pub fn doorbell(&self, client: &Rc<Client>) {
        self.activate(client);
        self.awaken();
    }

    /// Inserts `client` into its shard's active set (fast path) and
    /// marks its trace-hash contribution dirty (delta-folded hashing).
    /// Idempotent and O(log active).
    fn activate(&self, client: &Rc<Client>) {
        if self.hash_cached() {
            self.mark_hash_dirty(client);
        }
        if !self.fast_path() || client.active.get() || client.dead.get() {
            return;
        }
        client.active.set(true);
        self.shards[client.shard.get()]
            .active
            .borrow_mut()
            .insert(client.reg_seq.get(), Rc::clone(client));
        self.bump_assign_epoch();
        self.obs(|o| o.activations += 1);
    }

    /// Removes `client` from its shard's active set (round-end settle
    /// pass and reap).
    fn deactivate(&self, client: &Rc<Client>) {
        if !client.active.replace(false) {
            return;
        }
        self.shards[client.shard.get()]
            .active
            .borrow_mut()
            .remove(&client.reg_seq.get());
        self.bump_assign_epoch();
        self.obs(|o| o.deactivations += 1);
    }

    /// Whether `client` holds no unsettled control-plane state: all four
    /// rings empty and no unfinished window entry. An inactive client in
    /// this state is invisible to drain, sync, and scheduling in the
    /// full-sweep reference too (empty rings drain nothing, `has_work` is
    /// false, finished-but-unfinalized leftovers are never selected), so
    /// skipping it is outcome- and virtual-time-identical.
    fn settled(&self, client: &Client) -> bool {
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            if !set.uq.copy.is_empty()
                || !set.kq.copy.is_empty()
                || !set.uq.sync.is_empty()
                || !set.kq.sync.is_empty()
            {
                return false;
            }
            if set.pending.borrow().iter().any(|p| !p.finished()) {
                return false;
            }
        }
        true
    }

    fn bump_assign_epoch(&self) {
        self.assign_epoch
            .set(self.assign_epoch.get().wrapping_add(1));
    }

    /// Marks `client`'s cached trace-hash contribution stale and queues
    /// it for re-folding at the next traced round close.
    fn mark_hash_dirty(&self, client: &Rc<Client>) {
        if client.hash_dirty.replace(true) {
            return;
        }
        self.shards[client.shard.get()]
            .hash_dirty
            .borrow_mut()
            .push(Rc::clone(client));
    }

    /// Folds a newly registered (or adopted) client's vruntime into its
    /// shard's cached minimum. A stale cache stays stale — it recomputes
    /// on the next read.
    fn minvr_register(&self, client: &Client) {
        let sh = &self.shards[client.shard.get()];
        if !sh.min_valid.get() {
            return;
        }
        let v = client.copied_total.get();
        if sh.min_count.get() == 0 || vruntime_before(v, sh.min_vr.get()) {
            sh.min_vr.set(v);
            sh.min_count.set(1);
        } else if v == sh.min_vr.get() {
            sh.min_count.set(sh.min_count.get() + 1);
        }
    }

    /// Removes a reaped client's vruntime from its shard's cached
    /// minimum; losing the last min-holder invalidates (the new minimum
    /// among the survivors is unknown without a scan).
    fn minvr_reap(&self, client: &Client) {
        let sh = &self.shards[client.shard.get()];
        if !sh.min_valid.get() {
            return;
        }
        if client.copied_total.get() == sh.min_vr.get() {
            let n = sh.min_count.get().saturating_sub(1);
            sh.min_count.set(n);
            if n == 0 {
                sh.min_valid.set(false);
            }
        }
    }

    /// Charges `bytes` to `client` through the scheduler while keeping
    /// its shard's cached min-vruntime exact: the only vruntime that ever
    /// *moves* is the charged client's, so the cache updates in O(1) —
    /// idle tenants sitting at the minimum never force a rescan.
    fn charge_client(&self, client: &Rc<Client>, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let old = client.copied_total.get();
        self.sched.charge(client, bytes);
        let sh = &self.shards[client.shard.get()];
        if !sh.min_valid.get() {
            return;
        }
        let new = client.copied_total.get();
        if old == sh.min_vr.get() {
            let n = sh.min_count.get().saturating_sub(1);
            sh.min_count.set(n);
            if n == 0 {
                // The charged client may still be the minimum (nobody
                // else was at it); a scan would be needed to know.
                sh.min_valid.set(false);
            }
            return;
        }
        if new == sh.min_vr.get() {
            sh.min_count.set(sh.min_count.get() + 1);
        } else if vruntime_before(new, sh.min_vr.get()) {
            sh.min_vr.set(new);
            sh.min_count.set(1);
        }
    }

    /// Wrap-safe minimum live vruntime among shard `idx`'s clients —
    /// what the shard publishes at the round barrier and what the
    /// least-served admission exemption compares against. Served from
    /// the incremental cache unless `full_sweep` forces the reference
    /// O(shard-clients) scan; a stale cache recomputes once and stays
    /// warm until the next invalidating event.
    fn shard_min_vr(&self, idx: usize) -> Option<u64> {
        if self.cfg.full_sweep {
            return min_live_vruntime(
                self.clients
                    .borrow()
                    .iter()
                    .filter(|c| c.shard.get() == idx),
            );
        }
        let sh = &self.shards[idx];
        if !sh.min_valid.get() {
            self.obs(|o| o.minvr_recomputes += 1);
            let clients = self.clients.borrow();
            let live = clients
                .iter()
                .filter(|c| c.shard.get() == idx && !c.dead.get());
            match min_live_vruntime(live.clone()) {
                Some(m) => {
                    let n = live.filter(|c| c.copied_total.get() == m).count() as u64;
                    sh.min_vr.set(m);
                    sh.min_count.set(n);
                }
                None => {
                    sh.min_count.set(0);
                }
            }
            sh.min_valid.set(true);
        }
        (sh.min_count.get() > 0).then(|| sh.min_vr.get())
    }

    /// Adds admitted bytes to the owning shard's window count (host-side
    /// `Cell`).
    fn shard_bytes_add(&self, client: &Client, len: u64) {
        let sh = &self.shards[client.shard.get()];
        sh.bytes.set(sh.bytes.get() + len);
    }

    /// Inverse of [`Self::shard_bytes_add`] for the completion path.
    fn shard_bytes_sub(&self, client: &Client, len: u64) {
        let sh = &self.shards[client.shard.get()];
        sh.bytes.set(sh.bytes.get().saturating_sub(len));
    }

    /// Emits a trace event attributed to `shard`.
    fn temit(&self, shard: usize, ev: TraceEvent) {
        if let Some(t) = &self.cfg.tracer {
            t.emit_on(shard as u32, ev);
        }
    }

    /// The `(pending, index)` client-state hashes of shard `idx`
    /// (DESIGN.md §14), one definition at every shard count. They are
    /// *commutative*: each client folds its own window and index state
    /// from a fresh FNV offset ([`fold_client_commutative`]) and the
    /// shard's hash is the wrapping sum of those contributions, so equal
    /// states hash equal regardless of how they were reached. That shape
    /// admits the §18 delta fold — only clients touched since the last
    /// traced round re-fold; the sums absorb the difference — and the
    /// cached and full-recompute forms agree bit for bit (checked by the
    /// soak differential suite, which replays a cached recording through
    /// the `full_sweep` recompute).
    fn client_hash_sums(&self, idx: usize) -> (u64, u64) {
        if self.hash_cached() {
            self.refold_dirty(idx);
            let sh = &self.shards[idx];
            return (sh.hp_sum.get(), sh.hx_sum.get());
        }
        let mut hp = 0u64;
        let mut hx = 0u64;
        for c in self
            .clients
            .borrow()
            .iter()
            .filter(|c| c.shard.get() == idx)
        {
            let (p, x) = fold_client_commutative(c);
            hp = hp.wrapping_add(p);
            hx = hx.wrapping_add(x);
        }
        (hp, hx)
    }

    /// The `(pending, index, stats)` state hashes closing an active
    /// traced round of shard `idx`: its clients' sums, and the fold of
    /// its private stats cells continued over the service-wide stats.
    /// Closing every shard round with these is what lets replay
    /// divergence localize to a `(shard, round)` pair instead of
    /// "somewhere this generation".
    fn round_hashes(&self, idx: usize) -> (u64, u64, u64) {
        let (hp, hx) = self.client_hash_sums(idx);
        let sh = &self.shards[idx];
        let hs = [
            sh.bytes.get(),
            sh.bytes_copied.get(),
            sh.tasks_completed.get(),
            sh.rounds_active.get(),
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv_fold);
        (hp, hx, self.stats_digest(hs))
    }

    /// Re-folds every dirty client on shard `idx` into the commutative
    /// hash sums: subtract the cached contribution, fold the current
    /// state, add it back. Cost is O(touched clients), not O(clients).
    fn refold_dirty(&self, idx: usize) {
        let sh = &self.shards[idx];
        let dirty: Vec<Rc<Client>> = sh.hash_dirty.borrow_mut().drain(..).collect();
        for c in dirty {
            // A reap may have cleared the flag after the client was
            // queued; its contribution is already out of the sums.
            if !c.hash_dirty.replace(false) {
                continue;
            }
            let (ohp, ohx) = c.hash_cache.get();
            let (nhp, nhx) = fold_client_commutative(&c);
            c.hash_cache.set((nhp, nhx));
            sh.hp_sum
                .set(sh.hp_sum.get().wrapping_sub(ohp).wrapping_add(nhp));
            sh.hx_sum
                .set(sh.hx_sum.get().wrapping_sub(ohx).wrapping_add(nhx));
            self.obs(|o| o.hash_refolds += 1);
        }
    }

    /// Canonical flattening of [`CopierStats`] — the single shape both
    /// the trace state hash and the journal checkpoint use. See
    /// [`stats_to_vec`] and [`stats_layout`] for the (append-only)
    /// index assignment.
    fn stats_vec(&self) -> Vec<u64> {
        stats_to_vec(&self.stats())
    }

    /// FNV-1a fold of [`Copier::stats_vec`] continued from `seed`, taken
    /// once per active traced round: the slots are flattened on the stack
    /// straight from a borrow of the counters, with the three
    /// point-in-time slots read the way [`Self::stats`] reads them.
    fn stats_digest(&self, seed: u64) -> u64 {
        use stats_layout::*;
        let mut v = stats_slots(&self.stats.borrow());
        let (quarantined, pressure_events, corrupt_quarantined) = self.stats_gauges();
        v[QUARANTINED_CHANNELS] = quarantined;
        v[PRESSURE_EVENTS] = pressure_events;
        v[CORRUPT_QUARANTINED] = corrupt_quarantined;
        v.into_iter().fold(seed, fnv_fold)
    }

    /// Registers a client with its user address space
    /// (`copier_create_mapped_queue`).
    pub fn register_client(&self, uspace: Rc<AddressSpace>) -> Rc<Client> {
        let id = self.next_client.get();
        self.next_client.set(id + 1);
        let c = Client::new(id, uspace, self.cfg.queue_cap);
        // The credit pool is the client-visible face of the in-flight task
        // quota: libCopier consumes one credit per submission, the service
        // returns one per completion.
        c.set_credit_cap(self.cfg.admission.max_client_tasks);
        c.epoch.set(self.epoch.get());
        c.shard.set(self.shard_of_space(c.uspace.id()));
        c.reg_seq.set(self.alloc_reg_seq());
        self.clients.borrow_mut().push(Rc::clone(&c));
        self.minvr_register(&c);
        if self.hash_cached() {
            // A fresh client contributes a non-trivial fold (its empty
            // index digests into hx), so the delta-folded sums must pick
            // it up even if it never becomes active.
            self.mark_hash_dirty(&c);
        }
        self.bump_assign_epoch();
        c
    }

    /// Allocates the next registration sequence number (also stamped at
    /// adoption — clients-vec push order equals `reg_seq` order).
    fn alloc_reg_seq(&self) -> u64 {
        let s = self.next_reg.get();
        self.next_reg.set(s + 1);
        s
    }

    /// Wakes parked Copier threads (`copier_awaken`).
    pub fn awaken(&self) {
        if self.parked.get() > 0 {
            self.wake.notify_all();
        }
    }

    /// Scenario-driven gate (§5.3): when inactive, threads sleep.
    pub fn set_scenario_active(&self, on: bool) {
        self.scenario_active.set(on);
        if on {
            self.wake.notify_all();
        }
    }

    /// Stops all service threads (test teardown). An orderly stop flushes
    /// staged journal records first — unlike a crash, nothing is lost.
    pub fn stop(&self) {
        if let Some(j) = &self.journal {
            j.flush();
        }
        self.stopping.set(true);
        self.wake.notify_all();
        self.barrier_wake.notify_all();
    }

    /// Whether an injected crash killed this incarnation. The library
    /// treats a crashed service as down: it falls back to synchronous
    /// copies until re-attached to a successor (§4.6-style fallback).
    pub fn has_crashed(&self) -> bool {
        self.crashed.get()
    }

    /// This incarnation's epoch (0 when journaling is off).
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Journal activity counters, if journaling is on.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// What journal replay reconstructed at construction (`None` when
    /// journaling is off).
    pub fn recovered(&self) -> Option<Recovered> {
        self.recovered.borrow().clone()
    }

    /// Consults the crash oracle at `point`; on fire, this incarnation
    /// dies on the spot: every thread exits at its next check, no further
    /// journal flush happens (beyond what the point itself implies), and
    /// recovery is left to a successor service over the same store.
    fn maybe_crash(&self, point: CrashPoint) -> bool {
        let Some(plan) = &self.cfg.fault_plan else {
            return false;
        };
        if !plan.decide_crash(point) {
            return false;
        }
        self.crashed.set(true);
        self.stopping.set(true);
        self.stats.borrow_mut().crashes += 1;
        self.wake.notify_all();
        // A crashed shard never reaches its next barrier; peers parked
        // there must be released to observe `stopping` and die too.
        self.barrier_wake.notify_all();
        true
    }

    /// Flushes staged journal records; compacts against a checkpoint of
    /// the stats vector when the store outgrew its threshold.
    fn journal_flush(&self) {
        if let Some(j) = &self.journal {
            if j.flush() {
                j.compact(&self.stats_vec());
            }
        }
    }

    /// Starts the service: one task per shard, each on its own core.
    pub fn start(self: &Rc<Self>) {
        for i in 0..self.nshards() {
            let me = Rc::clone(self);
            self.h.spawn(
                &format!("copier-{i}"),
                async move { me.shard_loop(i).await },
            );
        }
    }

    /// A service thread (§4.5.1, DESIGN.md §17): shard `idx` owns the
    /// clients hashed to it, runs the round loop over them on its own
    /// core, and meets every other shard at a deterministic round barrier
    /// where fairness minima are exchanged. Rounds are thus lockstep
    /// generations: least-served decisions in generation g read only
    /// peer state published at the end of generation g-1 — never a
    /// peer's mid-round state — which is what keeps N-shard runs
    /// bit-reproducible from a seed. Admission reads no peer state. A
    /// lone shard is its own last arriver at every barrier.
    async fn shard_loop(self: Rc<Self>, idx: usize) {
        /// Scheduler latency to wake a parked Copier thread (kthread
        /// wakeup).
        const WAKE_LATENCY: Nanos = Nanos(700);
        let core = Rc::clone(&self.cores[idx]);
        let mut idle_streak = 0u32;
        // Per-thread round scratch: the dispatch progress list is cleared
        // and refilled each round instead of reallocated. A round's DMA
        // callbacks all settle before `execute_batch` returns, so clearing
        // at the next round is safe.
        let mut scratch = RoundScratch::new(&self);
        loop {
            if self.stopping.get() {
                // Closing memory checkpoint: the trace ends with a full
                // physical digest so replay fidelity is checked even when
                // the run stopped between periodic checkpoints. A crashed
                // incarnation writes nothing more — like a real crash,
                // its trace just ends mid-stream.
                if idx == 0 && !self.crashed.get() {
                    if let Some(t) = &self.cfg.tracer {
                        t.record_mem(self.pm.digest());
                    }
                }
                // Release peers still parked at the barrier: a shard
                // exiting without arriving must not strand them.
                self.barrier_wake.notify_all();
                return;
            }
            // Scenario gate.
            if self.cfg.polling == PollMode::ScenarioDriven && !self.scenario_active.get() {
                self.parked.set(self.parked.get() + 1);
                self.wake.notified().await;
                self.parked.set(self.parked.get() - 1);
                core.advance(WAKE_LATENCY).await;
                continue;
            }
            let did = self.round(idx, &core, &mut scratch).await;
            if did {
                self.stats.borrow_mut().busy_rounds += 1;
            }
            if self.barrier_round(did).await {
                // Some shard did work this generation: everyone keeps
                // polling hot, even shards that were themselves idle —
                // idleness is a barrier-agreed global fact, never a local
                // guess, so the shards spin down (and park) in lockstep.
                idle_streak = 0;
                continue;
            }
            self.stats.borrow_mut().idle_polls += 1;
            core.advance(self.cost.poll_idle).await;
            idle_streak += 1;
            let (spin_rounds, park_timeout) = match self.cfg.polling {
                PollMode::Napi {
                    spin_rounds,
                    park_timeout,
                } => (spin_rounds, park_timeout),
                // Even inside an active scenario the thread sleeps when
                // queues run empty (§6.2.4: "sleeps when queues are
                // empty") — submissions call copier_awaken.
                PollMode::ScenarioDriven => (4, Nanos::from_millis(5)),
            };
            if idle_streak > spin_rounds {
                self.parked.set(self.parked.get() + 1);
                let notified = self.wake.wait_timeout(&self.h, park_timeout).await;
                self.parked.set(self.parked.get() - 1);
                if notified {
                    // Kthread wakeup latency before the next sweep.
                    core.advance(WAKE_LATENCY).await;
                }
                idle_streak = 0;
            }
        }
    }

    /// The deterministic round barrier. Every shard arrives once per
    /// generation; the last arriver runs the cross-shard message round
    /// ([`Self::exchange`]), folds the generation's `did_work` OR into
    /// [`Copier::barrier_any`], bumps the generation, and releases the
    /// waiters. Returns whether *any* shard did work this generation. A
    /// lone shard is its own last arriver and has no peers to hear from:
    /// the answer is `did`, its `peer_min_vr` stays `None`, and its own
    /// minimum is left unread (reading it would revalidate the
    /// min-vruntime cache and so move `ControlObs::minvr_recomputes`).
    ///
    /// Shutdown safety: `stop()` and `maybe_crash()` notify
    /// `barrier_wake`, and the wait re-checks `stopping`, so no shard is
    /// ever stranded behind a peer that exited without arriving.
    async fn barrier_round(&self, did: bool) -> bool {
        if self.nshards() == 1 {
            return did;
        }
        let generation = self.barrier_gen.get();
        if did {
            self.barrier_acc.set(true);
        }
        let arrived = self.barrier_arrived.get() + 1;
        if arrived == self.nshards() {
            self.barrier_arrived.set(0);
            self.exchange();
            self.barrier_any.set(self.barrier_acc.get());
            self.barrier_acc.set(false);
            self.barrier_gen.set(generation + 1);
            self.barrier_wake.notify_all();
        } else {
            self.barrier_arrived.set(arrived);
            // The check-then-await is race-free on the cooperative
            // single-threaded host: no other task runs between the
            // condition read and the waker registration.
            let arrived_at = self.h.now();
            while self.barrier_gen.get() == generation && !self.stopping.get() {
                self.barrier_wake.notified().await;
            }
            let waited = (self.h.now() - arrived_at).as_nanos();
            self.obs(|o| o.barrier_wait_ns += waited);
        }
        self.barrier_any.get()
    }

    /// The cross-shard message round (DESIGN.md §17), executed by the
    /// last barrier arriver: every shard's `peer_min_vr` becomes the
    /// wrap-safe minimum of its peers' live-vruntime minima, read in
    /// shard-id order (a prefix pass, then a suffix pass). Generation g+1
    /// therefore sees one consistent cross-shard view no matter how the
    /// shards' rounds interleaved inside generation g.
    fn exchange(&self) {
        let min = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => Some(if vruntime_before(b, a) { b } else { a }),
            (a, b) => a.or(b),
        };
        let mut before = None;
        for (i, sh) in self.shards.iter().enumerate() {
            sh.peer_min_vr.set(before);
            before = min(before, self.shard_min_vr(i));
        }
        let mut after = None;
        for (i, sh) in self.shards.iter().enumerate().rev() {
            sh.peer_min_vr.set(min(sh.peer_min_vr.get(), after));
            after = min(after, self.shard_min_vr(i));
        }
    }

    /// Refreshes the thread's client assignment in `scratch` (epoch-
    /// cached: a stable membership reuses the buffer untouched, so a
    /// settled poll pays O(1) instead of an O(clients) rebuild).
    ///
    /// Fast path: the shard's active set, in `reg_seq` (= registration)
    /// order, filtered by the round's registration watermark — exactly
    /// the clients the full snapshot would have found with any unsettled
    /// state, in the same order (see [`Self::settled`] for the
    /// equivalence argument). `full_sweep`: every client the shard owns.
    fn assigned_into(&self, idx: usize, scratch: &mut RoundScratch) {
        let ep = self.assign_epoch.get();
        if scratch.epoch == ep {
            return;
        }
        scratch.epoch = ep;
        self.obs(|o| o.assign_rebuilds += 1);
        let out = &mut scratch.clients;
        out.clear();
        if self.fast_path() {
            for (&seq, c) in self.shards[idx].active.borrow().iter() {
                if seq < scratch.reg_watermark {
                    out.push(Rc::clone(c));
                }
            }
            return;
        }
        // Ownership is by space hash: a client's whole QueueSet state
        // lives on exactly one shard for the client's lifetime, so no
        // cross-shard locking or entry migration ever happens.
        for c in self.clients.borrow().iter() {
            if c.shard.get() == idx {
                out.push(Rc::clone(c));
            }
        }
    }

    /// Drains every set of every assigned client, walking sets by index
    /// (no snapshot clone; sets are never removed, only appended).
    fn drain_assigned(&self, clients: &[Rc<Client>]) -> usize {
        let mut n = 0usize;
        for c in clients {
            let mut si = 0;
            while let Some(set) = c.set_at(si) {
                n += self.drain_set(c, &set, si as u32);
                si += 1;
            }
        }
        n
    }

    /// One service round. Returns whether any work was done.
    ///
    /// With a tracer configured this wraps the round in
    /// `begin_shard_round` / `end_shard_round` so every event the round
    /// emits carries its `(shard, round)` identity, closes active rounds
    /// with the shard's `(pending, index, stats)` state hashes, and
    /// appends periodic physical-memory digests. The tracer is host-side
    /// bookkeeping only — no virtual time is charged, so traced and
    /// untraced runs have identical timelines.
    async fn round(
        self: &Rc<Self>,
        idx: usize,
        core: &Rc<Core>,
        scratch: &mut RoundScratch,
    ) -> bool {
        let Some(tracer) = self.cfg.tracer.clone() else {
            return self.round_inner(idx, core, scratch).await;
        };
        let sh = &self.shards[idx];
        let round_no = sh.round_no.get() + 1;
        sh.round_no.set(round_no);
        tracer.begin_shard_round(idx as u32, round_no, self.h.now().as_nanos());
        let did = self.round_inner(idx, core, scratch).await;
        let mem_due = tracer.end_shard_round(idx as u32, || self.round_hashes(idx));
        if mem_due {
            tracer.record_mem(self.pm.digest());
        }
        did
    }

    async fn round_inner(
        self: &Rc<Self>,
        idx: usize,
        core: &Rc<Core>,
        scratch: &mut RoundScratch,
    ) -> bool {
        /// Copier-core nanoseconds charged per drained queue entry.
        const DRAIN_COST_NS: u64 = 25;
        // 0. Background integrity (§integrity): one oracle rot draw per
        // round (zero PRNG draws unless `rot_prob` is enabled, so
        // rot-free runs are byte-identical), then the scrub walker. Both
        // are host-side — no virtual time is charged; heal copies enter
        // the ordinary queues and pace like any other submission. The
        // block runs *before* the assignment snapshot so a heal push
        // (which activates its owner) is drained this round on the fast
        // path exactly as the legacy all-clients snapshot would have.
        if idx == 0 {
            if let Some(plan) = &self.cfg.fault_plan {
                if let Some(p) = plan.decide_rot() {
                    self.inject_rot(p);
                }
            }
            if self.cfg.scrub_period > 0 && !self.scrub.borrow().is_empty() {
                let t = self.scrub_tick.get() + 1;
                self.scrub_tick.set(t);
                if t.is_multiple_of(self.cfg.scrub_period) {
                    self.scrub_walk();
                }
            }
        }
        // Snapshot boundary: clients registered after this point are
        // invisible to this round on both paths (the legacy snapshot was
        // taken here too). Stage-boundary refreshes below re-run the
        // epoch check so a client *activated* mid-round (a push landing
        // during an await) is drained by the later stages, matching the
        // legacy snapshot's live ring reads.
        scratch.reg_watermark = self.next_reg.get();
        self.assigned_into(idx, scratch);
        if self.hash_cached() {
            // This round may mutate any assigned client's hashed state;
            // clients activated mid-round are marked by their doorbell.
            for c in scratch.clients.iter() {
                if !c.hash_dirty.replace(true) {
                    self.shards[c.shard.get()]
                        .hash_dirty
                        .borrow_mut()
                        .push(Rc::clone(c));
                }
            }
        }
        // 1. Drain queues into windows, once: a round never waits for a
        // batch to form. What lands while it executes is the next round's
        // drain, so load does the batching.
        let drained = self.drain_assigned(&scratch.clients);
        if drained > 0 {
            core.advance(Nanos(DRAIN_COST_NS * drained as u64)).await;
        }
        // 2. Sync queues (k-mode before u-mode, §4.2.2).
        self.assigned_into(idx, scratch);
        let mut synced = 0usize;
        for c in scratch.clients.iter() {
            let mut si = 0;
            while let Some(set) = c.set_at(si) {
                si += 1;
                while let Some(st) = set.kq.sync.pop() {
                    self.handle_sync(c, &set, st);
                    synced += 1;
                }
                while let Some(st) = set.uq.sync.pop() {
                    self.handle_sync(c, &set, st);
                    synced += 1;
                }
            }
        }
        if synced > 0 {
            core.advance(Nanos(DRAIN_COST_NS * synced as u64)).await;
        }
        if drained + synced > 0 {
            self.temit(
                idx,
                TraceEvent::Drained {
                    copies: drained as u64,
                    syncs: synced as u64,
                },
            );
            // Crash point: after draining, before the admissions became
            // durable — the staged Admit records die with this
            // incarnation, so adoption drops the entries undelivered and
            // the library resubmits them.
            if self.maybe_crash(CrashPoint::MidDrain) {
                return true;
            }
            // Crash point: mid-journal-flush — staged records reach the
            // store but the final one is torn halfway, exercising the
            // replayer's torn-tail truncation.
            if self.maybe_crash(CrashPoint::MidJournalFlush) {
                if let Some(j) = &self.journal {
                    j.flush_torn();
                }
                return true;
            }
            // Durability boundary: this round's admissions flush before
            // any of their bytes can move, so a journaled-but-absent task
            // is never one with partial undigested progress.
            self.journal_flush();
        }
        // 3. Schedule: the runnable clients, least-served first as of now.
        // The round's unit is the copy slice, not a client — it serves
        // down this order until the slice is spent, so everything above
        // (the sweep, the flush, a barrier generation under shards) is
        // paid once per slice however little the least-served client had
        // queued. Nothing drained or charged while the round runs re-ranks
        // it; that is the next round's.
        self.assigned_into(idx, scratch);
        self.sched.order_into(
            &scratch.clients,
            self.h.now(),
            self.cfg.lazy_period,
            &mut scratch.order,
        );
        let mut left = self.sched.copy_slice();
        // Whether some batch went to `execute`.
        let mut acted = false;
        while left > 0 {
            let Some(pos) = scratch.order.pop() else {
                break;
            };
            let client = &Rc::clone(&scratch.clients[pos]);
            let now = self.h.now();
            // A client reaped while an earlier one's batch was in flight
            // has nothing left to pick.
            if !client.has_work(now, self.cfg.lazy_period) {
                continue;
            }
            self.temit(
                client.shard.get(),
                TraceEvent::SchedPick { client: client.id },
            );
            // 4. Select a batch from what is left of the slice. A client
            // with nothing selectable (over its pin quota, head entry
            // hazard-blocked) spends none of it.
            left -= self.select_batch(client, now, left, &mut scratch.selected);
            if scratch.selected.is_empty() {
                continue;
            }
            // 5–7. Plan, dispatch, complete — one client at a time, so its
            // handlers and credits fire when its own bytes have landed,
            // not when the whole slice has. The batch always acts: one
            // thread owns the client and nothing awaits between selecting
            // and planning, so its head entry still has the gaps it was
            // selected for, and planning them charges time or faults.
            acted = true;
            self.execute(core, client, scratch).await;
            scratch.selected.clear();
            if self.crashed.get() {
                break;
            }
        }
        if acted {
            self.stats.borrow_mut().rounds_active += 1;
            let sh = &self.shards[idx];
            sh.rounds_active.set(sh.rounds_active.get() + 1);
        } else {
            self.stats.borrow_mut().rounds_settled += 1;
        }
        // Completion records staged by finalize become durable at round
        // end; a crash inside `execute` loses them and the tasks replay
        // as live, to be reconciled by digest at adoption.
        if acted && !self.crashed.get() {
            self.journal_flush();
        }
        self.settle_pass(idx, scratch);
        acted || drained + synced > 0
    }

    /// Round-end active-set maintenance (fast path only): every assigned
    /// client that ended the round fully settled leaves the shard's
    /// active set; it generates no control-plane work until its next
    /// doorbell.
    fn settle_pass(&self, idx: usize, scratch: &mut RoundScratch) {
        if !self.fast_path() {
            return;
        }
        self.assigned_into(idx, scratch);
        // Deactivation mutates the active map, not the scratch list that
        // mirrors it; the epoch bump makes the next round rebuild that.
        for c in scratch.clients.iter().filter(|c| self.settled(c)) {
            self.deactivate(c);
        }
    }

    /// Drains one queue set's copy queues into its pending window,
    /// applying admission control to every copy task at the drain
    /// boundary — the backstop for submitters that bypass the library's
    /// credit pool.
    fn drain_set(&self, client: &Rc<Client>, set: &Rc<QueueSet>, set_idx: u32) -> usize {
        let mut n = 0;
        // k-mode first so barrier keys are in place before u entries drain.
        while let Some(e) = set.kq.copy.pop() {
            n += 1;
            match e {
                QueueEntry::Barrier { peer_pos } => set.cur_k_key.set(peer_pos),
                QueueEntry::Copy(t) => {
                    if !self.admit_traced(client, &t) {
                        self.shed(client, set, t);
                        continue;
                    }
                    let key = (set.cur_k_key.get(), 0u8, bump(&set.seq));
                    self.push_pending(client, set, set_idx, key, t);
                }
            }
        }
        while let Some(e) = set.uq.copy.pop() {
            n += 1;
            match e {
                QueueEntry::Barrier { .. } => {}
                QueueEntry::Copy(t) => {
                    if !self.admit_traced(client, &t) {
                        self.shed(client, set, t);
                        continue;
                    }
                    let key = (bump(&set.u_index), 1u8, bump(&set.seq));
                    self.push_pending(client, set, set_idx, key, t);
                }
            }
        }
        n
    }

    /// [`Self::admit`] plus the record/replay emission of the decision —
    /// one `Admit` event per copy submission at the drain boundary.
    fn admit_traced(&self, client: &Rc<Client>, t: &CopyTask) -> bool {
        let admitted = self.admit(client, t);
        self.temit(
            client.shard.get(),
            TraceEvent::Admit {
                client: client.id,
                len: t.len as u64,
                admitted,
            },
        );
        admitted
    }

    /// Admission decision for one submission. Per-client quotas are
    /// unconditional. The byte watermark is a per-shard budget: a shard
    /// sheds with hysteresis against its own admitted bytes (latched at
    /// `global_high_bytes / nshards`, released at `global_low_bytes /
    /// nshards`) and never reads a peer's count, so a backlogged peer
    /// cannot make it shed, and what it admits under the watermark sums
    /// over the shards to less than `global_high_bytes` plus one task per
    /// shard. Shedding is priority-aware: the least-served live client —
    /// the one the copied-length scheduler would favor — is exempt (up to
    /// its own quotas), so overload never starves a light tenant.
    fn admit(&self, client: &Rc<Client>, t: &CopyTask) -> bool {
        let q = &self.cfg.admission;
        if client.inflight_tasks.get() >= q.max_client_tasks {
            return false;
        }
        if client.inflight_bytes.get().saturating_add(t.len as u64) > q.max_client_bytes {
            return false;
        }
        let sh = &self.shards[client.shard.get()];
        let n = self.nshards() as u64;
        let g = sh.bytes.get();
        if sh.shedding.get() {
            if g <= q.global_low_bytes / n {
                sh.shedding.set(false);
            }
        } else if g >= q.global_high_bytes / n {
            sh.shedding.set(true);
        }
        !sh.shedding.get() || self.least_served(client)
    }

    /// Whether `client` is (tied for) the least-served live client — the
    /// same yardstick as [`Scheduler::order_into`]'s fairness order. The
    /// exemption is strict: under a symmetric overload every tenant takes
    /// its turn at the minimum, so shedding rotates fairly instead of
    /// exempting the whole band and never shedding at all.
    fn least_served(&self, client: &Rc<Client>) -> bool {
        // Wrap-safe minimum: a client is least-served iff no live client
        // is strictly before it in vruntime order. A plain `min()` would
        // misrank a freshly wrapped accumulator (see `vruntime_before`).
        // "No live client strictly before `cur`" is equivalent to "the
        // live minimum is not strictly before `cur`" (the scan includes
        // `client` itself, and so does the cached minimum), which is what
        // lets the incremental min-vruntime cache answer in O(1).
        let cur = client.copied_total.get();
        // The exemption is *global*: own-shard clients through the live
        // minimum, peers through the minimum each shard published at the
        // last barrier — deterministic, and stale by at most one
        // generation. A lone shard has no peers (`peer_min_vr` is `None`).
        let sh = &self.shards[client.shard.get()];
        if let Some(pm) = sh.peer_min_vr.get() {
            if vruntime_before(pm, cur) {
                return false;
            }
        }
        match self.shard_min_vr(client.shard.get()) {
            Some(m) => !vruntime_before(m, cur),
            None => true,
        }
    }

    /// Rejects a submission: the descriptor is poisoned `Overloaded` (a
    /// typed, observable outcome — never a silent drop), the completion
    /// handler still runs, and the client's submission credit returns so
    /// its pool reflects true in-flight depth.
    fn shed(&self, client: &Rc<Client>, set: &Rc<QueueSet>, t: CopyTask) {
        t.descr.poison(CopyFault::Overloaded);
        // The delivery claim keeps shedding exactly-once too: a
        // crash-resubmitted duplicate that gets shed does not run the
        // handler or mint a second credit.
        if t.descr.claim_delivery() {
            self.deliver_handler(set, &t);
            client.grant_credit();
        }
        let mut st = self.stats.borrow_mut();
        st.admission_rejected += 1;
        st.shed_bytes += t.len as u64;
    }

    fn push_pending(
        &self,
        client: &Rc<Client>,
        set: &Rc<QueueSet>,
        set_idx: u32,
        key: (u64, u8, u64),
        t: CopyTask,
    ) {
        // Dependency cascade across rounds (§4.4): a task sourcing from a
        // range a faulted producer never wrote would read garbage — fail it
        // up front with the producer's fault instead of letting absorption
        // or a raw copy forward stale bytes.
        let (ssp, slo, shi) = t.src_range();
        let hit = set
            .tainted
            .borrow()
            .iter()
            .find(|x| x.space == ssp && x.lo < shi && slo < x.hi)
            .map(|x| x.fault);
        if let Some(fault) = hit {
            t.descr.poison(fault);
            if t.descr.claim_delivery() {
                self.deliver_handler(set, &t);
                // No window entry exists to finalize, so the submission
                // credit comes back here instead of on the completion path.
                client.grant_credit();
            }
            let (dsp, dlo, dhi) = t.dst_range();
            self.remember_taint(client, set, dsp, dlo, dhi, fault);
            let mut st = self.stats.borrow_mut();
            st.faults += 1;
            st.dependents_aborted += 1;
            return;
        }
        // A fresh copy that fully overwrites a tainted range heals it.
        let (dsp, dlo, dhi) = t.dst_range();
        set.tainted
            .borrow_mut()
            .retain(|x| !(x.space == dsp && dlo <= x.lo && x.hi <= dhi));
        // Zero-length copies (legal, like `memcpy(d, s, 0)`) complete
        // immediately at the drain boundary: their descriptor is born
        // all-ready, so a window entry would never be selected — and
        // therefore never finalized, leaking its handler and credit
        // forever. (The taint check above can never hit an empty source
        // range, which is right: a zero-length read forwards nothing.)
        if t.len == 0 {
            if t.descr.claim_delivery() {
                self.deliver_handler(set, &t);
                client.grant_credit();
                let mut st = self.stats.borrow_mut();
                st.credits_granted += 1;
                st.tasks_completed += 1;
            }
            return;
        }
        let tid = self.next_tid.get();
        self.next_tid.set(tid + 1);
        let entry = Rc::new(PendEntry::new(tid, key, t, self.h.now()));
        let len = entry.task.len as u64;
        // Journal the admission before it becomes visible to scheduling:
        // the pre-copy extent digests of both ranges are what recovery
        // reconciles a journaled-but-vanished task against. Sampling is
        // host-side only — no virtual time, no PRNG draw — and head+tail:
        // a partial copy lands a prefix, so the head page catches it, but
        // torn-write detection at recovery is blind to damage confined to
        // interior pages.
        if let Some(j) = &self.journal {
            let t = &entry.task;
            j.record_admit(AdmitRec {
                tid,
                client: client.id,
                set_idx,
                key,
                dst_space: t.dst_space.id(),
                dst: t.dst.0,
                src_space: t.src_space.id(),
                src: t.src.0,
                len: t.len as u64,
                seg: t.seg as u64,
                dst_digest: t.dst_space.extent_digest(t.dst, t.len),
                src_digest: t.src_space.extent_digest(t.src, t.len),
            });
        }
        set.index.insert(&entry);
        {
            let mut st = self.stats.borrow_mut();
            let n = set.index.len() as u64;
            if n > st.index_entries_peak {
                st.index_entries_peak = n;
            }
        }
        let mut pending = set.pending.borrow_mut();
        // Insert sorted by key (binary search; keys are unique per set).
        let pos = pending.partition_point(|p| p.key <= entry.key);
        pending.insert(pos, entry);
        // Admission accounting: the task now occupies window capacity.
        client.inflight_tasks.set(client.inflight_tasks.get() + 1);
        client.inflight_bytes.set(client.inflight_bytes.get() + len);
        self.shard_bytes_add(client, len);
    }

    /// Serves one Sync Task: promotion (with dependency closure) or abort.
    fn handle_sync(&self, client: &Rc<Client>, set: &Rc<QueueSet>, st: SyncTask) {
        self.stats.borrow_mut().syncs += 1;
        let pending = set.pending.borrow();
        let lo = st.addr.0 as usize;
        let hi = lo + st.len;
        // Latest matching task wins (§4.2.2 reverse traversal); an abort
        // with an explicit descriptor matches by identity instead (those
        // carry no address, so the scan stays linear — they are rare).
        let target_idx = if let Some(d) = &st.target {
            pending
                .iter()
                .rposition(|p| !p.finished() && Rc::ptr_eq(&p.task.descr, d))
        } else {
            // Address-indexed lookup: the latest unfinished entry whose
            // destination overlaps the synced range. Window position order
            // equals key order (keys are unique), so "latest" is the max
            // key among the window query's matches.
            let mut best: Option<crate::client::OrderKey> = None;
            let hits = set.index.for_each_overlap(
                crate::pendindex::RangeKind::Dst,
                st.space_id,
                lo as u64,
                hi as u64,
                |p| {
                    if !p.finished() && best.is_none_or(|b| p.key > b) {
                        best = Some(p.key);
                    }
                },
            );
            self.stats.borrow_mut().index_hits += hits;
            best.map(|k| pending.partition_point(|p| p.key < k))
        };
        let Some(ti) = target_idx else {
            return;
        };
        if st.abort {
            // Abort retires (§4.4): the task is poisoned and leaves the
            // window now, handing back pins, credit and admission share
            // and running its handler. Nothing of it is in flight: syncs
            // are served by the shard that owns the client, between its
            // dispatches, and a dispatch lands or fails every byte it took
            // before `execute` returns.
            let e = Rc::clone(&pending[ti]);
            drop(pending);
            debug_assert!(e.inflight.borrow().is_empty());
            e.aborted.set(true);
            e.task.descr.poison(CopyFault::Aborted);
            self.stats.borrow_mut().aborts += 1;
            self.finalize(client, set, &e);
            return;
        }
        // Promote the target and its dependency closure (§4.2.2). Readiness
        // is one bit per segment, so a csync of part of a *lazy* target
        // promotes the segments it touches and leaves the rest under the
        // lazy timer; any other target (and one named by descriptor, which
        // carries no range) is promoted whole. Reads (RAW) from
        // a still-pending producer do *not* force the producer when
        // absorption is on — layering will source the bytes directly.
        // Write hazards (WAW on the destination, WAR against a pending
        // reader's source) always force the earlier task ahead.
        let target = &pending[ti];
        let t = &target.task;
        let (plo, phi) = if t.lazy && st.target.is_none() {
            let seg = t.seg.max(1);
            let rel_lo = lo.saturating_sub(t.dst.0 as usize);
            let rel_hi = (hi - t.dst.0 as usize).min(t.len);
            (rel_lo / seg * seg, rel_hi.next_multiple_of(seg).min(t.len))
        } else {
            (0, t.len)
        };
        target.promote(plo, phi);
        self.stats.borrow_mut().promotions += 1;
        let overlap = |ranges: &[(u32, usize, usize)], sp: u32, lo: usize, hi: usize| {
            ranges.iter().any(|&(s, l, h)| s == sp && l < hi && lo < h)
        };
        let at = |base: VirtAddr, off: usize| base.0 as usize + off;
        let mut needed_src = vec![(t.src_space.id(), at(t.src, plo), at(t.src, phi))];
        let mut needed_dst = vec![(t.dst_space.id(), at(t.dst, plo), at(t.dst, phi))];
        for p in pending.iter().take(ti).rev() {
            if p.finished() {
                continue;
            }
            let d = p.task.dst_range();
            let sr = p.task.src_range();
            let waw = overlap(&needed_dst, d.0, d.1 as usize, d.2 as usize);
            let war = overlap(&needed_dst, sr.0, sr.1 as usize, sr.2 as usize);
            let raw = overlap(&needed_src, d.0, d.1 as usize, d.2 as usize);
            if waw || war || (raw && !self.cfg.absorption) {
                p.promote_all();
                needed_src.push((sr.0, sr.1 as usize, sr.2 as usize));
                needed_dst.push((d.0, d.1 as usize, d.2 as usize));
                self.stats.borrow_mut().promotions += 1;
            }
        }
    }

    /// Selects a batch of runnable, mutually independent tasks of at most
    /// `budget` bytes into `out` (replacing what it held); returns the
    /// bytes it takes.
    fn select_batch(
        &self,
        client: &Rc<Client>,
        now: Nanos,
        budget: usize,
        out: &mut Vec<Selected>,
    ) -> usize {
        out.clear();
        // Pinned-frame quota: past it the client's work is *deferred*
        // (left in the window for a later round), not shed — completions
        // release pins and the backlog drains without failing anything.
        if client.pinned.get() >= self.cfg.admission.max_client_pinned {
            return 0;
        }
        // Under memory pressure absorption is off: absorbed obligations
        // hold their producer's window entry (and pins) alive longer,
        // exactly what a pressured pool cannot afford (§4.6 fallback).
        let absorption = self.cfg.absorption && !self.pm.pressure();
        let mut bytes = 0usize;
        let mut hazard_scans = 0u64;
        let mut index_hits = 0u64;
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            if bytes >= budget {
                break;
            }
            // Iterate the window in place; the analysis runs against the
            // set's address index, so no `earlier` snapshot is needed —
            // "earlier" is exactly the index records with a smaller key.
            let pending = set.pending.borrow();
            // While promoted bytes are outstanding only their tasks run;
            // the gate lifts the round after they land.
            let any_promoted = pending.iter().any(|p| p.is_promoted() && !p.finished());
            for e in pending.iter() {
                if e.finished() {
                    continue;
                }
                let promoted = e.is_promoted();
                if (any_promoted && !promoted) || !e.has_runnable_gaps(now, self.cfg.lazy_period) {
                    continue;
                }
                let (plan, hits) = absorb::analyze_indexed(e, &set.index, absorption);
                hazard_scans += 1;
                index_hits += hits;
                if plan.blocked {
                    // Push the blockers through first; retry next round. A
                    // promoted entry transfers its priority to its blockers
                    // (otherwise promoted-only rounds would starve them).
                    for b in &plan.blockers {
                        b.defer_until.set(Nanos::ZERO);
                        *b.deferred.borrow_mut() = IntervalSet::new();
                        if b.task.lazy || promoted {
                            b.promote_all();
                        }
                    }
                    break;
                }
                let cap = (budget - bytes).min(e.remaining()).max(1);
                bytes += e.remaining().min(cap);
                out.push(Selected {
                    set: Rc::clone(&set),
                    entry: Rc::clone(e),
                    plan,
                    cap,
                });
                if bytes >= budget {
                    break;
                }
            }
        }
        // Apply deferrals from all plans (after selection so every plan saw
        // the pre-round state).
        let now_defer = now + self.cfg.lazy_period;
        let mut absorbed = 0u64;
        for s in out.iter() {
            for (tgt, lo, hi) in &s.plan.defers {
                tgt.deferred.borrow_mut().insert(*lo, *hi);
                tgt.defer_until.set(now_defer);
            }
            absorbed += s.plan.absorbed_bytes as u64;
        }
        let mut st = self.stats.borrow_mut();
        st.bytes_absorbed += absorbed;
        st.hazard_scans += hazard_scans;
        st.index_hits += index_hits;
        bytes
    }

    /// Translates and pins a range, via the ATCache when possible: fills
    /// `extents` and returns the pinned frames (the fault work performed
    /// is charged here).
    async fn translate_pin(
        &self,
        core: &Rc<Core>,
        space: &Rc<AddressSpace>,
        va: VirtAddr,
        len: usize,
        write: bool,
        extents: &mut Vec<Extent>,
    ) -> Result<Vec<FrameId>, CopyFault> {
        if self.atcache.lookup_into(space, va, len, write, extents) {
            // One charge per lookup, however many pages the range spans.
            core.advance(self.cost.atc_hit).await;
            let stale = self
                .cfg
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.decide_atc_stale());
            if !stale {
                let frames = frames_of(extents);
                for &f in &frames {
                    self.pm.pin(f);
                }
                return Ok(frames);
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
        // Batched gather path: one page-table walk resolves, pins, and
        // emits the extents. Fault accounting — and therefore every charged
        // duration below — is identical to the per-page reference path.
        match space.resolve_and_pin_range_extents(va, len, write) {
            Ok((walked, frames, work)) => {
                // Charge the walk and any proactive fault handling.
                let mut cost = walk_cost;
                let faults = (work.demand_zero + work.cow_remap + work.cow_copy) as u64;
                cost += Nanos(self.cost.page_fault.as_nanos() * faults);
                if work.bytes_copied > 0 {
                    cost += self.cost.cpu_copy(CpuCopyKind::Avx2, work.bytes_copied);
                }
                core.advance(cost).await;
                self.stats.borrow_mut().proactive_faults += faults;
                self.atcache.insert(space, va, len, write, &walked);
                *extents = walked;
                Ok(frames)
            }
            Err(e) => {
                core.advance(walk_cost).await;
                Err(match e {
                    MemError::OutOfMemory | MemError::Fragmented => CopyFault::OutOfMemory,
                    _ => CopyFault::Segv,
                })
            }
        }
    }

    /// Plans, dispatches, and completes `scratch.selected`.
    async fn execute(
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
        let now = self.h.now();
        if self.pm.pressure() {
            return self.execute_degraded(core, client, sel, gaps, now).await;
        }
        // Last batch's vectors go back to the pool (a crashed round
        // returns early and leaves them here).
        bufs.subtask_pool
            .extend(planned.drain(..).map(|pc| pc.subtasks));
        by_tid.borrow_mut().clear();
        let mut planned_bytes = 0usize;

        for s in sel.iter() {
            let e = &s.entry;
            if e.finished() {
                continue;
            }
            e.runnable_gaps_into(now, self.cfg.lazy_period, gaps);
            truncate_gaps(gaps, s.cap);
            if gaps.is_empty() {
                continue;
            }
            let plan_res = self.plan_entry(core, client, e, &s.plan, gaps, bufs).await;
            if self.crashed.get() {
                // Zombie resume: a peer shard crashed this incarnation
                // while `plan_entry` was suspended in translate/pin. Pins
                // taken after adoption's release sweep would never be
                // drained again (the successor may have finalized the
                // entry already), so release the whole batch now and
                // abandon the round — a crashed kernel dispatches
                // nothing.
                self.drain_batch_pins(client, sel);
                return;
            }
            match plan_res {
                Ok(pc) => {
                    let deferred_exec: usize = {
                        let d = e.deferred.borrow();
                        gaps.iter()
                            .map(|&(lo, hi)| d.overlaps(lo, hi).map(|(a, b)| b - a).sum::<usize>())
                            .sum()
                    };
                    self.stats.borrow_mut().bytes_deferred_executed += deferred_exec as u64;
                    planned_bytes += pc.subtasks.iter().map(|st| st.len()).sum::<usize>();
                    for &(lo, hi) in gaps.iter() {
                        e.inflight.borrow_mut().insert(lo, hi);
                        e.deferred.borrow_mut().remove(lo, hi);
                    }
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
        if self.maybe_crash(CrashPoint::MidDispatch) {
            self.drain_batch_pins(client, sel);
            return;
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
                self.drain_batch_pins(client, sel);
                return;
            }
            {
                let mut st = self.stats.borrow_mut();
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
            {
                let sh = &self.shards[client.shard.get()];
                sh.bytes_copied
                    .set(sh.bytes_copied.get() + (report.cpu_bytes + report.dma_bytes) as u64);
            }
            // Verification failures that exhausted bounded repair: the
            // destination bytes are wrong even though every segment was
            // marked, so the descriptor is poisoned `Corrupted` and the
            // taint cascades exactly like a mid-copy fault — nothing
            // downstream may consume the range.
            for tid in self.dispatcher.take_corrupted() {
                let Some(s) = sel.iter().find(|s| s.entry.tid == tid) else {
                    continue;
                };
                let e = &s.entry;
                if e.failed.get().is_some() {
                    continue;
                }
                self.stats.borrow_mut().corrupted_poisoned += 1;
                self.fail_entry(client, &s.set, e, CopyFault::Corrupted);
            }
            self.charge_client(client, planned_bytes);
        }

        // Crash point: bytes landed (descriptor segments are marked, the
        // copied intervals recorded) but nothing finalized — no handler,
        // no credit, no Complete record. Adoption finds these entries
        // finished and settles them exactly once.
        if self.maybe_crash(CrashPoint::PreFinalize) {
            self.drain_batch_pins(client, sel);
            return;
        }
        // Completion pass.
        for s in sel.iter() {
            if s.entry.finished() {
                self.finalize(client, &s.set, &s.entry);
            }
        }
    }

    /// Fails one window entry mid-copy: poisons only its descriptor
    /// (partial progress already marked stays marked), signals the
    /// client, finalizes it, then aborts its dependents in dependency
    /// order (§4.4).
    fn fail_entry(
        &self,
        client: &Rc<Client>,
        set: &Rc<QueueSet>,
        e: &Rc<PendEntry>,
        fault: CopyFault,
    ) {
        e.failed.set(Some(fault));
        e.task.descr.poison(fault);
        client.signals.borrow_mut().push(fault);
        self.stats.borrow_mut().faults += 1;
        self.finalize(client, set, e);
        self.cascade_fault(set, client, e, fault);
    }

    /// Executes a selected batch synchronously under memory pressure —
    /// the §4.6 break-even fallback. No pinning, no ATCache refill, no
    /// DMA: each gap is resolved and copied page by page with the kernel
    /// ERMS copier, so a pressured pool is never asked to hold more
    /// frames. Recovery is automatic: once allocations fall below the low
    /// watermark, [`PhysMem::pressure`] clears and the next round takes
    /// the pinned asynchronous path again.
    async fn execute_degraded(
        self: &Rc<Self>,
        core: &Rc<Core>,
        client: &Rc<Client>,
        sel: &[Selected],
        gaps: &mut Vec<(usize, usize)>,
        now: Nanos,
    ) {
        let mut degraded_bytes = 0usize;
        for s in sel {
            let e = &s.entry;
            if e.finished() {
                continue;
            }
            e.runnable_gaps_into(now, self.cfg.lazy_period, gaps);
            truncate_gaps(gaps, s.cap);
            if gaps.is_empty() {
                continue;
            }
            match self.degraded_copy(core, e, &s.plan, gaps).await {
                Ok(copied) => {
                    degraded_bytes += copied;
                    {
                        let mut st = self.stats.borrow_mut();
                        st.degraded_sync_copies += 1;
                        st.bytes_copied += copied as u64;
                    }
                    let sh = &self.shards[client.shard.get()];
                    sh.bytes_copied.set(sh.bytes_copied.get() + copied as u64);
                }
                Err(fault) => self.fail_entry(client, &s.set, e, fault),
            }
        }
        if degraded_bytes > 0 {
            self.charge_client(client, degraded_bytes);
        }
        for s in sel {
            if s.entry.finished() {
                self.finalize(client, &s.set, &s.entry);
            }
        }
    }

    /// One entry's gaps, copied synchronously page by page. Pages are
    /// resolved (faulting on demand, cost-charged) but never pinned, and
    /// the data moves through [`PhysMem::copy`] under the ERMS cost curve
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
                    let (df, dw) = t.dst_space.resolve(dst_va, true).map_err(mem_fault)?;
                    let (sf, sw) = p.space.resolve(src_va, false).map_err(mem_fault)?;
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
        core: &Rc<Core>,
        client: &Rc<Client>,
        e: &Rc<PendEntry>,
        plan: &AbsorbPlan,
        gaps: &[(usize, usize)],
        bufs: &mut PlanScratch,
    ) -> Result<PlannedCopy, CopyFault> {
        let t = &e.task;
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
                .translate_pin(core, &t.dst_space, t.dst.add(glo), ghi - glo, true, dst_ex)
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
                    .translate_pin(core, &p.space, src_va, hi - lo, false, src_ex)
                    .await?;
                hold(&p.space, src_frames);
                slice_extents_into(dst_ex, lo - glo, hi - lo, dst_slice);
                split_subtasks_into(dst_slice, src_ex, lo, &mut subtasks);
            }
        }
        subtasks.sort_unstable_by_key(|st| st.task_off);
        Ok(PlannedCopy {
            task_id: e.tid,
            len: t.len,
            subtasks,
            verify: t.verify,
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
        let mut unpinned = 0u64;
        for s in sel {
            for (space, frames) in s.entry.pins.borrow_mut().drain(..) {
                unpinned += frames.len() as u64;
                space.unpin_frames(&frames);
            }
        }
        client
            .pinned
            .set(client.pinned.get().saturating_sub(unpinned));
    }

    /// Completes a task: handlers, unpinning, window removal. Idempotent:
    /// only the first caller runs the handler; pins drain on every call
    /// (a planner racing an orphan sweep may append pins to an
    /// already-finalized entry, and those must still be released).
    fn finalize(&self, client: &Rc<Client>, set: &Rc<QueueSet>, e: &Rc<PendEntry>) {
        let mut unpinned = 0u64;
        for (space, frames) in e.pins.borrow_mut().drain(..) {
            unpinned += frames.len() as u64;
            space.unpin_frames(&frames);
        }
        client
            .pinned
            .set(client.pinned.get().saturating_sub(unpinned));
        if e.finalized.replace(true) {
            return;
        }
        let fault_code = match (e.aborted.get(), e.failed.get()) {
            (_, Some(f)) => copy_fault_code(f),
            (true, None) => copy_fault_code(CopyFault::Aborted),
            (false, None) => 0,
        };
        // Descriptor state transition for the record/replay trace: one
        // TaskDone per window entry, in finalization order.
        self.temit(
            client.shard.get(),
            TraceEvent::TaskDone {
                tid: e.tid,
                fault: fault_code,
            },
        );
        // The completion becomes durable at the next journal flush; until
        // then the task replays as live and is digest-reconciled at
        // adoption.
        if let Some(j) = &self.journal {
            j.record_complete(e.tid, fault_code);
        }
        // Return the task's admission share and its submission credit —
        // the completion ring is where backpressure unwinds.
        client
            .inflight_tasks
            .set(client.inflight_tasks.get().saturating_sub(1));
        client.inflight_bytes.set(
            client
                .inflight_bytes
                .get()
                .saturating_sub(e.task.len as u64),
        );
        self.shard_bytes_sub(client, e.task.len as u64);
        // The delivery claim (client memory, survives a crash) is the
        // exactly-once gate: handler and credit fire for the first
        // settlement of this submission across all service incarnations.
        if e.task.descr.claim_delivery() {
            client.grant_credit();
            self.stats.borrow_mut().credits_granted += 1;
            // Handlers run for failed and aborted tasks too: the
            // completion callback observes the outcome through the
            // poisoned descriptor instead of being silently dropped.
            self.deliver_handler(set, &e.task);
        }
        if !e.aborted.get() && e.failed.get().is_none() {
            self.stats.borrow_mut().tasks_completed += 1;
            let sh = &self.shards[client.shard.get()];
            sh.tasks_completed.set(sh.tasks_completed.get() + 1);
        }
        // Window and index removal by key (the window is sorted by unique
        // key, so this replaces the O(n) retain sweep). Runs after the
        // handler: a KFunc may submit, which needs the pending borrow.
        set.index.remove(e);
        let mut pending = set.pending.borrow_mut();
        let pos = pending.partition_point(|p| p.key < e.key);
        if pos < pending.len() && Rc::ptr_eq(&pending[pos], e) {
            pending.remove(pos);
        }
    }

    /// Runs a task's KFUNC inline or queues its UFUNC for post_handlers().
    fn deliver_handler(&self, set: &Rc<QueueSet>, t: &CopyTask) {
        if let Some(h) = &t.func {
            match h {
                Handler::KFunc(f) => f(),
                Handler::UFunc(f) => {
                    // Deliver to the client's handler queue; libCopier
                    // runs it in post_handlers(). A full ring spills into
                    // the unbounded overflow list (drained first by
                    // post_handlers) — handlers are never dropped.
                    if let Err(rejected) = set.uq.handler.push(Handler::UFunc(Rc::clone(f))) {
                        set.handler_overflow.borrow_mut().push_back(rejected.0);
                    }
                }
            }
        }
    }

    /// Records a garbaged destination range on the set (bounded list)
    /// and mirrors it into the journal so the §4.4 dependency wall
    /// survives a service restart.
    fn remember_taint(
        &self,
        client: &Rc<Client>,
        set: &Rc<QueueSet>,
        space: u32,
        lo: u64,
        hi: u64,
        fault: CopyFault,
    ) {
        if let Some(j) = &self.journal {
            let set_idx = client
                .sets
                .borrow()
                .iter()
                .position(|s| Rc::ptr_eq(s, set))
                .unwrap_or(0) as u32;
            j.record_taint(TaintRec {
                client: client.id,
                set_idx,
                space,
                lo,
                hi,
                fault: copy_fault_code(fault),
            });
        }
        let mut t = set.tainted.borrow_mut();
        if t.len() >= 64 {
            t.remove(0);
        }
        t.push(TaintRange {
            space,
            lo,
            hi,
            fault,
        });
    }

    /// §4.4 dependency-ordered cleanup after a fault: the failed task's
    /// destination was never (fully) written, so any later window entry
    /// sourcing from it — directly or through a chain — is poisoned with
    /// the parent fault, in window-key order. Absorption never sees the
    /// dependents (they are finalized out of the window), so it can never
    /// forward from a poisoned source. The garbaged ranges are remembered
    /// on the set so copies submitted in later rounds hit the same wall
    /// until a fresh write fully overwrites the range.
    fn cascade_fault(
        &self,
        set: &Rc<QueueSet>,
        client: &Rc<Client>,
        failed: &Rc<PendEntry>,
        fault: CopyFault,
    ) {
        // Reachability closure over the index instead of a window sweep: a
        // later entry dies iff its source overlaps the destination of an
        // already-dead entry with a *smaller* key (the linear sweep records
        // a victim's taint before checking entries after it, and only
        // them). BFS over garbaged destination ranges computes the same
        // fixed point; victims are then poisoned in window-key order, so
        // signals, handlers, and remembered taints land exactly as the
        // sweep would have produced them.
        let mut killed: BTreeMap<crate::client::OrderKey, Rc<PendEntry>> = BTreeMap::new();
        let mut frontier: Vec<(crate::client::OrderKey, (u32, u64, u64))> =
            vec![(failed.key, failed.task.dst_range())];
        let mut hits = 0u64;
        let mut found: Vec<Rc<PendEntry>> = Vec::new();
        while let Some((bound, (sp, lo, hi))) = frontier.pop() {
            found.clear();
            hits += set
                .index
                .for_each_overlap(crate::pendindex::RangeKind::Src, sp, lo, hi, |p| {
                    if p.key > bound && !p.finished() && !killed.contains_key(&p.key) {
                        found.push(Rc::clone(p));
                    }
                });
            for p in found.drain(..) {
                frontier.push((p.key, p.task.dst_range()));
                killed.insert(p.key, p);
            }
        }
        self.stats.borrow_mut().index_hits += hits;
        for p in killed.values() {
            p.failed.set(Some(fault));
            p.task.descr.poison(fault);
            client.signals.borrow_mut().push(fault);
            let mut st = self.stats.borrow_mut();
            st.faults += 1;
            st.dependents_aborted += 1;
        }
        for p in killed.values() {
            self.finalize(client, set, p);
        }
        let (fsp, flo, fhi) = failed.task.dst_range();
        self.remember_taint(client, set, fsp, flo, fhi, fault);
        for p in killed.values() {
            let (sp, lo, hi) = p.task.dst_range();
            self.remember_taint(client, set, sp, lo, hi, fault);
        }
    }

    /// Orphan reclamation: reclaims everything a dead client left behind
    /// (`exit` with queued or in-flight copies). Queued-but-undrained
    /// descriptors are poisoned `Aborted` so library waiters unblock,
    /// window entries — including deferred absorption obligations — are
    /// aborted and finalized (releasing their pins), CSH rings are
    /// drained, and the client is unregistered. Returns the number of
    /// orphaned tasks reclaimed.
    pub fn reap_client(&self, client: &Rc<Client>) -> u64 {
        let was_dead = client.dead.replace(true);
        let mut reclaimed = 0u64;
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            for pair in [&set.uq, &set.kq] {
                while let Some(entry) = pair.copy.pop() {
                    if let QueueEntry::Copy(t) = entry {
                        t.descr.poison(CopyFault::Aborted);
                        reclaimed += 1;
                    }
                }
                while pair.sync.pop().is_some() {}
                while pair.handler.pop().is_some() {}
            }
            // Drain the window front-to-back instead of snapshot-cloning
            // it; `finalize` drops each popped entry's index records. The
            // count is latched up front so a completion handler submitting
            // mid-reap cannot extend the sweep (matching the snapshot
            // semantics this replaces).
            let n = set.pending.borrow().len();
            for _ in 0..n {
                let Some(p) = set.pending.borrow_mut().pop_front() else {
                    break;
                };
                if !p.finished() {
                    p.aborted.set(true);
                    p.task.descr.poison(CopyFault::Aborted);
                    reclaimed += 1;
                }
                self.finalize(client, &set, &p);
            }
            set.tainted.borrow_mut().clear();
            set.handler_overflow.borrow_mut().clear();
        }
        // Return every admission resource the client still held: quota
        // bytes leave the shard's window, counters zero, and the credit
        // pool refills so nothing leaks across client generations.
        self.shard_bytes_sub(client, client.inflight_bytes.get());
        client.inflight_tasks.set(0);
        client.inflight_bytes.set(0);
        client.pinned.set(0);
        client.credits.set(client.credit_cap.get());
        // Its translations die with it: the frames go back to the pool
        // when the process's address space is torn down.
        self.atcache.purge(&client.uspace);
        // Incremental-aggregate exits (DESIGN.md §18): the client leaves
        // the active set, the cached min-vruntime, and — when delta-folded
        // hashing is on — the shard hash sums.
        self.deactivate(client);
        if !was_dead {
            self.minvr_reap(client);
        }
        if self.hash_cached() {
            let sh = &self.shards[client.shard.get()];
            let (hp, hx) = client.hash_cache.get();
            sh.hp_sum.set(sh.hp_sum.get().wrapping_sub(hp));
            sh.hx_sum.set(sh.hx_sum.get().wrapping_sub(hx));
            client.hash_cache.set((0, 0));
            // The flag stays false so a stale dirty-list entry is skipped.
            client.hash_dirty.set(false);
        }
        self.clients.borrow_mut().retain(|c| !Rc::ptr_eq(c, client));
        self.bump_assign_epoch();
        // The dead client's scrub registrations go with it: any queued
        // heal task was just reaped above (poisoned `Aborted`, pins
        // released through finalize), and the walker must not keep
        // digesting — or re-healing — memory nobody owns anymore.
        self.scrub.borrow_mut().retain(|r| r.client != client.id);
        self.stats.borrow_mut().orphans_reclaimed += reclaimed;
        // The reaped client's Complete records become durable right away
        // so a crash after the reap never resurrects its tasks.
        self.journal_flush();
        reclaimed
    }

    /// Registers a long-lived region for background scrubbing
    /// (§integrity). `primary` is the guarded range; `replica` holds the
    /// same bytes and is what heal copies source from when the walker
    /// finds rot. Golden per-chunk digests are taken now, full-coverage
    /// (stride 1) — the whole point of the scrubber is catching damage
    /// anywhere in the extent. Digesting is host-side only.
    pub fn register_scrub_region(
        &self,
        client: &Rc<Client>,
        space: &Rc<AddressSpace>,
        primary: VirtAddr,
        replica: VirtAddr,
        len: usize,
        chunk: usize,
    ) {
        let chunk = chunk.max(1).min(len.max(1));
        let n = len.div_ceil(chunk).max(1);
        let mut golden = Vec::with_capacity(n);
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            golden.push(space.extent_digest_stride(primary.add(off), clen, 1));
        }
        self.scrub.borrow_mut().push(ScrubRegion {
            client: client.id,
            space: Rc::clone(space),
            primary,
            replica,
            len,
            chunk,
            golden,
            dead: (0..n).map(|_| Cell::new(false)).collect(),
            healing: (0..n).map(|_| Rc::new(Cell::new(false))).collect(),
        });
    }

    /// Applies one oracle-drawn bit-rot event: `pos` selects a bit
    /// uniformly across all registered primaries. The draw was already
    /// consumed (and traced) by the oracle, so the event lands — or
    /// no-ops, when nothing is registered or the page is unmapped —
    /// without touching determinism.
    fn inject_rot(&self, pos: u64) {
        let regions = self.scrub.borrow();
        let total_bits: u64 = regions.iter().map(|r| r.len as u64 * 8).sum();
        if total_bits == 0 {
            return;
        }
        let mut bit = pos % total_bits;
        for r in regions.iter() {
            let rbits = r.len as u64 * 8;
            if bit >= rbits {
                bit -= rbits;
                continue;
            }
            let va = r.primary.add((bit / 8) as usize);
            // Pure translate: rot strikes resident frames; an unmapped
            // page has no bytes to rot. No fault work, no virtual time.
            if let Some(pte) = r.space.translate(va) {
                let pm = r.space.phys();
                let mut b = [0u8];
                pm.read(pte.frame, va.page_off(), &mut b);
                b[0] ^= 1 << (bit % 8);
                pm.write(pte.frame, va.page_off(), &b);
            }
            return;
        }
    }

    /// One scrubber step: re-digests the next live chunk and, on
    /// mismatch, queues a heal copy from the replica through the
    /// ordinary k-queue — the heal is an absorbable, admission-controlled,
    /// shed-able copy task like any other, not a privileged side channel.
    /// A rotted chunk whose replica is also damaged is unrepairable: its
    /// range is remembered as `Corrupted` taint and retired.
    fn scrub_walk(self: &Rc<Self>) {
        let regions = self.scrub.borrow();
        let total: usize = regions.iter().map(|r| r.golden.len()).sum();
        if total == 0 {
            return;
        }
        let mut pos = self.scrub_pos.get() % total;
        for _ in 0..total {
            let (ri, ci) = {
                let mut p = pos;
                let mut found = (0, 0);
                for (i, r) in regions.iter().enumerate() {
                    if p < r.golden.len() {
                        found = (i, p);
                        break;
                    }
                    p -= r.golden.len();
                }
                found
            };
            pos = (pos + 1) % total;
            let r = &regions[ri];
            if r.dead[ci].get() || r.healing[ci].get() {
                continue;
            }
            self.scrub_pos.set(pos);
            let off = ci * r.chunk;
            let clen = r.chunk.min(r.len - off);
            self.stats.borrow_mut().scrub_chunks += 1;
            if r.space.extent_digest_stride(r.primary.add(off), clen, 1) == r.golden[ci] {
                return;
            }
            // Rot found. Heal from the replica if it is still intact.
            let client = {
                let cs = self.clients.borrow();
                cs.iter().find(|c| c.id == r.client).cloned()
            };
            let Some(client) = client else {
                return;
            };
            let Some(set) = client.set_at(0) else {
                return;
            };
            if r.space.extent_digest_stride(r.replica.add(off), clen, 1) != r.golden[ci] {
                self.stats.borrow_mut().scrub_unrepairable += 1;
                r.dead[ci].set(true);
                let lo = r.primary.add(off).0;
                self.remember_taint(
                    &client,
                    &set,
                    r.space.id(),
                    lo,
                    lo + clen as u64,
                    CopyFault::Corrupted,
                );
                return;
            }
            let descr = Rc::new(SegDescriptor::new(clen, self.cfg.segment));
            r.healing[ci].set(true);
            let healing = Rc::clone(&r.healing[ci]);
            let me = Rc::downgrade(self);
            let d2 = Rc::clone(&descr);
            let func = Handler::KFunc(Rc::new(move || {
                healing.set(false);
                if d2.fault().is_none() {
                    if let Some(svc) = me.upgrade() {
                        svc.stats.borrow_mut().scrub_heals += 1;
                    }
                }
            }));
            let task = CopyTask {
                dst_space: Rc::clone(&r.space),
                dst: r.primary.add(off),
                src_space: Rc::clone(&r.space),
                src: r.replica.add(off),
                len: clen,
                seg: self.cfg.segment,
                descr,
                func: Some(func),
                lazy: false,
                // Heal copies are themselves fully verified end to end: a
                // corrupt heal must not silently re-poison the region.
                verify: true,
            };
            if set.kq.copy.push(QueueEntry::Copy(task)).is_err() {
                // Ring full: the heal is shed-able by design; the chunk
                // stays live and the walker retries next period.
                r.healing[ci].set(false);
            } else {
                // The heal re-activates an idle owner exactly like a
                // client submission would (the walk runs before the
                // round's assignment snapshot, so the heal drains this
                // round on both paths).
                self.activate(&client);
            }
            return;
        }
    }

    /// Re-attaches a client that survived a service crash — the recovery
    /// protocol (DESIGN.md §15). The client's QueueSets — rings, pending
    /// window, address index, credits, taints — live in client-owned
    /// memory and survived; what died is the service-private control
    /// state. Reconciling the two against the replayed journal:
    ///
    /// * every window entry's **pins are released** and its in-flight
    ///   ranges cleared — the dead service's dispatch state is gone
    ///   (copied ranges stay: those bytes physically landed);
    /// * entries whose admission never became durable are **dropped
    ///   undelivered** and handed back to the caller for client-side
    ///   resubmission — safe because admissions flush before any of
    ///   their bytes move, so a dropped entry never has partial
    ///   progress;
    /// * journaled entries found finished are **finalized now** (the
    ///   crash hit between landing and finalization); unfinished ones
    ///   are re-adopted and simply continue under the new incarnation;
    /// * journaled-live tasks absent from every window finalized just
    ///   before the crash with their Complete record lost: the
    ///   destination is checked against the journaled extent digests
    ///   and **poisoned [`CopyFault::Torn`]** when it matches neither
    ///   side (neither untouched nor fully copied);
    /// * journaled **taints are re-installed** (deduplicated) so the
    ///   §4.4 dependency wall outlives the restart.
    ///
    /// Exactly-once handler delivery and credit return across all of
    /// this rest on the descriptor's delivery claim, which lives in
    /// client memory and therefore survives the crash.
    ///
    /// Returns the dropped (never-durable) tasks as `(set_idx, task)`
    /// pairs; the library pushes them back into its rings — still
    /// holding their original submission credits — so they run under
    /// the new incarnation.
    pub fn adopt_client(&self, client: &Rc<Client>) -> Vec<(u32, CopyTask)> {
        assert!(!client.dead.get(), "cannot adopt a reaped client");
        if client.id >= self.next_client.get() {
            self.next_client.set(client.id + 1);
        }
        // Re-stamp shard ownership under this incarnation: the hash is
        // stable, but the successor may run a different shard count.
        client.shard.set(self.shard_of_space(client.uspace.id()));
        // Fresh control-plane identity under the successor: a new
        // registration sequence (clients-vec order stays reg_seq order)
        // and clean incremental-aggregate state — the dead service's
        // active flag and hash cache mean nothing to this incarnation.
        client.reg_seq.set(self.alloc_reg_seq());
        client.active.set(false);
        client.hash_cache.set((0, 0));
        client.hash_dirty.set(false);
        self.clients.borrow_mut().push(Rc::clone(client));
        self.minvr_register(client);
        if self.hash_cached() {
            self.mark_hash_dirty(client);
        }
        // The adopted window may hold unfinished entries with no ring
        // push to doorbell them; activation here keeps the fast path's
        // invariant (unsettled ⇒ active).
        self.activate(client);
        self.bump_assign_epoch();
        let recovered = self.recovered.borrow();
        let empty = BTreeMap::new();
        let live = recovered.as_ref().map_or(&empty, |r| &r.live);
        let mut present = std::collections::BTreeSet::new();
        let mut finish: Vec<(Rc<QueueSet>, Rc<PendEntry>)> = Vec::new();
        let mut dropped_tasks: Vec<(u32, CopyTask)> = Vec::new();
        let mut readopted = 0u64;
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            let entries: Vec<Rc<PendEntry>> = set.pending.borrow().iter().cloned().collect();
            for e in entries {
                // The dead service's dispatch state is gone: release its
                // pins and clear in-flight ranges. Landed bytes stay.
                let mut unpinned = 0u64;
                for (space, frames) in e.pins.borrow_mut().drain(..) {
                    unpinned += frames.len() as u64;
                    space.unpin_frames(&frames);
                }
                client
                    .pinned
                    .set(client.pinned.get().saturating_sub(unpinned));
                *e.inflight.borrow_mut() = IntervalSet::new();
                if !live.contains_key(&e.tid) {
                    // Admission never became durable: drop undelivered.
                    set.index.remove(&e);
                    {
                        let mut pending = set.pending.borrow_mut();
                        let pos = pending.partition_point(|p| p.key < e.key);
                        if pos < pending.len() && Rc::ptr_eq(&pending[pos], &e) {
                            pending.remove(pos);
                        }
                    }
                    client
                        .inflight_tasks
                        .set(client.inflight_tasks.get().saturating_sub(1));
                    client.inflight_bytes.set(
                        client
                            .inflight_bytes
                            .get()
                            .saturating_sub(e.task.len as u64),
                    );
                    dropped_tasks.push((si as u32 - 1, e.task.clone()));
                    continue;
                }
                present.insert(e.tid);
                if e.finished() {
                    finish.push((Rc::clone(&set), e));
                } else {
                    readopted += 1;
                }
            }
        }
        // Adopt the client's admitted bytes into this incarnation's
        // window *before* finalizing, so the subtraction on the finalize
        // path balances.
        self.shard_bytes_add(client, client.inflight_bytes.get());
        let refinalized = finish.len() as u64;
        for (set, e) in &finish {
            self.finalize(client, set, e);
        }
        // Digest reconciliation: journaled-live tasks absent from every
        // window. Their entry was removed by the dead service's finalize
        // (handler delivered, pins released) but the Complete record was
        // lost; the destination must now look either untouched or fully
        // copied. Anything else is a torn write — poison it.
        for a in live.values().filter(|a| a.client == client.id) {
            if present.contains(&a.tid) {
                continue;
            }
            if a.dst_space != client.uspace.id() {
                // Not sampleable through this client's space (k-space
                // destination); the §4.4 cascade settled it pre-crash.
                if let Some(j) = &self.journal {
                    j.record_complete(a.tid, 0);
                }
                continue;
            }
            // Same sampling as the admit record's digests.
            let cur = client.uspace.extent_digest(VirtAddr(a.dst), a.len as usize);
            if cur == a.src_digest || cur == a.dst_digest {
                // Fully copied (Complete record lost) or never started:
                // either way the range is consistent; release it.
                if let Some(j) = &self.journal {
                    j.record_complete(a.tid, 0);
                }
                continue;
            }
            let set = client
                .set_at(a.set_idx as usize)
                .unwrap_or_else(|| client.default_set());
            self.remember_taint(
                client,
                &set,
                a.dst_space,
                a.dst,
                a.dst + a.len,
                CopyFault::Torn,
            );
            if let Some(j) = &self.journal {
                j.record_complete(a.tid, copy_fault_code(CopyFault::Torn));
            }
            self.stats.borrow_mut().torn_poisoned += 1;
        }
        // Re-install journaled taints (the in-memory list also survived —
        // this is the belt for a client whose sets were recreated).
        if let Some(r) = recovered.as_ref() {
            for t in r.taints.iter().filter(|t| t.client == client.id) {
                if let Some(set) = client.set_at(t.set_idx as usize) {
                    let mut list = set.tainted.borrow_mut();
                    let dup = list
                        .iter()
                        .any(|x| x.space == t.space && x.lo == t.lo && x.hi == t.hi);
                    if !dup {
                        if list.len() >= 64 {
                            list.remove(0);
                        }
                        list.push(TaintRange {
                            space: t.space,
                            lo: t.lo,
                            hi: t.hi,
                            fault: copy_fault_from_code(t.fault),
                        });
                    }
                }
            }
        }
        drop(recovered);
        {
            let mut st = self.stats.borrow_mut();
            st.dropped_unjournaled += dropped_tasks.len() as u64;
            st.recovered_tasks += readopted;
            st.recovered_finalized += refinalized;
        }
        client.epoch.set(self.epoch.get());
        // Make the recovery itself durable immediately.
        self.journal_flush();
        dropped_tasks
    }
}

/// One client's contribution to the `(pending, index)` trace hashes: its
/// window and index state folded from a fresh FNV offset, so
/// contributions can be summed (and later subtracted) independently of
/// iteration order. Inside a client every component is iterated in a
/// deterministic order (registration order for sets, window-key order
/// for entries, BTreeMap order inside the index).
fn fold_client_commutative(c: &Rc<Client>) -> (u64, u64) {
    let mut hp = FNV_OFFSET;
    let mut hx = FNV_OFFSET;
    let mut si = 0;
    while let Some(set) = c.set_at(si) {
        si += 1;
        for e in set.pending.borrow().iter() {
            hp = fnv_fold(hp, e.tid);
            hp = fnv_fold(hp, e.key.0);
            hp = fnv_fold(hp, e.key.1 as u64);
            hp = fnv_fold(hp, e.key.2);
            hp = fnv_fold(hp, e.task.len as u64);
            for ivs in [&e.copied, &e.inflight, &e.deferred] {
                for (lo, hi) in ivs.borrow().iter() {
                    hp = fnv_fold(hp, lo as u64);
                    hp = fnv_fold(hp, hi as u64);
                }
                hp = fnv_fold(hp, u64::MAX); // interval-set sentinel
            }
            let promoted = e.promoted.borrow();
            let flags = (!promoted.is_empty() as u64)
                | (e.aborted.get() as u64) << 1
                | (e.failed.get().map_or(0, |f| copy_fault_code(f) as u64)) << 2;
            hp = fnv_fold(hp, flags);
            // A whole-task promotion is the flag alone (what every v2
            // trace recorded); a partial one adds its ranges.
            if !promoted.is_empty() && !promoted.covers(0, e.task.len) {
                for (lo, hi) in promoted.iter() {
                    hp = fnv_fold(hp, lo as u64);
                    hp = fnv_fold(hp, hi as u64);
                }
                hp = fnv_fold(hp, u64::MAX);
            }
        }
        hx = fnv_fold(hx, set.index.digest());
    }
    (hp, hx)
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

fn bump(c: &Cell<u64>) -> u64 {
    let v = c.get();
    c.set(v + 1);
    v
}

/// Maps a memory-subsystem error to the fault surfaced through `csync`.
fn mem_fault(e: MemError) -> CopyFault {
    match e {
        MemError::OutOfMemory | MemError::Fragmented => CopyFault::OutOfMemory,
        _ => CopyFault::Segv,
    }
}

/// Records landed bytes and flips fully covered descriptor segments.
///
/// Zero-length progress (`len == 0`, or `off` at/past the task's end) is
/// a no-op: the old `(end - 1) / seg` then `num_segments() - 1` span math
/// underflowed for empty ranges — debug builds panicked, release builds
/// wrapped to a huge segment index and tripped the `mark` bounds assert.
fn mark_progress(e: &Rc<PendEntry>, off: usize, len: usize) {
    let end = (off + len).min(e.task.len);
    if end <= off {
        return;
    }
    e.copied.borrow_mut().insert(off, end);
    e.inflight.borrow_mut().remove(off, end);
    e.task.descr.mark_landed(&e.copied.borrow(), off, end);
}

/// Wire encoding of a `CopyFault` for trace and journal records
/// (0 = no fault).
fn copy_fault_code(f: CopyFault) -> u8 {
    match f {
        CopyFault::Segv => 1,
        CopyFault::OutOfMemory => 2,
        CopyFault::Aborted => 3,
        CopyFault::Overloaded => 4,
        CopyFault::Torn => 5,
        CopyFault::Corrupted => 6,
    }
}

/// Inverse of [`copy_fault_code`] for journaled taints. Unknown codes
/// decode as `Torn` — the conservative "do not consume these bytes".
fn copy_fault_from_code(code: u8) -> CopyFault {
    match code {
        1 => CopyFault::Segv,
        2 => CopyFault::OutOfMemory,
        3 => CopyFault::Aborted,
        4 => CopyFault::Overloaded,
        6 => CopyFault::Corrupted,
        _ => CopyFault::Torn,
    }
}

/// Generates, from one table of `SLOT = field path as conversion` rows in
/// wire order, everything that must agree on the canonical [`CopierStats`]
/// flattening: the [`stats_layout`] indexes (a row's position), the
/// flattening itself and its inverse. The conversion names how the field
/// maps to its `u64` slot (`u64`: as is; `usize`: cast; `nanos`:
/// [`Nanos`]).
macro_rules! stats_table {
    ($($slot:ident = $($field:ident).+ as $conv:ident,)+) => {
        /// Named indexes of the canonical [`CopierStats`] flattening
        /// ([`stats_to_vec`] / [`stats_from_vec`]) — the single shape the
        /// trace state hash and the journal checkpoint both use, one const
        /// per `CopierStats` field. The assignment is **append-only**:
        /// committed traces and journal stores encode these positions, so
        /// an existing index may never be renumbered; new counters take
        /// the next free slot (which is why the integrity counters at 37+
        /// interleave dispatch and service fields).
        /// `stats_layout_is_frozen` pins every value.
        pub mod stats_layout {
            stats_table!(@consts 0usize; $($slot = $($field).+,)+);
        }

        /// [`stats_to_vec`] without the allocation: the per-round trace
        /// state hash folds this.
        fn stats_slots(s: &CopierStats) -> [u64; stats_layout::LEN] {
            let mut v = [0u64; stats_layout::LEN];
            $(v[stats_layout::$slot] = stats_table!(@flatten $conv, s.$($field).+);)+
            v
        }

        /// Inverse of [`stats_to_vec`] for checkpoint restore. Fields
        /// missing from an older (shorter) checkpoint read as zero, so the
        /// vector stays append-only like the digest it feeds.
        pub fn stats_from_vec(v: &[u64]) -> CopierStats {
            let g = |i: usize| v.get(i).copied().unwrap_or(0);
            let mut s = CopierStats::default();
            $(s.$($field).+ = stats_table!(@restore $conv, g(stats_layout::$slot));)+
            s
        }

        /// Every `(const name, index)` of [`stats_layout`], in table order.
        #[cfg(test)]
        const STATS_SLOT_NAMES: &[(&str, usize)] =
            &[$((stringify!($slot), stats_layout::$slot)),+];
    };
    (@consts $at:expr; $slot:ident = $($field:ident).+, $($rest:tt)*) => {
        #[doc = concat!("`", stringify!($($field).+), "`.")]
        pub const $slot: usize = $at;
        stats_table!(@consts $at + 1; $($rest)*);
    };
    (@consts $at:expr;) => {
        /// One past the last assigned index.
        pub const LEN: usize = $at;
    };
    (@flatten u64, $e:expr) => { $e };
    (@flatten usize, $e:expr) => { $e as u64 };
    (@flatten nanos, $e:expr) => { $e.as_nanos() };
    (@restore u64, $e:expr) => { $e };
    (@restore usize, $e:expr) => { $e as usize };
    (@restore nanos, $e:expr) => { Nanos($e) };
}

stats_table! {
    TASKS_COMPLETED = tasks_completed as u64,
    BYTES_COPIED = bytes_copied as u64,
    BYTES_ABSORBED = bytes_absorbed as u64,
    BYTES_DEFERRED_EXECUTED = bytes_deferred_executed as u64,
    SYNCS = syncs as u64,
    PROMOTIONS = promotions as u64,
    ABORTS = aborts as u64,
    FAULTS = faults as u64,
    IDLE_POLLS = idle_polls as u64,
    BUSY_ROUNDS = busy_rounds as u64,
    DISPATCH_CPU_BYTES = dispatch.cpu_bytes as usize,
    DISPATCH_DMA_BYTES = dispatch.dma_bytes as usize,
    DISPATCH_DMA_DESCRIPTORS = dispatch.dma_descriptors as usize,
    DISPATCH_DMA_WAIT_NS = dispatch.dma_wait as nanos,
    DISPATCH_RETRIES = dispatch.retries as u64,
    DISPATCH_FALLBACK_BYTES = dispatch.fallback_bytes as usize,
    PROACTIVE_FAULTS = proactive_faults as u64,
    RETRIES = retries as u64,
    FALLBACK_BYTES = fallback_bytes as u64,
    QUARANTINED_CHANNELS = quarantined_channels as u64,
    ORPHANS_RECLAIMED = orphans_reclaimed as u64,
    DEPENDENTS_ABORTED = dependents_aborted as u64,
    ADMISSION_REJECTED = admission_rejected as u64,
    SHED_BYTES = shed_bytes as u64,
    CREDITS_GRANTED = credits_granted as u64,
    DEGRADED_SYNC_COPIES = degraded_sync_copies as u64,
    PRESSURE_EVENTS = pressure_events as u64,
    HAZARD_SCANS = hazard_scans as u64,
    INDEX_HITS = index_hits as u64,
    INDEX_ENTRIES_PEAK = index_entries_peak as u64,
    ROUNDS_SETTLED = rounds_settled as u64,
    ROUNDS_ACTIVE = rounds_active as u64,
    CRASHES = crashes as u64,
    RECOVERED_TASKS = recovered_tasks as u64,
    RECOVERED_FINALIZED = recovered_finalized as u64,
    DROPPED_UNJOURNALED = dropped_unjournaled as u64,
    TORN_POISONED = torn_poisoned as u64,
    DISPATCH_CORRUPTIONS = dispatch.corruptions as u64,
    DISPATCH_REPAIRS = dispatch.repairs as u64,
    CORRUPTED_POISONED = corrupted_poisoned as u64,
    SCRUB_CHUNKS = scrub_chunks as u64,
    SCRUB_HEALS = scrub_heals as u64,
    SCRUB_UNREPAIRABLE = scrub_unrepairable as u64,
    CORRUPT_QUARANTINED = corrupt_quarantined as u64,
}

/// Canonical flattening of [`CopierStats`] into the append-only
/// [`stats_layout`] vector shape.
pub fn stats_to_vec(s: &CopierStats) -> Vec<u64> {
    stats_slots(s).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins every committed [`stats_layout`] index by name: a renumbering
    /// — or a reordered `stats_table!` row — would silently corrupt
    /// journal checkpoints and trace state hashes recorded by older
    /// builds, so this golden is the freeze.
    #[test]
    fn stats_layout_is_frozen() {
        let golden = "\
             TASKS_COMPLETED=0 BYTES_COPIED=1 BYTES_ABSORBED=2 \
             BYTES_DEFERRED_EXECUTED=3 SYNCS=4 PROMOTIONS=5 ABORTS=6 FAULTS=7 \
             IDLE_POLLS=8 BUSY_ROUNDS=9 DISPATCH_CPU_BYTES=10 \
             DISPATCH_DMA_BYTES=11 DISPATCH_DMA_DESCRIPTORS=12 \
             DISPATCH_DMA_WAIT_NS=13 DISPATCH_RETRIES=14 \
             DISPATCH_FALLBACK_BYTES=15 PROACTIVE_FAULTS=16 RETRIES=17 \
             FALLBACK_BYTES=18 QUARANTINED_CHANNELS=19 ORPHANS_RECLAIMED=20 \
             DEPENDENTS_ABORTED=21 ADMISSION_REJECTED=22 SHED_BYTES=23 \
             CREDITS_GRANTED=24 DEGRADED_SYNC_COPIES=25 PRESSURE_EVENTS=26 \
             HAZARD_SCANS=27 INDEX_HITS=28 INDEX_ENTRIES_PEAK=29 \
             ROUNDS_SETTLED=30 ROUNDS_ACTIVE=31 CRASHES=32 RECOVERED_TASKS=33 \
             RECOVERED_FINALIZED=34 DROPPED_UNJOURNALED=35 TORN_POISONED=36 \
             DISPATCH_CORRUPTIONS=37 DISPATCH_REPAIRS=38 \
             CORRUPTED_POISONED=39 SCRUB_CHUNKS=40 SCRUB_HEALS=41 \
             SCRUB_UNREPAIRABLE=42 CORRUPT_QUARANTINED=43";
        let assigned: Vec<String> = STATS_SLOT_NAMES
            .iter()
            .map(|(name, idx)| format!("{name}={idx}"))
            .collect();
        assert_eq!(assigned, golden.split_whitespace().collect::<Vec<_>>());
        assert_eq!(assigned.len(), stats_layout::LEN, "every slot is named");
    }

    /// The per-round `stats_digest` folds exactly what the journal
    /// checkpoint flattens (`stats_to_vec` of the `stats()` snapshot),
    /// slot for slot, including the three slots `stats()` reads from the
    /// DMA engine and the frame pool instead of the counters.
    #[test]
    fn stats_digest_folds_the_stats_vec() {
        let sim = copier_sim::Sim::new();
        let h = sim.handle();
        let machine = copier_sim::Machine::new(&h, 1);
        let pm = Rc::new(PhysMem::new(16, copier_mem::AllocPolicy::Sequential));
        let svc = Copier::new(
            &h,
            Rc::clone(&pm),
            vec![machine.core(0)],
            Rc::new(CostModel::default()),
            CopierConfig {
                use_dma: true,
                ..Default::default()
            },
        );
        let distinct: Vec<u64> = (1000..1000 + stats_layout::LEN as u64).collect();
        *svc.stats.borrow_mut() = stats_from_vec(&distinct);
        // One pressure event, so that gauge differs from its counter slot.
        pm.set_watermarks(0, 1);
        pm.alloc().unwrap();
        assert!(pm.pressure());
        let v = stats_to_vec(&svc.stats());
        assert_eq!(v[stats_layout::PRESSURE_EVENTS], 1);
        assert_eq!(v[stats_layout::QUARANTINED_CHANNELS], 0);
        assert_eq!(v[stats_layout::TASKS_COMPLETED], 1000);
        assert_eq!(
            svc.stats_digest(FNV_OFFSET),
            v.into_iter().fold(FNV_OFFSET, fnv_fold)
        );
    }

    /// `stats_from_vec(stats_to_vec(s))` is the identity on every field
    /// — made observable by a second flattening. Distinct per-field
    /// values catch any swapped indexes the freeze test's naming missed.
    #[test]
    fn stats_vec_roundtrips() {
        let mut v: Vec<u64> = (1000..1000 + stats_layout::LEN as u64).collect();
        let s = stats_from_vec(&v);
        assert_eq!(stats_to_vec(&s), v);
        // Older (shorter) checkpoints zero-fill the missing tail.
        v.truncate(37);
        let s = stats_from_vec(&v);
        let full = stats_to_vec(&s);
        assert_eq!(&full[..37], &v[..]);
        assert!(full[37..].iter().all(|&x| x == 0));
    }
}
