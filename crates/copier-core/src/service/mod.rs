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
//!
//! One file per phase, all `impl Copier` (DESIGN.md §2 has the map): this
//! one holds the struct, construction and the client-facing surface;
//! `shard` the loop and the round; `drain`, `select`, `execute` and
//! `complete` steps 1–2, 4, 5–6 and 7; `aggregates` what a shard owns —
//! its core, its clients — and keeps incrementally, `barrier` where shards
//! meet, each piece behind a type whose fields only its own module can
//! write; `scrub` and `recover` background integrity and crash adoption;
//! `stats` the counters and their frozen layout.

// A phase that outgrows one screen is cut along its steps, not scrolled
// (threshold in the workspace `clippy.toml`).
#![deny(clippy::too_many_lines)]

mod aggregates;
mod barrier;
mod complete;
mod drain;
mod execute;
#[cfg(test)]
mod idle_spin;
mod recover;
mod scrub;
mod select;
mod shard;
mod stats;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier_hw::{ATCache, CostModel, Dispatcher, DmaEngine};
use copier_mem::{AddressSpace, PhysMem};
use copier_sim::trace::TraceEvent;
use copier_sim::{stream_seed, Core, CrashPoint, Notify, SimHandle};

use crate::client::{Client, ClientId};
use crate::config::{CopierConfig, PollMode};
use crate::journal::{Journal, JournalStats, Recovered};
use crate::sched::Scheduler;
use crate::task::TaskId;

pub(crate) use aggregates::Marks;
use aggregates::ShardState;
use barrier::RoundBarrier;
use scrub::ScrubRegion;
pub use stats::{stats_from_vec, stats_layout, stats_to_vec, ControlObs, CopierStats};

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
    scenario_active: Cell<bool>,
    wake: Rc<Notify>,
    parked: Cell<usize>,
    next_tid: Cell<TaskId>,
    next_client: Cell<ClientId>,
    stats: RefCell<CopierStats>,
    stopping: Cell<bool>,
    /// Per-shard control planes, one per dedicated core: each owns its
    /// clients (DESIGN.md §17). The per-shard counters are maintained at
    /// every shard count (host-side `Cell` writes, no virtual time).
    shards: Vec<ShardState>,
    /// Where the shards meet once per generation (DESIGN.md §17).
    barrier: RoundBarrier,
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
    /// Monotone registration sequence feeding [`Client::reg_seq`].
    next_reg: Cell<u64>,
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
        let shards = ShardState::all(cores, &cfg);
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
            scenario_active: Cell::new(true),
            wake: Rc::new(Notify::new()),
            parked: Cell::new(0),
            next_tid: Cell::new(next_tid),
            next_client: Cell::new(1),
            stats: RefCell::new(stats),
            stopping: Cell::new(false),
            shards,
            barrier: RoundBarrier::new(h, nshards),
            crashed: Cell::new(false),
            epoch: Cell::new(epoch),
            journal,
            recovered: RefCell::new(recovered),
            scrub: RefCell::new(Vec::new()),
            scrub_tick: Cell::new(0),
            scrub_pos: Cell::new(0),
            next_reg: Cell::new(0),
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

    /// Bytes currently admitted into service windows across all clients.
    pub fn admitted_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.admit.bytes()).sum()
    }

    /// Bytes currently admitted by shard `idx`'s clients — the quantity
    /// the shard's share of the watermarks gates. Valid for
    /// `idx < nshards()`.
    pub fn shard_admitted_bytes(&self, idx: usize) -> u64 {
        self.shards[idx].admit.bytes()
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

    /// Submission doorbell (DESIGN.md §18): marks `client` active on its
    /// shard and wakes parked service threads. Called by libCopier after
    /// every ring push; service-internal producers (scrub heals,
    /// adoption) call [`Self::activate`] directly.
    pub fn doorbell(&self, client: &Rc<Client>) {
        self.activate(client);
        self.awaken();
    }

    /// Emits a trace event attributed to `shard`.
    fn temit(&self, shard: usize, ev: TraceEvent) {
        if let Some(t) = &self.cfg.tracer {
            t.emit_on(shard as u32, ev);
        }
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
        self.shard_of(&c).join(&c);
        c
    }

    /// Allocates the next registration sequence number (also stamped at
    /// adoption — a shard's list is in `reg_seq` order).
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
        self.barrier.release();
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
        self.barrier.release();
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
}
