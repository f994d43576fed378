//! The service's counters: [`CopierStats`] and its frozen flattening (the
//! one shape the trace state hash and the journal checkpoint share), and
//! the host-side [`ControlObs`].

use copier_hw::DispatchReport;
use copier_sim::trace::fnv_fold;
use copier_sim::Nanos;

use super::Copier;

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
    /// Assignment-list rebuilds (epoch misses): one per change to the
    /// shard's own membership, none on a settled poll over a stable one.
    pub assign_rebuilds: u64,
    /// O(shard-clients) min-vruntime rescans (cache invalidations hit by
    /// a read).
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

impl Copier {
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

    /// Canonical flattening of [`CopierStats`] — the single shape both
    /// the trace state hash and the journal checkpoint use. See
    /// [`stats_to_vec`] and [`stats_layout`] for the (append-only)
    /// index assignment.
    pub(super) fn stats_vec(&self) -> Vec<u64> {
        stats_to_vec(&self.stats())
    }

    /// FNV-1a fold of [`Copier::stats_vec`] continued from `seed`, taken
    /// once per active traced round: the slots are flattened on the stack
    /// straight from a borrow of the counters, with the three
    /// point-in-time slots read the way [`Self::stats`] reads them.
    pub(super) fn stats_digest(&self, seed: u64) -> u64 {
        use stats_layout::*;
        let mut v = stats_slots(&self.stats.borrow());
        let (quarantined, pressure_events, corrupt_quarantined) = self.stats_gauges();
        v[QUARANTINED_CHANNELS] = quarantined;
        v[PRESSURE_EVENTS] = pressure_events;
        v[CORRUPT_QUARANTINED] = corrupt_quarantined;
        v.into_iter().fold(seed, fnv_fold)
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
    use std::rc::Rc;

    use copier_hw::CostModel;
    use copier_mem::PhysMem;
    use copier_sim::trace::FNV_OFFSET;

    use super::*;
    use crate::config::CopierConfig;

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
