//! Service configuration.

use std::rc::Rc;

use copier_hw::VerifyPolicy;
use copier_sim::{FaultPlan, Nanos, Tracer};

use crate::descriptor::DEFAULT_SEGMENT;
use crate::sched::DEFAULT_COPY_SLICE;

/// How the Copier threads poll client queues (§4.5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// NAPI-like adaptive polling: spin for a budget of idle sweeps, then
    /// park until awakened or the timeout elapses.
    Napi {
        /// Consecutive idle sweeps before parking.
        spin_rounds: u32,
        /// Maximum park duration before a defensive re-poll.
        park_timeout: Nanos,
    },
    /// Scenario-driven (the smartphone mode, §5.3): threads run only while
    /// a target scenario is active and sleep otherwise.
    ScenarioDriven,
}

/// Per-client quotas and the byte watermarks for admission control.
///
/// Submissions past quota are rejected with [`crate::CopyFault::Overloaded`]
/// instead of silently queued; the matching client-side mechanism is the
/// credit pool carried on the completion path (`copier-client`).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Per-client in-flight descriptor quota — also the size of the
    /// client's submission-credit pool.
    pub max_client_tasks: u64,
    /// Per-client in-flight byte quota.
    pub max_client_bytes: u64,
    /// Per-client pinned-frame quota: past it, the client's tasks are
    /// deferred (not shed) until completions release pins.
    pub max_client_pinned: u64,
    /// Windowed-byte high watermark, split evenly over the shards: a
    /// shard whose own admitted bytes reach `global_high_bytes / shards`
    /// sheds submissions priority-aware (the least-served client is
    /// exempt).
    pub global_high_bytes: u64,
    /// Low watermark, split the same way: a shard stops shedding once its
    /// window drains to `global_low_bytes / shards`.
    pub global_low_bytes: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_client_tasks: 1024,
            max_client_bytes: 64 * 1024 * 1024,
            max_client_pinned: 16 * 1024,
            global_high_bytes: 256 * 1024 * 1024,
            global_low_bytes: 192 * 1024 * 1024,
        }
    }
}

/// Tunables of a [`crate::service::Copier`] instance.
#[derive(Debug, Clone)]
pub struct CopierConfig {
    /// Slots per CSH ring. A ring allocates its slots on its first push,
    /// so a ring that never carries an entry costs only its header.
    pub queue_cap: usize,
    /// Default segment granularity for descriptors.
    pub segment: usize,
    /// How long lazy/deferred obligations may linger before execution.
    pub lazy_period: Nanos,
    /// Enable copy absorption (§4.4).
    pub absorption: bool,
    /// Attach the DMA engine (§4.3).
    pub use_dma: bool,
    /// Independent DMA channels (quarantine granularity; ≥ 1).
    pub dma_channels: usize,
    /// Deterministic fault-injection oracle consulted by the DMA engine
    /// (per descriptor) and the ATCache path (per hit). `None` disables
    /// injection entirely.
    pub fault_plan: Option<Rc<FaultPlan>>,
    /// ATCache entries (cached buffer translations) per address space:
    /// each space the service translates owns a table this large, freed
    /// with the space. 0 disables the cache.
    pub atcache_capacity: usize,
    /// Polling behavior.
    pub polling: PollMode,
    /// Maximum bytes served per scheduling decision (at least 4 KiB).
    pub copy_slice: usize,
    /// Admission-control quotas and watermarks.
    pub admission: AdmissionConfig,
    /// Record/replay hook (DESIGN.md §14): the service emits its round
    /// structure, drain/admission/scheduling decisions, and state hashes
    /// into this tracer, and in replay mode is checked against it in
    /// lockstep. Recording is host-side only — virtual-time behaviour is
    /// identical with or without it. `None` disables tracing.
    pub tracer: Option<Rc<Tracer>>,
    /// Control-plane journal store (DESIGN.md §15). When set, the service
    /// journals admissions/completions/taints into it and, on
    /// construction, replays whatever a previous incarnation left there —
    /// the crash-recovery path. Journaling is host-side only: no virtual
    /// time is charged and no PRNG draw is consumed, so a crash-free
    /// journaled run is byte-identical to an unjournaled one. `None`
    /// disables journaling (and recovery).
    pub journal: Option<Rc<crate::journal::JournalStore>>,
    /// End-to-end verification policy (§integrity). `Off` charges nothing
    /// and detects nothing; `Sampled` digests head+tail of each dispatched
    /// extent; `Full` digests every byte. Detection fires bounded repair,
    /// then [`crate::CopyFault::Corrupted`]. Host-side only: no virtual
    /// time is charged, so an uncorrupted run's virtual timeline is
    /// byte-identical across policies.
    pub verify: VerifyPolicy,
    /// Verification failures attributed to a DMA channel before it is
    /// quarantined like a hard death (0 disables corruption quarantine).
    pub corrupt_quarantine_threshold: u32,
    /// Scrubber cadence, per shard: each shard re-digests one chunk of its
    /// own clients' regions every this many of its rounds (0 disables the
    /// scrubber walk).
    pub scrub_period: u64,
    /// Number of control-plane shards (DESIGN.md §17) — one service
    /// thread each, so it must equal the number of cores the service is
    /// given. 1 (the default) is the classic single-instance service,
    /// byte-identical to every pre-shard build. N > 1 partitions clients
    /// across N service cores by a deterministic hash of the client's
    /// address-space id; shards coordinate fairness through a
    /// deterministic round barrier, so runs stay bit-reproducible from a
    /// seed at any shard count. N > 1 requires NAPI polling.
    pub shards: usize,
    /// Debug/reference switch (DESIGN.md §18): when `true`, every
    /// control-plane read path falls back to the legacy full sweeps over
    /// each shard's client list (assignment rebuild each round, O(clients)
    /// min-vruntime scans, full trace-hash folds). The incremental
    /// aggregates are still *maintained* either way — only the reads
    /// differ — so a full-sweep run is the differential reference the
    /// O(active) fast path is tested against. Outcomes and virtual time
    /// are identical in both modes at fixed (seed, shards).
    pub full_sweep: bool,
}

impl Default for CopierConfig {
    fn default() -> Self {
        CopierConfig {
            queue_cap: 1024,
            segment: DEFAULT_SEGMENT,
            lazy_period: Nanos::from_micros(50),
            absorption: true,
            use_dma: true,
            dma_channels: 1,
            fault_plan: None,
            atcache_capacity: 256,
            polling: PollMode::Napi {
                // SQPOLL-style idle budget (~160 µs of spinning) before
                // parking; keeps the service hot across request gaps.
                spin_rounds: 2048,
                park_timeout: Nanos::from_micros(100),
            },
            copy_slice: DEFAULT_COPY_SLICE,
            admission: AdmissionConfig::default(),
            tracer: None,
            journal: None,
            verify: VerifyPolicy::Off,
            corrupt_quarantine_threshold: 2,
            scrub_period: 64,
            shards: 1,
            full_sweep: false,
        }
    }
}
