//! Per-layer counters read from the crates' public accessors after a
//! traced run, named `<crate>.<metric>` as in `spec::LAYER`.

use std::rc::Rc;

use copier_client::CopierHandle;
use copier_core::Copier;
use copier_sim::Core;

use crate::record::{span_durations, Span};
use crate::stats::{percentile_or_zero, OpRec, Outcome};

pub type Layers = Vec<(&'static str, f64)>;

/// `a / b`, 0 where the denominator is.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// How late the generators ran: submit start − due.
pub fn generator(ops: &[OpRec]) -> Layers {
    let lag: Vec<u64> = ops
        .iter()
        .filter(|o| o.submit_start > 0)
        .map(|o| o.submit_start.saturating_sub(o.due))
        .collect();
    vec![(
        "client.gen_lag_ns_p99",
        percentile_or_zero(&lag, 0.99) as f64,
    )]
}

/// What the op log and the benchmark's own spans say about the `client`
/// and `core` boundaries when each op is one copy task.
pub fn copy_ops(ops: &[OpRec], spans: &[Span]) -> Layers {
    let submit: Vec<u64> = ops
        .iter()
        .filter(|o| o.submit_end > 0)
        .map(|o| o.submit_end - o.submit_start)
        .collect();
    let residency: Vec<u64> = ops
        .iter()
        .filter(|o| o.outcome == Outcome::Ok)
        .map(|o| o.settle.saturating_sub(o.submit_end))
        .collect();
    let refused = ops.iter().filter(|o| o.outcome == Outcome::Refused).count();
    let p = |v: &[u64], q| percentile_or_zero(v, q) as f64;
    vec![
        ("client.submit_ns_p50", p(&submit, 0.50)),
        ("client.submit_ns_p99", p(&submit, 0.99)),
        ("client.submit_refused", refused as f64),
        (
            "client.csync_wait_ns_p50",
            p(&span_durations(spans, "client.csync_all"), 0.50),
        ),
        ("core.residency_ns_p50", p(&residency, 0.50)),
        ("core.residency_ns_p99", p(&residency, 0.99)),
    ]
}

/// The library-side counters of the submitting clients.
pub fn clients<'a>(libs: impl Iterator<Item = &'a Rc<CopierHandle>>) -> Layers {
    let (mut fallbacks, mut allocs, mut reuses) = (0u64, 0u64, 0u64);
    for l in libs {
        fallbacks += l.sync_fallbacks();
        let (a, r) = l.pool_stats();
        allocs += a;
        reuses += r;
    }
    vec![
        ("client.sync_fallbacks", fallbacks as f64),
        (
            "client.descr_pool_hit_frac",
            ratio(reuses as f64, (allocs + reuses) as f64),
        ),
    ]
}

/// The service's own counters: `core`, `hw`, and the `mem` events it sees.
/// `sim_end` is the virtual instant the simulation stopped at.
pub fn service(svc: &Copier, cores: &[Rc<Core>], host_wall_s: f64, sim_end: u64) -> Layers {
    let s = svc.stats();
    let d = s.dispatch;
    let obs = svc.control_obs();
    let atc = svc.atcache().stats();
    let journal = svc.journal_stats();
    let rounds = s.rounds_active + s.rounds_settled + s.idle_polls;
    let per_shard: Vec<(u64, u64, u64)> = (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect();
    let min_max = |f: fn(&(u64, u64, u64)) -> u64| {
        let lo = per_shard.iter().map(f).min().unwrap_or(0);
        let hi = per_shard.iter().map(f).max().unwrap_or(0);
        ratio(lo as f64, hi as f64)
    };
    let busy: Vec<f64> = cores
        .iter()
        .map(|c| ratio(c.busy_time().as_nanos() as f64, sim_end as f64))
        .collect();
    vec![
        ("core.rounds_active", s.rounds_active as f64),
        ("core.rounds_settled", s.rounds_settled as f64),
        ("core.idle_polls", s.idle_polls as f64),
        (
            "core.tasks_per_active_round",
            ratio(s.tasks_completed as f64, s.rounds_active as f64),
        ),
        (
            "core.host_ns_per_round",
            ratio(host_wall_s * 1e9, rounds as f64),
        ),
        (
            "core.svc_busy_frac_min",
            busy.iter().copied().reduce(f64::min).unwrap_or(0.0),
        ),
        (
            "core.svc_busy_frac_max",
            busy.iter().copied().reduce(f64::max).unwrap_or(0.0),
        ),
        ("core.admission_rejected", s.admission_rejected as f64),
        ("core.shed_bytes", s.shed_bytes as f64),
        ("core.credits_granted", s.credits_granted as f64),
        ("core.shard_bytes_min_max", min_max(|p| p.0)),
        ("core.shard_rounds_min_max", min_max(|p| p.2)),
        ("core.activations", obs.activations as f64),
        ("core.assign_rebuilds", obs.assign_rebuilds as f64),
        ("core.minvr_recomputes", obs.minvr_recomputes as f64),
        ("core.bytes_copied", s.bytes_copied as f64),
        ("core.bytes_absorbed", s.bytes_absorbed as f64),
        (
            "core.absorb_frac",
            ratio(
                s.bytes_absorbed as f64,
                (s.bytes_absorbed + s.bytes_copied) as f64,
            ),
        ),
        ("core.hazard_scans", s.hazard_scans as f64),
        (
            "core.index_hits_per_scan",
            ratio(s.index_hits as f64, s.hazard_scans as f64),
        ),
        ("core.index_entries_peak", s.index_entries_peak as f64),
        ("core.promotions", s.promotions as f64),
        ("core.aborts", s.aborts as f64),
        ("core.syncs", s.syncs as f64),
        ("core.faults", s.faults as f64),
        ("core.dependents_aborted", s.dependents_aborted as f64),
        ("core.degraded_sync_copies", s.degraded_sync_copies as f64),
        (
            "core.journal_records",
            journal.map_or(0, |j| j.records) as f64,
        ),
        ("core.journal_bytes", journal.map_or(0, |j| j.bytes) as f64),
        ("hw.cpu_bytes", d.cpu_bytes as f64),
        ("hw.dma_bytes", d.dma_bytes as f64),
        (
            "hw.dma_share",
            ratio(d.dma_bytes as f64, (d.dma_bytes + d.cpu_bytes) as f64),
        ),
        ("hw.dma_descriptors", d.dma_descriptors as f64),
        (
            "hw.dma_wait_frac",
            ratio(d.dma_wait.as_nanos() as f64, sim_end as f64),
        ),
        ("hw.retries", s.retries as f64),
        ("hw.fallback_bytes", s.fallback_bytes as f64),
        (
            "hw.atc_hit_frac",
            ratio(atc.hits as f64, (atc.hits + atc.misses) as f64),
        ),
        ("mem.pressure_events", s.pressure_events as f64),
        ("mem.proactive_faults", s.proactive_faults as f64),
    ]
}
