//! The benchmark's fixed tables: the six workloads and every metric with
//! its unit, clock, direction and regression bound. `BENCHMARK.json` at the
//! repo root restates the names, units, directions and bounds; a unit test
//! keeps the two in step.

use copier_core::{AdmissionConfig, CopierConfig, PollMode};
use copier_sim::{ArrivalDist, LenDist, Nanos};

use crate::copyloop::{CopySpec, Guards, Traffic};

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 11;

/// `--smoke` divides every horizon, op count, probe length and the
/// `sparse_fleet` population by this.
pub const SMOKE_DIV: u64 = 50;

/// Which clock a metric is read from. Virtual-clock metrics are a pure
/// function of (commit, workload, seed) and must repeat bit for bit; host
/// metrics carry the sandbox's noise and are reported as medians.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Virtual,
    Host,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
        }
    }
}

/// One metric: its unit, clock, direction and, for the end-to-end ones,
/// the share of the parent's median by which it may worsen.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    /// `true`: larger is better.
    pub higher_better: bool,
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_better: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_better,
        bound,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    higher_better: bool,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        higher_better,
        bound: 0.0,
    }
}

use Clock::{Host as H, Virtual as V};

/// The end-to-end metrics, in print order. The shares are stated as what
/// went right (`slo_ok_frac = 1 - slo_miss_frac`, `served_frac = 1 -
/// failed_frac`) so that none is ever 0 and a relative bound on a value
/// near 1 is close to an absolute one.
///
/// The bounds are what the driver's cross-seed check needs: every value
/// is a median over [`PLANS`] seed-derived plans, and the bound is at
/// least three times the spread of that median over ten seeds (README,
/// "Bounds"). `compare.py` applies the tighter same-seed rules.
pub const E2E: &[Metric] = &[
    e2e("setup_s", "s", H, false, 0.25),
    e2e("goodput_gbps", "GB/s", V, true, 0.05),
    e2e("op_p50_us", "us", V, false, 0.25),
    e2e("op_p99_us", "us", V, false, 0.25),
    e2e("slo_ok_frac", "frac", V, true, 0.02),
    e2e("served_frac", "frac", V, true, 0.02),
    e2e("fair_share_min", "frac", V, true, 0.05),
    e2e("host_wall_s", "s", H, false, 0.25),
    e2e("peak_rss_mb", "MB", H, false, 0.10),
];

/// The per-layer metrics of the traced run, named after the crates. One
/// that does not apply to a workload reads 0 there.
pub const LAYER: &[Metric] = &[
    layer("e2e.op_mean_us", "us", V, false),
    layer("e2e.op_p999_us", "us", V, false),
    layer("sim.virt_end_ms", "ms", V, false),
    layer("sim.plan_arrivals", "count", V, true),
    layer("sim.plan_gen_s", "s", H, false),
    layer("sim.event_ns", "ns", H, false),
    layer("sim.rerun_rss_growth_mb", "MB", H, false),
    layer("sim.trace_events", "count", V, false),
    layer("sim.trace_bytes", "bytes", V, false),
    layer("sim.trace_host_frac", "frac", H, false),
    layer("client.gen_lag_ns_p99", "ns", V, false),
    layer("client.submit_ns_p50", "ns", V, false),
    layer("client.submit_ns_p99", "ns", V, false),
    layer("client.submit_refused", "count", V, false),
    layer("client.sync_fallbacks", "count", V, false),
    layer("client.descr_pool_hit_frac", "frac", V, true),
    layer("client.csync_wait_ns_p50", "ns", V, false),
    layer("core.residency_ns_p50", "ns", V, false),
    layer("core.residency_ns_p99", "ns", V, false),
    layer("core.rounds_active", "count", V, false),
    layer("core.rounds_settled", "count", V, false),
    layer("core.idle_polls", "count", V, false),
    layer("core.tasks_per_active_round", "1/round", V, true),
    layer("core.host_ns_per_round", "ns", H, false),
    layer("core.svc_busy_frac_min", "frac", V, false),
    layer("core.svc_busy_frac_max", "frac", V, false),
    layer("core.ring_push_pop_ns", "ns", H, false),
    layer("core.admission_rejected", "count", V, false),
    layer("core.shed_bytes", "bytes", V, false),
    layer("core.credits_granted", "count", V, true),
    layer("core.shard_bytes_min_max", "ratio", V, true),
    layer("core.shard_rounds_min_max", "ratio", V, true),
    layer("core.activations", "count", V, false),
    layer("core.assign_rebuilds", "count", V, false),
    layer("core.minvr_recomputes", "count", V, false),
    layer("core.bytes_copied", "bytes", V, false),
    layer("core.bytes_absorbed", "bytes", V, true),
    layer("core.absorb_frac", "frac", V, true),
    layer("core.hazard_scans", "count", V, false),
    layer("core.index_hits_per_scan", "1/scan", V, false),
    layer("core.index_entries_peak", "count", V, false),
    layer("core.promotions", "count", V, false),
    layer("core.aborts", "count", V, false),
    layer("core.syncs", "count", V, false),
    layer("core.faults", "count", V, false),
    layer("core.dependents_aborted", "count", V, false),
    layer("core.degraded_sync_copies", "count", V, false),
    layer("core.journal_records", "count", V, false),
    layer("core.journal_bytes", "bytes", V, false),
    layer("core.journal_host_frac", "frac", H, false),
    layer("hw.cpu_bytes", "bytes", V, false),
    layer("hw.dma_bytes", "bytes", V, true),
    layer("hw.dma_share", "frac", V, true),
    layer("hw.dma_descriptors", "count", V, false),
    layer("hw.dma_wait_frac", "frac", V, false),
    layer("hw.retries", "count", V, false),
    layer("hw.fallback_bytes", "bytes", V, false),
    layer("hw.atc_hit_frac", "frac", V, true),
    layer("hw.avx2_loop_gbps", "GB/s", V, true),
    layer("hw.speedup_vs_avx2", "ratio", V, true),
    layer("hw.verify_host_frac", "frac", H, false),
    layer("mem.copy_run_gbps", "GB/s", H, true),
    layer("mem.resolve_range_ns_per_page", "ns", H, false),
    layer("mem.copy_host_frac", "frac", H, false),
    layer("mem.frames_allocated", "count", V, false),
    layer("mem.pinned_frames_end", "count", V, false),
    layer("mem.pressure_events", "count", V, false),
    layer("mem.proactive_faults", "count", V, false),
    layer("os.send_ns_p50", "ns", V, false),
    layer("os.recv_ns_p50", "ns", V, false),
    layer("os.send_errors", "count", V, false),
    layer("apps.forwarded", "count", V, true),
    layer("apps.payload_mismatches", "count", V, false),
    layer("apps.p50_vs_baseline", "ratio", V, false),
    layer("apps.goodput_vs_baseline", "ratio", V, true),
    layer("trace.overhead_frac", "frac", H, false),
    layer("host.calibration_s", "s", H, false),
];

/// Plans per run. A run with seed `s` simulates this many arrival plans,
/// seeded `stream_seed(s, 0..PLANS)`, one child process each, and reports
/// the median over them: tail latency under heavy-tailed traffic is set
/// by a few busy periods, so one plan's p99 moves ~20 % from seed to seed
/// and no single plan that fits the time budget is steady.
pub const PLANS: usize = 6;

/// Seed of plan `k` of a run seeded `seed`.
pub fn plan_seed(seed: u64, k: usize) -> u64 {
    copier_sim::stream_seed(seed, k as u64)
}

/// What a workload drives.
pub enum Kind {
    /// Tenants against a bare `Copier` service.
    Copy(Box<CopySpec>),
    /// Clients → `NetStack` → `copier_apps::proxy` → sink, under `Os`.
    Proxy(crate::proxy::ProxySpec),
}

/// One named workload.
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the benchmark (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Latency limit on due → settle, fixed once: the smallest
    /// 1-2-5 x 10^k us at or above twice HEAD's p99 (seed 11).
    pub slo_us: u64,
    /// The workload offers more than the service can copy, so being
    /// refused at submit or shed is a designed outcome there: it lowers
    /// `served_frac` but is not a failed operation.
    pub overloads: bool,
    /// The workload this one is with reliability features added: their
    /// virtual results must be equal, and the traced run prices each
    /// feature against it.
    pub guarded_form_of: Option<&'static str>,
    pub kind: Kind,
}

pub const WORKLOAD_NAMES: &[&str] = &[
    "bulk_stream",
    "open_small",
    "shard_overload",
    "proxy_chain",
    "sparse_fleet",
    "guarded_small",
];

fn open_small_spec(div: u64, guards: Guards) -> CopySpec {
    CopySpec {
        registered: 8,
        active: 8,
        client_cores: 8,
        frames: 16 * 1024,
        pool: 8,
        cfg: CopierConfig::default(),
        traffic: Traffic::Open {
            mean_gap: Nanos::from_micros(4),
            len_min: 512,
            len_max: 64 * 1024,
            horizon: Nanos(Nanos::from_millis(60).as_nanos() / div),
            arrival: ArrivalDist::BoundedPareto {
                alpha: 1.5,
                spread: 1000.0,
            },
            length: LenDist::BoundedPareto { alpha: 1.2 },
        },
        guards,
    }
}

/// Builds workload `name`; `smoke` shrinks it to 1/50 for plumbing tests.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let div = if smoke { SMOKE_DIV } else { 1 };
    Some(match name {
        "bulk_stream" => Workload {
            name: "bulk_stream",
            why: "closed loop, 8 x ~256 KiB amemcpy then csync_all, DMA on: mem copy_run and hw dispatch/DMA/ATCache do the work, core runs about one round per copy (Fig. 9 regime)",
            slo_us: 500,
            overloads: false,
            guarded_form_of: None,
            kind: Kind::Copy(Box::new(CopySpec {
                registered: 1,
                active: 1,
                client_cores: 1,
                frames: 16 * 1024,
                pool: 64,
                cfg: CopierConfig {
                    use_dma: true,
                    absorption: false,
                    ..CopierConfig::default()
                },
                traffic: Traffic::Closed {
                    copies: (12_000 / div) as usize,
                    batch: 8,
                    len_min: 192 * 1024,
                    len_max: 320 * 1024,
                },
                guards: Guards::default(),
            })),
        },
        "open_small" => Workload {
            name: "open_small",
            why: "open loop, 8 tenants, heavy-tailed small copies: per-op control-plane cost (client submit, core ring/drain/park-wake/finalize/handler) dominates, bytes are few, so latency and the SLO mean something",
            slo_us: 500,
            overloads: false,
            guarded_form_of: None,
            kind: Kind::Copy(Box::new(open_small_spec(div, Guards::default()))),
        },
        "guarded_small" => Workload {
            name: "guarded_small",
            why: "open_small's exact plans with tracer, journal and Full verify on: virtual results must equal open_small's (checked); host_wall_s and peak_rss_mb are what a reliability or observability change moves",
            slo_us: 500,
            overloads: false,
            guarded_form_of: Some("open_small"),
            kind: Kind::Copy(Box::new(open_small_spec(div, Guards::ALL))),
        },
        "shard_overload" => Workload {
            name: "shard_overload",
            why: "open loop, 32 tenants offering 1.5x what 4 shards can copy, DMA off: admission, shedding, the round barrier and least-served fairness do the work; most ops are shed by design",
            slo_us: 10_000,
            overloads: true,
            guarded_form_of: None,
            kind: Kind::Copy(Box::new(CopySpec {
                registered: 32,
                active: 32,
                client_cores: 32,
                frames: 16 * 1024,
                pool: 8,
                cfg: CopierConfig {
                    shards: 4,
                    use_dma: false,
                    // fig_shardscale's quotas: roomy per client, a global
                    // watermark that bounds the overloaded drain tail.
                    admission: AdmissionConfig {
                        max_client_tasks: 64,
                        max_client_bytes: 4 * 1024 * 1024,
                        max_client_pinned: 8192,
                        global_high_bytes: 24 * 1024 * 1024,
                        global_low_bytes: 18 * 1024 * 1024,
                    },
                    polling: PollMode::Napi {
                        spin_rounds: 256,
                        park_timeout: Nanos::from_micros(50),
                    },
                    ..CopierConfig::default()
                },
                traffic: Traffic::Open {
                    // 1.5 x (4 shards x 10 B/ns) = 60 B/ns over 32 tenants
                    // at mean 40 KiB per op.
                    mean_gap: Nanos(21_845),
                    len_min: 16 * 1024,
                    len_max: 64 * 1024,
                    horizon: Nanos(Nanos::from_millis(100).as_nanos() / div),
                    arrival: ArrivalDist::Exponential,
                    length: LenDist::Uniform,
                },
                guards: Guards::default(),
            })),
        },
        "sparse_fleet" => Workload {
            name: "sparse_fleet",
            why: "100000 registered tenants, 1000 active with ms gaps: the service mostly idle-polls, parks and wakes; O(active) bookkeeping and registration footprint dominate, so setup_s and peak_rss_mb move here",
            slo_us: 10,
            overloads: false,
            guarded_form_of: None,
            kind: Kind::Copy(Box::new(CopySpec {
                registered: (100_000 / div) as usize,
                active: (1_000 / div) as usize,
                client_cores: 4,
                frames: 16 * 1024,
                pool: 1,
                cfg: CopierConfig {
                    // Default 1024-slot rings cost ~330 KB per tenant.
                    queue_cap: 4,
                    polling: PollMode::Napi {
                        spin_rounds: 64,
                        park_timeout: Nanos::from_micros(50),
                    },
                    admission: AdmissionConfig {
                        max_client_tasks: 16,
                        max_client_bytes: 1024 * 1024,
                        ..AdmissionConfig::default()
                    },
                    ..CopierConfig::default()
                },
                traffic: Traffic::Open {
                    mean_gap: Nanos::from_millis(1),
                    len_min: 512,
                    len_max: 16 * 1024,
                    horizon: Nanos(Nanos::from_millis(100).as_nanos() / div),
                    arrival: ArrivalDist::BoundedPareto {
                        alpha: 1.5,
                        spread: 1000.0,
                    },
                    length: LenDist::BoundedPareto { alpha: 1.2 },
                },
                guards: Guards::default(),
            })),
        },
        "proxy_chain" => Workload {
            name: "proxy_chain",
            why: "clients -> NetStack::send -> TinyProxy (Copier mode) -> verifying sink: the only path through os and apps, where absorption, lazy tasks, csync and abort avoid copied bytes (Fig. 12 regime)",
            slo_us: 100,
            overloads: false,
            guarded_form_of: None,
            kind: Kind::Proxy(crate::proxy::ProxySpec::new(div)),
        },
        _ => return None,
    })
}

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`, from the tables above: the committed
/// file is this output (`--emit-benchmark-json`), and a test keeps it so.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOAD_NAMES
        .iter()
        .map(|n| {
            let w = workload(n, false).expect("listed workload");
            format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why)
        })
        .collect();
    let better = |m: &Metric| if m.higher_better { "higher" } else { "lower" };
    let e2e: Vec<String> = E2E
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {:?}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--locked\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_emitted_tables() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: copier-benchmark --emit-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in E2E.iter().chain(LAYER) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in E2E {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(E2E.len() <= 16 && LAYER.len() <= 128);
        assert!(E2E
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_better));
        for n in WORKLOAD_NAMES {
            let w = workload(n, false).unwrap();
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains(['\n', '"']), "{n}");
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
