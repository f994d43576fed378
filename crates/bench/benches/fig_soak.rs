//! fig_soak: million-tenant soak — O(active) control-plane rounds and
//! latency-percentile observability (DESIGN.md §18).
//!
//! A large open-loop tenant population registers with one service core;
//! only ~1% of tenants are active (heavy-tailed bounded-Pareto
//! inter-arrivals and copy lengths), the rest sit registered but idle —
//! the shape a consolidated host actually sees. Desired shape: per-round
//! control-plane cost tracks the *active* set, not the registered
//! population. The same seed runs twice, once on the fast path and once
//! with `full_sweep: true` (every read recomputed by the legacy
//! O(clients) sweeps); virtual time is bit-identical, so the host
//! wall-clock ratio *is* the per-round cost ratio. The bar: ≥ 20× at
//! 10⁵ registered tenants. A 10⁶-tenant point runs fast-path-only and
//! must complete within a wall-clock budget.
//!
//! Observability: submission-to-settle latency percentiles (p50 / p99 /
//! p999), per-tenant SLO attainment, peak RSS — the soak's memory
//! footprint — and the resident bytes a registered tenant adds, all
//! reported into `BENCH_soak.json`. A tenant's CSH rings allocate their
//! slots on first push, so an idle tenant's bytes are its client state
//! and ring headers; the bar holds the 10⁶-tenant point to 1.5 KB each.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use copier_bench::json::Json;
use copier_bench::{row, section};
use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{stats_to_vec, AdmissionConfig, Copier, CopierConfig, Handler, PollMode};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier_sim::{ArrivalDist, LenDist, Machine, Nanos, Sim, WorkloadConfig, WorkloadPlan};
use copier_testkit::{peak_rss_bytes, rss_bytes, LatencyRecorder};

/// Client-side submission cores shared by the active tenants.
const CLIENT_CORES: usize = 4;
/// Heavy-tailed inter-arrival: Pareto tail index and hi/lo spread.
const GAP_ALPHA: f64 = 1.5;
const GAP_SPREAD: f64 = 1000.0;
/// Heavy-tailed copy lengths.
const LEN_ALPHA: f64 = 1.2;
/// Resident bytes a registered tenant may add at the 10⁶-tenant point.
const REG_BYTES_PER_TENANT_MAX: f64 = 768.0;

struct Scale {
    /// Registered tenants (the population the legacy sweeps iterate).
    registered: usize,
    /// Tenants that ever submit (~1% of registered).
    active: usize,
    /// Virtual horizon the arrival plan covers.
    horizon: Nanos,
    /// Smallest / largest copy length.
    len_min: usize,
    len_max: usize,
    /// Mean inter-arrival gap per active tenant.
    mean_gap: Nanos,
    /// Physical frames backing the active tenants' buffer pools.
    frames: usize,
}

struct Out {
    /// Virtual end time (bit-identity surface).
    end: Nanos,
    /// Full stats vector (bit-identity surface).
    stats: Vec<u64>,
    /// Raw latency samples (bit-identity surface).
    samples: Vec<(u32, u64)>,
    /// Pooled percentiles over every settled copy.
    pct: copier_testkit::Percentiles,
    /// `(met, total)` tenants meeting the SLO on ≥ 99% of their copies.
    slo: (usize, usize),
    /// Poll rounds the service ran (idle + busy), equal across modes.
    rounds: u64,
    /// Copies settled.
    settled: usize,
    /// Submissions rejected client-side (should be 0 — underloaded).
    rejected: u64,
    /// Host wall time of `sim.run()` (the measured quantity).
    wall: std::time::Duration,
    /// Host wall time of registering every tenant.
    reg_wall: std::time::Duration,
    /// Resident-set growth across registering every tenant, divided by
    /// the number of tenants (`None` where VmRSS cannot be read).
    reg_bytes_per_tenant: Option<f64>,
    /// Control-plane observability counters.
    assign_rebuilds: u64,
    activations: u64,
    /// The process's resident-set high-water mark when this run ended:
    /// the footprint of the largest run so far, this one included.
    peak_rss: Option<u64>,
}

/// SLO for per-tenant attainment: a copy should settle within this much
/// virtual time of its submission.
const SLO: Nanos = Nanos::from_micros(500);

fn run(scale: &Scale, full_sweep: bool, seed: u64) -> Out {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, CLIENT_CORES + 1);
    let pm = Rc::new(PhysMem::new(scale.frames, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(CLIENT_CORES)],
        cost,
        CopierConfig {
            use_dma: false,
            // Small rings: a million tenants times the default 1024-slot
            // rings would be pure footprint; the soak's clients are
            // shallow submitters.
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
            full_sweep,
            ..CopierConfig::default()
        },
    );
    svc.start();

    // Register the whole population. Only the first `active` tenants get
    // buffers and an arrival plan; the rest are the idle mass the
    // full-sweep mode pays for every round.
    let reg_rss0 = rss_bytes();
    let reg_t0 = Instant::now();
    let mut libs: Vec<Rc<CopierHandle>> = Vec::with_capacity(scale.registered);
    for t in 0..scale.registered {
        let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
        libs.push(CopierHandle::new(&svc, space));
    }
    let reg_wall = reg_t0.elapsed();
    let reg_bytes_per_tenant = reg_rss0
        .zip(rss_bytes())
        .map(|(r0, r1)| r1.saturating_sub(r0) as f64 / scale.registered as f64);

    let plan = WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants: scale.active,
        mean_gap: scale.mean_gap,
        len_min: scale.len_min,
        len_max: scale.len_max,
        horizon: scale.horizon,
        arrival: ArrivalDist::BoundedPareto {
            alpha: GAP_ALPHA,
            spread: GAP_SPREAD,
        },
        length: LenDist::BoundedPareto { alpha: LEN_ALPHA },
    });

    let recorder = Rc::new(LatencyRecorder::new());
    let rejected = Rc::new(Cell::new(0u64));
    let done = Rc::new(Cell::new(0usize));
    for (t, lib) in libs.iter().enumerate().take(scale.active) {
        let lib = Rc::clone(lib);
        let space = Rc::clone(&lib.uspace);
        let bufs: (VirtAddr, VirtAddr) = (
            space.mmap(scale.len_max, Prot::RW, true).unwrap(),
            space.mmap(scale.len_max, Prot::RW, true).unwrap(),
        );
        let arrivals = plan.tenant(t).to_vec();
        let core = machine.core(t % CLIENT_CORES);
        let h2 = h.clone();
        let rec = Rc::clone(&recorder);
        let rej = Rc::clone(&rejected);
        let done2 = Rc::clone(&done);
        sim.spawn("tenant", async move {
            for a in &arrivals {
                let now = h2.now();
                if a.at > now {
                    h2.sleep(a.at - now).await;
                }
                let (src, dst) = bufs;
                let submit = h2.now().as_nanos();
                let rec2 = Rc::clone(&rec);
                let h3 = h2.clone();
                let tid = t as u32;
                let opts = AmemcpyOpts {
                    // KFunc: the service thread stamps the settle time the
                    // moment the copy finishes — the submission-to-settle
                    // sample the soak's percentiles are built from.
                    func: Some(Handler::KFunc(Rc::new(move || {
                        rec2.record(tid, submit, h3.now().as_nanos());
                    }))),
                    ..Default::default()
                };
                if lib.try_amemcpy(&core, dst, src, a.len, opts).await.is_err() {
                    rej.set(rej.get() + 1);
                }
            }
            done2.set(done2.get() + 1);
        });
    }

    // Driver: wait for every active tenant, then drain the window.
    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    let done2 = Rc::clone(&done);
    let end = Rc::new(Cell::new(Nanos::ZERO));
    let end2 = Rc::clone(&end);
    let nactive = scale.active;
    sim.spawn("driver", async move {
        while done2.get() < nactive {
            h2.sleep(Nanos::from_micros(20)).await;
        }
        let mut stable = 0;
        while stable < 3 {
            h2.sleep(Nanos::from_micros(10)).await;
            stable = if svc2.admitted_bytes() == 0 {
                stable + 1
            } else {
                0
            };
        }
        end2.set(h2.now());
        svc2.stop();
    });

    let t0 = Instant::now();
    sim.run();
    let wall = t0.elapsed();

    svc.audit_aggregates().expect("aggregate audit");
    assert_eq!(pm.pinned_frames(), 0, "pins must drain");
    let s = svc.stats();
    let obs = svc.control_obs();
    let pct = recorder.percentiles().expect("no copy ever settled");
    Out {
        end: end.get(),
        stats: stats_to_vec(&s),
        samples: recorder.samples(),
        pct,
        slo: recorder.tenants_meeting(SLO.as_nanos(), 0.99),
        rounds: s.idle_polls + s.rounds_settled + s.rounds_active,
        settled: recorder.len(),
        rejected: rejected.get(),
        wall,
        reg_wall,
        reg_bytes_per_tenant,
        assign_rebuilds: obs.assign_rebuilds,
        activations: obs.activations,
        peak_rss: peak_rss_bytes(),
    }
}

fn point_json(label: &str, scale: &Scale, o: &Out, full: Option<&Out>) -> Json {
    let mut fields = vec![
        ("point", Json::Str(label.into())),
        ("registered", Json::Int(scale.registered as u64)),
        ("active", Json::Int(scale.active as u64)),
        ("settled", Json::Int(o.settled as u64)),
        ("rejected", Json::Int(o.rejected)),
        ("rounds", Json::Int(o.rounds)),
        ("end_ns", Json::Int(o.end.as_nanos())),
        ("wall_ms_fast", Json::Num(o.wall.as_secs_f64() * 1e3)),
        ("reg_wall_ms", Json::Num(o.reg_wall.as_secs_f64() * 1e3)),
        ("p50_ns", Json::Int(o.pct.p50)),
        ("p99_ns", Json::Int(o.pct.p99)),
        ("p999_ns", Json::Int(o.pct.p999)),
        ("max_ns", Json::Int(o.pct.max)),
        ("slo_met", Json::Int(o.slo.0 as u64)),
        ("slo_total", Json::Int(o.slo.1 as u64)),
        ("assign_rebuilds", Json::Int(o.assign_rebuilds)),
        ("activations", Json::Int(o.activations)),
    ];
    if let Some(f) = full {
        fields.push(("wall_ms_full", Json::Num(f.wall.as_secs_f64() * 1e3)));
        fields.push((
            "round_cost_ratio",
            Json::Num(f.wall.as_secs_f64() / o.wall.as_secs_f64()),
        ));
    }
    if let Some(rss) = o.peak_rss {
        fields.push(("peak_rss_bytes", Json::Int(rss)));
    }
    if let Some(b) = o.reg_bytes_per_tenant {
        fields.push(("reg_bytes_per_tenant", Json::Num(b)));
    }
    Json::obj(fields)
}

fn print_point(label: &str, o: &Out) {
    row(&[
        ("point", label.to_string()),
        ("settled", format!("{}", o.settled)),
        ("rounds", format!("{}", o.rounds)),
        ("end-us", format!("{}", o.end.as_nanos() / 1000)),
        ("wall-ms", format!("{:.0}", o.wall.as_secs_f64() * 1e3)),
        ("p50-us", format!("{:.1}", o.pct.p50 as f64 / 1e3)),
        ("p99-us", format!("{:.1}", o.pct.p99 as f64 / 1e3)),
        ("p999-us", format!("{:.1}", o.pct.p999 as f64 / 1e3)),
        ("slo", format!("{}/{}", o.slo.0, o.slo.1)),
    ]);
}

fn main() {
    let smoke = std::env::var("SOAK_SMOKE").is_ok_and(|v| v == "1");
    let small = if smoke {
        Scale {
            registered: 5_000,
            active: 50,
            horizon: Nanos::from_micros(400),
            len_min: 512,
            len_max: 16 * 1024,
            mean_gap: Nanos::from_micros(200),
            frames: 4096,
        }
    } else {
        Scale {
            registered: 100_000,
            active: 1_000,
            horizon: Nanos::from_millis(2),
            len_min: 512,
            len_max: 16 * 1024,
            mean_gap: Nanos::from_millis(1),
            frames: 16384,
        }
    };

    section(&format!(
        "fig_soak: {} registered tenants, {} active ({}%), heavy-tailed arrivals",
        small.registered,
        small.active,
        small.active * 100 / small.registered
    ));
    println!(
        "  Pareto gaps (alpha={GAP_ALPHA}, spread={GAP_SPREAD}) and lengths (alpha={LEN_ALPHA}), 1 service core, DMA off"
    );

    let fast = run(&small, false, 42);
    print_point("fast", &fast);
    let full = run(&small, true, 42);
    print_point("full-sweep", &full);

    // Virtual time must be bit-identical between modes — the wall ratio
    // is meaningless otherwise (different runs, not different read
    // paths).
    assert_eq!(fast.end, full.end, "full_sweep changed virtual time");
    assert_eq!(
        fast.stats, full.stats,
        "full_sweep changed the stats vector"
    );
    assert_eq!(fast.samples, full.samples, "full_sweep changed latencies");
    assert_eq!(fast.rounds, full.rounds);
    let ratio = full.wall.as_secs_f64() / fast.wall.as_secs_f64();
    println!("\n  per-round control-plane cost: full-sweep / fast = {ratio:.1}x");

    section("determinism: same seed, bit-identical soak");
    let again = run(&small, false, 42);
    let identical =
        again.end == fast.end && again.stats == fast.stats && again.samples == fast.samples;
    row(&[
        ("identical", format!("{identical}")),
        ("samples", format!("{}", fast.samples.len())),
    ]);
    assert!(identical, "soak must be seed-deterministic");

    // The million-tenant point: fast path only (the legacy sweep at this
    // scale is precisely what the fast path deletes), wall-clock
    // budgeted.
    let big = Scale {
        registered: if smoke { 20_000 } else { 1_000_000 },
        active: if smoke { 200 } else { 10_000 },
        horizon: Nanos::from_millis(1),
        len_min: 512,
        len_max: 8 * 1024,
        mean_gap: Nanos::from_millis(2),
        frames: if smoke { 8192 } else { 65536 },
    };
    section(&format!(
        "soak at {} registered tenants (fast path only)",
        big.registered
    ));
    let big_out = run(&big, false, 43);
    print_point("big", &big_out);
    let big_wall_s = big_out.wall.as_secs_f64() + big_out.reg_wall.as_secs_f64();
    for (label, o) in [("small", &fast), ("big", &big_out)] {
        if let Some(rss) = o.peak_rss {
            println!(
                "  peak RSS after {label}: {:.2} GiB",
                rss as f64 / (1u64 << 30) as f64
            );
        }
        if let Some(b) = o.reg_bytes_per_tenant {
            println!("  resident bytes per registered tenant ({label}): {b:.0}");
        }
    }

    let mut summary = vec![
        // The tentpole bar: ≥ 20× cheaper rounds at 10⁵ tenants with ~1%
        // active.
        Json::summary("round_cost_reduction_1e5", "speedup_min", 20.0, ratio),
        Json::summary(
            "p999_ms_1e5",
            "p999_ms_max",
            1.0,
            fast.pct.p999 as f64 / 1e6,
        ),
        Json::summary(
            "slo_attainment_1e5",
            "fraction_min",
            0.9,
            fast.slo.0 as f64 / fast.slo.1.max(1) as f64,
        ),
        Json::summary(
            "soak_determinism",
            "identical_min",
            1.0,
            if identical { 1.0 } else { 0.0 },
        ),
        Json::summary("tenants_1e6_wall_s", "wall_s_max", 300.0, big_wall_s),
    ];
    if let Some(b) = big_out.reg_bytes_per_tenant {
        summary.push(Json::summary(
            "reg_bytes_per_tenant_1e6",
            "bytes_max",
            REG_BYTES_PER_TENANT_MAX,
            b,
        ));
    }
    let json = Json::obj([
        ("bench", Json::Str("fig_soak".into())),
        ("smoke", Json::Bool(smoke)),
        ("slo_ns", Json::Int(SLO.as_nanos())),
        (
            "points",
            Json::Arr(vec![
                point_json("small", &small, &fast, Some(&full)),
                point_json("big", &big, &big_out, None),
            ]),
        ),
        ("summary", Json::Arr(summary)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_soak.json");
    json.write_file(path).expect("write BENCH_soak.json");
    println!("\n  wrote {path}");
}
