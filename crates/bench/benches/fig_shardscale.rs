//! fig_shardscale: sharded control plane — goodput scaling across
//! simulated service cores (DESIGN.md §17).
//!
//! Many open-loop tenants offer several times one service core's copy
//! bandwidth; the sweep grows the control plane from 1 to 8 shards over
//! dedicated cores. Desired shape: goodput scales near-linearly until
//! the offered load is absorbed (≥ 5.5× at 8 shards is the bar — hash
//! imbalance across tenants and the round barrier are the honest gap to
//! 8×), more shards never end the run later, tenants are never starved,
//! and a fixed shard count is perfectly deterministic: the same seed
//! replays to bit-identical outcomes, checked here by running the
//! 4-shard point twice and comparing every per-tenant byte count and the
//! full stats vector.
//!
//! DMA is off so every copy runs on its shard's own core (the AVX2
//! service path) — the clean configuration for measuring *control-plane*
//! scaling rather than contention on a shared engine.

use std::cell::Cell;
use std::rc::Rc;

use copier_bench::json::Json;
use copier_bench::{row, section};
use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{stats_to_vec, AdmissionConfig, Copier, CopierConfig, CopierStats, PollMode};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier_sim::{Machine, Nanos, Sim, WorkloadConfig, WorkloadPlan};

/// Uniform copy lengths in [16 KiB, 64 KiB] — mean 40 KiB.
const LEN_MIN: usize = 16 * 1024;
const LEN_MAX: usize = 64 * 1024;
/// Nominal per-shard-core service copy bandwidth (AVX2 ≈ 10–11 B/ns).
const SAT_RATE: f64 = 10.0;
/// Distinct reusable buffer pairs per tenant.
const POOL: usize = 8;
/// Largest shard count in the sweep.
const MAX_SHARDS: usize = 8;

/// Window quotas: roomy per client, with a watermark whose per-shard
/// share still holds a dozen copy slices at eight shards (3 MiB), yet low
/// enough to bound the drain tail of the overloaded single-shard run.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        max_client_tasks: 64,
        max_client_bytes: 4 * 1024 * 1024,
        max_client_pinned: 8192,
        global_high_bytes: 24 * 1024 * 1024,
        global_low_bytes: 18 * 1024 * 1024,
    }
}

struct Out {
    /// Offered load, bytes/ns (all tenants).
    offered: f64,
    /// Delivered copy bytes/ns over the whole run (incl. drain tail).
    goodput: f64,
    /// Bytes actually served per tenant.
    per_tenant: Vec<u64>,
    /// Per-shard (bytes_copied, tasks_completed, rounds_active).
    per_shard: Vec<(u64, u64, u64)>,
    /// End-of-run service stats.
    stats: CopierStats,
    /// ATCache hits / lookups. A tenant's pool (2 × `POOL` buffers) fits
    /// its own table, so what misses is first touches and entries growing
    /// to a longer drawn length.
    atc_hit_frac: f64,
    /// Share of the service cores' run time spent parked at the round
    /// barrier: `barrier_wait_ns` ÷ (shards × end). 0 at one shard.
    barrier_wait_frac: f64,
    /// Frames still pinned after the drain (must be 0).
    pinned: usize,
    /// Virtual end time.
    end: Nanos,
}

impl Out {
    /// Copy tasks completed per active round — how full the rounds (and
    /// so the barrier generations) ran.
    fn tasks_per_round(&self) -> f64 {
        self.stats.tasks_completed as f64 / self.stats.rounds_active.max(1) as f64
    }
}

fn run(shards: usize, tenants: usize, horizon: Nanos, load: f64, seed: u64) -> Out {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, tenants + shards);
    let pm = Rc::new(PhysMem::new(16384, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..shards).map(|i| machine.core(tenants + i)).collect(),
        cost,
        CopierConfig {
            shards,
            use_dma: false,
            admission: admission(),
            polling: PollMode::Napi {
                spin_rounds: 256,
                park_timeout: Nanos::from_micros(50),
            },
            ..CopierConfig::default()
        },
    );
    svc.start();

    // Offered load is a multiple of the *full fleet's* nominal bandwidth
    // (MAX_SHARDS cores), so every point of the sweep sees identical
    // traffic and the small-shard points are genuinely overloaded.
    let mean_len = (LEN_MIN + LEN_MAX) as f64 / 2.0;
    let gap = (mean_len * tenants as f64 / (load * SAT_RATE * MAX_SHARDS as f64)) as u64;
    let plan = WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants,
        mean_gap: Nanos(gap.max(1)),
        len_min: LEN_MIN,
        len_max: LEN_MAX,
        horizon,
        ..Default::default()
    });

    let mut handles = Vec::new();
    for t in 0..tenants {
        let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
        let lib = CopierHandle::new(&svc, Rc::clone(&space));
        let pool: Vec<(VirtAddr, VirtAddr)> = (0..POOL)
            .map(|_| {
                (
                    space.mmap(LEN_MAX, Prot::RW, true).unwrap(),
                    space.mmap(LEN_MAX, Prot::RW, true).unwrap(),
                )
            })
            .collect();
        handles.push((lib, pool));
    }

    let done = Rc::new(Cell::new(0usize));
    for (t, (lib, pool)) in handles.iter().enumerate() {
        let lib = Rc::clone(lib);
        let pool = pool.clone();
        let arrivals = plan.tenant(t).to_vec();
        let core = machine.core(t);
        let h2 = h.clone();
        let done2 = Rc::clone(&done);
        sim.spawn("tenant", async move {
            for (i, a) in arrivals.iter().enumerate() {
                let now = h2.now();
                if a.at > now {
                    h2.sleep(a.at - now).await;
                }
                let (src, dst) = pool[i % POOL];
                // Open loop with typed rejection: no credit / shed ⇒ the
                // submission is simply lost, arrivals never slow down.
                let _ = lib
                    .try_amemcpy(&core, dst, src, a.len, AmemcpyOpts::default())
                    .await;
            }
            done2.set(done2.get() + 1);
        });
    }

    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    let done2 = Rc::clone(&done);
    let end = Rc::new(Cell::new(Nanos::ZERO));
    let end2 = Rc::clone(&end);
    let ntenants = tenants;
    sim.spawn("driver", async move {
        while done2.get() < ntenants {
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
    sim.run();

    let per_tenant: Vec<u64> = handles
        .iter()
        .map(|(lib, _)| lib.client.copied_total.get())
        .collect();
    let served: u64 = per_tenant.iter().sum();
    Out {
        offered: plan.offered_rate(),
        goodput: served as f64 / end.get().as_nanos() as f64,
        per_tenant,
        per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
        stats: svc.stats(),
        atc_hit_frac: svc.atcache().stats().hit_frac(),
        barrier_wait_frac: svc.control_obs().barrier_wait_ns as f64
            / (shards as u64 * end.get().as_nanos()) as f64,
        pinned: pm.pinned_frames(),
        end: end.get(),
    }
}

fn main() {
    let smoke = std::env::var("SHARDSCALE_SMOKE").is_ok_and(|v| v == "1");
    let (tenants, horizon, load) = if smoke {
        (8, Nanos::from_micros(200), 2.0)
    } else {
        (32, Nanos::from_millis(1), 1.5)
    };
    let sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };

    section("fig_shardscale: open-loop tenants vs 1..8 control-plane shards");
    println!("  tenants={tenants} horizon={}us load={load:.1}x of {MAX_SHARDS} cores ({SAT_RATE:.0} B/ns each), DMA off",
        horizon.as_nanos() / 1000);
    let mut results: Vec<(usize, Out)> = Vec::new();
    for &s in sweep {
        let o = run(s, tenants, horizon, load, 42);
        assert_eq!(o.pinned, 0, "pins must drain");
        let busy = o.per_shard.iter().filter(|p| p.1 > 0).count();
        let tmin = *o.per_tenant.iter().min().unwrap();
        let tmax = *o.per_tenant.iter().max().unwrap().max(&1);
        row(&[
            ("shards", format!("{s}")),
            ("offered-GB/s", format!("{:.1}", o.offered)),
            ("goodput-GB/s", format!("{:.1}", o.goodput)),
            ("svc-rej", format!("{}", o.stats.admission_rejected)),
            ("atc-hit", format!("{:.3}", o.atc_hit_frac)),
            ("barrier-wait", format!("{:.3}", o.barrier_wait_frac)),
            ("tasks/round", format!("{:.2}", o.tasks_per_round())),
            ("busy-shards", format!("{busy}/{s}")),
            (
                "tenant-min/max",
                format!("{:.2}", tmin as f64 / tmax as f64),
            ),
            ("end-us", format!("{}", o.end.as_nanos() / 1000)),
        ]);
        results.push((s, o));
    }
    let wait4 = results
        .iter()
        .find(|(s, _)| *s == 4)
        .map(|(_, o)| o.barrier_wait_frac)
        .expect("the sweep has a 4-shard point");
    let monotone = results.windows(2).all(|w| w[1].1.end <= w[0].1.end);
    let g1 = results.first().map(|(_, o)| o.goodput).unwrap();
    let gn = results.last().map(|(_, o)| o.goodput).unwrap();
    let speedup = gn / g1;
    let top = *sweep.last().unwrap();
    println!("\n  goodput x{top} shards / x1 shard = {speedup:.2}x");

    section("determinism: same seed, same shard count, bit-identical outcome");
    let a = run(4.min(top), tenants, horizon, load, 42);
    let b = run(4.min(top), tenants, horizon, load, 42);
    let identical = a.per_tenant == b.per_tenant
        && a.end == b.end
        && a.atc_hit_frac == b.atc_hit_frac
        && stats_to_vec(&a.stats) == stats_to_vec(&b.stats)
        && a.per_shard == b.per_shard;
    row(&[
        ("shards", format!("{}", 4.min(top))),
        ("identical", format!("{identical}")),
        ("end-us", format!("{}", a.end.as_nanos() / 1000)),
    ]);
    assert!(identical, "sharded run must be seed-deterministic");

    let json = Json::obj([
        ("bench", Json::Str("fig_shardscale".into())),
        ("smoke", Json::Bool(smoke)),
        ("tenants", Json::Int(tenants as u64)),
        ("load", Json::Num(load)),
        (
            "sweep",
            Json::Arr(
                results
                    .iter()
                    .map(|(s, o)| {
                        Json::obj([
                            ("shards", Json::Int(*s as u64)),
                            ("offered_gbps", Json::Num(o.offered)),
                            ("goodput_gbps", Json::Num(o.goodput)),
                            ("rejected", Json::Int(o.stats.admission_rejected)),
                            ("atc_hit_frac", Json::Num(o.atc_hit_frac)),
                            ("barrier_wait_frac", Json::Num(o.barrier_wait_frac)),
                            ("tasks_per_active_round", Json::Num(o.tasks_per_round())),
                            ("end_ns", Json::Int(o.end.as_nanos())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::Arr(vec![
                // The tentpole bar: ≥ 5.5× goodput at the top of the sweep.
                Json::summary(&format!("goodput_x{top}"), "speedup_min", 5.5, speedup),
                // Share of four service cores parked at the round barrier.
                // Under the global watermark it read 0.312: shards the
                // budget left with nothing admitted waited for the one
                // that held it. With a share each, every shard has a full
                // slice every generation and the wait is what differs
                // between four full rounds, 0.060.
                Json::summary("barrier_wait_frac_4", "frac_max", 0.10, wait4),
                // More shards never end the run later.
                Json::summary(
                    "end_ns_monotone",
                    "monotone_min",
                    1.0,
                    if monotone { 1.0 } else { 0.0 },
                ),
                Json::summary(
                    "shard_determinism",
                    "identical_min",
                    1.0,
                    if identical { 1.0 } else { 0.0 },
                ),
            ]),
        ),
    ]);
    // Smoke runs also write the file (the verify.sh gate reads it); the
    // `smoke` flag keeps bench_summary.sh from gating their bars — the
    // committed JSON must come from a full run.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_shardscale.json");
    json.write_file(path).expect("write BENCH_shardscale.json");
    println!("\n  wrote {path}");
}
