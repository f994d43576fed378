//! fig_overload: open-loop multi-tenant overload — admission control,
//! credit backpressure, and memory-pressure graceful degradation.
//!
//! Extends §6.3's saturation study past the knee: four tenants submit on
//! an open loop (arrivals do not slow down when the service does) at a
//! configurable multiple of the single service core's copy bandwidth.
//! Desired shape: goodput holds near peak as offered load doubles past
//! saturation (no congestion collapse), excess work is rejected with
//! typed errors instead of queued without bound, and no tenant is starved
//! below its fair share. A second section pins the memory high-watermark
//! below the working set so every copy takes the degraded unpinned
//! synchronous path (§4.6 break-even fallback).

use std::cell::Cell;
use std::rc::Rc;

use copier_bench::{row, section};
use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{AdmissionConfig, Copier, CopierConfig, CopierStats};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier_sim::{Machine, Nanos, Sim, WorkloadConfig, WorkloadPlan};

const TENANTS: usize = 4;
const HORIZON: Nanos = Nanos::from_millis(2);
/// Uniform copy lengths in [16 KiB, 64 KiB] — mean 40 KiB.
const LEN_MIN: usize = 16 * 1024;
const LEN_MAX: usize = 64 * 1024;
/// Nominal single-core service copy bandwidth (AVX2 ≈ 10–11 B/ns); load
/// factors below are multiples of this.
const SAT_RATE: f64 = 10.0;
/// Distinct reusable buffer pairs per tenant.
const POOL: usize = 8;

/// Quotas tight enough that overload actually trips them at small scale:
/// 64 in-flight tasks / 4 MiB per tenant, 8 MiB global window.
fn tight_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_client_tasks: 64,
        max_client_bytes: 4 * 1024 * 1024,
        max_client_pinned: 4096,
        global_high_bytes: 8 * 1024 * 1024,
        global_low_bytes: 6 * 1024 * 1024,
    }
}

pub struct Out {
    /// Offered load, bytes/ns (all tenants).
    pub offered: f64,
    /// Delivered copy bytes/ns over the whole run (incl. drain tail).
    pub goodput: f64,
    /// Bytes actually served per tenant.
    pub per_tenant: Vec<u64>,
    /// Submissions rejected client-side (no credit / ring full).
    pub client_rejected: u64,
    /// End-of-run service stats.
    pub stats: CopierStats,
    /// Frames still pinned after the drain (must be 0).
    pub pinned: usize,
    /// Virtual end time.
    pub end: Nanos,
}

pub fn run(load: f64, seed: u64, pressured: bool) -> Out {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, TENANTS + 1);
    let pm = Rc::new(PhysMem::new(8192, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(TENANTS)],
        cost,
        CopierConfig {
            admission: tight_admission(),
            ..CopierConfig::default()
        },
    );
    svc.start();

    let mean_len = (LEN_MIN + LEN_MAX) as f64 / 2.0;
    let gap = (mean_len * TENANTS as f64 / (load * SAT_RATE)) as u64;
    let plan = WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants: TENANTS,
        mean_gap: Nanos(gap.max(1)),
        len_min: LEN_MIN,
        len_max: LEN_MAX,
        horizon: HORIZON,
        ..Default::default()
    });

    // Buffers are pre-populated so physical allocation is static during
    // the run (the pressure latch then depends only on the watermarks).
    let mut tenants = Vec::new();
    for t in 0..TENANTS {
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
        tenants.push((lib, pool));
    }
    if pressured {
        // High watermark at (below) the current working set: pressure
        // latches on the service's first check and never clears.
        let hi = pm.allocated().max(2);
        pm.set_watermarks(hi - 1, hi);
    }

    let client_rejected = Rc::new(Cell::new(0u64));
    let done = Rc::new(Cell::new(0usize));
    for (t, (lib, pool)) in tenants.iter().enumerate() {
        let lib = Rc::clone(lib);
        let pool = pool.clone();
        let arrivals = plan.tenant(t).to_vec();
        let core = machine.core(t);
        let h2 = h.clone();
        let rej = Rc::clone(&client_rejected);
        let done2 = Rc::clone(&done);
        sim.spawn("tenant", async move {
            for (i, a) in arrivals.iter().enumerate() {
                let now = h2.now();
                if a.at > now {
                    h2.sleep(a.at - now).await;
                }
                let (src, dst) = pool[i % POOL];
                if lib
                    .try_amemcpy(&core, dst, src, a.len, AmemcpyOpts::default())
                    .await
                    .is_err()
                {
                    rej.set(rej.get() + 1);
                }
            }
            done2.set(done2.get() + 1);
        });
    }

    // Driver: wait for every tenant, then drain the admitted window.
    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    let done2 = Rc::clone(&done);
    let end = Rc::new(Cell::new(Nanos::ZERO));
    let end2 = Rc::clone(&end);
    sim.spawn("driver", async move {
        while done2.get() < TENANTS {
            h2.sleep(Nanos::from_micros(20)).await;
        }
        let mut stable = 0;
        while stable < 3 {
            h2.sleep(Nanos::from_micros(10)).await;
            // Rings drain into the window every service round; three
            // consecutive empty polls mean both are empty.
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

    let per_tenant: Vec<u64> = tenants
        .iter()
        .map(|(lib, _)| lib.client.view().copied_total)
        .collect();
    let served: u64 = per_tenant.iter().sum();
    Out {
        offered: plan.offered_rate(),
        goodput: served as f64 / end.get().as_nanos() as f64,
        per_tenant,
        client_rejected: client_rejected.get(),
        stats: svc.stats(),
        pinned: pm.pinned_frames(),
        end: end.get(),
    }
}

fn main() {
    section("fig_overload: 4 open-loop tenants vs 1 service core (tight quotas)");
    println!("  load = multiple of nominal service bandwidth ({SAT_RATE:.0} B/ns)");
    for &load in &[0.5, 1.0, 2.0, 4.0, 8.0] {
        let o = run(load, 42, false);
        let min = *o.per_tenant.iter().min().unwrap();
        let max = *o.per_tenant.iter().max().unwrap();
        row(&[
            ("load", format!("{load:.1}x")),
            ("offered-GB/s", format!("{:.1}", o.offered)),
            ("goodput-GB/s", format!("{:.1}", o.goodput)),
            ("client-rej", format!("{}", o.client_rejected)),
            ("svc-rej", format!("{}", o.stats.admission_rejected)),
            (
                "shed-MiB",
                format!("{:.1}", o.stats.shed_bytes as f64 / (1 << 20) as f64),
            ),
            (
                "tenant-min/max",
                format!("{:.2}", min as f64 / max.max(1) as f64),
            ),
        ]);
    }

    section("graceful degradation: high watermark pinned below the working set");
    for &load in &[1.0, 2.0] {
        let o = run(load, 42, true);
        row(&[
            ("load", format!("{load:.1}x")),
            ("goodput-GB/s", format!("{:.1}", o.goodput)),
            ("degraded", format!("{}", o.stats.degraded_sync_copies)),
            ("pressure-events", format!("{}", o.stats.pressure_events)),
            ("pinned-now", format!("{}", o.pinned)),
        ]);
    }
}
