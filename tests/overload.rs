//! Overload robustness: admission control, credit backpressure, and
//! memory-pressure graceful degradation (DESIGN.md §Overload model).
//!
//! Acceptance properties:
//!
//! 1. open-loop overload at 2× saturation keeps goodput ≥ 80% of peak —
//!    no congestion collapse — and no tenant falls below half its fair
//!    share (priority-aware shedding + copy-length CFS);
//! 2. the same seed reproduces byte-identical outcomes;
//! 3. a too-tight global watermark sheds with typed `Overloaded` faults
//!    while the least-served tenant is exempted from shedding — at 4
//!    shards too, where each shard sheds against a quarter of it;
//! 4. under memory pressure the service degrades to the unpinned
//!    synchronous path with correct bytes, and recovers automatically
//!    once pressure clears;
//! 5. `reap_client` returns every quota: credits, in-flight counters,
//!    pinned frames, and the global admitted window;
//! 6. every client submission terminates — success, bounded-backoff
//!    retry, or typed error — even against a service that never runs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{
    AdmissionConfig, Copier, CopierConfig, CopierStats, QueueEntry, Ring, SegDescriptor, SyncTask,
    DEFAULT_SEGMENT,
};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::sim::{Core, Machine, Nanos, Sim, SimHandle, WorkloadConfig, WorkloadPlan};
use copier_testkit::prop::{check_with, Config};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

const TENANTS: usize = 4;
const HORIZON: Nanos = Nanos::from_millis(2);
const LEN_MIN: usize = 16 * 1024;
const LEN_MAX: usize = 64 * 1024;
/// Nominal single-core service copy bandwidth, bytes/ns.
const SAT_RATE: f64 = 10.0;
const POOL: usize = 8;

fn tight_admission() -> AdmissionConfig {
    AdmissionConfig {
        max_client_tasks: 64,
        max_client_bytes: 4 * 1024 * 1024,
        max_client_pinned: 4096,
        global_high_bytes: 8 * 1024 * 1024,
        global_low_bytes: 6 * 1024 * 1024,
    }
}

struct Out {
    goodput: f64,
    per_tenant: Vec<u64>,
    client_rejected: u64,
    stats: CopierStats,
    end: Nanos,
    /// Highest `admitted_bytes()` read, sampled every 500 ns from a
    /// quarter of the horizon on (until its first turn every tenant is
    /// least-served, hence shed-exempt, and what that start admitted has
    /// to drain first).
    peak_admitted: u64,
}

/// Open-loop multi-tenant run at `load` × nominal saturation. Mirrors the
/// `fig_overload` bench harness.
fn run(load: f64, seed: u64, admission: AdmissionConfig, pressured: bool) -> Out {
    run_on(1, TENANTS, false, load, seed, admission, pressured)
}

/// [`run`] with `tenants` tenants on `shards` shards (one core each),
/// `load` × what all the service cores copy. `idle` registers a tenant on
/// every shard that never submits: at vruntime 0 it is the least-served
/// one, so no tenant that has been served is shed-exempt.
fn run_on(
    shards: usize,
    tenants: usize,
    idle: bool,
    load: f64,
    seed: u64,
    admission: AdmissionConfig,
    pressured: bool,
) -> Out {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, tenants + shards);
    let pm = Rc::new(PhysMem::new(2048 * tenants, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..shards).map(|i| machine.core(tenants + i)).collect(),
        cost,
        CopierConfig {
            admission,
            shards,
            // The one DMA channel would be shared: shards copy on their
            // own cores, as in `fig_shardscale`.
            use_dma: shards == 1,
            ..CopierConfig::default()
        },
    );
    svc.start();

    let mean_len = (LEN_MIN + LEN_MAX) as f64 / 2.0;
    let gap = (mean_len * tenants as f64 / (load * SAT_RATE * shards as f64)) as u64;
    let plan = WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants,
        mean_gap: Nanos(gap.max(1)),
        len_min: LEN_MIN,
        len_max: LEN_MAX,
        horizon: HORIZON,
        ..Default::default()
    });

    // Space ids past the tenants', the first that hashes to each shard.
    let mut idlers: Vec<Option<Rc<CopierHandle>>> = vec![None; if idle { shards } else { 0 }];
    let mut id = tenants as u32;
    while idlers.iter().any(Option::is_none) {
        id += 1;
        let slot = &mut idlers[svc.shard_of_space(id)];
        if slot.is_none() {
            *slot = Some(CopierHandle::new(
                &svc,
                AddressSpace::new(id, Rc::clone(&pm)),
            ));
        }
    }
    let mut libs = Vec::new();
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
        libs.push((lib, pool));
    }
    if pressured {
        let hi = pm.allocated().max(2);
        pm.set_watermarks(hi - 1, hi);
    }

    let client_rejected = Rc::new(Cell::new(0u64));
    let done = Rc::new(Cell::new(0usize));
    for (t, (lib, pool)) in libs.iter().enumerate() {
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

    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    let done2 = Rc::clone(&done);
    let end = Rc::new(Cell::new(Nanos::ZERO));
    let end2 = Rc::clone(&end);
    let peak = Rc::new(Cell::new(0u64));
    {
        let (svc, h, peak, end) = (
            Rc::clone(&svc),
            h.clone(),
            Rc::clone(&peak),
            Rc::clone(&end),
        );
        sim.spawn("sampler", async move {
            h.sleep(Nanos(HORIZON.as_nanos() / 4)).await;
            while end.get() == Nanos::ZERO {
                peak.set(peak.get().max(svc.admitted_bytes()));
                h.sleep(Nanos(500)).await;
            }
        });
    }
    sim.spawn("driver", async move {
        while done2.get() < tenants {
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

    assert_no_pinned_leaks(&pm);
    let per_tenant: Vec<u64> = libs
        .iter()
        .map(|(lib, _)| lib.client.view().copied_total)
        .collect();
    let served: u64 = per_tenant.iter().sum();
    Out {
        goodput: served as f64 / end.get().as_nanos() as f64,
        per_tenant,
        client_rejected: client_rejected.get(),
        stats: svc.stats(),
        end: end.get(),
        peak_admitted: peak.get(),
    }
}

fn stats_key(s: &CopierStats) -> Vec<u64> {
    vec![
        s.tasks_completed,
        s.bytes_copied,
        s.bytes_absorbed,
        s.syncs,
        s.aborts,
        s.faults,
        s.admission_rejected,
        s.shed_bytes,
        s.credits_granted,
        s.degraded_sync_copies,
        s.pressure_events,
    ]
}

/// Acceptance 1: 2× saturation keeps goodput ≥ 80% of peak, and no
/// tenant falls below half its fair share.
#[test]
fn overload_2x_keeps_goodput_and_fairness() {
    let runs: Vec<Out> = [1.0, 2.0, 4.0]
        .iter()
        .map(|&l| run(l, 42, tight_admission(), false))
        .collect();
    let peak = runs.iter().map(|o| o.goodput).fold(0.0, f64::max);
    let at2 = &runs[1];
    assert!(
        at2.goodput >= 0.8 * peak,
        "goodput collapsed past saturation: {:.2} vs peak {:.2} B/ns",
        at2.goodput,
        peak
    );
    // Overload must actually be overload: the client library refused
    // submissions rather than queueing without bound.
    assert!(at2.client_rejected > 0, "2x load never hit backpressure");
    let fair = at2.per_tenant.iter().sum::<u64>() / TENANTS as u64;
    for (t, &served) in at2.per_tenant.iter().enumerate() {
        assert!(
            served >= fair / 2,
            "tenant {t} starved: {served} served, fair share {fair}"
        );
    }
}

/// Acceptance 2: the same seed reproduces the identical outcome.
#[test]
fn overload_same_seed_identical_outcome() {
    let a = run(2.0, 7, tight_admission(), false);
    let b = run(2.0, 7, tight_admission(), false);
    assert_eq!(a.per_tenant, b.per_tenant);
    assert_eq!(a.client_rejected, b.client_rejected);
    assert_eq!(stats_key(&a.stats), stats_key(&b.stats));
    assert_eq!(a.end, b.end);
}

/// Acceptance 3: a too-tight global watermark sheds admitted work with
/// typed `Overloaded` faults, but never starves a tenant (the
/// least-served client is exempt from shedding).
#[test]
fn global_watermark_sheds_without_starvation() {
    let admission = AdmissionConfig {
        max_client_tasks: 256,
        max_client_bytes: 64 * 1024 * 1024,
        max_client_pinned: 4096,
        global_high_bytes: 2 * 1024 * 1024,
        global_low_bytes: 1024 * 1024,
    };
    let o = run(6.0, 13, admission, false);
    assert!(
        o.stats.admission_rejected > 0,
        "global watermark never shed: {:?}",
        stats_key(&o.stats)
    );
    assert!(o.stats.shed_bytes > 0);
    assert!(o.goodput > 0.5 * SAT_RATE, "shedding collapsed goodput");
    let fair = o.per_tenant.iter().sum::<u64>() / TENANTS as u64;
    for (t, &served) in o.per_tenant.iter().enumerate() {
        assert!(
            served >= fair / 2,
            "tenant {t} starved under shedding: {served} vs fair {fair}"
        );
    }
}

/// Acceptance 3 at 4 shards: each shard sheds against a quarter of the
/// watermark, so the sum never exceeds it by more than the task that
/// crossed it on each shard — exactly so with the exemption held by idle
/// tenants (it admits past any watermark by design, up to the exempt
/// tenant's own quota) — and with it live shedding still rotates: every
/// tenant is served.
#[test]
fn sharded_watermark_bounds_the_sum_and_rotates() {
    const SHARDS: usize = 4;
    let admission = AdmissionConfig {
        max_client_tasks: 256,
        max_client_bytes: 64 * 1024 * 1024,
        max_client_pinned: 4096,
        global_high_bytes: 4 * 1024 * 1024,
        global_low_bytes: 3 * 1024 * 1024,
    };
    for idle in [true, false] {
        let o = run_on(SHARDS, 16, idle, 3.0, 13, admission.clone(), false);
        assert!(o.stats.admission_rejected > 0, "the watermark never shed");
        assert!(
            !idle || o.peak_admitted <= admission.global_high_bytes + (SHARDS * LEN_MAX) as u64,
            "{} B admitted at once",
            o.peak_admitted
        );
        assert!(
            o.goodput > 0.5 * SAT_RATE * SHARDS as f64,
            "shedding collapsed goodput: {:.2} B/ns",
            o.goodput
        );
        for (t, &served) in o.per_tenant.iter().enumerate() {
            assert!(served > 0, "tenant {t} was never served (idle {idle})");
        }
    }
}

/// Acceptance 4a: under memory pressure every copy takes the degraded
/// unpinned synchronous path — and the bytes are still correct.
#[test]
fn degraded_sync_copy_is_correct_under_pressure() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let len = 128 * 1024;
    let src = space.mmap(len, Prot::RW, true).unwrap();
    let dst = space.mmap(len, Prot::RW, true).unwrap();
    let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
    space.write_bytes(src, &data).unwrap();
    // Latch pressure before any copy runs.
    let hi = pm.allocated().max(2);
    pm.set_watermarks(hi - 1, hi);

    let svc2 = Rc::clone(&svc);
    let space2 = Rc::clone(&space);
    sim.spawn("app", async move {
        lib.amemcpy(&core, dst, src, len).await.unwrap();
        lib.csync(&core, dst, len).await.unwrap();
        let mut out = vec![0u8; len];
        space2.read_bytes(dst, &mut out).unwrap();
        assert_eq!(out, data, "degraded copy corrupted bytes");
        svc2.stop();
    });
    sim.run();
    let st = svc.stats();
    assert!(st.degraded_sync_copies >= 1, "{st:?}");
    assert!(st.pressure_events >= 1, "{st:?}");
    assert_no_pinned_leaks(&pm);
}

/// Acceptance 4b: once allocation falls back under the low watermark the
/// service leaves degraded mode on its own.
#[test]
fn pressure_recovery_reenables_async_path() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let len = 64 * 1024;
    let src = space.mmap(len, Prot::RW, true).unwrap();
    let dst = space.mmap(len, Prot::RW, true).unwrap();
    let hi = pm.allocated().max(2);
    pm.set_watermarks(hi - 1, hi); // pressured now

    let svc2 = Rc::clone(&svc);
    let pm2 = Rc::clone(&pm);
    sim.spawn("app", async move {
        lib.amemcpy(&core, dst, src, len).await.unwrap();
        lib.csync(&core, dst, len).await.unwrap();
        let degraded_before = svc2.stats().degraded_sync_copies;
        assert!(degraded_before >= 1, "pressure did not degrade");
        // Relieve pressure: allocation is now at/below the low watermark.
        let cap = pm2.capacity();
        pm2.set_watermarks(pm2.allocated(), cap);
        lib.amemcpy(&core, dst, src, len).await.unwrap();
        lib.csync(&core, dst, len).await.unwrap();
        assert_eq!(
            svc2.stats().degraded_sync_copies,
            degraded_before,
            "service failed to leave degraded mode after recovery"
        );
        svc2.stop();
    });
    sim.run();
    assert!(!pm.pressure(), "pressure latch stuck");
    assert_no_pinned_leaks(&pm);
}

/// Acceptance 4c: the degraded unpinned path is byte-correct through the
/// arena even for misaligned, non-page-multiple copies over scattered
/// frames — the case where run coalescing degenerates to many small
/// extent pairs.
#[test]
fn degraded_copy_handles_misaligned_buffers_in_arena() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let len = 96 * 1024 + 777; // not a page multiple
    let src = space.mmap(len + 8192, Prot::RW, true).unwrap().add(1234);
    let dst = space.mmap(len + 8192, Prot::RW, true).unwrap().add(3333);
    let data: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
    space.write_bytes(src, &data).unwrap();
    let hi = pm.allocated().max(2);
    pm.set_watermarks(hi - 1, hi); // pressured before the first copy

    let svc2 = Rc::clone(&svc);
    let space2 = Rc::clone(&space);
    sim.spawn("app", async move {
        lib.amemcpy(&core, dst, src, len).await.unwrap();
        lib.csync(&core, dst, len).await.unwrap();
        let mut out = vec![0u8; len];
        space2.read_bytes(dst, &mut out).unwrap();
        assert_eq!(out, data, "misaligned degraded copy corrupted bytes");
        svc2.stop();
    });
    sim.run();
    assert!(svc.stats().degraded_sync_copies >= 1);
    assert_no_pinned_leaks(&pm);
}

/// Acceptance 4d: a full multi-tenant overload run *under pressure* still
/// terminates with the degraded path engaged, and is deterministic.
#[test]
fn pressured_overload_degrades_deterministically() {
    let a = run(2.0, 9, tight_admission(), true);
    let b = run(2.0, 9, tight_admission(), true);
    assert!(
        a.stats.pressure_events >= 1,
        "pressured run never latched pressure: {:?}",
        stats_key(&a.stats)
    );
    assert!(
        a.stats.degraded_sync_copies >= 1,
        "pressured run never took the degraded path: {:?}",
        stats_key(&a.stats)
    );
    assert!(a.goodput > 0.0, "pressured overload made no progress");
    assert_eq!(a.per_tenant, b.per_tenant);
    assert_eq!(stats_key(&a.stats), stats_key(&b.stats));
    assert_eq!(a.end, b.end);
}

/// Satellite: after reaping the client and dropping its address space,
/// every arena frame is back in the free pool — the refcount plumbing of
/// the arena (alloc, CoW decref, pin/unpin, reap) balances exactly.
#[test]
fn teardown_after_reap_frees_every_arena_frame() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let len = 64 * 1024;

    let svc2 = Rc::clone(&svc);
    let lib2 = Rc::clone(&lib);
    let space2 = Rc::clone(&space);
    let h2 = h.clone();
    sim.spawn("client", async move {
        let src = space2.mmap(len, Prot::RW, true).unwrap();
        let dst = space2.mmap(len, Prot::RW, true).unwrap();
        space2.write_bytes(src, &vec![7u8; len]).unwrap();
        for _ in 0..4 {
            let _ = lib2.amemcpy(&core, dst, src, len).await;
        }
        // Kill the client mid-stream, then let the sweep settle.
        svc2.reap_client(&lib2.client);
        h2.sleep(Nanos::from_micros(500)).await;
        svc2.stop();
    });
    sim.run();

    assert!(lib.client.view().dead);
    assert_no_pinned_leaks(&pm);
    drop(lib);
    drop(space);
    assert_eq!(
        pm.allocated(),
        0,
        "arena frames leaked after space teardown"
    );
}

/// One randomized reap scenario: copies in flight, client dies at a
/// seeded instant.
#[derive(Debug, Clone)]
struct ReapCase {
    ncopies: usize,
    len: usize,
    kill_at: u64,
}

/// Satellite property: `reap_client` returns every quota — credits back
/// to the cap, in-flight counters to zero, pinned frames released, and
/// the client's share of the global admitted window returned.
#[test]
fn reap_returns_all_quota_credits_and_pins() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 16;
    }
    check_with(
        &cfg,
        |rng: &mut TestRng| ReapCase {
            ncopies: rng.range_usize(2, 8),
            len: rng.range_usize(1, 5) * 64 * 1024,
            kill_at: 1_000 + rng.next_u64() % 120_000,
        },
        |_| Vec::new(),
        |case: &ReapCase| {
            let mut sim = Sim::new();
            let h = sim.handle();
            let machine = Machine::new(&h, 2);
            let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
            let svc = Copier::new(
                &h,
                Rc::clone(&pm),
                vec![machine.core(1)],
                Rc::new(CostModel::default()),
                CopierConfig::default(),
            );
            svc.start();
            let space = AddressSpace::new(1, Rc::clone(&pm));
            let lib = CopierHandle::new(&svc, Rc::clone(&space));
            let core = machine.core(0);

            let svc2 = Rc::clone(&svc);
            let lib2 = Rc::clone(&lib);
            let h2 = h.clone();
            let kill_at = Nanos(case.kill_at);
            sim.spawn("killer", async move {
                h2.sleep(kill_at).await;
                svc2.reap_client(&lib2.client);
            });

            let svc3 = Rc::clone(&svc);
            let lib3 = Rc::clone(&lib);
            let space2 = Rc::clone(&space);
            let (ncopies, len) = (case.ncopies, case.len);
            let h3 = h.clone();
            sim.spawn("client", async move {
                for _ in 0..ncopies {
                    let src = space2.mmap(len, Prot::RW, true).unwrap();
                    let dst = space2.mmap(len, Prot::RW, true).unwrap();
                    // Rejections after death are expected; the property is
                    // about what reaping returns, not what it admits.
                    let _ = lib3.amemcpy(&core, dst, src, len).await;
                }
                let _ = lib3.csync_all(&core).await;
                // Let the sweep and any in-flight work settle.
                h3.sleep(Nanos::from_micros(500)).await;
                svc3.stop();
            });
            sim.run();

            let c = &lib.client;
            prop_assert!(c.view().dead, "client must be dead after reap");
            prop_assert_eq!(
                c.credits.get(),
                c.view().credit_cap,
                "credits not fully returned"
            );
            prop_assert_eq!(c.view().inflight_tasks, 0, "in-flight task quota leaked");
            prop_assert_eq!(c.view().inflight_bytes, 0, "in-flight byte quota leaked");
            prop_assert_eq!(c.view().pinned, 0, "pinned-frame quota leaked");
            prop_assert_eq!(
                svc.admitted_bytes(),
                0,
                "global admitted window not returned"
            );
            prop_assert_eq!(pm.pinned_frames(), 0, "physical pins leaked");
            Ok(())
        },
    );
}

/// Satellite: reaping a client *while the service is pressure-degraded*
/// reconciles exactly like a reap on the async path. Degraded-sync
/// completions take no pins and return credits inline; the reap sweep
/// must balance against that accounting, not double-return anything —
/// credits end at the cap (not above), quotas at zero, no pins leaked.
#[test]
fn reap_during_pressure_degraded_mode_reconciles() {
    for seed in [3u64, 17, 29] {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
        let svc = Copier::new(
            &h,
            Rc::clone(&pm),
            vec![machine.core(1)],
            Rc::new(CostModel::default()),
            CopierConfig::default(),
        );
        svc.start();
        let space = AddressSpace::new(1, Rc::clone(&pm));
        let lib = CopierHandle::new(&svc, Rc::clone(&space));
        let core = machine.core(0);
        let len = 64 * 1024;
        let src = space.mmap(len, Prot::RW, true).unwrap();
        let dst = space.mmap(len, Prot::RW, true).unwrap();
        space.write_bytes(src, &vec![5u8; len]).unwrap();
        // Latch pressure before the first copy: every admitted task runs
        // on the degraded unpinned synchronous path.
        let hi = pm.allocated().max(2);
        pm.set_watermarks(hi - 1, hi);

        // The kill lands at a seeded instant inside the busy window, so
        // across seeds the reap interleaves differently with degraded
        // completions.
        let svc2 = Rc::clone(&svc);
        let lib2 = Rc::clone(&lib);
        let h2 = h.clone();
        let kill_at = Nanos(2_000 + seed * 13_777);
        sim.spawn("killer", async move {
            h2.sleep(kill_at).await;
            svc2.reap_client(&lib2.client);
        });

        let svc3 = Rc::clone(&svc);
        let lib3 = Rc::clone(&lib);
        let h3 = h.clone();
        sim.spawn("client", async move {
            for _ in 0..6 {
                // Post-reap rejections are expected; the property is the
                // accounting, not the admissions.
                let _ = lib3.amemcpy(&core, dst, src, len).await;
            }
            let _ = lib3.csync_all(&core).await;
            h3.sleep(Nanos::from_micros(500)).await;
            svc3.stop();
        });
        sim.run();

        let st = svc.stats();
        assert!(
            st.pressure_events >= 1,
            "seed {seed}: pressure never latched: {st:?}"
        );
        let c = &lib.client;
        assert!(c.view().dead, "seed {seed}: client must be dead after reap");
        assert_eq!(
            c.credits.get(),
            c.view().credit_cap,
            "seed {seed}: credits must end exactly at the cap"
        );
        assert_eq!(c.view().inflight_tasks, 0, "seed {seed}: task quota leaked");
        assert_eq!(c.view().inflight_bytes, 0, "seed {seed}: byte quota leaked");
        assert_eq!(c.view().pinned, 0, "seed {seed}: pinned quota leaked");
        assert_eq!(
            svc.admitted_bytes(),
            0,
            "seed {seed}: global admitted window not returned"
        );
        assert_no_pinned_leaks(&pm);
        c.index_consistent()
            .unwrap_or_else(|m| panic!("seed {seed}: index diverged: {m}"));
    }
}

/// One client backoff step (`CopierHandle::backoff`): a 200 ns spin for the
/// first four, then a sleep doubling from 200 ns, capped at 200 µs.
fn backoff_ns(attempt: u32) -> u64 {
    if attempt < 4 {
        200
    } else {
        (200u64 << (attempt - 4).min(10)).min(200_000)
    }
}

/// What `budget` backoffs cost: the sum of `backoff(0..budget)`.
fn backoffs(budget: u32) -> Nanos {
    Nanos((0..budget).map(backoff_ns).sum())
}

/// A way into a ring, driven into its exhausted case.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `amemcpy` with no credit left.
    AmemcpyNoCredit,
    /// `amemcpy` holding a credit, the u-ring full.
    AmemcpyRingFull,
    /// `try_amemcpy` with no credit left.
    TryNoCredit,
    /// `try_amemcpy` holding a credit, the u-ring full.
    TryRingFull,
    /// `abort`, the sync ring full.
    Abort,
    /// `abort_task`, the sync ring full.
    AbortTask,
    /// `_csync` of an unready copy, the sync ring full; the copy lands
    /// while the promotion push backs off.
    Promotion,
    /// A kernel copy, the k-ring full: the trap-entry barrier finds no slot.
    KernelBarrier,
    /// A kernel copy, one k-ring slot free: the trap-entry barrier takes
    /// it, the copy and the return-to-user barrier find none.
    KernelCopy,
}

const ENTRIES: [Entry; 9] = [
    Entry::AmemcpyNoCredit,
    Entry::AmemcpyRingFull,
    Entry::TryNoCredit,
    Entry::TryRingFull,
    Entry::Abort,
    Entry::AbortTask,
    Entry::Promotion,
    Entry::KernelBarrier,
    Entry::KernelCopy,
];

fn fill<T>(ring: &Ring<T>, entry: impl Fn() -> T) {
    while ring.push(entry()).is_ok() {}
}

/// Drives `entry` into its exhausted case on a flooded client whose
/// service never runs (the u-ring is full). Returns the outcome — with the
/// credits left where a credit was at stake — and the virtual time spent,
/// each beside what the retry budgets say they must be.
async fn exhaust(
    entry: Entry,
    lib: &Rc<CopierHandle>,
    core: &Rc<Core>,
    h: &SimHandle,
    (dst, src, len): (VirtAddr, VirtAddr, usize),
) -> ((String, &'static str), (Nanos, Nanos)) {
    use Entry::*;
    let cost = Rc::clone(lib.service().cost_model());
    let set = lib.client.set(0);
    let sync = || SyncTask {
        space_id: 0,
        addr: VirtAddr(0),
        len: 0,
        abort: false,
        target: None,
    };
    fill(&set.uq.sync, sync);
    fill(&set.kq.copy, || QueueEntry::Barrier { peer_pos: 0 });
    if let KernelCopy = entry {
        set.kq.copy.pop();
    }
    let credit = matches!(entry, AmemcpyRingFull | TryRingFull | KernelCopy);
    lib.client.credits.set(u64::from(credit));
    let credits = || lib.client.credits.get();
    let descr = Rc::new(SegDescriptor::new(len, DEFAULT_SEGMENT));
    let t0 = h.now();
    let (got, want, ns) = match entry {
        AmemcpyNoCredit | AmemcpyRingFull => {
            let r = lib.amemcpy(core, dst, src, len).await;
            let got = format!("{:?} credits {}", r.err(), credits());
            let submit = if credit {
                cost.task_submit
            } else {
                Nanos::ZERO
            };
            let want = ["Some(Overloaded) credits 0", "Some(Overloaded) credits 1"];
            (got, want[credit as usize], submit + backoffs(32))
        }
        TryNoCredit | TryRingFull => {
            let r = lib
                .try_amemcpy(core, dst, src, len, AmemcpyOpts::default())
                .await;
            let got = format!("{:?} credits {}", r.err(), credits());
            let submit = if credit {
                cost.task_submit
            } else {
                Nanos::ZERO
            };
            let want = ["Some(WouldBlock) credits 0", "Some(WouldBlock) credits 1"];
            (got, want[credit as usize], submit)
        }
        Abort => {
            let placed = lib.abort(core, dst, len).await;
            (placed.to_string(), "false", cost.task_submit + backoffs(8))
        }
        AbortTask => {
            let placed = lib.abort_task(core, &descr, 0).await;
            (placed.to_string(), "false", cost.task_submit + backoffs(8))
        }
        Promotion => {
            let (h2, d2) = (h.clone(), Rc::clone(&descr));
            let during_first_backoff = t0 + cost.csync_hit + cost.task_submit + Nanos(1);
            h.spawn("lander", async move {
                h2.sleep_until(during_first_backoff).await;
                d2.mark_range(0, d2.num_segments() - 1);
            });
            let r = lib
                ._csync(core, &descr, 0, len, lib.uspace.id(), dst, 0)
                .await;
            let ns = cost.csync_hit + cost.task_submit + backoffs(3);
            (format!("{r:?}"), "Ok(())", ns)
        }
        KernelBarrier | KernelCopy => {
            let r = lib
                .kernel_amemcpy(core, dst, src, len, AmemcpyOpts::default())
                .await;
            let got = format!("{:?} credits {}", r.err(), credits());
            // The barrier's budget ends in a backoff: 32 attempts, 32 backoffs.
            let ns = if credit {
                cost.task_submit + backoffs(32) + backoffs(32)
            } else {
                backoffs(32)
            };
            let want = ["Some(Overloaded) credits 0", "Some(Overloaded) credits 1"];
            (got, want[credit as usize], ns)
        }
    };
    ((got, want), (h.now() - t0, ns))
}

/// Satellite property: every submission terminates in bounded time with
/// success or a typed error — even against a service that never runs a
/// single round (the pathological worst case for spin-retry). Then every
/// way into a ring, in a generated order, is driven into its exhausted
/// case, and what it returns and how long it took are exactly what its
/// retry budget says: `task_submit` (where it is charged before the push)
/// plus `backoff(0..budget)`.
#[test]
fn submissions_always_terminate_with_typed_outcome() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 12;
    }
    check_with(
        &cfg,
        |rng: &mut TestRng| {
            let mut order = ENTRIES.to_vec();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range_usize(0, i + 1));
            }
            (
                rng.range_usize(1200, 2500),
                rng.range_usize(1, 9) * 1024,
                order,
            )
        },
        |_| Vec::new(),
        |(n, len, order): &(usize, usize, Vec<Entry>)| {
            let (n, len) = (*n, *len);
            let mut sim = Sim::new();
            let h = sim.handle();
            let machine = Machine::new(&h, 2);
            let pm = Rc::new(PhysMem::new(8192, AllocPolicy::Scattered));
            let svc = Copier::new(
                &h,
                Rc::clone(&pm),
                vec![machine.core(1)],
                Rc::new(CostModel::default()),
                CopierConfig::default(),
            );
            // Deliberately never started: credits are never regranted and
            // the ring is never drained.
            let space = AddressSpace::new(1, Rc::clone(&pm));
            let lib = CopierHandle::new(&svc, Rc::clone(&space));
            let core = machine.core(0);
            let ok = Rc::new(Cell::new(0usize));
            let err = Rc::new(Cell::new(0usize));
            let (ok2, err2) = (Rc::clone(&ok), Rc::clone(&err));
            let seen = Rc::new(RefCell::new(Vec::new()));
            let (seen2, order) = (Rc::clone(&seen), order.clone());
            sim.spawn("flood", async move {
                let src = space.mmap(len, Prot::RW, true).unwrap();
                let dst = space.mmap(len, Prot::RW, true).unwrap();
                for _ in 0..n {
                    match lib.amemcpy(&core, dst, src, len).await {
                        Ok(_) => ok2.set(ok2.get() + 1),
                        Err(_) => err2.set(err2.get() + 1),
                    }
                }
                for entry in order {
                    let r = exhaust(entry, &lib, &core, &h, (dst, src, len)).await;
                    seen2.borrow_mut().push((entry, r));
                }
            });
            // The sim terminating at all proves every submission returned
            // (an unbounded spin would loop on virtual time forever).
            sim.run();
            prop_assert_eq!(seen.borrow().len(), ENTRIES.len());
            for (entry, ((got, want), (ns, want_ns))) in seen.borrow().iter() {
                prop_assert_eq!(got.as_str(), *want, "{:?}", entry);
                prop_assert_eq!(ns, want_ns, "{:?}: {} ns", entry, ns.as_nanos());
            }
            prop_assert_eq!(ok.get() + err.get(), n, "a submission vanished");
            prop_assert!(
                err.get() > 0,
                "flooding a dead service must surface typed errors"
            );
            prop_assert!(
                ok.get() <= copier::core::DEFAULT_QUEUE_CAP,
                "more successes than the credit cap allows: {}",
                ok.get()
            );
            Ok(())
        },
    );
}
