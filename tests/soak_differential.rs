//! Differential properties for the O(active) control plane (DESIGN.md
//! §18): the active-set / incremental-aggregate fast path must be a pure
//! read-path optimisation. At a fixed `(seed, shards)` pair, a run with
//! `full_sweep: true` (every read recomputed by the legacy O(clients)
//! sweeps) and a run with the fast path must agree on *everything* —
//! per-copy outcomes, destination bytes, virtual end time, the full
//! stats vector, per-shard counters — bit for bit.
//!
//! Coverage tiers:
//!
//! 1. **Fault-free equivalence** at 1–4 shards (the 1-shard case is the
//!    single-service-core fast path; sharded cases add the commutative
//!    delta-folded trace hashes). Aggregate audits
//!    ([`copier::core::Copier::audit_aggregates`]) cross-check every
//!    incrementally maintained total against a from-scratch sweep.
//! 2. **Chaos equivalence**: injected DMA faults, stale ATC, and silent
//!    flips draw in dispatch order, which the fast path must not perturb.
//! 3. **Membership churn**: clients leaving mid-run (reap), arriving
//!    into a restarted incarnation (crash-recovery adoption), and idle
//!    clients re-activated by service-internal scrub heals.
//! 4. **Traced hashes**: a run recorded on the fast path replays through
//!    the full-sweep build with zero divergence — the per-round cached
//!    hash sums equal the full recompute, round by round.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{
    stats_to_vec, ControlObs, CopierConfig, CopyFault, JournalStore, PollMode, SegDescriptor,
    VerifyPolicy,
};
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{FaultConfig, FaultPlan, Machine, Nanos, Sim, Tracer};
use copier_testkit::prop::{check_with, Config, PropResult};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// One multi-tenant scenario, identical between the fast-path and
/// full-sweep runs it is compared across — only `full_sweep` varies.
#[derive(Debug, Clone)]
struct SoakCase {
    seed: u64,
    tenants: usize,
    ncopies: usize,
    len: usize,
    faults: Option<FaultConfig>,
}

fn gen_base(rng: &mut TestRng) -> SoakCase {
    SoakCase {
        seed: rng.next_u64(),
        tenants: rng.range_usize(2, 6),
        ncopies: rng.range_usize(2, 5),
        len: rng.range_usize(2, 12) * 4 * 1024 + rng.range_usize(0, 3) * 512,
        faults: None,
    }
}

fn gen_chaos(rng: &mut TestRng) -> SoakCase {
    let mut case = gen_base(rng);
    case.faults = Some(FaultConfig {
        seed: case.seed ^ 0x50AC,
        dma_transient_prob: rng.gen_f64() * 0.3,
        dma_hard_prob: if rng.gen_bool(0.3) {
            rng.gen_f64() * 0.1
        } else {
            0.0
        },
        dma_timeout_prob: if rng.gen_bool(0.3) {
            rng.gen_f64() * 0.15
        } else {
            0.0
        },
        atc_stale_prob: rng.gen_f64() * 0.4,
        dma_flip_prob: if rng.gen_bool(0.5) {
            rng.gen_f64() * 0.2
        } else {
            0.0
        },
        ..Default::default()
    });
    case
}

/// Deterministic per-(tenant, copy) source pattern.
fn pattern(tenant: usize, copy: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed
        ^ (tenant as u64).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (copy as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.push((x >> 33) as u8);
    }
    v
}

fn fnv(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// Everything that must be bit-identical between a fast-path run and its
/// full-sweep reference at the same `(seed, shards)`.
#[derive(Debug, PartialEq)]
struct Exact {
    /// Per (tenant, copy) in submission order: fault + destination digest.
    per_copy: Vec<(usize, usize, Option<CopyFault>, u64)>,
    end: u64,
    stats: Vec<u64>,
    per_shard: Vec<(u64, u64, u64)>,
    pinned: usize,
    /// `None` unless a copy completed faultless with wrong bytes.
    phantom: Option<String>,
}

fn soak_cfg(case: &SoakCase, shards: usize, full_sweep: bool) -> CopierConfig {
    let verify = case.faults.as_ref().is_some_and(|f| f.dma_flip_prob > 0.0);
    CopierConfig {
        shards,
        use_dma: case.faults.is_some(),
        dma_channels: 2,
        verify: if verify {
            VerifyPolicy::Full
        } else {
            VerifyPolicy::Off
        },
        polling: PollMode::Napi {
            spin_rounds: 64,
            park_timeout: Nanos(20_000),
        },
        full_sweep,
        ..Default::default()
    }
}

/// Runs one scenario and returns the exact observable state plus the
/// control-plane observability counters. An optional `kill_at` reaps
/// tenant 0 mid-run (membership-churn coverage). The aggregate audit
/// runs post-settle inside, so every property exercises it for free.
fn run_soak(
    case: &SoakCase,
    shards: usize,
    full_sweep: bool,
    kill_at: Option<Nanos>,
) -> (Exact, ControlObs) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, case.tenants + shards);
    let os = Os::boot(&h, machine, 8192);
    let plan = case.faults.clone().map(FaultPlan::new);
    let mut cfg = soak_cfg(case, shards, full_sweep);
    cfg.fault_plan = plan.clone();
    os.install_copier(
        (0..shards)
            .map(|i| os.machine.core(case.tenants + i))
            .collect(),
        cfg,
    );

    let done = Rc::new(Cell::new(0usize));
    let mut tenants = Vec::new();
    for t in 0..case.tenants {
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let mut bufs = Vec::new();
        for c in 0..case.ncopies {
            let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
            let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
            uspace
                .write_bytes(src, &pattern(t, c, case.seed, case.len))
                .unwrap();
            bufs.push((src, dst));
        }
        let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
        let lib2 = Rc::clone(&lib);
        let os2 = Rc::clone(&os);
        let d2 = Rc::clone(&descrs);
        let done2 = Rc::clone(&done);
        let core = os.machine.core(t);
        let bufs2 = bufs.clone();
        let len = case.len;
        let ntenants = case.tenants;
        sim.spawn("tenant", async move {
            for &(src, dst) in &bufs2 {
                // A reap can kill this tenant mid-loop; submissions then
                // fail and the tenant just stops submitting.
                match lib2.amemcpy(&core, dst, src, len).await {
                    Ok(d) => d2.borrow_mut().push(d),
                    Err(_) => break,
                }
            }
            if !lib2.client.dead.get() {
                let _ = lib2.csync_all(&core).await;
            }
            done2.set(done2.get() + 1);
            if done2.get() == ntenants {
                os2.copier().stop();
            }
        });
        tenants.push((lib, uspace, bufs, descrs));
    }

    // Reap tenant 0 mid-run: active-set exit, min-vruntime decrement,
    // pending drain through finalize — membership churn on a live shard.
    if let Some(t) = kill_at {
        let os2 = Rc::clone(&os);
        let victim = Rc::clone(&tenants[0].0);
        let h2 = h.clone();
        sim.spawn("killer", async move {
            h2.sleep(t).await;
            if !victim.client.dead.get() {
                os2.copier().reap_client(&victim.client);
            }
        });
    }

    let end = sim.run();
    let svc = os.copier();
    svc.audit_aggregates()
        .unwrap_or_else(|e| panic!("aggregate audit failed (seed {}): {e}", case.seed));

    let mut per_copy = Vec::new();
    let mut phantom = None;
    for (t, (lib, uspace, bufs, descrs)) in tenants.iter().enumerate() {
        for (c, d) in descrs.borrow().iter().enumerate() {
            let (_src, dst) = bufs[c];
            let mut got = vec![0u8; case.len];
            uspace.read_bytes(dst, &mut got).unwrap();
            if d.fault().is_none() && got != pattern(t, c, case.seed, case.len) {
                phantom.get_or_insert_with(|| {
                    format!(
                        "tenant {t} copy {c} clean but bytes differ (seed {})",
                        case.seed
                    )
                });
            }
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            fnv(&mut digest, &got);
            per_copy.push((t, c, d.fault(), digest));
        }
        if let Err(msg) = lib
            .client
            .sets
            .borrow()
            .iter()
            .try_for_each(|s| s.index_consistent())
        {
            panic!("pending index diverged (seed {}): {msg}", case.seed);
        }
    }
    assert_no_pinned_leaks(&os.pm);

    let s = svc.stats();
    (
        Exact {
            per_copy,
            end: end.as_nanos(),
            stats: stats_to_vec(&s),
            per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
            pinned: os.pm.pinned_frames(),
            phantom,
        },
        svc.control_obs(),
    )
}

fn cases(default: u32) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = default;
    }
    cfg
}

fn no_shrink(_: &SoakCase) -> Vec<SoakCase> {
    Vec::new()
}

/// Tier 1: at every shard count, a fault-free fast-path run is
/// bit-identical to its full-sweep reference. (128 cases × 4 shard counts
/// = 512 seeded schedule pairs.)
#[test]
fn fast_rounds_match_full_sweep_reference_at_every_shard_count() {
    check_with(
        &cases(128),
        gen_base,
        no_shrink,
        |case: &SoakCase| -> PropResult {
            for shards in [1usize, 2, 3, 4] {
                let (fast, fast_obs) = run_soak(case, shards, false, None);
                let (full, _) = run_soak(case, shards, true, None);
                prop_assert!(fast.phantom.is_none(), "{:?}", fast.phantom);
                prop_assert_eq!(&fast, &full, "fast path diverged at {} shards", shards);
                // The fast path must actually be on: submissions ring the
                // doorbell, settles drain the active set.
                prop_assert!(fast_obs.activations > 0, "no doorbell ever activated");
                prop_assert!(fast_obs.deactivations > 0, "no client ever settled out");
            }
            Ok(())
        },
    );
}

/// Tier 2: chaos draws follow dispatch order, which the fast path must
/// not perturb — fault placement, repair outcomes, and timing all equal
/// the full-sweep reference at a random shard count.
#[test]
fn chaos_fast_path_matches_full_sweep() {
    check_with(
        &cases(64),
        |rng: &mut TestRng| (gen_chaos(rng), rng.range_usize(1, 5)),
        |_| Vec::new(),
        |(case, shards): &(SoakCase, usize)| -> PropResult {
            let (fast, _) = run_soak(case, *shards, false, None);
            let (full, _) = run_soak(case, *shards, true, None);
            prop_assert!(fast.phantom.is_none(), "{:?}", fast.phantom);
            prop_assert_eq!(fast.pinned, 0, "pins leaked");
            prop_assert_eq!(
                &fast,
                &full,
                "chaos fast path diverged at {} shards",
                shards
            );
            Ok(())
        },
    );
}

/// Tier 3a: a tenant reaped mid-run (active-set exit, min-vruntime
/// decrement, pending drain through finalize) leaves the fast path
/// bit-identical to the reference.
#[test]
fn reap_midrun_matches_full_sweep() {
    check_with(
        &cases(48),
        |rng: &mut TestRng| {
            let case = gen_base(rng);
            let kill = Nanos(rng.range_usize(5_000, 200_000) as u64);
            let shards = rng.range_usize(1, 5);
            (case, shards, kill)
        },
        |_| Vec::new(),
        |(case, shards, kill): &(SoakCase, usize, Nanos)| -> PropResult {
            let (fast, _) = run_soak(case, *shards, false, Some(*kill));
            let (full, _) = run_soak(case, *shards, true, Some(*kill));
            prop_assert!(fast.phantom.is_none(), "{:?}", fast.phantom);
            prop_assert_eq!(&fast, &full, "reap schedule diverged at {} shards", shards);
            Ok(())
        },
    );
}

/// Tier 3b: crash/restart with journaled recovery — adopted clients
/// re-enter the new incarnation's active sets and aggregates, and the
/// whole multi-incarnation run stays bit-identical to the full-sweep
/// reference.
#[test]
fn crash_adoption_matches_full_sweep() {
    #[derive(Debug, PartialEq)]
    struct CrashExact {
        exact: Exact,
        restarts: u64,
        epoch: u64,
    }

    fn run_crash(case: &SoakCase, shards: usize, full_sweep: bool) -> CrashExact {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, case.tenants + shards);
        let os = Os::boot(&h, machine, 8192);
        let store = JournalStore::new();
        let plan = case.faults.clone().map(FaultPlan::new);
        let mut cfg = soak_cfg(case, shards, full_sweep);
        cfg.fault_plan = plan.clone();
        cfg.journal = Some(Rc::clone(&store));
        let cores: Vec<_> = (0..shards)
            .map(|i| os.machine.core(case.tenants + i))
            .collect();
        os.install_copier(cores.clone(), cfg.clone());

        let done = Rc::new(Cell::new(0usize));
        let restarts = Rc::new(Cell::new(0u64));
        let mut tenants = Vec::new();
        for t in 0..case.tenants {
            let proc = os.spawn_process();
            let lib = proc.lib();
            let uspace = Rc::clone(&lib.uspace);
            let mut bufs = Vec::new();
            for c in 0..case.ncopies {
                let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
                let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
                uspace
                    .write_bytes(src, &pattern(t, c, case.seed, case.len))
                    .unwrap();
                bufs.push((src, dst));
            }
            tenants.push((lib, uspace, bufs, Rc::new(RefCell::new(Vec::new()))));
        }

        // Supervisor: reinstall over the shared journal store after a
        // crash and reattach every tenant (the adoption path).
        {
            let os2 = Rc::clone(&os);
            let libs: Vec<_> = tenants.iter().map(|t| Rc::clone(&t.0)).collect();
            let h2 = h.clone();
            let done2 = Rc::clone(&done);
            let r2 = Rc::clone(&restarts);
            let ntenants = case.tenants;
            let score = os.machine.core(case.tenants);
            sim.spawn("supervisor", async move {
                loop {
                    if done2.get() == ntenants {
                        break;
                    }
                    if os2.copier().has_crashed() {
                        r2.set(r2.get() + 1);
                        let new_svc = os2.install_copier(cores.clone(), cfg.clone());
                        for lib in &libs {
                            lib.reattach(&score, &new_svc).await;
                        }
                    }
                    h2.sleep(Nanos(5_000)).await;
                }
            });
        }

        for (t, (lib, _uspace, bufs, descrs)) in tenants.iter().enumerate() {
            let lib2 = Rc::clone(lib);
            let os2 = Rc::clone(&os);
            let d2 = Rc::clone(descrs);
            let done2 = Rc::clone(&done);
            let core = os.machine.core(t);
            let bufs2 = bufs.clone();
            let len = case.len;
            let ntenants = case.tenants;
            sim.spawn("tenant", async move {
                for &(src, dst) in &bufs2 {
                    let d = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
                    d2.borrow_mut().push(d);
                }
                let _ = lib2.csync_all(&core).await;
                done2.set(done2.get() + 1);
                if done2.get() == ntenants {
                    os2.copier().stop();
                }
            });
        }
        let end = sim.run();
        let svc = os.copier();
        svc.audit_aggregates()
            .unwrap_or_else(|e| panic!("post-recovery audit failed (seed {}): {e}", case.seed));

        let mut per_copy = Vec::new();
        let mut phantom = None;
        for (t, (_lib, uspace, bufs, descrs)) in tenants.iter().enumerate() {
            for (c, d) in descrs.borrow().iter().enumerate() {
                let (_src, dst) = bufs[c];
                let mut got = vec![0u8; case.len];
                uspace.read_bytes(dst, &mut got).unwrap();
                if d.fault().is_none() && got != pattern(t, c, case.seed, case.len) {
                    phantom.get_or_insert_with(|| {
                        format!("tenant {t} copy {c} clean but wrong after recovery")
                    });
                }
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                fnv(&mut digest, &got);
                per_copy.push((t, c, d.fault(), digest));
            }
        }
        let s = svc.stats();
        CrashExact {
            exact: Exact {
                per_copy,
                end: end.as_nanos(),
                stats: stats_to_vec(&s),
                per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
                pinned: os.pm.pinned_frames(),
                phantom,
            },
            restarts: restarts.get(),
            epoch: svc.epoch(),
        }
    }

    check_with(
        &cases(24),
        |rng: &mut TestRng| {
            let mut case = gen_base(rng);
            case.faults = Some(FaultConfig {
                seed: case.seed ^ 0xC4A5,
                dma_transient_prob: rng.gen_f64() * 0.2,
                crash_prob: 0.05 + rng.gen_f64() * 0.35,
                max_crashes: rng.range_usize(1, 4) as u64,
                ..Default::default()
            });
            (case, rng.range_usize(1, 5))
        },
        |_| Vec::new(),
        |(case, shards): &(SoakCase, usize)| -> PropResult {
            let fast = run_crash(case, *shards, false);
            let full = run_crash(case, *shards, true);
            prop_assert!(fast.exact.phantom.is_none(), "{:?}", fast.exact.phantom);
            prop_assert_eq!(&fast, &full, "recovery diverged at {} shards", shards);
            Ok(())
        },
    );
}

/// Tier 3c: an idle client re-activated by service-internal scrub heals
/// (the walker pushes repair copies into the client's kernel queue with
/// a direct `activate`, no libCopier doorbell) behaves identically on
/// the fast path. The client submits one burst, settles out of the
/// active set, then only the scrubber touches it. At four shards the
/// client is owned by a shard other than 0, where the walker runs, so
/// every heal reaches it through its ring and doorbell.
#[test]
fn scrub_heal_reactivates_idle_clients_identically() {
    fn run_scrub(seed: u64, shards: usize, full_sweep: bool) -> (Vec<u64>, u64, u64) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 1 + shards);
        let os = Os::boot(&h, machine, 4096);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            rot_prob: 0.9,
            ..Default::default()
        });
        let svc = os.install_copier(
            (1..=shards).map(|i| os.machine.core(i)).collect(),
            CopierConfig {
                shards,
                use_dma: true,
                fault_plan: Some(Rc::clone(&plan)),
                verify: VerifyPolicy::Full,
                scrub_period: 2,
                full_sweep,
                ..Default::default()
            },
        );
        let proc = loop {
            let proc = os.spawn_process();
            if shards == 1 || proc.lib().shard() > 0 {
                break proc;
            }
        };
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);

        let region = 16 * 1024usize;
        let primary = uspace.mmap(region, Prot::RW, true).unwrap();
        let replica = uspace.mmap(region, Prot::RW, true).unwrap();
        let golden = pattern(7, 0, seed, region);
        uspace.write_bytes(primary, &golden).unwrap();
        uspace.write_bytes(replica, &golden).unwrap();
        lib.register_scrub(primary, replica, region, 4 * 1024);

        let lib2 = Rc::clone(&lib);
        let svc2 = Rc::clone(&svc);
        let h2 = h.clone();
        let core = os.machine.core(0);
        let len = 8 * 1024usize;
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        uspace.write_bytes(src, &pattern(1, 0, seed, len)).unwrap();
        sim.spawn("client", async move {
            // One burst, then idle: the client settles out of the active
            // set and only scrub heals re-activate it while the walker
            // keeps ticking on the park-timeout re-polls.
            for _ in 0..4 {
                if lib2
                    ._amemcpy(&core, dst, src, len, AmemcpyOpts::default())
                    .await
                    .is_err()
                {
                    break;
                }
                if lib2.csync(&core, dst, len).await.is_err() {
                    break;
                }
            }
            h2.sleep(Nanos(2_000_000)).await;
            svc2.stop();
        });
        let end = sim.run();
        svc.audit_aggregates()
            .unwrap_or_else(|e| panic!("post-scrub audit failed (seed {seed}): {e}"));
        assert_no_pinned_leaks(&os.pm);

        // The final primary contents race the per-round rot oracle (a rot
        // can land after the last heal), so the heal outcome is asserted
        // through the scrub counters instead of buffer purity; the buffer
        // state still participates in the fast==full equality through the
        // stats vector and end time.
        let s = svc.stats();
        let mut primary_now = vec![0u8; region];
        uspace.read_bytes(primary, &mut primary_now).unwrap();
        let mut dig = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut dig, &primary_now);
        (stats_to_vec(&s), end.as_nanos(), dig)
    }

    for shards in [1, 4] {
        for seed in [0x5C2B_0001u64, 0x5C2B_0002, 0x5C2B_0003, 0x5C2B_0004] {
            let fast = run_scrub(seed, shards, false);
            let full = run_scrub(seed, shards, true);
            let at = format!("seed {seed:#x}, {shards} shard(s)");
            assert!(fast.0.iter().sum::<u64>() > 0, "no service activity ({at})");
            assert_eq!(fast, full, "scrub re-activation diverged ({at})");
            assert!(fast.0[40] > 0, "scrub walker never ran ({at})");
            assert!(fast.0[41] > 0, "rot was never healed ({at})");
        }
    }
}

/// Tier 4, strongest hash check: a chaos run *recorded* with the fast
/// path (delta-folded commutative hash sums) *replays* through the
/// full-sweep build (fresh commutative recompute every round) with zero
/// divergence — so the cached sums equal the recompute at every traced
/// round, not just at the end. At 4 shards and at 1: every `RoundEnd`
/// closes with the same sums and the service-wide stats.
#[test]
fn fast_recording_replays_through_full_sweep() {
    fn run_traced(case: &SoakCase, shards: usize, full_sweep: bool, tracer: Rc<Tracer>) -> Exact {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, case.tenants + shards);
        let os = Os::boot(&h, machine, 8192);
        let plan = case.faults.clone().map(FaultPlan::new);
        if let Some(p) = &plan {
            p.set_tracer(&tracer);
        }
        let mut cfg = soak_cfg(case, shards, full_sweep);
        cfg.fault_plan = plan;
        cfg.tracer = Some(Rc::clone(&tracer));
        os.install_copier(
            (0..shards)
                .map(|i| os.machine.core(case.tenants + i))
                .collect(),
            cfg,
        );
        let done = Rc::new(Cell::new(0usize));
        let mut tenants = Vec::new();
        for t in 0..case.tenants {
            let proc = os.spawn_process();
            let lib = proc.lib();
            let uspace = Rc::clone(&lib.uspace);
            let mut bufs = Vec::new();
            for c in 0..case.ncopies {
                let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
                let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
                uspace
                    .write_bytes(src, &pattern(t, c, case.seed, case.len))
                    .unwrap();
                bufs.push((src, dst));
            }
            let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
            let lib2 = Rc::clone(&lib);
            let os2 = Rc::clone(&os);
            let d2 = Rc::clone(&descrs);
            let done2 = Rc::clone(&done);
            let core = os.machine.core(t);
            let bufs2 = bufs.clone();
            let len = case.len;
            let ntenants = case.tenants;
            sim.spawn("tenant", async move {
                for &(src, dst) in &bufs2 {
                    let d = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
                    d2.borrow_mut().push(d);
                }
                let _ = lib2.csync_all(&core).await;
                done2.set(done2.get() + 1);
                if done2.get() == ntenants {
                    os2.copier().stop();
                }
            });
            tenants.push((lib, uspace, bufs, descrs));
        }
        let end = sim.run();
        let svc = os.copier();
        let mut per_copy = Vec::new();
        for (t, (_lib, uspace, bufs, descrs)) in tenants.iter().enumerate() {
            for (c, d) in descrs.borrow().iter().enumerate() {
                let (_src, dst) = bufs[c];
                let mut got = vec![0u8; case.len];
                uspace.read_bytes(dst, &mut got).unwrap();
                let mut digest = 0xcbf2_9ce4_8422_2325u64;
                fnv(&mut digest, &got);
                per_copy.push((t, c, d.fault(), digest));
            }
        }
        let s = svc.stats();
        Exact {
            per_copy,
            end: end.as_nanos(),
            stats: stats_to_vec(&s),
            per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
            pinned: os.pm.pinned_frames(),
            phantom: None,
        }
    }

    check_with(
        &cases(8),
        gen_chaos,
        no_shrink,
        |case: &SoakCase| -> PropResult {
            for shards in [1, 4] {
                let rec = Tracer::record();
                let recorded = run_traced(case, shards, false, Rc::clone(&rec));
                let rep = Tracer::replay(rec.finish());
                let replayed = run_traced(case, shards, true, Rc::clone(&rep));
                prop_assert!(
                    rep.divergence().is_none(),
                    "full-sweep replay of a fast-path trace diverged at {shards} shard(s): {:?}",
                    rep.divergence()
                );
                prop_assert_eq!(&recorded, &replayed, "replay landed a different outcome");
            }
            Ok(())
        },
    );
}
