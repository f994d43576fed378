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
//! 3. **Membership churn**: clients leaving mid-run (reap), registering
//!    mid-run (every generated case may add late tenants, tiers 1, 2, 3a
//!    and 4), arriving into a restarted incarnation (crash-recovery
//!    adoption), and idle clients re-activated by service-internal scrub
//!    heals.
//! 4. **Traced hashes**: a run recorded on the fast path replays through
//!    the full-sweep build with zero divergence — the per-round cached
//!    hash sums equal the full recompute, round by round.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::{Cell, OnceCell, RefCell};
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{
    stats_to_vec, ControlObs, CopierConfig, CopyFault, JournalStore, PollMode, SegDescriptor,
    VerifyPolicy,
};
use copier::mem::{AddressSpace, Prot, VirtAddr};
use copier::os::Os;
use copier::sim::wire::{fnv_bytes, FNV_OFFSET};
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
    /// Virtual ns at which each late tenant registers: more tenants, set
    /// up like the others, that join the service mid-run.
    late: Vec<u64>,
}

fn gen_base(rng: &mut TestRng) -> SoakCase {
    SoakCase {
        seed: rng.next_u64(),
        tenants: rng.range_usize(2, 6),
        ncopies: rng.range_usize(2, 5),
        len: rng.range_usize(2, 12) * 4 * 1024 + rng.range_usize(0, 3) * 512,
        faults: None,
        late: Vec::new(),
    }
}

/// Join times for up to two late tenants. Drawn after everything else a
/// generator draws, so adding them left every other generated field as
/// it was.
fn gen_late(rng: &mut TestRng) -> Vec<u64> {
    (0..rng.range_usize(0, 3))
        .map(|_| rng.range_usize(1_000, 60_000) as u64)
        .collect()
}

fn gen_churn(rng: &mut TestRng) -> SoakCase {
    let mut case = gen_base(rng);
    case.late = gen_late(rng);
    case
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
    case.late = gen_late(rng);
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

/// One tenant's world: its library handle (set once it has registered),
/// its space, its buffer pairs and the descriptors of its copies.
type TenantState = (
    Rc<OnceCell<Rc<CopierHandle>>>,
    Rc<AddressSpace>,
    Vec<(VirtAddr, VirtAddr)>,
    Rc<RefCell<Vec<Rc<SegDescriptor>>>>,
);

/// Runs one scenario and returns the exact observable state plus the
/// control-plane observability counters. An optional `kill_at` reaps
/// tenant 0 mid-run (membership-churn coverage); `case.late` tenants
/// register mid-run; a `tracer` records or replays the run. The
/// aggregate audit runs post-settle inside, so every property exercises
/// it for free.
fn run_soak(
    case: &SoakCase,
    shards: usize,
    full_sweep: bool,
    kill_at: Option<Nanos>,
    tracer: Option<&Rc<Tracer>>,
) -> (Exact, ControlObs) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, case.tenants + shards);
    let os = Os::boot(&h, machine, 8192);
    let plan = case.faults.clone().map(FaultPlan::new);
    let mut cfg = soak_cfg(case, shards, full_sweep);
    if let (Some(p), Some(t)) = (&plan, tracer) {
        p.set_tracer(t);
    }
    cfg.fault_plan = plan;
    cfg.tracer = tracer.cloned();
    os.install_copier(
        (0..shards)
            .map(|i| os.machine.core(case.tenants + i))
            .collect(),
        cfg,
    );

    let ntenants = case.tenants + case.late.len();
    let done = Rc::new(Cell::new(0usize));
    let mut tenants: Vec<TenantState> = Vec::new();
    for t in 0..ntenants {
        // A tenant present from the start registers here; a late one
        // gets its space and buffers now, under an id no process takes,
        // and registers at its join time.
        let join = t.checked_sub(case.tenants).map(|i| case.late[i]);
        let lib = Rc::new(OnceCell::new());
        let uspace = match join {
            None => {
                let proc = os.spawn_process();
                let _ = lib.set(proc.lib());
                Rc::clone(&proc.lib().uspace)
            }
            Some(_) => AddressSpace::new(1000 + t as u32, Rc::clone(&os.pm)),
        };
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
        let (lib2, space2) = (Rc::clone(&lib), Rc::clone(&uspace));
        let (os2, h2) = (Rc::clone(&os), h.clone());
        let d2 = Rc::clone(&descrs);
        let done2 = Rc::clone(&done);
        let core = os.machine.core(t % case.tenants);
        let bufs2 = bufs.clone();
        let (len, seed) = (case.len, case.seed);
        sim.spawn("tenant", async move {
            if let Some(at) = join {
                h2.sleep(Nanos(at)).await;
                let _ = lib2.set(CopierHandle::new(&os2.copier(), space2));
            }
            let lib2 = lib2.get().unwrap();
            for &(src, dst) in &bufs2 {
                // A reap can kill this tenant mid-loop; submissions then
                // fail and the tenant just stops submitting. A live tenant
                // is always admitted.
                match lib2.amemcpy(&core, dst, src, len).await {
                    Ok(d) => d2.borrow_mut().push(d),
                    Err(_) if lib2.client.view().dead => break,
                    Err(e) => panic!("tenant {t} not admitted (seed {seed}): {e:?}"),
                }
            }
            if !lib2.client.view().dead {
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
        let victim = Rc::clone(tenants[0].0.get().unwrap());
        let h2 = h.clone();
        sim.spawn("killer", async move {
            h2.sleep(t).await;
            if !victim.client.view().dead {
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
            let digest = fnv_bytes(FNV_OFFSET, &got);
            per_copy.push((t, c, d.fault(), digest));
        }
        if let Err(msg) = lib.get().unwrap().client.index_consistent() {
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
        gen_churn,
        no_shrink,
        |case: &SoakCase| -> PropResult {
            for shards in [1usize, 2, 3, 4] {
                let (fast, fast_obs) = run_soak(case, shards, false, None, None);
                let (full, _) = run_soak(case, shards, true, None, None);
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
            let (fast, _) = run_soak(case, *shards, false, None, None);
            let (full, _) = run_soak(case, *shards, true, None, None);
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
            let mut case = gen_base(rng);
            let kill = Nanos(rng.range_usize(5_000, 200_000) as u64);
            let shards = rng.range_usize(1, 5);
            case.late = gen_late(rng);
            (case, shards, kill)
        },
        |_| Vec::new(),
        |(case, shards, kill): &(SoakCase, usize, Nanos)| -> PropResult {
            let (fast, _) = run_soak(case, *shards, false, Some(*kill), None);
            let (full, _) = run_soak(case, *shards, true, Some(*kill), None);
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
                let digest = fnv_bytes(FNV_OFFSET, &got);
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

/// Tier 3c: idle clients re-activated by service-internal scrub heals
/// (the walker pushes repair copies into the client's kernel queue with
/// a direct `activate`, no libCopier doorbell) behave identically on the
/// fast path. Each client submits one burst, settles out of the active
/// set, then only the scrubber touches it. Every shard walks the regions
/// of its own clients: at two shards each shard owns one scrubbed client,
/// and at four the one client is owned by a shard other than 0.
#[test]
fn scrub_heal_reactivates_idle_clients_identically() {
    /// Bytes each client copies in its burst.
    const BURST: u64 = 4 * 8 * 1024;
    /// `(stats, end, (primary digest, copied_total) per client)`.
    type ScrubRun = (Vec<u64>, u64, Vec<(u64, u64)>);
    fn run_scrub(seed: u64, shards: usize, clients: usize, full_sweep: bool) -> ScrubRun {
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
        // One client per shard it lands on, skipping shard 0 while there
        // are more shards than clients.
        let mut libs: Vec<Rc<CopierHandle>> = Vec::new();
        while libs.len() < clients {
            let lib = os.spawn_process().lib();
            let shard = lib.shard();
            if (shards == clients || shard > 0) && libs.iter().all(|l| l.shard() != shard) {
                libs.push(lib);
            }
        }

        let region = 16 * 1024usize;
        let len = 8 * 1024usize;
        let mut work = Vec::new();
        for (i, lib) in libs.iter().enumerate() {
            let uspace = &lib.uspace;
            let primary = uspace.mmap(region, Prot::RW, true).unwrap();
            let replica = uspace.mmap(region, Prot::RW, true).unwrap();
            let golden = pattern(7, i, seed, region);
            uspace.write_bytes(primary, &golden).unwrap();
            uspace.write_bytes(replica, &golden).unwrap();
            lib.register_scrub(primary, replica, region, 4 * 1024);
            let src = uspace.mmap(len, Prot::RW, true).unwrap();
            let dst = uspace.mmap(len, Prot::RW, true).unwrap();
            uspace.write_bytes(src, &pattern(1, i, seed, len)).unwrap();
            work.push((Rc::clone(lib), primary, src, dst));
        }

        let (svc2, h2, core) = (Rc::clone(&svc), h.clone(), os.machine.core(0));
        let bursts: Vec<_> = work
            .iter()
            .map(|(l, _, s, d)| (Rc::clone(l), *s, *d))
            .collect();
        sim.spawn("client", async move {
            // One burst each, then idle: the clients settle out of the
            // active set and only scrub heals re-activate them while the
            // walkers keep ticking on the park-timeout re-polls.
            for (lib, src, dst) in bursts {
                for _ in 0..4 {
                    if lib
                        ._amemcpy(&core, dst, src, len, AmemcpyOpts::default())
                        .await
                        .is_err()
                    {
                        break;
                    }
                    if lib.csync(&core, dst, len).await.is_err() {
                        break;
                    }
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
        // through the scrub counters and the heal bytes each client was
        // charged instead of buffer purity; the buffer state still
        // participates in the fast==full equality.
        let per_client = work
            .iter()
            .map(|(lib, primary, _, _)| {
                let mut now = vec![0u8; region];
                lib.uspace.read_bytes(*primary, &mut now).unwrap();
                (fnv_bytes(FNV_OFFSET, &now), lib.client.view().copied_total)
            })
            .collect();
        (stats_to_vec(&svc.stats()), end.as_nanos(), per_client)
    }

    for (shards, clients) in [(1, 1), (2, 2), (4, 1)] {
        for seed in [0x5C2B_0001u64, 0x5C2B_0002, 0x5C2B_0003, 0x5C2B_0004] {
            let fast = run_scrub(seed, shards, clients, false);
            let full = run_scrub(seed, shards, clients, true);
            let at = format!("seed {seed:#x}, {shards} shard(s)");
            assert!(fast.0.iter().sum::<u64>() > 0, "no service activity ({at})");
            assert_eq!(fast, full, "scrub re-activation diverged ({at})");
            let [chunks, heals, unrepairable] = fast.0[40..43] else {
                unreachable!()
            };
            assert!(chunks > 0, "scrub walker never ran ({at})");
            assert!(heals > 0, "rot was never healed ({at})");
            // Every replica is intact, so every rot a walker found was
            // healed, and each owner's shard healed it: every client was
            // charged heal copies past its own burst.
            assert_eq!(unrepairable, 0, "rot left unhealed ({at})");
            for (i, &(_, copied)) in fast.2.iter().enumerate() {
                assert!(copied > BURST, "client {i} was never healed ({at})");
            }
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
    check_with(
        &cases(8),
        gen_chaos,
        no_shrink,
        |case: &SoakCase| -> PropResult {
            for shards in [1, 4] {
                let rec = Tracer::record();
                let (recorded, _) = run_soak(case, shards, false, None, Some(&rec));
                let rep = Tracer::replay(rec.finish());
                let (replayed, _) = run_soak(case, shards, true, None, Some(&rep));
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
