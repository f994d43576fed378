//! Differential properties for the sharded control plane (DESIGN.md
//! §17): whatever the shard count, the service must deliver the same
//! *outcomes* — and a fixed shard count must be exactly as deterministic
//! as the single-instance service it replaced.
//!
//! Three tiers, weakest guarantee last:
//!
//! 1. **Fault-free equivalence.** Scheduling differs across shard counts
//!    (each shard rounds over its own clients; cross-shard facts travel
//!    via barrier exchanges), so timings diverge — but the *outcome* may
//!    not: per-copy fault codes, destination bytes, task totals,
//!    and pin balance at N shards must equal the 1-shard reference.
//! 2. **Faulty invariants.** Under chaos (DMA transients/hard faults/
//!    timeouts, stale ATC, silent flips with full verification) and
//!    crash/restart schedules, fault placement legitimately differs
//!    across shard counts — the draw order follows the dispatch order.
//!    What must still hold at any shard count: no copy reports success
//!    over wrong bytes, nothing stays pinned, the pending index stays
//!    consistent, recovery completes exactly once.
//! 3. **Determinism.** Same seed + same shard count ⇒ bit-identical
//!    everything (virtual end time, full stats vector, per-shard
//!    counters), including under chaos and crash — and a recorded
//!    4-shard run replays with zero divergence.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{
    stats_to_vec, CopierConfig, CopyFault, Handler, JournalStore, PollMode, SegDescriptor,
};
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::wire::{fnv_bytes, FNV_OFFSET};
use copier::sim::{FaultConfig, FaultPlan, Machine, Nanos, Sim, TraceEvent, Tracer};
use copier_testkit::prop::{check_with, Config, PropResult};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// One multi-tenant scenario, identical across every shard count it is
/// run at — only `shards` varies between differential runs.
#[derive(Debug, Clone)]
struct DiffCase {
    seed: u64,
    tenants: usize,
    /// Copies submitted per tenant.
    ncopies: usize,
    len: usize,
    faults: Option<FaultConfig>,
}

fn gen_base(rng: &mut TestRng) -> DiffCase {
    DiffCase {
        seed: rng.next_u64(),
        tenants: rng.range_usize(2, 6),
        ncopies: rng.range_usize(2, 5),
        len: rng.range_usize(2, 12) * 4 * 1024 + rng.range_usize(0, 3) * 512,
        faults: None,
    }
}

/// Chaos envelope: execution faults plus silent corruption (the service
/// runs with `VerifyPolicy::Full` whenever flips are armed, so a flip is
/// either repaired or surfaced — never silent).
fn gen_chaos(rng: &mut TestRng) -> DiffCase {
    let mut case = gen_base(rng);
    case.faults = Some(FaultConfig {
        seed: case.seed ^ 0xFA17,
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

/// What must be equal across shard counts on a fault-free run.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per (tenant, copy) in submission order: fault + destination digest.
    per_copy: Vec<(usize, usize, Option<CopyFault>, u64)>,
    /// Copy tasks retired — structural (one per submission), unlike
    /// `syncs`, which depends on completion timing (a csync against an
    /// already-complete descriptor pushes no Sync Task) and so is only
    /// compared by the same-shard-count determinism tier.
    tasks_completed: u64,
    pinned: usize,
}

/// What must be equal between two runs of the *same* (case, shards)
/// pair: everything, to the nanosecond and the last counter.
#[derive(Debug, PartialEq)]
struct Exact {
    outcome: Outcome,
    end: u64,
    stats: Vec<u64>,
    per_shard: Vec<(u64, u64, u64)>,
    /// `None` unless a copy completed faultless with wrong bytes — the
    /// one invariant no fault schedule is allowed to break.
    phantom: Option<String>,
}

fn shard_cfg(case: &DiffCase, shards: usize) -> CopierConfig {
    let verify = case.faults.as_ref().is_some_and(|f| f.dma_flip_prob > 0.0);
    CopierConfig {
        shards,
        use_dma: case.faults.is_some(),
        dma_channels: 2,
        verify: if verify {
            copier::core::VerifyPolicy::Full
        } else {
            copier::core::VerifyPolicy::Off
        },
        polling: PollMode::Napi {
            spin_rounds: 64,
            park_timeout: Nanos(20_000),
        },
        ..Default::default()
    }
}

fn run_diff(case: &DiffCase, shards: usize) -> Exact {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, case.tenants + shards);
    let os = Os::boot(&h, machine, 8192);
    let plan = case.faults.clone().map(FaultPlan::new);
    let mut cfg = shard_cfg(case, shards);
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
                // Default quotas dwarf this workload; a rejection would
                // itself be a bug worth failing on.
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
        if let Err(msg) = lib.client.index_consistent() {
            panic!("pending index diverged (seed {}): {msg}", case.seed);
        }
    }
    assert_no_pinned_leaks(&os.pm);

    let s = svc.stats();
    Exact {
        outcome: Outcome {
            per_copy,
            tasks_completed: s.tasks_completed,
            pinned: os.pm.pinned_frames(),
        },
        end: end.as_nanos(),
        stats: stats_to_vec(&s),
        per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
        phantom,
    }
}

fn cases(default: u32) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = default;
    }
    cfg
}

fn no_shrink(_: &DiffCase) -> Vec<DiffCase> {
    Vec::new()
}

/// Tier 1: a fault-free workload lands the same outcome at 2, 3, and 4
/// shards as the 1-shard reference — per-copy faults, destination
/// digests, task totals, and pin balance. (128 cases × 4 shard
/// counts = 512 seeded schedules.)
#[test]
fn fault_free_sharded_outcomes_match_single_shard_reference() {
    check_with(
        &cases(128),
        gen_base,
        no_shrink,
        |case: &DiffCase| -> PropResult {
            let reference = run_diff(case, 1);
            prop_assert!(
                reference.phantom.is_none(),
                "reference run corrupt: {:?}",
                reference.phantom
            );
            prop_assert!(
                reference.outcome.per_copy.iter().all(|p| p.2.is_none()),
                "fault-free reference reported a fault"
            );
            for shards in [2usize, 3, 4] {
                let sharded = run_diff(case, shards);
                prop_assert_eq!(
                    &sharded.outcome,
                    &reference.outcome,
                    "outcome diverged at {} shards",
                    shards
                );
            }
            Ok(())
        },
    );
}

/// Tier 2 + 3 under chaos: at a random shard count, faults may land
/// elsewhere than the 1-shard run put them — but no clean copy may hold
/// wrong bytes, nothing leaks, and the run is bit-reproducible.
#[test]
fn chaos_at_n_shards_preserves_invariants_and_determinism() {
    check_with(
        &cases(96),
        |rng: &mut TestRng| (gen_chaos(rng), rng.range_usize(2, 5)),
        |_| Vec::new(),
        |(case, shards): &(DiffCase, usize)| -> PropResult {
            let a = run_diff(case, *shards);
            prop_assert!(a.phantom.is_none(), "{:?}", a.phantom);
            prop_assert_eq!(a.outcome.pinned, 0, "pins leaked");
            let b = run_diff(case, *shards);
            prop_assert_eq!(&a, &b, "same seed, same shard count, different run");
            Ok(())
        },
    );
}

/// Tier 2 + 3 under crash/restart: a journaled N-shard service crashes
/// mid-run, a supervisor reinstalls it over the same store, every tenant
/// reattaches — and recovery is exactly-once (no clean copy with wrong
/// bytes, epoch counts incarnations) and seed-deterministic.
#[test]
fn crash_restart_at_n_shards_recovers_exactly_once() {
    #[derive(Debug)]
    struct CrashRun {
        exact: Exact,
        restarts: u64,
        epoch: u64,
        /// Per (tenant, copy): final fault + handler delivery count.
        fired: Vec<(usize, usize, Option<CopyFault>, u64)>,
    }

    fn run_crash(case: &DiffCase, shards: usize) -> CrashRun {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, case.tenants + shards);
        let os = Os::boot(&h, machine, 8192);
        let store = JournalStore::new();
        let plan = case.faults.clone().map(FaultPlan::new);
        let mut cfg = shard_cfg(case, shards);
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
            let counters: Vec<Rc<Cell<u64>>> =
                (0..case.ncopies).map(|_| Rc::new(Cell::new(0))).collect();
            tenants.push((
                lib,
                uspace,
                bufs,
                Rc::new(RefCell::new(Vec::new())),
                counters,
            ));
        }

        // Supervisor: reinstall over the shared journal store after a
        // crash (same shard count — the restart recipe is the config)
        // and reattach every tenant.
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

        for (t, (lib, _uspace, bufs, descrs, counters)) in tenants.iter().enumerate() {
            let lib2 = Rc::clone(lib);
            let os2 = Rc::clone(&os);
            let h2 = h.clone();
            let d2 = Rc::clone(descrs);
            let done2 = Rc::clone(&done);
            let counters2 = counters.clone();
            let core = os.machine.core(t);
            let bufs2 = bufs.clone();
            let len = case.len;
            let ntenants = case.tenants;
            sim.spawn("tenant", async move {
                for (i, &(src, dst)) in bufs2.iter().enumerate() {
                    let c = Rc::clone(&counters2[i]);
                    let opts = AmemcpyOpts {
                        func: Some(Handler::UFunc(Rc::new(move || c.set(c.get() + 1)))),
                        ..Default::default()
                    };
                    let d = lib2
                        ._amemcpy(&core, dst, src, len, opts)
                        .await
                        .expect("admitted");
                    d2.borrow_mut().push(d);
                }
                let _ = lib2.csync_all(&core).await;
                // csync returns once the bytes are visible, but a crash
                // between landing and finalize (PreFinalize point) leaves
                // the handler — and the unpin — to the *restarted*
                // incarnation. Drain with a bounded budget so recovery
                // gets to run before teardown; a genuinely lost handler
                // leaves its counter at zero and fails exactly-once below.
                let mut spins = 0u32;
                loop {
                    let _ = lib2.post_handlers(&core).await;
                    if counters2.iter().all(|c| c.get() > 0) || spins >= 2_000 {
                        break;
                    }
                    spins += 1;
                    h2.sleep(Nanos(2_000)).await;
                }
                done2.set(done2.get() + 1);
                if done2.get() == ntenants {
                    os2.copier().stop();
                }
            });
        }
        let end = sim.run();
        let svc = os.copier();

        let mut per_copy = Vec::new();
        let mut fired = Vec::new();
        let mut phantom = None;
        for (t, (lib, uspace, bufs, descrs, counters)) in tenants.iter().enumerate() {
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
                fired.push((t, c, d.fault(), counters[c].get()));
            }
            assert_eq!(
                lib.client.view().epoch,
                svc.epoch(),
                "client epoch not restamped after restart"
            );
        }
        // A pin leak is reported through the property (which prints the
        // repro seed); the leaked spaces must outlive the check or their
        // teardown aborts the process inside PhysMem's free assert.
        if os.pm.pinned_frames() != 0 {
            std::mem::forget(tenants.clone());
            std::mem::forget(Rc::clone(&os));
        }
        let s = svc.stats();
        CrashRun {
            exact: Exact {
                outcome: Outcome {
                    per_copy,
                    tasks_completed: s.tasks_completed,
                    pinned: os.pm.pinned_frames(),
                },
                end: end.as_nanos(),
                stats: stats_to_vec(&s),
                per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
                phantom,
            },
            restarts: restarts.get(),
            epoch: svc.epoch(),
            fired,
        }
    }

    check_with(
        &cases(48),
        |rng: &mut TestRng| {
            let mut case = gen_base(rng);
            case.faults = Some(FaultConfig {
                seed: case.seed ^ 0xDEAD,
                dma_transient_prob: rng.gen_f64() * 0.2,
                crash_prob: 0.05 + rng.gen_f64() * 0.35,
                max_crashes: rng.range_usize(1, 4) as u64,
                ..Default::default()
            });
            (case, rng.range_usize(2, 5))
        },
        |_| Vec::new(),
        |(case, shards): &(DiffCase, usize)| -> PropResult {
            let a = run_crash(case, *shards);
            prop_assert!(a.exact.phantom.is_none(), "{:?}", a.exact.phantom);
            prop_assert_eq!(a.exact.outcome.pinned, 0, "pins leaked across restart");
            prop_assert_eq!(
                a.epoch,
                a.restarts + 1,
                "journal epoch must count incarnations"
            );
            for (t, c, fault, fired) in &a.fired {
                match fault {
                    // A clean copy's handler fires exactly once, however
                    // many incarnations the task lived through.
                    None => prop_assert_eq!(
                        *fired,
                        1,
                        "tenant {} copy {} clean but handler fired {}x",
                        t,
                        c,
                        fired
                    ),
                    Some(_) => prop_assert!(
                        *fired <= 1,
                        "tenant {} copy {} faulted yet handler fired {}x",
                        t,
                        c,
                        fired
                    ),
                }
            }
            let b = run_crash(case, *shards);
            prop_assert_eq!(&a.exact, &b.exact, "crash schedule not reproducible");
            prop_assert_eq!(a.restarts, b.restarts);
            Ok(())
        },
    );
}

/// Tier 3, strongest form: a 4-shard chaos run recorded to a trace
/// replays through the same build with zero divergence — the per-shard
/// lazy round hashes (pending/index/stats) all match — and lands the
/// identical outcome.
#[test]
fn sharded_record_replay_is_bit_identical() {
    fn run_traced(case: &DiffCase, shards: usize, tracer: Rc<Tracer>) -> Exact {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, case.tenants + shards);
        let os = Os::boot(&h, machine, 8192);
        let plan = case.faults.clone().map(FaultPlan::new);
        if let Some(p) = &plan {
            p.set_tracer(&tracer);
        }
        let mut cfg = shard_cfg(case, shards);
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
                let digest = fnv_bytes(FNV_OFFSET, &got);
                per_copy.push((t, c, d.fault(), digest));
            }
        }
        let s = svc.stats();
        Exact {
            outcome: Outcome {
                per_copy,
                tasks_completed: s.tasks_completed,
                pinned: os.pm.pinned_frames(),
            },
            end: end.as_nanos(),
            stats: stats_to_vec(&s),
            per_shard: (0..svc.nshards()).map(|i| svc.shard_stats(i)).collect(),
            phantom: None,
        }
    }

    check_with(
        &cases(8),
        gen_chaos,
        no_shrink,
        |case: &DiffCase| -> PropResult {
            let rec = Tracer::record();
            let recorded = run_traced(case, 4, Rc::clone(&rec));
            let trace = rec.finish();
            let ends = trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::RoundEnd { .. }));
            prop_assert!(trace.rounds() > 0, "a 4-shard recording counts no rounds");
            prop_assert_eq!(
                trace.rounds(),
                ends.count(),
                "a round opened and never closed"
            );
            let rep = Tracer::replay(trace);
            let replayed = run_traced(case, 4, Rc::clone(&rep));
            prop_assert!(
                rep.divergence().is_none(),
                "replay diverged: {:?}",
                rep.divergence()
            );
            prop_assert_eq!(&recorded, &replayed, "replay landed a different outcome");
            Ok(())
        },
    );
}

/// The space-id hash must actually spread tenants: eight consecutive
/// space ids land on at least three of four shards. (A degenerate hash
/// would silently turn every "sharded" run above into a 1-shard run.)
#[test]
fn space_hash_spreads_tenants_across_shards() {
    let case = DiffCase {
        seed: 7,
        tenants: 8,
        ncopies: 1,
        len: 4096,
        faults: None,
    };
    let exact = run_diff(&case, 4);
    let busy = exact.per_shard.iter().filter(|p| p.1 > 0).count();
    assert!(
        busy >= 3,
        "8 tenants hashed onto only {busy} of 4 shards: {:?}",
        exact.per_shard
    );
}
