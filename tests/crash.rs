//! Crash–restart recovery suite (DESIGN.md §15).
//!
//! Every run drives real client traffic through a journaled Copier whose
//! scheduling loop is interposed by seeded crash injection: the service
//! dies at one of the four [`CrashPoint`]s (mid-drain, mid-dispatch,
//! pre-finalize, mid-journal-flush with a torn final record), a
//! supervisor task installs a fresh incarnation over the same
//! [`JournalStore`], and the library re-attaches the surviving client.
//! The properties assert the recovery contract:
//!
//! 1. **exactly-once** — after any number of crash–restart cycles every
//!    admitted task settles exactly once: handler fired once, credit
//!    returned once, destination bytes correct — or it is poisoned with
//!    a typed fault; never both, never twice, never neither;
//! 2. **no leaks** — pins, credits, and the address index reconcile
//!    after recovery exactly as after a crash-free run;
//! 3. **journal transparency** — a crash-free journaled run is
//!    byte-identical (virtual end time, stats, memory digest) to the
//!    same run without a journal;
//! 4. **torn detection** — a destination that matches neither the
//!    journaled pre-copy digest nor the source digest is poisoned
//!    [`CopyFault::Torn`] at adoption and walls off dependents until
//!    fully overwritten;
//! 5. **reproducibility** — a recorded crashed run replays
//!    byte-identically from its `.cptr` trace (crash draws included).
//!
//! Reproduce any failure with the `TESTKIT_REPRO=<case seed>` line the
//! runner prints, e.g. `TESTKIT_REPRO=1234567 cargo test -q --test crash`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{
    AdmitRec, Copier, CopierConfig, CopyFault, Handler, Journal, JournalStore, SegDescriptor,
};
use copier::mem::{Prot, PAGE_SIZE};
use copier::os::Os;
use copier::sim::wire::{fnv_bytes, FNV_OFFSET};
use copier::sim::{
    FaultConfig, FaultLog, FaultPlan, Machine, Nanos, Sim, Trace, TraceEvent, Tracer,
};
use copier_testkit::prop::{check_with, Config};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// One randomized crash schedule.
///
/// Copy lengths are whole pages: the journal's torn-destination check
/// samples extents with page-boundary-relative chunks, so src and dst
/// must share their page offset for the digest comparison to be
/// meaningful (both are mmapped page-aligned here).
#[derive(Debug, Clone)]
struct CrashCase {
    seed: u64,
    ncopies: usize,
    pages: usize,
    crash_prob: f64,
    max_crashes: u64,
    use_dma: bool,
    transient: f64,
}

fn gen_case(rng: &mut TestRng) -> CrashCase {
    CrashCase {
        seed: rng.next_u64(),
        ncopies: rng.range_usize(2, 5),
        pages: rng.range_usize(1, 5),
        crash_prob: 0.05 + rng.gen_f64() * 0.45,
        max_crashes: 1 + rng.range_usize(0, 3) as u64,
        use_dma: rng.gen_bool(0.5),
        transient: if rng.gen_bool(0.3) {
            rng.gen_f64() * 0.3
        } else {
            0.0
        },
    }
}

/// Deterministic per-copy source pattern (independent of the sim).
fn pattern(copy: usize, seed: u64, len: usize) -> Vec<u8> {
    let mut x = seed ^ (copy as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut v = Vec::with_capacity(len);
    for _ in 0..len {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.push((x >> 33) as u8 | 1); // never zero: distinguishable from fresh pages
    }
    v
}

/// Everything a crashed run produces that must be reproducible from the
/// seed (and from a recorded trace).
#[derive(Debug, PartialEq)]
struct CrashOutcome {
    end: u64,
    /// Final incarnation's stats (see `stats_key`).
    stats: Vec<u64>,
    log: FaultLog,
    /// Per copy: final fault, all-segments-ready, handler fire count.
    per_copy: Vec<(Option<CopyFault>, bool, u64)>,
    /// Copies with no fault whose destination bytes differ from the
    /// source pattern (must be empty).
    wrong_bytes: Vec<usize>,
    /// FNV fold over every destination buffer's final bytes.
    digest: u64,
    /// Supervisor restarts performed.
    restarts: u64,
    /// Final incarnation's journal epoch.
    epoch: u64,
    /// (credits, credit_cap) at teardown.
    credits: (u64, u64),
    pinned: usize,
    /// Journal store size at teardown (durable bytes).
    store_len: usize,
}

fn stats_key(svc: &Rc<Copier>) -> Vec<u64> {
    let s = svc.stats();
    vec![
        s.tasks_completed,
        s.bytes_copied,
        s.bytes_absorbed,
        s.bytes_deferred_executed,
        s.syncs,
        s.promotions,
        s.aborts,
        s.faults,
        s.proactive_faults,
        s.retries,
        s.fallback_bytes,
        s.quarantined_channels,
        s.orphans_reclaimed,
        s.dependents_aborted,
        s.dispatch.cpu_bytes as u64,
        s.dispatch.dma_bytes as u64,
        s.dispatch.dma_descriptors as u64,
        s.dispatch.dma_wait.as_nanos(),
        s.dispatch.retries,
        s.dispatch.fallback_bytes as u64,
        s.admission_rejected,
        s.shed_bytes,
        s.credits_granted,
        s.degraded_sync_copies,
        s.pressure_events,
        s.crashes,
        s.recovered_tasks,
        s.recovered_finalized,
        s.dropped_unjournaled,
        s.torn_poisoned,
    ]
}

/// Whether (and how) a crash run is traced.
enum TraceMode {
    Off,
    Record,
    Replay(Trace),
}

fn run_crash(case: &CrashCase) -> CrashOutcome {
    run_crash_traced(case, TraceMode::Off).0
}

fn run_crash_traced(case: &CrashCase, mode: TraceMode) -> (CrashOutcome, Option<Rc<Tracer>>) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let store = JournalStore::new();
    let plan = FaultPlan::new(FaultConfig {
        seed: case.seed,
        dma_transient_prob: case.transient,
        crash_prob: case.crash_prob,
        max_crashes: case.max_crashes,
        ..Default::default()
    });
    let tracer = match mode {
        TraceMode::Off => None,
        TraceMode::Record => Some(Tracer::record()),
        TraceMode::Replay(trace) => Some(Tracer::replay(trace)),
    };
    if let Some(t) = &tracer {
        t.emit(TraceEvent::Meta {
            key: 1,
            val: case.seed,
        });
        plan.set_tracer(t);
    }
    // The config is the restart recipe: the supervisor reinstalls with a
    // clone, so every incarnation shares the store, plan, and tracer.
    let cfg = CopierConfig {
        use_dma: case.use_dma,
        dma_channels: 2,
        journal: Some(Rc::clone(&store)),
        fault_plan: Some(Rc::clone(&plan)),
        tracer: tracer.clone(),
        ..Default::default()
    };
    os.install_copier(vec![os.machine.core(1)], cfg.clone());
    let proc = os.spawn_process();
    let lib: Rc<CopierHandle> = proc.lib();
    let uspace = Rc::clone(&lib.uspace);

    let len = case.pages * PAGE_SIZE;
    let mut bufs = Vec::new();
    for i in 0..case.ncopies {
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        uspace
            .write_bytes(src, &pattern(i, case.seed, len))
            .unwrap();
        bufs.push((src, dst));
    }

    let done = Rc::new(Cell::new(false));
    let restarts = Rc::new(Cell::new(0u64));

    // Supervisor: polls for a dead incarnation, reinstalls the service
    // over the shared journal store, and re-attaches the client. Runs on
    // the service core, which is idle exactly while the service is down.
    {
        let os2 = Rc::clone(&os);
        let lib2 = Rc::clone(&lib);
        let cfg2 = cfg.clone();
        let h2 = h.clone();
        let done2 = Rc::clone(&done);
        let r2 = Rc::clone(&restarts);
        sim.spawn("supervisor", async move {
            let score = os2.machine.core(1);
            loop {
                if done2.get() {
                    break;
                }
                if os2.copier().has_crashed() {
                    r2.set(r2.get() + 1);
                    let new_svc = os2.install_copier(vec![Rc::clone(&score)], cfg2.clone());
                    lib2.reattach(&score, &new_svc).await;
                }
                h2.sleep(Nanos(5_000)).await;
            }
        });
    }

    let counters: Vec<Rc<Cell<u64>>> = (0..case.ncopies).map(|_| Rc::new(Cell::new(0))).collect();
    let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let d2 = Rc::clone(&descrs);
        let lib2 = Rc::clone(&lib);
        let os2 = Rc::clone(&os);
        let h2 = h.clone();
        let done2 = Rc::clone(&done);
        let counters2 = counters.clone();
        let core = os.machine.core(0);
        let bufs2 = bufs.clone();
        sim.spawn("client", async move {
            for (i, &(src, dst)) in bufs2.iter().enumerate() {
                let c = Rc::clone(&counters2[i]);
                let opts = AmemcpyOpts {
                    func: Some(Handler::UFunc(Rc::new(move || c.set(c.get() + 1)))),
                    ..Default::default()
                };
                // Default quotas are far above this workload; a rejection
                // here would itself be a bug.
                let d = lib2
                    ._amemcpy(&core, dst, src, len, opts)
                    .await
                    .expect("admitted");
                d2.borrow_mut().push(d);
            }
            let _ = lib2.csync_all(&core).await;
            // Handlers for the last finalized batch may still be a round
            // away (finalize can trail the final segment mark by one
            // completion scan — possibly under a restarted incarnation).
            // Drain with a bounded budget; a genuinely lost handler
            // leaves its counter at zero and fails the property below.
            let mut spins = 0u32;
            loop {
                let _ = lib2.post_handlers(&core).await;
                let missing = counters2.iter().any(|c| c.get() == 0);
                if !missing || spins >= 2_000 {
                    break;
                }
                spins += 1;
                h2.sleep(Nanos(2_000)).await;
            }
            done2.set(true);
            os2.copier().stop();
        });
    }
    let end = sim.run();
    let svc = os.copier();

    let mut per_copy = Vec::new();
    let mut wrong_bytes = Vec::new();
    let mut digest = FNV_OFFSET;
    for (i, d) in descrs.borrow().iter().enumerate() {
        let expected = pattern(i, case.seed, len);
        let (_src, dst) = bufs[i];
        let mut got = vec![0u8; len];
        uspace.read_bytes(dst, &mut got).unwrap();
        if d.fault().is_none() && got != expected {
            wrong_bytes.push(i);
        }
        digest = fnv_bytes(digest, &got);
        per_copy.push((d.fault(), d.all_ready(), counters[i].get()));
    }

    // Teardown invariants for every crash run, regardless of which
    // property the caller asserts on: recovery must leave nothing pinned
    // and the address index must still mirror each set's window.
    assert_no_pinned_leaks(&os.pm);
    if let Err(msg) = lib.client.index_consistent() {
        panic!(
            "pending index diverged after crash run (seed {}): {msg}",
            case.seed
        );
    }

    (
        CrashOutcome {
            end: end.as_nanos(),
            stats: stats_key(&svc),
            log: plan.log(),
            per_copy,
            wrong_bytes,
            digest,
            restarts: restarts.get(),
            epoch: svc.epoch(),
            credits: (lib.client.credits.get(), lib.client.view().credit_cap),
            pinned: os.pm.pinned_frames(),
            store_len: store.len(),
        },
        tracer,
    )
}

/// Per-case exactly-once checks shared by the property and the replay
/// acceptance test.
fn assert_exactly_once(case: &CrashCase, out: &CrashOutcome) -> Result<(), String> {
    for (i, (fault, ready, fired)) in out.per_copy.iter().enumerate() {
        match fault {
            None => {
                prop_assert!(*ready, "copy {i} has no fault but unfinished segments");
                prop_assert_eq!(
                    *fired,
                    1u64,
                    "copy {i} handler fired {fired} times (seed {})",
                    case.seed
                );
            }
            Some(f) => {
                // A poisoned task settles without a duplicate delivery;
                // its handler runs at most once (through the same claim).
                prop_assert!(
                    *fired <= 1,
                    "faulted copy {i} ({f:?}) delivered {fired} times"
                );
            }
        }
    }
    prop_assert!(
        out.wrong_bytes.is_empty(),
        "fault-free copies with wrong destination bytes: {:?} (seed {})",
        out.wrong_bytes,
        case.seed
    );
    prop_assert_eq!(
        out.credits.0,
        out.credits.1,
        "credits not fully returned (seed {})",
        case.seed
    );
    prop_assert_eq!(out.pinned, 0, "leaked pins (seed {})", case.seed);
    // Every fired crash is answered by a restart, except one that lands
    // after the client finished (the supervisor sees `done` first).
    prop_assert!(
        out.restarts == out.log.crashes || out.restarts + 1 == out.log.crashes,
        "restarts {} vs crashes {} (seed {})",
        out.restarts,
        out.log.crashes,
        case.seed
    );
    // Each incarnation bumps the journal epoch exactly once.
    prop_assert_eq!(
        out.epoch,
        out.restarts + 1,
        "epoch does not match incarnation count (seed {})",
        case.seed
    );
    Ok(())
}

/// Tentpole property: across ≥500 seeded crash schedules, every admitted
/// task completes exactly once — handler fired once, credit returned,
/// bytes correct — or is poisoned with a typed fault; no pin leaks, no
/// duplicate deliveries, and the journal epoch tracks incarnations.
#[test]
fn crash_recovery_completes_exactly_once() {
    let mut c = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        c.cases = 500;
    }
    let total_crashes = Rc::new(Cell::new(0u64));
    let tc = Rc::clone(&total_crashes);
    check_with(
        &c,
        gen_case,
        |_| Vec::new(),
        move |case: &CrashCase| {
            let out = run_crash(case);
            tc.set(tc.get() + out.log.crashes);
            assert_exactly_once(case, &out)
        },
    );
    // The schedule space must actually have crashed the service, or the
    // whole property is vacuous.
    assert!(
        total_crashes.get() > 0,
        "no crashes fired across the schedule space"
    );
}

/// Journal transparency: the same crash-free workload, with and without
/// a journal, is byte-identical — same virtual end time, same stats,
/// same destination memory. Journaling writes are host-side only and
/// must not perturb the simulated timeline.
#[test]
fn crash_free_journaled_run_is_byte_identical() {
    fn quiet_run(seed: u64, journal: bool) -> (u64, Vec<u64>, u64, usize) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 4096);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            dma_transient_prob: 0.3,
            dma_timeout_prob: 0.1,
            atc_stale_prob: 0.3,
            ..Default::default()
        });
        let store = JournalStore::new();
        let svc = os.install_copier(
            vec![os.machine.core(1)],
            CopierConfig {
                use_dma: true,
                dma_channels: 2,
                journal: journal.then(|| Rc::clone(&store)),
                fault_plan: Some(Rc::clone(&plan)),
                ..Default::default()
            },
        );
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let len = 16 * PAGE_SIZE;
        let mut bufs = Vec::new();
        for i in 0..4usize {
            let src = uspace.mmap(len, Prot::RW, true).unwrap();
            let dst = uspace.mmap(len, Prot::RW, true).unwrap();
            uspace.write_bytes(src, &pattern(i, seed, len)).unwrap();
            bufs.push((src, dst));
        }
        let lib2 = Rc::clone(&lib);
        let svc2 = Rc::clone(&svc);
        let core = os.machine.core(0);
        let bufs2 = bufs.clone();
        sim.spawn("client", async move {
            for &(src, dst) in &bufs2 {
                let _ = lib2.amemcpy(&core, dst, src, len).await;
            }
            let _ = lib2.csync_all(&core).await;
            svc2.stop();
        });
        let end = sim.run();
        let mut digest = FNV_OFFSET;
        let mut got = vec![0u8; len];
        for &(_src, dst) in &bufs {
            uspace.read_bytes(dst, &mut got).unwrap();
            digest = fnv_bytes(digest, &got);
        }
        (end.as_nanos(), stats_key(&svc), digest, store.len())
    }

    for seed in [0xC0DE_0001u64, 0xC0DE_0002, 0xC0DE_0003] {
        let (end_j, stats_j, digest_j, store_j) = quiet_run(seed, true);
        let (end_p, stats_p, digest_p, store_p) = quiet_run(seed, false);
        assert_eq!(
            end_j, end_p,
            "seed {seed:#x}: journaling moved virtual time"
        );
        assert_eq!(stats_j, stats_p, "seed {seed:#x}: journaling changed stats");
        assert_eq!(
            digest_j, digest_p,
            "seed {seed:#x}: journaling changed memory"
        );
        assert!(store_j > 0, "journaled run wrote nothing durable");
        assert_eq!(store_p, 0, "journal-free run wrote a journal");
    }
}

/// Torn-destination reconciliation: a journaled-live task absent from
/// every window (its Complete record died with the old incarnation)
/// whose destination matches neither the pre-copy digest nor the source
/// digest is poisoned [`CopyFault::Torn`] at adoption. The taint walls
/// off dependent reads until the range is fully overwritten.
#[test]
fn torn_destination_is_poisoned_at_recovery() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);

    // Incarnation 1 runs journal-free: the store is hand-built below to
    // stage exactly the crash shape this test needs (a finalized entry
    // whose Complete record was lost).
    let svc1 = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
    let proc = os.spawn_process();
    let lib: Rc<CopierHandle> = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = 2 * PAGE_SIZE;
    let src = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = uspace.mmap(len, Prot::RW, true).unwrap();
    let spare = uspace.mmap(len, Prot::RW, true).unwrap();
    uspace.write_bytes(src, &pattern(0, 0x70AD, len)).unwrap();

    // The dead incarnation's journal: one admitted copy src→dst with
    // digests sampled at admission time (dst untouched).
    let store = JournalStore::new();
    {
        let (j, recovered) = Journal::attach(&store);
        assert_eq!(recovered.records, 0, "fresh store must be empty");
        j.record_admit(AdmitRec {
            tid: 1,
            client: lib.client.id,
            set_idx: 0,
            key: (u64::MAX, 1, 1),
            dst_space: uspace.id(),
            dst: dst.0,
            src_space: uspace.id(),
            src: src.0,
            len: len as u64,
            seg: PAGE_SIZE as u64,
            dst_digest: uspace.extent_digest(dst, len, false),
            src_digest: uspace.extent_digest(src, len, false),
        });
        j.flush();
        assert!(!store.is_empty(), "staged admit must reach the store");
    }
    // The torn write: the crash left only half the head page copied, so
    // the extent digest now matches neither journaled side.
    uspace.write_bytes(dst, &vec![0xAB; PAGE_SIZE / 2]).unwrap();

    svc1.stop();
    let svc2 = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            journal: Some(Rc::clone(&store)),
            ..Default::default()
        },
    );
    let lib2 = Rc::clone(&lib);
    let svc3 = Rc::clone(&svc2);
    let core = os.machine.core(0);
    sim.spawn("client", async move {
        let resubmitted = lib2.reattach(&core, &svc3).await;
        assert_eq!(resubmitted, 0, "no window entries existed to drop");
        assert_eq!(
            svc3.stats().torn_poisoned,
            1,
            "torn destination not detected at adoption"
        );
        assert_eq!(
            lib2.client.view().epoch,
            svc3.epoch(),
            "client epoch not restamped"
        );

        // A dependent read from the torn range is walled off (§4.4).
        let d = lib2
            .amemcpy(&core, spare, dst, len)
            .await
            .expect("admitted");
        let _ = lib2.csync_all(&core).await;
        assert_eq!(
            d.fault(),
            Some(CopyFault::Torn),
            "dependent of a torn range must inherit the Torn poison"
        );

        // A full overwrite heals the taint; reads flow again.
        let d2 = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
        let _ = lib2.csync_all(&core).await;
        assert_eq!(d2.fault(), None, "healing overwrite must complete");
        let d3 = lib2
            .amemcpy(&core, spare, dst, len)
            .await
            .expect("admitted");
        let _ = lib2.csync_all(&core).await;
        assert_eq!(d3.fault(), None, "read after heal must complete");
        svc3.stop();
    });
    sim.run();

    let mut got = vec![0u8; len];
    uspace.read_bytes(spare, &mut got).unwrap();
    assert_eq!(
        got,
        pattern(0, 0x70AD, len),
        "healed bytes must flow through"
    );
    assert_no_pinned_leaks(&os.pm);
}

/// Reproducibility acceptance: a crashed run records to a `.cptr` trace
/// that (a) contains crash draws and (b) replays byte-identically —
/// same outcome, no divergence, and a re-recorded log that encodes to
/// the same bytes.
#[test]
fn crash_record_replay_identical() {
    let mut c = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        c.cases = 8; // each case runs two full crashing sims
    }
    check_with(
        &c,
        |rng| {
            let mut case = gen_case(rng);
            case.crash_prob = 0.3 + rng.gen_f64() * 0.4; // bias toward crashing
            case
        },
        |_| Vec::new(),
        |case: &CrashCase| {
            let (a, rec) = run_crash_traced(case, TraceMode::Record);
            let trace = rec.unwrap().finish();
            prop_assert!(!trace.events().is_empty(), "recorded nothing");
            let (b, rep) = run_crash_traced(case, TraceMode::Replay(trace.clone()));
            let rep = rep.unwrap();
            prop_assert!(
                rep.divergence().is_none(),
                "faithful replay diverged: {}",
                rep.divergence().unwrap()
            );
            prop_assert_eq!(a, b, "replayed outcome differs from recorded run");
            prop_assert_eq!(
                rep.finish().encode(),
                trace.encode(),
                "re-recorded trace is not byte-identical"
            );
            Ok(())
        },
    );
}

/// §4.6 availability fallback + client-side resubmission: while the
/// service is down the library copies synchronously on the caller's
/// core; at re-attach, the entry whose admission never became durable is
/// resubmitted and runs under the new incarnation — each side delivered
/// exactly once, with the journal epoch advanced.
#[test]
fn sync_fallback_and_resubmission_across_restart() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let store = JournalStore::new();
    // crash_prob 1.0, max_crashes 1: the first drained batch kills the
    // service at MidDrain deterministically; the restart runs clean.
    let plan = FaultPlan::new(FaultConfig {
        seed: 0x5FB0_FA11,
        crash_prob: 1.0,
        max_crashes: 1,
        ..Default::default()
    });
    let cfg = CopierConfig {
        journal: Some(Rc::clone(&store)),
        fault_plan: Some(Rc::clone(&plan)),
        ..Default::default()
    };
    os.install_copier(vec![os.machine.core(1)], cfg.clone());
    let proc = os.spawn_process();
    let lib: Rc<CopierHandle> = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = 2 * PAGE_SIZE;
    let src1 = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst1 = uspace.mmap(len, Prot::RW, true).unwrap();
    let src2 = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst2 = uspace.mmap(len, Prot::RW, true).unwrap();
    uspace.write_bytes(src1, &pattern(1, 0x5FB0, len)).unwrap();
    uspace.write_bytes(src2, &pattern(2, 0x5FB0, len)).unwrap();

    let c1 = Rc::new(Cell::new(0u64));
    let c2 = Rc::new(Cell::new(0u64));
    let (c1b, c2b) = (Rc::clone(&c1), Rc::clone(&c2));
    let lib2 = Rc::clone(&lib);
    let os2 = Rc::clone(&os);
    let h2 = h.clone();
    let core0 = os.machine.core(0);
    let core1 = os.machine.core(1);
    sim.spawn("client", async move {
        let opts1 = AmemcpyOpts {
            func: Some(Handler::UFunc(Rc::new(move || c1b.set(c1b.get() + 1)))),
            ..Default::default()
        };
        let d1 = lib2
            ._amemcpy(&core0, dst1, src1, len, opts1)
            .await
            .expect("admitted");
        // The drain of that submission is the service's death sentence.
        while !lib2.service().has_crashed() {
            h2.sleep(Nanos(1_000)).await;
        }
        let old_epoch = lib2.service().epoch();

        // Crash window: the copy runs synchronously on this core, the
        // handler fires inline, and no credit is consumed.
        let opts2 = AmemcpyOpts {
            func: Some(Handler::UFunc(Rc::new(move || c2b.set(c2b.get() + 1)))),
            ..Default::default()
        };
        let d2 = lib2
            ._amemcpy(&core0, dst2, src2, len, opts2)
            .await
            .expect("sync fallback");
        assert_eq!(lib2.sync_fallbacks(), 1, "crash window must copy inline");
        assert!(
            d2.all_ready(),
            "sync fallback returns a completed descriptor"
        );
        assert_eq!(c2.get(), 1, "inline handler must have fired");

        // Restart: the MidDrain crash killed the admission before it
        // became durable, so adoption drops it and reattach resubmits.
        let new_svc = os2.install_copier(vec![Rc::clone(&core1)], cfg.clone());
        let resubmitted = lib2.reattach(&core0, &new_svc).await;
        assert_eq!(
            resubmitted, 1,
            "the undurable admission must be resubmitted"
        );
        assert_eq!(
            new_svc.epoch(),
            old_epoch + 1,
            "restart must advance the epoch"
        );
        assert_eq!(lib2.client.view().epoch, new_svc.epoch());

        let _ = lib2.csync_all(&core0).await;
        let mut spins = 0u32;
        while c1.get() == 0 && spins < 2_000 {
            let _ = lib2.post_handlers(&core0).await;
            h2.sleep(Nanos(2_000)).await;
            spins += 1;
        }
        assert_eq!(d1.fault(), None, "resubmitted copy must complete");
        assert!(d1.all_ready(), "resubmitted copy must finish all segments");
        assert_eq!(c1.get(), 1, "resubmitted copy delivers exactly once");
        new_svc.stop();
    });
    sim.run();

    assert_eq!(plan.log().crashes, 1, "exactly one crash must have fired");
    let mut got = vec![0u8; len];
    uspace.read_bytes(dst1, &mut got).unwrap();
    assert_eq!(got, pattern(1, 0x5FB0, len), "resubmitted copy bytes");
    uspace.read_bytes(dst2, &mut got).unwrap();
    assert_eq!(got, pattern(2, 0x5FB0, len), "sync-fallback bytes");
    assert_eq!(
        lib.client.credits.get(),
        lib.client.view().credit_cap,
        "credits must be fully returned (fallback takes none)"
    );
    assert_no_pinned_leaks(&os.pm);
    lib.client.index_consistent().expect("index consistent");
}
