//! End-to-end data integrity suite: seeded silent-corruption schedules
//! against the full service stack (DESIGN.md §16).
//!
//! Every run drives real client traffic (amemcpy/csync_all) through a
//! Copier whose DMA engine silently corrupts transfers — bit flips and
//! misdirected writes that still report success — under a seeded
//! [`FaultPlan`] oracle. The properties assert the integrity contract:
//!
//! 1. under `VerifyPolicy::Full`, no corruption is ever silent: every
//!    injected hit is either repaired before the descriptor completes or
//!    surfaced as a typed [`CopyFault::Corrupted`] poison;
//! 2. crash-free uncorrupted runs produce zero detections (no false
//!    positives) and verification charges no virtual time — `Off` and
//!    `Full` end at the identical virtual timestamp;
//! 3. completion handlers fire exactly once per submission, repaired or
//!    poisoned alike, and pins never leak;
//! 4. the same seed reproduces byte-identical outcomes, and a recorded
//!    corrupted run replays byte-identically from its `.cptr` trace.
//!
//! Reproduce any failure with the `TESTKIT_REPRO=<case seed>` line the
//! runner prints. The committed corpus under `tests/repros/` is replayed
//! by `repro_corpus_replays_identically` (the `REPRO_REPLAY` verify
//! gate); regenerate it with `REPRO_RECORD=1 cargo test -q --test
//! integrity record_repro_corpus`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{
    Copier, CopierConfig, CopyFault, Handler, PollMode, SegDescriptor, VerifyPolicy,
};
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::wire::{fnv_bytes, FNV_OFFSET};
use copier::sim::{
    FaultConfig, FaultLog, FaultPlan, Machine, Nanos, Sim, Trace, TraceEvent, Tracer,
};
use copier_testkit::prop::{check_with, Config};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// One randomized integrity scenario.
#[derive(Debug, Clone)]
struct IntegrityCase {
    seed: u64,
    channels: usize,
    ncopies: usize,
    len: usize,
    flip: f64,
    misdirect: f64,
    policy: VerifyPolicy,
}

/// Corruption-heavy case generator: both corruption classes enabled at
/// rates high enough that most schedules inject at least one hit.
fn gen_corrupt_case(rng: &mut TestRng) -> IntegrityCase {
    IntegrityCase {
        seed: rng.next_u64(),
        channels: rng.range_usize(1, 4),
        ncopies: rng.range_usize(2, 6),
        len: rng.range_usize(1, 4) * 8 * 1024 + rng.range_usize(0, 4) * 1024,
        flip: if rng.gen_bool(0.8) {
            0.05 + rng.gen_f64() * 0.6
        } else {
            0.0
        },
        misdirect: if rng.gen_bool(0.5) {
            rng.gen_f64() * 0.4
        } else {
            0.0
        },
        policy: VerifyPolicy::Full,
    }
}

/// Corruption-free variant of the same workload space.
fn gen_clean_case(rng: &mut TestRng) -> IntegrityCase {
    IntegrityCase {
        flip: 0.0,
        misdirect: 0.0,
        ..gen_corrupt_case(rng)
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
        v.push((x >> 33) as u8);
    }
    v
}

/// Everything a run produces that must be reproducible from the seed.
#[derive(Debug, PartialEq)]
struct Outcome {
    end: u64,
    stats: Vec<u64>,
    log: FaultLog,
    /// Per copy: final fault (if any) and whether the destination bytes
    /// match the source pattern exactly.
    per_copy: Vec<(Option<CopyFault>, bool)>,
    /// Handler deliveries per copy (exactly-once contract: each is 1).
    handler_fires: Vec<u32>,
    /// FNV fold over every destination buffer's final bytes.
    digest: u64,
    /// Frames still pinned after the run (must be 0).
    pinned: usize,
    /// Silent escapes: copies that completed clean but whose destination
    /// bytes differ from the source.
    escapes: Vec<String>,
}

fn stats_key(svc: &Rc<Copier>) -> Vec<u64> {
    let s = svc.stats();
    vec![
        s.tasks_completed,
        s.bytes_copied,
        s.bytes_absorbed,
        s.faults,
        s.dispatch.dma_bytes as u64,
        s.dispatch.dma_descriptors as u64,
        s.dispatch.retries,
        s.dispatch.fallback_bytes as u64,
        s.dispatch.corruptions,
        s.dispatch.repairs,
        s.corrupted_poisoned,
        s.corrupt_quarantined,
        s.quarantined_channels,
        s.credits_granted,
        s.scrub_chunks,
        s.scrub_heals,
        s.scrub_unrepairable,
    ]
}

/// Trace keys carrying the case in a recorded `.cptr` prologue, so the
/// committed repro corpus is self-describing.
mod meta {
    pub const SEED: u32 = 0x10;
    pub const CHANNELS: u32 = 0x11;
    pub const NCOPIES: u32 = 0x12;
    pub const LEN: u32 = 0x13;
    pub const FLIP: u32 = 0x14;
    pub const MISDIRECT: u32 = 0x15;
    pub const POLICY: u32 = 0x16;
}

fn policy_code(p: VerifyPolicy) -> u64 {
    match p {
        VerifyPolicy::Off => 0,
        VerifyPolicy::Sampled => 1,
        VerifyPolicy::Full => 2,
    }
}

fn case_meta(case: &IntegrityCase) -> Vec<(u32, u64)> {
    vec![
        (meta::SEED, case.seed),
        (meta::CHANNELS, case.channels as u64),
        (meta::NCOPIES, case.ncopies as u64),
        (meta::LEN, case.len as u64),
        (meta::FLIP, case.flip.to_bits()),
        (meta::MISDIRECT, case.misdirect.to_bits()),
        (meta::POLICY, policy_code(case.policy)),
    ]
}

fn case_from_trace(trace: &Trace) -> IntegrityCase {
    let get = |k: u32| trace.meta(k).expect("trace lacks a case Meta key");
    IntegrityCase {
        seed: get(meta::SEED),
        channels: get(meta::CHANNELS) as usize,
        ncopies: get(meta::NCOPIES) as usize,
        len: get(meta::LEN) as usize,
        flip: f64::from_bits(get(meta::FLIP)),
        misdirect: f64::from_bits(get(meta::MISDIRECT)),
        policy: match get(meta::POLICY) {
            0 => VerifyPolicy::Off,
            1 => VerifyPolicy::Sampled,
            _ => VerifyPolicy::Full,
        },
    }
}

enum TraceMode {
    Off,
    Record,
    Replay(Trace),
}

fn run_integrity(case: &IntegrityCase) -> Outcome {
    run_integrity_traced(case, TraceMode::Off).0
}

fn run_integrity_traced(case: &IntegrityCase, mode: TraceMode) -> (Outcome, Option<Rc<Tracer>>) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed: case.seed,
        dma_flip_prob: case.flip,
        dma_misdirect_prob: case.misdirect,
        ..Default::default()
    });
    let tracer = match mode {
        TraceMode::Off => None,
        TraceMode::Record => Some(Tracer::record()),
        TraceMode::Replay(trace) => Some(Tracer::replay(trace)),
    };
    if let Some(t) = &tracer {
        for (key, val) in case_meta(case) {
            t.emit(TraceEvent::Meta { key, val });
        }
        plan.set_tracer(t);
    }
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            use_dma: true,
            dma_channels: case.channels,
            fault_plan: Some(Rc::clone(&plan)),
            verify: case.policy,
            tracer: tracer.clone(),
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);

    let mut bufs = Vec::new();
    let mut fires: Vec<Rc<Cell<u32>>> = Vec::new();
    for i in 0..case.ncopies {
        let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
        uspace
            .write_bytes(src, &pattern(i, case.seed, case.len))
            .unwrap();
        bufs.push((src, dst));
        fires.push(Rc::new(Cell::new(0)));
    }

    let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
    let d2 = Rc::clone(&descrs);
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let bufs2 = bufs.clone();
    let fires2 = fires.clone();
    let len = case.len;
    let h2 = h.clone();
    sim.spawn("client", async move {
        for (i, &(src, dst)) in bufs2.iter().enumerate() {
            let fired = Rc::clone(&fires2[i]);
            let opts = AmemcpyOpts {
                func: Some(Handler::UFunc(Rc::new(move || {
                    fired.set(fired.get() + 1);
                }))),
                ..Default::default()
            };
            let d = lib2
                ._amemcpy(&core, dst, src, len, opts)
                .await
                .expect("admitted");
            d2.borrow_mut().push(d);
        }
        let _ = lib2.csync_all(&core).await;
        // csync returns when the segments are marked; handler delivery
        // lands at finalize, up to a few rounds later (repair can extend
        // the round). Drain until every submission's handler ran — the
        // loop is virtual-time bounded and seed-deterministic.
        for _ in 0..200 {
            if fires2.iter().all(|f| f.get() > 0) {
                break;
            }
            h2.sleep(Nanos(2_000)).await;
            let _ = lib2.post_handlers(&core).await;
        }
        svc2.stop();
    });
    let end = sim.run();

    let mut escapes = Vec::new();
    let mut per_copy = Vec::new();
    let mut digest = FNV_OFFSET;
    for (i, d) in descrs.borrow().iter().enumerate() {
        let expected = pattern(i, case.seed, case.len);
        let (_src, dst) = bufs[i];
        let mut got = vec![0u8; case.len];
        uspace.read_bytes(dst, &mut got).unwrap();
        let intact = got == expected;
        if d.fault().is_none() && d.all_ready() && !intact {
            escapes.push(format!(
                "copy {i} completed clean but bytes differ (seed {})",
                case.seed
            ));
        }
        digest = fnv_bytes(digest, &got);
        per_copy.push((d.fault(), intact));
    }

    assert_no_pinned_leaks(&os.pm);

    (
        Outcome {
            end: end.as_nanos(),
            stats: stats_key(&svc),
            log: plan.log(),
            per_copy,
            handler_fires: fires.iter().map(|f| f.get()).collect(),
            digest,
            pinned: os.pm.pinned_frames(),
            escapes,
        },
        tracer,
    )
}

fn prop_cases(default: u32) -> Config {
    let mut c = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        c.cases = default;
    }
    c
}

/// Tentpole property: under `VerifyPolicy::Full`, silent corruption
/// never escapes. Every copy either completes with its destination bytes
/// exactly matching the source (possibly via automatic repair) or is
/// poisoned with the typed `Corrupted` fault — across hundreds of seeded
/// corruption schedules. Handlers fire exactly once and pins never leak
/// on every one of them.
#[test]
fn full_verify_detects_or_heals_every_corruption() {
    check_with(
        &prop_cases(300),
        gen_corrupt_case,
        |_| Vec::new(),
        |case: &IntegrityCase| {
            let out = run_integrity(case);
            prop_assert!(out.escapes.is_empty(), "silent escapes: {:?}", out.escapes);
            for (i, &(fault, intact)) in out.per_copy.iter().enumerate() {
                prop_assert!(
                    intact || fault == Some(CopyFault::Corrupted),
                    "copy {} damaged without a Corrupted poison: fault {:?}",
                    i,
                    fault
                );
            }
            for (i, &n) in out.handler_fires.iter().enumerate() {
                prop_assert_eq!(n, 1, "copy {} handler fired {} times", i, n);
            }
            prop_assert_eq!(out.pinned, 0, "leaked pins");
            Ok(())
        },
    );
}

/// Zero false positives: with both corruption classes disabled, `Full`
/// verification detects nothing, repairs nothing, poisons nothing — and
/// every copy lands byte-exact.
#[test]
fn clean_runs_are_false_positive_free() {
    check_with(
        &prop_cases(120),
        gen_clean_case,
        |_| Vec::new(),
        |case: &IntegrityCase| {
            let out = run_integrity(case);
            // stats_key indices 8..11: corruptions, repairs,
            // corrupted_poisoned, corrupt_quarantined.
            prop_assert_eq!(out.stats[8], 0, "false-positive corruption detections");
            prop_assert_eq!(out.stats[9], 0, "phantom repairs");
            prop_assert_eq!(out.stats[10], 0, "phantom Corrupted poisons");
            prop_assert_eq!(out.stats[11], 0, "phantom corruption quarantines");
            for (i, &(fault, intact)) in out.per_copy.iter().enumerate() {
                prop_assert!(fault.is_none() && intact, "clean copy {} damaged", i);
            }
            prop_assert_eq!(out.log.dma_flips, 0);
            prop_assert_eq!(out.log.dma_misdirects, 0);
            Ok(())
        },
    );
}

/// Same seed, byte-identical outcome — with corruption, verification,
/// and repair all active.
#[test]
fn corrupted_runs_are_seed_deterministic() {
    check_with(
        &prop_cases(40),
        gen_corrupt_case,
        |_| Vec::new(),
        |case: &IntegrityCase| {
            let a = run_integrity(case);
            let b = run_integrity(case);
            prop_assert_eq!(a, b, "seeded corrupted run not reproducible");
            Ok(())
        },
    );
}

/// Verification is host-side only: on corruption-free runs, `Off` and
/// `Full` end at the identical virtual timestamp with identical stats
/// and memory — digesting charges no virtual time and consumes no PRNG
/// draw.
#[test]
fn verify_policy_charges_no_virtual_time() {
    check_with(
        &prop_cases(40),
        gen_clean_case,
        |_| Vec::new(),
        |case: &IntegrityCase| {
            let off = run_integrity(&IntegrityCase {
                policy: VerifyPolicy::Off,
                ..case.clone()
            });
            let full = run_integrity(&IntegrityCase {
                policy: VerifyPolicy::Full,
                ..case.clone()
            });
            prop_assert_eq!(
                off.end,
                full.end,
                "verification shifted the virtual timeline"
            );
            prop_assert_eq!(off, full, "verification changed a clean run's outcome");
            Ok(())
        },
    );
}

/// Corruption draws record and replay through the `.cptr` trace layer: a
/// recorded corrupted run replays byte-identically — same outcome, no
/// divergence, and the re-recorded trace encodes to the same bytes.
#[test]
fn record_replay_covers_corruption_draws() {
    check_with(
        &prop_cases(20),
        gen_corrupt_case,
        |_| Vec::new(),
        |case: &IntegrityCase| {
            let (a, rec) = run_integrity_traced(case, TraceMode::Record);
            let trace = rec.unwrap().finish();
            let (b, rep) = run_integrity_traced(case, TraceMode::Replay(trace.clone()));
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

// ---------------------------------------------------------------------
// Scrubber: background rot detection and healing.
// ---------------------------------------------------------------------

/// Boots a service with bit-rot injection aimed at a registered scrub
/// region and keeps traffic flowing long enough for the walker to act.
/// Returns `(svc, heals, unrepairable, scrub_chunks)` style observations
/// via the service stats.
fn run_scrub(seed: u64, damage_replica: bool, kill_at: Option<Nanos>) -> (Vec<u64>, usize, bool) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed,
        rot_prob: 0.9,
        ..Default::default()
    });
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            use_dma: true,
            fault_plan: Some(Rc::clone(&plan)),
            verify: VerifyPolicy::Full,
            scrub_period: 2,
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);

    let region = 16 * 1024usize;
    let primary = uspace.mmap(region, Prot::RW, true).unwrap();
    let replica = uspace.mmap(region, Prot::RW, true).unwrap();
    let golden = pattern(7, seed, region);
    uspace.write_bytes(primary, &golden).unwrap();
    uspace.write_bytes(replica, &golden).unwrap();
    lib.register_scrub(primary, replica, region, 4 * 1024);
    if damage_replica {
        // Every replica chunk is damaged, so the first rot the walker
        // finds is unrepairable no matter which chunk it lands in.
        let mut bad = golden.clone();
        for b in bad.iter_mut().step_by(512) {
            *b ^= 0x40;
        }
        uspace.write_bytes(replica, &bad).unwrap();
    }

    // Post-death handlers would be a bug: UFuncs only run from the
    // client's own post_handlers loop, which stops at the kill.
    let watched_client = Rc::clone(&lib.client);

    if let Some(t) = kill_at {
        let svc2 = Rc::clone(&svc);
        let lib2 = Rc::clone(&lib);
        let h2 = h.clone();
        sim.spawn("killer", async move {
            h2.sleep(t).await;
            svc2.reap_client(&lib2.client);
        });
    }

    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let len = 8 * 1024usize;
    let src = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = uspace.mmap(len, Prot::RW, true).unwrap();
    uspace.write_bytes(src, &pattern(1, seed, len)).unwrap();
    sim.spawn("client", async move {
        // Steady background traffic keeps the service polling (and the
        // scrub walker ticking) across many rounds.
        for _ in 0..60 {
            let fired_dead = Rc::clone(&watched_client);
            let opts = AmemcpyOpts {
                func: Some(Handler::UFunc(Rc::new(move || {
                    assert!(
                        !fired_dead.view().dead,
                        "handler fired for a dead client (post-reap delivery)"
                    );
                }))),
                ..Default::default()
            };
            if lib2._amemcpy(&core, dst, src, len, opts).await.is_err() {
                break;
            }
            if lib2.csync(&core, dst, len).await.is_err() {
                break;
            }
            if lib2.client.view().dead {
                break;
            }
        }
        svc2.stop();
    });
    sim.run();

    assert_no_pinned_leaks(&os.pm);
    let s = svc.stats();
    let primary_ok = {
        let mut got = vec![0u8; region];
        uspace.read_bytes(primary, &mut got).unwrap();
        got == golden
    };
    (
        vec![
            s.scrub_chunks,
            s.scrub_heals,
            s.scrub_unrepairable,
            s.corrupt_quarantined,
            s.quarantined_channels,
        ],
        os.pm.pinned_frames(),
        primary_ok,
    )
}

/// The scrubber walks registered regions, finds injected bit-rot, and
/// heals it from the intact replica through ordinary copy tasks.
#[test]
fn scrubber_heals_rot_from_replica() {
    let (s, pinned, _) = run_scrub(0xB17_207, false, None);
    assert!(s[0] > 0, "scrub walker never ran (chunks {})", s[0]);
    assert!(s[1] > 0, "rot injected every round but nothing healed");
    assert_eq!(s[2], 0, "intact replica misreported as unrepairable");
    assert_eq!(pinned, 0);
}

/// A rotted chunk whose replica is also damaged is unrepairable: the
/// walker remembers a `Corrupted` taint, retires the chunk, and never
/// claims a heal.
#[test]
fn scrubber_surfaces_unrepairable_rot() {
    let (s, pinned, _) = run_scrub(0xDEAD_1207, true, None);
    assert!(s[0] > 0, "scrub walker never ran");
    assert!(s[2] > 0, "damaged replica never surfaced as unrepairable");
    assert_eq!(pinned, 0);
}

/// Satellite: `reap_client` racing an in-flight scrub/heal pipeline.
/// The kill lands mid-workload while rot injection and the walker are
/// active; afterwards no pins survive, the quarantine counters stay
/// consistent (corruption quarantines are a subset of dead channels),
/// and no completion handler fires for the dead client.
#[test]
fn reap_races_inflight_scrub_and_repair() {
    for (i, t) in [60_000u64, 180_000, 400_000, 900_000]
        .into_iter()
        .enumerate()
    {
        let (s, pinned, _) = run_scrub(0x5EED_0000 + i as u64, i % 2 == 1, Some(Nanos(t)));
        assert_eq!(pinned, 0, "kill at {t}ns leaked pins");
        assert!(
            s[3] <= s[4],
            "corrupt quarantines ({}) exceed dead channels ({})",
            s[3],
            s[4]
        );
    }
}

/// Client-facing surface: `amemcpy_verified` forces Full verification
/// per task even when the service-wide policy is `Off`, and
/// `integrity_stats` accounts for the submissions and every surfaced
/// `Corrupted` fault.
#[test]
fn amemcpy_verified_overrides_service_policy_off() {
    let seed = 0x0E11_F1ED_u64;
    let (ncopies, len) = (4usize, 16 * 1024);
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed,
        dma_flip_prob: 0.6,
        dma_misdirect_prob: 0.2,
        ..Default::default()
    });
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            use_dma: true,
            dma_channels: 2,
            fault_plan: Some(Rc::clone(&plan)),
            verify: VerifyPolicy::Off,
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let mut bufs = Vec::new();
    for i in 0..ncopies {
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        uspace.write_bytes(src, &pattern(i, seed, len)).unwrap();
        bufs.push((src, dst));
    }
    let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
    let d2 = Rc::clone(&descrs);
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let bufs2 = bufs.clone();
    let h2 = h.clone();
    sim.spawn("client", async move {
        for &(src, dst) in &bufs2 {
            let d = lib2
                .amemcpy_verified(&core, dst, src, len)
                .await
                .expect("admitted");
            d2.borrow_mut().push(d);
        }
        // Settle before syncing so every verification verdict (poison or
        // successful repair) has landed; each Corrupted fault is then
        // observed exactly once by the csync below.
        h2.sleep(Nanos::from_micros(300)).await;
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    sim.run();

    let log = plan.log();
    assert!(
        log.dma_flips + log.dma_misdirects > 0,
        "seed injected nothing — pick another"
    );
    assert!(
        svc.stats().dispatch.corruptions > 0,
        "Off-policy service must still verify flagged tasks"
    );
    let mut corrupted = 0u64;
    for (i, d) in descrs.borrow().iter().enumerate() {
        match d.fault() {
            Some(CopyFault::Corrupted) => corrupted += 1,
            Some(f) => panic!("unexpected fault {f:?}"),
            None => {
                let mut got = vec![0u8; len];
                uspace.read_bytes(bufs[i].1, &mut got).unwrap();
                assert_eq!(got, pattern(i, seed, len), "copy {i} escaped verification");
            }
        }
    }
    assert_eq!(lib.integrity_stats(), (ncopies as u64, corrupted));
    assert_no_pinned_leaks(&os.pm);
}

/// Copies per tenant, tenants and copy length of
/// `no_shard_drops_a_peers_unrepaired_corruption`.
const SHARDED_COPIES: usize = 40;
const SHARDED_TENANTS: usize = 4;
const SHARDED_LEN: usize = 8 * 1024;

/// One run of four tenants' 8 KiB copies at `shards` shards, every DMA
/// transfer bit-flipped and no channel ever retired, so every repair
/// re-copies on a flipping channel and fails. Returns how many copies
/// ended intact, how many `Corrupted`, and the silent escapes: copies
/// whose descriptor is clean and complete over wrong bytes.
fn run_sharded_flips(seed: u64, shards: usize) -> (usize, usize, Vec<String>) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, SHARDED_TENANTS + shards);
    let os = Os::boot(&h, machine, 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed,
        dma_flip_prob: 1.0,
        ..Default::default()
    });
    os.install_copier(
        (0..shards)
            .map(|i| os.machine.core(SHARDED_TENANTS + i))
            .collect(),
        CopierConfig {
            shards,
            use_dma: true,
            dma_channels: 2,
            fault_plan: Some(plan),
            verify: VerifyPolicy::Full,
            corrupt_quarantine_threshold: 0,
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos(20_000),
            },
            ..Default::default()
        },
    );
    let done = Rc::new(Cell::new(0));
    let mut tenants = Vec::new();
    for t in 0..SHARDED_TENANTS {
        let lib = os.spawn_process().lib();
        let bufs: Vec<_> = (0..SHARDED_COPIES)
            .map(|c| {
                let src = lib.uspace.mmap(SHARDED_LEN, Prot::RW, true).unwrap();
                let dst = lib.uspace.mmap(SHARDED_LEN, Prot::RW, true).unwrap();
                let bytes = pattern(t * SHARDED_COPIES + c, seed, SHARDED_LEN);
                lib.uspace.write_bytes(src, &bytes).unwrap();
                (src, dst)
            })
            .collect();
        let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::default();
        let (lib2, os2, d2, done2) = (
            Rc::clone(&lib),
            Rc::clone(&os),
            Rc::clone(&descrs),
            Rc::clone(&done),
        );
        let (core, bufs2) = (os.machine.core(t), bufs.clone());
        sim.spawn("tenant", async move {
            for &(src, dst) in &bufs2 {
                let d = lib2.amemcpy(&core, dst, src, SHARDED_LEN).await;
                d2.borrow_mut().push(d.expect("admitted"));
            }
            let _ = lib2.csync_all(&core).await;
            done2.set(done2.get() + 1);
            if done2.get() == SHARDED_TENANTS {
                os2.copier().stop();
            }
        });
        tenants.push((lib, bufs, descrs));
    }
    sim.run();
    let (mut intact, mut corrupted, mut escapes) = (0, 0, Vec::new());
    for (t, (lib, bufs, descrs)) in tenants.iter().enumerate() {
        for (c, d) in descrs.borrow().iter().enumerate() {
            let mut got = vec![0u8; SHARDED_LEN];
            lib.uspace.read_bytes(bufs[c].1, &mut got).unwrap();
            let ok = got == pattern(t * SHARDED_COPIES + c, seed, SHARDED_LEN);
            match d.fault() {
                Some(CopyFault::Corrupted) => corrupted += 1,
                Some(f) => panic!("tenant {t} copy {c}: unexpected fault {f:?}"),
                None if ok => intact += 1,
                None => escapes.push(format!(
                    "tenant {t} copy {c} clean (all ready: {}) over wrong bytes \
                     (seed {seed}, {shards} shards)",
                    d.all_ready()
                )),
            }
        }
    }
    assert_no_pinned_leaks(&os.pm);
    (intact, corrupted, escapes)
}

/// An unrepaired corruption is reported to its own task at every shard
/// count. Every DMA transfer is flipped and no channel is retired, so
/// each copy either lands on the CPU alone or is poisoned `Corrupted`;
/// none may end clean over wrong bytes. Mutant this kills: one list of
/// unrepaired task ids shared by every shard's batches, drained by
/// whichever batch ends first and filtered to its own selection, which
/// dropped a peer's ids (80 of 1,600 copies escaped at 2 and at 4
/// shards, none at 1).
#[test]
fn no_shard_drops_a_peers_unrepaired_corruption() {
    for shards in [1, 2, 4] {
        let (mut intact, mut corrupted, mut escapes) = (0, 0, Vec::new());
        for seed in 0..10 {
            let (i, c, e) = run_sharded_flips(seed, shards);
            intact += i;
            corrupted += c;
            escapes.extend(e);
        }
        println!("{shards} shards: {intact} intact, {corrupted} corrupted");
        assert!(
            escapes.is_empty(),
            "{} silent escapes at {shards} shards, first: {}",
            escapes.len(),
            escapes[0]
        );
        assert!(corrupted > 0, "no repair failed: the probe probes nothing");
        assert_eq!(intact + corrupted, 10 * SHARDED_TENANTS * SHARDED_COPIES);
    }
}

// ---------------------------------------------------------------------
// Committed repro corpus (`tests/repros/*.cptr`) — the REPRO_REPLAY gate.
// ---------------------------------------------------------------------

fn repro_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

/// Canonical cases the corpus pins down: one per corruption class plus a
/// mixed multi-channel schedule.
fn corpus_cases() -> Vec<(&'static str, IntegrityCase)> {
    let base = IntegrityCase {
        seed: 0,
        channels: 2,
        ncopies: 4,
        len: 24 * 1024,
        flip: 0.0,
        misdirect: 0.0,
        policy: VerifyPolicy::Full,
    };
    vec![
        (
            "flip",
            IntegrityCase {
                seed: 0xF11_0001,
                flip: 0.35,
                ..base.clone()
            },
        ),
        (
            "misdirect",
            IntegrityCase {
                seed: 0x315_0002,
                misdirect: 0.35,
                ..base.clone()
            },
        ),
        (
            "mixed",
            IntegrityCase {
                seed: 0x3117_0003,
                channels: 3,
                flip: 0.25,
                misdirect: 0.2,
                ..base.clone()
            },
        ),
        (
            "sampled",
            IntegrityCase {
                seed: 0x5A3_0004,
                flip: 0.3,
                policy: VerifyPolicy::Sampled,
                ..base
            },
        ),
    ]
}

/// Corpus writer: `REPRO_RECORD=1 cargo test -q --test integrity
/// record_repro_corpus` re-records every canonical case. A no-op
/// otherwise, so plain `cargo test` never rewrites committed traces.
#[test]
fn record_repro_corpus() {
    if std::env::var("REPRO_RECORD").is_err() {
        return;
    }
    let dir = repro_dir();
    std::fs::create_dir_all(&dir).expect("create tests/repros");
    for (name, case) in corpus_cases() {
        let (_, rec) = run_integrity_traced(&case, TraceMode::Record);
        let path = dir.join(format!("integrity-{name}.cptr"));
        rec.unwrap()
            .finish()
            .save(&path)
            .expect("save corpus trace");
        eprintln!("recorded {}", path.display());
    }
}

/// The REPRO_REPLAY gate: every committed `.cptr` trace under
/// `tests/repros/` replays in lockstep with zero divergence. A failure
/// here means a change altered recorded behaviour — the draw order, the
/// round structure, or the state hashes — for a pinned schedule.
#[test]
fn repro_corpus_replays_identically() {
    let dir = repro_dir();
    let Ok(entries) = std::fs::read_dir(&dir) else {
        panic!("tests/repros/ is missing — run REPRO_RECORD=1 to create the corpus");
    };
    let mut n = 0;
    for entry in entries {
        let path = entry.expect("read tests/repros").path();
        if path.extension().and_then(|e| e.to_str()) != Some("cptr") {
            continue;
        }
        n += 1;
        let trace = Trace::load(&path).expect("load committed trace");
        let case = case_from_trace(&trace);
        let (out, rep) = run_integrity_traced(&case, TraceMode::Replay(trace));
        let rep = rep.unwrap();
        assert!(
            rep.divergence().is_none(),
            "{} diverged: {}",
            path.display(),
            rep.divergence().unwrap()
        );
        assert!(
            out.escapes.is_empty() || case.policy != VerifyPolicy::Full,
            "{} replayed with silent escapes: {:?}",
            path.display(),
            out.escapes
        );
    }
    assert!(n > 0, "tests/repros/ holds no .cptr traces");
}
