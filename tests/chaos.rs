//! Chaos suite: seeded fault schedules against the full service stack.
//!
//! Every run drives real client traffic (amemcpy/csync_all) through a
//! Copier whose DMA engine, ATCache, and client lifetime are interposed
//! by a [`FaultPlan`]. The properties assert the recovery invariants of
//! the fault model (DESIGN.md §Fault model & recovery):
//!
//! 1. no segment is ever marked done without its bytes actually landed;
//! 2. pins never leak — even when the client dies mid-copy;
//! 3. absorption never forwards from a poisoned source (dependents are
//!    aborted in dependency order, §4.4);
//! 4. the same seed reproduces byte-identical stats and memory.
//!
//! Reproduce any failure with the `TESTKIT_REPRO=<case seed>` line the
//! runner prints, e.g. `TESTKIT_REPRO=1234567 cargo test -q --test chaos`.
//! Trace-recording properties additionally save a `.cptr` event log on
//! failure and print a `TRACE_REPLAY=<path>` line; replaying it through
//! `chaos_replay_from_env` re-executes the recorded run in lockstep and
//! reports the first diverging round (DESIGN.md §14).

use std::cell::RefCell;
use std::rc::Rc;

use copier::core::{Copier, CopierConfig, CopyFault, SegDescriptor};
use copier::mem::{Prot, PAGE_SIZE};
use copier::os::Os;
use copier::sim::wire::{fnv_bytes, FNV_OFFSET};
use copier::sim::{
    FaultConfig, FaultLog, FaultPlan, Machine, Nanos, Sim, Trace, TraceEvent, Tracer,
};
use copier_testkit::prop::{check_with, Config};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// One randomized chaos scenario.
#[derive(Debug, Clone)]
struct ChaosCase {
    seed: u64,
    channels: usize,
    ncopies: usize,
    len: usize,
    transient: f64,
    hard: f64,
    timeout: f64,
    stale: f64,
    /// Kill the client mid-flight (orphan reclamation path).
    kill: bool,
}

fn gen_case(rng: &mut TestRng, kill_prob: f64) -> ChaosCase {
    ChaosCase {
        seed: rng.next_u64(),
        channels: rng.range_usize(1, 5),
        ncopies: rng.range_usize(2, 7),
        len: rng.range_usize(1, 5) * 16 * 1024 + rng.range_usize(0, 4) * 1024,
        transient: if rng.gen_bool(0.7) {
            rng.gen_f64() * 0.4
        } else {
            0.0
        },
        hard: if rng.gen_bool(0.4) {
            rng.gen_f64() * 0.15
        } else {
            0.0
        },
        timeout: if rng.gen_bool(0.4) {
            rng.gen_f64() * 0.2
        } else {
            0.0
        },
        stale: rng.gen_f64() * 0.5,
        kill: rng.gen_bool(kill_prob),
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
    /// Per copy: final fault (if any) and the segment-done bitmap.
    per_copy: Vec<(Option<CopyFault>, Vec<bool>)>,
    /// FNV fold over every destination buffer's final bytes.
    digest: u64,
    /// Frames still pinned after the run (must be 0).
    pinned: usize,
    /// Phantom-done violations: segments marked done whose destination
    /// bytes do not match the source.
    phantoms: Vec<String>,
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
        s.idle_polls,
        s.busy_rounds,
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
    ]
}

/// Trace keys under which a recorded chaos trace carries its own case
/// (so `TRACE_REPLAY` needs only the `.cptr` file, not the seed line).
mod meta {
    pub const SEED: u32 = 1;
    pub const CHANNELS: u32 = 2;
    pub const NCOPIES: u32 = 3;
    pub const LEN: u32 = 4;
    pub const TRANSIENT: u32 = 5;
    pub const HARD: u32 = 6;
    pub const TIMEOUT: u32 = 7;
    pub const STALE: u32 = 8;
    pub const KILL: u32 = 9;
}

fn case_meta(case: &ChaosCase) -> Vec<(u32, u64)> {
    vec![
        (meta::SEED, case.seed),
        (meta::CHANNELS, case.channels as u64),
        (meta::NCOPIES, case.ncopies as u64),
        (meta::LEN, case.len as u64),
        (meta::TRANSIENT, case.transient.to_bits()),
        (meta::HARD, case.hard.to_bits()),
        (meta::TIMEOUT, case.timeout.to_bits()),
        (meta::STALE, case.stale.to_bits()),
        (meta::KILL, case.kill as u64),
    ]
}

fn case_from_trace(trace: &Trace) -> ChaosCase {
    let get = |k: u32| trace.meta(k).expect("trace lacks a case Meta key");
    ChaosCase {
        seed: get(meta::SEED),
        channels: get(meta::CHANNELS) as usize,
        ncopies: get(meta::NCOPIES) as usize,
        len: get(meta::LEN) as usize,
        transient: f64::from_bits(get(meta::TRANSIENT)),
        hard: f64::from_bits(get(meta::HARD)),
        timeout: f64::from_bits(get(meta::TIMEOUT)),
        stale: f64::from_bits(get(meta::STALE)),
        kill: get(meta::KILL) != 0,
    }
}

/// Whether (and how) a chaos run is traced.
enum TraceMode {
    Off,
    Record,
    Replay(Trace),
}

/// Saves a failing run's trace for `TRACE_REPLAY` and returns its path.
///
/// Traces land in the repo's own `target/chaos-repros/` (created on
/// demand, gitignored with the rest of `target/`) rather than the
/// per-crate tmpdir: they survive `cargo` re-runs at a predictable
/// location, so a failing CI log's `TRACE_REPLAY=` line still points at
/// a file a developer can fetch and replay.
fn save_repro_trace(tracer: &Rc<Tracer>, tag: &str, seed: u64) -> String {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/target/chaos-repros"));
    std::fs::create_dir_all(dir).expect("create target/chaos-repros");
    let path = dir.join(format!("chaos-{tag}-{seed:016x}.cptr"));
    tracer.finish().save(&path).expect("save repro trace");
    path.display().to_string()
}

fn run_chaos(case: &ChaosCase) -> Outcome {
    run_chaos_traced(case, TraceMode::Off).0
}

fn run_chaos_traced(case: &ChaosCase, mode: TraceMode) -> (Outcome, Option<Rc<Tracer>>) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed: case.seed,
        dma_transient_prob: case.transient,
        dma_hard_prob: case.hard,
        dma_timeout_prob: case.timeout,
        atc_stale_prob: case.stale,
        ..Default::default()
    });
    // Record/replay hook: the case itself is the trace prologue, then the
    // fault plan and the service both stream into (or out of) the log.
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
            tracer: tracer.clone(),
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);

    let mut bufs = Vec::new();
    for i in 0..case.ncopies {
        let src = uspace.mmap(case.len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(case.len, Prot::RW, true).unwrap();
        uspace
            .write_bytes(src, &pattern(i, case.seed, case.len))
            .unwrap();
        bufs.push((src, dst));
    }

    if case.kill {
        // Exit race: the client process dies somewhere inside the busy
        // window and the service must sweep its orphans.
        let t = plan.race_times(1, Nanos(150_000))[0];
        let svc2 = Rc::clone(&svc);
        let lib2 = Rc::clone(&lib);
        let h2 = h.clone();
        sim.spawn("killer", async move {
            h2.sleep(t).await;
            svc2.reap_client(&lib2.client);
        });
    }

    let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
    let d2 = Rc::clone(&descrs);
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let bufs2 = bufs.clone();
    let len = case.len;
    sim.spawn("client", async move {
        for &(src, dst) in &bufs2 {
            // Default quotas are far above this workload; a rejection here
            // would itself be a bug.
            let d = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
            d2.borrow_mut().push(d);
        }
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    let end = sim.run();

    let mut phantoms = Vec::new();
    let mut per_copy = Vec::new();
    let mut digest = FNV_OFFSET;
    for (i, d) in descrs.borrow().iter().enumerate() {
        let expected = pattern(i, case.seed, case.len);
        let (_src, dst) = bufs[i];
        let mut got = vec![0u8; case.len];
        let readable = uspace.read_bytes(dst, &mut got).is_ok();
        let mut marks = Vec::with_capacity(d.num_segments());
        for s in 0..d.num_segments() {
            let m = d.is_marked(s);
            marks.push(m);
            if m && readable {
                let (lo, hi) = d.segment_range(s);
                if got[lo..hi] != expected[lo..hi] {
                    phantoms.push(format!(
                        "copy {i} segment {s} marked done but bytes differ (seed {})",
                        case.seed
                    ));
                }
            }
        }
        digest = fnv_bytes(digest, &got);
        per_copy.push((d.fault(), marks));
    }

    // Teardown invariants for every chaos run, regardless of which
    // property the caller asserts on: even a mid-flight kill must leave
    // nothing pinned once the orphan sweep has run, and the address
    // index must still mirror each set's pending window exactly —
    // faults, aborts, taint cascades, and the reap sweep all route
    // through the same submit/finalize bookkeeping.
    assert_no_pinned_leaks(&os.pm);
    if let Err(msg) = lib.client.index_consistent() {
        panic!(
            "pending index diverged after chaos run (seed {}): {msg}",
            case.seed
        );
    }

    (
        Outcome {
            end: end.as_nanos(),
            stats: stats_key(&svc),
            log: plan.log(),
            per_copy,
            digest,
            pinned: os.pm.pinned_frames(),
            phantoms,
        },
        tracer,
    )
}

fn prop_cases() -> Config {
    // Each case boots a full machine + service; keep the default budget
    // tractable in debug builds. TESTKIT_CASES overrides as usual.
    let mut c = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        c.cases = 24;
    }
    c
}

/// Property 1: under any seeded fault schedule, no segment is marked
/// done unless its destination bytes actually match the source.
#[test]
fn chaos_no_phantom_done_segments() {
    check_with(
        &prop_cases(),
        |rng| gen_case(rng, 0.2),
        |_| Vec::new(),
        |case: &ChaosCase| {
            let (out, tracer) = run_chaos_traced(case, TraceMode::Record);
            if !out.phantoms.is_empty() {
                let path = save_repro_trace(&tracer.unwrap(), "phantom", case.seed);
                eprintln!(
                    "repro: TRACE_REPLAY={path} cargo test -q --test chaos chaos_replay_from_env"
                );
            }
            prop_assert!(
                out.phantoms.is_empty(),
                "phantom-done segments: {:?}",
                out.phantoms
            );
            Ok(())
        },
    );
}

/// Property 2: pins never leak — every frame pinned during planning is
/// unpinned by completion, fault recovery, or the orphan sweep.
#[test]
fn chaos_pins_never_leak() {
    check_with(
        &prop_cases(),
        // Bias hard toward mid-flight client death: the orphan sweep is
        // the most pin-hostile path.
        |rng| gen_case(rng, 0.6),
        |_| Vec::new(),
        |case: &ChaosCase| {
            let (out, tracer) = run_chaos_traced(case, TraceMode::Record);
            if out.pinned != 0 {
                let path = save_repro_trace(&tracer.unwrap(), "pins", case.seed);
                eprintln!(
                    "repro: TRACE_REPLAY={path} cargo test -q --test chaos chaos_replay_from_env"
                );
            }
            prop_assert_eq!(out.pinned, 0, "leaked pins");
            Ok(())
        },
    );
}

/// Property 3: same seed, byte-identical outcome — stats, fault log,
/// per-descriptor state, memory digest, and the end-of-time timestamp.
#[test]
fn chaos_same_seed_identical_outcome() {
    let mut cfg = prop_cases();
    cfg.cases = (cfg.cases / 2).max(8); // each case runs two full sims
    check_with(
        &cfg,
        |rng| gen_case(rng, 0.3),
        |_| Vec::new(),
        |case: &ChaosCase| {
            let a = run_chaos(case);
            let b = run_chaos(case);
            prop_assert_eq!(a, b, "seeded run not reproducible");
            Ok(())
        },
    );
}

/// Tentpole property: a recorded chaos run replays byte-identically —
/// same outcome, no divergence, and the replay's own re-recorded trace
/// encodes to the same bytes as the original log.
#[test]
fn chaos_record_replay_identical() {
    let mut cfg = prop_cases();
    cfg.cases = (cfg.cases / 3).max(6); // each case runs two full sims
    check_with(
        &cfg,
        |rng| gen_case(rng, 0.3),
        |_| Vec::new(),
        |case: &ChaosCase| {
            let (a, rec) = run_chaos_traced(case, TraceMode::Record);
            let trace = rec.unwrap().finish();
            prop_assert!(!trace.events().is_empty(), "recorded nothing");
            let (b, rep) = run_chaos_traced(case, TraceMode::Replay(trace.clone()));
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

/// Tentpole property: perturbing one recorded fault draw makes the
/// divergence checker fire at (or just after) the perturbed round — the
/// checker localizes *where* a replay left the recorded timeline.
#[test]
fn chaos_replay_divergence_localizes() {
    let case = ChaosCase {
        seed: 0x7EA5_E01D,
        channels: 2,
        ncopies: 5,
        len: 96 * 1024,
        transient: 0.3,
        hard: 0.0,
        timeout: 0.1,
        stale: 0.3,
        kill: false,
    };
    let (_, rec) = run_chaos_traced(&case, TraceMode::Record);
    let mut trace = rec.unwrap().finish();

    // Find the first DMA draw and the round it belongs to, then flip its
    // outcome (none <-> transient) so the replayed execution must differ.
    let mut round = 0u64;
    let mut hit = None;
    for (i, e) in trace.events().iter().enumerate() {
        match e {
            TraceEvent::RoundStart { round: r, .. } => round = *r,
            TraceEvent::DmaDraw { .. } if hit.is_none() => hit = Some((i, round)),
            _ => {}
        }
    }
    let (pos, bad_round) = hit.expect("case injected no DMA draws");
    let TraceEvent::DmaDraw { fault } = trace.events()[pos] else {
        unreachable!()
    };
    trace.events_mut()[pos] = TraceEvent::DmaDraw {
        fault: if fault == 0 { 1 } else { 0 },
    };

    let (_, rep) = run_chaos_traced(&case, TraceMode::Replay(trace));
    let d = rep
        .unwrap()
        .divergence()
        .expect("perturbed replay must diverge");
    // The prefix before the perturbation replays verbatim, so the checker
    // must point at or after it — never before.
    assert!(
        d.pos > pos,
        "divergence at event {} precedes the perturbation at {pos}: {d}",
        d.pos
    );
    assert!(
        d.round >= bad_round,
        "divergence at round {} precedes the perturbed round {bad_round}: {d}",
        d.round
    );
}

/// `TRACE_REPLAY=<path>` repro knob: re-executes a saved chaos trace in
/// replay mode and asserts the run is faithful and the original
/// invariants hold. Silently passes when the variable is unset.
#[test]
fn chaos_replay_from_env() {
    let Ok(path) = std::env::var("TRACE_REPLAY") else {
        return;
    };
    let trace = Trace::load(std::path::Path::new(&path)).expect("load TRACE_REPLAY trace");
    let case = case_from_trace(&trace);
    eprintln!("replaying {path}: {case:?}");
    let (out, rep) = run_chaos_traced(&case, TraceMode::Replay(trace));
    if let Some(d) = rep.unwrap().divergence() {
        panic!("replay diverged from the recording: {d}");
    }
    eprintln!(
        "replay faithful: end={} pinned={} phantoms={}",
        out.end,
        out.pinned,
        out.phantoms.len()
    );
    assert!(out.phantoms.is_empty(), "phantoms: {:?}", out.phantoms);
    assert_eq!(out.pinned, 0, "leaked pins");
}

/// Property 4: absorption never forwards from a poisoned source. A
/// faulting producer taints its destination range; consumers — direct
/// and transitive — are aborted in dependency order with the parent
/// fault, and their destinations stay untouched.
#[test]
fn chaos_poisoned_source_never_forwarded() {
    check_with(
        &prop_cases(),
        |rng| (rng.range_usize(2, 6), rng.next_u64()),
        |_| Vec::new(),
        |&(pages, seed): &(usize, u64)| {
            let len = pages * PAGE_SIZE;

            let mut sim = Sim::new();
            let h = sim.handle();
            let machine = Machine::new(&h, 2);
            let os = Os::boot(&h, machine, 4096);
            let svc = os.install_copier(
                vec![os.machine.core(1)],
                CopierConfig {
                    use_dma: true,
                    ..Default::default()
                },
            );
            let proc = os.spawn_process();
            let lib = proc.lib();
            let uspace = Rc::clone(&lib.uspace);

            // W (fully mapped) → X (one page short: the producer faults) →
            // Y → Z. Only the W→X copy touches unmapped memory; X→Y and
            // Y→Z are well-formed on their own and must die by taint alone.
            let w = uspace.mmap(len, Prot::RW, true).unwrap();
            let x = uspace.mmap(len - PAGE_SIZE, Prot::RW, true).unwrap();
            let y = uspace.mmap(len - PAGE_SIZE, Prot::RW, true).unwrap();
            let z = uspace.mmap(len - PAGE_SIZE, Prot::RW, true).unwrap();
            uspace.write_bytes(w, &pattern(0, seed, len)).unwrap();

            let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
            let d2 = Rc::clone(&descrs);
            let lib2 = Rc::clone(&lib);
            let svc2 = Rc::clone(&svc);
            let core = os.machine.core(0);
            sim.spawn("client", async move {
                let a = lib2.amemcpy(&core, x, w, len).await.expect("admitted");
                let b = lib2
                    .amemcpy(&core, y, x, len - PAGE_SIZE)
                    .await
                    .expect("admitted");
                let c = lib2
                    .amemcpy(&core, z, y, len - PAGE_SIZE)
                    .await
                    .expect("admitted");
                let _ = lib2.csync_all(&core).await;
                d2.borrow_mut().extend([a, b, c]);
                svc2.stop();
            });
            sim.run();

            let ds = descrs.borrow();
            prop_assert_eq!(ds[0].fault(), Some(CopyFault::Segv), "producer must fault");
            prop_assert_eq!(
                ds[1].fault(),
                Some(CopyFault::Segv),
                "direct consumer must inherit the producer's fault"
            );
            prop_assert_eq!(
                ds[2].fault(),
                Some(CopyFault::Segv),
                "transitive consumer must inherit the fault"
            );
            for (name, addr) in [("Y", y), ("Z", z)] {
                let mut got = vec![0u8; len - PAGE_SIZE];
                uspace.read_bytes(addr, &mut got).unwrap();
                prop_assert!(
                    got.iter().all(|&b| b == 0),
                    "{name} must stay untouched after its producer was poisoned"
                );
            }
            let st = svc.stats();
            prop_assert!(
                st.dependents_aborted >= 2,
                "dependency-ordered aborts not counted: {}",
                st.dependents_aborted
            );
            assert_no_pinned_leaks(&os.pm);
            Ok(())
        },
    );
}

/// Acceptance: with every DMA channel dying on first touch, the service
/// degrades to the CPU path and still completes every task with correct
/// bytes — `fallback_bytes > 0` and all channels quarantined.
#[test]
fn dma_hard_failure_completes_via_cpu_fallback() {
    let case = ChaosCase {
        seed: 0xDEAD_C0DE,
        channels: 2,
        ncopies: 4,
        len: 64 * 1024,
        transient: 0.0,
        hard: 1.0,
        timeout: 0.0,
        stale: 0.0,
        kill: false,
    };
    let out = run_chaos(&case);
    assert!(out.phantoms.is_empty(), "{:?}", out.phantoms);
    for (i, (fault, marks)) in out.per_copy.iter().enumerate() {
        assert_eq!(*fault, None, "copy {i} must complete despite dead DMA");
        assert!(marks.iter().all(|&m| m), "copy {i} has unfinished segments");
    }
    // stats layout: see stats_key().
    let (fallback, quarantined) = (out.stats[12], out.stats[13]);
    assert!(fallback > 0, "no bytes were rescued by the CPU fallback");
    assert_eq!(quarantined, 2, "both channels must be quarantined");
    assert!(out.log.dma_hard >= 2, "hard faults were not injected");
    assert_eq!(out.pinned, 0);
}

/// Acceptance: transient DMA errors are retried with bounded backoff
/// and the workload completes with correct bytes.
#[test]
fn dma_transient_errors_are_retried() {
    let case = ChaosCase {
        seed: 7,
        channels: 1,
        ncopies: 4,
        len: 64 * 1024,
        transient: 0.5,
        hard: 0.0,
        timeout: 0.0,
        stale: 0.0,
        kill: false,
    };
    let out = run_chaos(&case);
    assert!(out.phantoms.is_empty(), "{:?}", out.phantoms);
    for (i, (fault, marks)) in out.per_copy.iter().enumerate() {
        assert_eq!(*fault, None, "copy {i} must complete despite transients");
        assert!(marks.iter().all(|&m| m), "copy {i} has unfinished segments");
    }
    assert!(out.stats[11] > 0, "no retries recorded"); // stats_key: retries
    assert!(out.log.dma_transient > 0, "no transients injected");
    assert_eq!(out.pinned, 0);
}

/// Acceptance: a client killed mid-copy is fully reclaimed — its rings
/// drained, in-flight tasks aborted, and every pin released.
#[test]
fn orphan_reclamation_sweeps_dead_client() {
    let case = ChaosCase {
        seed: 11,
        channels: 1,
        ncopies: 6,
        len: 256 * 1024,
        transient: 0.0,
        hard: 0.0,
        timeout: 0.0,
        stale: 0.0,
        kill: true,
    };
    let out = run_chaos(&case);
    let orphans = out.stats[14]; // stats_key: orphans_reclaimed
    assert!(orphans > 0, "no orphans reclaimed: {:?}", out.stats);
    assert_eq!(out.pinned, 0, "orphan sweep leaked pins");
    assert!(out.phantoms.is_empty(), "{:?}", out.phantoms);
    // Every descriptor the client got back is settled one way or the
    // other: completed before the kill, or poisoned by the sweep.
    for (i, (fault, marks)) in out.per_copy.iter().enumerate() {
        assert!(
            fault.is_some() || marks.iter().all(|&m| m),
            "copy {i} left unsettled after the orphan sweep"
        );
    }
}

/// Acceptance: a munmap racing a copy resolves safely either way — the
/// unmap is refused while frames are pinned, or the copy is poisoned;
/// never a torn copy into freed memory, and never a leaked pin.
#[test]
fn munmap_race_is_pinned_or_poisoned() {
    for seed in [1u64, 2, 3, 4, 5] {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 4096);
        let plan = FaultPlan::new(FaultConfig {
            seed,
            ..Default::default()
        });
        let svc = os.install_copier(
            vec![os.machine.core(1)],
            CopierConfig {
                use_dma: true,
                fault_plan: Some(Rc::clone(&plan)),
                ..Default::default()
            },
        );
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let len = 256 * 1024;
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        uspace.write_bytes(src, &pattern(0, seed, len)).unwrap();

        // Delayed munmap race (FaultPlan picks the moment).
        let t = plan.race_times(1, Nanos(60_000))[0];
        let us2 = Rc::clone(&uspace);
        let h2 = h.clone();
        let unmapped = Rc::new(RefCell::new(false));
        let un2 = Rc::clone(&unmapped);
        sim.spawn("racer", async move {
            h2.sleep(t).await;
            if us2.munmap(dst, len).is_ok() {
                *un2.borrow_mut() = true;
            }
        });

        let descr = Rc::new(RefCell::new(None));
        let dd = Rc::clone(&descr);
        let lib2 = Rc::clone(&lib);
        let svc2 = Rc::clone(&svc);
        let core = os.machine.core(0);
        sim.spawn("client", async move {
            let d = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
            let _ = lib2.csync_all(&core).await;
            dd.borrow_mut().replace(d);
            svc2.stop();
        });
        sim.run();

        let d = descr.borrow().clone().unwrap();
        assert!(
            d.fault().is_some() || d.all_ready(),
            "seed {seed}: descriptor left unsettled after munmap race"
        );
        if d.all_ready() && !*unmapped.borrow() {
            let mut got = vec![0u8; len];
            uspace.read_bytes(dst, &mut got).unwrap();
            assert_eq!(got, pattern(0, seed, len), "seed {seed}: torn copy");
        }
        assert_no_pinned_leaks(&os.pm);
    }
}
