//! Record/replay differential tests over the full service stack
//! (DESIGN.md §14). A seeded fault-injected run is recorded; replaying
//! the trace must reproduce the run bit-for-bit — same end-of-time
//! timestamp, same stats, same destination bytes, and a re-recorded
//! event log that encodes to the same bytes. Perturbing the log must
//! make the divergence checker fire at the first bad round.

use std::rc::Rc;

use copier::core::CopierConfig;
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::wire::{fnv_bytes, FNV_OFFSET};
use copier::sim::{FaultConfig, FaultPlan, Machine, Sim, SimRng, Trace, TraceEvent, Tracer};

/// What one run produces, everything that must be reproducible.
#[derive(Debug, PartialEq)]
struct RunOut {
    end: u64,
    stats: Vec<u64>,
    digest: u64,
}

/// One fault-injected copy workload (modeled on tests/determinism.rs),
/// optionally recorded into or replayed from a tracer. The workload data
/// derives from `seed`; the fault schedule from `plan_seed` — split so a
/// replay can run under a *different* plan seed and still be checked
/// bit-identical, proving every draw came from the log.
fn traced_run(seed: u64, plan_seed: u64, tracer: Option<Rc<Tracer>>) -> RunOut {
    traced_run_at(1, seed, plan_seed, tracer)
}

/// [`traced_run`] on a service of `shards` shards, with as many tenants
/// as shards (four copies each), all submitting from core 0.
fn traced_run_at(shards: usize, seed: u64, plan_seed: u64, tracer: Option<Rc<Tracer>>) -> RunOut {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 1 + shards);
    let os = Os::boot(&h, machine, 2048);
    let plan = FaultPlan::new(FaultConfig {
        seed: plan_seed,
        dma_transient_prob: 0.3,
        dma_hard_prob: 0.05,
        dma_timeout_prob: 0.1,
        atc_stale_prob: 0.3,
        ..Default::default()
    });
    if let Some(t) = &tracer {
        t.emit(TraceEvent::Meta { key: 1, val: seed });
        plan.set_tracer(t);
    }
    let svc = os.install_copier(
        (1..=shards).map(|i| os.machine.core(i)).collect(),
        CopierConfig {
            shards,
            use_dma: true,
            dma_channels: 2,
            fault_plan: Some(Rc::clone(&plan)),
            tracer: tracer.clone(),
            ..Default::default()
        },
    );
    let len = 96 * 1024;
    let mut data = vec![0u8; len];
    let fill = SimRng::new(seed ^ 0xF111);
    let running = Rc::new(std::cell::Cell::new(shards));
    let mut tenants = Vec::new();
    for _ in 0..shards {
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let mut bufs = Vec::new();
        for i in 0..4usize {
            let src = uspace.mmap(len, Prot::RW, true).unwrap();
            let dst = uspace.mmap(len, Prot::RW, true).unwrap();
            for b in data.iter_mut() {
                *b = (fill.next_u64() >> (8 * (i % 8))) as u8;
            }
            uspace.write_bytes(src, &data).unwrap();
            bufs.push((src, dst));
        }
        let svc2 = Rc::clone(&svc);
        let core = os.machine.core(0);
        let bufs2 = bufs.clone();
        let running2 = Rc::clone(&running);
        sim.spawn("client", async move {
            for &(src, dst) in &bufs2 {
                let _ = lib.amemcpy(&core, dst, src, len).await;
            }
            let _ = lib.csync_all(&core).await;
            running2.set(running2.get() - 1);
            if running2.get() == 0 {
                svc2.stop();
            }
        });
        tenants.push((proc, uspace, bufs));
    }
    let end = sim.run();
    let s = svc.stats();
    let stats = vec![
        s.tasks_completed,
        s.bytes_copied,
        s.faults,
        s.retries,
        s.fallback_bytes,
        s.quarantined_channels,
        s.dispatch.dma_wait.as_nanos(),
        s.dispatch.retries,
    ];
    let mut digest = FNV_OFFSET;
    let mut got = vec![0u8; len];
    for (_proc, uspace, bufs) in &tenants {
        for &(_src, dst) in bufs {
            uspace.read_bytes(dst, &mut got).unwrap();
            digest = fnv_bytes(digest, &got);
        }
    }
    RunOut {
        end: end.as_nanos(),
        stats,
        digest,
    }
}

/// Recording charges no virtual time: a traced run is byte-identical to
/// an untraced one.
#[test]
fn recording_does_not_perturb_the_run() {
    let plain = traced_run(0xC0DE, 0xC0DE, None);
    let rec = Tracer::record();
    let traced = traced_run(0xC0DE, 0xC0DE, Some(Rc::clone(&rec)));
    assert_eq!(plain, traced, "tracing changed the execution");
    let trace = rec.finish();
    assert!(trace.rounds() > 0, "no rounds recorded");
}

/// The core differential: record → replay → bit-identical outputs, no
/// divergence, and a byte-identical re-recorded log. The replay consumes
/// its fault draws from the log, so it holds even though the replay's
/// fault plan is seeded differently.
#[test]
fn recorded_run_replays_bit_identically() {
    for seed in [0xC0DEu64, 7, 0xFEED_F00D] {
        let rec = Tracer::record();
        let a = traced_run(seed, seed, Some(Rc::clone(&rec)));
        let trace = rec.finish();

        // Replay under a *different* fault-plan seed: every draw must
        // come from the log, not the plan's RNG, or the checker fires.
        let rep = Tracer::replay(trace.clone());
        let b = traced_run(seed, seed ^ 0xBAD_5EED, Some(Rc::clone(&rep)));
        if let Some(d) = rep.divergence() {
            panic!("seed {seed:#x}: replay diverged: {d}");
        }
        assert_eq!(a.end, b.end, "seed {seed:#x}: end time differs");
        assert_eq!(a.stats, b.stats, "seed {seed:#x}: stats differ");
        assert_eq!(a.digest, b.digest, "seed {seed:#x}: memory differs");
        assert_eq!(
            rep.finish().encode(),
            trace.encode(),
            "seed {seed:#x}: re-recorded trace differs"
        );
    }
}

/// Perturbing one recorded round-end hash makes the checker fire exactly
/// there: the first bad `(shard, round)` frame is named, nothing earlier
/// — at one shard and at four, where the frames of several shards
/// interleave.
#[test]
fn perturbed_round_hash_is_localized() {
    for shards in [1usize, 4] {
        let rec = Tracer::record();
        traced_run_at(shards, 42, 42, Some(Rc::clone(&rec)));
        let mut trace = rec.finish();

        // Corrupt the stats hash of a mid-stream RoundEnd.
        let ends: Vec<usize> = trace
            .events()
            .iter()
            .enumerate()
            .filter_map(|(i, e)| matches!(e, TraceEvent::RoundEnd { .. }).then_some(i))
            .collect();
        assert!(ends.len() >= 3, "need a few rounds to perturb the middle");
        let pos = ends[ends.len() / 2];
        let TraceEvent::RoundEnd {
            shard,
            round,
            stats,
            ..
        } = &mut trace.events_mut()[pos]
        else {
            unreachable!()
        };
        *stats ^= 1;
        let (shard, round) = (*shard, *round);
        let corrupted = trace.events()[pos].clone();
        let busy: std::collections::BTreeSet<u32> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::RoundEnd { shard, .. } => Some(*shard),
                _ => None,
            })
            .collect();
        assert!(
            busy.len() >= shards.min(2),
            "{shards} shards: frames of only {busy:?} recorded"
        );

        let rep = Tracer::replay(trace);
        traced_run_at(shards, 42, 42, Some(Rc::clone(&rep)));
        let d = rep.divergence().expect("perturbed hash must diverge");
        assert_eq!(d.pos, pos, "checker must stop at the corrupted event: {d}");
        assert_eq!(
            (d.shard, d.round),
            (shard, round),
            "checker must name the corrupted frame: {d}"
        );
        assert_eq!(d.expected, Some(corrupted), "{d}");
    }
}

/// Save/load round-trip through the wire format, end to end.
#[test]
fn saved_trace_replays_from_disk() {
    let rec = Tracer::record();
    let a = traced_run(99, 99, Some(Rc::clone(&rec)));
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).ok();
    let path = dir.join("trace_replay_roundtrip.cptr");
    rec.finish().save(&path).unwrap();

    let trace = Trace::load(&path).unwrap();
    let rep = Tracer::replay(trace);
    let b = traced_run(99, 99, Some(Rc::clone(&rep)));
    assert!(rep.divergence().is_none(), "{}", rep.divergence().unwrap());
    assert_eq!(a, b);
}

/// What [`small_op_run`] reports besides the tracer's own stream.
struct SmallOps {
    end: u64,
    /// Per-client hash contributions the service re-folded.
    hash_refolds: u64,
    /// Tracer stream length when the scratch buffer was written.
    events_at_scribble: usize,
}

/// A single-shard, fault-free run of `ncopies` small sequential copies
/// (amemcpy then csync, so every copy is at least one active round) by
/// one tenant, next to `idle` registered tenants that never submit.
/// Halfway through, the tenant fills a scratch buffer no copy touches
/// with `scribble`: two runs that differ only in that argument differ
/// in memory and in nothing the control plane sees.
fn small_op_run(ncopies: usize, idle: usize, scribble: u8, tracer: &Rc<Tracer>) -> SmallOps {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            tracer: Some(Rc::clone(tracer)),
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let _idle: Vec<_> = (0..idle).map(|_| os.spawn_process()).collect();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = 2048usize;
    let src = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = uspace.mmap(len, Prot::RW, true).unwrap();
    let scratch = uspace.mmap(4096, Prot::RW, true).unwrap();
    uspace.write_bytes(src, &vec![0xA5; len]).unwrap();
    let events_at_scribble = Rc::new(std::cell::Cell::new(0usize));
    let seen = Rc::clone(&events_at_scribble);
    let svc2 = Rc::clone(&svc);
    let tracer2 = Rc::clone(tracer);
    let core = os.machine.core(0);
    sim.spawn("client", async move {
        for i in 0..ncopies {
            if i == ncopies / 2 {
                seen.set(tracer2.events_len());
                lib.uspace.write_bytes(scratch, &[scribble; 64]).unwrap();
            }
            lib.amemcpy(&core, dst, src, len).await.expect("admitted");
            lib.csync(&core, dst, len).await.expect("clean copy");
        }
        svc2.stop();
    });
    let end = sim.run();
    SmallOps {
        end: end.as_nanos(),
        hash_refolds: svc.control_obs().hash_refolds,
        events_at_scribble: events_at_scribble.get(),
    }
}

/// The memory checkpoints are incremental (only frames written since the
/// last one are re-hashed), so a write must be seen by the very next
/// one: a replay whose only difference is one byte value in a buffer
/// written between two checkpoints agrees on every control-plane event
/// and diverges at the first `MemDigest` after the write.
#[test]
fn flipped_byte_between_checkpoints_is_caught_at_the_next_mem_digest() {
    let rec = Tracer::record();
    rec.set_mem_interval(16);
    let a = small_op_run(200, 0, 0x11, &rec);
    let trace = rec.finish();
    let is_mem = |e: &TraceEvent| matches!(e, TraceEvent::MemDigest { .. });
    let w = a.events_at_scribble;
    assert!(
        trace.events()[..w].iter().any(is_mem),
        "the write must land after a first checkpoint"
    );
    let next = w + trace.events()[w..]
        .iter()
        .position(is_mem)
        .expect("a checkpoint follows the write");
    assert!(
        trace.events()[next + 1..].iter().any(is_mem),
        "caught by a periodic checkpoint, not the closing one"
    );

    let rep = Tracer::replay(trace.clone());
    rep.set_mem_interval(16);
    let b = small_op_run(200, 0, 0x10, &rep);
    assert_eq!(a.end, b.end, "the scratch byte moves no virtual time");
    let d = rep.divergence().expect("a differing byte must diverge");
    assert_eq!(d.pos, next, "caught at the next checkpoint: {d}");
    assert_eq!(d.expected.as_ref(), Some(&trace.events()[next]), "{d}");

    // The same byte value replays clean through every checkpoint.
    let same = Tracer::replay(trace);
    same.set_mem_interval(16);
    small_op_run(200, 0, 0x11, &same);
    assert!(
        same.divergence().is_none(),
        "{}",
        same.divergence().unwrap()
    );
}

/// One hash definition at every shard count: the single-shard service
/// closes its rounds with the delta-folded per-client sums too, so a
/// long run beside registered-but-idle tenants re-folds the one busy
/// tenant per round, not every tenant, and still replays in lockstep.
#[test]
fn single_shard_round_hashes_refold_only_touched_clients() {
    let idle = 7usize;
    let rec = Tracer::record();
    let a = small_op_run(1200, idle, 0, &rec);
    let trace = rec.finish();
    let rounds = trace.rounds() as u64;
    assert!(rounds >= 1000, "only {rounds} active rounds");
    let clients = idle as u64 + 1;
    // Each idle tenant folds once (its registration); the busy one once
    // per active round that closes with it assigned.
    assert!(
        (rounds..=rounds + clients).contains(&a.hash_refolds),
        "{} refolds over {rounds} rounds",
        a.hash_refolds
    );
    assert!(
        a.hash_refolds * 3 < rounds * clients,
        "{} refolds is not far below {rounds} rounds x {clients} clients",
        a.hash_refolds
    );

    let rep = Tracer::replay(trace.clone());
    let b = small_op_run(1200, idle, 0, &rep);
    assert!(rep.divergence().is_none(), "{}", rep.divergence().unwrap());
    assert_eq!(a.end, b.end);
    assert_eq!(rep.finish().encode(), trace.encode());
}
