//! fig_trace — record overhead and replay fidelity of the trace layer.
//!
//! Two record-overhead groups, then replay and divergence over the first:
//!
//! - `record` — a fig07-class bulk workload (N× 256 KB amemcpy +
//!   csync_all through the full service stack, faults injected): host
//!   wall-clock of the same run untraced vs. recorded. Recording is
//!   host-side only (virtual time is identical by construction —
//!   asserted here); the acceptance bar is ≤ 10%. Few rounds and no
//!   periodic memory checkpoint, only the closing one, which hashes
//!   every allocated frame once (`frames_hashed`, reported): this prices
//!   the event append and one full memory digest.
//! - `small_ops` — 8 open-loop tenants, bounded-Pareto gaps and
//!   512 B–64 KiB lengths, ≥ 50 000 active rounds, so ≥ 200 memory
//!   checkpoints and a state hash per round: this prices the per-round
//!   and per-checkpoint work, where recording costs the most. Reports
//!   the checkpoints taken, the frames each re-hashed and the bytes the
//!   tracer buffered per event; the bar is ≤ 50%.
//! - `replay` — the recorded bulk trace replayed in lockstep: no
//!   divergence, the same virtual end time, and a re-recorded log that
//!   encodes to the same bytes as the original.
//! - `divergence` — one recorded DMA draw is flipped; the checker must
//!   fire at (or just after) the perturbed round, never before.
//!
//! Both overheads are measured as interleaved plain/traced pairs
//! (`copier_testkit::PairedRuns`) and reported as the median per-pair
//! ratio next to its MAD, the noise floor a bar has to clear.
//!
//! Writes `BENCH_trace.json` at the repo root. `TRACE_SMOKE=1` shrinks
//! the workloads for CI.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::CopierConfig;
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{
    ArrivalDist, FaultConfig, FaultPlan, LenDist, Machine, Nanos, Sim, Trace, TraceEvent, Tracer,
    WorkloadConfig, WorkloadPlan,
};
use copier_bench::json::Json;
use copier_bench::{kb, section};
use copier_testkit::PairedRuns;

struct RunOut {
    end: u64,
    events: usize,
    /// Frames re-hashed by all of the run's memory checkpoints.
    frames_hashed: u64,
}

/// One fig07-class run: `ncopies` unit copies of `len` bytes, faults
/// injected, optionally traced.
fn run_once(ncopies: usize, len: usize, seed: u64, tracer: Option<Rc<Tracer>>) -> RunOut {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    // 4x the buffer frames plus slack: the workload must stay far below
    // the pressure watermark or every copy degrades to the sync CPU path
    // and the DMA draw stream this bench measures never happens.
    let os = Os::boot(&h, machine, (ncopies * len) / 4096 * 4 + 4096);
    let plan = FaultPlan::new(FaultConfig {
        seed,
        dma_transient_prob: 0.2,
        dma_hard_prob: 0.0,
        dma_timeout_prob: 0.1,
        atc_stale_prob: 0.2,
        ..Default::default()
    });
    if let Some(t) = &tracer {
        t.emit(TraceEvent::Meta { key: 1, val: seed });
        plan.set_tracer(t);
    }
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            use_dma: true,
            dma_channels: 2,
            fault_plan: Some(Rc::clone(&plan)),
            tracer: tracer.clone(),
            ..Default::default()
        },
    );
    let proc = os.spawn_process();
    let lib: Rc<CopierHandle> = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let mut bufs = Vec::new();
    for i in 0..ncopies {
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        let data: Vec<u8> = (0..len)
            .map(|b| (b as u64 ^ seed ^ i as u64) as u8)
            .collect();
        uspace.write_bytes(src, &data).unwrap();
        bufs.push((src, dst));
    }
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    sim.spawn("client", async move {
        for &(src, dst) in &bufs {
            let _ = lib2.amemcpy(&core, dst, src, len).await;
        }
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    let end = sim.run();
    assert_eq!(
        svc.stats().degraded_sync_copies,
        0,
        "workload tripped pressure degradation — grow the frame pool"
    );
    RunOut {
        end: end.as_nanos(),
        events: tracer.map_or(0, |t| t.events_len()),
        frames_hashed: os.pm.digest_frames_hashed(),
    }
}

/// What one small-op run reports.
struct SmallOut {
    end: u64,
    rounds_active: u64,
    /// Frames re-hashed by all of the run's memory checkpoints.
    frames_hashed: u64,
    /// Frames allocated when the run ended (what one full digest walks).
    frames_allocated: usize,
}

/// The small-op workload: 8 open-loop tenants on their own cores, each
/// cycling through 8 buffer pairs, heavy-tailed gaps (mean 4 µs) and
/// lengths (512 B–64 KiB) over `horizon`, one service core, no faults.
/// Per-op control-plane work dominates and almost every round is active,
/// which is what makes the recorder's per-round cost visible.
fn run_small_ops(horizon: Nanos, seed: u64, tracer: Option<Rc<Tracer>>) -> SmallOut {
    const TENANTS: usize = 8;
    const PAIRS: usize = 8;
    const LEN_MAX: usize = 64 * 1024;
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, TENANTS + 1);
    let os = Os::boot(&h, machine, 16 * 1024);
    let svc = os.install_copier(
        vec![os.machine.core(TENANTS)],
        CopierConfig {
            tracer,
            ..Default::default()
        },
    );
    let plan = WorkloadPlan::new(WorkloadConfig {
        seed,
        tenants: TENANTS,
        mean_gap: Nanos::from_micros(4),
        len_min: 512,
        len_max: LEN_MAX,
        horizon,
        arrival: ArrivalDist::BoundedPareto {
            alpha: 1.5,
            spread: 1000.0,
        },
        length: LenDist::BoundedPareto { alpha: 1.2 },
    });
    let done = Rc::new(Cell::new(0usize));
    for t in 0..TENANTS {
        let lib: Rc<CopierHandle> = os.spawn_process().lib();
        let bufs: Vec<_> = (0..PAIRS)
            .map(|i| {
                let src = lib.uspace.mmap(LEN_MAX, Prot::RW, true).unwrap();
                let dst = lib.uspace.mmap(LEN_MAX, Prot::RW, true).unwrap();
                let data: Vec<u8> = (0..LEN_MAX)
                    .map(|b| (b as u64 ^ seed ^ (t * PAIRS + i) as u64) as u8)
                    .collect();
                lib.uspace.write_bytes(src, &data).unwrap();
                (src, dst)
            })
            .collect();
        let plan = Rc::clone(&plan);
        let core = os.machine.core(t);
        let h = h.clone();
        let done = Rc::clone(&done);
        sim.spawn("tenant", async move {
            for (i, a) in plan.tenant(t).iter().enumerate() {
                let now = h.now();
                if a.at > now {
                    h.sleep(a.at - now).await;
                }
                let (src, dst) = bufs[i % PAIRS];
                // Open loop: a refused submission is dropped, not retried.
                let opts = AmemcpyOpts {
                    untracked: true,
                    ..Default::default()
                };
                let _ = lib.try_amemcpy(&core, dst, src, a.len, opts).await;
            }
            done.set(done.get() + 1);
        });
    }
    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    sim.spawn("driver", async move {
        while done.get() < TENANTS || svc2.admitted_bytes() > 0 {
            h2.sleep(Nanos::from_micros(20)).await;
        }
        svc2.stop();
    });
    let end = sim.run();
    SmallOut {
        end: end.as_nanos(),
        rounds_active: svc.stats().rounds_active,
        frames_hashed: os.pm.digest_frames_hashed(),
        frames_allocated: os.pm.allocated(),
    }
}

/// Host-time cost of recording one workload.
struct Overhead {
    /// Side medians, milliseconds.
    base_ms: f64,
    traced_ms: f64,
    /// Median per-pair `traced / base − 1`, and its MAD.
    frac: f64,
    mad: f64,
}

/// Measures `run(None)` against `run(Some(fresh recorder))` as `reps`
/// interleaved pairs.
fn record_overhead(reps: usize, run: impl Fn(Option<Rc<Tracer>>)) -> Overhead {
    let pairs = PairedRuns::measure(reps, || run(None), || run(Some(Tracer::record())));
    Overhead {
        base_ms: copier_testkit::median(&pairs.a_ms),
        traced_ms: copier_testkit::median(&pairs.b_ms),
        frac: pairs.overhead(),
        mad: pairs.noise_floor(),
    }
}

fn main() {
    let smoke = std::env::var("TRACE_SMOKE").is_ok_and(|v| v == "1");
    let (ncopies, len, reps) = if smoke {
        (8, 64 * 1024, 3)
    } else {
        (64, 256 * 1024, 9)
    };
    let (small_horizon, small_reps) = if smoke {
        (Nanos::from_millis(1), 2)
    } else {
        (Nanos::from_millis(36), 7)
    };
    let seed = 0x7ACE_D00Du64;
    let bytes = (ncopies * len) as u64;
    let t0 = Instant::now();

    section("fig_trace: record overhead (host wall clock)");
    println!(
        "  mode: {}, workload: {ncopies} x {} (fig07-class)",
        if smoke { "smoke" } else { "full" },
        kb(len)
    );
    let bulk = record_overhead(reps, |t| {
        run_once(ncopies, len, seed, t);
    });
    let (base_ms, traced_ms, overhead, floor) = (bulk.base_ms, bulk.traced_ms, bulk.frac, bulk.mad);

    // Recording must not perturb virtual time, and the trace must be
    // non-trivial or the overhead number is vacuous.
    let plain = run_once(ncopies, len, seed, None);
    let rec = Tracer::record();
    let recorded = run_once(ncopies, len, seed, Some(Rc::clone(&rec)));
    assert_eq!(plain.end, recorded.end, "tracing perturbed virtual time");
    let trace = rec.finish();
    let trace_bytes = trace.encode().len();
    let bulk_checkpoints = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::MemDigest { .. }))
        .count();
    println!(
        "  base={base_ms:.2} ms  traced={traced_ms:.2} ms  overhead={:.1}% (MAD {:.1}%)  events={} ({} bytes)",
        overhead * 100.0,
        floor * 100.0,
        recorded.events,
        trace_bytes
    );
    println!(
        "  {bulk_checkpoints} checkpoint(s) re-hashed {} frames",
        recorded.frames_hashed
    );

    section("fig_trace: record overhead, small ops (host wall clock)");
    let small = record_overhead(small_reps, |t| {
        run_small_ops(small_horizon, seed, t);
    });
    let small_plain = run_small_ops(small_horizon, seed, None);
    let small_rec = Tracer::record();
    let small_run = run_small_ops(small_horizon, seed, Some(Rc::clone(&small_rec)));
    assert_eq!(
        small_plain.end, small_run.end,
        "tracing perturbed virtual time (small ops)"
    );
    let small_trace = small_rec.finish();
    let checkpoints = small_trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::MemDigest { .. }))
        .count();
    let small_events = small_trace.events().len();
    let frames_per_checkpoint = small_run.frames_hashed as f64 / checkpoints.max(1) as f64;
    let bytes_per_event = small_trace.encode().len() as f64 / small_events.max(1) as f64;
    println!(
        "  8 tenants x {} ms: {} active rounds, {checkpoints} checkpoints, {small_events} events",
        small_horizon.as_nanos() / 1_000_000,
        small_run.rounds_active
    );
    println!(
        "  base={:.1} ms  traced={:.1} ms  overhead={:.1}% (MAD {:.1}%)",
        small.base_ms,
        small.traced_ms,
        small.frac * 100.0,
        small.mad * 100.0
    );
    println!(
        "  {frames_per_checkpoint:.0} of {} allocated frames re-hashed per checkpoint, {bytes_per_event:.2} bytes buffered per event",
        small_run.frames_allocated
    );
    assert!(
        checkpoints >= 1,
        "the small-op run never reached a checkpoint"
    );

    section("fig_trace: replay fidelity");
    let rep = Tracer::replay(trace.clone());
    // Different fault-plan seed: every draw must come from the log.
    let replayed = run_once(ncopies, len, seed, Some(Rc::clone(&rep)));
    let identical = rep.divergence().is_none()
        && replayed.end == recorded.end
        && rep.finish().encode() == trace.encode();
    println!(
        "  divergence={:?}  end {} vs {}  identical={identical}",
        rep.divergence().map(|d| d.round),
        replayed.end,
        recorded.end
    );
    assert!(identical, "faithful replay must be bit-identical");

    section("fig_trace: divergence localization");
    let mut round = 0u64;
    let mut hit = None;
    for (i, e) in trace.events().iter().enumerate() {
        match e {
            TraceEvent::RoundStart { round: r, .. } => round = *r,
            // Perturb a draw from the middle third of the stream so there
            // is a healthy replayed prefix before the flip.
            TraceEvent::DmaDraw { .. } if hit.is_none() && i > trace.events().len() / 3 => {
                hit = Some((i, round))
            }
            _ => {}
        }
    }
    let (pos, injected_round) = hit.expect("workload injected no DMA draws");
    let mut bad = trace.clone();
    let TraceEvent::DmaDraw { fault } = bad.events()[pos] else {
        unreachable!()
    };
    bad.events_mut()[pos] = TraceEvent::DmaDraw {
        fault: if fault == 0 { 1 } else { 0 },
    };
    let rep2 = Tracer::replay(bad);
    run_once(ncopies, len, seed, Some(Rc::clone(&rep2)));
    let d = rep2.divergence().expect("perturbed replay must diverge");
    println!(
        "  injected at round {injected_round} (event {pos}), detected at round {} (event {})",
        d.round, d.pos
    );
    assert!(d.pos > pos, "checker fired before the perturbation");
    assert!(
        d.round >= injected_round,
        "checker fired before the bad round"
    );
    if !smoke {
        // Acceptance bar (full mode only; smoke runs are too short for a
        // stable wall-clock ratio): recording costs at most 10%.
        assert!(
            overhead <= 0.10,
            "record overhead {:.1}% exceeds the 10% bar",
            overhead * 100.0
        );
        assert!(
            small_run.rounds_active >= 50_000 && checkpoints >= 200,
            "small-op group too short: {} active rounds, {checkpoints} checkpoints",
            small_run.rounds_active
        );
        assert!(
            small.frac <= 0.50,
            "small-op record overhead {:.1}% exceeds the 50% bar",
            small.frac * 100.0
        );
    }

    let suite_ms = t0.elapsed().as_secs_f64() * 1e3;
    let json = Json::obj([
        ("bench", Json::Str("fig_trace".into())),
        ("smoke", Json::Bool(smoke)),
        ("suite_ms", Json::Num(suite_ms)),
        (
            "record",
            Json::obj([
                ("base_ms", Json::Num(base_ms)),
                ("traced_ms", Json::Num(traced_ms)),
                ("overhead_frac", Json::Num(overhead)),
                ("overhead_mad", Json::Num(floor)),
                ("pairs", Json::Int(reps as u64)),
                ("events", Json::Int(recorded.events as u64)),
                ("trace_bytes", Json::Int(trace_bytes as u64)),
                ("checkpoints", Json::Int(bulk_checkpoints as u64)),
                ("frames_hashed", Json::Int(recorded.frames_hashed)),
                ("workload_bytes", Json::Int(bytes)),
            ]),
        ),
        (
            "small_ops",
            Json::obj([
                ("base_ms", Json::Num(small.base_ms)),
                ("traced_ms", Json::Num(small.traced_ms)),
                ("overhead_frac", Json::Num(small.frac)),
                ("overhead_mad", Json::Num(small.mad)),
                ("pairs", Json::Int(small_reps as u64)),
                ("rounds_active", Json::Int(small_run.rounds_active)),
                ("checkpoints", Json::Int(checkpoints as u64)),
                ("frames_per_checkpoint", Json::Num(frames_per_checkpoint)),
                (
                    "frames_allocated",
                    Json::Int(small_run.frames_allocated as u64),
                ),
                ("events", Json::Int(small_events as u64)),
                ("bytes_per_event", Json::Num(bytes_per_event)),
            ]),
        ),
        (
            "replay",
            Json::obj([
                ("identical", Json::Bool(identical)),
                ("rounds", Json::Int(trace.rounds() as u64)),
                ("events", Json::Int(trace.events().len() as u64)),
            ]),
        ),
        (
            "divergence",
            Json::obj([
                ("injected_round", Json::Int(injected_round)),
                ("detected_round", Json::Int(d.round)),
            ]),
        ),
        (
            "summary",
            Json::Arr(vec![
                Json::summary("record_overhead", "frac_max", 0.10, overhead),
                Json::summary("record_overhead_small_ops", "frac_max", 0.50, small.frac),
                Json::summary(
                    "replay_identical",
                    "flag_min",
                    1.0,
                    if identical { 1.0 } else { 0.0 },
                ),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    json.write_file(path).expect("write BENCH_trace.json");
    println!("\n  wrote {path} (suite {suite_ms:.0} ms)");
    let _ = Trace::decode(&trace.encode()).expect("wire format self-check");
}
