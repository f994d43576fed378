//! fig_crash — journal record overhead, recovery latency, and the
//! exactly-once guarantee under crash–restart cycles (DESIGN.md §15).
//!
//! Three sections:
//!
//! - `record` — host wall-clock of a fig07-class unit-copy run with the
//!   control-plane journal on vs. off. Journaling is host-side only
//!   (virtual time is identical by construction — asserted here), so
//!   the overhead is pure record append + FNV checksum; the acceptance
//!   bar is ≤ 5%.
//! - `recovery` — `Journal::attach` (replay + torn-tail scrub + epoch
//!   open) over synthetic stores of growing live-admission depth: the
//!   restart-latency curve of the control plane.
//! - `exactly_once` — a sweep of seeded crash schedules through the
//!   full supervisor/restart/re-attach loop, counting contract
//!   violations (duplicate or lost handler deliveries, wrong bytes,
//!   unreturned credits, leaked pins). The sweep must fire real
//!   crashes and the violation count must be zero.
//!
//! Writes `BENCH_crash.json` at the repo root. `CRASH_SMOKE=1` shrinks
//! the workload for CI.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{AdmitRec, CopierConfig, Handler, Journal, JournalStore, SegDescriptor};
use copier::mem::{Prot, PAGE_SIZE};
use copier::os::Os;
use copier::sim::{FaultConfig, FaultPlan, Machine, Nanos, Sim};
use copier_bench::json::Json;
use copier_bench::{kb, section};
use copier_testkit::bench::median;

/// One fig07-class run: `ncopies` unit copies of `len` bytes through the
/// full service stack, optionally journaled. Returns (virtual end ns,
/// tasks completed, journal-store bytes).
fn run_once(ncopies: usize, len: usize, seed: u64, journal: bool) -> (u64, u64, usize) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, (ncopies * len) / 4096 * 4 + 4096);
    let store = JournalStore::new();
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            use_dma: true,
            dma_channels: 2,
            journal: journal.then(|| Rc::clone(&store)),
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
    (end.as_nanos(), svc.stats().tasks_completed, store.len())
}

/// Median wall-clock milliseconds of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Minimum wall-clock milliseconds over `reps` *interleaved* runs of the
/// two variants. Sequential batches (all of A, then all of B) fold any
/// drift in host load into the ratio; pairing each A with an adjacent B
/// and taking minima measures the code, not the machine.
fn paired_min_ms(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        let t0 = Instant::now();
        a();
        best.0 = best.0.min(t0.elapsed().as_secs_f64() * 1e3);
        let t1 = Instant::now();
        b();
        best.1 = best.1.min(t1.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Builds a store holding `depth` live admissions (plus an epoch record),
/// as a crashed incarnation would leave it.
fn synthetic_store(depth: usize) -> Rc<JournalStore> {
    let store = JournalStore::new();
    let (j, _) = Journal::attach(&store);
    // Keep the store below the compaction threshold regardless of depth:
    // attach latency should measure replay, not a rewrite.
    j.set_compact_threshold(usize::MAX);
    for i in 0..depth as u64 {
        j.record_admit(AdmitRec {
            tid: i + 1,
            client: 1,
            set_idx: 0,
            key: (u64::MAX, 1, i + 1),
            dst_space: 1,
            dst: 0x1000_0000 + i * 0x1_0000,
            src_space: 1,
            src: 0x2000_0000 + i * 0x1_0000,
            len: 0x1_0000,
            seg: PAGE_SIZE as u64,
            dst_digest: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            src_digest: i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
        });
    }
    j.flush();
    store
}

struct SweepOut {
    crashes: u64,
    restarts: u64,
    completed: u64,
    violations: Vec<String>,
}

/// One seeded crash schedule through the supervisor/restart/re-attach
/// loop (the tests/crash.rs harness, condensed). Every violation of the
/// exactly-once contract is returned as a line.
fn crashed_run(seed: u64, ncopies: usize, pages: usize, crash_prob: f64) -> SweepOut {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 4096);
    let store = JournalStore::new();
    let plan = FaultPlan::new(FaultConfig {
        seed,
        crash_prob,
        max_crashes: 2,
        ..Default::default()
    });
    let cfg = CopierConfig {
        use_dma: true,
        dma_channels: 2,
        journal: Some(Rc::clone(&store)),
        fault_plan: Some(Rc::clone(&plan)),
        ..Default::default()
    };
    os.install_copier(vec![os.machine.core(1)], cfg.clone());
    let proc = os.spawn_process();
    let lib: Rc<CopierHandle> = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = pages * PAGE_SIZE;
    let mut bufs = Vec::new();
    for i in 0..ncopies {
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        let data: Vec<u8> = (0..len)
            .map(|b| (b as u64 ^ seed ^ i as u64) as u8 | 1)
            .collect();
        uspace.write_bytes(src, &data).unwrap();
        bufs.push((src, dst, data));
    }

    let done = Rc::new(Cell::new(false));
    let restarts = Rc::new(Cell::new(0u64));
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

    let counters: Vec<Rc<Cell<u64>>> = (0..ncopies).map(|_| Rc::new(Cell::new(0))).collect();
    let descrs: Rc<RefCell<Vec<Rc<SegDescriptor>>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let d2 = Rc::clone(&descrs);
        let lib2 = Rc::clone(&lib);
        let os2 = Rc::clone(&os);
        let h2 = h.clone();
        let done2 = Rc::clone(&done);
        let counters2 = counters.clone();
        let core = os.machine.core(0);
        let addrs: Vec<_> = bufs.iter().map(|&(s, d, _)| (s, d)).collect();
        sim.spawn("client", async move {
            for (i, &(src, dst)) in addrs.iter().enumerate() {
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
            let mut spins = 0u32;
            loop {
                let _ = lib2.post_handlers(&core).await;
                if !counters2.iter().any(|c| c.get() == 0) || spins >= 2_000 {
                    break;
                }
                spins += 1;
                h2.sleep(Nanos(2_000)).await;
            }
            done2.set(true);
            os2.copier().stop();
        });
    }
    sim.run();

    let mut violations = Vec::new();
    for (i, d) in descrs.borrow().iter().enumerate() {
        let fired = counters[i].get();
        match d.fault() {
            None => {
                if !d.all_ready() {
                    violations.push(format!("seed {seed} copy {i}: unfinished, no fault"));
                }
                if fired != 1 {
                    violations.push(format!("seed {seed} copy {i}: handler fired {fired}x"));
                }
                let mut got = vec![0u8; len];
                uspace.read_bytes(bufs[i].1, &mut got).unwrap();
                if got != bufs[i].2 {
                    violations.push(format!("seed {seed} copy {i}: wrong bytes"));
                }
            }
            Some(f) => {
                if fired > 1 {
                    violations.push(format!(
                        "seed {seed} copy {i}: fault {f:?}, {fired} deliveries"
                    ));
                }
            }
        }
    }
    if lib.client.credits.get() != lib.client.view().credit_cap {
        violations.push(format!(
            "seed {seed}: credits {} != cap {}",
            lib.client.credits.get(),
            lib.client.view().credit_cap
        ));
    }
    if os.pm.pinned_frames() != 0 {
        violations.push(format!(
            "seed {seed}: {} pinned frames leaked",
            os.pm.pinned_frames()
        ));
    }
    SweepOut {
        crashes: plan.log().crashes,
        restarts: restarts.get(),
        completed: os.copier().stats().tasks_completed,
        violations,
    }
}

fn main() {
    let smoke = std::env::var("CRASH_SMOKE").is_ok_and(|v| v == "1");
    let (ncopies, len, reps, depths, sweep): (usize, usize, usize, &[usize], usize) = if smoke {
        (8, 64 * 1024, 3, &[64, 256], 8)
    } else {
        (64, 256 * 1024, 9, &[64, 256, 1024, 4096], 64)
    };
    let seed = 0xC4A5_11ADu64;
    let t0 = Instant::now();

    section("fig_crash: journal record overhead (host wall clock)");
    println!(
        "  mode: {}, workload: {ncopies} x {} (fig07-class)",
        if smoke { "smoke" } else { "full" },
        kb(len)
    );
    // Host timing here is noisy enough (same binary, same inputs: 2-4x
    // swings under container load) that sequential medians of each mode
    // mostly compare the machine against itself ten seconds later.
    // Interleaved pairs with per-mode minima converge on the actual cost.
    let pair_reps = if smoke { reps } else { 40 };
    let (base_ms, journaled_ms) = paired_min_ms(
        pair_reps,
        || {
            run_once(ncopies, len, seed, false);
        },
        || {
            run_once(ncopies, len, seed, true);
        },
    );
    let overhead = journaled_ms / base_ms - 1.0;
    // Journaling must not perturb virtual time or completions, and must
    // actually write something durable or the ratio is vacuous.
    let (end_p, done_p, store_p) = run_once(ncopies, len, seed, false);
    let (end_j, done_j, store_j) = run_once(ncopies, len, seed, true);
    assert_eq!(end_p, end_j, "journaling perturbed virtual time");
    assert_eq!(done_p, done_j, "journaling changed completions");
    assert_eq!(store_p, 0);
    assert!(store_j > 0, "journaled run left an empty store");
    println!(
        "  base={base_ms:.2} ms  journaled={journaled_ms:.2} ms  overhead={:.1}%  store={} B",
        overhead * 100.0,
        store_j
    );

    section("fig_crash: recovery latency vs journal depth (Journal::attach)");
    let mut recovery = Vec::new();
    for &depth in depths {
        let store = synthetic_store(depth);
        let us = median_ms(reps.max(5), || {
            let (_, rec) = Journal::attach(&store);
            assert_eq!(rec.live.len(), depth, "replay lost admissions");
        }) * 1e3;
        println!(
            "  depth {depth:>5}: attach {us:>8.1} us  ({} B store)",
            store.len()
        );
        recovery.push(Json::obj([
            ("depth", Json::Int(depth as u64)),
            ("attach_us", Json::Num(us)),
            ("store_bytes", Json::Int(store.len() as u64)),
        ]));
    }

    section("fig_crash: exactly-once sweep over seeded crash schedules");
    let mut crashes = 0u64;
    let mut restarts = 0u64;
    let mut completed = 0u64;
    let mut violations: Vec<String> = Vec::new();
    for i in 0..sweep as u64 {
        let out = crashed_run(
            seed ^ (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            2 + (i % 3) as usize,
            1 + (i % 4) as usize,
            0.15 + (i % 5) as f64 * 0.1,
        );
        crashes += out.crashes;
        restarts += out.restarts;
        completed += out.completed;
        violations.extend(out.violations);
    }
    println!(
        "  schedules={sweep}  crashes={crashes}  restarts={restarts}  completed={completed}  violations={}",
        violations.len()
    );
    for v in violations.iter().take(8) {
        println!("    VIOLATION: {v}");
    }
    assert!(crashes > 0, "sweep fired no crashes — contract untested");
    assert!(
        violations.is_empty(),
        "{} exactly-once violations",
        violations.len()
    );
    if !smoke {
        // Acceptance bar (full mode only; smoke runs are too short for a
        // stable wall-clock ratio): journaling costs at most 5%.
        assert!(
            overhead <= 0.05,
            "journal record overhead {:.1}% exceeds the 5% bar",
            overhead * 100.0
        );
    }

    let suite_ms = t0.elapsed().as_secs_f64() * 1e3;
    let json = Json::obj([
        ("bench", Json::Str("fig_crash".into())),
        ("smoke", Json::Bool(smoke)),
        ("suite_ms", Json::Num(suite_ms)),
        (
            "record",
            Json::obj([
                ("base_ms", Json::Num(base_ms)),
                ("journaled_ms", Json::Num(journaled_ms)),
                ("overhead_frac", Json::Num(overhead)),
                ("store_bytes", Json::Int(store_j as u64)),
                ("workload_bytes", Json::Int((ncopies * len) as u64)),
            ]),
        ),
        ("recovery", Json::Arr(recovery)),
        (
            "exactly_once",
            Json::obj([
                ("schedules", Json::Int(sweep as u64)),
                ("crashes", Json::Int(crashes)),
                ("restarts", Json::Int(restarts)),
                ("completed", Json::Int(completed)),
                ("violations", Json::Int(violations.len() as u64)),
            ]),
        ),
        (
            "summary",
            Json::Arr(vec![
                Json::summary("journal_overhead", "frac_max", 0.05, overhead),
                Json::summary(
                    "exactly_once_violations",
                    "count_max",
                    0.0,
                    violations.len() as f64,
                ),
                Json::summary("crash_coverage", "count_min", 1.0, crashes as f64),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crash.json");
    json.write_file(path).expect("write BENCH_crash.json");
    println!("\n  wrote {path} (suite {suite_ms:.0} ms)");
}
