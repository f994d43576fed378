//! §4.6 break-even sizes: at which copy size does Copier beat a sync copy
//! (a) with a sufficient Copy-Use window, and (b) with no window at all?
//!
//! Paper: with windows, kernel copies ≥0.3 KB and user copies ≥0.5 KB
//! benefit; without windows (pure hardware win), kernel ≥2 KB and user
//! ≥12 KB.
//!
//! Virtual time, exact, under a second. `BENCH_breakeven.json` carries
//! every point and the two break-even sizes as gated rows; the bench
//! exits non-zero past a bar, so `scripts/verify.sh` runs it in full.

use std::rc::Rc;

use copier_bench::json::Json;
use copier_bench::{delta, kb, row, section};
use copier_client::{sync_copy, CopierHandle};
use copier_core::{Copier, CopierConfig};
use copier_hw::{CostModel, CpuCopyKind};
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier_sim::{Machine, Nanos, Sim};

const ROUNDS: usize = 40;

/// Per-operation latency of copy-then-use with a `window` of unrelated
/// compute between copy and use.
fn run(size: usize, window: Nanos, use_copier: bool, kind: CpuCopyKind) -> Nanos {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(8192, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::clone(&cost),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let out = Rc::new(std::cell::Cell::new(Nanos::ZERO));
    let out2 = Rc::clone(&out);
    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    sim.spawn("driver", async move {
        let src = space.mmap(size, Prot::RW, true).unwrap();
        let dst = space.mmap(size, Prot::RW, true).unwrap();
        // Warm the service (it would be spinning under load).
        lib.amemcpy(&core, dst, src, size).await.expect("admitted");
        lib.csync(&core, dst, size).await.unwrap();
        let t0 = h2.now();
        for _ in 0..ROUNDS {
            if use_copier {
                lib.amemcpy(&core, dst, src, size).await.expect("admitted");
                core.advance(window).await;
                lib.csync(&core, dst, size).await.unwrap();
            } else {
                sync_copy(&core, &cost, kind, &space, dst, &space, src, size)
                    .await
                    .unwrap();
                core.advance(window).await;
            }
        }
        out2.set(Nanos((h2.now() - t0).as_nanos() / ROUNDS as u64));
        svc2.stop();
    });
    sim.run();
    out.get()
}

/// One sweep: prints a row per size and returns `(size, sync, copier)`.
fn sweep(sizes: &[usize], window_of: impl Fn(usize) -> Nanos) -> Vec<(usize, Nanos, Nanos)> {
    sizes
        .iter()
        .map(|&size| {
            let window = window_of(size);
            let sync = run(size, window, false, CpuCopyKind::Avx2);
            let cop = run(size, window, true, CpuCopyKind::Avx2);
            row(&[
                ("size", kb(size)),
                ("sync", format!("{sync}")),
                ("copier", format!("{cop}")),
                ("change", delta(sync, cop)),
            ]);
            (size, sync, cop)
        })
        .collect()
}

/// The break-even size of a sweep: the smallest swept size from which
/// Copier is ahead at every larger one.
fn breakeven(points: &[(usize, Nanos, Nanos)]) -> f64 {
    let losing = points.iter().rposition(|&(_, sync, cop)| cop >= sync);
    let (size, ..) = points
        .get(losing.map_or(0, |i| i + 1))
        .expect("Copier is ahead at the largest swept size");
    *size as f64
}

fn main() {
    section("Break-even: copy+use latency, generous Copy-Use window (2x copy time)");
    let cost = CostModel::default();
    let windowed = sweep(&[256, 512, 1024, 2048, 4096], |size| {
        Nanos(cost.cpu_copy(CpuCopyKind::Avx2, size).as_nanos() * 2)
    });
    section("Break-even: no Copy-Use window (hardware-only win)");
    let bare = sweep(
        &[2048, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024, 256 * 1024],
        |_| Nanos::ZERO,
    );

    // The paper's user-mode break-evens are 0.5 KB and 12 KB; the bars
    // are the swept sizes this model is allowed to need instead.
    let rows = [
        ("breakeven_window_bytes", 1024.0, breakeven(&windowed)),
        ("breakeven_nowindow_bytes", 65536.0, breakeven(&bare)),
    ];
    let points = |window: bool, pts: &[(usize, Nanos, Nanos)]| {
        pts.iter()
            .map(|&(size, sync, cop)| {
                Json::obj([
                    ("window", Json::Bool(window)),
                    ("size", Json::Int(size as u64)),
                    ("sync_ns", Json::Int(sync.as_nanos())),
                    ("copier_ns", Json::Int(cop.as_nanos())),
                ])
            })
            .collect::<Vec<_>>()
    };
    let json = Json::obj([
        ("bench", Json::Str("fig_breakeven".into())),
        ("smoke", Json::Bool(false)),
        (
            "points",
            Json::Arr([points(true, &windowed), points(false, &bare)].concat()),
        ),
        (
            "summary",
            Json::Arr(
                rows.iter()
                    .map(|&(name, bar, value)| Json::summary(name, "bytes_max", bar, value))
                    .collect(),
            ),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_breakeven.json");
    json.write_file(path).expect("write BENCH_breakeven.json");
    println!("\n  wrote {path}");
    for (name, bar, value) in rows {
        assert!(value <= bar, "{name}: {value} B is past the {bar} B bar");
    }
}
