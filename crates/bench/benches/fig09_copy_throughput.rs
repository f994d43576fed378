//! Fig. 9: end-to-end copy throughput of the Copier service versus the
//! kernel (ERMS) and userspace (AVX2) methods, with 0% and 75% buffer
//! repetition, and the ATCache contribution.
//!
//! Paper shape: Copier up to +158% over ERMS and +38% over AVX2 (no
//! repetition); +63%/+32% at 75% repetition with the ATCache adding
//! 2–11%.
//!
//! Three row groups per size: fresh buffers, recycled buffers copied at
//! one fixed length, and recycled buffers with the length drawn per task
//! (what a buffer pool really sees — a translation cache keyed on the
//! exact length never hits there). A fourth group keeps the recycled,
//! drawn-length traffic and varies who owns the buffers: 1, 32 or 1 000
//! tenants with 2–16 buffers each. The cache holds 256 buffers *per
//! address space*, so the hit fraction of a row depends on the pool a
//! tenant cycles through and not on how many tenants there are (one
//! machine-wide table of 256 scored 0.00 on every row past 256 buffers in
//! total). All numbers are virtual time, so the committed
//! `BENCH_fig09.json` is exact; its bars are the shape claims.

use std::cell::Cell;
use std::rc::Rc;

use copier_bench::json::Json;
use copier_bench::{kb, ratio, row, section};
use copier_client::{sync_copy, CopierHandle};
use copier_core::{Copier, CopierConfig};
use copier_hw::{CostModel, CpuCopyKind};
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier_sim::{Machine, Sim, SimHandle, SimRng};

const TASKS: usize = 120;

/// Per-task copy lengths: all `size`, or drawn from `[size/4, size]`.
fn lengths(size: usize, drawn: bool) -> Vec<usize> {
    let rng = SimRng::new(7);
    (0..TASKS)
        .map(|_| {
            if drawn {
                size / 4 + rng.gen_range((size - size / 4) as u64 + 1) as usize
            } else {
                size
            }
        })
        .collect()
}

/// A two-core machine (driver on core 0, the service on core 1) over a pool
/// of `frames`, with the service started.
fn service(h: &SimHandle, frames: usize, atcache: bool) -> (Rc<Machine>, Rc<PhysMem>, Rc<Copier>) {
    let machine = Machine::new(h, 2);
    let pm = Rc::new(PhysMem::new(frames, AllocPolicy::Scattered));
    let svc = Copier::new(
        h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig {
            atcache_capacity: if atcache { 256 } else { 0 },
            absorption: false, // pure copy throughput, no chains
            ..CopierConfig::default()
        },
    );
    svc.start();
    (machine, pm, svc)
}

/// Sustained service throughput in bytes/ns over `lens`, on buffers of
/// `size` bytes, and the ATCache hit fraction of the run.
fn copier_tput(size: usize, lens: &[usize], repeat_pct: u64, atcache: bool) -> (f64, f64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let (machine, pm, svc) = service(&h, 40960, atcache);
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let out = Rc::new(std::cell::Cell::new(0f64));
    let out2 = Rc::clone(&out);
    let svc2 = Rc::clone(&svc);
    let h2 = h.clone();
    let lens = lens.to_vec();
    sim.spawn("driver", async move {
        let rng = SimRng::new(42);
        // A pool of distinct buffers; "repetition" draws from a small
        // recycled set (descriptor + translation reuse).
        let nbuf = 16;
        let pair = || {
            (
                space.mmap(size, Prot::RW, true).unwrap(),
                space.mmap(size, Prot::RW, true).unwrap(),
            )
        };
        let bufs: Vec<(VirtAddr, VirtAddr)> = (0..nbuf).map(|_| pair()).collect();
        let fresh: Vec<(VirtAddr, VirtAddr)> = (0..TASKS).map(|_| pair()).collect();
        let t0 = h2.now();
        for (i, &len) in lens.iter().enumerate() {
            let (dst, src) = if rng.gen_bool(repeat_pct as f64 / 100.0) {
                bufs[i % nbuf]
            } else {
                fresh[i]
            };
            lib.amemcpy(&core, dst, src, len).await.expect("admitted");
        }
        // Sustained throughput: wait until every submitted copy landed.
        lib.csync_all(&core).await.unwrap();
        let el = (h2.now() - t0).as_nanos() as f64;
        out2.set(lens.iter().sum::<usize>() as f64 / el);
        svc2.stop();
    });
    sim.run();
    (out.get(), svc.atcache().stats().hit_frac())
}

/// Buffer size and passes over the pools of the fleet rows.
const FLEET_BUF: usize = 8 * 1024;
const FLEET_PASSES: usize = 24;

/// `tenants` address spaces, each with its own pool of `nbuf / 2` buffer
/// pairs, served round-robin `FLEET_PASSES` times at lengths drawn per
/// task: a tenant's pass is submitted while the tenant before it is waited
/// for, so between two uses of a buffer every other buffer of the fleet
/// goes by. Sustained throughput in bytes/ns and the ATCache hit fraction.
fn fleet_tput(tenants: usize, nbuf: usize, atcache: bool) -> (f64, f64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    // Twice what the pools take: the pool must stay clear of its pressure
    // watermark, or the service degrades to synchronous copies.
    let frames = tenants * nbuf * FLEET_BUF.div_ceil(PAGE_SIZE);
    let (machine, pm, svc) = service(&h, 2 * frames + 1024, atcache);
    type Pool = Vec<(VirtAddr, VirtAddr)>;
    let fleet: Vec<(Rc<CopierHandle>, Pool)> = (0..tenants)
        .map(|t| {
            let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
            let pool = (0..nbuf / 2)
                .map(|_| {
                    (
                        space.mmap(FLEET_BUF, Prot::RW, true).unwrap(),
                        space.mmap(FLEET_BUF, Prot::RW, true).unwrap(),
                    )
                })
                .collect();
            (CopierHandle::new(&svc, space), pool)
        })
        .collect();
    let out = Rc::new(Cell::new(0f64));
    let (out2, svc2, h2, core) = (Rc::clone(&out), Rc::clone(&svc), h.clone(), machine.core(0));
    sim.spawn("driver", async move {
        let rng = SimRng::new(7);
        let mut bytes = 0usize;
        let t0 = h2.now();
        for _ in 0..FLEET_PASSES {
            for (t, (lib, pool)) in fleet.iter().enumerate() {
                for &(dst, src) in pool {
                    let len =
                        FLEET_BUF / 4 + rng.gen_range((FLEET_BUF * 3 / 4) as u64 + 1) as usize;
                    lib.amemcpy(&core, dst, src, len).await.expect("admitted");
                    bytes += len;
                }
                let before = &fleet[(t + tenants - 1) % tenants].0;
                before.csync_all(&core).await.unwrap();
            }
        }
        for (lib, _) in &fleet {
            lib.csync_all(&core).await.unwrap();
        }
        out2.set(bytes as f64 / (h2.now() - t0).as_nanos() as f64);
        svc2.stop();
    });
    sim.run();
    (out.get(), svc.atcache().stats().hit_frac())
}

/// Synchronous-loop throughput with a CPU method.
fn sync_tput(size: usize, lens: &[usize], kind: CpuCopyKind) -> f64 {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 1);
    let pm = Rc::new(PhysMem::new(40960, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let core = machine.core(0);
    let out = Rc::new(std::cell::Cell::new(0f64));
    let out2 = Rc::clone(&out);
    let h2 = h.clone();
    let lens = lens.to_vec();
    sim.spawn("driver", async move {
        let src = space.mmap(size, Prot::RW, true).unwrap();
        let dst = space.mmap(size, Prot::RW, true).unwrap();
        let t0 = h2.now();
        for &len in &lens {
            sync_copy(&core, &cost, kind, &space, dst, &space, src, len)
                .await
                .unwrap();
        }
        out2.set(lens.iter().sum::<usize>() as f64 / (h2.now() - t0).as_nanos() as f64);
    });
    sim.run();
    out.get()
}

fn main() {
    section("Fig 9: copy throughput (bytes/ns = GB/s)");
    let mut rows = Vec::new();
    let mut summary = Vec::new();
    for (group, repeat, drawn) in [
        ("fresh", 0u64, false),
        ("recycled", 75, false),
        ("recycled_drawn", 75, true),
    ] {
        println!(
            "\n  buffer repetition = {repeat}%, lengths {}",
            if drawn { "drawn per task" } else { "fixed" }
        );
        for size in [1024, 4096, 16384, 65536, 262144] {
            let lens = lengths(size, drawn);
            let erms = sync_tput(size, &lens, CpuCopyKind::Erms);
            let avx = sync_tput(size, &lens, CpuCopyKind::Avx2);
            let (cop, hit_frac) = copier_tput(size, &lens, repeat, true);
            let (cop_noatc, _) = copier_tput(size, &lens, repeat, false);
            row(&[
                ("size", kb(size)),
                ("erms", format!("{erms:.2}")),
                ("avx2", format!("{avx:.2}")),
                ("copier", format!("{cop:.2}")),
                ("vs-erms", ratio(cop, erms)),
                ("vs-avx2", ratio(cop, avx)),
                ("atc-gain", ratio(cop, cop_noatc)),
                ("atc-hit", format!("{hit_frac:.3}")),
            ]);
            rows.push(Json::obj([
                ("group", Json::Str(group.into())),
                ("repeat_pct", Json::Int(repeat)),
                ("size", Json::Int(size as u64)),
                ("erms_gbps", Json::Num(erms)),
                ("avx2_gbps", Json::Num(avx)),
                ("copier_gbps", Json::Num(cop)),
                ("copier_noatc_gbps", Json::Num(cop_noatc)),
                ("atc_hit_frac", Json::Num(hit_frac)),
            ]));
            let name = |what: &str| format!("{group}_{}K_{what}", size / 1024);
            // The cache never costs throughput, and recycled buffers hit
            // whatever the lengths are (an exact-length key scored 0.00–0.18
            // on the drawn rows; the rest of the gap to the fixed rows is
            // this short run's warm-up, each longer length growing its
            // entry once).
            summary.push(Json::summary(
                &name("atc_gain"),
                "ratio_min",
                1.0,
                cop / cop_noatc,
            ));
            if repeat > 0 {
                let bar = if drawn { 0.3 } else { 0.5 };
                summary.push(Json::summary(&name("atc_hit"), "frac_min", bar, hit_frac));
            }
            // Paper shape: Copier > AVX2 > ERMS from 16 KB up.
            if size >= 16384 && !drawn {
                summary.push(Json::summary(
                    &name("vs_avx2"),
                    "speedup_min",
                    if repeat > 0 { 1.0 } else { 0.95 },
                    cop / avx,
                ));
            }
        }
    }
    println!(
        "\n  tenants x recycled buffers ({} B each, {FLEET_PASSES} passes, lengths drawn per task)",
        FLEET_BUF
    );
    let mut fleet = Vec::new();
    for tenants in [1, 32, 1000] {
        for nbuf in [2, 8, 16] {
            let (cop, hit_frac) = fleet_tput(tenants, nbuf, true);
            let (cop_noatc, _) = fleet_tput(tenants, nbuf, false);
            row(&[
                ("tenants", format!("{tenants}")),
                ("buffers", format!("{nbuf}")),
                ("total", format!("{}", tenants * nbuf)),
                ("copier", format!("{cop:.2}")),
                ("atc-gain", ratio(cop, cop_noatc)),
                ("atc-hit", format!("{hit_frac:.3}")),
            ]);
            fleet.push(Json::obj([
                ("tenants", Json::Int(tenants as u64)),
                ("buffers_per_tenant", Json::Int(nbuf as u64)),
                ("copier_gbps", Json::Num(cop)),
                ("copier_noatc_gbps", Json::Num(cop_noatc)),
                ("atc_gain", Json::Num(cop / cop_noatc)),
                ("atc_hit_frac", Json::Num(hit_frac)),
            ]));
            // The hit fraction is what a pool of this size cycled this many
            // times gives one tenant (first touches, and each longer length
            // growing its entry once); it must not fall with the fleet.
            let name = |what: &str| format!("fleet_{tenants}x{nbuf}_{what}");
            summary.push(Json::summary(
                &name("atc_hit"),
                "hit_frac_min",
                0.7,
                hit_frac,
            ));
            summary.push(Json::summary(
                &name("atc_gain"),
                "ratio_min",
                1.0,
                cop / cop_noatc,
            ));
        }
    }
    let json = Json::obj([
        ("bench", Json::Str("fig09_copy_throughput".into())),
        ("smoke", Json::Bool(false)),
        ("tasks", Json::Int(TASKS as u64)),
        ("rows", Json::Arr(rows)),
        ("fleet", Json::Arr(fleet)),
        ("summary", Json::Arr(summary)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fig09.json");
    json.write_file(path).expect("write BENCH_fig09.json");
    println!("\n  wrote {path}");
}
