//! Service-level checks of the range-covering ATCache (DESIGN.md §3, §12).
//!
//! 1. **Differential.** Seeded open-loop tenants copy sub-ranges of a few
//!    recycled buffers at lengths drawn per task, with injected stale
//!    hits. The same case runs with the cache off (`atcache_capacity: 0`)
//!    and on (256). The cache may only change *when* things happen:
//!    every buffer's final bytes, every descriptor's outcome and every
//!    handler's fire count must agree between the two runs — and with a
//!    sequential `memcpy` model of the tenant's program — and no pin may
//!    survive either run.
//! 2. **Fleet.** The same differential over 32 tenants × 16 buffers on 4
//!    shards, twice the buffers one table holds: every tenant's pool fits
//!    its own table, so nothing is evicted and the fleet hits like one
//!    tenant would.
//! 3. **Pins.** A task served over several rounds pins each frame once.
//! 4. **Lifetime.** A reaped client's translations are purged, and a new
//!    process that re-uses its address-space id gets its own frames.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::Cell;
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{Copier, CopierConfig, CopyFault, Handler, SegDescriptor};
use copier::hw::{AtcStats, CostModel};
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier::sim::{
    FaultConfig, FaultPlan, Machine, Nanos, Sim, SimHandle, WorkloadConfig, WorkloadPlan,
};
use copier_testkit::prop::{check_with, Config, PropResult};
use copier_testkit::{assert_no_pinned_leaks, prop_assert, prop_assert_eq, TestRng};

/// Below the small cases' buffer size, so their longer copies are served
/// over several rounds, from wherever the round before stopped.
const SLICE: usize = 16 * 1024;

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    tenants: usize,
    /// Buffers per tenant; any may be a source or a destination.
    nbuf: usize,
    /// Bytes per buffer.
    buf: usize,
    shards: usize,
    copy_slice: usize,
    mean_gap: Nanos,
    horizon: Nanos,
    /// Whether the pool is buffer *pairs*: sources from its first half,
    /// destinations from its second. Otherwise any buffer may be either,
    /// and chains of dependent copies form.
    pairs: bool,
    /// Probability that a copy starts somewhere inside its buffers rather
    /// than at their bases.
    inside: f64,
    stale: f64,
    dma: bool,
}

fn gen_case(rng: &mut TestRng) -> Case {
    Case {
        seed: rng.next_u64(),
        tenants: rng.range_usize(1, 4),
        nbuf: 4,
        buf: 48 * 1024,
        shards: 1,
        copy_slice: SLICE,
        mean_gap: Nanos::from_micros(2),
        horizon: Nanos::from_micros(120),
        pairs: false,
        inside: 0.4,
        stale: rng.gen_f64() * 0.3,
        dma: rng.gen_bool(0.5),
    }
}

/// One copy of a tenant's program.
#[derive(Debug, Clone, Copy)]
struct Op {
    at: Nanos,
    src: (usize, usize),
    dst: (usize, usize),
    len: usize,
}

fn fill(case: &Case, tenant: usize, buf: usize) -> Vec<u8> {
    let mut rng =
        TestRng::new(case.seed ^ ((tenant * case.nbuf + buf) as u64).wrapping_mul(0x9E37_79B9));
    let mut v = vec![0u8; case.buf];
    rng.fill_bytes(&mut v);
    v
}

/// The tenants' programs: arrival times and lengths from the open-loop
/// generator, buffers and offsets from the case seed.
fn programs(case: &Case) -> Vec<Vec<Op>> {
    let plan = WorkloadPlan::new(WorkloadConfig {
        seed: case.seed,
        tenants: case.tenants,
        mean_gap: case.mean_gap,
        len_min: 1,
        len_max: case.buf,
        horizon: case.horizon,
        ..Default::default()
    });
    (0..case.tenants)
        .map(|t| {
            let mut rng = TestRng::new(case.seed ^ (t as u64 + 1).wrapping_mul(0xA076_1D64));
            plan.tenant(t)
                .iter()
                .map(|a| {
                    let (src, dst) = if case.pairs {
                        let half = case.nbuf / 2;
                        (rng.range_usize(0, half), rng.range_usize(half, case.nbuf))
                    } else {
                        let src = rng.range_usize(0, case.nbuf);
                        (src, (src + rng.range_usize(1, case.nbuf)) % case.nbuf)
                    };
                    // Recycled pools name buffers by their base most of
                    // the time; the rest start anywhere.
                    let off = |rng: &mut TestRng| {
                        if rng.gen_bool(case.inside) {
                            rng.range_usize(0, case.buf - a.len + 1)
                        } else {
                            0
                        }
                    };
                    Op {
                        at: a.at,
                        src: (src, off(&mut rng)),
                        dst: (dst, off(&mut rng)),
                        len: a.len,
                    }
                })
                .collect()
        })
        .collect()
}

/// What the cache must not change.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Final bytes of every buffer, per tenant.
    bufs: Vec<Vec<Vec<u8>>>,
    /// Per tenant, per op: fault, all segments ready, handler fires.
    ops: Vec<Vec<(Option<CopyFault>, bool, u32)>>,
    pinned: usize,
}

struct Run {
    outcome: Outcome,
    atc: AtcStats,
    stale_injected: u64,
}

fn run(case: &Case, atcache_capacity: usize) -> Run {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, case.tenants + case.shards);
    let frames = case.tenants * case.nbuf * case.buf.div_ceil(PAGE_SIZE);
    let pm = Rc::new(PhysMem::new(frames + 1024, AllocPolicy::Scattered));
    let plan = FaultPlan::new(FaultConfig {
        seed: case.seed ^ 0xA7C,
        atc_stale_prob: case.stale,
        ..Default::default()
    });
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..case.shards)
            .map(|i| machine.core(case.tenants + i))
            .collect(),
        Rc::new(CostModel::default()),
        CopierConfig {
            atcache_capacity,
            copy_slice: case.copy_slice,
            use_dma: case.dma,
            fault_plan: Some(Rc::clone(&plan)),
            shards: case.shards,
            ..Default::default()
        },
    );
    svc.start();

    type Settled = Vec<(Rc<SegDescriptor>, Rc<Cell<u32>>)>;
    let done = Rc::new(Cell::new(0usize));
    let mut tenants = Vec::new();
    for (t, ops) in programs(case).into_iter().enumerate() {
        let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
        let lib = CopierHandle::new(&svc, Rc::clone(&space));
        let bufs: Vec<VirtAddr> = (0..case.nbuf)
            .map(|b| {
                let va = space.mmap(case.buf, Prot::RW, true).unwrap();
                space.write_bytes(va, &fill(case, t, b)).unwrap();
                va
            })
            .collect();
        let settled: Rc<std::cell::RefCell<Settled>> = Rc::default();
        let (settled2, bufs2, done2) = (Rc::clone(&settled), bufs.clone(), Rc::clone(&done));
        let (svc2, h2, core) = (Rc::clone(&svc), h.clone(), machine.core(t));
        let ntenants = case.tenants;
        sim.spawn("tenant", async move {
            for op in ops {
                let now = h2.now();
                if op.at > now {
                    h2.sleep(op.at - now).await;
                }
                let fires = Rc::new(Cell::new(0u32));
                let f2 = Rc::clone(&fires);
                let opts = AmemcpyOpts {
                    func: Some(Handler::KFunc(Rc::new(move || f2.set(f2.get() + 1)))),
                    ..Default::default()
                };
                let dst = bufs2[op.dst.0].add(op.dst.1);
                let src = bufs2[op.src.0].add(op.src.1);
                let d = lib
                    ._amemcpy(&core, dst, src, op.len, opts)
                    .await
                    .expect("admitted");
                settled2.borrow_mut().push((d, fires));
            }
            lib.csync_all(&core).await.expect("no faults injected");
            // Handlers fire at finalize, a round or two after the last
            // segment is marked.
            for _ in 0..200 {
                if settled2.borrow().iter().all(|(_, f)| f.get() > 0) {
                    break;
                }
                h2.sleep(Nanos(1_000)).await;
            }
            done2.set(done2.get() + 1);
            if done2.get() == ntenants {
                svc2.stop();
            }
        });
        tenants.push((space, bufs, settled));
    }
    sim.run();

    let outcome = Outcome {
        bufs: tenants
            .iter()
            .map(|(space, bufs, _)| {
                bufs.iter()
                    .map(|&va| {
                        let mut got = vec![0u8; case.buf];
                        space.read_bytes(va, &mut got).unwrap();
                        got
                    })
                    .collect()
            })
            .collect(),
        ops: tenants
            .iter()
            .map(|(_, _, settled)| {
                settled
                    .borrow()
                    .iter()
                    .map(|(d, fires)| (d.fault(), d.all_ready(), fires.get()))
                    .collect()
            })
            .collect(),
        pinned: pm.pinned_frames(),
    };
    Run {
        outcome,
        atc: svc.atcache().stats(),
        stale_injected: plan.log().atc_stale,
    }
}

/// The tenant programs run as plain sequential `memcpy`s.
fn model(case: &Case) -> Outcome {
    let progs = programs(case);
    Outcome {
        bufs: progs
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let mut bufs: Vec<Vec<u8>> = (0..case.nbuf).map(|b| fill(case, t, b)).collect();
                for op in ops {
                    let src = bufs[op.src.0][op.src.1..op.src.1 + op.len].to_vec();
                    bufs[op.dst.0][op.dst.1..op.dst.1 + op.len].copy_from_slice(&src);
                }
                bufs
            })
            .collect(),
        ops: progs
            .iter()
            .map(|ops| vec![(None, true, 1); ops.len()])
            .collect(),
        pinned: 0,
    }
}

#[test]
fn cache_on_and_off_agree_with_sequential_memcpy() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 48;
    }
    let (hits, stale) = (Cell::new(0), Cell::new(0));
    check_with(
        &cfg,
        gen_case,
        |_| Vec::new(),
        |case: &Case| -> PropResult {
            let want = model(case);
            let off = run(case, 0);
            let on = run(case, 256);
            prop_assert!(off.outcome == want, "cache off departs from memcpy");
            prop_assert!(on.outcome == want, "cache on departs from memcpy");
            prop_assert_eq!(off.atc, AtcStats::default());
            hits.set(hits.get() + on.atc.hits);
            stale.set(stale.get() + on.stale_injected);
            Ok(())
        },
    );
    assert!(
        cfg.repro.is_some() || (hits.get() > 0 && stale.get() > 0),
        "the cases must exercise hits ({}) and injected stale hits ({})",
        hits.get(),
        stale.get()
    );
}

/// Twice the buffers one table holds, spread over 32 spaces: each tenant's
/// pool fits its own table, so after the first touches (and each longer
/// length growing its entry once) everything hits and nothing is evicted.
/// With one machine-wide table of 256 this case hit 0.31 and evicted
/// 46 725 times.
#[test]
fn a_fleet_hits_like_one_tenant() {
    let case = Case {
        seed: 0xF1EE7,
        tenants: 32,
        nbuf: 16,
        buf: 16 * 1024,
        shards: 4,
        copy_slice: CopierConfig::default().copy_slice,
        // About half of what four AVX2 cores can copy.
        mean_gap: Nanos::from_micros(13),
        horizon: Nanos::from_millis(20),
        pairs: true,
        inside: 0.0,
        stale: 0.02,
        dma: false,
    };
    let want = model(&case);
    assert!(want.ops.iter().all(|ops| ops.len() > 1000));
    let off = run(&case, 0);
    let on = run(&case, 256);
    assert!(off.outcome == want, "cache off departs from memcpy");
    assert!(on.outcome == want, "cache on departs from memcpy");
    assert_eq!(off.atc, AtcStats::default());
    assert!(on.stale_injected > 0);
    let hit_frac = on.atc.hit_frac();
    assert!(hit_frac >= 0.9, "hit fraction {hit_frac:.3}: {:?}", on.atc);
    assert_eq!(on.atc.evictions, 0);
}

/// One service core, one client core, no DMA.
fn small_service(h: &SimHandle, pm: &Rc<PhysMem>, copy_slice: usize) -> (Rc<Machine>, Rc<Copier>) {
    let machine = Machine::new(h, 2);
    let svc = Copier::new(
        h,
        Rc::clone(pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig {
            copy_slice,
            use_dma: false,
            ..Default::default()
        },
    );
    svc.start();
    (machine, svc)
}

/// A task longer than `copy_slice` is served over k rounds. Its pins stay
/// until it finalizes, so the peak is the frames of both buffers — not
/// k destination translations on top of each other.
#[test]
fn a_multi_round_task_pins_each_frame_once() {
    const LEN: usize = 4 * SLICE;
    let mut sim = Sim::new();
    let h = sim.handle();
    let pm = Rc::new(PhysMem::new(256, AllocPolicy::Scattered));
    let (machine, svc) = small_service(&h, &pm, SLICE);
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let src = space.mmap(LEN, Prot::RW, true).unwrap();
    let dst = space.mmap(LEN, Prot::RW, true).unwrap();

    let finished = Rc::new(Cell::new(false));
    let peak = Rc::new(Cell::new(0u64));
    let (client, peak2, fin2, h2) = (
        Rc::clone(&lib.client),
        Rc::clone(&peak),
        Rc::clone(&finished),
        h.clone(),
    );
    sim.spawn("sampler", async move {
        while !fin2.get() {
            peak2.set(peak2.get().max(client.view().pinned));
            h2.sleep(Nanos(50)).await;
        }
    });
    let (core, svc2) = (machine.core(0), Rc::clone(&svc));
    sim.spawn("client", async move {
        lib.amemcpy(&core, dst, src, LEN).await.expect("admitted");
        lib.csync_all(&core).await.unwrap();
        finished.set(true);
        svc2.stop();
    });
    sim.run();

    assert!(svc.stats().tasks_completed == 1);
    assert_eq!(peak.get(), 2 * (LEN / PAGE_SIZE) as u64);
    assert_no_pinned_leaks(&pm);
}

/// Regression: ATCache entries used to outlive their address space. A
/// reaped client's entries stayed cached under `(AsId, generation)`, so a
/// new process with the same id, VA layout and mapping history hit them
/// and copied between the dead process's frames.
#[test]
fn a_reused_space_id_copies_its_own_memory() {
    const LEN: usize = 2 * PAGE_SIZE;
    let mut sim = Sim::new();
    let h = sim.handle();
    let pm = Rc::new(PhysMem::new(256, AllocPolicy::Scattered));
    let (machine, svc) = small_service(&h, &pm, 256 * 1024);
    let (core, svc2, pm2) = (machine.core(0), Rc::clone(&svc), Rc::clone(&pm));
    sim.spawn("processes", async move {
        // Two lives of address-space id 7, identical in every respect the
        // old freshness check looked at; only the payload differs.
        let mut squatters = Vec::new();
        let mut prev_frames = Vec::new();
        for life in 0..2u8 {
            let space = AddressSpace::new(7, Rc::clone(&pm2));
            let lib = CopierHandle::new(&svc2, Rc::clone(&space));
            let src = space.mmap(LEN, Prot::RW, true).unwrap();
            let dst = space.mmap(LEN, Prot::RW, true).unwrap();
            space.write_bytes(src, &[0xA0 + life; LEN]).unwrap();
            let frames = space.extents(dst, LEN).unwrap();
            assert_ne!(
                frames, prev_frames,
                "both lives on the same frames proves nothing"
            );
            prev_frames = frames;
            lib.amemcpy(&core, dst, src, LEN).await.expect("admitted");
            lib.csync_all(&core).await.unwrap();
            let mut got = [0u8; LEN];
            space.read_bytes(dst, &mut got).unwrap();
            assert!(
                got == [0xA0 + life; LEN],
                "life {life} copied foreign memory"
            );

            svc2.reap_client(&lib.client);
            assert!(
                !svc2
                    .atcache()
                    .lookup_into(&space, src, LEN, false, &mut Vec::new()),
                "reap must purge the client's translations"
            );
            // Another process takes over the frames the dead one frees,
            // so the next life is backed by different ones.
            let squatter = AddressSpace::new(8, Rc::clone(&pm2));
            drop((lib, space));
            squatter.mmap(4 * LEN, Prot::RW, true).unwrap();
            squatters.push(squatter);
        }
        svc2.stop();
    });
    sim.run();
    assert_no_pinned_leaks(&pm);
}
