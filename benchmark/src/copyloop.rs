//! The service-level scenario engine behind five of the six workloads:
//! tenants submit `amemcpy` tasks straight to a `Copier` service, either
//! open loop from a `WorkloadPlan` or closed loop in csync'd batches.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use copier_client::{sync_memcpy, AmemcpyOpts, CopierHandle};
use copier_core::{Copier, CopierConfig, Handler, JournalStore, SegDescriptor, VerifyPolicy};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier_sim::{
    stream_seed, ArrivalDist, LenDist, Machine, Nanos, Sim, SimRng, Tracer, WorkloadConfig,
    WorkloadPlan,
};

use crate::layers::{self, Layers};
use crate::record::{bytes_equal, classify, BufPair, Recorder};
use crate::run::{pad_unattempted, run_guarded, Check, RunOut};
use crate::stats::Outcome;

/// How the tenants generate load.
#[derive(Debug, Clone)]
pub enum Traffic {
    /// Each tenant submits on its `WorkloadPlan` schedule with
    /// `try_amemcpy`, whatever the service does (a refusal is a failed op).
    Open {
        mean_gap: Nanos,
        len_min: usize,
        len_max: usize,
        horizon: Nanos,
        arrival: ArrivalDist,
        length: LenDist,
    },
    /// One client submits `batch` copies, `csync_all`s, and repeats, over
    /// `pool` reused buffer pairs whose lengths the seed draws once.
    Closed {
        copies: usize,
        batch: usize,
        len_min: usize,
        len_max: usize,
    },
}

/// The reliability features `guarded_small` turns on, each separable so
/// the traced run can price them one at a time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Guards {
    pub tracer: bool,
    pub journal: bool,
    pub verify: bool,
}

impl Guards {
    pub const ALL: Guards = Guards {
        tracer: true,
        journal: true,
        verify: true,
    };
}

/// One service-level workload.
#[derive(Debug, Clone)]
pub struct CopySpec {
    /// Tenants registered with the service.
    pub registered: usize,
    /// Tenants that own buffers and submit (the first `active`).
    pub active: usize,
    /// Cores the active tenants share (tenant `t` runs on `t % client_cores`).
    pub client_cores: usize,
    /// Physical frames.
    pub frames: usize,
    /// Reusable buffer pairs per active tenant.
    pub pool: usize,
    /// Service configuration (`shards` service cores are dedicated).
    pub cfg: CopierConfig,
    pub traffic: Traffic,
    pub guards: Guards,
}

/// Runs `spec` once. `t0` is the process start: `setup_s` runs from it to
/// the first `Sim::run`.
pub fn run(spec: &CopySpec, seed: u64, traced: bool, t0: Instant) -> RunOut {
    let mut sim = Sim::new();
    let h = sim.handle();
    let shards = spec.cfg.shards.max(1);
    let machine = Machine::new(&h, spec.client_cores + shards);
    let pm = Rc::new(PhysMem::new(spec.frames, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let tracer = spec.guards.tracer.then(Tracer::record);
    let mut cfg = spec.cfg.clone();
    cfg.tracer = tracer.clone();
    cfg.journal = spec.guards.journal.then(JournalStore::new);
    if spec.guards.verify {
        cfg.verify = VerifyPolicy::Full;
    }
    let seg = cfg.segment;
    let svc_cores: Vec<_> = (0..shards)
        .map(|i| machine.core(spec.client_cores + i))
        .collect();
    let svc = Copier::new(&h, Rc::clone(&pm), svc_cores.clone(), Rc::clone(&cost), cfg);
    svc.start();

    // Registration: the whole population; only the first `active` tenants
    // get buffers. Sources are filled from the seed, destinations start
    // zeroed, so a destination equal to its source proves a copy landed.
    let len_max = match spec.traffic {
        Traffic::Open { len_max, .. } | Traffic::Closed { len_max, .. } => len_max,
    };
    let mut libs: Vec<Rc<CopierHandle>> = Vec::with_capacity(spec.registered);
    for t in 0..spec.registered {
        let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
        libs.push(CopierHandle::new(&svc, space));
    }
    let mut fill = vec![0u8; len_max];
    let pools: Vec<Vec<Rc<BufPair>>> = (0..spec.active)
        .map(|t| {
            let space = Rc::clone(&libs[t].uspace);
            let rng = SimRng::new(stream_seed(seed ^ 0xB0FF_E125, t as u64));
            (0..spec.pool)
                .map(|_| {
                    let src = space.mmap(len_max, Prot::RW, true).expect("src buffer");
                    let dst = space.mmap(len_max, Prot::RW, true).expect("dst buffer");
                    rng.fill_bytes(&mut fill);
                    space.write_bytes(src, &fill).expect("fill src");
                    Rc::new(BufPair {
                        space: Rc::clone(&space),
                        src,
                        dst,
                        landed: Cell::new(0),
                    })
                })
                .collect()
        })
        .collect();
    drop(fill);

    // The plan: all the program ever sees of the seed.
    let plan_t0 = Instant::now();
    let (arrivals, horizon): (Vec<Vec<(u64, usize)>>, u64) = match &spec.traffic {
        Traffic::Open {
            mean_gap,
            len_min,
            len_max,
            horizon,
            arrival,
            length,
        } => {
            let plan = WorkloadPlan::new(WorkloadConfig {
                seed,
                tenants: spec.active,
                mean_gap: *mean_gap,
                len_min: *len_min,
                len_max: *len_max,
                horizon: *horizon,
                arrival: *arrival,
                length: *length,
            });
            let per = (0..spec.active)
                .map(|t| {
                    plan.tenant(t)
                        .iter()
                        .map(|a| (a.at.as_nanos(), a.len))
                        .collect()
                })
                .collect();
            (per, horizon.as_nanos())
        }
        Traffic::Closed {
            copies,
            len_min,
            len_max,
            ..
        } => {
            let rng = SimRng::new(stream_seed(seed, 0));
            let pair_len: Vec<usize> = (0..spec.pool)
                .map(|_| rng.range_usize(*len_min, *len_max + 1))
                .collect();
            (
                vec![(0..*copies).map(|i| (0, pair_len[i % spec.pool])).collect()],
                0,
            )
        }
    };
    let plan_gen_s = plan_t0.elapsed().as_secs_f64();
    let plan_arrivals: usize = arrivals.iter().map(Vec::len).sum();
    let plan_bytes: u64 = arrivals.iter().flatten().map(|a| a.1 as u64).sum();
    let mean_len = (plan_bytes / plan_arrivals.max(1) as u64) as usize;

    let arrivals = Rc::new(arrivals);
    let rec = Recorder::new(&h, traced, plan_arrivals);
    let done = Rc::new(Cell::new(0usize));
    for t in 0..spec.active {
        let lib = Rc::clone(&libs[t]);
        let pool = pools[t].clone();
        let plan = Rc::clone(&arrivals);
        let core = machine.core(t % spec.client_cores);
        let h2 = h.clone();
        let rec = Rc::clone(&rec);
        let done = Rc::clone(&done);
        match spec.traffic {
            Traffic::Open { .. } => sim.spawn("tenant", async move {
                for (i, &(at, len)) in plan[t].iter().enumerate() {
                    let now = h2.now().as_nanos();
                    if at > now {
                        h2.sleep(Nanos(at - now)).await;
                    }
                    let pair = &pool[i % pool.len()];
                    let op = rec.begin(t, len, at);
                    let descr = Rc::new(SegDescriptor::new(len, seg));
                    let opts = AmemcpyOpts {
                        func: Some(rec.settle_handler(op, &descr, pair, len)),
                        descr: Some(descr),
                        ..Default::default()
                    };
                    let r = lib.try_amemcpy(&core, pair.dst, pair.src, len, opts).await;
                    rec.submitted(op, r.is_ok());
                }
                done.set(done.get() + 1);
            }),
            Traffic::Closed { batch, .. } => sim.spawn("tenant", async move {
                let sched = &plan[t];
                let mut i = 0usize;
                while i < sched.len() {
                    let n = batch.min(sched.len() - i);
                    let mut inflight = Vec::with_capacity(n);
                    for k in i..i + n {
                        let len = sched[k].1;
                        let pair = Rc::clone(&pool[k % pool.len()]);
                        // Closed loop: an op is due when its turn comes.
                        let op = rec.begin(t, len, h2.now().as_nanos());
                        let rec2 = Rc::clone(&rec);
                        let opts = AmemcpyOpts {
                            func: Some(Handler::KFunc(Rc::new(move || rec2.stamp_settle(op)))),
                            ..Default::default()
                        };
                        let r = lib._amemcpy(&core, pair.dst, pair.src, len, opts).await;
                        rec.submitted(op, r.is_ok());
                        if let Ok(d) = r {
                            inflight.push((op, d, pair, len));
                        }
                    }
                    let wait_t0 = rec.now();
                    let synced = lib.csync_all(&core).await;
                    rec.span("client.csync_all", u32::MAX as usize, wait_t0);
                    for (op, d, pair, len) in inflight {
                        let outcome = match synced {
                            Ok(()) => classify(op, &d, &pair, len),
                            Err(_) => Outcome::Faulted,
                        };
                        rec.set_outcome(op, outcome);
                    }
                    i += n;
                }
                done.set(done.get() + 1);
            }),
        };
    }

    // Driver: once every generator is through its plan, wait for the
    // service windows to drain, stamp the end, stop the service.
    let drain_end = Rc::new(Cell::new(0u64));
    {
        let svc = Rc::clone(&svc);
        let h2 = h.clone();
        let drain_end = Rc::clone(&drain_end);
        let active = spec.active;
        sim.spawn("driver", async move {
            while done.get() < active {
                h2.sleep(Nanos::from_micros(20)).await;
            }
            let mut stable = 0;
            while stable < 3 {
                h2.sleep(Nanos::from_micros(10)).await;
                stable = if svc.admitted_bytes() == 0 {
                    stable + 1
                } else {
                    0
                };
            }
            drain_end.set(h2.now().as_nanos());
            svc.stop();
        });
    }

    let setup_s = t0.elapsed().as_secs_f64();
    let wall_t0 = Instant::now();
    let panicked = run_guarded(&mut sim).is_err();
    let host_wall_s = wall_t0.elapsed().as_secs_f64();

    let mut ops = rec.take_ops();
    let spans = rec.take_spans();
    let end = if panicked {
        pad_unattempted(&mut ops, &arrivals);
        sim.now().as_nanos()
    } else {
        drain_end.get()
    };
    // Warm-up is the first tenth of the arrival horizon; the closed loop
    // has no horizon, so it is the first tenth of its ops.
    let warmup_end = match spec.traffic {
        Traffic::Open { .. } => horizon / 10,
        Traffic::Closed { .. } => ops.get(ops.len() / 10).map_or(0, |o| o.due),
    };

    let mut checks = vec![
        Check::new("sim_run_completed", !panicked, "panic inside Sim::run"),
        Check::new(
            "pinned_frames_zero",
            pm.pinned_frames() == 0,
            &format!("{} frames still pinned", pm.pinned_frames()),
        ),
    ];
    let audit = svc.audit_aggregates();
    checks.push(Check::new(
        "audit_aggregates",
        audit.is_ok(),
        audit.as_ref().err().map_or("", String::as_str),
    ));
    let settle_mismatch = ops
        .iter()
        .filter(|o| o.outcome == Outcome::Mismatch)
        .count();
    checks.push(Check::new(
        "settle_sample_bytes_equal",
        settle_mismatch == 0,
        &format!("{settle_mismatch} sampled ops landed wrong bytes"),
    ));
    let bad_pairs = pools
        .iter()
        .flatten()
        .filter(|p| p.landed.get() > 0 && !bytes_equal(&p.space, p.dst, p.src, p.landed.get()))
        .count();
    checks.push(Check::new(
        "drain_pairs_bytes_equal",
        bad_pairs == 0,
        &format!("{bad_pairs} buffer pairs differ at drain"),
    ));

    let mut layers = Layers::new();
    if traced {
        let sim_end = sim.now().as_nanos();
        layers.extend([
            ("sim.virt_end_ms", end as f64 / 1e6),
            ("sim.plan_arrivals", plan_arrivals as f64),
            ("sim.plan_gen_s", plan_gen_s),
            (
                "sim.trace_events",
                tracer.as_ref().map_or(0, |t| t.events_len()) as f64,
            ),
            (
                "sim.trace_bytes",
                tracer.as_ref().map_or(0, |t| t.finish().encode().len()) as f64,
            ),
            ("mem.frames_allocated", pm.allocated() as f64),
            ("mem.pinned_frames_end", pm.pinned_frames() as f64),
        ]);
        layers.extend(layers::generator(&ops));
        layers.extend(layers::copy_ops(&ops, &spans));
        layers.extend(layers::clients(libs[..spec.active].iter()));
        layers.extend(layers::service(&svc, &svc_cores, host_wall_s, sim_end));
        let sample: Vec<usize> = arrivals.iter().flatten().map(|a| a.1).take(4096).collect();
        layers.push(("hw.avx2_loop_gbps", avx2_loop_gbps(&sample, len_max)));
    }

    RunOut {
        ops,
        spans,
        warmup_end,
        drain_end: end,
        setup_s,
        host_wall_s,
        checks,
        layers,
        mean_len,
    }
}

/// Virtual GB/s of one core running `sync_memcpy` (the AVX2 curve) back to
/// back over `lens`: the no-Copier reference `hw.speedup_vs_avx2` divides
/// goodput by.
fn avx2_loop_gbps(lens: &[usize], len_max: usize) -> f64 {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 1);
    let pm = Rc::new(PhysMem::new(
        2 * len_max.div_ceil(copier_mem::PAGE_SIZE) + 8,
        AllocPolicy::Scattered,
    ));
    let cost = Rc::new(CostModel::default());
    let space = AddressSpace::new(1, pm);
    let src = space.mmap(len_max, Prot::RW, true).expect("src");
    let dst = space.mmap(len_max, Prot::RW, true).expect("dst");
    let core = machine.core(0);
    let lens = lens.to_vec();
    let bytes: usize = lens.iter().sum();
    sim.spawn("avx2-loop", async move {
        for len in lens {
            sync_memcpy(&core, &cost, &space, dst, src, len)
                .await
                .expect("sync copy");
        }
    });
    let end = sim.run().as_nanos();
    bytes as f64 / end.max(1) as f64
}
