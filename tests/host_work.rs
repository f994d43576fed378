//! Host work as counts (ROADMAP item 5): what the executor does per
//! operation, pinned exactly for runs shaped like four of the benchmark's
//! workloads. `Sim::stats` counts task polls, device calls, timers armed
//! and fired, spawns and waits completed in place; a rerun repeats every
//! count, so unlike a wall clock they compare across commits with `==`.
//! Counting charges no virtual time and draws nothing, and each run also
//! pins its virtual end so a change that moves host work cannot hide a
//! change in the model.
//!
//! A change that moves a count re-pins it here and reports the old and
//! new per-op values beside its wall-clock pairs (EXPERIMENTS.md, "Host
//! work per op").

use std::cell::Cell;
use std::rc::Rc;

use copier::apps::proxy::{Proxy, ProxyMode};
use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{
    AdmissionConfig, ControlObs, Copier, CopierConfig, Handler, PollMode, SegDescriptor,
};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, PAGE_SIZE};
use copier::os::{IoMode, NetStack, Os};
use copier::sim::{
    ArrivalDist, LenDist, Machine, Nanos, Sim, SimRng, SimStats, WorkloadConfig, WorkloadPlan,
};

/// One run's counts: executor work, the service's idle polls and control
/// observables, the ops it settled and its virtual end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    sim: SimStats,
    idle_polls: u64,
    obs: ControlObs,
    ops: u64,
    end_ns: u64,
}

impl Work {
    fn per_op(&self, n: u64) -> f64 {
        n as f64 / self.ops as f64
    }

    fn report(&self, name: &str) {
        let s = &self.sim;
        println!(
            "{name}: {} ops, per op: events {:.2} (polls {:.2}, device calls {:.2}), \
             timers armed {:.2}, fired {:.2}, spawns {:.2}, in place {:.2}; idle polls {:.2}",
            self.ops,
            self.per_op(s.events()),
            self.per_op(s.polls),
            self.per_op(s.resource_calls),
            self.per_op(s.timers_armed),
            self.per_op(s.timers_fired),
            self.per_op(s.spawns),
            self.per_op(s.in_place),
            self.per_op(self.idle_polls),
        );
    }
}

/// An open-loop fleet as the benchmark's copy workloads drive it:
/// `registered` tenants, the first `active` submitting `try_amemcpy`
/// at planned instants from `client_cores` cores to a service of
/// `cfg.shards` shards. A refused submission is an op that never settles.
struct Fleet {
    registered: usize,
    active: usize,
    client_cores: usize,
    cfg: CopierConfig,
    plan: WorkloadConfig,
}

fn fleet(f: Fleet) -> Work {
    let mut sim = Sim::new();
    let h = sim.handle();
    let shards = f.cfg.shards;
    let machine = Machine::new(&h, f.client_cores + shards);
    let pm = Rc::new(PhysMem::new(16 * 1024, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..shards)
            .map(|i| machine.core(f.client_cores + i))
            .collect(),
        Rc::new(CostModel::default()),
        f.cfg,
    );
    svc.start();
    let len_max = f.plan.len_max;
    let libs: Vec<Rc<CopierHandle>> = (0..f.registered)
        .map(|t| CopierHandle::new(&svc, AddressSpace::new(t as u32 + 1, Rc::clone(&pm))))
        .collect();
    let plan = WorkloadPlan::new(f.plan);
    let (settled, refused) = (Rc::new(Cell::new(0u64)), Rc::new(Cell::new(0u64)));
    let done = Rc::new(Cell::new(0usize));
    for (t, lib) in libs.iter().take(f.active).enumerate() {
        let space = Rc::clone(&lib.uspace);
        let src = space.mmap(len_max, Prot::RW, true).unwrap();
        let dst = space.mmap(len_max, Prot::RW, true).unwrap();
        space.write_bytes(src, &vec![t as u8 + 1; len_max]).unwrap();
        let (lib, plan, h) = (Rc::clone(lib), Rc::clone(&plan), h.clone());
        let (settled, refused, done) = (Rc::clone(&settled), Rc::clone(&refused), Rc::clone(&done));
        let core = machine.core(t % f.client_cores);
        sim.spawn("tenant", async move {
            for a in plan.tenant(t) {
                let now = h.now();
                if a.at > now {
                    h.sleep(a.at - now).await;
                }
                let settled = Rc::clone(&settled);
                let opts = AmemcpyOpts {
                    func: Some(Handler::KFunc(Rc::new(move || {
                        settled.set(settled.get() + 1);
                    }))),
                    descr: Some(Rc::new(SegDescriptor::new(a.len, 1024))),
                    ..Default::default()
                };
                if lib.try_amemcpy(&core, dst, src, a.len, opts).await.is_err() {
                    refused.set(refused.get() + 1);
                }
            }
            done.set(done.get() + 1);
        });
    }
    let (svc2, h2, active) = (Rc::clone(&svc), h.clone(), f.active);
    sim.spawn("driver", async move {
        while done.get() < active || svc2.admitted_bytes() > 0 {
            h2.sleep(Nanos::from_micros(20)).await;
        }
        svc2.stop();
    });
    let end = sim.run();
    let submitted = settled.get() + refused.get();
    assert_eq!(submitted, plan.total_arrivals() as u64, "ops lost");
    assert_eq!(pm.pinned_frames(), 0, "pins leaked");
    svc.audit_aggregates().expect("aggregates audit clean");
    Work {
        sim: sim.stats(),
        idle_polls: svc.stats().idle_polls,
        obs: svc.control_obs(),
        ops: settled.get(),
        end_ns: end.as_nanos(),
    }
}

/// `open_small` at 1/20 of its horizon: eight tenants on eight cores,
/// heavy-tailed small copies 4 µs apart per tenant.
fn open_small() -> Work {
    fleet(Fleet {
        registered: 8,
        active: 8,
        client_cores: 8,
        cfg: CopierConfig::default(),
        plan: WorkloadConfig {
            seed: 11,
            tenants: 8,
            mean_gap: Nanos::from_micros(4),
            len_min: 512,
            len_max: 64 * 1024,
            horizon: Nanos::from_millis(3),
            arrival: ArrivalDist::BoundedPareto {
                alpha: 1.5,
                spread: 1000.0,
            },
            length: LenDist::BoundedPareto { alpha: 1.2 },
        },
    })
}

/// `sparse_fleet` at 1/20 of its population and horizon: most of the
/// service's time is idle polls, parks and wake-ups.
fn sparse_fleet() -> Work {
    fleet(Fleet {
        registered: 5_000,
        active: 50,
        client_cores: 4,
        cfg: CopierConfig {
            queue_cap: 4,
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos::from_micros(50),
            },
            admission: AdmissionConfig {
                max_client_tasks: 16,
                max_client_bytes: 1024 * 1024,
                ..AdmissionConfig::default()
            },
            ..CopierConfig::default()
        },
        plan: WorkloadConfig {
            seed: 11,
            tenants: 50,
            mean_gap: Nanos::from_millis(1),
            len_min: 512,
            len_max: 16 * 1024,
            horizon: Nanos::from_millis(5),
            arrival: ArrivalDist::BoundedPareto {
                alpha: 1.5,
                spread: 1000.0,
            },
            length: LenDist::BoundedPareto { alpha: 1.2 },
        },
    })
}

/// `shard_overload` at 1/20 of its horizon: 32 tenants on 32 cores offer
/// 1.5× what four shards copy, with the benchmark's quotas and polling,
/// so admission and the round barrier do the work.
fn shard_overload() -> Work {
    fleet(Fleet {
        registered: 32,
        active: 32,
        client_cores: 32,
        cfg: CopierConfig {
            shards: 4,
            use_dma: false,
            admission: AdmissionConfig {
                max_client_tasks: 64,
                max_client_bytes: 4 * 1024 * 1024,
                max_client_pinned: 8192,
                global_high_bytes: 24 * 1024 * 1024,
                global_low_bytes: 18 * 1024 * 1024,
            },
            polling: PollMode::Napi {
                spin_rounds: 256,
                park_timeout: Nanos::from_micros(50),
            },
            ..CopierConfig::default()
        },
        plan: WorkloadConfig {
            seed: 11,
            tenants: 32,
            mean_gap: Nanos(21_845),
            len_min: 16 * 1024,
            len_max: 64 * 1024,
            horizon: Nanos::from_millis(5),
            arrival: ArrivalDist::Exponential,
            length: LenDist::Uniform,
        },
    })
}

/// `proxy_chain`'s chain (the benchmark's, and `tests/proxy_soak.rs`'s):
/// two workers, each a paced client → `NetStack::send` → `Proxy` in
/// Copier mode → a sink polling its socket, 8–24 KiB every 12 µs.
fn proxy_chain() -> Work {
    const MSGS: usize = 300;
    let w = 2;
    let gap = Nanos::from_micros(12).as_nanos();
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 3 * w + 1);
    let os = Os::boot(&h, machine, 32 * 1024);
    os.install_copier(vec![os.machine.core(3 * w)], CopierConfig::default());
    let net = NetStack::new(&os);
    let io_cap = (24 * 1024usize).next_multiple_of(PAGE_SIZE);
    let proxy_proc = os.spawn_process();
    let arrived = Rc::new(Cell::new(0u64));
    for t in 0..w {
        let (client_tx, proxy_rx) = net.socket_pair();
        let (proxy_tx, sink_rx) = net.socket_pair();
        let fd = if t > 0 {
            proxy_proc.lib().create_queue(1024)
        } else {
            0
        };
        let proxy = Proxy::with_process(
            &os,
            &net,
            ProxyMode::Copier,
            io_cap,
            Rc::clone(&proxy_proc),
            fd,
        )
        .expect("proxy buffers");
        let pcore = os.machine.core(w + t);
        sim.spawn("proxy", async move {
            proxy
                .pump(&pcore, proxy_rx, proxy_tx, MSGS as u64)
                .await
                .expect("forward");
        });
        {
            let (os, net, h) = (Rc::clone(&os), Rc::clone(&net), h.clone());
            let core = os.machine.core(2 * w + t);
            let arrived = Rc::clone(&arrived);
            sim.spawn("sink", async move {
                let proc = os.spawn_process();
                let buf = proc.space.mmap(io_cap, Prot::RW, true).unwrap();
                for _ in 0..MSGS {
                    while sink_rx.rx_depth() == 0 {
                        h.sleep(Nanos(500)).await;
                    }
                    net.recv(&core, &proc, &sink_rx, buf, io_cap, IoMode::Sync)
                        .await
                        .expect("sink recv");
                    arrived.set(arrived.get() + 1);
                }
            });
        }
        {
            let (os, net, h) = (Rc::clone(&os), Rc::clone(&net), h.clone());
            let core = os.machine.core(t);
            sim.spawn("client", async move {
                let proc = os.spawn_process();
                let buf = proc.space.mmap(io_cap, Prot::RW, true).unwrap();
                let rng = SimRng::new(t as u64);
                let phase = rng.gen_range(gap);
                for k in 0..MSGS as u64 {
                    let due = Nanos(phase + k * gap);
                    if due > h.now() {
                        h.sleep(due - h.now()).await;
                    }
                    let len = rng.range_usize(8 * 1024, 24 * 1024 + 1);
                    proc.space.write_bytes(buf, &vec![k as u8; len]).unwrap();
                    net.send(&core, &proc, &client_tx, buf, len, IoMode::Sync)
                        .await
                        .expect("client send");
                }
            });
        }
    }
    {
        let (os, h, arrived) = (Rc::clone(&os), h.clone(), Rc::clone(&arrived));
        sim.spawn("driver", async move {
            while arrived.get() < (w * MSGS) as u64 {
                h.sleep(Nanos::from_micros(20)).await;
            }
            h.sleep(Nanos::from_micros(200)).await;
            os.copier().stop();
        });
    }
    let end = sim.run();
    assert_eq!(arrived.get(), (w * MSGS) as u64, "messages lost");
    os.copier()
        .audit_aggregates()
        .expect("aggregates audit clean");
    Work {
        sim: sim.stats(),
        idle_polls: os.copier().stats().idle_polls,
        obs: os.copier().control_obs(),
        ops: arrived.get(),
        end_ns: end.as_nanos(),
    }
}

/// Runs `f` twice: the counts are a property of the code, not the run.
fn repeatable(name: &str, f: fn() -> Work) -> Work {
    let w = f();
    w.report(name);
    assert_eq!(f(), w, "{name}: host-work counts do not repeat");
    w
}

/// `[ops, virtual end ns, polls, device calls, timers armed, timers
/// fired, spawns, waits completed in place, idle polls]`.
fn counts(w: &Work) -> [u64; 9] {
    let s = &w.sim;
    [
        w.ops,
        w.end_ns,
        s.polls,
        s.resource_calls,
        s.timers_armed,
        s.timers_fired,
        s.spawns,
        s.in_place,
        w.idle_polls,
    ]
}

/// Pins `f`'s counts to `now`. `parent` is the same run before waits
/// completed in place (counters ported): ops, virtual end, spawns and
/// idle polls are the same, and every poll it made that this one does not
/// is one wait completed in place.
fn pinned(name: &str, f: fn() -> Work, parent: [u64; 9], now: [u64; 9]) {
    let w = repeatable(name, f);
    assert_eq!(counts(&w), now, "{name}");
    let unmoved = |c: [u64; 9]| [c[0], c[1], c[6], c[8]];
    assert_eq!(unmoved(parent), unmoved(now), "{name}");
    assert_eq!(
        parent[2] - w.sim.polls,
        w.sim.in_place,
        "{name}: polls saved against waits completed in place"
    );
}

#[test]
fn open_small_host_work_is_pinned() {
    pinned(
        "open_small",
        open_small,
        [6228, 3000057, 41069, 72518, 44792, 44792, 11, 0, 18121],
        [6228, 3000057, 16757, 23894, 20480, 20480, 11, 24312, 18121],
    );
}

#[test]
fn sparse_fleet_host_work_is_pinned() {
    pinned(
        "sparse_fleet",
        sparse_fleet,
        [267, 5009749, 2926, 4404, 3030, 3030, 53, 0, 22513],
        [267, 5009749, 1362, 1328, 1466, 1466, 53, 1564, 22513],
    );
}

#[test]
fn proxy_chain_host_work_is_pinned() {
    pinned(
        "proxy_chain",
        proxy_chain,
        [600, 3870907, 47219, 69346, 58797, 58797, 1209, 0, 31221],
        [600, 3870907, 41434, 57776, 53012, 53012, 1209, 5785, 31221],
    );
}

/// `[activations, deactivations, assign_rebuilds, minvr_recomputes,
/// hash_refolds, barrier_wait_ns]`.
fn obs(w: &Work) -> [u64; 6] {
    let o = &w.obs;
    [
        o.activations,
        o.deactivations,
        o.assign_rebuilds,
        o.minvr_recomputes,
        o.hash_refolds,
        o.barrier_wait_ns,
    ]
}

/// Four shards, the one workload whose counters a shard owning its own
/// assignment epoch moves: the parent shared one epoch across shards, so
/// every shard's membership change rebuilt every shard's list. Executor
/// counts and every other control observable are the parent's;
/// `assign_rebuilds` (index 2) may only have gone down.
#[test]
fn shard_overload_host_work_is_pinned() {
    let parent = (
        [7277, 5740045, 64394, 112034, 63526, 63526, 37, 14676, 132],
        [144, 144, 696, 690, 0, 3330541],
    );
    let now = (
        [7277, 5740045, 64394, 112034, 63526, 63526, 37, 14676, 132],
        [144, 144, 231, 690, 0, 3330541],
    );
    let w = repeatable("shard_overload", shard_overload);
    assert_eq!((counts(&w), obs(&w)), now);
    assert_eq!(parent.0, now.0, "executor counts moved");
    let others = |o: [u64; 6]| [o[0], o[1], o[3], o[4], o[5]];
    assert_eq!(others(parent.1), others(now.1), "a control count moved");
    assert!(now.1[2] <= parent.1[2], "assign_rebuilds went up");
}
