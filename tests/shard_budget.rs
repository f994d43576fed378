//! The byte watermark is a per-shard budget (DESIGN.md §11, §17): a shard
//! latches shedding when its *own* admitted bytes reach
//! `global_high_bytes / n`, releases at `global_low_bytes / n`, and reads
//! no peer's count. Open-loop tenants are pinned to chosen shards (space
//! ids searched for their hash) and offered a chosen multiple of what one
//! service core copies:
//!
//! * **(a)** with the least-served exemption out of play — an idle
//!   registered tenant per shard sits at vruntime 0 for the whole run, so
//!   only a tenant never served yet ties with it — every recorded
//!   admission decision equals the shard-local latch walked over the
//!   trace, and once a shard's tenants have all been served its sampled
//!   `shard_admitted_bytes` stays within `global_high_bytes / n` plus one
//!   task. (The exemption admits past any watermark by design; what it
//!   adds is bounded by the exempt tenant's own quota, not by the share.)
//! * **(b)** isolation: tenants on a shard offered half a core see no
//!   `Overloaded` and no refusal while a peer shard is offered 3× its
//!   capacity. At the parent commit the peer's backlog filled the global
//!   watermark and the quiet shard shed.
//! * **(c)** a lone hot shard, peers idle, has a share ≥ 2 × `copy_slice`
//!   and, while its tenants submit, copies within 2 % of what it copies
//!   with the whole watermark to itself (the parent's rule when peers
//!   hold nothing) and at more than 0.9 of the nominal core rate.
//! * **(d)** at one shard the share is the whole watermark: an overloaded
//!   recording hashes to the value the parent commit's build records.
//! * **(e)** record → replay at 4 shards, exemption live, is
//!   byte-identical.
//!
//! Every run checks served destinations against their sources, pins,
//! `audit_aggregates()` and that the shards' counts sum to
//! `admitted_bytes()`. Reproduce property failures with the printed
//! `TESTKIT_REPRO=<seed>` line.
//!
//! Mutants tried against this file (each fails the tests named): the
//! share not divided, `g >= global_high_bytes` — the latch walk of (a),
//! and with the walk switched off its sampled bound; the share taken from
//! the peers' counts as at the parent, `g = own + Σ peers` (live sum or
//! the parent's barrier snapshot) — (a)'s latch walk and (b); the low
//! watermark not divided — (a)'s latch walk (the shard readmits before
//! the model's latch releases); one latch shared by all shards — (a)'s
//! latch walk; the high watermark divided twice — (a)'s latch walk.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{
    stats_to_vec, AdmissionConfig, Copier, CopierConfig, CopyFault, PollMode, SegDescriptor,
    DEFAULT_COPY_SLICE,
};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::sim::trace::{fnv_fold, FNV_OFFSET};
use copier::sim::{Machine, Nanos, Sim, Trace, TraceEvent, Tracer};
use copier_testkit::prop::{check_with, Config, PropResult};
use copier_testkit::{prop_assert, prop_assert_eq, TestRng};

const LEN_MIN: usize = 16 * 1024;
const LEN_MAX: usize = 64 * 1024;
/// Buffer pairs per tenant, reused round-robin.
const POOL: usize = 8;
/// Nominal single-core service copy bandwidth, bytes/ns.
const CORE_RATE: f64 = 10.0;

#[derive(Debug, Clone)]
struct Tenant {
    shard: usize,
    /// `(virtual ns since the previous submission, bytes)`.
    arrivals: Vec<(u64, usize)>,
}

#[derive(Debug, Clone)]
struct Case {
    shards: usize,
    high: u64,
    low: u64,
    /// One idle registered tenant per shard: holds the least-served
    /// exemption (vruntime 0) so no served tenant is ever exempt.
    sentinels: bool,
    tenants: Vec<Tenant>,
}

impl Case {
    fn share(&self) -> u64 {
        self.high / self.shards as u64
    }
}

/// Poisson arrivals of uniform lengths offering `load` × one core's copy
/// rate over `horizon` ns.
fn gen_tenant(rng: &mut TestRng, shard: usize, load: f64, horizon: u64) -> Tenant {
    let mean_gap = (LEN_MIN + LEN_MAX) as f64 / 2.0 / (load * CORE_RATE);
    let mut arrivals = Vec::new();
    let mut at = 0u64;
    loop {
        let gap = (-(1.0 - rng.gen_f64()).ln() * mean_gap) as u64;
        at += gap;
        if at >= horizon {
            return Tenant { shard, arrivals };
        }
        arrivals.push((gap, rng.range_usize(LEN_MIN, LEN_MAX + 1)));
    }
}

/// Virtual ns over which tenants submit.
const HORIZON: u64 = 600_000;
/// The same for (c), where a round's worth of bytes must be under 2 %.
const LONG_HORIZON: u64 = 4_000_000;

/// `members` tenants on `shard` offering `load` × a core between them
/// for `horizon` ns.
fn gen_group(
    rng: &mut TestRng,
    shard: usize,
    members: usize,
    load: f64,
    horizon: u64,
    out: &mut Vec<Tenant>,
) {
    for _ in 0..members {
        out.push(gen_tenant(rng, shard, load / members as f64, horizon));
    }
}

/// Simpler cases: one tenant fewer, or the second half of one's arrivals
/// dropped.
fn shrink(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for i in 0..case.tenants.len() {
        if case.tenants.len() > 1 {
            let mut c = case.clone();
            c.tenants.remove(i);
            out.push(c);
        }
        let n = case.tenants[i].arrivals.len();
        if n > 1 {
            let mut c = case.clone();
            c.tenants[i].arrivals.truncate(n / 2);
            out.push(c);
        }
    }
    out
}

fn cases(default: u32) -> Config {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = default;
    }
    cfg
}

/// What one tenant's run came to.
#[derive(Debug, PartialEq)]
struct TenantOut {
    /// The service's client id and the shard it landed on.
    id: u32,
    shard: usize,
    served_bytes: u64,
    /// Submissions the service shed `Overloaded`.
    shed: usize,
    /// Submissions the library refused (no credit, ring full).
    refused: usize,
}

/// Everything a second run of the same case must reproduce.
#[derive(Debug, PartialEq)]
struct RunOut {
    end: u64,
    stats: Vec<u64>,
    tenants: Vec<TenantOut>,
    /// Bytes the service had copied at `LONG_HORIZON`.
    copied_at_horizon: u64,
    /// A sampled `shard_admitted_bytes` above the share plus one task,
    /// taken once every tenant of the shard had been served and the shard
    /// had been back within its share: `(shard, bytes)`.
    over_share: Option<(usize, u64)>,
}

/// Runs `case`, checks what every run must satisfy, and samples the
/// per-shard admitted bytes every 200 ns.
fn run(case: &Case, tracer: Option<&Rc<Tracer>>) -> Result<RunOut, String> {
    let mut sim = Sim::new();
    let h = sim.handle();
    let (n, shards) = (case.tenants.len(), case.shards);
    let machine = Machine::new(&h, n + shards);
    let pm = Rc::new(PhysMem::new(
        n * POOL * 2 * LEN_MAX / 4096 + 1024,
        AllocPolicy::Scattered,
    ));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..shards).map(|i| machine.core(n + i)).collect(),
        Rc::new(CostModel::default()),
        CopierConfig {
            shards,
            use_dma: false,
            tracer: tracer.cloned(),
            // Roomy per-client quotas: only the watermark sheds.
            admission: AdmissionConfig {
                max_client_tasks: 1024,
                max_client_bytes: 1 << 30,
                max_client_pinned: 1 << 20,
                global_high_bytes: case.high,
                global_low_bytes: case.low,
            },
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos(20_000),
            },
            ..Default::default()
        },
    );
    svc.start();

    // A space whose id hashes to the wanted shard.
    let next_id = Cell::new(1u32);
    let space_on = |shard: usize| loop {
        let id = next_id.replace(next_id.get() + 1);
        if svc.shard_of_space(id) == shard {
            return AddressSpace::new(id, Rc::clone(&pm));
        }
    };
    let _sentinels: Vec<Rc<CopierHandle>> = (0..shards)
        .filter(|_| case.sentinels)
        .map(|s| CopierHandle::new(&svc, space_on(s)))
        .collect();

    type Ops = Rc<RefCell<Vec<(Rc<SegDescriptor>, usize, usize)>>>;
    struct Live {
        lib: Rc<CopierHandle>,
        space: Rc<AddressSpace>,
        /// `(dst, src)` pairs.
        pool: Vec<(VirtAddr, VirtAddr)>,
        /// `(descriptor, pair, len)` per accepted submission.
        ops: Ops,
        refused: Rc<Cell<usize>>,
    }
    let done = Rc::new(Cell::new(0usize));
    let mut world: Vec<Live> = Vec::new();
    for (t, tenant) in case.tenants.iter().enumerate() {
        let space = space_on(tenant.shard);
        let lib = CopierHandle::new(&svc, Rc::clone(&space));
        prop_assert_eq!(lib.client.shard.get(), tenant.shard);
        let pool: Vec<(VirtAddr, VirtAddr)> = (0..POOL)
            .map(|b| {
                let dst = space.mmap(LEN_MAX, Prot::RW, true).unwrap();
                let src = space.mmap(LEN_MAX, Prot::RW, true).unwrap();
                let fill = vec![(t * POOL + b) as u8 | 1; LEN_MAX];
                space.write_bytes(src, &fill).unwrap();
                (dst, src)
            })
            .collect();
        let ops: Ops = Rc::default();
        let refused = Rc::new(Cell::new(0usize));
        let (lib2, pool2, ops2, refused2) = (
            Rc::clone(&lib),
            pool.clone(),
            Rc::clone(&ops),
            Rc::clone(&refused),
        );
        let (h2, core, arrivals, done2) = (
            h.clone(),
            machine.core(t),
            tenant.arrivals.clone(),
            Rc::clone(&done),
        );
        sim.spawn("tenant", async move {
            for (i, &(gap, len)) in arrivals.iter().enumerate() {
                h2.sleep(Nanos(gap)).await;
                let (dst, src) = pool2[i % POOL];
                match lib2
                    .try_amemcpy(&core, dst, src, len, AmemcpyOpts::default())
                    .await
                {
                    Ok(d) => ops2.borrow_mut().push((d, i % POOL, len)),
                    Err(_) => refused2.set(refused2.get() + 1),
                }
            }
            done2.set(done2.get() + 1);
        });
        world.push(Live {
            lib,
            space,
            pool,
            ops,
            refused,
        });
    }

    // Sampler and driver in one: every 200 ns read each shard's count;
    // once the tenants are through and the windows have drained, stop.
    let over_share = Rc::new(Cell::new(None));
    let copied_at_horizon = Rc::new(Cell::new(0u64));
    {
        let (svc, h2, over) = (Rc::clone(&svc), h.clone(), Rc::clone(&over_share));
        let at_horizon = Rc::clone(&copied_at_horizon);
        let clients: Vec<_> = world.iter().map(|w| Rc::clone(&w.lib.client)).collect();
        let bound = case.share() + LEN_MAX as u64;
        let (share, sentinels) = (case.share(), case.sentinels);
        sim.spawn("sampler", async move {
            let mut armed = vec![false; shards];
            let mut idle = 0;
            while idle < 100 {
                h2.sleep(Nanos(200)).await;
                if h2.now().as_nanos() <= LONG_HORIZON {
                    at_horizon.set(svc.stats().bytes_copied);
                }
                let per: Vec<u64> = (0..shards).map(|s| svc.shard_admitted_bytes(s)).collect();
                assert_eq!(per.iter().sum::<u64>(), svc.admitted_bytes());
                for (s, &bytes) in per.iter().enumerate() {
                    let all_served = clients
                        .iter()
                        .filter(|c| c.shard.get() == s)
                        .all(|c| c.copied_total.get() > 0);
                    armed[s] |= sentinels && all_served && bytes <= share;
                    if armed[s] && bytes > bound && over.get().is_none() {
                        over.set(Some((s, bytes)));
                    }
                }
                let quiet = done.get() == n && svc.admitted_bytes() == 0;
                idle = if quiet { idle + 1 } else { 0 };
            }
            svc.stop();
        });
    }
    let end = sim.run();

    prop_assert_eq!(pm.pinned_frames(), 0, "pins leaked");
    svc.audit_aggregates()?;
    let mut tenants = Vec::new();
    for (t, w) in world.iter().enumerate() {
        let mut landed = [0usize; POOL];
        let mut shed = 0;
        for (d, pair, len) in w.ops.borrow().iter() {
            match d.fault() {
                None => {
                    prop_assert!(d.all_ready(), "tenant {t}: a task never settled");
                    landed[*pair] = landed[*pair].max(*len);
                }
                Some(CopyFault::Overloaded) => shed += 1,
                Some(f) => return Err(format!("tenant {t}: fault {f:?}")),
            }
        }
        let mut got = vec![0u8; LEN_MAX];
        for (b, &(dst, _)) in w.pool.iter().enumerate() {
            w.space.read_bytes(dst, &mut got).unwrap();
            let want = (t * POOL + b) as u8 | 1;
            prop_assert!(
                got[..landed[b]].iter().all(|&x| x == want),
                "tenant {t} buffer {b}: served bytes differ from the source"
            );
        }
        tenants.push(TenantOut {
            id: w.lib.client.id,
            shard: w.lib.client.shard.get(),
            served_bytes: w.lib.client.copied_total.get(),
            shed,
            refused: w.refused.get(),
        });
    }
    Ok(RunOut {
        end: end.as_nanos(),
        stats: stats_to_vec(&svc.stats()),
        tenants,
        copied_at_horizon: copied_at_horizon.get(),
        over_share: over_share.get(),
    })
}

/// Walks a recording made with sentinels on and checks every admission
/// decision against the shard-local latch: shard `s` counts the bytes it
/// admitted and has not finished, sheds from `high / n` until it is back
/// at `low / n`, and a shedding shard admits only a tenant never picked
/// by the scheduler yet (tied with the sentinel at vruntime 0).
fn walk_admissions(case: &Case, out: &RunOut, trace: &Trace) -> PropResult {
    let n = case.shards as u64;
    let shard_of = |id: u32| {
        let t = out.tenants.iter().find(|t| t.id == id);
        t.expect("known client").shard
    };
    let mut bytes = vec![0u64; case.shards];
    let mut shedding = vec![false; case.shards];
    let mut picked: Vec<u32> = Vec::new();
    // `(shard, len)` by task id; ids count admissions from 1.
    let mut tasks: Vec<(usize, u64)> = vec![(0, 0)];
    let mut shed = 0usize;
    for ev in trace.events() {
        match *ev {
            TraceEvent::Admit {
                client,
                len,
                admitted,
            } => {
                let s = shard_of(client);
                if shedding[s] {
                    shedding[s] = bytes[s] > case.low / n;
                } else {
                    shedding[s] = bytes[s] >= case.high / n;
                }
                let want = !shedding[s] || !picked.contains(&client);
                prop_assert_eq!(
                    admitted,
                    want,
                    "shard {}: client {} offered {} B with {} B admitted (share {}, latch {})",
                    s,
                    client,
                    len,
                    bytes[s],
                    case.share(),
                    shedding[s]
                );
                if admitted {
                    bytes[s] += len;
                    tasks.push((s, len));
                } else {
                    shed += 1;
                }
            }
            TraceEvent::SchedPick { client } if !picked.contains(&client) => picked.push(client),
            TraceEvent::TaskDone { tid, fault } => {
                prop_assert_eq!(fault, 0, "task {} faulted", tid);
                let (s, len) = tasks[tid as usize];
                bytes[s] -= len;
            }
            _ => {}
        }
    }
    prop_assert!(bytes.iter().all(|&b| b == 0), "the model has bytes left");
    prop_assert_eq!(shed, out.tenants.iter().map(|t| t.shed).sum::<usize>());
    Ok(())
}

/// (a): every shard gets 1–3 tenants offering 0.3–3 × a core between
/// them against a share of 4–16 tasks.
#[test]
fn a_shard_sheds_against_its_own_share() {
    let shed = Cell::new(0usize);
    let gen = |rng: &mut TestRng| {
        let shards = rng.range_usize(2, 5);
        let share = rng.range_usize(4, 17) * LEN_MAX;
        let mut tenants = Vec::new();
        for s in 0..shards {
            let members = rng.range_usize(1, 4);
            let load = *rng.choose(&[0.3, 0.8, 1.5, 3.0]);
            gen_group(rng, s, members, load, HORIZON, &mut tenants);
        }
        let high = (shards * share) as u64;
        Case {
            shards,
            high,
            low: high * rng.range_usize(2, 10) as u64 / 10,
            sentinels: true,
            tenants,
        }
    };
    check_with(&cases(24), gen, shrink, |case: &Case| -> PropResult {
        let rec = Tracer::record();
        let out = run(case, Some(&rec))?;
        walk_admissions(case, &out, &rec.finish())?;
        prop_assert_eq!(out.over_share, None, "(shard, bytes) over share + a task");
        shed.set(shed.get() + out.tenants.iter().map(|t| t.shed).sum::<usize>());
        Ok(())
    });
    assert!(
        std::env::var("TESTKIT_REPRO").is_ok() || shed.get() > 0,
        "no generated case ever shed"
    );
}

/// (b): shard 0 is offered half a core, shard 1 three cores' worth. The
/// quiet tenant is served faster than any hot one, so the exemption never
/// covers it: at the parent it was shed whenever the hot shard's backlog
/// held the global watermark.
#[test]
fn a_backlogged_peer_sheds_nothing_of_a_quiet_shard() {
    let gen = |rng: &mut TestRng| {
        let shards = rng.range_usize(2, 5);
        let mut tenants = Vec::new();
        gen_group(rng, 0, 1, 0.5, HORIZON, &mut tenants);
        let members = rng.range_usize(3, 6);
        gen_group(rng, 1, members, 3.0, HORIZON, &mut tenants);
        let high = (shards * 32 * LEN_MAX) as u64;
        Case {
            shards,
            high,
            low: high * 3 / 4,
            sentinels: false,
            tenants,
        }
    };
    let hot_shed = Cell::new(0usize);
    check_with(&cases(12), gen, shrink, |case: &Case| -> PropResult {
        let out = run(case, None)?;
        for (t, o) in out.tenants.iter().enumerate() {
            if o.shard == 0 {
                prop_assert_eq!((o.shed, o.refused), (0, 0), "quiet tenant {}", t);
            }
        }
        hot_shed.set(hot_shed.get() + out.tenants.iter().map(|o| o.shed).sum::<usize>());
        Ok(())
    });
    assert!(
        std::env::var("TESTKIT_REPRO").is_ok() || hot_shed.get() > 0,
        "the hot shard never shed"
    );
}

/// (c): all the load on one shard. With peers idle the parent gave that
/// shard the whole watermark; a share of at least two copy slices keeps
/// its window as full as its core can drain.
#[test]
fn a_lone_hot_shard_still_saturates_its_core() {
    let gen = |rng: &mut TestRng| {
        let shards = rng.range_usize(2, 5);
        let mut tenants = Vec::new();
        let members = rng.range_usize(2, 6);
        let hot = rng.range_usize(0, shards);
        gen_group(rng, hot, members, 3.0, LONG_HORIZON, &mut tenants);
        let share = rng.range_usize(2, 9) * DEFAULT_COPY_SLICE;
        let high = (shards * share) as u64;
        Case {
            shards,
            high,
            low: high * 3 / 4,
            sentinels: false,
            tenants,
        }
    };
    // Up to the horizon: the drain after it is as long as the window.
    let goodput = |o: &RunOut| o.copied_at_horizon as f64 / LONG_HORIZON as f64;
    check_with(
        &cases(8),
        gen,
        |_| Vec::new(),
        |case: &Case| -> PropResult {
            let own = run(case, None)?;
            let n = case.shards as u64;
            let whole = run(
                &Case {
                    high: case.high * n,
                    low: case.low * n,
                    ..case.clone()
                },
                None,
            )?;
            prop_assert!(own.tenants.iter().any(|t| t.shed > 0), "never overloaded");
            prop_assert!(
                goodput(&own) >= 0.98 * goodput(&whole) && goodput(&own) > 0.9 * CORE_RATE,
                "share {} B: {:.3} B/ns, with the whole watermark {:.3} B/ns",
                case.share(),
                goodput(&own),
                goodput(&whole)
            );
            Ok(())
        },
    );
}

/// A fixed overloaded case: three tenants offering 3 × a core.
fn fixed_case(shards: usize) -> Case {
    let mut rng = TestRng::new(0x5AAD_B0D6);
    let mut tenants = Vec::new();
    for s in 0..3 {
        gen_group(&mut rng, s % shards, 1, 1.0, HORIZON, &mut tenants);
    }
    let high = (8 * LEN_MAX) as u64;
    Case {
        shards,
        high,
        low: high * 3 / 4,
        sentinels: false,
        tenants,
    }
}

/// (d): the hash of `fixed_case(1)`'s recording. Pinned at aa978c3, where
/// one global count and one service-level latch decided, as
/// 0x26e0_5b58_ccc4_e303; re-pinned twice since. First to what the build
/// that retired the round's 150 ns post-drain pause records (every
/// round's timestamps move; the admission decisions are held by (a)
/// above), 0x30ac_7e8a_562f_fa54. Then to `TRACE_VERSION` 3's spelling of
/// that same recording: event for event the parent's 724, differing only
/// in the version byte and, on its 56 round frames, the new `shard: 0`
/// field and the `stats` word (now the shard's cells folded ahead of the
/// service-wide slots).
const PARENT_ONE_SHARD_TRACE_HASH: u64 = 0x0188_681c_798f_12d1;

#[test]
fn one_shard_records_the_parents_trace() {
    let rec = Tracer::record();
    let out = run(&fixed_case(1), Some(&rec)).unwrap();
    assert!(
        out.tenants.iter().all(|t| t.shed > 0),
        "every tenant is shed"
    );
    let hash = rec.finish().encode().chunks(8).fold(FNV_OFFSET, |h, c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        fnv_fold(h, u64::from_le_bytes(w))
    });
    assert_eq!(
        hash, PARENT_ONE_SHARD_TRACE_HASH,
        "one shard no longer decides as the global watermark did: {hash:#x}"
    );
}

/// (e): record → replay at 4 shards, the exemption live (peers' minima
/// are what the barrier still exchanges).
#[test]
fn four_shard_record_replay_is_byte_identical() {
    let gen = |rng: &mut TestRng| {
        let mut tenants = Vec::new();
        for s in 0..4 {
            let members = rng.range_usize(1, 4);
            let load = *rng.choose(&[0.5, 1.5, 3.0]);
            gen_group(rng, s, members, load, HORIZON, &mut tenants);
        }
        let high = (4 * rng.range_usize(4, 17) * LEN_MAX) as u64;
        Case {
            shards: 4,
            high,
            low: high * 3 / 4,
            sentinels: false,
            tenants,
        }
    };
    check_with(&cases(8), gen, shrink, |case: &Case| -> PropResult {
        let rec = Tracer::record();
        let a = run(case, Some(&rec))?;
        let trace = rec.finish();
        let rep = Tracer::replay(trace.clone());
        let b = run(case, Some(&rep))?;
        if let Some(d) = rep.divergence() {
            return Err(format!("replay diverged: {d}"));
        }
        prop_assert_eq!(&a, &b, "replay outcome differs");
        prop_assert!(
            rep.finish().encode() == trace.encode(),
            "replay re-recorded a different trace"
        );
        Ok(())
    });
}
