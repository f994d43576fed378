//! A service round is a copy slice, not a client (DESIGN.md §3): after
//! its one drain → settle → sync pass it serves the runnable clients
//! least-served first until the slice is spent. These properties record
//! random multi-tenant runs with a [`Tracer`] — the trace is what makes
//! the round structure visible from outside — and walk the recording
//! with an exact model of the window selection:
//!
//! * **(a)** the bytes a round plans never exceed `copy_slice`: the
//!   model, which shares one budget across the round's clients, predicts
//!   exactly which `TaskDone`s follow each `SchedPick`, and its byte
//!   totals equal every client's `copied_total` and the service's
//!   `bytes_copied` at the end;
//! * **(b)** the `SchedPick`s of a round name distinct clients in
//!   ascending (cgroup vruntime, client vruntime, registration) order as
//!   of the round's start — the cgroup vruntime as charged by the round's
//!   own shard — and a round stops early only when no client
//!   that had a window at its first pick is left unserved;
//! * **(c)** destinations equal a sequential `memcpy` model (also with
//!   RAW/WAW chains inside a tenant, where the round model does not
//!   apply), nothing stays pinned, `audit_aggregates()` is clean and
//!   record → replay is bit-identical;
//! * **(d)** equal-share clients that stay backlogged never differ in
//!   `copied_total` by more than one slice plus one task, and cgroups
//!   with shares 1:4 split the bytes ≈ 1:4.
//!
//! Every case runs at 1 and 4 shards. Two fixed regressions pin what the
//! one-client round got wrong. Reproduce property failures with the
//! printed `TESTKIT_REPRO=<seed>` line.
//!
//! Mutants tried against this file (each fails the tests named): every
//! client gets a full slice instead of what is left — the `TaskDone`s
//! after a pick differ from the model's (`rounds_follow_the_slice_model`,
//! both fairness properties); the order reversed, most-served first —
//! the order check of (b), both fairness properties, the deferred-client
//! regression (and six `sched.rs` unit tests); an empty selection ends
//! the round, `break` for `continue` — the deferred-client regression
//! and the early-stop check of (b) (a client whose ring filled after the
//! drain selects nothing); an empty selection is charged the client's
//! pending bytes — the deferred-client regression; the round stops after
//! its first client, the parent's behaviour — the early-stop check in
//! three properties and `three_small_clients_share_one_round`.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use copier::client::CopierHandle;
use copier::core::{stats_to_vec, AdmissionConfig, Copier, CopierConfig, PollMode, SegDescriptor};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::sim::{Machine, Nanos, Sim, Trace, TraceEvent, Tracer};
use copier_testkit::prop::{check_with, Config, PropResult};
use copier_testkit::{prop_assert, prop_assert_eq, TestRng};

/// Longest task; also the size of every buffer.
const MAX_LEN: usize = 48 * 1024;
const DEFAULT_SHARES: u64 = 1024;

#[derive(Debug, Clone, Copy)]
struct TaskSpec {
    /// Buffer indices into the tenant's pool (`dst != src`).
    dst: usize,
    src: usize,
    len: usize,
    /// Virtual ns the tenant sleeps before submitting this task.
    gap: u64,
}

#[derive(Debug, Clone)]
struct Tenant {
    /// Index into [`Case::shares`].
    cgroup: usize,
    nbufs: usize,
    tasks: Vec<TaskSpec>,
}

#[derive(Debug, Clone)]
struct Case {
    seed: u64,
    copy_slice: usize,
    use_dma: bool,
    /// `copier.shares` per cgroup; entry 0 is the default cgroup.
    shares: Vec<u64>,
    tenants: Vec<Tenant>,
    /// The service starts only once every submission sits in its ring, so
    /// every tenant is backlogged from the first round on.
    upfront: bool,
}

fn gen_tasks(rng: &mut TestRng, n: usize, max_gap: u64, pool: Option<usize>) -> Tenant {
    let nbufs = pool.unwrap_or(2 * n);
    let tasks = (0..n)
        .map(|i| {
            let (dst, src) = match pool {
                // Independent tasks: a destination and a source of their own.
                None => (2 * i, 2 * i + 1),
                Some(p) => {
                    let dst = rng.range_usize(0, p);
                    (dst, (dst + rng.range_usize(1, p)) % p)
                }
            };
            TaskSpec {
                dst,
                src,
                len: if rng.gen_bool(0.2) {
                    rng.range_usize(1, 4096)
                } else {
                    rng.range_usize(4096, MAX_LEN + 1)
                },
                gap: if max_gap == 0 {
                    0
                } else {
                    rng.gen_range(max_gap)
                },
            }
        })
        .collect();
    Tenant {
        cgroup: 0,
        nbufs,
        tasks,
    }
}

fn gen_slice(rng: &mut TestRng) -> usize {
    *rng.choose(&[8, 16, 20, 64, 100, 256]) * 1024
}

/// Trickling tenants in random cgroups: rounds of every fill level.
fn gen_trickle(rng: &mut TestRng) -> Case {
    let ngroups = rng.range_usize(1, 4);
    let shares = (0..ngroups)
        .map(|g| {
            if g == 0 {
                DEFAULT_SHARES
            } else {
                *rng.choose(&[256, 512, 1024, 4096])
            }
        })
        .collect();
    let tenants = (0..rng.range_usize(2, 9))
        .map(|_| {
            let n = rng.range_usize(1, 11);
            let max_gap = *rng.choose(&[0, 300, 3000]);
            let mut t = gen_tasks(rng, n, max_gap, None);
            t.cgroup = rng.range_usize(0, ngroups);
            t
        })
        .collect();
    Case {
        seed: rng.next_u64(),
        copy_slice: gen_slice(rng),
        use_dma: rng.gen_bool(0.3),
        shares,
        tenants,
        upfront: rng.gen_bool(0.25),
    }
}

/// One cgroup, everything submitted before the first round.
fn gen_backlog(rng: &mut TestRng) -> Case {
    let tenants = (0..rng.range_usize(2, 9))
        .map(|_| {
            let n = rng.range_usize(4, 13);
            gen_tasks(rng, n, 0, None)
        })
        .collect();
    Case {
        seed: rng.next_u64(),
        copy_slice: gen_slice(rng),
        use_dma: false,
        shares: vec![DEFAULT_SHARES],
        tenants,
        upfront: true,
    }
}

/// Tenants whose tasks read and overwrite each other's buffers (RAW/WAW
/// chains): absorption and hazard ordering decide the selection, so only
/// the outcome checks apply to these cases, not the round model.
fn gen_chained(rng: &mut TestRng) -> Case {
    let tenants = (0..rng.range_usize(2, 7))
        .map(|_| {
            let n = rng.range_usize(2, 9);
            let pool = rng.range_usize(2, 5);
            gen_tasks(rng, n, 400, Some(pool))
        })
        .collect();
    Case {
        seed: rng.next_u64(),
        copy_slice: gen_slice(rng),
        use_dma: rng.gen_bool(0.3),
        shares: vec![DEFAULT_SHARES],
        tenants,
        upfront: false,
    }
}

/// Simpler cases: one tenant fewer, or one tenant's last task dropped.
fn shrink(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for i in 0..case.tenants.len() {
        if case.tenants.len() > 1 {
            let mut c = case.clone();
            c.tenants.remove(i);
            out.push(c);
        }
        if case.tenants[i].tasks.len() > 1 {
            let mut c = case.clone();
            c.tenants[i].tasks.pop();
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

/// Initial content of buffer `buf` of tenant `t`.
fn pattern(seed: u64, t: usize, buf: usize) -> Vec<u8> {
    let mut rng = TestRng::new(seed ^ ((t as u64) << 32 | buf as u64));
    let mut v = vec![0u8; MAX_LEN];
    rng.fill_bytes(&mut v);
    v
}

/// What a tenant looks like to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClientInfo {
    id: u32,
    shard: usize,
}

/// Everything one run leaves behind that a second run of the same case
/// must reproduce.
#[derive(Debug, PartialEq)]
struct RunOut {
    end: u64,
    stats: Vec<u64>,
    copied: Vec<u64>,
    clients: Vec<ClientInfo>,
}

/// Runs `case` at `shards` shards under `tracer` and checks the outcome
/// side of (c): destinations against sequential `memcpy`, pins, the
/// incremental aggregates and the pending index.
fn run(case: &Case, shards: usize, tracer: &Rc<Tracer>) -> Result<RunOut, String> {
    let mut sim = Sim::new();
    let h = sim.handle();
    let ntenants = case.tenants.len();
    let machine = Machine::new(&h, ntenants + shards);
    let frames: usize = case.tenants.iter().map(|t| t.nbufs * MAX_LEN / 4096).sum();
    let pm = Rc::new(PhysMem::new(2 * frames + 1024, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..shards).map(|i| machine.core(ntenants + i)).collect(),
        Rc::new(CostModel::default()),
        CopierConfig {
            shards,
            copy_slice: case.copy_slice,
            use_dma: case.use_dma,
            tracer: Some(Rc::clone(tracer)),
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos(20_000),
            },
            ..Default::default()
        },
    );
    // Cgroup 0 is the service's default; the ids handed out here follow it,
    // so an index into `case.shares` is the service's cgroup id.
    for (g, &s) in case.shares.iter().enumerate().skip(1) {
        assert_eq!(svc.create_cgroup(s), g);
    }
    if !case.upfront {
        svc.start();
    }

    type Descrs = Rc<RefCell<Vec<Rc<SegDescriptor>>>>;
    struct Live {
        lib: Rc<CopierHandle>,
        space: Rc<AddressSpace>,
        bufs: Vec<VirtAddr>,
        descrs: Descrs,
    }
    let submitted = Rc::new(Cell::new(0usize));
    let mut world: Vec<Live> = Vec::new();
    for (t, tenant) in case.tenants.iter().enumerate() {
        let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
        let lib = CopierHandle::new(&svc, Rc::clone(&space));
        svc.set_cgroup(&lib.client, tenant.cgroup).unwrap();
        let bufs: Vec<VirtAddr> = (0..tenant.nbufs)
            .map(|b| {
                let va = space.mmap(MAX_LEN, Prot::RW, true).unwrap();
                space.write_bytes(va, &pattern(case.seed, t, b)).unwrap();
                va
            })
            .collect();
        let descrs: Descrs = Rc::new(RefCell::new(Vec::new()));
        let (lib2, bufs2, descrs2) = (Rc::clone(&lib), bufs.clone(), Rc::clone(&descrs));
        let (h2, core, tasks) = (h.clone(), machine.core(t), tenant.tasks.clone());
        let submitted2 = Rc::clone(&submitted);
        sim.spawn("tenant", async move {
            for task in &tasks {
                if task.gap > 0 {
                    h2.sleep(Nanos(task.gap)).await;
                }
                // Default quotas dwarf these workloads: a refusal is a bug.
                let d = lib2
                    .amemcpy(&core, bufs2[task.dst], bufs2[task.src], task.len)
                    .await
                    .expect("admitted");
                descrs2.borrow_mut().push(d);
            }
            submitted2.set(submitted2.get() + 1);
        });
        world.push(Live {
            lib,
            space,
            bufs,
            descrs,
        });
    }

    let total: usize = case.tenants.iter().map(|t| t.tasks.len()).sum();
    let all: Vec<Descrs> = world.iter().map(|w| Rc::clone(&w.descrs)).collect();
    let (svc2, h2, upfront) = (Rc::clone(&svc), h.clone(), case.upfront);
    let settled = Rc::new(Cell::new(false));
    let settled2 = Rc::clone(&settled);
    sim.spawn("driver", async move {
        while submitted.get() < ntenants {
            h2.sleep(Nanos(100)).await;
        }
        if upfront {
            svc2.start();
        }
        // No csync: a promotion would reorder the window under the model.
        for _ in 0..200_000 {
            let done: usize = all
                .iter()
                .map(|d| {
                    let d = d.borrow();
                    d.iter()
                        .filter(|d| d.all_ready() || d.fault().is_some())
                        .count()
                })
                .sum();
            if done == total {
                settled2.set(true);
                break;
            }
            h2.sleep(Nanos(500)).await;
        }
        svc2.stop();
    });
    let end = sim.run();
    prop_assert!(settled.get(), "tasks still unsettled after 100 ms");

    for (t, w) in world.iter().enumerate() {
        let tenant = &case.tenants[t];
        let mut model: Vec<Vec<u8>> = (0..tenant.nbufs)
            .map(|b| pattern(case.seed, t, b))
            .collect();
        for task in &tenant.tasks {
            let src = model[task.src][..task.len].to_vec();
            model[task.dst][..task.len].copy_from_slice(&src);
        }
        for d in w.descrs.borrow().iter() {
            prop_assert!(d.fault().is_none(), "tenant {t}: fault {:?}", d.fault());
        }
        let mut got = vec![0u8; MAX_LEN];
        for (b, want) in model.iter().enumerate() {
            w.space.read_bytes(w.bufs[b], &mut got).unwrap();
            prop_assert!(&got == want, "tenant {t} buffer {b} != sequential memcpy");
        }
        w.lib.client.index_consistent()?;
    }
    prop_assert_eq!(pm.pinned_frames(), 0, "pins leaked");
    svc.audit_aggregates()?;
    let s = svc.stats();
    prop_assert_eq!(s.tasks_completed, total as u64);
    Ok(RunOut {
        end: end.as_nanos(),
        stats: stats_to_vec(&s),
        copied: world
            .iter()
            .map(|w| w.lib.client.view().copied_total)
            .collect(),
        clients: world
            .iter()
            .map(|w| ClientInfo {
                id: w.lib.client.id,
                shard: w.lib.shard(),
            })
            .collect(),
    })
}

/// Records `case`, replays the recording, and returns the run with its
/// trace: the replay must not diverge and must re-record the same bytes.
fn record_and_replay(case: &Case, shards: usize) -> Result<(RunOut, Trace), String> {
    let rec = Tracer::record();
    let a = run(case, shards, &rec)?;
    let trace = rec.finish();
    let rep = Tracer::replay(trace.clone());
    let b = run(case, shards, &rep)?;
    if let Some(d) = rep.divergence() {
        return Err(format!("replay diverged at {shards} shard(s): {d}"));
    }
    prop_assert_eq!(&a, &b, "replay outcome differs at {} shard(s)", shards);
    prop_assert!(
        rep.finish().encode() == trace.encode(),
        "replay re-recorded a different trace"
    );
    Ok((a, trace))
}

/// What a round-model walk hands back for the properties built on it.
struct Walk {
    /// Bytes the model charged each tenant over the whole run.
    copied: Vec<u64>,
    /// Rounds that served more than one client.
    shared_rounds: usize,
    /// `(bytes served so far per cgroup)` at the end of every round in
    /// which every tenant still had a window.
    backlogged_group_bytes: Vec<Vec<u64>>,
}

/// One shard's open round in the model.
struct Round {
    left: usize,
    picked: Vec<usize>,
    /// `(cgroup vruntime, client vruntime)` per tenant as of round start.
    keys: Vec<(u64, u64)>,
    /// Tenants with a window at the round's first pick.
    runnable: Option<Vec<usize>>,
    /// Tasks the last pick's selection finishes, in window order.
    expect_done: VecDeque<u64>,
}

/// Walks a recording of independent-task tenants with the exact model of
/// one round: a shared budget of `copy_slice` bytes, each picked client
/// taking its window front to back from what is left. Checks (a), (b)
/// and — for `upfront` one-cgroup cases — the fairness bound of (d).
fn walk_rounds(
    case: &Case,
    shards: usize,
    clients: &[ClientInfo],
    trace: &Trace,
) -> Result<Walk, String> {
    let n = clients.len();
    let tenant_of = |id: u32| {
        clients
            .iter()
            .position(|c| c.id == id)
            .expect("known client")
    };
    let group = |t: usize| case.tenants[t].cgroup;
    let max_len = case
        .tenants
        .iter()
        .flat_map(|t| t.tasks.iter().map(|k| k.len))
        .max()
        .unwrap() as u64;
    let mut windows: Vec<VecDeque<(u64, usize)>> = vec![VecDeque::new(); n];
    let mut admitted = vec![0usize; n];
    let mut copied = vec![0u64; n];
    // Cgroup vruntimes by (shard, cgroup): each shard charges and ranks
    // by its own.
    let mut gvr = vec![vec![0u64; case.shares.len()]; shards];
    let mut gbytes = vec![0u64; case.shares.len()];
    let mut owner: Vec<usize> = vec![usize::MAX]; // tid 0 is never issued
    let mut rounds: Vec<Option<Round>> = (0..shards).map(|_| None).collect();
    let mut walk = Walk {
        copied: Vec::new(),
        shared_rounds: 0,
        backlogged_group_bytes: Vec::new(),
    };

    for ev in trace.events() {
        match *ev {
            TraceEvent::RoundStart { shard, .. } => {
                let shard = shard as usize;
                prop_assert!(rounds[shard].is_none(), "shard {shard}: round opened twice");
                rounds[shard] = Some(Round {
                    left: case.copy_slice,
                    picked: Vec::new(),
                    keys: (0..n).map(|t| (gvr[shard][group(t)], copied[t])).collect(),
                    runnable: None,
                    expect_done: VecDeque::new(),
                });
            }
            TraceEvent::Admit {
                client,
                len,
                admitted: ok,
            } => {
                prop_assert!(ok, "client {client}: submission shed");
                let t = tenant_of(client);
                let r = rounds[clients[t].shard].as_ref();
                prop_assert!(
                    r.is_some_and(|r| r.picked.is_empty()),
                    "client {client}: drained outside a round's drain pass"
                );
                windows[t].push_back((owner.len() as u64, len as usize));
                owner.push(t);
                admitted[t] += 1;
            }
            TraceEvent::SchedPick { client } => {
                let t = tenant_of(client);
                let shard = clients[t].shard;
                let Some(r) = rounds[shard].as_mut() else {
                    return Err(format!("client {client}: picked outside a round"));
                };
                prop_assert!(
                    r.expect_done.is_empty(),
                    "round moved on with tasks {:?} of the last pick unfinished",
                    r.expect_done
                );
                prop_assert!(r.left > 0, "client {client}: picked with the slice spent");
                prop_assert!(
                    !r.picked.contains(&t),
                    "client {client}: picked twice in a round"
                );
                if let Some(&prev) = r.picked.last() {
                    prop_assert!(
                        (r.keys[prev], clients[prev].id) < (r.keys[t], client),
                        "client {} {:?} served before client {client} {:?}",
                        clients[prev].id,
                        r.keys[prev],
                        r.keys[t]
                    );
                }
                if r.runnable.is_none() {
                    r.runnable = Some(
                        (0..n)
                            .filter(|&u| clients[u].shard == shard && !windows[u].is_empty())
                            .collect(),
                    );
                }
                r.picked.push(t);
                let mut taken = 0usize;
                for (tid, rem) in windows[t].iter_mut() {
                    if r.left == 0 {
                        break;
                    }
                    let take = (*rem).min(r.left);
                    *rem -= take;
                    r.left -= take;
                    taken += take;
                    if *rem == 0 {
                        r.expect_done.push_back(*tid);
                    }
                }
                windows[t].retain(|&(_, rem)| rem > 0);
                if taken > 0 {
                    copied[t] += taken as u64;
                    gvr[shard][group(t)] += taken as u64 * 1024 / case.shares[group(t)];
                    gbytes[group(t)] += taken as u64;
                }
            }
            TraceEvent::TaskDone { tid, fault } => {
                prop_assert_eq!(fault, 0, "task {} faulted", tid);
                let t = owner[tid as usize];
                let r = rounds[clients[t].shard].as_mut();
                let next = r.and_then(|r| r.expect_done.pop_front());
                prop_assert_eq!(next, Some(tid), "task {} finished, the model expected", tid);
            }
            TraceEvent::RoundEnd { shard, .. } => {
                let shard = shard as usize;
                let Some(r) = rounds[shard].take() else {
                    return Err(format!("shard {shard}: round closed twice"));
                };
                prop_assert!(
                    r.expect_done.is_empty(),
                    "round closed with tasks {:?} unfinished",
                    r.expect_done
                );
                // (b), early stop: slice left over means nobody who had a
                // window when the round scheduled went unserved.
                let mine = |u: &usize| clients[*u].shard == shard;
                let runnable = r.runnable.unwrap_or_else(|| {
                    (0..n)
                        .filter(|u| mine(u) && !windows[*u].is_empty())
                        .collect()
                });
                for &u in &runnable {
                    prop_assert!(
                        r.left == 0 || r.picked.contains(&u),
                        "shard {shard}: client {} left unserved with {} B of the slice unspent",
                        clients[u].id,
                        r.left
                    );
                }
                if r.picked.len() > 1 {
                    walk.shared_rounds += 1;
                }
                // (d): tenants that have had a window in every round so far.
                if case.upfront {
                    let backlogged: Vec<usize> = (0..n)
                        .filter(|u| {
                            mine(u)
                                && admitted[*u] == case.tenants[*u].tasks.len()
                                && !windows[*u].is_empty()
                        })
                        .collect();
                    if case.shares.len() == 1 {
                        let vr = backlogged.iter().map(|&u| copied[u]);
                        let spread = vr.clone().max().unwrap_or(0) - vr.min().unwrap_or(0);
                        prop_assert!(
                            spread <= case.copy_slice as u64 + max_len,
                            "shard {shard}: backlogged clients {spread} B apart (slice {})",
                            case.copy_slice
                        );
                    }
                    if backlogged.len() == n {
                        walk.backlogged_group_bytes.push(gbytes.clone());
                    }
                }
            }
            _ => {}
        }
    }
    prop_assert!(rounds.iter().all(|r| r.is_none()), "a round never closed");
    prop_assert!(
        windows.iter().all(|w| w.is_empty()),
        "the model has tasks left"
    );
    walk.copied = copied;
    Ok(walk)
}

fn model_matches_the_service(case: &Case, shards: usize) -> Result<Walk, String> {
    let (out, trace) = record_and_replay(case, shards)?;
    let walk = walk_rounds(case, shards, &out.clients, &trace)?;
    prop_assert_eq!(
        &walk.copied,
        &out.copied,
        "copied_total per tenant, model vs service"
    );
    let bytes_copied = out.stats[copier::core::stats_layout::BYTES_COPIED];
    prop_assert_eq!(walk.copied.iter().sum::<u64>(), bytes_copied);
    Ok(walk)
}

/// (a), (b), (c): random trickling tenants, the round model exact.
#[test]
fn rounds_follow_the_slice_model() {
    let shared = Cell::new(0usize);
    check_with(
        &cases(48),
        gen_trickle,
        shrink,
        |case: &Case| -> PropResult {
            for shards in [1, 4] {
                let walk = model_matches_the_service(case, shards)?;
                shared.set(shared.get() + walk.shared_rounds);
            }
            Ok(())
        },
    );
    assert!(
        std::env::var("TESTKIT_REPRO").is_ok() || shared.get() > 0,
        "no generated round ever served two clients"
    );
}

/// (d), first half: backlogged equal-share clients stay within one slice
/// plus one task of each other at every round end (checked in the walk).
#[test]
fn backlogged_equals_stay_within_a_slice() {
    check_with(
        &cases(32),
        gen_backlog,
        shrink,
        |case: &Case| -> PropResult {
            for shards in [1, 4] {
                model_matches_the_service(case, shards)?;
            }
            Ok(())
        },
    );
}

/// (d), second half: two cgroups with shares 1:4, both backlogged, split
/// the bytes ≈ 1:4 — read when 32 slices have been served, by when the
/// at most one slice either group can be ahead is a few per cent.
#[test]
fn cgroup_shares_split_the_bytes() {
    let gen = |rng: &mut TestRng| {
        let copy_slice = *rng.choose(&[8, 16]) * 1024;
        let base = *rng.choose(&[128u64, 256, 1024]);
        // Each group offers twice what it is due of the 32 slices.
        let mut tenants = Vec::new();
        for (group, due) in [(1usize, 32 * copy_slice / 5), (2, 32 * copy_slice * 4 / 5)] {
            let members = rng.range_usize(1, 4);
            for _ in 0..members {
                let mut t = Tenant {
                    cgroup: group,
                    nbufs: 0,
                    tasks: Vec::new(),
                };
                let mut offered = 0;
                while offered < 2 * due / members + MAX_LEN {
                    let len = rng.range_usize(8 * 1024, MAX_LEN + 1);
                    let i = t.tasks.len();
                    t.tasks.push(TaskSpec {
                        dst: 2 * i,
                        src: 2 * i + 1,
                        len,
                        gap: 0,
                    });
                    offered += len;
                }
                t.nbufs = 2 * t.tasks.len();
                tenants.push(t);
            }
        }
        Case {
            seed: rng.next_u64(),
            copy_slice,
            use_dma: false,
            shares: vec![DEFAULT_SHARES, base, 4 * base],
            tenants,
            upfront: true,
        }
    };
    check_with(
        &cases(16),
        gen,
        |_| Vec::new(),
        |case: &Case| -> PropResult {
            let walk = model_matches_the_service(case, 1)?;
            let at = walk
                .backlogged_group_bytes
                .iter()
                .find(|g| g[1] + g[2] >= 32 * case.copy_slice as u64);
            let Some(g) = at else {
                return Err("a group ran dry before 32 slices were served".into());
            };
            let ratio = g[2] as f64 / g[1] as f64;
            prop_assert!(
                (3.2..=5.0).contains(&ratio),
                "shares 1:4 split bytes {} : {} = 1:{ratio:.2}",
                g[1],
                g[2]
            );
            Ok(())
        },
    );
}

/// (c) where the round model does not reach: tenants whose tasks chain
/// through shared buffers. Outcome checks, replay, and the one round
/// fact that needs no model — a round picks no client twice.
#[test]
fn chained_tenants_match_sequential_memcpy() {
    check_with(
        &cases(48),
        gen_chained,
        shrink,
        |case: &Case| -> PropResult {
            for shards in [1, 4] {
                let (_, trace) = record_and_replay(case, shards)?;
                let mut picked: Vec<u32> = Vec::new();
                for ev in trace.events() {
                    match *ev {
                        TraceEvent::SchedPick { client } => {
                            prop_assert!(!picked.contains(&client), "client {client} picked twice");
                            picked.push(client);
                        }
                        // Clients live on one shard, so a shard's round end
                        // may clear every shard's picks: none repeat anyway.
                        TraceEvent::RoundEnd { .. } => picked.clear(),
                        _ => {}
                    }
                }
            }
            Ok(())
        },
    );
}

/// A two-core world for the fixed regressions: one service core, tenants
/// on the rest, a recording tracer.
struct World {
    sim: Sim,
    machine: Rc<Machine>,
    pm: Rc<PhysMem>,
    svc: Rc<Copier>,
    tracer: Rc<Tracer>,
}

fn world(tenants: usize, cfg: CopierConfig) -> World {
    let sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, tenants + 1);
    let pm = Rc::new(PhysMem::new(2048, AllocPolicy::Scattered));
    let tracer = Tracer::record();
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(tenants)],
        Rc::new(CostModel::default()),
        CopierConfig {
            use_dma: false,
            tracer: Some(Rc::clone(&tracer)),
            ..cfg
        },
    );
    World {
        sim,
        machine,
        pm,
        svc,
        tracer,
    }
}

fn tenant(w: &World, id: u32, len: usize) -> (Rc<CopierHandle>, VirtAddr, VirtAddr) {
    let space = AddressSpace::new(id, Rc::clone(&w.pm));
    let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
    let src = space.mmap(len, Prot::RW, true).unwrap();
    let dst = space.mmap(len, Prot::RW, true).unwrap();
    space.write_bytes(src, &vec![id as u8; len]).unwrap();
    (lib, dst, src)
}

/// The events of the recorded round in which `pred` first holds.
fn round_with(trace: &Trace, pred: impl Fn(&TraceEvent) -> bool) -> Vec<TraceEvent> {
    let evs = trace.events();
    let at = evs.iter().position(pred).expect("event recorded");
    let start = evs[..at]
        .iter()
        .rposition(|e| matches!(e, TraceEvent::RoundStart { .. }))
        .expect("inside a round");
    let len = evs[start..]
        .iter()
        .position(|e| matches!(e, TraceEvent::RoundEnd { .. }))
        .expect("round closed");
    evs[start..=start + len].to_vec()
}

/// A least-served client the pin quota defers must not cost its shard
/// the round: the neighbour's task, drained in the same pass, is served
/// behind it in that very round. At the parent the deferred client was
/// the round's one pick, round after round, and the neighbour starved
/// until the quota cleared.
#[test]
fn a_deferred_least_served_client_does_not_end_the_round() {
    const SLICE: usize = 16 * 1024;
    const BIG: usize = 64 * 1024;
    let mut w = world(
        2,
        CopierConfig {
            copy_slice: SLICE,
            admission: AdmissionConfig {
                // One slice of a task pins 4 + 4 frames: over quota.
                max_client_pinned: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (stuck, s_dst, s_src) = tenant(&w, 1, BIG);
    let (busy, b_dst, b_src) = tenant(&w, 2, BIG);
    w.svc.start();
    let (svc, h) = (Rc::clone(&w.svc), w.sim.handle());
    let (core_s, core_b) = (w.machine.core(0), w.machine.core(1));
    let served_beside = Rc::new(Cell::new(false));
    let served2 = Rc::clone(&served_beside);
    let (stuck2, busy2) = (Rc::clone(&stuck), Rc::clone(&busy));
    w.sim.spawn("driver", async move {
        // The neighbour gets ahead in copied length: two one-slice tasks
        // of its own, each finished (and unpinned) in the round it ran.
        for _ in 0..2 {
            let d = busy2.amemcpy(&core_b, b_dst, b_src, SLICE).await.unwrap();
            while !d.all_ready() {
                h.sleep(Nanos(500)).await;
            }
        }
        // The stuck client's task takes one slice, keeps the 8 frames of
        // it pinned, and from then on selects nothing — still the
        // least-served of the two, one slice against two.
        let big = stuck2.amemcpy(&core_s, s_dst, s_src, BIG).await.unwrap();
        while stuck2.client.view().pinned < 8 {
            h.sleep(Nanos(500)).await;
        }
        let beside = busy2.amemcpy(&core_b, b_dst, b_src, SLICE).await.unwrap();
        for _ in 0..400 {
            if beside.all_ready() {
                break;
            }
            h.sleep(Nanos(500)).await;
        }
        served2.set(beside.all_ready());
        assert!(!big.all_ready(), "the quota defers the big task for good");
        // Retire the stuck task so the run ends with nothing pinned.
        assert!(stuck2.abort_task(&core_s, &big, 0).await);
        while stuck2.client.view().pinned > 0 {
            h.sleep(Nanos(500)).await;
        }
        svc.stop();
    });
    w.sim.run();
    assert!(
        served_beside.get(),
        "the neighbour starved behind a deferred client"
    );
    assert_eq!(w.pm.pinned_frames(), 0);
    w.svc.audit_aggregates().unwrap();
    // Same round: the neighbour's third task (the fourth admission) is
    // drained, picked behind the deferred client, and finished between
    // one RoundStart and its RoundEnd.
    let trace = w.tracer.finish();
    let admits = Cell::new(0);
    let round = round_with(&trace, |e| {
        matches!(e, TraceEvent::Admit { client: 2, .. }) && admits.replace(admits.get() + 1) == 2
    });
    let picks: Vec<u32> = round
        .iter()
        .filter_map(|e| match e {
            TraceEvent::SchedPick { client } => Some(*client),
            _ => None,
        })
        .collect();
    assert_eq!(picks, [1, 2], "least-served first, the neighbour behind it");
    assert!(
        round
            .iter()
            .any(|e| matches!(e, TraceEvent::TaskDone { tid: 4, fault: 0 })),
        "the neighbour's task did not finish in the round that drained it: {round:?}"
    );
}

/// Three clients with one 64 KiB task each fit one 256 KiB slice: one
/// active round serves all three (the parent took three).
#[test]
fn three_small_clients_share_one_round() {
    const LEN: usize = 64 * 1024;
    let mut w = world(3, CopierConfig::default());
    let tenants: Vec<_> = (1..=3).map(|id| tenant(&w, id, LEN)).collect();
    let (svc, h) = (Rc::clone(&w.svc), w.sim.handle());
    let cores: Vec<_> = (0..3).map(|i| w.machine.core(i)).collect();
    let spaces: Vec<_> = tenants.iter().map(|t| Rc::clone(&t.0.uspace)).collect();
    w.sim.spawn("driver", async move {
        let mut descrs = Vec::new();
        for ((lib, dst, src), core) in tenants.iter().zip(&cores) {
            descrs.push(lib.amemcpy(core, *dst, *src, LEN).await.unwrap());
        }
        // All three sit in their rings before the first round drains.
        svc.start();
        while !descrs.iter().all(|d| d.all_ready()) {
            h.sleep(Nanos(500)).await;
        }
        for ((_, dst, _), space) in tenants.iter().zip(&spaces) {
            let mut got = vec![0u8; LEN];
            space.read_bytes(*dst, &mut got).unwrap();
            assert!(got.iter().all(|&b| b == space.id() as u8));
        }
        svc.stop();
    });
    w.sim.run();
    let s = w.svc.stats();
    assert_eq!(s.tasks_completed, 3);
    assert_eq!(
        s.rounds_active, 1,
        "three 64 KiB tasks are one 256 KiB slice"
    );
    assert_eq!(w.pm.pinned_frames(), 0);
    let trace = w.tracer.finish();
    let round = round_with(&trace, |e| matches!(e, TraceEvent::SchedPick { .. }));
    let picks = round
        .iter()
        .filter(|e| matches!(e, TraceEvent::SchedPick { .. }))
        .count();
    assert_eq!(picks, 3);
}
