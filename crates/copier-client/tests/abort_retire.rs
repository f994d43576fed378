//! Property: an `abort` retires its task (§4.4). Whatever the
//! interleaving of submissions, partial copies, csyncs and aborts by
//! address or by descriptor, an aborted task leaves the window at once:
//! its handler fires exactly once, its credit comes back, and the pending
//! window, the address index and the set of live tasks stay the same set.
//!
//! At the parent commit an abort only set a flag, so every aborted task
//! kept its window entry, index records and credit until the client was
//! reaped — and the 1 024-credit pool ran dry after 1 023 of them.

use std::cell::Cell;
use std::rc::Rc;

use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{Copier, CopierConfig, CopyFault, Handler, SegDescriptor};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier_sim::{Core, Machine, Nanos, Sim, SimHandle};
use copier_testkit::{
    check_with, prop_assert, prop_assert_eq, shrink_vec, Config, PropResult, TestRng,
};

/// Buffer pairs; a slot takes a new task only once its last one settled,
/// so live tasks never overlap and an abort by address names one task.
const SLOTS: usize = 6;
const SMALL: usize = 3 * 1024 + 100;
/// Sixteen copy-slice rounds: an abort usually finds it partly copied.
const BIG: usize = 64 * 1024;

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit {
        slot: usize,
        lazy: bool,
        big: bool,
    },
    /// Let the service run for this many 100 ns.
    Work(u64),
    AbortAddr(usize),
    AbortDescr(usize),
    /// csync one segment: a lazy task then holds one copied segment.
    Csync {
        slot: usize,
        seg: usize,
    },
}

fn gen_ops(rng: &mut TestRng) -> Vec<Op> {
    (0..rng.range_usize(1, 60))
        .map(|_| {
            let slot = rng.range_usize(0, SLOTS);
            match rng.gen_range(8) {
                0..=2 => Op::Submit {
                    slot,
                    lazy: rng.gen_bool(0.5),
                    big: rng.gen_bool(0.4),
                },
                3 => Op::Work(rng.gen_range(80)),
                4 => Op::AbortAddr(slot),
                5 | 6 => Op::AbortDescr(slot),
                _ => Op::Csync {
                    slot,
                    seg: rng.range_usize(0, 3),
                },
            }
        })
        .collect()
}

struct Task {
    descr: Rc<SegDescriptor>,
    fired: Rc<Cell<u32>>,
    len: usize,
}

impl Task {
    fn settled(&self) -> bool {
        self.fired.get() > 0
    }
}

struct World {
    sim: Sim,
    h: SimHandle,
    core: Rc<Core>,
    pm: Rc<PhysMem>,
    svc: Rc<Copier>,
    space: Rc<AddressSpace>,
    lib: Rc<CopierHandle>,
}

fn world() -> World {
    let sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(1024, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig {
            copy_slice: 4096,
            ..Default::default()
        },
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    World {
        sim,
        h,
        core: machine.core(0),
        pm,
        svc,
        space,
        lib,
    }
}

/// Submits `dst ← src` with a handler that counts its own calls.
async fn submit(
    lib: &Rc<CopierHandle>,
    core: &Rc<Core>,
    dst: VirtAddr,
    src: VirtAddr,
    len: usize,
    lazy: bool,
) -> Result<Task, String> {
    let fired = Rc::new(Cell::new(0u32));
    let f = Rc::clone(&fired);
    let opts = AmemcpyOpts {
        lazy,
        func: Some(Handler::KFunc(Rc::new(move || f.set(f.get() + 1)))),
        ..Default::default()
    };
    let descr = lib
        ._amemcpy(core, dst, src, len, opts)
        .await
        .map_err(|e| format!("submission refused: {e:?}"))?;
    Ok(Task { descr, fired, len })
}

/// Waits until the service has drained the client's rings, then checks
/// what must hold between any two rounds: the window, the index and the
/// unsettled tasks are one set, and every settled task gave its credit
/// back.
async fn quiesce_and_check(
    h: &SimHandle,
    lib: &CopierHandle,
    submitted: u64,
    fired: impl Fn() -> u64,
) -> PropResult {
    let set = lib.client.default_set();
    for _ in 0..1000 {
        if set.uq.copy.is_empty() && set.uq.sync.is_empty() {
            break;
        }
        h.sleep(Nanos(200)).await;
    }
    prop_assert!(set.uq.copy.is_empty() && set.uq.sync.is_empty());
    // One more round, so that what was just drained has been served.
    h.sleep(Nanos(1000)).await;
    let live = set.window_len() as u64;
    prop_assert_eq!(live + fired(), submitted, "window vs unsettled tasks");
    // The index holds exactly the window's records: two per entry.
    if let Err(e) = lib.client.index_consistent() {
        return Err(format!("index inconsistent: {e}"));
    }
    prop_assert_eq!(
        lib.client.credits.get() + live,
        lib.client.view().credit_cap,
        "a credit per settled task"
    );
    Ok(())
}

fn run_case(ops: &[Op]) -> PropResult {
    let World {
        mut sim,
        h,
        core,
        pm,
        svc,
        space,
        lib,
    } = world();
    let result = Rc::new(Cell::new(None));
    let (result2, svc2, ops) = (Rc::clone(&result), Rc::clone(&svc), ops.to_vec());
    sim.spawn("driver", async move {
        let body = async {
            let bufs: Vec<(VirtAddr, VirtAddr)> = (0..SLOTS)
                .map(|_| {
                    (
                        space.mmap(BIG, Prot::RW, true).unwrap(),
                        space.mmap(BIG, Prot::RW, true).unwrap(),
                    )
                })
                .collect();
            let mut slots: Vec<Option<Task>> = (0..SLOTS).map(|_| None).collect();
            let mut done: Vec<Task> = Vec::new();
            let mut submitted = 0u64;
            for &op in &ops {
                match op {
                    Op::Submit { slot, lazy, big } => {
                        if slots[slot].as_ref().is_some_and(|t| !t.settled()) {
                            continue;
                        }
                        let (dst, src) = bufs[slot];
                        let len = if big { BIG } else { SMALL };
                        let task = submit(&lib, &core, dst, src, len, lazy).await?;
                        submitted += 1;
                        done.extend(slots[slot].replace(task));
                    }
                    Op::Work(n) => h.sleep(Nanos(100 * n)).await,
                    Op::AbortAddr(slot) | Op::AbortDescr(slot) => {
                        let Some(t) = &slots[slot] else { continue };
                        let placed = match op {
                            Op::AbortAddr(_) => lib.abort(&core, bufs[slot].0, t.len).await,
                            _ => lib.abort_task(&core, &t.descr, 0).await,
                        };
                        prop_assert!(placed);
                    }
                    Op::Csync { slot, seg } => {
                        if slots[slot].is_some() {
                            // An aborted task's tombstone is skipped.
                            let r = lib.csync(&core, bufs[slot].0.add(seg * 1024), 1024).await;
                            prop_assert_eq!(r, Ok(()));
                        }
                    }
                }
                let fired = || {
                    let tasks = slots.iter().flatten().chain(&done);
                    tasks.map(|t| t.fired.get() as u64).sum()
                };
                quiesce_and_check(&h, &lib, submitted, fired).await?;
                if let Op::AbortAddr(slot) | Op::AbortDescr(slot) = op {
                    // Served: the task is gone, finished or aborted.
                    if let Some(t) = &slots[slot] {
                        prop_assert_eq!(t.fired.get(), 1, "slot {}", slot);
                        prop_assert!(
                            t.descr.all_ready() || t.descr.fault() == Some(CopyFault::Aborted)
                        );
                    }
                }
            }
            // Abort whatever is left; nothing may stay behind.
            for t in slots.iter().flatten().filter(|t| !t.settled()) {
                lib.abort_task(&core, &t.descr, 0).await;
            }
            quiesce_and_check(&h, &lib, submitted, || submitted).await?;
            for t in slots.iter().flatten().chain(&done) {
                prop_assert_eq!(t.fired.get(), 1, "handler fires exactly once");
            }
            prop_assert_eq!(svc2.stats().credits_granted, submitted);
            Ok(())
        };
        result2.set(Some(body.await));
        svc2.stop();
    });
    sim.run();
    result.take().expect("driver ran to its end")?;
    prop_assert_eq!(pm.pinned_frames(), 0);
    if let Err(e) = svc.audit_aggregates() {
        return Err(format!("audit_aggregates: {e}"));
    }
    Ok(())
}

#[test]
fn an_abort_retires_its_task_under_any_interleaving() {
    check_with(
        &Config::from_env(),
        gen_ops,
        |ops| shrink_vec(ops, |_| Vec::new()),
        |ops| run_case(ops),
    );
}

/// Ten thousand aborts in a row on one queue set, by address and by
/// descriptor in turn, every other task with one synced segment first.
#[test]
fn ten_thousand_aborts_in_a_row_leave_nothing_behind() {
    const ABORTS: u64 = 10_000;
    let World {
        mut sim,
        h,
        core,
        pm,
        svc,
        space,
        lib,
    } = world();
    let result = Rc::new(Cell::new(None));
    let (result2, svc2) = (Rc::clone(&result), Rc::clone(&svc));
    sim.spawn("driver", async move {
        let body = async {
            let dst = space.mmap(BIG, Prot::RW, true).unwrap();
            let src = space.mmap(BIG, Prot::RW, true).unwrap();
            let mut tasks = Vec::new();
            for i in 0..ABORTS {
                let t = submit(&lib, &core, dst, src, BIG, true).await?;
                if i % 2 == 0 {
                    prop_assert_eq!(lib.csync(&core, dst, 1).await, Ok(()));
                }
                let placed = if i % 4 < 2 {
                    lib.abort(&core, dst, BIG).await
                } else {
                    lib.abort_task(&core, &t.descr, 0).await
                };
                prop_assert!(placed, "abort {} not placed", i);
                // The buffer is reused: an abort by address must have been
                // served before the next task can be mistaken for its own.
                for _ in 0..100 {
                    if t.settled() {
                        break;
                    }
                    h.sleep(Nanos(100)).await;
                }
                prop_assert!(t.settled(), "abort {} not served within 10 us", i);
                tasks.push(t);
                if i % 100 == 99 {
                    quiesce_and_check(&h, &lib, i + 1, || i + 1).await?;
                    lib.prune();
                }
            }
            for t in &tasks {
                prop_assert_eq!(t.fired.get(), 1);
                prop_assert_eq!(t.descr.fault(), Some(CopyFault::Aborted));
            }
            let st = svc2.stats();
            prop_assert_eq!((st.aborts, st.credits_granted), (ABORTS, ABORTS));
            prop_assert!(st.index_entries_peak <= 4, "peak {}", st.index_entries_peak);
            // Of each even task one synced segment was copied, no more.
            prop_assert_eq!(st.bytes_copied, ABORTS / 2 * 1024);
            Ok(())
        };
        result2.set(Some(body.await));
        svc2.stop();
    });
    sim.run();
    result
        .take()
        .expect("driver ran to its end")
        .expect("10^4 aborts");
    assert_eq!(pm.pinned_frames(), 0);
    svc.audit_aggregates().expect("audit_aggregates");
}
