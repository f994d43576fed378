//! The fixed-cost ledger of one small copy (ROADMAP item 5).
//!
//! Virtual time is exact, so the latency of a lone 1 KiB `amemcpy` on an
//! idle, spinning, one-shard service is not "about 300 ns": it is the sum
//! of the charges on its path, each of which has a name. The first test
//! enumerates them and allows no slack — a charge added to (or dropped
//! from) the path between the client's ring push and the handler shows up
//! here as its own number of nanoseconds. The second pins what replaced
//! the round's fixed wait for a batch: under a burst, batching is whatever
//! landed while the previous round executed. The last two are the client's
//! rows: a csync that has to wait for its copy, and an abort.

use std::cell::Cell;
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{Copier, CopierConfig, CopyFault, Handler};
use copier::hw::{CostModel, CpuCopyKind};
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::sim::{Core, Machine, Nanos, Sim, SimHandle};

/// `round_inner`'s per-drained-entry charge (a function-local constant of
/// the service; DESIGN.md §8 has its row).
const DRAIN_COST_NS: u64 = 25;
const LEN: usize = 1024;

/// One app core, one service core, one client; `body` runs as the app and
/// the service is stopped when it returns.
fn run<F, Fut>(body: F) -> Rc<Copier>
where
    F: FnOnce(Ctx) -> Fut + 'static,
    Fut: std::future::Future<Output = ()>,
{
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, pm);
    let ctx = Ctx {
        h,
        svc: Rc::clone(&svc),
        core: machine.core(0),
        lib: CopierHandle::new(&svc, Rc::clone(&space)),
        src: space.mmap(64 * 1024, Prot::RW, true).unwrap(),
        dst: space.mmap(64 * 1024, Prot::RW, true).unwrap(),
    };
    let svc2 = Rc::clone(&svc);
    sim.spawn("app", async move {
        body(ctx).await;
        svc2.stop();
    });
    sim.run();
    svc
}

struct Ctx {
    h: SimHandle,
    svc: Rc<Copier>,
    core: Rc<Core>,
    lib: Rc<CopierHandle>,
    src: VirtAddr,
    dst: VirtAddr,
}

impl Ctx {
    /// Submits `dst+off ← src+off` with a KFunc that stamps the instant
    /// the service settles it.
    async fn submit(&self, off: usize, len: usize, stamp: &Rc<Cell<Nanos>>) {
        let (h, stamp) = (self.h.clone(), Rc::clone(stamp));
        let opts = AmemcpyOpts {
            func: Some(Handler::KFunc(Rc::new(move || stamp.set(h.now())))),
            ..Default::default()
        };
        self.lib
            ._amemcpy(&self.core, self.dst.add(off), self.src.add(off), len, opts)
            .await
            .expect("admitted");
    }

    /// Warms the ATCache over the first page of both buffers and returns
    /// the instant the warm-up copy settled. From there the service has
    /// nothing to do: it idle-polls on a grid of `poll_idle` anchored at
    /// that instant (finalize is the last thing the round charges for).
    async fn warm(&self) -> Nanos {
        let stamp = Rc::new(Cell::new(Nanos::ZERO));
        self.submit(0, LEN, &stamp).await;
        self.h.sleep(Nanos::from_micros(5)).await;
        assert!(stamp.get() > Nanos::ZERO, "warm-up copy settled");
        stamp.get()
    }
}

/// One 1 KiB copy to an idle service settles in exactly the sum of the
/// charges on its path. At the parent commit this read 150 ns more: the
/// round paused that long after its drain in case a burst was landing.
#[test]
fn a_lone_small_copy_costs_the_sum_of_its_named_charges() {
    let settled = Rc::new(Cell::new((Nanos::ZERO, Nanos::ZERO, Nanos::ZERO)));
    let out = Rc::clone(&settled);
    let svc = run(move |c| async move {
        let anchor = c.warm().await;
        let t0 = c.h.now();
        let stamp = Rc::new(Cell::new(Nanos::ZERO));
        c.submit(0, LEN, &stamp).await;
        c.h.sleep(Nanos::from_micros(5)).await;
        out.set((anchor, t0, stamp.get()));
    });
    let (anchor, t0, done) = settled.get();
    let cost = svc.cost_model();
    let poll = cost.poll_idle.as_nanos();

    // Client: the ring push lands `task_submit` after the call.
    let landed = t0 + cost.task_submit;
    // Service: the idle poll in flight when it lands runs to its end.
    let into_poll = (landed - anchor).as_nanos() % poll;
    assert!(into_poll > 0, "the push must land strictly inside a poll");
    let ledger = [
        ("task_submit", cost.task_submit),
        ("rest of the idle poll in flight", Nanos(poll - into_poll)),
        ("DRAIN_COST_NS x 1 entry", Nanos(DRAIN_COST_NS)),
        ("atc_hit (dst)", cost.atc_hit),
        ("atc_hit (src)", cost.atc_hit),
        ("avx2.cost(1024)", cost.cpu_copy(CpuCopyKind::Avx2, LEN)),
    ];
    let want: u64 = ledger.iter().map(|(_, ns)| ns.as_nanos()).sum();
    assert_eq!(
        (done - t0).as_nanos(),
        want,
        "a 1 KiB copy's latency is not the sum of its ledger {ledger:?}"
    );
    assert_eq!(svc.stats().tasks_completed, 2);
}

/// A burst of eight 4 KiB submissions to the same idle service needs no
/// wait to be batched: the first is served alone, the seven that land
/// while it is served (7 x `task_submit` < `avx2.cost(4096)`) are drained
/// together by the next round and settle at one instant. A round that
/// waits for company after its drain serves the first with its followers.
#[test]
fn a_burst_is_batched_by_the_round_it_queues_behind() {
    const BURST: usize = 8;
    let stamps: Vec<_> = (0..BURST)
        .map(|_| Rc::new(Cell::new(Nanos::ZERO)))
        .collect();
    let s2 = stamps.clone();
    let before = Rc::new(Cell::new(0u64));
    let b2 = Rc::clone(&before);
    let svc = run(move |c| async move {
        c.warm().await;
        b2.set(c.svc.stats().rounds_active);
        for (i, stamp) in s2.iter().enumerate() {
            c.submit(i * 4096, 4096, stamp).await;
        }
        c.h.sleep(Nanos::from_micros(20)).await;
    });
    let at: Vec<Nanos> = stamps.iter().map(|s| s.get()).collect();
    assert!(at[0] > Nanos::ZERO, "the burst was served");
    assert!(at[0] < at[1], "the first copy did not wait for the rest");
    assert!(
        at[1..].iter().all(|&t| t == at[1]),
        "the seven followers were not one batch: {at:?}"
    );
    assert_eq!(svc.stats().rounds_active - before.get(), 2);
}

/// libCopier's spin quantum (`SPIN_STEP`, private to `copier-client`;
/// DESIGN.md §8 has its row): a blocked csync re-checks its descriptor this
/// often for its first 2 µs.
const SPIN_STEP_NS: u64 = 200;

/// A `csync` that finds its copy not yet served costs its caller exactly
/// `csync_hit`, the promotion Sync Task's `task_submit`, and the spin
/// quanta until the copy lands — and the copy lands where the lone-copy
/// ledger above puts it: the promotion arrives after the round that serves
/// it has drained, so it adds nothing there.
#[test]
fn a_csync_that_finds_its_copy_unserved_costs_the_sum_of_its_named_charges() {
    let settled = Rc::new(Cell::new([Nanos::ZERO; 5]));
    let out = Rc::clone(&settled);
    let svc = run(move |c| async move {
        let anchor = c.warm().await;
        let t0 = c.h.now();
        let stamp = Rc::new(Cell::new(Nanos::ZERO));
        c.submit(0, LEN, &stamp).await;
        let t1 = c.h.now();
        c.lib.csync(&c.core, c.dst, LEN).await.expect("copied");
        out.set([anchor, t0, t1, c.h.now(), stamp.get()]);
    });
    let [anchor, t0, t1, t2, done] = settled.get();
    let cost = svc.cost_model();
    let poll = cost.poll_idle.as_nanos();

    // Service: the lone-copy ledger, unchanged by the csync beside it.
    let landed = t0 + cost.task_submit;
    let into_poll = (landed - anchor).as_nanos() % poll;
    assert!(into_poll > 0, "the push must land strictly inside a poll");
    let settle = landed
        + Nanos(poll - into_poll + DRAIN_COST_NS)
        + cost.atc_hit
        + cost.atc_hit
        + cost.cpu_copy(CpuCopyKind::Avx2, LEN);
    assert_eq!(done, settle, "the copy did not settle on its own ledger");

    // Client: the spin starts once the promotion is pushed and ends at the
    // first quantum boundary after the copy landed.
    let spinning = t1 + cost.csync_hit + cost.task_submit;
    let wait = (settle - spinning).as_nanos();
    assert!(
        !wait.is_multiple_of(SPIN_STEP_NS) && wait < 2_000,
        "the copy must land strictly inside the 2 µs spin"
    );
    let quanta = wait.div_ceil(SPIN_STEP_NS);
    let ledger = [
        ("csync_hit", cost.csync_hit),
        ("task_submit (promotion Sync Task)", cost.task_submit),
        (
            "SPIN_STEP x quanta until landed",
            Nanos(quanta * SPIN_STEP_NS),
        ),
    ];
    let want: u64 = ledger.iter().map(|(_, ns)| ns.as_nanos()).sum();
    assert_eq!(
        (t2 - t1).as_nanos(),
        want,
        "a csync's latency is not the sum of its ledger {ledger:?}"
    );
    assert_eq!(svc.stats().syncs, 1, "the promotion reached the service");
}

/// An `abort` costs its caller exactly `task_submit`. Its target — a lazy
/// copy a previous round drained into the window — settles, `Aborted`, at
/// the end of the idle poll in flight when the abort lands: the round
/// retires it before it charges the Sync Task's `DRAIN_COST_NS`.
#[test]
fn an_abort_costs_the_sum_of_its_named_charges() {
    let settled = Rc::new(Cell::new([Nanos::ZERO; 5]));
    let out = Rc::clone(&settled);
    let fault = Rc::new(Cell::new(None));
    let fault2 = Rc::clone(&fault);
    let svc = run(move |c| async move {
        let anchor = c.warm().await;
        let t0 = c.h.now();
        let stamp = Rc::new(Cell::new(Nanos::ZERO));
        let (h, s) = (c.h.clone(), Rc::clone(&stamp));
        let opts = AmemcpyOpts {
            lazy: true,
            func: Some(Handler::KFunc(Rc::new(move || s.set(h.now())))),
            ..Default::default()
        };
        let d = c
            .lib
            ._amemcpy(&c.core, c.dst, c.src, LEN, opts)
            .await
            .expect("admitted");
        c.h.sleep(Nanos::from_micros(2)).await;
        let t1 = c.h.now();
        assert!(c.lib.abort(&c.core, c.dst, LEN).await, "placed");
        let t2 = c.h.now();
        c.h.sleep(Nanos::from_micros(5)).await;
        fault2.set(d.fault());
        out.set([anchor, t0, t1, t2, stamp.get()]);
    });
    let [anchor, t0, t1, t2, done] = settled.get();
    let cost = svc.cost_model();
    let poll = cost.poll_idle.as_nanos();

    assert_eq!(t2 - t1, cost.task_submit, "the abort call is one ring push");
    // The lazy copy's round: drained at the end of the poll it landed in,
    // charged one DRAIN_COST_NS; idle polls are anchored where it ended.
    let lazy_landed = t0 + cost.task_submit;
    let into_poll = (lazy_landed - anchor).as_nanos() % poll;
    assert!(
        into_poll > 0,
        "the lazy copy must land strictly inside a poll"
    );
    let anchor = lazy_landed + Nanos(poll - into_poll + DRAIN_COST_NS);
    let landed = t1 + cost.task_submit;
    let into_poll = (landed - anchor).as_nanos() % poll;
    assert!(into_poll > 0, "the abort must land strictly inside a poll");
    let ledger = [
        ("task_submit", cost.task_submit),
        ("rest of the idle poll in flight", Nanos(poll - into_poll)),
    ];
    let want: u64 = ledger.iter().map(|(_, ns)| ns.as_nanos()).sum();
    assert_eq!(
        (done - t1).as_nanos(),
        want,
        "an abort's settle is not the sum of its ledger {ledger:?}"
    );
    assert_eq!(fault.get(), Some(CopyFault::Aborted));
    assert_eq!(svc.stats().aborts, 1);
}
