//! The deterministic round barrier and the cross-shard message round its
//! last arriver runs (DESIGN.md §17).

use std::cell::Cell;

use copier_sim::{Notify, SimHandle};

use super::Copier;
use crate::sched::vruntime_before;

/// Where a service's shards meet once per generation. Every shard arrives
/// once; the last arriver runs the generation's exchange, publishes
/// whether *any* shard did work, bumps the generation and releases the
/// waiters — so rounds are lockstep generations, and a shard reads in
/// generation g only what its peers published at the end of g-1. A lone
/// arriver has no peers: it is never parked, and nothing is exchanged.
pub(super) struct RoundBarrier {
    h: SimHandle,
    arrivers: usize,
    /// Generation (bumped by the last arriver).
    gen: Cell<u64>,
    /// Shards arrived at the current generation.
    arrived: Cell<usize>,
    /// OR-accumulator of `did` across the current generation's arrivals;
    /// folded into `any` at release.
    acc: Cell<bool>,
    /// Whether any shard did work in the last completed generation — the
    /// barrier-agreed idleness fact: shards park only when this is false,
    /// so they spin down (and wake) together.
    any: Cell<bool>,
    /// Wakes shards parked here. Distinct from the service's submission
    /// wakeup, which must not release a barrier early.
    wake: Notify,
    /// Virtual ns shards spent parked, from arriving to the generation's
    /// release, summed over shards (the last arriver waits 0).
    waited_ns: Cell<u64>,
}

impl RoundBarrier {
    pub(super) fn new(h: &SimHandle, arrivers: usize) -> Self {
        RoundBarrier {
            h: h.clone(),
            arrivers,
            gen: Cell::new(0),
            arrived: Cell::new(0),
            acc: Cell::new(false),
            any: Cell::new(false),
            wake: Notify::new(),
            waited_ns: Cell::new(0),
        }
    }

    /// One shard's arrival for this generation, having done work or not
    /// (`did`); returns whether any shard did. The last arriver runs
    /// `exchange` before anyone is released.
    ///
    /// Shutdown safety: whoever sets `stopping` calls [`Self::release`],
    /// and the wait re-checks `stopping`, so no shard is ever stranded
    /// behind a peer that exited without arriving.
    pub(super) async fn arrive(
        &self,
        did: bool,
        stopping: &Cell<bool>,
        exchange: impl FnOnce(),
    ) -> bool {
        if self.arrivers == 1 {
            return did;
        }
        let generation = self.gen.get();
        if did {
            self.acc.set(true);
        }
        let arrived = self.arrived.get() + 1;
        if arrived == self.arrivers {
            self.arrived.set(0);
            exchange();
            self.any.set(self.acc.replace(false));
            self.gen.set(generation + 1);
            self.wake.notify_all();
        } else {
            self.arrived.set(arrived);
            // The check-then-await is race-free on the cooperative
            // single-threaded host: no other task runs between the
            // condition read and the waker registration.
            let arrived_at = self.h.now();
            while self.gen.get() == generation && !stopping.get() {
                self.wake.notified().await;
            }
            let waited = (self.h.now() - arrived_at).as_nanos();
            self.waited_ns.set(self.waited_ns.get() + waited);
        }
        self.any.get()
    }

    /// Whether the barrier has one arriver: an arrival parks nobody and
    /// exchanges nothing, so it is no event at all.
    pub(super) fn lone(&self) -> bool {
        self.arrivers == 1
    }

    /// Wakes every parked shard so it can observe `stopping`.
    pub(super) fn release(&self) {
        self.wake.notify_all();
    }

    pub(super) fn waited_ns(&self) -> u64 {
        self.waited_ns.get()
    }
}

impl Copier {
    /// The cross-shard message round (DESIGN.md §17), executed by the
    /// last barrier arriver: every shard's `peer_min_vr` becomes the
    /// wrap-safe minimum of its peers' live-vruntime minima, read in
    /// shard-id order (a prefix pass, then a suffix pass). Generation g+1
    /// therefore sees one consistent cross-shard view no matter how the
    /// shards' rounds interleaved inside generation g. A lone shard never
    /// gets here: its `peer_min_vr` stays `None` and its own minimum is
    /// left unread (reading it would revalidate the min-vruntime cache and
    /// so move `ControlObs::minvr_recomputes`).
    pub(super) fn exchange(&self) {
        let min = |a: Option<u64>, b: Option<u64>| match (a, b) {
            (Some(a), Some(b)) => Some(if vruntime_before(b, a) { b } else { a }),
            (a, b) => a.or(b),
        };
        let mut before = None;
        for sh in &self.shards {
            sh.peer_min_vr.set(before);
            before = min(before, sh.min_live_vr());
        }
        let mut after = None;
        for sh in self.shards.iter().rev() {
            sh.peer_min_vr.set(min(sh.peer_min_vr.get(), after));
            after = min(after, sh.min_live_vr());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use copier_sim::{Nanos, Sim};
    use copier_testkit::{check_with, prop_assert, prop_assert_eq, Config, TestRng};

    use super::*;

    /// Per arriver, per generation: how long it takes to get there and
    /// whether it did work.
    type Arrivals = Vec<Vec<(u64, bool)>>;

    fn gen_arrivals(rng: &mut TestRng) -> Arrivals {
        let arrivers = *rng.choose(&[1usize, 2, 4]);
        let generations = rng.range_usize(1, 7);
        let step = |rng: &mut TestRng| (rng.gen_range(500), rng.gen_bool(0.3));
        (0..arrivers)
            .map(|_| (0..generations).map(|_| step(rng)).collect())
            .collect()
    }

    /// 1, 2 and 4 arrivers in seeded arrival orders: every generation runs
    /// `exchange` once, before anyone leaves it; every arriver is told the
    /// OR of the generation's `did`; a lone arriver is told its own and
    /// exchanges nothing.
    #[test]
    fn a_generation_exchanges_once_and_agrees_on_any() {
        check_with(
            &Config::from_env(),
            gen_arrivals,
            |_| Vec::new(),
            |arrivals: &Arrivals| {
                let mut sim = Sim::new();
                let h = sim.handle();
                let barrier = Rc::new(RoundBarrier::new(&h, arrivals.len()));
                let stopping = Rc::new(Cell::new(false));
                let exchanges = Rc::new(Cell::new(0usize));
                // (generation, exchanges seen on leaving it, told `any`).
                let told = Rc::new(RefCell::new(Vec::new()));
                for steps in arrivals.iter().cloned() {
                    let (h2, barrier, stopping) = (h.clone(), barrier.clone(), stopping.clone());
                    let (exchanges, told) = (exchanges.clone(), told.clone());
                    h.spawn("arriver", async move {
                        for (g, (delay, did)) in steps.into_iter().enumerate() {
                            h2.sleep(Nanos(delay)).await;
                            let count = || exchanges.set(exchanges.get() + 1);
                            let any = barrier.arrive(did, &stopping, count).await;
                            told.borrow_mut().push((g, exchanges.get(), any));
                        }
                    });
                }
                sim.run();
                let lone = arrivals.len() == 1;
                let generations = arrivals[0].len();
                prop_assert_eq!(exchanges.get(), if lone { 0 } else { generations });
                prop_assert_eq!(told.borrow().len(), arrivals.len() * generations);
                for &(g, seen, any) in told.borrow().iter() {
                    prop_assert_eq!(any, arrivals.iter().any(|steps| steps[g].1), "gen {}", g);
                    prop_assert!(
                        lone || seen > g,
                        "left generation {} before its exchange",
                        g
                    );
                }
                Ok(())
            },
        );
    }

    /// A peer that stops without arriving strands nobody: `release` behind
    /// `stopping` lets every parked arriver go, with no exchange.
    #[test]
    fn release_behind_stopping_frees_every_waiter() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let barrier = Rc::new(RoundBarrier::new(&h, 4));
        let stopping = Rc::new(Cell::new(false));
        let freed = Rc::new(Cell::new(0));
        for i in 0..3u64 {
            let (h2, barrier) = (h.clone(), barrier.clone());
            let (stopping, freed) = (stopping.clone(), freed.clone());
            h.spawn("arriver", async move {
                h2.sleep(Nanos(10 * i)).await;
                barrier
                    .arrive(true, &stopping, || panic!("nobody was last"))
                    .await;
                freed.set(freed.get() + 1);
            });
        }
        let (h2, b2, s2, f2) = (h.clone(), barrier.clone(), stopping.clone(), freed.clone());
        h.spawn("stopper", async move {
            h2.sleep(Nanos(1000)).await;
            assert_eq!(f2.get(), 0, "three of four arrived: all parked");
            s2.set(true);
            b2.release();
        });
        sim.run();
        assert_eq!(freed.get(), 3);
        assert_eq!(barrier.waited_ns(), 1000 + 990 + 980);
    }
}
