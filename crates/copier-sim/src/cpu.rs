//! Simulated multi-core machine.
//!
//! Each [`Core`] is a processor-sharing resource in virtual time: simulated
//! threads consume CPU with [`Core::advance`], and concurrent demands on the
//! same core are interleaved round-robin with a configurable quantum. A core
//! also carries a tiny cache-residency model (see [`crate::cache`]) used by
//! the §6.3.5 micro-architectural experiment, and per-core busy-time
//! accounting used by the energy proxy (Fig. 13-c).
//!
//! A core is not a task. It is an executor [`Resource`] with two steps,
//! "take the next demand and arm one slice" and "the slice elapsed", which
//! the executor calls where a driver task's wake-up and its sleep timer
//! would have sat in the schedule (DESIGN.md §12). Neither blocks or runs
//! user code; the slice step may ask a spin's predicate, which must be
//! inert.
//!
//! An `advance` on a free core — nothing running, queued or kicked, no
//! spin — that nothing can interrupt (`Kernel::skip_to` of its end holds)
//! is served in place: its time is booked and its future returns `Ready`
//! on the first poll. Filed, it would have been the core's only demand,
//! its slices the only timers before its end, and its completion the next
//! event, waking the task to run on from the same point.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::cache::CacheModel;
use crate::exec::{sim_wait, Kernel, Port, Resource, SimHandle};
use crate::time::Nanos;

/// Default round-robin quantum for contended cores.
pub const DEFAULT_QUANTUM: Nanos = Nanos::from_micros(20);

/// A [`Core::spin`] predicate: asked at each step boundary, with the
/// boundary's instant, whether to spin another step. Built once and
/// shared, so a spell allocates nothing.
pub type Again = Rc<dyn Fn(Nanos) -> bool>;

/// One `advance` call's claim on the core, in a slot of `Sched::demands`.
struct Demand {
    /// Nanoseconds still to serve; zero once the demand is complete.
    remaining: u64,
    /// The task to wake at completion. It outlives a dropped [`Advance`]:
    /// the time is still consumed and the task still woken when it is.
    waker: Option<Waker>,
    /// The `Advance` that filed this was dropped; nobody will collect the
    /// slot, so the core frees it at completion.
    orphan: bool,
    /// A spin's step and predicate: when `remaining` runs out, the core
    /// asks the predicate before it completes the demand.
    spin: Option<(u64, Again)>,
}

struct Sched {
    demands: Vec<Demand>,
    free: Vec<usize>,
    /// Demands waiting for a slice, FIFO; excludes the one being served.
    queue: VecDeque<usize>,
    /// The demand being served and the length of the slice armed for it.
    running: Option<(usize, u64)>,
    /// This core has a ready-queue entry that has not run yet.
    kicked: bool,
}

/// One simulated CPU core.
pub struct Core {
    id: usize,
    port: Port,
    sched: RefCell<Sched>,
    quantum: Cell<Nanos>,
    busy: Cell<u64>,
    /// Cache-residency model for the micro-architectural proxy experiment.
    pub cache: CacheModel,
}

impl Core {
    /// The core's index within its machine.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total virtual time this core has spent executing.
    pub fn busy_time(&self) -> Nanos {
        Nanos(self.busy.get())
    }

    /// Overrides the round-robin quantum (contended advances only).
    pub fn set_quantum(&self, q: Nanos) {
        self.quantum.set(q);
    }

    /// Number of threads queued on this core behind the one it is serving.
    pub fn load(&self) -> usize {
        self.sched.borrow().queue.len()
    }

    /// Consumes `dur` of this core's time, waiting in line if contended.
    ///
    /// This is the only way simulated computation costs time: a thread that
    /// never calls `advance` is free (it models pure waiting). The demand is
    /// filed when the future is first polled, or served on the spot if the
    /// core is free and nothing can come first (module docs). Dropping the
    /// future later does not take it back: the core still spends the time.
    pub fn advance(self: &Rc<Self>, dur: Nanos) -> Advance<'_> {
        Advance {
            core: self,
            state: AdvanceState::New(dur.as_nanos()),
            again: None,
        }
    }

    /// Busy-waits in steps of `step` for as long as `again` holds at each
    /// step boundary. In virtual time this is exactly
    /// `loop { core.advance(step).await; if !again(now) { break } }` —
    /// the same boundaries, busy time, timer order and clock at return —
    /// but the core asks `again` itself, from its timer, without waking
    /// the task. It answers every consecutive boundary that comes
    /// strictly before the next pending timer and within the deadline of
    /// the run in progress, then arms one timer: nothing can run between
    /// such boundaries, since a timer fires only once no task is ready
    /// (DESIGN.md §12). A second demand queued on the core stops that:
    /// the spin takes its turn as the loop's next `advance` would.
    ///
    /// `again` gets the boundary's instant. It may read state and bump
    /// host counters, nothing else: it must not wake, spawn or arm (debug
    /// builds assert it) or touch this core's queue.
    pub fn spin<'a>(self: &'a Rc<Self>, step: Nanos, again: &Again) -> Advance<'a> {
        assert!(step > Nanos::ZERO, "a spin step must take time");
        Advance {
            core: self,
            state: AdvanceState::New(step.as_nanos()),
            again: Some(Rc::clone(again)),
        }
    }

    /// Consumes core time inflated by the cache model and updates residency.
    ///
    /// Used by applications to represent "copy-irrelevant" compute whose CPI
    /// suffers when large copies evict hot data (§6.3.5 of the paper).
    pub async fn advance_cached(self: &Rc<Self>, dur: Nanos) {
        let inflated = self.cache.compute_cost(dur);
        self.advance(inflated).await;
    }

    /// Serves `ns` on the spot if the core is free and nothing can come
    /// before the demand would end (module docs).
    fn serve_in_place(&self, ns: u64) -> bool {
        let free = {
            let s = self.sched.borrow();
            s.running.is_none() && s.queue.is_empty() && !s.kicked
        };
        let done = free && self.port.wait_in_place(ns);
        if done {
            self.busy.set(self.busy.get() + ns);
        }
        done
    }

    /// Queues a demand of `ns` (spinning on `again`, if given); an idle
    /// core gets its ready-queue entry.
    fn file(&self, ns: u64, waker: Waker, again: Option<Again>) -> usize {
        let mut s = self.sched.borrow_mut();
        let demand = Demand {
            remaining: ns,
            waker: Some(waker),
            orphan: false,
            spin: again.map(|a| (ns, a)),
        };
        let slot = match s.free.pop() {
            Some(slot) => {
                s.demands[slot] = demand;
                slot
            }
            None => {
                s.demands.push(demand);
                s.demands.len() - 1
            }
        };
        s.queue.push_back(slot);
        if !s.kicked && s.running.is_none() {
            s.kicked = true;
            self.port.kick();
        }
        slot
    }

    /// Takes the next demand, if any, and arms one quantum slice for it.
    fn arm_next(&self, s: &mut Sched, k: &Kernel) {
        if let Some(slot) = s.queue.pop_front() {
            let quantum = self.quantum.get().as_nanos().max(1);
            let slice = s.demands[slot].remaining.min(quantum);
            k.arm(Nanos(k.now().0.saturating_add(slice)), &self.port);
            s.running = Some((slot, slice));
        }
    }

    /// The demand in `slot` has served its last nanosecond at `k.now()`.
    /// A spinning one asks its predicate there and, while the core has no
    /// other demand and the step fits one slice, at every later boundary
    /// the clock can skip to. Returns whether it spins on, with a fresh
    /// step to serve; a finished spin lets go of its predicate.
    fn spin_on(&self, s: &mut Sched, slot: usize, k: &Kernel) -> bool {
        let alone = s.queue.is_empty();
        let d = &mut s.demands[slot];
        let Some((step, again)) = &d.spin else {
            return false;
        };
        let step = *step;
        let batch = alone && step <= self.quantum.get().as_nanos().max(1);
        loop {
            if !k.inert(|| again(k.now())) {
                d.spin = None;
                return false;
            }
            if !batch || !k.skip_to(Nanos(k.now().0.saturating_add(step))) {
                d.remaining = step;
                return true;
            }
            self.busy.set(self.busy.get() + step);
        }
    }
}

impl Resource for Core {
    fn on_ready(&self, k: &Kernel) {
        let mut s = self.sched.borrow_mut();
        s.kicked = false;
        self.arm_next(&mut s, k);
    }

    fn on_timer(&self, k: &Kernel) {
        let mut s = self.sched.borrow_mut();
        let (slot, slice) = s
            .running
            .take()
            .expect("a core's timer fires only for the slice it armed");
        self.busy.set(self.busy.get() + slice);
        s.demands[slot].remaining -= slice;
        let finished = if s.demands[slot].remaining > 0 || self.spin_on(&mut s, slot, k) {
            s.queue.push_back(slot);
            None
        } else {
            let d = &mut s.demands[slot];
            let waker = d.waker.take();
            if d.orphan {
                s.free.push(slot);
            }
            waker
        };
        self.arm_next(&mut s, k);
        drop(s);
        if let Some(waker) = finished {
            waker.wake();
        }
    }
}

enum AdvanceState {
    /// Not polled yet; the nanoseconds to ask for.
    New(u64),
    /// Filed in this slot of the core's demand table.
    Filed(usize),
    Done,
}

/// Future returned by [`Core::advance`] and [`Core::spin`].
pub struct Advance<'a> {
    core: &'a Core,
    state: AdvanceState,
    /// A spin's predicate, until the demand is filed.
    again: Option<Again>,
}

impl Future for Advance<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        sim_wait(|| match self.state {
            AdvanceState::New(0) | AdvanceState::Done => {
                self.state = AdvanceState::Done;
                Poll::Ready(())
            }
            AdvanceState::New(ns) if self.again.is_none() && self.core.serve_in_place(ns) => {
                self.state = AdvanceState::Done;
                Poll::Ready(())
            }
            AdvanceState::New(ns) => {
                let again = self.again.take();
                let slot = self.core.file(ns, cx.waker().clone(), again);
                self.state = AdvanceState::Filed(slot);
                Poll::Pending
            }
            AdvanceState::Filed(slot) => {
                let mut s = self.core.sched.borrow_mut();
                let d = &mut s.demands[slot];
                if d.remaining == 0 {
                    s.free.push(slot);
                    drop(s);
                    self.state = AdvanceState::Done;
                    return Poll::Ready(());
                }
                if let Some(w) = &mut d.waker {
                    w.clone_from(cx.waker());
                }
                Poll::Pending
            }
        })
    }
}

impl Drop for Advance<'_> {
    fn drop(&mut self) {
        if let AdvanceState::Filed(slot) = self.state {
            let mut s = self.core.sched.borrow_mut();
            let d = &mut s.demands[slot];
            if d.remaining == 0 {
                s.free.push(slot);
            } else {
                // A dropped spin runs out its step and stops, as a
                // dropped loop would leave its `advance` in flight.
                d.orphan = true;
                d.spin = None;
            }
        }
    }
}

/// Energy-accounting parameters for the smartphone experiments.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    /// Watts drawn by a core while executing.
    pub active_w: f64,
    /// Watts drawn by an idle (clock-gated) core.
    pub idle_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        // Loosely a big core on a Kirin 9000S-class SoC.
        PowerModel {
            active_w: 1.8,
            idle_w: 0.05,
        }
    }
}

/// A simulated machine: a set of cores sharing one virtual clock.
pub struct Machine {
    h: SimHandle,
    cores: Vec<Rc<Core>>,
}

impl Machine {
    /// Builds a machine with `n` cores, registered with the executor.
    pub fn new(h: &SimHandle, n: usize) -> Rc<Self> {
        assert!(n > 0, "a machine needs at least one core");
        let cores = (0..n)
            .map(|id| {
                h.add_resource(|port| {
                    // Each core looks at its queue once when the executor
                    // first reaches it, so a demand filed before then is
                    // served from that position and not from its own.
                    port.kick();
                    Core {
                        id,
                        port,
                        sched: RefCell::new(Sched {
                            demands: Vec::new(),
                            free: Vec::new(),
                            queue: VecDeque::new(),
                            running: None,
                            kicked: true,
                        }),
                        quantum: Cell::new(DEFAULT_QUANTUM),
                        busy: Cell::new(0),
                        cache: CacheModel::default_enabled(false),
                    }
                })
            })
            .collect();
        Rc::new(Machine {
            h: h.clone(),
            cores,
        })
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Returns core `id`.
    pub fn core(&self, id: usize) -> Rc<Core> {
        Rc::clone(&self.cores[id])
    }

    /// All cores.
    pub fn cores(&self) -> &[Rc<Core>] {
        &self.cores
    }

    /// The simulation handle this machine runs on.
    pub fn handle(&self) -> SimHandle {
        self.h.clone()
    }

    /// Total busy time across all cores.
    pub fn total_busy(&self) -> Nanos {
        Nanos(self.cores.iter().map(|c| c.busy.get()).sum())
    }

    /// Energy in joules consumed up to `now`, under `pm`.
    ///
    /// Idle time is `num_cores × now − total_busy`.
    pub fn energy_joules(&self, pm: PowerModel, now: Nanos) -> f64 {
        let busy_s = self.total_busy().as_secs_f64();
        let wall_s = now.as_secs_f64() * self.cores.len() as f64;
        let idle_s = (wall_s - busy_s).max(0.0);
        busy_s * pm.active_w + idle_s * pm.idle_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;

    #[test]
    fn advance_costs_exact_time_uncontended() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        let t = Rc::new(Cell::new(Nanos::ZERO));
        let t2 = Rc::clone(&t);
        let h2 = h.clone();
        sim.spawn("w", async move {
            core.advance(Nanos::from_micros(123)).await;
            t2.set(h2.now());
        });
        sim.run();
        assert_eq!(t.get(), Nanos::from_micros(123));
        assert_eq!(m.core(0).busy_time(), Nanos::from_micros(123));
    }

    #[test]
    fn two_threads_share_a_core() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let done = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let core = m.core(0);
            let h2 = h.clone();
            let done = Rc::clone(&done);
            sim.spawn(name, async move {
                core.advance(Nanos::from_micros(100)).await;
                done.borrow_mut().push((name, h2.now()));
            });
        }
        sim.run();
        let done = done.borrow();
        // Round-robin: both finish near 200us (within one quantum of each other),
        // not one at 100us and one at 200us.
        assert_eq!(done.len(), 2);
        let t_last = done.iter().map(|(_, t)| *t).max().unwrap();
        let t_first = done.iter().map(|(_, t)| *t).min().unwrap();
        assert_eq!(t_last, Nanos::from_micros(200));
        assert!(t_last - t_first <= DEFAULT_QUANTUM);
    }

    #[test]
    fn threads_on_distinct_cores_run_in_parallel() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 2);
        let end = Rc::new(Cell::new(Nanos::ZERO));
        for id in 0..2 {
            let core = m.core(id);
            let h2 = h.clone();
            let end2 = Rc::clone(&end);
            sim.spawn("w", async move {
                core.advance(Nanos::from_micros(50)).await;
                end2.set(end2.get().max(h2.now()));
            });
        }
        sim.run();
        // Parallel, so 50us total, not 100us.
        assert_eq!(end.get(), Nanos::from_micros(50));
        assert_eq!(m.total_busy(), Nanos::from_micros(100));
    }

    #[test]
    fn energy_accounts_busy_and_idle() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 2);
        let core = m.core(0);
        sim.spawn("w", async move {
            core.advance(Nanos::from_secs(1)).await;
        });
        let now = sim.run();
        assert_eq!(now, Nanos::from_secs(1));
        let pm = PowerModel {
            active_w: 2.0,
            idle_w: 0.5,
        };
        // 1s busy * 2W + 1s idle * 0.5W.
        let e = m.energy_joules(pm, now);
        assert!((e - 2.5).abs() < 1e-9, "e = {e}");
    }

    #[test]
    fn zero_advance_is_free() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        sim.spawn("w", async move {
            for _ in 0..10 {
                core.advance(Nanos::ZERO).await;
            }
        });
        assert_eq!(sim.run(), Nanos::ZERO);
        assert!(m.core(0).sched.borrow().demands.is_empty());
    }

    #[test]
    fn a_machine_is_no_task() {
        let sim = Sim::new();
        let m = Machine::new(&sim.handle(), 4);
        assert_eq!((sim.spawned_tasks(), sim.live_tasks()), (0, 0));
        assert_eq!(m.num_cores(), 4);
    }

    /// Polls `f` once and reports whether it finished. One that pended
    /// ends the task's poll with a yield (the await rule, `exec`).
    async fn poll_once<F: Future + Unpin>(h: &SimHandle, f: &mut F) -> bool {
        let done =
            std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut *f).poll(cx).is_ready())).await;
        if !done {
            h.yield_now().await;
        }
        done
    }

    /// A task whose timer at `at` is due before the advances under test
    /// end, so that they are filed rather than served in place.
    fn foreign_sleeper(sim: &mut Sim, at: Nanos) {
        let h = sim.handle();
        sim.spawn("sleeper", async move { h.sleep_until(at).await });
    }

    #[test]
    fn a_free_core_serves_an_uninterrupted_advance_in_place() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        sim.spawn("w", async move {
            // Several quanta, and then one that a sleeper's timer cuts.
            core.advance(Nanos::from_micros(50)).await;
            let h2 = h.clone();
            h.spawn(
                "sleeper",
                async move { h2.sleep(Nanos::from_micros(1)).await },
            );
            h.yield_now().await;
            core.advance(Nanos::from_micros(2)).await;
        });
        assert_eq!(sim.run(), Nanos::from_micros(52));
        assert_eq!(m.core(0).busy_time(), Nanos::from_micros(52));
        let s = sim.stats();
        assert_eq!(s.in_place, 1, "the second advance had a timer due first");
        assert_eq!(m.core(0).sched.borrow().demands.len(), 1);
    }

    #[test]
    fn a_dropped_advance_still_costs_its_time_and_frees_the_core() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        let done_at = Rc::new(Cell::new(Nanos::ZERO));
        let done_at2 = Rc::clone(&done_at);
        foreign_sleeper(&mut sim, Nanos::from_micros(1));
        sim.spawn("w", async move {
            // 50 us asked for, abandoned after 5 us, two slices to go.
            let mut adv = core.advance(Nanos::from_micros(50));
            assert!(!poll_once(&h, &mut adv).await);
            h.sleep(Nanos::from_micros(5)).await;
            drop(adv);
            assert_eq!(
                core.busy_time(),
                Nanos::ZERO,
                "the first slice is still running"
            );
            // The next demand shares the core with the abandoned one
            // (round-robin from 20 us on) and is served in full.
            core.advance(Nanos::from_micros(30)).await;
            done_at2.set(h.now());
        });
        let end = sim.run();
        assert_eq!(done_at.get(), Nanos::from_micros(70));
        assert_eq!(
            end,
            Nanos::from_micros(80),
            "the abandoned demand runs out last"
        );
        let core = m.core(0);
        assert_eq!(core.busy_time(), Nanos::from_micros(80));
        assert_eq!(core.load(), 0);
        let s = core.sched.borrow();
        assert_eq!(
            (s.demands.len(), s.free.len()),
            (2, 2),
            "both slots came back"
        );
        assert!(s.running.is_none() && !s.kicked);
    }

    #[test]
    fn an_advance_dropped_after_it_finished_frees_its_slot_once() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let core = m.core(0);
        foreign_sleeper(&mut sim, Nanos(500));
        sim.spawn("w", async move {
            let mut adv = core.advance(Nanos::from_micros(1));
            assert!(!poll_once(&h, &mut adv).await);
            h.sleep(Nanos::from_micros(2)).await;
            // Finished, never polled again.
            drop(adv);
            core.advance(Nanos::from_micros(1)).await;
        });
        sim.run();
        let core = m.core(0);
        let s = core.sched.borrow();
        assert_eq!((s.demands.len(), s.free.len()), (1, 1));
    }

    #[test]
    fn steady_advances_reuse_one_demand_slot() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        for _ in 0..2 {
            let core = m.core(0);
            sim.spawn("w", async move {
                for _ in 0..1000 {
                    core.advance(Nanos::from_micros(30)).await;
                }
            });
        }
        assert_eq!(sim.run(), Nanos::from_millis(60));
        assert_eq!(m.core(0).sched.borrow().demands.len(), 2);
    }
}
