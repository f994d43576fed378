//! A service thread (§4.5.1): the shard loop and the round it runs, a list
//! of named phase calls.

use std::cell::Cell;
use std::rc::Rc;

use copier_hw::{PlannedCopy, ProgressFn};
use copier_sim::trace::TraceEvent;
use copier_sim::{Again, Core, CrashPoint, Nanos, Tracer};

use super::aggregates::Assigned;
use super::execute::{mark_progress, ByTid, PlanScratch};
use super::select::Selected;
use super::Copier;
use crate::config::PollMode;
use crate::sched::RunOrder;

/// Per-thread round scratch, reused across polls so a settled round
/// allocates nothing and a served copy only what outlives the round (its
/// window entry, its plan's pieces, its pin lists): the lists below are
/// refilled in place.
pub(super) struct RoundScratch {
    /// The clients this round drains, syncs and schedules.
    assigned: Assigned,
    /// The round's service order over `assigned.clients` (heap buffer
    /// reused).
    order: RunOrder,
    /// The batch selected for the client being served; empty otherwise.
    pub(super) selected: Vec<Selected>,
    pub(super) by_tid: ByTid,
    /// Marks bytes landed on `by_tid`'s entries; one closure per thread.
    pub(super) progress: ProgressFn,
    /// The gaps of the entry being planned.
    pub(super) gaps: Vec<(usize, usize)>,
    /// The batch as handed to the dispatcher.
    pub(super) planned: Vec<PlannedCopy>,
    pub(super) plan: PlanScratch,
}

impl RoundScratch {
    fn new(svc: &Rc<Copier>) -> Self {
        let by_tid = ByTid::default();
        let (map, me) = (Rc::clone(&by_tid), Rc::downgrade(svc));
        let progress: ProgressFn = Rc::new(move |tid, off, len| {
            // A dead incarnation processes no completions: once this
            // service has crashed, a late DMA landing must not mark
            // the (shared, adoption-surviving) entry or any segment:
            // the successor clears the in-flight ranges at adoption and
            // re-copies unmarked gaps idempotently.
            let Some(svc) = me.upgrade() else { return };
            if svc.crashed.get() {
                return;
            }
            // Clone out of the list before marking: the short borrow
            // never outlives the callback's own bookkeeping.
            let entry = {
                let map = map.borrow();
                map.binary_search_by_key(&tid, |(t, _)| *t)
                    .ok()
                    .map(|i| Rc::clone(&map[i].1))
            };
            if let Some(e) = entry {
                mark_progress(&e, off, len);
            }
        });
        RoundScratch {
            assigned: Assigned::default(),
            order: RunOrder::default(),
            selected: Vec::new(),
            by_tid,
            progress,
            gaps: Vec::new(),
            planned: Vec::new(),
            plan: PlanScratch::default(),
        }
    }
}

/// What a shard's idle spin shares with its loop (DESIGN.md §12).
#[derive(Default)]
struct Idle {
    /// Idle polls since the shard last did work or parked.
    streak: Cell<u32>,
    /// The assignment epoch at which the last round found nobody to
    /// serve (`ActiveSet::empty_at`).
    empty_at: Cell<Option<u64>>,
}

#[cfg(test)]
thread_local! {
    /// Test hook: every idle spell is one poll, the core answering no
    /// boundary itself — the loop as it ran before `Core::spin`, kept as
    /// the differential oracle of `service::idle_spin`, not as a mode.
    pub(super) static ONE_POLL_SPELLS: Cell<bool> = const { Cell::new(false) };
}

impl Copier {
    /// A service thread (§4.5.1, DESIGN.md §17): shard `idx` owns the
    /// clients hashed to it, runs the round loop over them on its own
    /// core, and meets every other shard at a deterministic round barrier
    /// where fairness minima are exchanged. Rounds are thus lockstep
    /// generations: least-served decisions in generation g read only
    /// peer state published at the end of generation g-1 — never a
    /// peer's mid-round state — which is what keeps N-shard runs
    /// bit-reproducible from a seed. Admission reads no peer state. A
    /// lone shard has nobody to meet and is never parked there.
    pub(super) async fn shard_loop(self: Rc<Self>, idx: usize) {
        /// Scheduler latency to wake a parked Copier thread (kthread
        /// wakeup).
        const WAKE_LATENCY: Nanos = Nanos(700);
        let core = Rc::clone(&self.shards[idx].core);
        let idle = Rc::new(Idle::default());
        let quiet = self.quiet_predicate(idx, &idle);
        // Per-thread round scratch: the dispatch progress list is cleared
        // and refilled each round instead of reallocated. A round's DMA
        // callbacks all settle before `execute_batch` returns, so clearing
        // at the next round is safe.
        let mut scratch = RoundScratch::new(&self);
        loop {
            if self.stopping.get() {
                // Closing memory checkpoint: the trace ends with a full
                // physical digest so replay fidelity is checked even when
                // the run stopped between periodic checkpoints. A crashed
                // incarnation writes nothing more — like a real crash,
                // its trace just ends mid-stream.
                if idx == 0 && !self.crashed.get() {
                    if let Some(t) = &self.cfg.tracer {
                        t.record_mem(self.pm.digest());
                    }
                }
                // Release peers still parked at the barrier: a shard
                // exiting without arriving must not strand them.
                self.barrier.release();
                return;
            }
            if self.gate_closed() {
                self.parked.set(self.parked.get() + 1);
                self.wake.notified().await;
                self.parked.set(self.parked.get() - 1);
                core.advance(WAKE_LATENCY).await;
                continue;
            }
            let did = self.round(idx, &core, &mut scratch).await;
            if did {
                self.stats.borrow_mut().busy_rounds += 1;
            }
            idle.empty_at
                .set(self.shards[idx].active.empty_at(&scratch.assigned));
            let arrival = self.barrier.arrive(did, &self.stopping, || self.exchange());
            if arrival.await {
                // Some shard did work this generation: everyone keeps
                // polling hot, even shards that were themselves idle —
                // idleness is a barrier-agreed global fact, never a local
                // guess, so the shards spin down (and park) in lockstep.
                idle.streak.set(0);
                continue;
            }
            // The idle poll, and every one after it that `quiet` answers
            // at its boundary without waking this task.
            self.stats.borrow_mut().idle_polls += 1;
            core.spin(self.cost.poll_idle, &quiet).await;
            idle.streak.set(idle.streak.get() + 1);
            let (spin_rounds, park_timeout) = self.idle_budget();
            if idle.streak.get() > spin_rounds {
                self.parked.set(self.parked.get() + 1);
                let notified = self.wake.wait_timeout(&self.h, park_timeout).await;
                self.parked.set(self.parked.get() - 1);
                if notified {
                    // Kthread wakeup latency before the next sweep.
                    core.advance(WAKE_LATENCY).await;
                }
                idle.streak.set(0);
            }
        }
    }

    /// The scenario gate (§5.3): a `ScenarioDriven` thread sleeps while no
    /// target scenario is active.
    fn gate_closed(&self) -> bool {
        self.cfg.polling == PollMode::ScenarioDriven && !self.scenario_active.get()
    }

    /// `(spin_rounds, park_timeout)`: the idle polls a thread spins before
    /// it parks, and how long a park lasts.
    fn idle_budget(&self) -> (u32, Nanos) {
        match self.cfg.polling {
            PollMode::Napi {
                spin_rounds,
                park_timeout,
            } => (spin_rounds, park_timeout),
            // Even inside an active scenario the thread sleeps when
            // queues run empty (§6.2.4: "sleeps when queues are
            // empty") — submissions call copier_awaken.
            PollMode::ScenarioDriven => (4, Nanos::from_millis(5)),
        }
    }

    /// Shard `idx`'s idle-spin predicate, built once per thread: see
    /// [`Self::quiet_poll`].
    fn quiet_predicate(self: &Rc<Self>, idx: usize, idle: &Rc<Idle>) -> Again {
        let (me, idle) = (Rc::downgrade(self), Rc::clone(idle));
        Rc::new(move |at| {
            me.upgrade()
                .is_some_and(|svc| svc.quiet_poll(idx, &idle, at))
        })
    }

    /// Whether the idle poll that would start at `at` is one more of the
    /// spell: the loop would not park, and the round it runs first would
    /// do nothing and draw nothing — a lone shard (no barrier to meet),
    /// no fault plan or scrub region (no draw, no walk), an open gate, no
    /// stop (a crash stops too), spin budget left, and nobody assigned
    /// since the last real round. If so, books what that loop iteration books, with no
    /// virtual time: the streak, the settled round (its traced frame,
    /// which stays empty and writes nothing) and the idle poll.
    fn quiet_poll(&self, idx: usize, idle: &Idle, at: Nanos) -> bool {
        #[cfg(test)]
        if ONE_POLL_SPELLS.with(Cell::get) {
            return false;
        }
        let quiet = self.barrier.lone()
            && self.cfg.fault_plan.is_none()
            && self.scrub.borrow().is_empty()
            && !self.gate_closed()
            && !self.stopping.get()
            && idle.streak.get() < self.idle_budget().0
            && idle
                .empty_at
                .get()
                .is_some_and(|ep| self.shards[idx].active.still_at(ep));
        if !quiet {
            return false;
        }
        idle.streak.set(idle.streak.get() + 1);
        if let Some(tracer) = &self.cfg.tracer {
            self.begin_traced_round(tracer, idx, at);
            self.end_traced_round(tracer, idx);
        }
        let mut stats = self.stats.borrow_mut();
        stats.rounds_settled += 1;
        stats.idle_polls += 1;
        true
    }

    /// One service round. Returns whether any work was done.
    ///
    /// With a tracer configured this wraps the round in
    /// `begin_shard_round` / `end_shard_round` so every event the round
    /// emits carries its `(shard, round)` identity, closes active rounds
    /// with the shard's `(pending, index, stats)` state hashes, and
    /// appends periodic physical-memory digests. The tracer is host-side
    /// bookkeeping only — no virtual time is charged, so traced and
    /// untraced runs have identical timelines.
    async fn round(
        self: &Rc<Self>,
        idx: usize,
        core: &Rc<Core>,
        scratch: &mut RoundScratch,
    ) -> bool {
        let Some(tracer) = self.cfg.tracer.clone() else {
            return self.round_inner(idx, core, scratch).await;
        };
        self.begin_traced_round(&tracer, idx, self.h.now());
        let did = self.round_inner(idx, core, scratch).await;
        self.end_traced_round(&tracer, idx);
        did
    }

    /// Opens shard `idx`'s next traced round at `at`.
    fn begin_traced_round(&self, tracer: &Tracer, idx: usize, at: Nanos) {
        let sh = &self.shards[idx];
        let round_no = sh.round_no.get() + 1;
        sh.round_no.set(round_no);
        tracer.begin_shard_round(idx as u32, round_no, at.as_nanos());
    }

    /// Closes shard `idx`'s traced round: its state hashes if it emitted
    /// anything, then a memory digest when one is due.
    fn end_traced_round(&self, tracer: &Tracer, idx: usize) {
        if tracer.end_shard_round(idx as u32, || self.round_hashes(idx)) {
            tracer.record_mem(self.pm.digest());
        }
    }

    async fn round_inner(
        self: &Rc<Self>,
        idx: usize,
        core: &Rc<Core>,
        scratch: &mut RoundScratch,
    ) -> bool {
        /// Copier-core nanoseconds charged per drained queue entry.
        const DRAIN_COST_NS: u64 = 25;
        // 0. Background integrity (§integrity).
        if idx == 0 {
            self.background_integrity();
        }
        // Snapshot boundary: clients registered after this point are
        // invisible to this round. Stage-boundary refreshes below re-run
        // the epoch check so a client *activated* mid-round (a push
        // landing during an await) is drained by the later stages.
        scratch.assigned.reg_watermark = self.next_reg.get();
        self.shards[idx].assign(&mut scratch.assigned);
        // This round may mutate any assigned client's hashed state;
        // clients activated mid-round are marked by their doorbell.
        for c in scratch.assigned.clients.iter() {
            self.shards[idx].hashes.mark_dirty(c);
        }
        // 1. Drain queues into windows, once: a round never waits for a
        // batch to form. What lands while it executes is the next round's
        // drain, so load does the batching.
        let drained = self.drain_assigned(&scratch.assigned.clients);
        if drained > 0 {
            core.advance(Nanos(DRAIN_COST_NS * drained as u64)).await;
        }
        // 2. Sync queues (k-mode before u-mode, §4.2.2).
        self.shards[idx].assign(&mut scratch.assigned);
        let synced = self.serve_syncs(&scratch.assigned.clients);
        if synced > 0 {
            core.advance(Nanos(DRAIN_COST_NS * synced as u64)).await;
        }
        if drained + synced > 0 {
            self.temit(
                idx,
                TraceEvent::Drained {
                    copies: drained as u64,
                    syncs: synced as u64,
                },
            );
            if !self.admissions_durable() {
                return true;
            }
        }
        // 3. Schedule: the runnable clients, least-served first as of now.
        // The round's unit is the copy slice, not a client — it serves
        // down this order until the slice is spent, so everything above
        // (the sweep, the flush, a barrier generation under shards) is
        // paid once per slice however little the least-served client had
        // queued. Nothing drained or charged while the round runs re-ranks
        // it; that is the next round's.
        self.shards[idx].assign(&mut scratch.assigned);
        self.sched.order_into(
            &scratch.assigned.clients,
            self.h.now(),
            self.cfg.lazy_period,
            &mut scratch.order,
        );
        let mut left = self.sched.copy_slice();
        // Whether some batch went to `execute`.
        let mut acted = false;
        while left > 0 {
            let Some(pos) = scratch.order.pop() else {
                break;
            };
            let client = &Rc::clone(&scratch.assigned.clients[pos]);
            let now = self.h.now();
            // A client reaped while an earlier one's batch was in flight
            // has nothing left to pick.
            if !client.has_work(now, self.cfg.lazy_period) {
                continue;
            }
            self.temit(
                client.shard.get(),
                TraceEvent::SchedPick { client: client.id },
            );
            // 4. Select a batch from what is left of the slice. A client
            // with nothing selectable (over its pin quota, head entry
            // hazard-blocked) spends none of it.
            left -= self.select_batch(client, now, left, &mut scratch.selected);
            if scratch.selected.is_empty() {
                continue;
            }
            // 5–7. Plan, dispatch, complete — one client at a time, so its
            // handlers and credits fire when its own bytes have landed,
            // not when the whole slice has. The batch always acts: one
            // thread owns the client and nothing awaits between selecting
            // and planning, so its head entry still has the gaps it was
            // selected for, and planning them charges time or faults.
            acted = true;
            self.execute(core, client, scratch).await;
            scratch.selected.clear();
            if self.crashed.get() {
                break;
            }
        }
        if acted {
            self.count_active_round(idx);
        } else {
            self.stats.borrow_mut().rounds_settled += 1;
        }
        // Completion records staged by finalize become durable at round
        // end; a crash inside `execute` loses them and the tasks replay
        // as live, to be reconciled by digest at adoption.
        if acted && !self.crashed.get() {
            self.journal_flush();
        }
        self.shards[idx].settle(&mut scratch.assigned);
        acted || drained + synced > 0
    }

    /// The durability boundary behind a drain: this round's admissions
    /// flush before any of their bytes can move, so a journaled-but-absent
    /// task is never one with partial undigested progress. False when the
    /// incarnation crashed at one of the two crash points on the way.
    fn admissions_durable(&self) -> bool {
        // Crash point: after draining, before the admissions became
        // durable — the staged Admit records die with this incarnation,
        // so adoption drops the entries undelivered and the library
        // resubmits them.
        if self.maybe_crash(CrashPoint::MidDrain) {
            return false;
        }
        // Crash point: mid-journal-flush — staged records reach the store
        // but the final one is torn halfway, exercising the replayer's
        // torn-tail truncation.
        if self.maybe_crash(CrashPoint::MidJournalFlush) {
            if let Some(j) = &self.journal {
                j.flush_torn();
            }
            return false;
        }
        self.journal_flush();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CopierConfig;
    use copier_hw::CostModel;
    use copier_mem::{AllocPolicy, PhysMem};
    use copier_sim::{Machine, Sim};

    /// A future's size is the deterministic trace of its poll depth
    /// (ROADMAP item 5): each `async fn` layer on the round path nests its
    /// state in the round's future and is polled on every wake. Reported,
    /// and bounded about 10 % above what it was when the bound was set
    /// (872 and 1 200 B, debug and release alike), so a new layer shows.
    #[test]
    fn round_future_size_is_bounded() {
        const ROUND_MAX: usize = 960;
        const LOOP_MAX: usize = 1_320;
        let sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 1);
        let core = machine.core(0);
        let svc = Copier::new(
            &h,
            Rc::new(PhysMem::new(64, AllocPolicy::Sequential)),
            vec![Rc::clone(&core)],
            Rc::new(CostModel::default()),
            CopierConfig::default(),
        );
        let mut scratch = RoundScratch::new(&svc);
        let round = std::mem::size_of_val(&svc.round(0, &core, &mut scratch));
        let shard_loop = std::mem::size_of_val(&Rc::clone(&svc).shard_loop(0));
        println!("future sizes: round {round} B, shard_loop {shard_loop} B");
        assert!(round <= ROUND_MAX, "round future {round} B > {ROUND_MAX}");
        assert!(
            shard_loop <= LOOP_MAX,
            "shard_loop future {shard_loop} B > {LOOP_MAX}"
        );
    }
}
