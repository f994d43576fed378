//! Round step 4: select a client's batch from what is left of the copy
//! slice, under layered absorption (§4.4).

use std::rc::Rc;

use copier_sim::Nanos;

use super::Copier;
use crate::absorb::{self, AbsorbPlan};
use crate::client::{Client, PendEntry, QueueSet};
use crate::interval::IntervalSet;

/// One task of a client's batch.
pub(super) struct Selected {
    pub(super) set: Rc<QueueSet>,
    pub(super) entry: Rc<PendEntry>,
    pub(super) plan: AbsorbPlan,
    /// Per-round byte budget for this task (copy-slice partial execution).
    pub(super) cap: usize,
}

impl Copier {
    /// Selects a batch of runnable, mutually independent tasks of at most
    /// `budget` bytes into `out` (replacing what it held); returns the
    /// bytes it takes.
    pub(super) fn select_batch(
        &self,
        client: &Rc<Client>,
        now: Nanos,
        budget: usize,
        out: &mut Vec<Selected>,
    ) -> usize {
        out.clear();
        // Pinned-frame quota: past it the client's work is *deferred*
        // (left in the window for a later round), not shed — completions
        // release pins and the backlog drains without failing anything.
        if client.pinned.get() >= self.cfg.admission.max_client_pinned {
            return 0;
        }
        // Under memory pressure absorption is off: absorbed obligations
        // hold their producer's window entry (and pins) alive longer,
        // exactly what a pressured pool cannot afford (§4.6 fallback).
        let absorption = self.cfg.absorption && !self.pm.pressure();
        let mut bytes = 0usize;
        let mut hazard_scans = 0u64;
        let mut index_hits = 0u64;
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            if bytes >= budget {
                break;
            }
            // Iterate the window in place; the analysis runs against the
            // set's address index, so no `earlier` snapshot is needed —
            // "earlier" is exactly the index records with a smaller key.
            let pending = set.pending.borrow();
            // While promoted bytes are outstanding only their tasks run;
            // the gate lifts the round after they land.
            let any_promoted = pending.iter().any(|p| p.is_promoted() && !p.finished());
            for e in pending.iter() {
                if e.finished() {
                    continue;
                }
                let promoted = e.is_promoted();
                if (any_promoted && !promoted) || !e.has_runnable_gaps(now, self.cfg.lazy_period) {
                    continue;
                }
                let (plan, hits) = absorb::analyze_indexed(e, &set.index, absorption);
                hazard_scans += 1;
                index_hits += hits;
                if plan.blocked {
                    // Push the blockers through first; retry next round. A
                    // promoted entry transfers its priority to its blockers
                    // (otherwise promoted-only rounds would starve them).
                    for b in &plan.blockers {
                        b.defer_until.set(Nanos::ZERO);
                        *b.deferred.borrow_mut() = IntervalSet::new();
                        if b.task.lazy || promoted {
                            b.promote_all();
                        }
                    }
                    break;
                }
                let cap = (budget - bytes).min(e.remaining()).max(1);
                bytes += e.remaining().min(cap);
                out.push(Selected {
                    set: Rc::clone(&set),
                    entry: Rc::clone(e),
                    plan,
                    cap,
                });
                if bytes >= budget {
                    break;
                }
            }
        }
        // Apply deferrals from all plans (after selection so every plan saw
        // the pre-round state).
        let now_defer = now + self.cfg.lazy_period;
        let mut absorbed = 0u64;
        for s in out.iter() {
            for (tgt, lo, hi) in &s.plan.defers {
                tgt.deferred.borrow_mut().insert(*lo, *hi);
                tgt.defer_until.set(now_defer);
            }
            absorbed += s.plan.absorbed_bytes as u64;
        }
        let mut st = self.stats.borrow_mut();
        st.bytes_absorbed += absorbed;
        st.hazard_scans += hazard_scans;
        st.index_hits += index_hits;
        bytes
    }
}
