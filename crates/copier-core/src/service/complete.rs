//! Round step 7: complete a task — handlers, credits, pins, window
//! removal — and, when it faulted, fail its dependents in order (§4.4).

use std::collections::BTreeMap;
use std::rc::Rc;

use copier_sim::trace::TraceEvent;

use super::Copier;
use crate::client::{Client, OrderKey, PendEntry, QueueSet, TaintRange};
use crate::descriptor::CopyFault;
use crate::journal::TaintRec;
use crate::pendindex::RangeKind;
use crate::task::{CopyTask, Handler};

impl Copier {
    /// Fails one window entry mid-copy: poisons only its descriptor
    /// (partial progress already marked stays marked), signals the
    /// client, finalizes it, then aborts its dependents in dependency
    /// order (§4.4).
    pub(super) fn fail_entry(
        &self,
        client: &Rc<Client>,
        set: &Rc<QueueSet>,
        e: &Rc<PendEntry>,
        fault: CopyFault,
    ) {
        e.failed.set(Some(fault));
        e.task.descr.poison(fault);
        client.signals.borrow_mut().push(fault);
        self.stats.borrow_mut().faults += 1;
        self.finalize(client, set, e);
        self.cascade_fault(set, client, e, fault);
    }

    /// Completes a task: handlers, unpinning, window removal. Idempotent:
    /// only the first caller runs the handler; pins drain on every call
    /// (a planner racing an orphan sweep may append pins to an
    /// already-finalized entry, and those must still be released).
    pub(super) fn finalize(&self, client: &Rc<Client>, set: &Rc<QueueSet>, e: &Rc<PendEntry>) {
        release_pins(client, e);
        if e.finalized.replace(true) {
            return;
        }
        let fault_code = match (e.aborted.get(), e.failed.get()) {
            (_, Some(f)) => f.code(),
            (true, None) => CopyFault::Aborted.code(),
            (false, None) => 0,
        };
        // Descriptor state transition for the record/replay trace: one
        // TaskDone per window entry, in finalization order.
        self.temit(
            client.shard.get(),
            TraceEvent::TaskDone {
                tid: e.tid,
                fault: fault_code,
            },
        );
        // The completion becomes durable at the next journal flush; until
        // then the task replays as live and is digest-reconciled at
        // adoption.
        if let Some(j) = &self.journal {
            j.record_complete(e.tid, fault_code);
        }
        // Return the task's admission share and its submission credit —
        // the completion ring is where backpressure unwinds.
        self.return_share(client, e.task.len as u64);
        // The delivery claim (client memory, survives a crash) is the
        // exactly-once gate: handler and credit fire for the first
        // settlement of this submission across all service incarnations.
        if e.task.descr.claim_delivery() {
            client.grant_credit();
            self.stats.borrow_mut().credits_granted += 1;
            // Handlers run for failed and aborted tasks too: the
            // completion callback observes the outcome through the
            // poisoned descriptor instead of being silently dropped.
            self.deliver_handler(set, &e.task);
        }
        if !e.aborted.get() && e.failed.get().is_none() {
            self.count_completed(client);
        }
        // Runs after the handler: a KFunc may submit, which needs the
        // pending borrow.
        unlink(set, e);
    }

    /// Returns a task's admission share — one window slot and `len`
    /// bytes — to `client` and to its shard's admitted bytes.
    pub(super) fn return_share(&self, client: &Client, len: u64) {
        client
            .inflight_tasks
            .set(client.inflight_tasks.get().saturating_sub(1));
        client
            .inflight_bytes
            .set(client.inflight_bytes.get().saturating_sub(len));
        self.shard_of(client).admit.sub(len);
    }

    /// Runs a task's KFUNC inline or queues its UFUNC for post_handlers().
    pub(super) fn deliver_handler(&self, set: &Rc<QueueSet>, t: &CopyTask) {
        if let Some(h) = &t.func {
            match h {
                Handler::KFunc(f) => f(),
                Handler::UFunc(f) => {
                    // Deliver to the client's handler queue; libCopier
                    // runs it in post_handlers(). A full ring spills into
                    // the unbounded overflow list (drained first by
                    // post_handlers) — handlers are never dropped.
                    if let Err(rejected) = set.uq.handler.push(Handler::UFunc(Rc::clone(f))) {
                        set.handler_overflow.borrow_mut().push_back(rejected.0);
                    }
                }
            }
        }
    }

    /// Records a garbaged destination range on the set (bounded list)
    /// and mirrors it into the journal so the §4.4 dependency wall
    /// survives a service restart.
    pub(super) fn remember_taint(
        &self,
        client: &Rc<Client>,
        set: &Rc<QueueSet>,
        space: u32,
        lo: u64,
        hi: u64,
        fault: CopyFault,
    ) {
        if let Some(j) = &self.journal {
            let set_idx = client
                .sets
                .borrow()
                .iter()
                .position(|s| Rc::ptr_eq(s, set))
                .unwrap_or(0) as u32;
            j.record_taint(TaintRec {
                client: client.id,
                set_idx,
                space,
                lo,
                hi,
                fault: fault.code(),
            });
        }
        install_taint(
            set,
            TaintRange {
                space,
                lo,
                hi,
                fault,
            },
        );
    }

    /// §4.4 dependency-ordered cleanup after a fault: the failed task's
    /// destination was never (fully) written, so any later window entry
    /// sourcing from it — directly or through a chain — is poisoned with
    /// the parent fault, in window-key order. Absorption never sees the
    /// dependents (they are finalized out of the window), so it can never
    /// forward from a poisoned source. The garbaged ranges are remembered
    /// on the set so copies submitted in later rounds hit the same wall
    /// until a fresh write fully overwrites the range.
    fn cascade_fault(
        &self,
        set: &Rc<QueueSet>,
        client: &Rc<Client>,
        failed: &Rc<PendEntry>,
        fault: CopyFault,
    ) {
        // Reachability closure over the index instead of a window sweep: a
        // later entry dies iff its source overlaps the destination of an
        // already-dead entry with a *smaller* key (the linear sweep records
        // a victim's taint before checking entries after it, and only
        // them). BFS over garbaged destination ranges computes the same
        // fixed point; victims are then poisoned in window-key order, so
        // signals, handlers, and remembered taints land exactly as the
        // sweep would have produced them.
        let mut killed: BTreeMap<OrderKey, Rc<PendEntry>> = BTreeMap::new();
        let mut frontier: Vec<(OrderKey, (u32, u64, u64))> =
            vec![(failed.key, failed.task.dst_range())];
        let mut hits = 0u64;
        let mut found: Vec<Rc<PendEntry>> = Vec::new();
        while let Some((bound, (sp, lo, hi))) = frontier.pop() {
            found.clear();
            hits += set.index.for_each_overlap(RangeKind::Src, sp, lo, hi, |p| {
                if p.key > bound && !p.finished() && !killed.contains_key(&p.key) {
                    found.push(Rc::clone(p));
                }
            });
            for p in found.drain(..) {
                frontier.push((p.key, p.task.dst_range()));
                killed.insert(p.key, p);
            }
        }
        self.stats.borrow_mut().index_hits += hits;
        for p in killed.values() {
            p.failed.set(Some(fault));
            p.task.descr.poison(fault);
            client.signals.borrow_mut().push(fault);
            let mut st = self.stats.borrow_mut();
            st.faults += 1;
            st.dependents_aborted += 1;
        }
        for p in killed.values() {
            self.finalize(client, set, p);
        }
        let (fsp, flo, fhi) = failed.task.dst_range();
        self.remember_taint(client, set, fsp, flo, fhi, fault);
        for p in killed.values() {
            let (sp, lo, hi) = p.task.dst_range();
            self.remember_taint(client, set, sp, lo, hi, fault);
        }
    }
}

/// Releases every pin `e` holds on `client`'s behalf. Idempotent: whoever
/// runs second (a finalize behind an adoption sweep, a crashed round
/// behind either) finds the list empty.
pub(super) fn release_pins(client: &Client, e: &PendEntry) {
    let mut unpinned = 0u64;
    for (space, frames) in e.pins.borrow_mut().drain(..) {
        unpinned += frames.len() as u64;
        space.unpin_frames(&frames);
    }
    client
        .pinned
        .set(client.pinned.get().saturating_sub(unpinned));
}

/// Removes `e` from its set's address index and window, by key: the
/// window is sorted by unique key.
pub(super) fn unlink(set: &QueueSet, e: &Rc<PendEntry>) {
    set.index.remove(e);
    let mut pending = set.pending.borrow_mut();
    let pos = pending.partition_point(|p| p.key < e.key);
    if pos < pending.len() && Rc::ptr_eq(&pending[pos], e) {
        pending.remove(pos);
    }
}

/// Appends `taint` to the set's bounded list, evicting the oldest.
pub(super) fn install_taint(set: &QueueSet, taint: TaintRange) {
    let mut list = set.tainted.borrow_mut();
    if list.len() >= 64 {
        list.remove(0);
    }
    list.push(taint);
}
