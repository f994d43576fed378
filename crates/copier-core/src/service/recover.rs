//! Clients leaving and re-joining the service: orphan reclamation of a
//! dead client, and adoption of one that survived a service crash
//! (DESIGN.md §15).

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use copier_mem::VirtAddr;

use super::complete::{install_taint, release_pins, unlink};
use super::Copier;
use crate::client::{Client, PendEntry, QueueSet, TaintRange};
use crate::descriptor::CopyFault;
use crate::interval::IntervalSet;
use crate::journal::{AdmitRec, TaintRec};
use crate::task::{CopyTask, QueueEntry, TaskId};

impl Copier {
    /// Orphan reclamation: reclaims everything a dead client left behind
    /// (`exit` with queued or in-flight copies). Queued-but-undrained
    /// descriptors are poisoned `Aborted` so library waiters unblock,
    /// window entries — including deferred absorption obligations — are
    /// aborted and finalized (releasing their pins), CSH rings are
    /// drained, and the client is unregistered. Returns the number of
    /// orphaned tasks reclaimed.
    pub fn reap_client(&self, client: &Rc<Client>) -> u64 {
        let was_dead = client.dead.replace(true);
        let mut reclaimed = 0u64;
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            for pair in [&set.uq, &set.kq] {
                while let Some(entry) = pair.copy.pop() {
                    if let QueueEntry::Copy(t) = entry {
                        t.descr.poison(CopyFault::Aborted);
                        reclaimed += 1;
                    }
                }
                while pair.sync.pop().is_some() {}
            }
            while set.handler.pop().is_some() {}
            // Drain the window front-to-back instead of snapshot-cloning
            // it; `finalize` drops each popped entry's index records. The
            // count is latched up front so a completion handler submitting
            // mid-reap cannot extend the sweep (matching the snapshot
            // semantics this replaces).
            let n = set.pending.borrow().len();
            for _ in 0..n {
                let Some(p) = set.pending.borrow_mut().pop_front() else {
                    break;
                };
                if !p.finished() {
                    p.aborted.set(true);
                    p.task.descr.poison(CopyFault::Aborted);
                    reclaimed += 1;
                }
                self.finalize(client, &set, &p);
            }
            set.tainted.borrow_mut().clear();
            set.handler_overflow.borrow_mut().clear();
        }
        // Return every admission resource the client still held: quota
        // bytes leave the shard's window, counters zero, and the credit
        // pool refills so nothing leaks across client generations.
        let sh = self.shard_of(client);
        sh.admit.sub(client.inflight_bytes.get());
        client.inflight_tasks.set(0);
        client.inflight_bytes.set(0);
        client.pinned.set(0);
        client.credits.set(client.credit_cap.get());
        // Its translations die with it: the frames go back to the pool
        // when the process's address space is torn down.
        self.atcache.purge(&client.uspace);
        sh.leave(client, was_dead);
        sh.count().orphans_reclaimed += reclaimed;
        // The reaped client's Complete records become durable right away
        // so a crash after the reap never resurrects its tasks.
        self.journal_flush();
        reclaimed
    }

    /// Re-attaches a client that survived a service crash — the recovery
    /// protocol (DESIGN.md §15). The client's QueueSets — rings, pending
    /// window, address index, credits, taints — live in client-owned
    /// memory and survived; what died is the service-private control
    /// state. Reconciling the two against the replayed journal:
    ///
    /// * every window entry's **pins are released** and its in-flight
    ///   ranges cleared — the dead service's dispatch state is gone
    ///   (copied ranges stay: those bytes physically landed);
    /// * entries whose admission never became durable are **dropped
    ///   undelivered** and handed back to the caller for client-side
    ///   resubmission — safe because admissions flush before any of
    ///   their bytes move, so a dropped entry never has partial
    ///   progress;
    /// * journaled entries found finished are **finalized now** (the
    ///   crash hit between landing and finalization); unfinished ones
    ///   are re-adopted and simply continue under the new incarnation;
    /// * journaled-live tasks absent from every window finalized just
    ///   before the crash with their Complete record lost: the
    ///   destination is checked against the journaled extent digests
    ///   and **poisoned [`CopyFault::Torn`]** when it matches neither
    ///   side (neither untouched nor fully copied);
    /// * journaled **taints are re-installed** (deduplicated) so the
    ///   §4.4 dependency wall outlives the restart.
    ///
    /// Exactly-once handler delivery and credit return across all of
    /// this rest on the descriptor's delivery claim, which lives in
    /// client memory and therefore survives the crash.
    ///
    /// Returns the dropped (never-durable) tasks as `(set_idx, task)`
    /// pairs; the library pushes them back into its rings — still
    /// holding their original submission credits — so they run under
    /// the new incarnation.
    pub fn adopt_client(&self, client: &Rc<Client>) -> Vec<(u32, CopyTask)> {
        // An internal invariant, not a tenant input: only `reap_client`
        // sets `dead`, so only an OS adopting a client it reaped gets here.
        assert!(!client.dead.get(), "cannot adopt a reaped client");
        // This incarnation's registry holds only the cgroups re-created
        // since the restart: a client in one it lacks joins the default
        // rather than go uncharged.
        if !self.sched.holds(client.cgroup.get()) {
            client.cgroup.set(0);
        }
        if client.id >= self.next_client.get() {
            self.next_client.set(client.id + 1);
        }
        // Re-stamp shard ownership under this incarnation: the hash is
        // stable, but the successor may run a different shard count.
        client.shard.set(self.shard_of_space(client.uspace.id()));
        // Fresh control-plane identity under the successor: a new
        // registration sequence (a shard's list stays in reg_seq order).
        client.reg_seq.set(self.next_reg.next());
        let sh = self.shard_of(client);
        sh.join(client);
        // The adopted window may hold unfinished entries with no ring
        // push to doorbell them; activation here keeps the active set's
        // invariant (unsettled ⇒ active).
        self.activate(client);
        // The client's admitted bytes enter this incarnation's window
        // *before* anything is dropped or finalized, so the subtractions
        // on those paths balance.
        sh.admit.add(client.inflight_bytes.get());
        let recovered = self.recovered.borrow();
        let empty = BTreeMap::new();
        let live = recovered.as_ref().map_or(&empty, |r| &r.live);
        let swept = self.sweep_adopted_windows(client, live);
        for (set, e) in &swept.finish {
            self.finalize(client, set, e);
        }
        self.reconcile_vanished(client, live, &swept.present);
        if let Some(r) = recovered.as_ref() {
            reinstall_taints(client, &r.taints);
        }
        drop(recovered);
        {
            let mut st = sh.count();
            st.dropped_unjournaled += swept.dropped.len() as u64;
            st.recovered_tasks += swept.readopted;
            st.recovered_finalized += swept.finish.len() as u64;
        }
        client.epoch.set(self.epoch.get());
        // Make the recovery itself durable immediately.
        self.journal_flush();
        swept.dropped
    }

    /// Adoption's sweep of the windows that survived in client memory,
    /// classifying every entry against the journal's `live` admissions.
    fn sweep_adopted_windows(
        &self,
        client: &Rc<Client>,
        live: &BTreeMap<TaskId, AdmitRec>,
    ) -> Swept {
        let mut swept = Swept::default();
        let mut si = 0;
        while let Some(set) = client.set_at(si) {
            si += 1;
            let entries: Vec<Rc<PendEntry>> = set.pending.borrow().iter().cloned().collect();
            for e in entries {
                // The dead service's dispatch state is gone: release its
                // pins and clear in-flight ranges. Landed bytes stay.
                release_pins(client, &e);
                *e.inflight.borrow_mut() = IntervalSet::new();
                if !live.contains_key(&e.tid) {
                    // Admission never became durable: drop undelivered.
                    unlink(&set, &e);
                    self.return_share(client, e.task.len as u64);
                    swept.dropped.push((si as u32 - 1, e.task.clone()));
                    continue;
                }
                swept.present.insert(e.tid);
                if e.finished() {
                    swept.finish.push((Rc::clone(&set), e));
                } else {
                    swept.readopted += 1;
                }
            }
        }
        swept
    }

    /// Digest reconciliation: journaled-live tasks absent from every
    /// window (`present`). Their entry was removed by the dead service's
    /// finalize (handler delivered, pins released) but the Complete
    /// record was lost; the destination must now look either untouched or
    /// fully copied. Anything else is a torn write — poison it.
    fn reconcile_vanished(
        &self,
        client: &Rc<Client>,
        live: &BTreeMap<TaskId, AdmitRec>,
        present: &BTreeSet<TaskId>,
    ) {
        let complete = |tid, fault_code| {
            if let Some(j) = &self.journal {
                j.record_complete(tid, fault_code);
            }
        };
        for a in live.values().filter(|a| a.client == client.id) {
            if present.contains(&a.tid) {
                continue;
            }
            if a.dst_space != client.uspace.id() {
                // Not sampleable through this client's space (k-space
                // destination); the §4.4 cascade settled it pre-crash.
                complete(a.tid, 0);
                continue;
            }
            // Same sampling as the admit record's digests.
            let cur = client
                .uspace
                .extent_digest(VirtAddr(a.dst), a.len as usize, false);
            if cur == a.src_digest || cur == a.dst_digest {
                // Fully copied (Complete record lost) or never started:
                // either way the range is consistent; release it.
                complete(a.tid, 0);
                continue;
            }
            let set = client
                .set_at(a.set_idx as usize)
                .unwrap_or_else(|| client.default_set());
            self.remember_taint(
                client,
                &set,
                a.dst_space,
                a.dst,
                a.dst + a.len,
                CopyFault::Torn,
            );
            complete(a.tid, CopyFault::Torn.code());
            self.shard_of(client).count().torn_poisoned += 1;
        }
    }
}

/// What adoption's window sweep found.
#[derive(Default)]
struct Swept {
    /// Journaled entries still in a window, by task id.
    present: BTreeSet<TaskId>,
    /// Journaled entries found finished: the crash hit between their
    /// bytes landing and finalization.
    finish: Vec<(Rc<QueueSet>, Rc<PendEntry>)>,
    /// Never-durable entries, unlinked, as `(set_idx, task)`.
    dropped: Vec<(u32, CopyTask)>,
    /// Journaled unfinished entries: they continue under this incarnation.
    readopted: u64,
}

/// Re-installs `client`'s journaled taints, deduplicated (the in-memory
/// list also survived — this is the belt for a client whose sets were
/// recreated).
fn reinstall_taints(client: &Client, taints: &[TaintRec]) {
    for t in taints.iter().filter(|t| t.client == client.id) {
        // Set 0 is built if the client has written none since.
        let set = match t.set_idx {
            0 => Some(client.default_set()),
            i => client.set_at(i as usize),
        };
        let Some(set) = set else {
            continue;
        };
        let dup = set
            .tainted
            .borrow()
            .iter()
            .any(|x| x.space == t.space && x.lo == t.lo && x.hi == t.hi);
        if !dup {
            install_taint(
                &set,
                TaintRange {
                    space: t.space,
                    lo: t.lo,
                    hi: t.hi,
                    fault: CopyFault::from_code(t.fault),
                },
            );
        }
    }
}
