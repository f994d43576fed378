//! Round steps 1–2: drain the CSH queues into the pending windows under
//! admission control, and serve the Sync Tasks (§4.2).

use std::cell::Cell;
use std::rc::Rc;

use copier_mem::VirtAddr;
use copier_sim::trace::TraceEvent;

use super::Copier;
use crate::client::{Client, OrderKey, PendEntry, QueueSet};
use crate::descriptor::CopyFault;
use crate::journal::AdmitRec;
use crate::pendindex::RangeKind;
use crate::sched::vruntime_before;
use crate::task::{CopyTask, QueueEntry, SyncTask};

impl Copier {
    /// Drains every set of every assigned client, walking sets by index
    /// (no snapshot clone; sets are never removed, only appended).
    pub(super) fn drain_assigned(&self, clients: &[Rc<Client>]) -> usize {
        let mut n = 0usize;
        for c in clients {
            let mut si = 0;
            while let Some(set) = c.set_at(si) {
                n += self.drain_set(c, &set, si as u32);
                si += 1;
            }
        }
        n
    }

    /// Drains one queue set's copy queues into its pending window,
    /// applying admission control to every copy task at the drain
    /// boundary — the backstop for submitters that bypass the library's
    /// credit pool.
    fn drain_set(&self, client: &Rc<Client>, set: &Rc<QueueSet>, set_idx: u32) -> usize {
        let mut n = 0;
        // k-mode first so barrier keys are in place before u entries drain.
        while let Some(e) = set.kq.copy.pop() {
            n += 1;
            match e {
                QueueEntry::Barrier { peer_pos } => set.cur_k_key.set(peer_pos),
                QueueEntry::Copy(t) => {
                    if !self.admit_traced(client, &t) {
                        self.shed(client, set, t);
                        continue;
                    }
                    let key = (set.cur_k_key.get(), 0u8, bump(&set.seq));
                    self.push_pending(client, set, set_idx, key, t);
                }
            }
        }
        while let Some(e) = set.uq.copy.pop() {
            n += 1;
            match e {
                QueueEntry::Barrier { .. } => {}
                QueueEntry::Copy(t) => {
                    if !self.admit_traced(client, &t) {
                        self.shed(client, set, t);
                        continue;
                    }
                    let key = (bump(&set.u_index), 1u8, bump(&set.seq));
                    self.push_pending(client, set, set_idx, key, t);
                }
            }
        }
        n
    }

    /// [`Self::admit`] plus the record/replay emission of the decision —
    /// one `Admit` event per copy submission at the drain boundary.
    fn admit_traced(&self, client: &Rc<Client>, t: &CopyTask) -> bool {
        let admitted = self.admit(client, t);
        self.temit(
            client.shard.get(),
            TraceEvent::Admit {
                client: client.id,
                len: t.len as u64,
                admitted,
            },
        );
        admitted
    }

    /// Admission decision for one submission. Per-client quotas are
    /// unconditional. The byte watermark is a per-shard budget: a shard
    /// sheds with hysteresis against its own admitted bytes (latched at
    /// `global_high_bytes / nshards`, released at `global_low_bytes /
    /// nshards`) and never reads a peer's count, so a backlogged peer
    /// cannot make it shed, and what it admits under the watermark sums
    /// over the shards to less than `global_high_bytes` plus one task per
    /// shard. Shedding is priority-aware: the least-served live client —
    /// the one the copied-length scheduler would favor — is exempt (up to
    /// its own quotas), so overload never starves a light tenant.
    fn admit(&self, client: &Rc<Client>, t: &CopyTask) -> bool {
        let q = &self.cfg.admission;
        if client.inflight_tasks.get() >= q.max_client_tasks {
            return false;
        }
        if client.inflight_bytes.get().saturating_add(t.len as u64) > q.max_client_bytes {
            return false;
        }
        !self.shard_of(client).admit.shedding() || self.least_served(client)
    }

    /// Whether `client` is (tied for) the least-served live client — the
    /// same yardstick as `Scheduler::order_into`'s fairness order. The
    /// exemption is strict: under a symmetric overload every tenant takes
    /// its turn at the minimum, so shedding rotates fairly instead of
    /// exempting the whole band and never shedding at all.
    fn least_served(&self, client: &Rc<Client>) -> bool {
        // Wrap-safe minimum: a client is least-served iff no live client
        // is strictly before it in vruntime order. A plain `min()` would
        // misrank a freshly wrapped accumulator (see `vruntime_before`).
        // "No live client strictly before `cur`" is equivalent to "the
        // live minimum is not strictly before `cur`" (the scan includes
        // `client` itself, and so does the cached minimum), which is what
        // lets the incremental min-vruntime cache answer in O(1).
        let cur = client.copied_total.get();
        // The exemption is *global*: own-shard clients through the live
        // minimum, peers through the minimum each shard published at the
        // last barrier — deterministic, and stale by at most one
        // generation. A lone shard has no peers (`peer_min_vr` is `None`).
        let sh = self.shard_of(client);
        if let Some(pm) = sh.peer_min_vr.get() {
            if vruntime_before(pm, cur) {
                return false;
            }
        }
        match sh.min_live_vr() {
            Some(m) => !vruntime_before(m, cur),
            None => true,
        }
    }

    /// Rejects a submission: the descriptor is poisoned `Overloaded` (a
    /// typed, observable outcome — never a silent drop), the completion
    /// handler still runs, and the client's submission credit returns so
    /// its pool reflects true in-flight depth.
    fn shed(&self, client: &Rc<Client>, set: &Rc<QueueSet>, t: CopyTask) {
        t.descr.poison(CopyFault::Overloaded);
        // The delivery claim keeps shedding exactly-once too: a
        // crash-resubmitted duplicate that gets shed does not run the
        // handler or mint a second credit.
        if t.descr.claim_delivery() {
            self.deliver_handler(set, &t);
            client.grant_credit();
        }
        let mut st = self.stats.borrow_mut();
        st.admission_rejected += 1;
        st.shed_bytes += t.len as u64;
    }

    fn push_pending(
        &self,
        client: &Rc<Client>,
        set: &Rc<QueueSet>,
        set_idx: u32,
        key: (u64, u8, u64),
        t: CopyTask,
    ) {
        // Dependency cascade across rounds (§4.4): a task sourcing from a
        // range a faulted producer never wrote would read garbage — fail it
        // up front with the producer's fault instead of letting absorption
        // or a raw copy forward stale bytes.
        let (ssp, slo, shi) = t.src_range();
        let hit = set
            .tainted
            .borrow()
            .iter()
            .find(|x| x.space == ssp && x.lo < shi && slo < x.hi)
            .map(|x| x.fault);
        if let Some(fault) = hit {
            t.descr.poison(fault);
            if t.descr.claim_delivery() {
                self.deliver_handler(set, &t);
                // No window entry exists to finalize, so the submission
                // credit comes back here instead of on the completion path.
                client.grant_credit();
            }
            let (dsp, dlo, dhi) = t.dst_range();
            self.remember_taint(client, set, dsp, dlo, dhi, fault);
            let mut st = self.stats.borrow_mut();
            st.faults += 1;
            st.dependents_aborted += 1;
            return;
        }
        // A fresh copy that fully overwrites a tainted range heals it.
        let (dsp, dlo, dhi) = t.dst_range();
        set.tainted
            .borrow_mut()
            .retain(|x| !(x.space == dsp && dlo <= x.lo && x.hi <= dhi));
        // Zero-length copies (legal, like `memcpy(d, s, 0)`) complete
        // immediately at the drain boundary: their descriptor is born
        // all-ready, so a window entry would never be selected — and
        // therefore never finalized, leaking its handler and credit
        // forever. (The taint check above can never hit an empty source
        // range, which is right: a zero-length read forwards nothing.)
        if t.len == 0 {
            if t.descr.claim_delivery() {
                self.deliver_handler(set, &t);
                client.grant_credit();
                let mut st = self.stats.borrow_mut();
                st.credits_granted += 1;
                st.tasks_completed += 1;
            }
            return;
        }
        let tid = self.next_tid.get();
        self.next_tid.set(tid + 1);
        let entry = Rc::new(PendEntry::new(tid, key, t, self.h.now()));
        let len = entry.task.len as u64;
        // Journal the admission before it becomes visible to scheduling:
        // the pre-copy extent digests of both ranges are what recovery
        // reconciles a journaled-but-vanished task against. Sampling is
        // host-side only — no virtual time, no PRNG draw — and head+tail:
        // a partial copy lands a prefix, so the head page catches it, but
        // torn-write detection at recovery is blind to damage confined to
        // interior pages.
        if let Some(j) = &self.journal {
            let t = &entry.task;
            j.record_admit(AdmitRec {
                tid,
                client: client.id,
                set_idx,
                key,
                dst_space: t.dst_space.id(),
                dst: t.dst.0,
                src_space: t.src_space.id(),
                src: t.src.0,
                len: t.len as u64,
                seg: t.seg as u64,
                dst_digest: t.dst_space.extent_digest(t.dst, t.len),
                src_digest: t.src_space.extent_digest(t.src, t.len),
            });
        }
        set.index.insert(&entry);
        {
            let mut st = self.stats.borrow_mut();
            let n = set.index.len() as u64;
            if n > st.index_entries_peak {
                st.index_entries_peak = n;
            }
        }
        let mut pending = set.pending.borrow_mut();
        // Insert sorted by key (binary search; keys are unique per set).
        let pos = pending.partition_point(|p| p.key <= entry.key);
        pending.insert(pos, entry);
        // Admission accounting: the task now occupies window capacity.
        client.inflight_tasks.set(client.inflight_tasks.get() + 1);
        client.inflight_bytes.set(client.inflight_bytes.get() + len);
        self.shard_of(client).admit.add(len);
    }

    /// Serves every queued Sync Task of `clients`, k-mode before u-mode
    /// (§4.2.2); returns how many.
    pub(super) fn serve_syncs(&self, clients: &[Rc<Client>]) -> usize {
        let mut synced = 0usize;
        for c in clients {
            let mut si = 0;
            while let Some(set) = c.set_at(si) {
                si += 1;
                while let Some(st) = set.kq.sync.pop() {
                    self.handle_sync(c, &set, st);
                    synced += 1;
                }
                while let Some(st) = set.uq.sync.pop() {
                    self.handle_sync(c, &set, st);
                    synced += 1;
                }
            }
        }
        synced
    }

    /// Serves one Sync Task: promotion (with dependency closure) or abort.
    fn handle_sync(&self, client: &Rc<Client>, set: &Rc<QueueSet>, st: SyncTask) {
        self.stats.borrow_mut().syncs += 1;
        let pending = set.pending.borrow();
        let lo = st.addr.0 as usize;
        let hi = lo + st.len;
        // Latest matching task wins (§4.2.2 reverse traversal); an abort
        // with an explicit descriptor matches by identity instead (those
        // carry no address, so the scan stays linear — they are rare).
        let target_idx = if let Some(d) = &st.target {
            pending
                .iter()
                .rposition(|p| !p.finished() && Rc::ptr_eq(&p.task.descr, d))
        } else {
            // Address-indexed lookup: the latest unfinished entry whose
            // destination overlaps the synced range. Window position order
            // equals key order (keys are unique), so "latest" is the max
            // key among the window query's matches.
            let mut best: Option<OrderKey> = None;
            let hits = set.index.for_each_overlap(
                RangeKind::Dst,
                st.space_id,
                lo as u64,
                hi as u64,
                |p| {
                    if !p.finished() && best.is_none_or(|b| p.key > b) {
                        best = Some(p.key);
                    }
                },
            );
            self.stats.borrow_mut().index_hits += hits;
            best.map(|k| pending.partition_point(|p| p.key < k))
        };
        let Some(ti) = target_idx else {
            return;
        };
        if st.abort {
            // Abort retires (§4.4): the task is poisoned and leaves the
            // window now, handing back pins, credit and admission share
            // and running its handler. Nothing of it is in flight: syncs
            // are served by the shard that owns the client, between its
            // dispatches, and a dispatch lands or fails every byte it took
            // before `execute` returns.
            let e = Rc::clone(&pending[ti]);
            drop(pending);
            debug_assert!(e.inflight.borrow().is_empty());
            e.aborted.set(true);
            e.task.descr.poison(CopyFault::Aborted);
            self.stats.borrow_mut().aborts += 1;
            self.finalize(client, set, &e);
            return;
        }
        // Promote the target and its dependency closure (§4.2.2). Readiness
        // is one bit per segment, so a csync of part of a *lazy* target
        // promotes the segments it touches and leaves the rest under the
        // lazy timer; any other target (and one named by descriptor, which
        // carries no range) is promoted whole. Reads (RAW) from
        // a still-pending producer do *not* force the producer when
        // absorption is on — layering will source the bytes directly.
        // Write hazards (WAW on the destination, WAR against a pending
        // reader's source) always force the earlier task ahead.
        let target = &pending[ti];
        let t = &target.task;
        let (plo, phi) = if t.lazy && st.target.is_none() {
            let seg = t.seg.max(1);
            let rel_lo = lo.saturating_sub(t.dst.0 as usize);
            let rel_hi = (hi - t.dst.0 as usize).min(t.len);
            (rel_lo / seg * seg, rel_hi.next_multiple_of(seg).min(t.len))
        } else {
            (0, t.len)
        };
        target.promote(plo, phi);
        self.stats.borrow_mut().promotions += 1;
        let overlap = |ranges: &[(u32, usize, usize)], sp: u32, lo: usize, hi: usize| {
            ranges.iter().any(|&(s, l, h)| s == sp && l < hi && lo < h)
        };
        let at = |base: VirtAddr, off: usize| base.0 as usize + off;
        let mut needed_src = vec![(t.src_space.id(), at(t.src, plo), at(t.src, phi))];
        let mut needed_dst = vec![(t.dst_space.id(), at(t.dst, plo), at(t.dst, phi))];
        for p in pending.iter().take(ti).rev() {
            if p.finished() {
                continue;
            }
            let d = p.task.dst_range();
            let sr = p.task.src_range();
            let waw = overlap(&needed_dst, d.0, d.1 as usize, d.2 as usize);
            let war = overlap(&needed_dst, sr.0, sr.1 as usize, sr.2 as usize);
            let raw = overlap(&needed_src, d.0, d.1 as usize, d.2 as usize);
            if waw || war || (raw && !self.cfg.absorption) {
                p.promote_all();
                needed_src.push((sr.0, sr.1 as usize, sr.2 as usize));
                needed_dst.push((d.0, d.1 as usize, d.2 as usize));
                self.stats.borrow_mut().promotions += 1;
            }
        }
    }
}

fn bump(c: &Cell<u64>) -> u64 {
    let v = c.get();
    c.set(v + 1);
    v
}
