//! Background integrity: scrub-registered regions, the bit-rot oracle and
//! the walker that heals what it finds from a replica (DESIGN.md §16).

use std::cell::Cell;
use std::rc::Rc;

use copier_mem::{AddressSpace, VirtAddr};

use super::Copier;
use crate::client::Client;
use crate::descriptor::{CopyFault, SegDescriptor};
use crate::task::{CopyTask, Handler, QueueEntry};

/// A long-lived region registered for background integrity scrubbing
/// (pinned I/O buffers, journaled state): the walker re-digests one chunk
/// per `scrub_period` rounds against the golden digests taken at
/// registration and heals rot from the replica.
pub(super) struct ScrubRegion {
    /// Its client; reaping the client drops the region.
    pub(super) owner: Rc<Client>,
    space: Rc<AddressSpace>,
    /// The guarded range.
    primary: VirtAddr,
    /// Known-good copy of the same bytes; heal tasks source from it.
    replica: VirtAddr,
    len: usize,
    chunk: usize,
    /// Full-coverage (stride-1) digest per chunk, taken at registration.
    golden: Vec<u64>,
    /// Chunk found rotted with no intact replica: taint remembered once,
    /// chunk retired from the walk.
    dead: Vec<Cell<bool>>,
    /// A heal copy for this chunk is queued or in flight; the walker
    /// skips it until the task settles (the handler clears the flag).
    healing: Vec<Rc<Cell<bool>>>,
}

impl Copier {
    /// Round step 0, on shard 0: one oracle rot draw per round (zero PRNG
    /// draws unless `rot_prob` is enabled, so rot-free runs are
    /// byte-identical), then the scrub walker. Both are host-side — no
    /// virtual time is charged; heal copies enter the ordinary queues and
    /// pace like any other submission. It runs *before* the round's
    /// assignment snapshot so a heal push (which activates its owner) is
    /// drained this round.
    pub(super) fn background_integrity(self: &Rc<Self>) {
        if let Some(plan) = &self.cfg.fault_plan {
            if let Some(p) = plan.decide_rot() {
                self.inject_rot(p);
            }
        }
        if self.cfg.scrub_period > 0 && !self.scrub.borrow().is_empty() {
            let t = self.scrub_tick.get() + 1;
            self.scrub_tick.set(t);
            if t.is_multiple_of(self.cfg.scrub_period) {
                self.scrub_walk();
            }
        }
    }

    /// Registers a long-lived region for background scrubbing
    /// (§integrity). `primary` is the guarded range; `replica` holds the
    /// same bytes and is what heal copies source from when the walker
    /// finds rot. Golden per-chunk digests are taken now, full-coverage
    /// (stride 1) — the whole point of the scrubber is catching damage
    /// anywhere in the extent. Digesting is host-side only.
    pub fn register_scrub_region(
        &self,
        client: &Rc<Client>,
        space: &Rc<AddressSpace>,
        primary: VirtAddr,
        replica: VirtAddr,
        len: usize,
        chunk: usize,
    ) {
        let chunk = chunk.max(1).min(len.max(1));
        let n = len.div_ceil(chunk).max(1);
        let mut golden = Vec::with_capacity(n);
        for i in 0..n {
            let off = i * chunk;
            let clen = chunk.min(len - off);
            golden.push(space.extent_digest_stride(primary.add(off), clen, 1));
        }
        self.scrub.borrow_mut().push(ScrubRegion {
            owner: Rc::clone(client),
            space: Rc::clone(space),
            primary,
            replica,
            len,
            chunk,
            golden,
            dead: (0..n).map(|_| Cell::new(false)).collect(),
            healing: (0..n).map(|_| Rc::new(Cell::new(false))).collect(),
        });
    }

    /// Applies one oracle-drawn bit-rot event: `pos` selects a bit
    /// uniformly across all registered primaries. The draw was already
    /// consumed (and traced) by the oracle, so the event lands — or
    /// no-ops, when nothing is registered or the page is unmapped —
    /// without touching determinism.
    fn inject_rot(&self, pos: u64) {
        let regions = self.scrub.borrow();
        let total_bits: u64 = regions.iter().map(|r| r.len as u64 * 8).sum();
        if total_bits == 0 {
            return;
        }
        let mut bit = pos % total_bits;
        for r in regions.iter() {
            let rbits = r.len as u64 * 8;
            if bit >= rbits {
                bit -= rbits;
                continue;
            }
            let va = r.primary.add((bit / 8) as usize);
            // Pure translate: rot strikes resident frames; an unmapped
            // page has no bytes to rot. No fault work, no virtual time.
            if let Some(pte) = r.space.translate(va) {
                let pm = r.space.phys();
                let mut b = [0u8];
                pm.read(pte.frame, va.page_off(), &mut b);
                b[0] ^= 1 << (bit % 8);
                pm.write(pte.frame, va.page_off(), &b);
            }
            return;
        }
    }

    /// One scrubber step: re-digests the next live chunk and, on
    /// mismatch, queues a heal copy from the replica through the
    /// ordinary k-queue — the heal is an absorbable, admission-controlled,
    /// shed-able copy task like any other, not a privileged side channel.
    /// A rotted chunk whose replica is also damaged is unrepairable: its
    /// range is remembered as `Corrupted` taint and retired.
    fn scrub_walk(self: &Rc<Self>) {
        let regions = self.scrub.borrow();
        let total: usize = regions.iter().map(|r| r.golden.len()).sum();
        if total == 0 {
            return;
        }
        let mut pos = self.scrub_pos.get() % total;
        for _ in 0..total {
            let (ri, ci) = {
                let mut p = pos;
                let mut found = (0, 0);
                for (i, r) in regions.iter().enumerate() {
                    if p < r.golden.len() {
                        found = (i, p);
                        break;
                    }
                    p -= r.golden.len();
                }
                found
            };
            pos = (pos + 1) % total;
            let r = &regions[ri];
            if r.dead[ci].get() || r.healing[ci].get() {
                continue;
            }
            self.scrub_pos.set(pos);
            let off = ci * r.chunk;
            let clen = r.chunk.min(r.len - off);
            self.stats.borrow_mut().scrub_chunks += 1;
            if r.space.extent_digest_stride(r.primary.add(off), clen, 1) == r.golden[ci] {
                return;
            }
            // Rot found. Heal from the replica if it is still intact.
            let client = &r.owner;
            let Some(set) = client.set_at(0) else {
                return;
            };
            if r.space.extent_digest_stride(r.replica.add(off), clen, 1) != r.golden[ci] {
                self.stats.borrow_mut().scrub_unrepairable += 1;
                r.dead[ci].set(true);
                let lo = r.primary.add(off).0;
                self.remember_taint(
                    client,
                    &set,
                    r.space.id(),
                    lo,
                    lo + clen as u64,
                    CopyFault::Corrupted,
                );
                return;
            }
            let descr = Rc::new(SegDescriptor::new(clen, self.cfg.segment));
            r.healing[ci].set(true);
            let healing = Rc::clone(&r.healing[ci]);
            let me = Rc::downgrade(self);
            let d2 = Rc::clone(&descr);
            let func = Handler::KFunc(Rc::new(move || {
                healing.set(false);
                if d2.fault().is_none() {
                    if let Some(svc) = me.upgrade() {
                        svc.stats.borrow_mut().scrub_heals += 1;
                    }
                }
            }));
            let task = CopyTask {
                dst_space: Rc::clone(&r.space),
                dst: r.primary.add(off),
                src_space: Rc::clone(&r.space),
                src: r.replica.add(off),
                len: clen,
                seg: self.cfg.segment,
                descr,
                func: Some(func),
                lazy: false,
                // Heal copies are themselves fully verified end to end: a
                // corrupt heal must not silently re-poison the region.
                verify: true,
            };
            if set.kq.copy.push(QueueEntry::Copy(task)).is_err() {
                // Ring full: the heal is shed-able by design; the chunk
                // stays live and the walker retries next period.
                r.healing[ci].set(false);
            } else {
                // The heal re-activates an idle owner exactly like a
                // client submission would.
                self.activate(client);
            }
            return;
        }
    }
}
