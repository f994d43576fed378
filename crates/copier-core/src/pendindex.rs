//! Address-indexed pending-copy store (control-plane index).
//!
//! Every unfinished task in a [`QueueSet`]'s window owns two indexed
//! records — its source range and its destination range — keyed by
//! `(space id, range kind, start VA, task id)` in an ordered map. The four
//! hot control-plane consumers (absorption hazard + layering scans, the
//! csync waiter lookup, taint cascades, and reap invalidation) run window
//! queries against it instead of sweeping the whole pending list, turning
//! per-submission O(n) scans into O(log n + k) for k overlapping records.
//!
//! The interval-query trick: records are ordered by their *start* address,
//! and the index keeps a monotone high-water mark of the longest range it
//! has ever held. A query for `[lo, hi)` only needs to inspect keys in
//! `[lo - max_len, hi)` — anything starting earlier cannot reach `lo`.
//! The mark never shrinks on removal, which keeps removal O(log n) and is
//! merely conservative (a slightly wider scan window), never wrong.
//!
//! The index is pure bookkeeping over host data structures: it changes
//! which entries the service *looks at*, never what it decides, so
//! virtual-time behaviour is untouched (see DESIGN.md §13).
//!
//! [`QueueSet`]: crate::client::QueueSet

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::client::PendEntry;

/// Which of a task's two ranges a record covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeKind {
    /// The task's source range.
    Src,
    /// The task's destination range.
    Dst,
}

/// Record key: `(space id, kind, start VA, task id)`. The task id breaks
/// ties between same-address records; the kind dimension keeps src and dst
/// records in separate subtrees so a query never wades through the other
/// population.
type RecKey = (u32, u8, u64, u64);

/// The per-set address index over pending source/destination ranges.
#[derive(Default)]
pub struct PendIndex {
    /// `key -> (end VA, entry)`.
    map: RefCell<BTreeMap<RecKey, (u64, Rc<PendEntry>)>>,
    /// High-water mark of indexed range length (bounds query windows).
    max_len: Cell<u64>,
    /// High-water mark of resident record count.
    peak: Cell<usize>,
}

impl PendIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn records(e: &Rc<PendEntry>) -> [(RangeKind, (u32, u64, u64)); 2] {
        [
            (RangeKind::Src, e.task.src_range()),
            (RangeKind::Dst, e.task.dst_range()),
        ]
    }

    /// Indexes both ranges of a window entry.
    pub fn insert(&self, e: &Rc<PendEntry>) {
        let mut map = self.map.borrow_mut();
        for (kind, (sp, lo, hi)) in Self::records(e) {
            map.insert((sp, kind as u8, lo, e.tid), (hi, Rc::clone(e)));
            let len = hi - lo;
            if len > self.max_len.get() {
                self.max_len.set(len);
            }
        }
        let n = map.len();
        if n > self.peak.get() {
            self.peak.set(n);
        }
    }

    /// Drops a window entry's records (idempotent).
    pub fn remove(&self, e: &Rc<PendEntry>) {
        let mut map = self.map.borrow_mut();
        for (kind, (sp, lo, _)) in Self::records(e) {
            map.remove(&(sp, kind as u8, lo, e.tid));
        }
    }

    /// Resident record count (two per pending entry).
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// Whether no records are resident.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }

    /// High-water mark of resident record count.
    pub fn peak(&self) -> usize {
        self.peak.get()
    }

    /// Visits every record of `kind` in `space` whose range overlaps
    /// `[lo, hi)` under the same asymmetric test as
    /// [`ranges_overlap`](crate::interval::ranges_overlap)
    /// (`rec.lo < hi && lo < rec.hi`). Returns the number of records
    /// visited (the query's hit count). Visit order is by start address,
    /// not window order — callers reduce by key where order matters.
    ///
    /// Zero-length audit (ISSUE 6): the `lo - max_len` scan bound stays
    /// correct at `len == 0` on both sides. A zero-length *record* at
    /// `p` never raises `max_len`, yet is still found by exactly the
    /// queries with `lo < p < hi` — such a `p` satisfies `p ≥ scan_lo`
    /// for any `max_len` because `p > lo ≥ lo - max_len`. A zero-length
    /// *query* `[p, p)` behaves as the point `p` strictly inside a
    /// record, and `scan_lo = p - max_len` bounds exactly the records
    /// that can reach `p`. Both match `ranges_overlap`; covered by the
    /// tests below.
    pub fn for_each_overlap(
        &self,
        kind: RangeKind,
        space: u32,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(&Rc<PendEntry>),
    ) -> u64 {
        let map = self.map.borrow();
        let scan_lo = lo.saturating_sub(self.max_len.get());
        let k = kind as u8;
        let mut hits = 0u64;
        for (&(_, _, rlo, _), &(rhi, ref e)) in map.range((space, k, scan_lo, 0)..(space, k, hi, 0))
        {
            // `rlo < hi` is implied by the range bound; the other half of
            // the overlap test filters the conservative scan window.
            debug_assert!(rlo < hi);
            if lo < rhi {
                hits += 1;
                f(e);
            }
        }
        hits
    }

    /// Order-deterministic FNV-1a digest of every resident record
    /// `(space, kind, lo, tid, hi)` — the PendIndex component of the
    /// record/replay round hash (DESIGN.md §14). BTreeMap iteration
    /// order makes it independent of insertion history.
    pub fn digest(&self) -> u64 {
        use copier_sim::trace::{fnv_fold, FNV_OFFSET};
        let map = self.map.borrow();
        let mut h = FNV_OFFSET;
        for (&(sp, k, lo, tid), &(hi, _)) in map.iter() {
            h = fnv_fold(h, sp as u64);
            h = fnv_fold(h, k as u64);
            h = fnv_fold(h, lo);
            h = fnv_fold(h, tid);
            h = fnv_fold(h, hi);
        }
        h
    }

    /// Verifies the index exactly mirrors `pending` (both records per
    /// entry, correct end addresses, no extras) and that the scan-window
    /// invariant holds. Used by chaos teardown and the differential tests.
    pub fn check_against<'a>(
        &self,
        pending: impl Iterator<Item = &'a Rc<PendEntry>>,
    ) -> Result<(), String> {
        let map = self.map.borrow();
        let mut expect: BTreeMap<RecKey, u64> = BTreeMap::new();
        for e in pending {
            for (kind, (sp, lo, hi)) in Self::records(e) {
                if expect.insert((sp, kind as u8, lo, e.tid), hi).is_some() {
                    return Err(format!("duplicate window record for tid {}", e.tid));
                }
            }
        }
        if map.len() != expect.len() {
            return Err(format!(
                "index holds {} records, window implies {}",
                map.len(),
                expect.len()
            ));
        }
        for (k, (hi, e)) in map.iter() {
            match expect.get(k) {
                Some(&h) if h == *hi => {}
                Some(&h) => {
                    return Err(format!(
                        "record {k:?} ends at {hi}, window entry tid {} implies {h}",
                        e.tid
                    ));
                }
                None => return Err(format!("stale index record {k:?} (tid {})", e.tid)),
            }
            if hi - k.2 > self.max_len.get() {
                return Err(format!(
                    "record {k:?} longer than the max_len high-water mark"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PendEntry;
    use crate::descriptor::SegDescriptor;
    use crate::interval::ranges_overlap;
    use crate::task::CopyTask;
    use copier_mem::{AddressSpace, AllocPolicy, PhysMem, VirtAddr};
    use copier_sim::Nanos;

    fn space(id: u32) -> Rc<AddressSpace> {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        AddressSpace::new(id, pm)
    }

    fn entry(tid: u64, sp: &Rc<AddressSpace>, src: u64, dst: u64, len: usize) -> Rc<PendEntry> {
        Rc::new(PendEntry::new(
            tid,
            (0, 1, tid),
            CopyTask {
                dst_space: Rc::clone(sp),
                dst: VirtAddr(dst),
                src_space: Rc::clone(sp),
                src: VirtAddr(src),
                len,
                seg: 1024,
                descr: Rc::new(SegDescriptor::new(len, 1024)),
                func: None,
                lazy: false,
                verify: false,
            },
            Nanos::ZERO,
        ))
    }

    fn dst_tids(ix: &PendIndex, sp: u32, lo: u64, hi: u64) -> Vec<u64> {
        let mut out = Vec::new();
        ix.for_each_overlap(RangeKind::Dst, sp, lo, hi, |e| out.push(e.tid));
        out.sort_unstable();
        out
    }

    #[test]
    fn window_queries_find_exact_overlaps() {
        let s = space(1);
        let ix = PendIndex::new();
        let a = entry(1, &s, 0x1000, 0x8000, 0x1000); // dst [0x8000,0x9000)
        let b = entry(2, &s, 0x2000, 0x9000, 0x1000); // dst [0x9000,0xa000)
        let c = entry(3, &s, 0x3000, 0x20000, 0x400);
        for e in [&a, &b, &c] {
            ix.insert(e);
        }
        assert_eq!(ix.len(), 6);
        assert_eq!(dst_tids(&ix, 1, 0x8800, 0x9800), vec![1, 2]);
        assert_eq!(dst_tids(&ix, 1, 0x9000, 0x9001), vec![2]);
        assert_eq!(dst_tids(&ix, 1, 0xa000, 0xb000), vec![]);
        assert_eq!(dst_tids(&ix, 2, 0x8800, 0x9800), vec![], "wrong space");
        ix.remove(&b);
        assert_eq!(dst_tids(&ix, 1, 0x8800, 0x9800), vec![1]);
        ix.remove(&b); // idempotent
        assert_eq!(ix.len(), 4);
        assert_eq!(ix.peak(), 6);
    }

    #[test]
    fn queries_match_linear_overlap_semantics() {
        // Randomized cross-check, including empty query ranges (which the
        // asymmetric `ranges_overlap` treats as points inside ranges).
        let s = space(3);
        let ix = PendIndex::new();
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut entries = Vec::new();
        for tid in 1..=64 {
            let src = rnd() % 4096;
            let dst = rnd() % 4096;
            // Force a spread of zero-length records (every 8th entry) on
            // top of whatever the stream draws, so the len == 0 edge is
            // always exercised, not just hit with probability 1/256.
            let len = if tid % 8 == 0 {
                0
            } else {
                (rnd() % 256) as usize
            };
            let e = entry(tid, &s, src, dst, len);
            ix.insert(&e);
            entries.push(e);
        }
        for _ in 0..512 {
            let lo = rnd() % 4400;
            let hi = lo + rnd() % 128; // sometimes empty
            for kind in [RangeKind::Src, RangeKind::Dst] {
                let mut got = Vec::new();
                ix.for_each_overlap(kind, 3, lo, hi, |e| got.push(e.tid));
                got.sort_unstable();
                let mut want: Vec<u64> = entries
                    .iter()
                    .filter(|e| {
                        let (sp, rlo, rhi) = match kind {
                            RangeKind::Src => e.task.src_range(),
                            RangeKind::Dst => e.task.dst_range(),
                        };
                        sp == 3
                            && ranges_overlap(
                                (rlo as usize, rhi as usize),
                                (lo as usize, hi as usize),
                            )
                    })
                    .map(|e| e.tid)
                    .collect();
                want.sort_unstable();
                assert_eq!(got, want, "kind {kind:?} query [{lo},{hi})");
            }
        }
        ix.check_against(entries.iter()).unwrap();
    }

    #[test]
    fn zero_length_records_and_queries() {
        let s = space(1);
        let ix = PendIndex::new();
        // A zero-length record at 0x9000 (dst [0x9000, 0x9000)).
        let z = entry(1, &s, 0x1000, 0x9000, 0);
        ix.insert(&z);
        // Found by queries strictly containing the point...
        assert_eq!(dst_tids(&ix, 1, 0x8000, 0xa000), vec![1]);
        // ...but not by ranges merely touching it (half-open semantics).
        assert_eq!(dst_tids(&ix, 1, 0x9000, 0xa000), vec![]);
        assert_eq!(dst_tids(&ix, 1, 0x8000, 0x9000), vec![]);
        // A zero-length query is a point strictly inside a record.
        let r = entry(2, &s, 0x2000, 0xb000, 0x1000);
        ix.insert(&r);
        assert_eq!(dst_tids(&ix, 1, 0xb800, 0xb800), vec![2]);
        assert_eq!(dst_tids(&ix, 1, 0xb000, 0xb000), vec![], "at the edge");
        // Empty query against the zero-length record: no strict interior.
        assert_eq!(dst_tids(&ix, 1, 0x9000, 0x9000), vec![]);
        ix.check_against([&z, &r].into_iter()).unwrap();
        ix.remove(&z);
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let s = space(1);
        let a = entry(1, &s, 0x1000, 0x8000, 64);
        let b = entry(2, &s, 0x2000, 0x9000, 64);
        let ab = PendIndex::new();
        ab.insert(&a);
        ab.insert(&b);
        let ba = PendIndex::new();
        ba.insert(&b);
        ba.insert(&a);
        assert_eq!(ab.digest(), ba.digest(), "insertion order is invisible");
        ba.remove(&b);
        assert_ne!(ab.digest(), ba.digest(), "content changes the digest");
        let empty = PendIndex::new();
        assert_ne!(ba.digest(), empty.digest());
    }

    #[test]
    fn check_against_catches_divergence() {
        let s = space(1);
        let ix = PendIndex::new();
        let a = entry(1, &s, 0x1000, 0x8000, 64);
        let b = entry(2, &s, 0x2000, 0x9000, 64);
        ix.insert(&a);
        assert!(ix.check_against([&a].into_iter()).is_ok());
        assert!(ix.check_against([&a, &b].into_iter()).is_err(), "missing");
        ix.insert(&b);
        assert!(ix.check_against([&a].into_iter()).is_err(), "stale");
    }
}
