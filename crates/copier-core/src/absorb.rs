//! Layered copy absorption (§4.4).
//!
//! When task B (`X→Y`) is about to execute while an earlier task A (`W→X`)
//! is still pending, Copier "short-circuits": the parts of B's source that
//! A has *not yet copied* (and which therefore cannot have been touched by
//! the client — a client must `csync` before access, which would have
//! forced the copy) are read **directly from A's source `W`**, and A's
//! obligation for those ranges is *deferred* off the fast path. Parts A
//! already copied might carry client modifications, so they are read from
//! `X` — the layered rule of Fig. 8-b.
//!
//! The analysis also detects the hazards that forbid reordering:
//! write-after-write on the destination and write-after-read against an
//! earlier task's still-unread source. Those block the batch instead. So
//! does read-after-write when layering is off: nothing else orders a
//! consumer behind the unfinished producer it reads from.

use std::collections::BTreeMap;
use std::rc::Rc;

use copier_mem::{AddressSpace, VirtAddr};

use crate::client::{OrderKey, PendEntry};
use crate::interval::ranges_overlap;
use crate::pendindex::{PendIndex, RangeKind};

/// A piece of a task's *effective* source after layering.
#[derive(Clone)]
pub struct SrcPiece {
    /// Offset within the task's destination/source (task-relative).
    pub off: usize,
    /// Length of the piece.
    pub len: usize,
    /// Address space the piece reads from.
    pub space: Rc<AddressSpace>,
    /// Start address of the piece.
    pub va: VirtAddr,
    /// How many times this piece was redirected to an earlier source
    /// (0 = the task's own source; ≥1 = absorbed).
    pub depth: u32,
}

impl std::fmt::Debug for SrcPiece {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SrcPiece")
            .field("off", &self.off)
            .field("len", &self.len)
            .field("space", &self.space.id())
            .field("va", &self.va)
            .field("depth", &self.depth)
            .finish()
    }
}

/// The outcome of absorption analysis for one task.
pub struct AbsorbPlan {
    /// Effective source pieces, ordered by task offset, covering the task.
    pub pieces: Vec<SrcPiece>,
    /// Ranges of *earlier* entries to defer: `(entry, start, end)` in that
    /// entry's task-relative coordinates.
    pub defers: Vec<(Rc<PendEntry>, usize, usize)>,
    /// A hazard forbids executing this task before the earlier ones.
    pub blocked: bool,
    /// The earlier entries causing the hazard (so the service can clear
    /// their deferrals and push them through first).
    pub blockers: Vec<Rc<PendEntry>>,
    /// Bytes redirected away from intermediate buffers.
    pub absorbed_bytes: usize,
}

/// Maximum layering depth (bounds pathological chains).
pub const MAX_ABSORB_DEPTH: u32 = 4;

/// Analyzes `entry` against the `earlier` unfinished entries of its window
/// (in window order). `enabled = false` degrades to the identity plan with
/// hazard detection only (the absorption ablation of Fig. 12-c); an
/// unfinished earlier producer of the task's source is then a hazard too.
pub fn analyze(entry: &PendEntry, earlier: &[Rc<PendEntry>], enabled: bool) -> AbsorbPlan {
    let t = &entry.task;
    let dst_r = (t.dst.0 as usize, t.dst.0 as usize + t.len);
    let src_r = (t.src.0 as usize, t.src.0 as usize + t.len);

    // Hazard scan.
    let mut blocked = false;
    let mut blockers: Vec<Rc<PendEntry>> = Vec::new();
    for e in earlier {
        if e.finished() {
            continue;
        }
        let et = &e.task;
        let mut hazard = false;
        // WAW: both write the same destination bytes — order must hold.
        if et.dst_space.id() == t.dst_space.id() {
            let r = (et.dst.0 as usize, et.dst.0 as usize + et.len);
            if ranges_overlap(dst_r, r) {
                hazard = true;
            }
        }
        // WAR: we would overwrite a source the earlier task still reads.
        if et.src_space.id() == t.dst_space.id() {
            let r = (et.src.0 as usize, et.src.0 as usize + et.len);
            if ranges_overlap(dst_r, r) {
                hazard = true;
            }
        }
        // RAW: layering is what lets a reader run before its producer;
        // without it the producer's bytes have to land first.
        if !enabled && et.dst_space.id() == t.src_space.id() {
            let r = (et.dst.0 as usize, et.dst.0 as usize + et.len);
            if ranges_overlap(src_r, r) {
                hazard = true;
            }
        }
        if hazard {
            blocked = true;
            blockers.push(Rc::clone(e));
        }
    }

    let mut pieces = vec![SrcPiece {
        off: 0,
        len: t.len,
        space: Rc::clone(&t.src_space),
        va: t.src,
        depth: 0,
    }];
    let mut defers: Vec<(Rc<PendEntry>, usize, usize)> = Vec::new();
    let mut absorbed = 0usize;

    if enabled && !blocked {
        // Layer from the most recent earlier task backwards; redirected
        // pieces can then hit even earlier producers (transitive chains).
        for e in earlier.iter().rev() {
            if e.finished() || e.aborted.get() || e.failed.get().is_some() {
                continue;
            }
            let et = &e.task;
            let e_dst_lo = et.dst.0 as usize;
            let e_dst_hi = e_dst_lo + et.len;
            let mut next: Vec<SrcPiece> = Vec::with_capacity(pieces.len());
            for p in pieces {
                if p.depth >= MAX_ABSORB_DEPTH || p.space.id() != et.dst_space.id() {
                    next.push(p);
                    continue;
                }
                let p_lo = p.va.0 as usize;
                let p_hi = p_lo + p.len;
                let lo = p_lo.max(e_dst_lo);
                let hi = p_hi.min(e_dst_hi);
                if lo >= hi {
                    next.push(p);
                    continue;
                }
                // Head of the piece before the overlap.
                if p_lo < lo {
                    next.push(SrcPiece {
                        off: p.off,
                        len: lo - p_lo,
                        space: Rc::clone(&p.space),
                        va: p.va,
                        depth: p.depth,
                    });
                }
                // Overlapped middle: split by what the earlier task has
                // already copied (entry-relative coordinates).
                let e_rel = (lo - e_dst_lo, hi - e_dst_lo);
                let copied = e.copied.borrow();
                for (s, (es, ee)) in copied
                    .overlaps(e_rel.0, e_rel.1)
                    .map(|r| (true, r))
                    .chain(copied.gaps(e_rel.0, e_rel.1).map(|r| (false, r)))
                {
                    let task_off = p.off + (e_dst_lo + es - p_lo);
                    if s {
                        // Already copied: data (possibly client-modified)
                        // lives in the earlier task's destination; keep
                        // reading from there.
                        next.push(SrcPiece {
                            off: task_off,
                            len: ee - es,
                            space: Rc::clone(&p.space),
                            va: VirtAddr((e_dst_lo + es) as u64),
                            depth: p.depth,
                        });
                    } else {
                        // Untouched: short-circuit to the earlier source
                        // and defer the earlier task's obligation.
                        next.push(SrcPiece {
                            off: task_off,
                            len: ee - es,
                            space: Rc::clone(&et.src_space),
                            va: et.src.add(es),
                            depth: p.depth + 1,
                        });
                        absorbed += ee - es;
                        defers.push((Rc::clone(e), es, ee));
                    }
                }
                // Tail of the piece after the overlap.
                if hi < p_hi {
                    next.push(SrcPiece {
                        off: p.off + (hi - p_lo),
                        len: p_hi - hi,
                        space: Rc::clone(&p.space),
                        va: VirtAddr(hi as u64),
                        depth: p.depth,
                    });
                }
            }
            next.sort_by_key(|p| p.off);
            pieces = next;
        }
    }

    AbsorbPlan {
        pieces,
        defers,
        blocked,
        blockers,
        absorbed_bytes: absorbed,
    }
}

/// Index-backed [`analyze`]: window queries against the set's
/// [`PendIndex`] instead of sweeping every earlier entry. Produces the
/// same plan — identical pieces (sorted by offset), blockers (window
/// order), `blocked` flag, and absorbed byte total; only the order of the
/// `defers` list may differ (its application is commutative: interval
/// inserts plus an identical `defer_until`). The second return value is
/// the number of index records the queries visited.
///
/// Equivalences with the linear reference, relied on for byte-identical
/// virtual time:
///
/// * "earlier entries in window order" == index records with
///   `key < entry.key`, reduced in key order (window position order equals
///   key order because keys are unique within a set);
/// * the layering loop's backward sweep applies, for each piece, the
///   *latest* live earlier producer overlapping it — here a max-key window
///   query per piece, with split pieces re-queried below that producer's
///   key (the bound a backward sweep would have reached next).
pub fn analyze_indexed(entry: &PendEntry, index: &PendIndex, enabled: bool) -> (AbsorbPlan, u64) {
    let t = &entry.task;
    let bound = entry.key;
    let (dsp, dlo, dhi) = t.dst_range();
    let mut hits = 0u64;

    // Hazard scan: WAW = earlier destinations overlapping our destination,
    // WAR = earlier sources overlapping it, and with layering off RAW =
    // earlier destinations overlapping our source. Dedup by key (one entry
    // can match several queries); key order reproduces the window scan's
    // order.
    let mut hazard: BTreeMap<OrderKey, Rc<PendEntry>> = BTreeMap::new();
    let raw = (!enabled).then(|| (RangeKind::Dst, t.src_range()));
    let queries = [
        (RangeKind::Dst, (dsp, dlo, dhi)),
        (RangeKind::Src, (dsp, dlo, dhi)),
    ];
    for (kind, (sp, lo, hi)) in queries.into_iter().chain(raw) {
        hits += index.for_each_overlap(kind, sp, lo, hi, |e| {
            if e.key < bound && !e.finished() {
                hazard.entry(e.key).or_insert_with(|| Rc::clone(e));
            }
        });
    }
    let blockers: Vec<Rc<PendEntry>> = hazard.into_values().collect();
    let blocked = !blockers.is_empty();

    let mut pieces: Vec<SrcPiece> = Vec::new();
    let mut defers: Vec<(Rc<PendEntry>, usize, usize)> = Vec::new();
    let mut absorbed = 0usize;

    // Worklist of (piece, key bound): each piece is matched against the
    // latest live producer below its bound whose destination overlaps it;
    // the split parts inherit that producer's key as their new bound, so
    // transitive chains terminate exactly where the backward sweep would.
    // The task's own source starts outside the list: a task nothing
    // layers under, the usual one, never allocates it.
    let mut work: Vec<(SrcPiece, OrderKey)> = Vec::new();
    let mut first = Some((
        SrcPiece {
            off: 0,
            len: t.len,
            space: Rc::clone(&t.src_space),
            va: t.src,
            depth: 0,
        },
        bound,
    ));
    while let Some((p, pb)) = first.take().or_else(|| work.pop()) {
        if !enabled || blocked || p.depth >= MAX_ABSORB_DEPTH {
            pieces.push(p);
            continue;
        }
        let p_lo = p.va.0 as usize;
        let p_hi = p_lo + p.len;
        let mut best: Option<Rc<PendEntry>> = None;
        hits += index.for_each_overlap(
            RangeKind::Dst,
            p.space.id(),
            p_lo as u64,
            p_hi as u64,
            |e| {
                if e.key < pb
                    && !(e.finished() || e.aborted.get() || e.failed.get().is_some())
                    && best.as_ref().is_none_or(|b| e.key > b.key)
                {
                    best = Some(Rc::clone(e));
                }
            },
        );
        let Some(e) = best else {
            pieces.push(p);
            continue;
        };
        let et = &e.task;
        let e_dst_lo = et.dst.0 as usize;
        let e_dst_hi = e_dst_lo + et.len;
        let lo = p_lo.max(e_dst_lo);
        let hi = p_hi.min(e_dst_hi);
        if lo >= hi {
            // Asymmetric-overlap match with an empty intersection (a
            // zero-length range); the linear sweep passes the piece over
            // it untouched — keep looking below this producer's key.
            work.push((p, e.key));
            continue;
        }
        let eb = e.key;
        if p_lo < lo {
            work.push((
                SrcPiece {
                    off: p.off,
                    len: lo - p_lo,
                    space: Rc::clone(&p.space),
                    va: p.va,
                    depth: p.depth,
                },
                eb,
            ));
        }
        let e_rel = (lo - e_dst_lo, hi - e_dst_lo);
        let copied = e.copied.borrow();
        for (already, (es, ee)) in copied
            .overlaps(e_rel.0, e_rel.1)
            .map(|r| (true, r))
            .chain(copied.gaps(e_rel.0, e_rel.1).map(|r| (false, r)))
        {
            let task_off = p.off + (e_dst_lo + es - p_lo);
            if already {
                work.push((
                    SrcPiece {
                        off: task_off,
                        len: ee - es,
                        space: Rc::clone(&p.space),
                        va: VirtAddr((e_dst_lo + es) as u64),
                        depth: p.depth,
                    },
                    eb,
                ));
            } else {
                work.push((
                    SrcPiece {
                        off: task_off,
                        len: ee - es,
                        space: Rc::clone(&et.src_space),
                        va: et.src.add(es),
                        depth: p.depth + 1,
                    },
                    eb,
                ));
                absorbed += ee - es;
                defers.push((Rc::clone(&e), es, ee));
            }
        }
        if hi < p_hi {
            work.push((
                SrcPiece {
                    off: p.off + (hi - p_lo),
                    len: p_hi - hi,
                    space: Rc::clone(&p.space),
                    va: VirtAddr(hi as u64),
                    depth: p.depth,
                },
                eb,
            ));
        }
    }
    pieces.sort_by_key(|p| p.off);

    (
        AbsorbPlan {
            pieces,
            defers,
            blocked,
            blockers,
            absorbed_bytes: absorbed,
        },
        hits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PendEntry;
    use crate::descriptor::SegDescriptor;
    use crate::task::CopyTask;
    use copier_mem::{AllocPolicy, PhysMem};
    use copier_sim::Nanos;

    fn space(id: u32) -> Rc<AddressSpace> {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        AddressSpace::new(id, pm)
    }

    fn entry(
        tid: u64,
        src_space: &Rc<AddressSpace>,
        src: u64,
        dst_space: &Rc<AddressSpace>,
        dst: u64,
        len: usize,
    ) -> Rc<PendEntry> {
        Rc::new(PendEntry::new(
            tid,
            (0, 1, tid),
            CopyTask {
                dst_space: Rc::clone(dst_space),
                dst: VirtAddr(dst),
                src_space: Rc::clone(src_space),
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

    #[test]
    fn independent_tasks_pass_through() {
        let k = space(1);
        let u = space(2);
        let a = entry(1, &k, 0x1000, &u, 0x8000, 4096);
        let b = entry(2, &k, 0x9000, &u, 0x20000, 4096);
        let plan = analyze(&b, &[a], true);
        assert!(!plan.blocked);
        assert_eq!(plan.pieces.len(), 1);
        assert_eq!(plan.pieces[0].depth, 0);
        assert_eq!(plan.absorbed_bytes, 0);
    }

    #[test]
    fn chain_short_circuits_untouched_bytes() {
        // A: W(0x1000, kspace) → X(0x8000, uspace); B: X → Y(0x20000, uspace).
        let k = space(1);
        let u = space(2);
        let a = entry(1, &k, 0x1000, &u, 0x8000, 4096);
        let b = entry(2, &u, 0x8000, &u, 0x20000, 4096);
        let plan = analyze(&b, &[Rc::clone(&a)], true);
        assert!(!plan.blocked);
        assert_eq!(plan.pieces.len(), 1);
        let p = &plan.pieces[0];
        assert_eq!(p.space.id(), 1, "short-circuit reads from W (kspace)");
        assert_eq!(p.va, VirtAddr(0x1000));
        assert_eq!(p.depth, 1);
        assert_eq!(plan.absorbed_bytes, 4096);
        assert_eq!(plan.defers.len(), 1);
        assert_eq!((plan.defers[0].1, plan.defers[0].2), (0, 4096));
    }

    #[test]
    fn fig8_modified_prefix_reads_layered_sources() {
        // A copied (and client modified) its first 1000 bytes; the rest is
        // untouched. B must read [0,1000) from X and [1000,4096) from W.
        let k = space(1);
        let u = space(2);
        let a = entry(1, &k, 0x1000, &u, 0x8000, 4096);
        a.copied.borrow_mut().insert(0, 1000);
        let b = entry(2, &u, 0x8000, &u, 0x20000, 4096);
        let plan = analyze(&b, &[Rc::clone(&a)], true);
        assert_eq!(plan.pieces.len(), 2);
        assert_eq!(plan.pieces[0].space.id(), 2);
        assert_eq!(plan.pieces[0].va, VirtAddr(0x8000));
        assert_eq!(plan.pieces[0].len, 1000);
        assert_eq!(plan.pieces[1].space.id(), 1);
        assert_eq!(plan.pieces[1].va, VirtAddr(0x1000 + 1000));
        assert_eq!(plan.pieces[1].len, 4096 - 1000);
        assert_eq!(plan.absorbed_bytes, 4096 - 1000);
    }

    #[test]
    fn partial_overlap_splits_head_and_tail() {
        // B reads [0x8000,0x9000); A only wrote [0x8800,0x8c00).
        let k = space(1);
        let u = space(2);
        let a = entry(1, &k, 0x1000, &u, 0x8800, 0x400);
        let b = entry(2, &u, 0x8000, &u, 0x20000, 0x1000);
        let plan = analyze(&b, &[a], true);
        let lens: Vec<usize> = plan.pieces.iter().map(|p| p.len).collect();
        assert_eq!(lens, vec![0x800, 0x400, 0x400]);
        assert_eq!(plan.pieces[1].space.id(), 1);
        assert_eq!(plan.pieces[0].depth, 0);
        assert_eq!(plan.pieces[2].depth, 0);
    }

    #[test]
    fn transitive_chain_layers_twice() {
        // C ← B ← A: A: V→W, B: W→X, C: X→Y, nothing copied yet.
        let s = space(2);
        let a = entry(1, &s, 0x1000, &s, 0x8000, 2048);
        let b = entry(2, &s, 0x8000, &s, 0x10000, 2048);
        let c = entry(3, &s, 0x10000, &s, 0x20000, 2048);
        let plan = analyze(&c, &[Rc::clone(&a), Rc::clone(&b)], true);
        assert_eq!(plan.pieces.len(), 1);
        assert_eq!(plan.pieces[0].va, VirtAddr(0x1000), "reads V directly");
        assert_eq!(plan.pieces[0].depth, 2);
        // Both intermediate tasks get deferred.
        assert_eq!(plan.defers.len(), 2);
    }

    #[test]
    fn waw_hazard_blocks() {
        let s = space(2);
        let a = entry(1, &s, 0x1000, &s, 0x20000, 2048);
        let b = entry(2, &s, 0x9000, &s, 0x20400, 2048); // dst overlaps A's dst
        let plan = analyze(&b, &[a], true);
        assert!(plan.blocked);
    }

    #[test]
    fn war_hazard_blocks() {
        let s = space(2);
        // A reads [0x9000,0x9800); B writes into that range.
        let a = entry(1, &s, 0x9000, &s, 0x20000, 2048);
        let b = entry(2, &s, 0x1000, &s, 0x9400, 2048);
        let plan = analyze(&b, &[a], true);
        assert!(plan.blocked);
    }

    #[test]
    fn disabled_analysis_never_redirects_and_orders_readers_behind_producers() {
        let k = space(1);
        let u = space(2);
        let a = entry(1, &k, 0x1000, &u, 0x8000, 4096);
        let b = entry(2, &u, 0x8000, &u, 0x20000, 4096);
        let plan = analyze(&b, &[Rc::clone(&a)], false);
        assert!(plan.blocked, "RAW: A has not produced B's source yet");
        assert!(Rc::ptr_eq(&plan.blockers[0], &a));
        assert_eq!(plan.absorbed_bytes, 0);
        assert_eq!(plan.pieces.len(), 1);
        assert_eq!(plan.pieces[0].depth, 0);
        a.copied.borrow_mut().insert(0, 4096);
        assert!(!analyze(&b, &[a], false).blocked, "a finished producer");
    }

    #[test]
    fn finished_earlier_tasks_are_transparent() {
        let k = space(1);
        let u = space(2);
        let a = entry(1, &k, 0x1000, &u, 0x8000, 4096);
        a.copied.borrow_mut().insert(0, 4096); // fully done
        let b = entry(2, &u, 0x8000, &u, 0x20000, 4096);
        let plan = analyze(&b, &[a], true);
        assert_eq!(plan.absorbed_bytes, 0);
        assert_eq!(plan.pieces[0].space.id(), 2, "reads X as usual");
    }
}
