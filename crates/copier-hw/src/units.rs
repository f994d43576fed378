//! Copy units and subtask splitting.
//!
//! A *subtask* (§4.3) is the largest piece of a copy whose source and
//! destination are both physically contiguous — the unit a single DMA
//! descriptor (or one CPU copy call) can handle. [`split_subtasks_into`] derives
//! them from the two extent lists, cut at the device's per-descriptor
//! limit; `copy_extent_pair` performs the real
//! data movement for one subtask (the dispatcher charges its cost), now or
//! on the host copy engine.

use copier_mem::{Extent, FrameId, PhysMem, PAGE_SIZE};

/// One hardware-executable piece of a copy task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubTask {
    /// Byte offset of this piece within the owning copy task.
    pub task_off: usize,
    /// Physically contiguous source.
    pub src: Extent,
    /// Physically contiguous destination (same length as `src`).
    pub dst: Extent,
    /// Planned onto the DMA engine rather than the CPU unit. The splitter
    /// makes every subtask unmarked; the dispatcher's plan marks them.
    pub dma: bool,
}

impl SubTask {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.src.len
    }

    /// True if the subtask is empty (never produced by the splitter).
    pub fn is_empty(&self) -> bool {
        self.src.len == 0
    }

    /// The piece `[off, off + len)` of this subtask, on the same unit:
    /// both extents are contiguous, so it may be cut at any byte.
    pub(crate) fn slice(&self, off: usize, len: usize) -> SubTask {
        debug_assert!(off + len <= self.len());
        SubTask {
            task_off: self.task_off + off,
            src: sub_extent(&self.src, off, len),
            dst: sub_extent(&self.dst, off, len),
            dma: self.dma,
        }
    }
}

/// Splits a copy into subtasks at every source or destination
/// discontinuity, and every `max` bytes within a contiguous run (the
/// device's per-descriptor limit, [`crate::CostModel::max_subtask`];
/// never less than a page), and appends them to `out`, their offsets
/// counted from `base` (where the piece starts within its task).
///
/// Both extent lists must cover the same total length.
pub fn split_subtasks_into(
    dst: &[Extent],
    src: &[Extent],
    base: usize,
    max: usize,
    out: &mut Vec<SubTask>,
) {
    let max = max.max(PAGE_SIZE);
    let total: usize = src.iter().map(|e| e.len).sum();
    debug_assert_eq!(total, dst.iter().map(|e| e.len).sum::<usize>());
    let (mut si, mut di) = (0usize, 0usize);
    let (mut s_used, mut d_used) = (0usize, 0usize);
    let mut task_off = 0usize;
    while task_off < total {
        let s = &src[si];
        let d = &dst[di];
        let take = (s.len - s_used).min(d.len - d_used).min(max);
        out.push(SubTask {
            task_off: base + task_off,
            src: sub_extent(s, s_used, take),
            dst: sub_extent(d, d_used, take),
            dma: false,
        });
        task_off += take;
        s_used += take;
        d_used += take;
        if s_used == s.len {
            si += 1;
            s_used = 0;
        }
        if d_used == d.len {
            di += 1;
            d_used = 0;
        }
    }
}

/// A sub-range of an extent, normalized so `off < PAGE_SIZE`.
fn sub_extent(e: &Extent, skip: usize, len: usize) -> Extent {
    let abs = e.off + skip;
    Extent {
        frame: FrameId(e.frame.0 + (abs / PAGE_SIZE) as u32),
        off: abs % PAGE_SIZE,
        len,
    }
}

/// Slices `[off, off+len)` out of an extent list (byte-granular) into
/// `out`, replacing what it held.
///
/// Used to carve a task's partial ranges (absorption layers, deferred
/// gaps) out of its full translation.
pub fn slice_extents_into(extents: &[Extent], off: usize, len: usize, out: &mut Vec<Extent>) {
    out.clear();
    let mut pos = 0usize;
    let end = off + len;
    for e in extents {
        let e_start = pos;
        let e_end = pos + e.len;
        let lo = off.max(e_start);
        let hi = end.min(e_end);
        if lo < hi {
            out.push(sub_extent(e, lo - e_start, hi - lo));
        }
        pos = e_end;
        if pos >= end {
            break;
        }
    }
    debug_assert_eq!(out.iter().map(|e| e.len).sum::<usize>(), len);
}

/// Physically copies one contiguous extent pair. This is the real data
/// movement of the simulation: both sides are physically contiguous runs,
/// so the whole pair is one `memcpy` (or `memmove` when they overlap)
/// through the frame arena — no per-page tiling on the host. A `deferred`
/// pair is queued for the host copy engine's worker
/// ([`PhysMem::defer_copy_run`]); either way every later read of the pool
/// sees the copied bytes.
pub(crate) fn copy_extent_pair(pm: &PhysMem, dst: Extent, src: Extent, deferred: bool) {
    debug_assert_eq!(dst.len, src.len);
    if deferred {
        pm.defer_copy_run(dst.frame, dst.off, src.frame, src.off, src.len);
    } else {
        pm.copy_run(dst.frame, dst.off, src.frame, src.off, src.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_mem::AllocPolicy;

    fn pm() -> PhysMem {
        PhysMem::new(64, AllocPolicy::Sequential)
    }

    fn split_subtasks(dst: &[Extent], src: &[Extent]) -> Vec<SubTask> {
        let mut out = Vec::new();
        split_subtasks_into(dst, src, 0, usize::MAX, &mut out);
        out
    }

    fn alloc_extent(pm: &PhysMem, pages: usize) -> Extent {
        let f = pm.alloc_contiguous(pages).unwrap();
        Extent {
            frame: f,
            off: 0,
            len: pages * PAGE_SIZE,
        }
    }

    #[test]
    fn split_aligned_single_extents() {
        let a = Extent {
            frame: FrameId(0),
            off: 0,
            len: 8192,
        };
        let b = Extent {
            frame: FrameId(4),
            off: 0,
            len: 8192,
        };
        let st = split_subtasks(&[b], &[a]);
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].len(), 8192);
        assert_eq!(st[0].task_off, 0);
    }

    #[test]
    fn split_at_both_boundaries() {
        // src: [3000, 5192]; dst: [4096, 4096] → cuts at 3000 and 4096.
        let src = [
            Extent {
                frame: FrameId(0),
                off: 0,
                len: 3000,
            },
            Extent {
                frame: FrameId(10),
                off: 0,
                len: 5192,
            },
        ];
        let dst = [
            Extent {
                frame: FrameId(20),
                off: 0,
                len: 4096,
            },
            Extent {
                frame: FrameId(30),
                off: 0,
                len: 4096,
            },
        ];
        let st = split_subtasks(&dst, &src);
        let lens: Vec<usize> = st.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![3000, 1096, 4096]);
        let offs: Vec<usize> = st.iter().map(|s| s.task_off).collect();
        assert_eq!(offs, vec![0, 3000, 4096]);
        // Second subtask's src starts 1096 bytes into frame 10's run? No:
        // it starts at frame 10 offset 0 + 0... verify normalization.
        assert_eq!(st[1].src.frame, FrameId(10));
        assert_eq!(st[1].src.off, 0);
        assert_eq!(st[2].src.frame, FrameId(10));
        assert_eq!(st[2].src.off, 1096);
    }

    /// A contiguous run is cut every `max` bytes from its start, and a
    /// discontinuity restarts the count; a cut piece keeps its unit.
    /// Mutants: a splitter that ignores `max`, a `slice` that drops the
    /// mark.
    #[test]
    fn a_long_run_is_cut_at_max() {
        let ext = |frame, len| Extent {
            frame: FrameId(frame),
            off: 0,
            len,
        };
        let mut st = Vec::new();
        let (src, dst) = ([ext(0, 10_000), ext(9, 5000)], [ext(20, 15_000)]);
        split_subtasks_into(&dst, &src, 100, 4096, &mut st);
        let lens: Vec<usize> = st.iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![4096, 4096, 1808, 4096, 904]);
        let offs: Vec<usize> = st.iter().map(|s| s.task_off).collect();
        assert_eq!(offs, vec![100, 4196, 8292, 10_100, 14_196]);
        assert!(st.iter().all(|s| !s.dma), "made unmarked");
        let marked = SubTask { dma: true, ..st[0] };
        assert!(marked.slice(10, 20).dma, "a slice keeps its unit");
        // A limit below a page is a page.
        st.clear();
        split_subtasks_into(&[ext(30, 9000)], &[ext(40, 9000)], 0, 1, &mut st);
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn sub_extent_normalizes_page_crossing() {
        let e = Extent {
            frame: FrameId(2),
            off: 3000,
            len: 10000,
        };
        let s = sub_extent(&e, 2000, 1000);
        // 3000 + 2000 = 5000 → frame 3, off 904.
        assert_eq!(s.frame, FrameId(3));
        assert_eq!(s.off, 5000 - PAGE_SIZE);
        assert_eq!(s.len, 1000);
    }

    #[test]
    fn copy_extent_pair_moves_bytes_across_pages() {
        let pm = pm();
        let a = alloc_extent(&pm, 3);
        let b = alloc_extent(&pm, 3);
        // Fill source with a pattern through the frames.
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();
        for p in 0..3 {
            pm.write(
                FrameId(a.frame.0 + p as u32),
                0,
                &data[p * PAGE_SIZE..(p + 1) * PAGE_SIZE],
            );
        }
        let src = Extent {
            frame: a.frame,
            off: 100,
            len: 2 * PAGE_SIZE,
        };
        let dst = Extent {
            frame: b.frame,
            off: 50,
            len: 2 * PAGE_SIZE,
        };
        copy_extent_pair(&pm, dst, src, false);
        let mut got = vec![0u8; 2 * PAGE_SIZE];
        for p in 0..3 {
            let mut page = vec![0u8; PAGE_SIZE];
            pm.read(FrameId(b.frame.0 + p as u32), 0, &mut page);
            let lo = p * PAGE_SIZE;
            for (i, &v) in page.iter().enumerate() {
                let abs = lo + i;
                if (50..50 + 2 * PAGE_SIZE).contains(&abs) {
                    got[abs - 50] = v;
                }
            }
        }
        assert_eq!(&got[..], &data[100..100 + 2 * PAGE_SIZE]);
    }
}
#[cfg(test)]
mod slice_tests {
    use super::*;
    use copier_mem::FrameId;

    fn slice_extents(extents: &[Extent], off: usize, len: usize) -> Vec<Extent> {
        let mut out = Vec::new();
        slice_extents_into(extents, off, len, &mut out);
        out
    }

    #[test]
    fn slice_extents_carves_ranges() {
        let ex = [
            Extent {
                frame: FrameId(0),
                off: 100,
                len: 3000,
            },
            Extent {
                frame: FrameId(9),
                off: 0,
                len: 5000,
            },
        ];
        let s = slice_extents(&ex, 2000, 2000);
        assert_eq!(s.len(), 2);
        assert_eq!(
            s[0],
            Extent {
                frame: FrameId(0),
                off: 2100,
                len: 1000
            }
        );
        assert_eq!(
            s[1],
            Extent {
                frame: FrameId(9),
                off: 0,
                len: 1000
            }
        );
        let whole = slice_extents(&ex, 0, 8000);
        assert_eq!(whole.to_vec(), ex.to_vec());
        // Slice crossing a page boundary inside an extent normalizes.
        let s2 = slice_extents(&ex, 3000 + 4096, 10);
        assert_eq!(s2[0].frame, FrameId(10));
    }
}
