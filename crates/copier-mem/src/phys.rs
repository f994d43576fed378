//! Simulated physical memory: a pool of 4 KiB frames with real backing data.
//!
//! Frames are identified by [`FrameId`]; two frames are *physically
//! contiguous* iff their ids are consecutive — the property the DMA engine
//! requires of its transfers (§4.3 of the paper). The allocator can hand out
//! deliberately scattered frames so that the dispatcher's subtask splitting
//! is exercised on realistic fragmented layouts.
//!
//! All frame data is real memory: copies through this module genuinely move
//! bytes, so correctness (not just timing) is testable end to end.
//!
//! ## Arena backing
//!
//! The pool's bytes live in one flat *arena* (`frames × 4 KiB`, allocated
//! zeroed once — the host OS commits its pages lazily on first touch), with
//! per-frame bookkeeping in a flat metadata table. Frame `f` occupies arena
//! bytes `[f·4096, (f+1)·4096)`, so a run of physically contiguous frames is
//! a single contiguous arena slice and the batched primitives
//! ([`PhysMem::copy_run`], [`PhysMem::read_run`], [`PhysMem::write_run`])
//! move a whole multi-page run with one borrow and one `memcpy`/`memmove`
//! instead of a cell borrow plus bounds dance per 4 KiB page. The per-page
//! path is kept as [`PhysMem::copy_run_paged`] — the baseline the
//! `fig_hostperf` bench compares against.
//!
//! Only host wall-clock changes: virtual-time costs are charged by callers
//! from byte counts, which the arena leaves untouched.

use std::cell::{Cell, RefCell};

/// Size of one page/frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Index of a physical frame. Consecutive ids are physically contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u32);

/// How the allocator picks frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Pop the lowest free frame — long allocations come out contiguous.
    Sequential,
    /// Hand out frames in a pre-shuffled order — allocations are fragmented,
    /// matching a long-running system (Fig. 7-b "all pages non-contiguous").
    Scattered,
}

/// Flat per-frame metadata; the data itself lives in the shared arena.
struct FrameMeta {
    /// CoW sharing count. 0 = free.
    refcnt: Cell<u16>,
    /// Pin count — a pinned frame's mapping must not be torn down (§4.5.4).
    pins: Cell<u16>,
    /// Whether the frame was ever allocated: its arena bytes may be dirty
    /// and must be re-zeroed on the next allocation (fresh frames read 0).
    touched: Cell<bool>,
    /// Scratch for [`PhysMem::compact_free`]; false outside it.
    kept: Cell<bool>,
}

/// Errors from the physical allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysError {
    /// The pool has too few free frames for the request.
    OutOfMemory,
    /// Enough frames are free, but no run of them is contiguous — a
    /// distinct cause (compaction would help, more memory would not).
    Fragmented,
}

/// A fixed-capacity pool of frames.
pub struct PhysMem {
    /// One allocation backing every frame's bytes.
    arena: RefCell<Box<[u8]>>,
    meta: Vec<FrameMeta>,
    /// The hand-out order of [`Self::alloc`], popped from the back. A free
    /// frame's entry is the last one naming it; `alloc_contiguous` takes
    /// frames without looking theirs up, so entries naming an allocated
    /// frame, or buried under a later one for the same frame, are stale
    /// and `alloc` pops past them.
    free: RefCell<Vec<FrameId>>,
    /// Stale entries in `free`, to know when to compact it.
    stale: Cell<usize>,
    /// No frame below this index is free: where `alloc_contiguous` starts.
    lowest_free: Cell<usize>,
    policy: Cell<AllocPolicy>,
    allocated: Cell<usize>,
    /// Allocated-frame high watermark: at or above, the pool reports
    /// memory pressure (graceful-degradation signal).
    wmark_high: Cell<usize>,
    /// Low watermark: pressure clears only once allocation falls back to
    /// or below this (hysteresis, so the signal does not flap).
    wmark_low: Cell<usize>,
    /// Latched pressure state.
    pressured: Cell<bool>,
    /// Transitions into the pressured state.
    pressure_events: Cell<u64>,
    /// Whether [`Self::digest`] has been called: from then on every arena
    /// write and every allocation or free queues the frames it touches.
    /// The one `Cell` read is all an undigested pool pays per write.
    digest_on: Cell<bool>,
    digest: RefCell<DigestState>,
}

/// Bookkeeping of the incremental [`PhysMem::digest`]. Empty (nothing
/// allocated) until the first call sizes it to the pool: 9 bytes per
/// frame that an undigested pool never commits.
#[derive(Default)]
struct DigestState {
    /// The wrapping sum of `term`.
    sum: u64,
    /// Per frame, the term currently inside `sum` (0 for a free frame).
    term: Vec<u64>,
    /// Frames written, allocated or freed since `sum` was last brought up
    /// to date, each at most once (`queued` dedups).
    dirty: Vec<u32>,
    queued: Vec<bool>,
    /// Frames re-hashed by all `digest` calls so far.
    hashed: u64,
}

/// One allocated frame's term of [`PhysMem::digest`]: word-at-a-time
/// FNV-1a over its bytes (one multiply per 8 bytes) in four interleaved
/// lanes, so the multiplies of one 32-byte step do not wait on each
/// other; `PAGE_SIZE` is a multiple of 32, so nothing is dropped. The
/// lanes and the frame id are then folded together and put through the
/// splitmix64 finalizer. Terms are summed, so each must be well mixed on
/// its own, and the id keeps identical bytes in different frames from
/// cancelling under a swap.
fn frame_term(id: usize, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    for step in bytes.chunks_exact(32) {
        for (lane, w) in lanes.iter_mut().zip(step.chunks_exact(8)) {
            let x = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
            *lane = (*lane ^ x).wrapping_mul(PRIME);
        }
    }
    let h = lanes
        .into_iter()
        .fold(OFFSET, |h, lane| (h ^ lane).wrapping_mul(PRIME));
    let mut z = h ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl PhysMem {
    /// Creates a pool of `frames` frames under the given policy.
    ///
    /// `Scattered` pre-shuffles the free list with a fixed multiplicative
    /// permutation so runs are reproducible.
    pub fn new(frames: usize, policy: AllocPolicy) -> Self {
        assert!(frames > 0 && frames < u32::MAX as usize);
        let meta = (0..frames)
            .map(|_| FrameMeta {
                refcnt: Cell::new(0),
                pins: Cell::new(0),
                touched: Cell::new(false),
                kept: Cell::new(false),
            })
            .collect();
        let mut free: Vec<FrameId> = (0..frames as u32).map(FrameId).collect();
        if policy == AllocPolicy::Scattered {
            // Deterministic pseudo-shuffle: iterate with a stride coprime to
            // the frame count, which breaks up almost all contiguity.
            let n = frames as u64;
            let mut stride = (n / 2 + 1) | 1;
            while gcd(stride, n) != 1 {
                stride += 2;
            }
            free = (0..n).map(|i| FrameId(((i * stride) % n) as u32)).collect();
        }
        // Pop from the back; reverse so low ids come out first under Sequential.
        free.reverse();
        PhysMem {
            arena: RefCell::new(vec![0u8; frames * PAGE_SIZE].into_boxed_slice()),
            meta,
            free: RefCell::new(free),
            stale: Cell::new(0),
            lowest_free: Cell::new(0),
            policy: Cell::new(policy),
            allocated: Cell::new(0),
            // Default watermarks: pressure at 7/8 of the pool, recovery at
            // 3/4 — headroom for pinned in-flight copies without flapping.
            wmark_high: Cell::new(frames - frames / 8),
            wmark_low: Cell::new((frames - frames / 4).min(frames.saturating_sub(1))),
            pressured: Cell::new(false),
            pressure_events: Cell::new(0),
            digest_on: Cell::new(false),
            digest: RefCell::new(DigestState::default()),
        }
    }

    /// Total frames in the pool.
    pub fn capacity(&self) -> usize {
        self.meta.len()
    }

    /// Frames currently allocated.
    pub fn allocated(&self) -> usize {
        self.allocated.get()
    }

    /// Current allocation policy.
    pub fn policy(&self) -> AllocPolicy {
        self.policy.get()
    }

    /// Allocates one frame with refcount 1. Its contents are zeroed.
    pub fn alloc(&self) -> Result<FrameId, PhysError> {
        let f = {
            let mut free = self.free.borrow_mut();
            loop {
                let f = free.pop().ok_or(PhysError::OutOfMemory)?;
                if self.meta[f.0 as usize].refcnt.get() == 0 {
                    break f;
                }
                self.stale.set(self.stale.get() - 1);
            }
        };
        let slot = &self.meta[f.0 as usize];
        slot.refcnt.set(1);
        // Fresh frames must read as zero; the arena starts zeroed, so only
        // previously used frames pay for re-zeroing.
        if slot.touched.replace(true) {
            let base = f.0 as usize * PAGE_SIZE;
            self.arena.borrow_mut()[base..base + PAGE_SIZE].fill(0);
        }
        self.allocated.set(self.allocated.get() + 1);
        self.mark_dirty(f.0 as usize, 1);
        Ok(f)
    }

    /// Allocates `n` physically contiguous frames (refcount 1 each).
    ///
    /// Used for kernel buffers (sk_buffs) and huge-page-like regions. This
    /// takes the lowest run of `n` free ids, so it succeeds even under
    /// `Scattered`. The scan starts at the lowest frame that can be free
    /// and the free list is not searched: the run's entries are left in it
    /// as stale (see `free`).
    pub fn alloc_contiguous(&self, n: usize) -> Result<FrameId, PhysError> {
        assert!(n > 0);
        if n == 1 {
            return self.alloc();
        }
        let unallocated = self.meta.len() - self.allocated.get();
        if unallocated < n {
            return Err(PhysError::OutOfMemory);
        }
        let is_free = |i: &usize| self.meta[*i].refcnt.get() == 0;
        let first = (self.lowest_free.get()..self.meta.len())
            .find(is_free)
            .expect("frames are unallocated and none of them is below the bound");
        self.lowest_free.set(first);
        let mut run = 0usize;
        let found = (first..self.meta.len()).find_map(|i| {
            run = if is_free(&i) { run + 1 } else { 0 };
            (run == n).then(|| i + 1 - n)
        });
        let start = found.ok_or(PhysError::Fragmented)?;
        let mut arena = self.arena.borrow_mut();
        for i in start..start + n {
            let slot = &self.meta[i];
            slot.refcnt.set(1);
            if slot.touched.replace(true) {
                arena[i * PAGE_SIZE..(i + 1) * PAGE_SIZE].fill(0);
            }
        }
        drop(arena);
        self.allocated.set(self.allocated.get() + n);
        self.stale.set(self.stale.get() + n);
        if self.stale.get() > unallocated - n {
            self.compact_free();
        }
        self.mark_dirty(start, n);
        Ok(FrameId(start as u32))
    }

    /// Drops every stale entry from the free list, keeping the others in
    /// order. Called when they outnumber the live ones, so the list never
    /// holds more than two entries per frame of the pool.
    fn compact_free(&self) {
        let mut free = self.free.borrow_mut();
        // From the back, the first entry met for a free frame is its live
        // one; live entries slide to the back in place.
        let mut w = free.len();
        for r in (0..free.len()).rev() {
            let f = free[r];
            let slot = &self.meta[f.0 as usize];
            if slot.refcnt.get() == 0 && !slot.kept.replace(true) {
                w -= 1;
                free[w] = f;
            }
        }
        free.drain(..w);
        for f in free.iter() {
            self.meta[f.0 as usize].kept.set(false);
        }
        self.stale.set(0);
    }

    /// Increments a frame's share count (CoW fork).
    pub fn incref(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        assert!(slot.refcnt.get() > 0, "incref of free frame");
        slot.refcnt.set(slot.refcnt.get() + 1);
    }

    /// Decrements the share count, freeing the frame at zero.
    pub fn decref(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        let rc = slot.refcnt.get();
        assert!(rc > 0, "decref of free frame {f:?}");
        slot.refcnt.set(rc - 1);
        if rc == 1 {
            assert_eq!(slot.pins.get(), 0, "freeing a pinned frame {f:?}");
            self.free.borrow_mut().push(f);
            self.lowest_free
                .set(self.lowest_free.get().min(f.0 as usize));
            self.allocated.set(self.allocated.get() - 1);
            self.mark_dirty(f.0 as usize, 1);
        }
    }

    /// Current share count of a frame.
    pub fn refcount(&self, f: FrameId) -> u16 {
        self.meta[f.0 as usize].refcnt.get()
    }

    /// Pins a frame (its mapping is locked for an in-flight copy).
    pub fn pin(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        assert!(slot.refcnt.get() > 0, "pin of free frame");
        slot.pins.set(slot.pins.get() + 1);
    }

    /// Releases one pin.
    pub fn unpin(&self, f: FrameId) {
        let slot = &self.meta[f.0 as usize];
        let p = slot.pins.get();
        assert!(p > 0, "unpin without pin");
        slot.pins.set(p - 1);
    }

    /// Whether the frame is currently pinned.
    pub fn is_pinned(&self, f: FrameId) -> bool {
        self.meta[f.0 as usize].pins.get() > 0
    }

    /// Number of frames with a nonzero pin count (leak detection: after
    /// every in-flight copy settles this must return to zero).
    pub fn pinned_frames(&self) -> usize {
        self.meta.iter().filter(|s| s.pins.get() > 0).count()
    }

    /// Sets the pressure watermarks (allocated-frame counts). Pressure is
    /// raised at `high` and clears only at or below `low` (`low < high`).
    pub fn set_watermarks(&self, low: usize, high: usize) {
        assert!(low < high, "low watermark must sit below high");
        self.wmark_low.set(low);
        self.wmark_high.set(high.min(self.meta.len()));
        // Re-evaluate immediately so a tightened watermark takes effect
        // without waiting for the next allocation.
        self.pressure();
    }

    /// Current watermarks as `(low, high)` allocated-frame counts.
    pub fn watermarks(&self) -> (usize, usize) {
        (self.wmark_low.get(), self.wmark_high.get())
    }

    /// Whether the pool is under memory pressure, with hysteresis: raised
    /// when allocation reaches the high watermark, cleared only once it
    /// falls back to the low watermark. Consumers (the Copier service)
    /// poll this to switch into graceful degradation (§4.6 fallback).
    pub fn pressure(&self) -> bool {
        let a = self.allocated.get();
        if self.pressured.get() {
            if a <= self.wmark_low.get() {
                self.pressured.set(false);
            }
        } else if a >= self.wmark_high.get() {
            self.pressured.set(true);
            self.pressure_events.set(self.pressure_events.get() + 1);
        }
        self.pressured.get()
    }

    /// Times the pool transitioned into the pressured state.
    pub fn pressure_events(&self) -> u64 {
        self.pressure_events.get()
    }

    /// Asserts every frame spanned by `[f·4096 + off, … + len)` is
    /// allocated and the run stays inside the pool.
    fn check_run(&self, f: FrameId, off: usize, len: usize) {
        let first = f.0 as usize + off / PAGE_SIZE;
        let last = f.0 as usize + (off + len - 1) / PAGE_SIZE;
        assert!(last < self.meta.len(), "run past end of pool");
        for i in first..=last {
            assert!(self.meta[i].refcnt.get() > 0, "access to free frame {i}");
        }
    }

    /// Reads from a frame into `buf`.
    ///
    /// # Panics
    /// If the range exceeds the page or the frame is free.
    pub fn read(&self, f: FrameId, off: usize, buf: &mut [u8]) {
        assert!(off + buf.len() <= PAGE_SIZE);
        self.read_run(f, off, buf);
    }

    /// Writes `buf` into a frame.
    pub fn write(&self, f: FrameId, off: usize, buf: &[u8]) {
        assert!(off + buf.len() <= PAGE_SIZE);
        self.write_run(f, off, buf);
    }

    /// Reads a physically contiguous run (may span many frames) into
    /// `buf` with a single arena borrow and one `memcpy`.
    pub fn read_run(&self, f: FrameId, off: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        self.check_run(f, off, buf.len());
        let base = f.0 as usize * PAGE_SIZE + off;
        buf.copy_from_slice(&self.arena.borrow()[base..base + buf.len()]);
    }

    /// Writes `buf` over a physically contiguous run (may span many
    /// frames) with a single arena borrow and one `memcpy`.
    pub fn write_run(&self, f: FrameId, off: usize, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        self.check_run(f, off, buf.len());
        let base = f.0 as usize * PAGE_SIZE + off;
        self.arena.borrow_mut()[base..base + buf.len()].copy_from_slice(buf);
        self.mark_bytes_dirty(base, buf.len());
    }

    /// Copies bytes between frames — the real data movement behind every
    /// simulated copy.
    ///
    /// Handles the same-frame case (used by intra-page `memmove`) with
    /// `memmove` semantics.
    pub fn copy(&self, dst: FrameId, dst_off: usize, src: FrameId, src_off: usize, len: usize) {
        assert!(dst_off + len <= PAGE_SIZE && src_off + len <= PAGE_SIZE);
        self.copy_run(dst, dst_off, src, src_off, len);
    }

    /// Copies a physically contiguous run of bytes — possibly spanning
    /// many frames — with a single arena borrow and one
    /// `memcpy`/`memmove`. Overlapping source and destination runs get
    /// `memmove` semantics (the destination reads as the source did
    /// before the call), so `amemmove`-style tasks are safe.
    ///
    /// This is the fast-path engine primitive: the caller hands it a
    /// whole contiguous extent pair and the arena moves it in one shot
    /// instead of nibbling per 4 KiB page.
    pub fn copy_run(&self, dst: FrameId, dst_off: usize, src: FrameId, src_off: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.check_run(src, src_off, len);
        self.check_run(dst, dst_off, len);
        let s0 = src.0 as usize * PAGE_SIZE + src_off;
        let d0 = dst.0 as usize * PAGE_SIZE + dst_off;
        if s0 == d0 {
            return;
        }
        let mut arena = self.arena.borrow_mut();
        if s0 + len <= d0 {
            // Disjoint, source below destination: one memcpy.
            let (head, tail) = arena.split_at_mut(d0);
            tail[..len].copy_from_slice(&head[s0..s0 + len]);
        } else if d0 + len <= s0 {
            // Disjoint, destination below source: one memcpy.
            let (head, tail) = arena.split_at_mut(s0);
            head[d0..d0 + len].copy_from_slice(&tail[..len]);
        } else {
            // Overlapping runs: memmove.
            arena.copy_within(s0..s0 + len, d0);
        }
        self.mark_bytes_dirty(d0, len);
    }

    /// Per-page baseline of [`Self::copy_run`]: identical semantics, but
    /// borrows and copies one page-bounded chunk at a time like the
    /// pre-arena cell-per-frame backing did. Kept callable so
    /// `fig_hostperf` can measure the fast path against it; production
    /// paths never use it.
    pub fn copy_run_paged(
        &self,
        dst: FrameId,
        dst_off: usize,
        src: FrameId,
        src_off: usize,
        len: usize,
    ) {
        if len == 0 {
            return;
        }
        let s0 = src.0 as usize * PAGE_SIZE + src_off;
        let d0 = dst.0 as usize * PAGE_SIZE + dst_off;
        // Chunk at every source or destination page boundary; walk the
        // chunks backwards when the regions overlap with dst above src so
        // not-yet-copied source bytes are never clobbered (memmove tiling).
        let chunk = |d_abs: usize, s_abs: usize, take: usize| {
            self.copy_run(
                FrameId(dst.0 + (d_abs / PAGE_SIZE) as u32),
                d_abs % PAGE_SIZE,
                FrameId(src.0 + (s_abs / PAGE_SIZE) as u32),
                s_abs % PAGE_SIZE,
                take,
            );
        };
        if d0 <= s0 {
            let mut done = 0usize;
            while done < len {
                let (s_abs, d_abs) = (src_off + done, dst_off + done);
                let take = (len - done)
                    .min(PAGE_SIZE - s_abs % PAGE_SIZE)
                    .min(PAGE_SIZE - d_abs % PAGE_SIZE);
                chunk(d_abs, s_abs, take);
                done += take;
            }
        } else {
            // The last forward chunk ends at `rem` and starts at the
            // nearest source or destination page boundary below it, so its
            // length is computable directly — no chunk list needed.
            let mut rem = len;
            while rem > 0 {
                let take = rem
                    .min((src_off + rem - 1) % PAGE_SIZE + 1)
                    .min((dst_off + rem - 1) % PAGE_SIZE + 1);
                rem -= take;
                chunk(dst_off + rem, src_off + rem, take);
            }
        }
    }

    /// Copies a whole frame (CoW break helper). Returns bytes copied.
    pub fn copy_frame(&self, dst: FrameId, src: FrameId) -> usize {
        self.copy(dst, 0, src, 0, PAGE_SIZE);
        PAGE_SIZE
    }

    /// Queues frames `[first, first + n)` for the next [`Self::digest`].
    fn mark_dirty(&self, first: usize, n: usize) {
        if !self.digest_on.get() {
            return;
        }
        let mut d = self.digest.borrow_mut();
        let d = &mut *d;
        for f in first..first + n {
            if !std::mem::replace(&mut d.queued[f], true) {
                d.dirty.push(f as u32);
            }
        }
    }

    /// [`Self::mark_dirty`] for the frames under arena bytes
    /// `[base, base + len)`, `len > 0`.
    fn mark_bytes_dirty(&self, base: usize, len: usize) {
        let first = base / PAGE_SIZE;
        self.mark_dirty(first, (base + len - 1) / PAGE_SIZE - first + 1);
    }

    /// Digest of the pool's state: the wrapping sum, over every
    /// *allocated* frame, of a well-mixed hash of the frame's id and
    /// bytes (`frame_term`). Free frames contribute nothing: their arena
    /// bytes are reinitialization detail, not system state. A sum is
    /// order-free, so equal contents digest equal whatever history
    /// produced them, and it can be kept up to date by difference: each
    /// call re-hashes only the frames written, allocated or freed since
    /// the previous one. The first call hashes every allocated frame and
    /// switches that tracking on; a pool that is never digested allocates
    /// none of it. Used by the record/replay layer's memory checkpoints
    /// (DESIGN.md §14).
    pub fn digest(&self) -> u64 {
        if !self.digest_on.replace(true) {
            {
                let mut d = self.digest.borrow_mut();
                d.term = vec![0; self.meta.len()];
                d.queued = vec![false; self.meta.len()];
            }
            for (i, m) in self.meta.iter().enumerate() {
                if m.refcnt.get() > 0 {
                    self.mark_dirty(i, 1);
                }
            }
        }
        let mut d = self.digest.borrow_mut();
        let d = &mut *d;
        let arena = self.arena.borrow();
        for f in d.dirty.drain(..) {
            let f = f as usize;
            d.queued[f] = false;
            let term = if self.meta[f].refcnt.get() > 0 {
                d.hashed += 1;
                frame_term(f, &arena[f * PAGE_SIZE..(f + 1) * PAGE_SIZE])
            } else {
                0
            };
            d.sum = d.sum.wrapping_sub(d.term[f]).wrapping_add(term);
            d.term[f] = term;
        }
        d.sum
    }

    /// Frames re-hashed by every [`Self::digest`] call so far: what the
    /// checkpoints of a traced run cost (`fig_trace` reports it per
    /// checkpoint).
    pub fn digest_frames_hashed(&self) -> u64 {
        self.digest.borrow().hashed
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_alloc_is_contiguous() {
        let pm = PhysMem::new(16, AllocPolicy::Sequential);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        let c = pm.alloc().unwrap();
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
    }

    #[test]
    fn scattered_alloc_is_fragmented() {
        let pm = PhysMem::new(64, AllocPolicy::Scattered);
        let ids: Vec<u32> = (0..8).map(|_| pm.alloc().unwrap().0).collect();
        let contiguous_pairs = ids.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(contiguous_pairs <= 1, "ids = {ids:?}");
    }

    #[test]
    fn alloc_contiguous_finds_runs() {
        let pm = PhysMem::new(32, AllocPolicy::Scattered);
        let start = pm.alloc_contiguous(8).unwrap();
        // Frames start..start+8 all allocated.
        for i in 0..8 {
            assert_eq!(pm.refcount(FrameId(start.0 + i)), 1);
        }
        assert_eq!(pm.allocated(), 8);
    }

    #[test]
    fn oom_reported() {
        let pm = PhysMem::new(2, AllocPolicy::Sequential);
        pm.alloc().unwrap();
        pm.alloc().unwrap();
        assert_eq!(pm.alloc(), Err(PhysError::OutOfMemory));
        assert_eq!(pm.alloc_contiguous(2), Err(PhysError::OutOfMemory));
    }

    #[test]
    fn fragmentation_distinguished_from_oom() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let frames: Vec<FrameId> = (0..4).map(|_| pm.alloc().unwrap()).collect();
        // Free alternating frames: 2 free frames, but no contiguous pair.
        pm.decref(frames[0]);
        pm.decref(frames[2]);
        assert_eq!(pm.alloc_contiguous(2), Err(PhysError::Fragmented));
        // Free a neighbor: now a run exists.
        pm.decref(frames[1]);
        assert!(pm.alloc_contiguous(2).is_ok());
    }

    #[test]
    fn fresh_frames_are_zero_even_after_reuse() {
        let pm = PhysMem::new(1, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.write(f, 10, b"dirty");
        pm.decref(f);
        let g = pm.alloc().unwrap();
        assert_eq!(g, f);
        let mut buf = [1u8; 16];
        pm.read(g, 8, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn contiguous_realloc_rezeroes() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let f = pm.alloc_contiguous(4).unwrap();
        pm.write_run(f, 0, &[0xAB; 4 * PAGE_SIZE]);
        for i in 0..4 {
            pm.decref(FrameId(f.0 + i));
        }
        let g = pm.alloc_contiguous(4).unwrap();
        let mut buf = vec![1u8; 4 * PAGE_SIZE];
        pm.read_run(g, 0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0), "reused run must read zero");
    }

    #[test]
    fn refcount_lifecycle() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.incref(f);
        assert_eq!(pm.refcount(f), 2);
        pm.decref(f);
        assert_eq!(pm.allocated(), 1);
        pm.decref(f);
        assert_eq!(pm.allocated(), 0);
        assert_eq!(pm.refcount(f), 0);
    }

    #[test]
    fn copy_moves_real_bytes() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        pm.write(a, 100, b"hello copier");
        pm.copy(b, 200, a, 100, 12);
        let mut buf = [0u8; 12];
        pm.read(b, 200, &mut buf);
        assert_eq!(&buf, b"hello copier");
    }

    #[test]
    fn same_frame_overlapping_copy() {
        let pm = PhysMem::new(1, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.write(f, 0, b"abcdef");
        pm.copy(f, 2, f, 0, 4); // memmove semantics
        let mut buf = [0u8; 6];
        pm.read(f, 0, &mut buf);
        assert_eq!(&buf, b"ababcd");
    }

    #[test]
    fn copy_run_spans_frames_one_shot() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        let src = pm.alloc_contiguous(3).unwrap();
        let dst = pm.alloc_contiguous(3).unwrap();
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 500).map(|i| (i % 253) as u8).collect();
        pm.write_run(src, 77, &data);
        pm.copy_run(dst, 33, src, 77, data.len());
        let mut got = vec![0u8; data.len()];
        pm.read_run(dst, 33, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    fn copy_run_overlapping_is_memmove_both_directions() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let f = pm.alloc_contiguous(4).unwrap();
        let data: Vec<u8> = (0..3 * PAGE_SIZE).map(|i| (i % 251) as u8).collect();

        // Forward overlap (dst above src) across frame boundaries.
        pm.write_run(f, 0, &data);
        pm.copy_run(FrameId(f.0), 1000, f, 0, data.len());
        let mut got = vec![0u8; data.len()];
        pm.read_run(f, 1000, &mut got);
        assert_eq!(got, data);

        // Backward overlap (dst below src).
        pm.write_run(f, 1000, &data);
        pm.copy_run(f, 200, f, 1000, data.len());
        pm.read_run(f, 200, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    fn copy_run_paged_matches_copy_run() {
        let pm = PhysMem::new(12, AllocPolicy::Sequential);
        let a = pm.alloc_contiguous(6).unwrap();
        let b = pm.alloc_contiguous(6).unwrap();
        let data: Vec<u8> = (0..5 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        pm.write_run(a, 123, &data);
        pm.copy_run(b, 456, a, 123, data.len());
        pm.copy_run_paged(a, 123, b, 456, data.len()); // round-trip via baseline
        let mut got = vec![0u8; data.len()];
        pm.read_run(a, 123, &mut got);
        assert_eq!(got, data);

        // Overlapping baseline copy also keeps memmove semantics.
        pm.write_run(a, 0, &data);
        pm.copy_run_paged(FrameId(a.0), 512, a, 0, data.len());
        pm.read_run(a, 512, &mut got);
        assert_eq!(got, data);
    }

    #[test]
    #[should_panic(expected = "access to free frame")]
    fn copy_run_rejects_free_frames_mid_run() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        let a = pm.alloc_contiguous(2).unwrap();
        let b = pm.alloc_contiguous(3).unwrap();
        pm.decref(FrameId(b.0 + 1)); // hole in the middle of the dst run
        pm.copy_run(b, 0, a, 0, 2 * PAGE_SIZE);
    }

    #[test]
    fn digest_tracks_allocated_content_only() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let empty = pm.digest();
        let a = pm.alloc().unwrap();
        let after_alloc = pm.digest();
        assert_ne!(empty, after_alloc, "allocation changes the digest");
        pm.write(a, 7, b"payload");
        let after_write = pm.digest();
        assert_ne!(after_alloc, after_write, "content changes the digest");
        // Same bytes in a different frame → different digest.
        pm.decref(a);
        let b = pm.alloc().unwrap();
        assert_eq!(b, a);
        let c = pm.alloc().unwrap();
        pm.write(c, 7, b"payload");
        pm.decref(b);
        assert_ne!(pm.digest(), after_write, "frame identity is folded in");
    }

    /// The digest recomputed from nothing: every allocated frame through
    /// the same per-frame function, no tracking state read.
    fn digest_from_scratch(pm: &PhysMem) -> u64 {
        let arena = pm.arena.borrow();
        (0..pm.meta.len())
            .filter(|&f| pm.meta[f].refcnt.get() > 0)
            .fold(0u64, |sum, f| {
                sum.wrapping_add(frame_term(f, &arena[f * PAGE_SIZE..(f + 1) * PAGE_SIZE]))
            })
    }

    #[test]
    fn digest_sees_a_frame_freed_and_allocated_again() {
        let pm = PhysMem::new(4, AllocPolicy::Sequential);
        let keep = pm.alloc().unwrap();
        let f = pm.alloc().unwrap();
        pm.write(keep, 0, b"bystander");
        let zeroed = pm.digest();
        pm.write(f, 100, b"stale bytes");
        let written = pm.digest();
        assert_ne!(written, zeroed);
        pm.decref(f);
        let freed = pm.digest();
        assert_eq!(freed, digest_from_scratch(&pm));
        assert_ne!(freed, written, "a freed frame leaves the digest");
        // Sequential pops the frame just freed; it comes back zero-filled.
        assert_eq!(pm.alloc().unwrap(), f);
        assert_eq!(pm.digest(), zeroed, "the re-allocated frame reads zero");
        // Freed and re-allocated between two digests, none in between.
        pm.write(f, 100, b"stale bytes");
        assert_eq!(pm.digest(), written);
        pm.decref(f);
        assert_eq!(pm.alloc().unwrap(), f);
        assert_eq!(pm.digest(), zeroed);
    }

    /// One step of a random pool history. Frames are named by rank among
    /// the allocated ones and lengths are clamped to the allocated run
    /// when the step executes, so every script is legal however it is
    /// shrunk.
    #[derive(Debug, Clone)]
    enum Op {
        Alloc,
        AllocContiguous(usize),
        Decref(usize),
        Write {
            at: usize,
            off: usize,
            len: usize,
            fill: u8,
        },
        /// `copy_run`, source and destination each `(rank, offset)`:
        /// cross-frame, overlapping and same-frame runs all occur.
        CopyRun {
            dst: (usize, usize),
            src: (usize, usize),
            len: usize,
        },
        CopyFrame {
            dst: usize,
            src: usize,
        },
        Digest,
    }

    const POOL: usize = 12;

    fn gen_op(rng: &mut copier_testkit::TestRng) -> Op {
        let off = |rng: &mut copier_testkit::TestRng| {
            if rng.gen_bool(0.5) {
                // Near a page end, where a run crosses into the next frame.
                PAGE_SIZE - 1 - rng.range_usize(0, 16)
            } else {
                rng.range_usize(0, PAGE_SIZE)
            }
        };
        let len = |rng: &mut copier_testkit::TestRng| {
            if rng.gen_bool(0.3) {
                rng.range_usize(1, 3 * PAGE_SIZE)
            } else {
                rng.range_usize(1, 64)
            }
        };
        match rng.gen_range(10) {
            0 | 1 => Op::Alloc,
            2 => Op::AllocContiguous(rng.range_usize(2, 5)),
            3 => Op::Decref(rng.range_usize(0, POOL)),
            4 | 5 => Op::Write {
                at: rng.range_usize(0, POOL),
                off: off(rng),
                len: len(rng),
                fill: rng.next_u64() as u8,
            },
            6 | 7 => {
                let dst = rng.range_usize(0, POOL);
                // Mostly the same or the next frame: overlapping runs.
                let src = if rng.gen_bool(0.6) {
                    dst + rng.range_usize(0, 2)
                } else {
                    rng.range_usize(0, POOL)
                };
                Op::CopyRun {
                    dst: (dst, off(rng)),
                    src: (src, off(rng)),
                    len: len(rng),
                }
            }
            8 => Op::CopyFrame {
                dst: rng.range_usize(0, POOL),
                src: rng.range_usize(0, POOL),
            },
            _ => Op::Digest,
        }
    }

    /// Applies `op`. A `Digest` step returns the incremental digest next
    /// to the from-scratch one when `digests` is on and is skipped
    /// otherwise (the untracked twin).
    fn apply(pm: &PhysMem, op: &Op, digests: bool) -> Option<(u64, u64)> {
        let live: Vec<usize> = (0..POOL)
            .filter(|&f| pm.refcount(FrameId(f as u32)) > 0)
            .collect();
        // Bytes from `(rank, off)` to the end of its allocated run.
        let run = |rank: usize, off: usize| -> Option<(FrameId, usize)> {
            let f = *live.get(rank % live.len().max(1))?;
            let frames = (f..POOL)
                .take_while(|&g| pm.refcount(FrameId(g as u32)) > 0)
                .count();
            Some((FrameId(f as u32), frames * PAGE_SIZE - off))
        };
        match *op {
            Op::Alloc => {
                let _ = pm.alloc();
            }
            Op::AllocContiguous(n) => {
                let _ = pm.alloc_contiguous(n);
            }
            Op::Decref(rank) => {
                if let Some((f, _)) = run(rank, 0) {
                    pm.decref(f);
                }
            }
            Op::Write { at, off, len, fill } => {
                if let Some((f, room)) = run(at, off) {
                    let data: Vec<u8> = (0..len.min(room))
                        .map(|i| fill.wrapping_add(i as u8))
                        .collect();
                    pm.write_run(f, off, &data);
                }
            }
            Op::CopyRun { dst, src, len } => {
                if let (Some((d, droom)), Some((s, sroom))) = (run(dst.0, dst.1), run(src.0, src.1))
                {
                    pm.copy_run(d, dst.1, s, src.1, len.min(droom).min(sroom));
                }
            }
            Op::CopyFrame { dst, src } => {
                if let (Some((d, _)), Some((s, _))) = (run(dst, 0), run(src, 0)) {
                    pm.copy_frame(d, s);
                }
            }
            Op::Digest if digests => return Some((pm.digest(), digest_from_scratch(pm))),
            Op::Digest => {}
        }
        None
    }

    /// The incremental digest against the from-scratch recompute over
    /// random histories, with three pools that must end equal: one
    /// digested at random points, one never digested until the end (the
    /// first call after a long untracked history), and one that reaches
    /// the same contents by a different route.
    #[test]
    fn incremental_digest_matches_from_scratch_recompute() {
        use copier_testkit::{check_with, prop_assert_eq, shrink_vec, Config};
        check_with(
            &Config::from_env(),
            |rng| {
                let n = rng.range_usize(1, 80);
                (0..n).map(|_| gen_op(rng)).collect::<Vec<Op>>()
            },
            |ops| shrink_vec(ops, |_| Vec::new()),
            |ops: &Vec<Op>| {
                let tracked = PhysMem::new(POOL, AllocPolicy::Sequential);
                let untracked = PhysMem::new(POOL, AllocPolicy::Sequential);
                for (i, op) in ops.iter().enumerate() {
                    if let Some((inc, scratch)) = apply(&tracked, op, true) {
                        prop_assert_eq!(inc, scratch, "digest at step {i}");
                    }
                    apply(&untracked, op, false);
                }
                let end = tracked.digest();
                prop_assert_eq!(end, digest_from_scratch(&tracked), "closing digest");
                prop_assert_eq!(untracked.digest(), end, "first digest after the history");

                // A different history to the same contents: everything
                // allocated and scribbled on, digested, then cut down to
                // the same frames and filled with the same bytes.
                let other = PhysMem::new(POOL, AllocPolicy::Sequential);
                let all = other.alloc_contiguous(POOL).unwrap();
                other.write_run(all, 0, &vec![0x5A; POOL * PAGE_SIZE]);
                other.digest();
                let mut page = vec![0u8; PAGE_SIZE];
                for f in (0..POOL as u32).map(FrameId) {
                    if tracked.refcount(f) == 0 {
                        other.decref(f);
                    } else {
                        tracked.read(f, 0, &mut page);
                        other.write(f, 0, &page);
                    }
                }
                prop_assert_eq!(other.digest(), end, "same contents, other history");
                Ok(())
            },
        );
    }

    #[test]
    fn undigested_pool_allocates_no_tracking() {
        let pm = PhysMem::new(64, AllocPolicy::Sequential);
        let f = pm.alloc_contiguous(8).unwrap();
        pm.write_run(f, 0, &[7u8; 8 * PAGE_SIZE]);
        pm.copy_run(f, 0, FrameId(f.0 + 4), 0, 4 * PAGE_SIZE);
        pm.decref(f);
        let d = pm.digest.borrow();
        assert_eq!(
            d.term.capacity() + d.queued.capacity() + d.dirty.capacity(),
            0
        );
    }

    #[test]
    fn digest_rehashes_only_what_changed() {
        let pm = PhysMem::new(64, AllocPolicy::Sequential);
        let f = pm.alloc_contiguous(32).unwrap();
        pm.digest();
        assert_eq!(
            pm.digest_frames_hashed(),
            32,
            "first call hashes every frame"
        );
        pm.digest();
        assert_eq!(
            pm.digest_frames_hashed(),
            32,
            "nothing written, nothing hashed"
        );
        pm.write_run(FrameId(f.0 + 3), PAGE_SIZE - 1, &[1, 2]); // frames 3 and 4
        pm.write(FrameId(f.0 + 3), 0, &[9]); // frame 3 again
        pm.digest();
        assert_eq!(pm.digest_frames_hashed(), 34);
    }

    #[test]
    fn pin_tracking() {
        let pm = PhysMem::new(2, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.pin(f);
        assert!(pm.is_pinned(f));
        pm.unpin(f);
        assert!(!pm.is_pinned(f));
    }

    #[test]
    fn pressure_hysteresis() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        pm.set_watermarks(2, 6);
        let frames: Vec<FrameId> = (0..6).map(|_| pm.alloc().unwrap()).collect();
        assert!(pm.pressure(), "high watermark must raise pressure");
        assert_eq!(pm.pressure_events(), 1);
        // Dropping below high but above low keeps pressure latched.
        pm.decref(frames[5]);
        pm.decref(frames[4]);
        pm.decref(frames[3]);
        assert!(pm.pressure(), "pressure must hold until the low watermark");
        pm.decref(frames[2]);
        assert!(!pm.pressure(), "low watermark must clear pressure");
        // Re-raising counts a fresh event.
        let _f = pm.alloc().unwrap();
        let _g = (0..3).map(|_| pm.alloc().unwrap()).collect::<Vec<_>>();
        assert!(pm.pressure());
        assert_eq!(pm.pressure_events(), 2);
    }

    #[test]
    fn default_watermarks_never_trip_light_pools() {
        let pm = PhysMem::new(64, AllocPolicy::Sequential);
        for _ in 0..32 {
            pm.alloc().unwrap();
        }
        assert!(!pm.pressure(), "half-full pool must not report pressure");
        assert_eq!(pm.pressure_events(), 0);
    }

    #[test]
    #[should_panic(expected = "freeing a pinned frame")]
    fn freeing_pinned_frame_panics() {
        let pm = PhysMem::new(2, AllocPolicy::Sequential);
        let f = pm.alloc().unwrap();
        pm.pin(f);
        pm.decref(f);
    }
    /// The allocator as it was before the free list went lazy: the lowest
    /// run found by a scan from frame 0, its ids removed from the list by
    /// a `retain` over all of it. What `alloc_contiguous` must still
    /// return, and the order `alloc` must still hand frames out in.
    struct RetainModel {
        refcnt: Vec<u16>,
        free: Vec<FrameId>,
    }

    impl RetainModel {
        fn alloc(&mut self) -> Result<FrameId, PhysError> {
            let f = self.free.pop().ok_or(PhysError::OutOfMemory)?;
            self.refcnt[f.0 as usize] = 1;
            Ok(f)
        }

        fn alloc_contiguous(&mut self, n: usize) -> Result<FrameId, PhysError> {
            if n == 1 {
                return self.alloc();
            }
            let mut run = 0;
            let start = self.refcnt.iter().enumerate().find_map(|(i, rc)| {
                run = if *rc == 0 { run + 1 } else { 0 };
                (run == n).then(|| i + 1 - n)
            });
            let start = start.ok_or(if self.free.len() >= n {
                PhysError::Fragmented
            } else {
                PhysError::OutOfMemory
            })?;
            self.free
                .retain(|f| (f.0 as usize) < start || (f.0 as usize) >= start + n);
            self.refcnt[start..start + n].fill(1);
            Ok(FrameId(start as u32))
        }

        fn decref(&mut self, f: FrameId) {
            self.refcnt[f.0 as usize] = 0;
            self.free.push(f);
        }
    }

    #[derive(Debug, Clone)]
    enum AllocOp {
        Alloc,
        Contiguous(usize),
        /// Frees the allocated frame of this rank, if any is allocated.
        Free(usize),
        /// Frees a whole run, as an sk_buff's owner does.
        FreeRun(usize, usize),
    }

    #[test]
    fn lazy_free_list_matches_the_scan_and_retain_allocator() {
        use copier_testkit::{check_with, prop_assert, prop_assert_eq, shrink_vec, Config};
        check_with(
            &Config::from_env(),
            |rng| {
                let frames = rng.range_usize(4, 48);
                let policy = if rng.gen_bool(0.5) {
                    AllocPolicy::Sequential
                } else {
                    AllocPolicy::Scattered
                };
                let ops = (0..rng.range_usize(1, 200))
                    .map(|_| match rng.gen_range(8) {
                        0..=2 => AllocOp::Alloc,
                        3 | 4 => AllocOp::Contiguous(rng.range_usize(2, 7)),
                        5 | 6 => AllocOp::Free(rng.range_usize(0, frames)),
                        _ => AllocOp::FreeRun(rng.range_usize(0, frames), rng.range_usize(2, 7)),
                    })
                    .collect::<Vec<_>>();
                (frames, policy, ops)
            },
            |(frames, policy, ops)| {
                shrink_vec(ops, |_| Vec::new())
                    .into_iter()
                    .map(|ops| (*frames, *policy, ops))
                    .collect()
            },
            |(frames, policy, ops)| {
                let pm = PhysMem::new(*frames, *policy);
                let mut model = RetainModel {
                    refcnt: vec![0; *frames],
                    free: pm.free.borrow().clone(),
                };
                let free_one = |model: &mut RetainModel, f: usize| {
                    if model.refcnt[f] > 0 {
                        model.decref(FrameId(f as u32));
                        pm.decref(FrameId(f as u32));
                    }
                };
                for (i, op) in ops.iter().enumerate() {
                    match *op {
                        AllocOp::Alloc => prop_assert_eq!(pm.alloc(), model.alloc(), "step {i}"),
                        AllocOp::Contiguous(n) => prop_assert_eq!(
                            pm.alloc_contiguous(n),
                            model.alloc_contiguous(n),
                            "step {i}"
                        ),
                        AllocOp::Free(rank) => {
                            let live: Vec<usize> =
                                (0..*frames).filter(|&f| model.refcnt[f] > 0).collect();
                            if !live.is_empty() {
                                free_one(&mut model, live[rank % live.len()]);
                            }
                        }
                        AllocOp::FreeRun(at, n) => {
                            for f in at..(at + n).min(*frames) {
                                free_one(&mut model, f);
                            }
                        }
                    }
                    let unallocated = *frames - pm.allocated();
                    let listed = pm.free.borrow().len();
                    prop_assert_eq!(
                        listed - unallocated,
                        pm.stale.get(),
                        "stale count, step {i}"
                    );
                    prop_assert!(
                        listed <= 2 * *frames,
                        "{listed} entries for {frames} frames"
                    );
                    prop_assert!(
                        (0..pm.lowest_free.get()).all(|f| model.refcnt[f] > 0),
                        "a free frame below the scan start, step {i}"
                    );
                }
                // Whatever is left comes out of `alloc` in the same order.
                loop {
                    let (got, want) = (pm.alloc(), model.alloc());
                    prop_assert_eq!(got, want, "draining");
                    if got.is_err() {
                        break;
                    }
                }
                prop_assert_eq!(pm.stale.get(), 0);
                Ok(())
            },
        );
    }

    #[test]
    fn repeated_runs_do_not_grow_the_free_list() {
        // The sk_buff pattern: the same lowest run taken and given back.
        let pm = PhysMem::new(64, AllocPolicy::Scattered);
        for _ in 0..10_000 {
            let f = pm.alloc_contiguous(4).unwrap();
            for i in 0..4 {
                pm.decref(FrameId(f.0 + i));
            }
        }
        assert!(pm.free.borrow().len() <= 128);
        assert_eq!(pm.allocated(), 0);
    }
}
