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
//! one contiguous arena range and the batched primitives
//! ([`PhysMem::copy_run`], [`PhysMem::read_run`], [`PhysMem::write_run`])
//! move a whole multi-page run with one `memcpy`/`memmove`.
//!
//! The arena is a raw allocation owned by the private `arena` module, the
//! host copy engine (DESIGN.md §12): [`PhysMem::defer_copy_run`] queues a
//! copy for one worker thread, spawned on the first such copy, that runs
//! the queue in FIFO order, and [`PhysMem::worth_deferring`] says which
//! dispatch batches are worth queueing. Nothing here touches arena bytes
//! except through that module's three fenced calls — a read view, a
//! write view and a synchronous copy — each of which first waits for the
//! queued copies that overlap its range: a read for those writing it, a
//! write for those reading or writing it. The view covers exactly the
//! fenced range for the length of one call, so no reference ever covers
//! bytes the worker is writing, and every byte read here is the byte a
//! synchronous copy would have left.
//!
//! Only host wall-clock changes: virtual-time costs are charged by callers
//! from byte counts, which the arena and its worker leave untouched.
//!
//! ## One digest kernel
//!
//! Every digest here runs `fold_words`, FNV-1a over little-endian words
//! in four interleaved lanes, so a 4 KiB page waits on a quarter of the
//! dependent multiplies of a serial fold: a frame's term of
//! [`PhysMem::digest`] (the trace's memory checkpoints), the dispatcher's
//! copy verification ([`PhysMem::extent_digest`]) and the journal's and
//! scrubber's extent digests (`AddressSpace::extent_digest`, which folds
//! each page's chunk in place from the arena). A frame term's value is
//! fixed by the trace format (every recorded `MemDigest` is a sum of
//! them), and the kernel over a page from the offset basis is exactly
//! the four-lane value the format was recorded with. Extent digests are
//! bound by nothing outside the process: they are host-side, compared
//! only with digests of this same kernel, and kept in no store that
//! outlives it, so their values moved when they left a serial word fold.

use std::cell::{Cell, RefCell};

use crate::space::Extent;

#[allow(unsafe_code)]
mod arena;
#[cfg(test)]
mod queue_differential;

pub use arena::CopyEngineStats;
use arena::{Arena, RingShape, RING};

/// Size of one page/frame in bytes.
pub const PAGE_SIZE: usize = 4096;

/// The smallest dispatch batch worth a *cold* start of the host copy
/// engine, one whose worker must be spawned or woken first
/// ([`PhysMem::worth_deferring`]). `fig_hostperf`'s `copy_engine` rows
/// (`BENCH_hostperf.json`, a 2-vCPU Xeon KVM guest) put a fence round
/// trip with the worker parked at ≈ 3.8–5.4 µs and the saving of a
/// deferred page at ≈ 0.5–0.6 µs, so a cold batch breaks even at
/// 17–43 KiB. This is the power of two at four times the first such
/// measurement (25 KiB), so the fixed cost stays well under what the
/// batch saves (DESIGN.md §12).
pub const DEFER_MIN_BATCH: usize = 128 * 1024;

/// The smallest dispatch batch worth queueing while the worker is awake.
/// The same rows put the awake round trip at ≈ 0.3–0.4 µs, so a warm
/// batch breaks even at 1.9–3.2 KiB; this is the power of two at four
/// times the lower figure. Below ≈ 2 KiB a batch costs more queued than
/// inline.
pub const DEFER_WARM_MIN_BATCH: usize = 8 * 1024;

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
    /// Every frame's bytes, and the queue of copies deferred onto them.
    arena: Arena,
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

/// FNV-1a offset basis and prime: the one pair behind every digest in
/// this crate (`copier-mem` depends on nothing, so it keeps its own copy
/// of `copier_sim::wire`'s).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// One FNV-1a step over a whole 64-bit word: a multiply per 8 bytes.
fn fnv_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The seed of an extent digest: the offset basis with the length folded
/// in, so equal prefixes of different lengths differ.
pub(crate) fn extent_seed(len: usize) -> u64 {
    (FNV_OFFSET ^ len as u64).wrapping_mul(FNV_PRIME)
}

/// A little-endian 64-bit word from an 8-byte chunk.
fn le_word(w: &[u8]) -> u64 {
    u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"))
}

/// The one digest kernel of this crate: word-at-a-time FNV-1a of `bytes`
/// from accumulator `h` in four interleaved lanes, so the four multiplies
/// of a 32-byte step do not wait on each other. The lanes start at `h`,
/// `h^1`, `h^2`, `h^3` and are folded into `h` one word each; the
/// remainder is folded after them, whole words first, then single
/// bytes. Every extent digest is compared only with digests folded by
/// this same kernel over the same chunks, so its mixing step is free to
/// differ from byte-FNV.
pub(crate) fn fold_words(h: u64, bytes: &[u8]) -> u64 {
    let mut steps = bytes.chunks_exact(32);
    let mut lanes = [h, h ^ 1, h ^ 2, h ^ 3];
    for step in steps.by_ref() {
        for (lane, w) in lanes.iter_mut().zip(step.chunks_exact(8)) {
            *lane = fnv_word(*lane, le_word(w));
        }
    }
    let h = lanes.into_iter().fold(h, fnv_word);
    let mut words = steps.remainder().chunks_exact(8);
    let h = words.by_ref().fold(h, |h, w| fnv_word(h, le_word(w)));
    words
        .remainder()
        .iter()
        .fold(h, |h, &b| fnv_word(h, b as u64))
}

/// One allocated frame's term of [`PhysMem::digest`]: [`fold_words`] of
/// its bytes from the offset basis, the frame id folded in, then the
/// splitmix64 finalizer. Terms are summed, so each must be well mixed on
/// its own, and the id keeps identical bytes in different frames from
/// cancelling under a swap.
fn frame_term(id: usize, bytes: &[u8]) -> u64 {
    let mut z = fold_words(FNV_OFFSET, bytes) ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An extent's digest over its bytes: the offset basis with the length
/// folded in, then every byte in 4 KiB chunks from the start when `full`,
/// else the first 64 bytes and the rest of the last 64.
fn digest_bytes(bytes: &[u8], full: bool) -> u64 {
    let h = extent_seed(bytes.len());
    if full {
        bytes.chunks(PAGE_SIZE).fold(h, fold_words)
    } else {
        let head = bytes.len().min(64);
        let tail = bytes.len().saturating_sub(64).max(head);
        fold_words(fold_words(h, &bytes[..head]), &bytes[tail..])
    }
}

impl PhysMem {
    /// Creates a pool of `frames` frames under the given policy.
    ///
    /// `Scattered` pre-shuffles the free list with a fixed multiplicative
    /// permutation so runs are reproducible.
    pub fn new(frames: usize, policy: AllocPolicy) -> Self {
        Self::with_ring(frames, policy, RING)
    }

    /// [`Self::new`] with a copy queue of `ring`'s bounds.
    fn with_ring(frames: usize, policy: AllocPolicy, ring: RingShape) -> Self {
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
            arena: Arena::new(frames * PAGE_SIZE, ring),
            meta,
            free: RefCell::new(free),
            stale: Cell::new(0),
            lowest_free: Cell::new(0),
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
            self.arena
                .write(f.0 as usize * PAGE_SIZE, PAGE_SIZE, |b| b.fill(0));
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
        for i in start..start + n {
            let slot = &self.meta[i];
            slot.refcnt.set(1);
            if slot.touched.replace(true) {
                self.arena.write(i * PAGE_SIZE, PAGE_SIZE, |b| b.fill(0));
            }
        }
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
    pub(crate) fn refcount(&self, f: FrameId) -> u16 {
        self.meta[f.0 as usize].refcnt.get()
    }

    /// Pins a frame (its mapping is locked for an in-flight copy).
    pub(crate) fn pin(&self, f: FrameId) {
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
    pub(crate) fn is_pinned(&self, f: FrameId) -> bool {
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

    /// [`fold_words`] of `len` bytes of frame `f` from `off`, read in
    /// place from the arena (the address space's extent digest, a page's
    /// chunk at a time).
    ///
    /// # Panics
    /// If the range is empty, exceeds the page or the frame is free.
    pub(crate) fn fold_page(&self, h: u64, f: FrameId, off: usize, len: usize) -> u64 {
        assert!(len > 0 && off + len <= PAGE_SIZE);
        self.check_run(f, off, len);
        let base = f.0 as usize * PAGE_SIZE + off;
        self.arena.read(base, len, |b| fold_words(h, b))
    }

    /// Reads a physically contiguous run (may span many frames) into
    /// `buf` with a single arena borrow and one `memcpy`.
    pub fn read_run(&self, f: FrameId, off: usize, buf: &mut [u8]) {
        if buf.is_empty() {
            return;
        }
        self.check_run(f, off, buf.len());
        let base = f.0 as usize * PAGE_SIZE + off;
        self.arena.read(base, buf.len(), |b| buf.copy_from_slice(b));
    }

    /// Digest of the physical extent `ext` — every byte when `full`, else
    /// the first and last 64 bytes — folded in 4 KiB chunks from its
    /// start. Only comparable with digests from this same function at the
    /// same coverage (the dispatcher's copy verification).
    pub fn extent_digest(&self, ext: Extent, full: bool) -> u64 {
        self.run_digest(ext.frame, ext.off, ext.len, full)
    }

    /// [`Self::extent_digest`] of the run of `len` bytes from `off` in
    /// frame `f`.
    fn run_digest(&self, f: FrameId, off: usize, len: usize, full: bool) -> u64 {
        if len == 0 {
            return extent_seed(0);
        }
        self.check_run(f, off, len);
        let base = f.0 as usize * PAGE_SIZE + off;
        self.arena
            .read(base, len, |bytes| digest_bytes(bytes, full))
    }

    /// Writes `buf` over a physically contiguous run (may span many
    /// frames) with a single arena borrow and one `memcpy`.
    pub fn write_run(&self, f: FrameId, off: usize, buf: &[u8]) {
        if buf.is_empty() {
            return;
        }
        self.check_run(f, off, buf.len());
        let base = f.0 as usize * PAGE_SIZE + off;
        self.arena
            .write(base, buf.len(), |b| b.copy_from_slice(buf));
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
    /// many frames — with one `memmove` through the arena. Overlapping
    /// source and destination runs get `memmove` semantics (the
    /// destination reads as the source did before the call), so
    /// `amemmove`-style tasks are safe.
    ///
    /// This is the fast-path engine primitive: the caller hands it a
    /// whole contiguous extent pair and the arena moves it in one shot
    /// instead of nibbling per 4 KiB page.
    pub fn copy_run(&self, dst: FrameId, dst_off: usize, src: FrameId, src_off: usize, len: usize) {
        if let Some((d0, s0)) = self.copy_ends(dst, dst_off, src, src_off, len) {
            self.arena.copy(d0, s0, len);
        }
    }

    /// [`Self::copy_run`] on the host copy engine's worker thread: the
    /// copy is queued and this returns. Every later access to the pool
    /// first waits for the queued copies it overlaps, so what any caller
    /// reads — bytes, digests — is what `copy_run` would have left.
    pub fn defer_copy_run(
        &self,
        dst: FrameId,
        dst_off: usize,
        src: FrameId,
        src_off: usize,
        len: usize,
    ) {
        if let Some((d0, s0)) = self.copy_ends(dst, dst_off, src, src_off, len) {
            self.arena.defer(d0, s0, len);
        }
    }

    /// The arena offsets of a copy's destination and source, with the
    /// destination's frames queued for the next digest; `None` when the
    /// copy moves nothing.
    fn copy_ends(
        &self,
        dst: FrameId,
        dst_off: usize,
        src: FrameId,
        src_off: usize,
        len: usize,
    ) -> Option<(usize, usize)> {
        if len == 0 {
            return None;
        }
        self.check_run(src, src_off, len);
        self.check_run(dst, dst_off, len);
        let s0 = src.0 as usize * PAGE_SIZE + src_off;
        let d0 = dst.0 as usize * PAGE_SIZE + dst_off;
        if s0 == d0 {
            return None;
        }
        self.mark_bytes_dirty(d0, len);
        Some((d0, s0))
    }

    /// Whether a dispatch batch of `batch_bytes` should land through the
    /// host copy engine ([`Self::defer_copy_run`]) rather than inline:
    /// when it is worth a cold start ([`DEFER_MIN_BATCH`]), or when the
    /// worker is awake and it is worth a warm round trip
    /// ([`DEFER_WARM_MIN_BATCH`]). Which thread lands a byte moves host
    /// time only, so the answer may depend on host timing.
    pub fn worth_deferring(&self, batch_bytes: usize) -> bool {
        batch_bytes >= DEFER_MIN_BATCH
            || (batch_bytes >= DEFER_WARM_MIN_BATCH && self.arena.awake())
    }

    /// The host copy engine's counters (host-side only).
    pub fn copy_engine_stats(&self) -> CopyEngineStats {
        self.arena.stats()
    }

    /// Copies a whole frame (CoW break helper). Returns bytes copied.
    pub(crate) fn copy_frame(&self, dst: FrameId, src: FrameId) -> usize {
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
        for f in d.dirty.drain(..) {
            let f = f as usize;
            d.queued[f] = false;
            let term = if self.meta[f].refcnt.get() > 0 {
                d.hashed += 1;
                self.arena
                    .read(f * PAGE_SIZE, PAGE_SIZE, |b| frame_term(f, b))
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
    #[should_panic(expected = "access to free frame")]
    fn copy_run_rejects_free_frames_mid_run() {
        let pm = PhysMem::new(8, AllocPolicy::Sequential);
        let a = pm.alloc_contiguous(2).unwrap();
        let b = pm.alloc_contiguous(3).unwrap();
        pm.decref(FrameId(b.0 + 1)); // hole in the middle of the dst run
        pm.copy_run(b, 0, a, 0, 2 * PAGE_SIZE);
    }

    /// The lane fold spelled by word index: word `i` of the whole 32-byte
    /// steps goes to lane `i % 4`, the lanes fold into `h` in order, then
    /// the remainder's words and bytes fold serially.
    fn naive_lane_fold(h: u64, bytes: &[u8]) -> u64 {
        let step = |h: u64, w: u64| (h ^ w).wrapping_mul(FNV_PRIME);
        let word = |i: usize| u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        let body = bytes.len() / 32 * 4;
        let mut lanes = [h, h ^ 1, h ^ 2, h ^ 3];
        for i in 0..body {
            lanes[i % 4] = step(lanes[i % 4], word(i));
        }
        let mut acc = lanes.iter().fold(h, |a, &l| step(a, l));
        let words = bytes.len() / 8;
        for i in body..words {
            acc = step(acc, word(i));
        }
        for &b in &bytes[8 * words..] {
            acc = step(acc, b as u64);
        }
        acc
    }

    /// `frame_term` as it was spelled before it called [`fold_words`]:
    /// its own four-lane loop over the page. Every `MemDigest` ever
    /// recorded holds sums of these.
    fn frame_term_before(id: usize, bytes: &[u8]) -> u64 {
        let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
        for step in bytes.chunks_exact(32) {
            for (lane, w) in lanes.iter_mut().zip(step.chunks_exact(8)) {
                *lane = fnv_word(*lane, u64::from_le_bytes(w.try_into().unwrap()));
            }
        }
        let h = lanes.into_iter().fold(FNV_OFFSET, fnv_word);
        let mut z = h ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A frame's digest term is the finalized lane fold of its page from
    /// the offset basis, bit for bit the value of the loop it replaced,
    /// so no recorded `MemDigest` moves; and the kernel agrees with its
    /// naive spelling at every length class.
    #[test]
    fn frame_term_is_the_finalized_lane_fold() {
        use copier_testkit::{check_with, prop_assert_eq, Config};
        check_with(
            &Config::from_env(),
            |rng| {
                let mut page = vec![0u8; PAGE_SIZE];
                // Sparse pages too: mostly-zero frames are the common case.
                if rng.gen_bool(0.5) {
                    rng.fill_bytes(&mut page);
                } else {
                    for _ in 0..rng.range_usize(0, 8) {
                        let i = rng.range_usize(0, PAGE_SIZE);
                        page[i] = rng.next_u64() as u8;
                    }
                }
                (rng.range_usize(0, 1 << 20), rng.next_u64(), page)
            },
            |_| Vec::new(),
            |(id, h, page)| {
                let (id, h) = (*id, *h);
                prop_assert_eq!(frame_term(id, page), frame_term_before(id, page));
                prop_assert_eq!(
                    fold_words(FNV_OFFSET, page),
                    naive_lane_fold(FNV_OFFSET, page)
                );
                for len in [0, 1, 7, 8, 31, 32, 33, 63, 64, 100, 1506, PAGE_SIZE - 1] {
                    prop_assert_eq!(
                        fold_words(h, &page[..len]),
                        naive_lane_fold(h, &page[..len])
                    );
                }
                Ok(())
            },
        );
    }

    /// Flipping any one byte changes the fold, at every length 0–4 160
    /// (every remainder class mod 32, one step past a page), and across
    /// a chain of page chunks the way extent digests fold them.
    #[test]
    fn fold_words_sees_every_byte() {
        use copier_testkit::{check_with, prop_assert, Config};
        check_with(
            &Config::from_env(),
            |rng| {
                let len = rng.range_usize(1, PAGE_SIZE + 65);
                let mut bytes = vec![0u8; len];
                if rng.gen_bool(0.5) {
                    rng.fill_bytes(&mut bytes);
                }
                let at = rng.range_usize(0, len);
                let mask = 1u8 << rng.gen_range(8);
                // A chunk boundary for the chained case, as an extent
                // that starts mid-page splits its bytes.
                let cut = rng.range_usize(0, len + 1);
                (rng.next_u64(), bytes, at, mask, cut)
            },
            |_| Vec::new(),
            |(h, bytes, at, mask, cut)| {
                let chained = |b: &[u8]| fold_words(fold_words(*h, &b[..*cut]), &b[*cut..]);
                let mut flipped = bytes.clone();
                flipped[*at] ^= mask;
                prop_assert!(fold_words(*h, bytes) != fold_words(*h, &flipped), "whole");
                prop_assert!(chained(bytes) != chained(&flipped), "chained at {cut}");
                Ok(())
            },
        );
        // Every length exhaustively on one buffer, the flip at both ends.
        let mut bytes = vec![0u8; PAGE_SIZE + 64];
        copier_testkit::TestRng::new(7).fill_bytes(&mut bytes);
        for len in 1..=bytes.len() {
            for at in [0, len / 2, len - 1] {
                let mut flipped = bytes[..len].to_vec();
                flipped[at] ^= 0x80;
                assert_ne!(
                    fold_words(FNV_OFFSET, &bytes[..len]),
                    fold_words(FNV_OFFSET, &flipped),
                    "len {len} byte {at}"
                );
            }
        }
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
        (0..pm.meta.len())
            .filter(|&f| pm.meta[f].refcnt.get() > 0)
            .fold(0u64, |sum, f| {
                let term = pm
                    .arena
                    .read(f * PAGE_SIZE, PAGE_SIZE, |b| frame_term(f, b));
                sum.wrapping_add(term)
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
