//! Segment descriptors: the shared bitmap clients poll in `csync` (§4.1).
//!
//! A descriptor divides a copy of `len` bytes into fixed-size segments and
//! exposes one atomic bit per segment. Copier sets a bit only after the
//! segment's bytes have physically landed; a client that observes the bit
//! may use those bytes immediately — the fine-grained copy-use pipeline.
//!
//! Atomics are used (rather than `Cell`s) because the descriptor is the
//! contract shared across the client/service boundary; the identical type
//! is exercised from real OS threads in the ring stress tests.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use copier_mem::MemError;

use crate::interval::IntervalSet;

/// Why a copy failed; surfaced to `csync` as an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyFault {
    /// The source or destination range was not legally addressable —
    /// the simulated process receives SIGSEGV.
    Segv,
    /// Physical memory was exhausted while resolving pages.
    OutOfMemory,
    /// The task was explicitly aborted (§4.4 `abort` sync task).
    Aborted,
    /// Admission control rejected the submission: the client was past its
    /// in-flight quota, or the service shed load above its global
    /// watermark. Retry after completions return credits.
    Overloaded,
    /// Crash recovery found the destination range neither untouched nor
    /// fully copied (its sampled extent digest matches neither journaled
    /// side): the bytes are partial and must not be consumed. Healed by
    /// a later copy that fully overwrites the range.
    Torn,
    /// End-to-end verification found the destination bytes differ from
    /// the source digest taken at dispatch (silent DMA corruption that
    /// the device reported as success), and bounded automatic repair
    /// could not restore them — or the scrubber found a rotted region
    /// with no intact replica. The bytes must not be consumed.
    Corrupted,
}

impl CopyFault {
    /// Wire encoding for trace and journal records (0 = no fault).
    pub fn code(self) -> u8 {
        match self {
            CopyFault::Segv => 1,
            CopyFault::OutOfMemory => 2,
            CopyFault::Aborted => 3,
            CopyFault::Overloaded => 4,
            CopyFault::Torn => 5,
            CopyFault::Corrupted => 6,
        }
    }

    /// Inverse of [`Self::code`] for journaled taints. Unknown codes
    /// decode as `Torn` — the conservative "do not consume these bytes".
    pub fn from_code(code: u8) -> CopyFault {
        match code {
            1 => CopyFault::Segv,
            2 => CopyFault::OutOfMemory,
            3 => CopyFault::Aborted,
            4 => CopyFault::Overloaded,
            6 => CopyFault::Corrupted,
            _ => CopyFault::Torn,
        }
    }
}

/// The one mapping from a memory-subsystem error to the fault `csync`
/// reports, for the service's copies and the client's synchronous ones.
impl From<MemError> for CopyFault {
    fn from(e: MemError) -> Self {
        match e {
            MemError::OutOfMemory | MemError::Fragmented => CopyFault::OutOfMemory,
            MemError::Segv(_) | MemError::Pinned(_) | MemError::BadRange => CopyFault::Segv,
        }
    }
}

/// Default segment granularity (bytes).
pub const DEFAULT_SEGMENT: usize = 1024;

/// A segment-progress descriptor.
pub struct SegDescriptor {
    len: usize,
    seg: usize,
    nsegs: usize,
    /// One bit per segment; bits past `nsegs` are never set.
    bits: Vec<AtomicU64>,
    poisoned: AtomicBool,
    fault: std::cell::Cell<Option<CopyFault>>,
    /// Whether the completion side effects (handler delivery + credit
    /// grant) have fired. Lives in the descriptor — client-owned memory
    /// that survives a service crash — so a restarted service and a
    /// resubmitted duplicate settle each submission exactly once.
    delivered: AtomicBool,
}

// SAFETY: `fault` is only written by the (single-threaded) service before
// `poisoned` is set with release ordering and read after an acquire load;
// in the deterministic simulator there is exactly one host thread anyway.
unsafe impl Sync for SegDescriptor {}

impl SegDescriptor {
    /// Creates a descriptor for a copy of `len` bytes at `seg` granularity.
    ///
    /// `len == 0` is legal (like `memcpy(d, s, 0)`): the descriptor has
    /// zero segments and is born complete — `all_ready()` holds
    /// immediately and the service completes the task without moving
    /// bytes.
    pub fn new(len: usize, seg: usize) -> Self {
        let seg = seg.max(1);
        let nsegs = len.div_ceil(seg);
        let words = nsegs.div_ceil(64);
        SegDescriptor {
            len,
            seg,
            nsegs,
            bits: (0..words).map(|_| AtomicU64::new(0)).collect(),
            poisoned: AtomicBool::new(false),
            fault: std::cell::Cell::new(None),
            delivered: AtomicBool::new(false),
        }
    }

    /// The copy length this descriptor tracks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this descriptor tracks a zero-byte copy.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Segment granularity in bytes.
    pub fn segment_size(&self) -> usize {
        self.seg
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.nsegs
    }

    /// Marks segment `idx` complete.
    pub fn mark(&self, idx: usize) {
        assert!(idx < self.num_segments());
        self.bits[idx / 64].fetch_or(1 << (idx % 64), Ordering::Release);
    }

    /// Whether segment `idx` is complete.
    pub fn is_marked(&self, idx: usize) -> bool {
        assert!(idx < self.num_segments());
        self.bits[idx / 64].load(Ordering::Acquire) & (1 << (idx % 64)) != 0
    }

    /// Marks segments `first..=last` complete: one `fetch_or` per bitmap
    /// word, however many segments a landing finished.
    pub fn mark_range(&self, first: usize, last: usize) {
        assert!(first <= last && last < self.nsegs);
        for (w, mask) in words(first, last) {
            self.bits[w].fetch_or(mask, Ordering::Release);
        }
    }

    /// Service side of a landing: flips the bits that `[off, end)` (not
    /// empty) completed, given the set of bytes copied so far, which
    /// already holds it. Of the segments the landing touches, those are
    /// the ones wholly inside the one merged range of `copied` that now
    /// contains it; every segment strictly between the landing's first and
    /// last is inside the landing itself, so only those two need the
    /// range's bounds.
    pub fn mark_landed(&self, copied: &IntervalSet, off: usize, end: usize) {
        debug_assert!(off < end);
        let (lo, hi) = copied
            .range_containing(off)
            .expect("the landing was just inserted");
        let first = lo.div_ceil(self.seg).max(off / self.seg);
        // One past the last segment that ends at or before `hi`; the tail
        // segment ends with the copy, wherever that is.
        let past = if hi >= self.len {
            self.nsegs
        } else {
            hi / self.seg
        };
        let past = past.min((end - 1) / self.seg + 1);
        if first < past {
            self.mark_range(first, past - 1);
        }
    }

    /// Whether every segment overlapping `[off, off+len)` is complete:
    /// one load per bitmap word the range touches.
    pub fn range_ready(&self, off: usize, len: usize) -> bool {
        if len == 0 || self.len == 0 {
            return true;
        }
        let end = (off + len).min(self.len);
        let first = off / self.seg;
        let last = (end - 1) / self.seg;
        first > last
            || words(first, last)
                .all(|(w, mask)| self.bits[w].load(Ordering::Acquire) & mask == mask)
    }

    /// Whether the whole copy is complete.
    pub fn all_ready(&self) -> bool {
        self.range_ready(0, self.len)
    }

    /// Count of completed segments.
    pub fn ready_segments(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// The byte range covered by segment `idx` (tail segment may be short).
    pub fn segment_range(&self, idx: usize) -> (usize, usize) {
        let start = idx * self.seg;
        (start, ((idx + 1) * self.seg).min(self.len))
    }

    /// Clears all progress and fault state for reuse from a descriptor
    /// pool (§5.1 "descriptor pool").
    ///
    /// Only safe once no in-flight copy references the descriptor.
    pub fn reset(&self) {
        for w in &self.bits {
            w.store(0, Ordering::Release);
        }
        self.fault.set(None);
        self.poisoned.store(false, Ordering::Release);
        self.delivered.store(false, Ordering::Release);
    }

    /// Poisons the descriptor with a fault; `csync` will surface it.
    pub fn poison(&self, fault: CopyFault) {
        self.fault.set(Some(fault));
        self.poisoned.store(true, Ordering::Release);
    }

    /// Returns the recorded fault, if any.
    pub fn fault(&self) -> Option<CopyFault> {
        if self.poisoned.load(Ordering::Acquire) {
            self.fault.get()
        } else {
            None
        }
    }

    /// Claims the one-shot right to deliver this submission's completion
    /// side effects (handler + credit). Returns `true` exactly once per
    /// descriptor lifetime — the atomic swap is the exactly-once gate
    /// that makes duplicate window entries after a crash harmless.
    pub fn claim_delivery(&self) -> bool {
        !self.delivered.swap(true, Ordering::AcqRel)
    }

    /// Whether completion side effects already fired.
    pub fn delivered(&self) -> bool {
        self.delivered.load(Ordering::Acquire)
    }
}

/// The bitmap words that hold segments `first..=last`, each with the mask
/// of those segments' bits in it.
fn words(first: usize, last: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first_word, last_word) = (first / 64, last / 64);
    (first_word..=last_word).map(move |w| {
        let lo = if w == first_word { first % 64 } else { 0 };
        let hi = if w == last_word { last % 64 } else { 63 };
        (w, (u64::MAX << lo) & (u64::MAX >> (63 - hi)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_testkit::{check_with, Config, TestRng};
    use copier_testkit::{prop_assert, prop_assert_eq};

    #[test]
    fn fault_codes_round_trip_and_unknown_decodes_as_torn() {
        use CopyFault::*;
        for f in [Segv, OutOfMemory, Aborted, Overloaded, Torn, Corrupted] {
            // Exhaustive: a new variant fails to compile here until listed.
            match f {
                Segv | OutOfMemory | Aborted | Overloaded | Torn | Corrupted => {}
            }
            assert_ne!(f.code(), 0, "0 is the wire's \"no fault\"");
            assert_eq!(CopyFault::from_code(f.code()), f);
        }
        for unknown in [0u8, 7, 200, u8::MAX] {
            assert_eq!(CopyFault::from_code(unknown), Torn);
        }
    }

    /// Every `MemError` maps to one fault, whoever hit it: out of frames
    /// (plain or too fragmented for a contiguous run) is `OutOfMemory`,
    /// everything about the address range is `Segv`. The client's
    /// crash-window copy used to report `Fragmented` as `Segv`.
    #[test]
    fn mem_errors_map_to_one_fault_each() {
        use copier_mem::VirtAddr;
        let va = VirtAddr(0x1000);
        for (e, want) in [
            (MemError::Segv(va), CopyFault::Segv),
            (MemError::OutOfMemory, CopyFault::OutOfMemory),
            (MemError::Fragmented, CopyFault::OutOfMemory),
            (MemError::Pinned(va), CopyFault::Segv),
            (MemError::BadRange, CopyFault::Segv),
        ] {
            // Exhaustive: a new variant fails to compile here until listed.
            match e {
                MemError::Segv(_)
                | MemError::OutOfMemory
                | MemError::Fragmented
                | MemError::Pinned(_)
                | MemError::BadRange => {}
            }
            assert_eq!(CopyFault::from(e), want, "{e:?}");
        }
    }

    /// The readers and the range marker as they were before they went
    /// word-wise, one `is_marked` / `mark` per segment: the oracle of
    /// `word_wise_equals_bit_at_a_time`.
    impl SegDescriptor {
        fn range_ready_bitwise(&self, off: usize, len: usize) -> bool {
            if len == 0 || self.len == 0 {
                return true;
            }
            let end = (off + len).min(self.len);
            let first = off / self.seg;
            let last = (end - 1) / self.seg;
            (first..=last).all(|i| self.is_marked(i))
        }

        fn ready_segments_bitwise(&self) -> usize {
            (0..self.num_segments())
                .filter(|&i| self.is_marked(i))
                .count()
        }

        fn mark_range_bitwise(&self, first: usize, last: usize) {
            (first..=last).for_each(|i| self.mark(i));
        }

        /// `mark_landed` as it was: one `covers` binary search per touched
        /// segment. The oracle of `mark_landed_equals_the_covers_loop`.
        fn mark_landed_covers_loop(&self, copied: &IntervalSet, off: usize, end: usize) {
            if self.nsegs == 0 {
                return;
            }
            let first = off / self.seg;
            let last = ((end - 1) / self.seg).min(self.nsegs - 1);
            for i in first..=last {
                let (s, t) = self.segment_range(i);
                if copied.covers(s, t) {
                    self.mark(i);
                }
            }
        }
    }

    /// A descriptor shape `(len, seg)`: segment counts around the word
    /// boundaries as often as anywhere else, and a short tail segment most
    /// of the time.
    fn gen_shape(rng: &mut TestRng) -> (usize, usize) {
        let seg = [1, 7, 64, 1024, 4096][rng.range_usize(0, 5)];
        let nsegs = if rng.gen_bool(0.5) {
            [1, 63, 64, 65, 127, 128, 129][rng.range_usize(0, 7)]
        } else {
            rng.range_usize(1, 300)
        };
        ((nsegs - 1) * seg + rng.range_usize(1, seg + 1), seg)
    }

    /// `(len, seg, [(mark?, off, n)])`: a descriptor shape and a script of
    /// byte ranges to mark the segments of, or to ask about.
    type WordCase = (usize, usize, Vec<(bool, usize, usize)>);

    fn gen_word_case(rng: &mut TestRng) -> WordCase {
        let (len, seg) = gen_shape(rng);
        let ops = (0..rng.range_usize(1, 60))
            .map(|_| {
                let off = rng.range_usize(0, len + seg);
                let n = if rng.gen_bool(0.3) {
                    rng.range_usize(0, len + seg)
                } else {
                    rng.range_usize(0, 3 * seg + 1)
                };
                (rng.gen_bool(0.5), off, n)
            })
            .collect();
        (len, seg, ops)
    }

    #[test]
    fn word_wise_equals_bit_at_a_time() {
        check_with(
            &Config::from_env(),
            gen_word_case,
            |_| Vec::new(),
            |(len, seg, ops): &WordCase| {
                let (len, seg) = (*len, *seg);
                let (fast, slow) = (SegDescriptor::new(len, seg), SegDescriptor::new(len, seg));
                prop_assert_eq!(fast.num_segments(), len.div_ceil(seg));
                for &(mark, off, n) in ops {
                    if mark && n > 0 && off < len {
                        let (first, last) = (off / seg, ((off + n).min(len) - 1) / seg);
                        fast.mark_range(first, last);
                        slow.mark_range_bitwise(first, last);
                    }
                    prop_assert_eq!(
                        fast.range_ready(off, n),
                        slow.range_ready_bitwise(off, n),
                        "range_ready({off}, {n}) of len {len} seg {seg}"
                    );
                    for i in 0..fast.num_segments() {
                        prop_assert!(
                            fast.is_marked(i) == slow.is_marked(i),
                            "segment {i} after ({mark}, {off}, {n}) of len {len} seg {seg}"
                        );
                    }
                    prop_assert_eq!(fast.ready_segments(), slow.ready_segments_bitwise());
                    prop_assert_eq!(fast.all_ready(), slow.range_ready_bitwise(0, len));
                }
                Ok(())
            },
        );
    }

    /// `(len, seg, [(off, n)])`: a task shape and the landings of its
    /// bytes, in whatever order and overlap the units finished them.
    type Landings = (usize, usize, Vec<(usize, usize)>);

    fn gen_landings(rng: &mut TestRng) -> Landings {
        let (len, seg) = gen_shape(rng);
        // Page-like pieces, aligned or not, in random order and not all of
        // them, plus arbitrary overlapping ranges.
        let piece = rng.range_usize(1, 4 * seg + 2);
        let skew = rng.range_usize(0, piece);
        let mut lands: Vec<(usize, usize)> = (0..len.div_ceil(piece) + 1)
            .map(|i| ((i * piece).saturating_sub(skew), piece))
            .collect();
        for _ in 0..rng.range_usize(0, 20) {
            lands.push((rng.range_usize(0, len), rng.range_usize(0, len + 1)));
        }
        for i in (1..lands.len()).rev() {
            lands.swap(i, rng.range_usize(0, i + 1));
        }
        lands.truncate(rng.range_usize(1, lands.len() + 1));
        (len, seg, lands)
    }

    #[test]
    fn mark_landed_equals_the_covers_loop() {
        check_with(
            &Config::from_env(),
            gen_landings,
            |_| Vec::new(),
            |(len, seg, lands): &Landings| {
                let (fast, slow) = (
                    SegDescriptor::new(*len, *seg),
                    SegDescriptor::new(*len, *seg),
                );
                let mut copied = IntervalSet::new();
                for &(off, n) in lands {
                    let end = (off + n).min(*len);
                    if end <= off {
                        continue;
                    }
                    copied.insert(off, end);
                    fast.mark_landed(&copied, off, end);
                    slow.mark_landed_covers_loop(&copied, off, end);
                    for i in 0..fast.num_segments() {
                        prop_assert!(
                            fast.is_marked(i) == slow.is_marked(i),
                            "segment {i} after landing [{off}, {end}) of len {len} seg {seg}"
                        );
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn segment_math_with_short_tail() {
        let d = SegDescriptor::new(2500, 1024);
        assert_eq!(d.num_segments(), 3);
        assert_eq!(d.segment_range(0), (0, 1024));
        assert_eq!(d.segment_range(2), (2048, 2500));
    }

    #[test]
    fn range_ready_requires_all_touched_segments() {
        let d = SegDescriptor::new(4096, 1024);
        d.mark(0);
        d.mark(1);
        assert!(d.range_ready(0, 2048));
        assert!(d.range_ready(100, 1000));
        assert!(!d.range_ready(2000, 100)); // crosses into segment 1..2? 2000+100 ends 2100 → segment 2
        assert!(!d.range_ready(0, 4096));
        d.mark(2);
        d.mark(3);
        assert!(d.all_ready());
        assert_eq!(d.ready_segments(), 4);
    }

    #[test]
    fn zero_len_query_is_trivially_ready() {
        let d = SegDescriptor::new(128, 64);
        assert!(d.range_ready(100, 0));
    }

    #[test]
    fn zero_len_descriptor_is_born_complete() {
        let d = SegDescriptor::new(0, 1024);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.num_segments(), 0);
        assert_eq!(d.ready_segments(), 0);
        assert!(d.all_ready(), "nothing to copy means already done");
        assert!(d.range_ready(0, 0));
        // Poisoning still works (e.g. taint cascade hits it at submit).
        d.poison(CopyFault::Aborted);
        assert_eq!(d.fault(), Some(CopyFault::Aborted));
        d.reset();
        assert_eq!(d.fault(), None);
        assert!(d.all_ready());
    }

    #[test]
    fn wide_descriptors_use_multiple_words() {
        let d = SegDescriptor::new(100 * 1024, 1024); // 100 segments
        for i in 0..100 {
            assert!(!d.is_marked(i));
            d.mark(i);
            assert!(d.is_marked(i));
        }
        assert!(d.all_ready());
    }

    #[test]
    fn poison_is_observable() {
        let d = SegDescriptor::new(64, 64);
        assert_eq!(d.fault(), None);
        d.poison(CopyFault::Segv);
        assert_eq!(d.fault(), Some(CopyFault::Segv));
    }

    #[test]
    fn delivery_claim_fires_exactly_once_until_reset() {
        let d = SegDescriptor::new(64, 64);
        assert!(!d.delivered());
        assert!(d.claim_delivery(), "first claim wins");
        assert!(!d.claim_delivery(), "duplicates are refused");
        assert!(d.delivered());
        d.reset();
        assert!(!d.delivered(), "reset re-arms the descriptor for reuse");
        assert!(d.claim_delivery());
    }
}
