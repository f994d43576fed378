//! Byte-interval bookkeeping for partially completed copies.
//!
//! Copy progress arrives out of order (DMA tails can land before AVX
//! middles), so each in-flight task tracks the set of copied byte ranges
//! and derives which fixed-size *segments* are fully covered — those are
//! the bits set in the task's descriptor (§4.1).

/// A set of disjoint half-open byte intervals, kept sorted and merged.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    /// Disjoint, sorted, non-adjacent `(start, end)` pairs.
    ranges: Vec<(usize, usize)>,
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> Self {
        IntervalSet { ranges: Vec::new() }
    }

    /// A set containing one interval.
    pub fn from_range(start: usize, end: usize) -> Self {
        let mut s = Self::new();
        s.insert(start, end);
        s
    }

    /// Inserts `[start, end)`, merging neighbours. Returns the number of
    /// bytes newly covered (0 if the range was already fully present) so
    /// callers can maintain incremental byte aggregates without a rescan.
    ///
    /// Binary-searches the touched window (the ranges overlapping or
    /// adjacent to the insertion), so progress bookkeeping on a task with
    /// many disjoint landed pieces costs O(log n) plus the size of that
    /// window — not a scan of every piece.
    pub fn insert(&mut self, start: usize, end: usize) -> usize {
        if start >= end {
            return 0;
        }
        // First range that can merge: end >= start (adjacency included).
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        // Window of mergeable ranges: they begin at or before `end`. The
        // window is almost always 0–2 ranges, so a linear walk from `lo`
        // beats a second binary search.
        let mut hi = lo;
        while hi < self.ranges.len() && self.ranges[hi].0 <= end {
            hi += 1;
        }
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return end - start;
        }
        let absorbed: usize = self.ranges[lo..hi].iter().map(|&(s, e)| e - s).sum();
        let merged = (start.min(self.ranges[lo].0), end.max(self.ranges[hi - 1].1));
        self.ranges[lo] = merged;
        if hi - lo > 1 {
            self.ranges.drain(lo + 1..hi);
        }
        (merged.1 - merged.0) - absorbed
    }

    /// Removes `[start, end)` from the set. Returns the number of bytes
    /// actually removed (0 if the range was disjoint from the set).
    pub fn remove(&mut self, start: usize, end: usize) -> usize {
        if start >= end {
            return 0;
        }
        // Window of ranges intersecting the removal (strict overlap only).
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let mut hi = lo;
        while hi < self.ranges.len() && self.ranges[hi].0 < end {
            hi += 1;
        }
        if lo == hi {
            return 0;
        }
        let removed: usize = self.ranges[lo..hi]
            .iter()
            .map(|&(s, e)| e.min(end) - s.max(start))
            .sum();
        // Up to two boundary slivers survive. They are written over the
        // window's own slots; what is left of the window goes, and only a
        // hole punched into a single range has to open a new slot.
        let (s_first, _) = self.ranges[lo];
        let (_, e_last) = self.ranges[hi - 1];
        let left = (s_first < start).then_some((s_first, start));
        let right = (e_last > end).then_some((end, e_last));
        let mut at = lo;
        for sliver in left.into_iter().chain(right) {
            if at < hi {
                self.ranges[at] = sliver;
            } else {
                self.ranges.insert(at, sliver);
            }
            at += 1;
        }
        self.ranges.drain(at.min(hi)..hi);
        removed
    }

    /// Whether `[start, end)` is fully contained.
    pub fn covers(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return true;
        }
        // Only the last range starting at or before `start` can contain
        // the query (ranges are disjoint and sorted).
        let i = self.ranges.partition_point(|&(s, _)| s <= start);
        i > 0 && self.ranges[i - 1].1 >= end
    }

    /// Whether `[start, end)` intersects the set at all.
    pub fn intersects(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        // First range ending after `start` is the only candidate.
        let i = self.ranges.partition_point(|&(_, e)| e <= start);
        i < self.ranges.len() && self.ranges[i].0 < end
    }

    /// Total bytes covered.
    pub fn total(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The parts of `[start, end)` *not* covered by the set, in order.
    pub fn gaps(&self, start: usize, end: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        // Skip straight to the first range that can affect the query; the
        // closing `(end, end)` ends the gap after the last one.
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let mut cur = start;
        self.ranges[lo..]
            .iter()
            .copied()
            .take_while(move |&(s, _)| s < end)
            .chain(std::iter::once((end, end)))
            .filter_map(move |(s, e)| {
                let gap = (s > cur).then_some((cur, s));
                cur = cur.max(e);
                gap
            })
    }

    /// The parts of `[start, end)` covered by the set, in order.
    pub fn overlaps(&self, start: usize, end: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let first = self.ranges.partition_point(|&(_, e)| e <= start);
        self.ranges[first..]
            .iter()
            .take_while(move |&&(s, _)| s < end)
            .map(move |&(s, e)| (s.max(start), e.min(end)))
            .filter(|&(lo, hi)| lo < hi)
    }

    /// The end of the stored range containing `pos`, if any. Lets callers
    /// skip covered prefixes without materializing gap lists.
    pub(crate) fn end_of_covering_range(&self, pos: usize) -> Option<usize> {
        self.range_containing(pos).map(|(_, e)| e)
    }

    /// The stored range containing `pos`, if any.
    pub(crate) fn range_containing(&self, pos: usize) -> Option<(usize, usize)> {
        let i = self.ranges.partition_point(|&(s, _)| s <= pos);
        (i > 0 && self.ranges[i - 1].1 > pos).then(|| self.ranges[i - 1])
    }

    /// Iterates the stored ranges.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.ranges.iter().copied()
    }
}

/// Do two half-open ranges overlap?
pub fn ranges_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.1 && b.0 < a.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_overlapping_and_adjacent() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        s.insert(20, 30); // bridges the two
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 40)]);
        s.insert(5, 12);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(5, 40)]);
        assert_eq!(s.total(), 35);
    }

    #[test]
    fn covers_and_intersects() {
        let mut s = IntervalSet::new();
        s.insert(0, 100);
        s.insert(200, 300);
        assert!(s.covers(0, 100));
        assert!(s.covers(10, 90));
        assert!(!s.covers(50, 150));
        assert!(!s.covers(100, 200));
        assert!(s.intersects(90, 110));
        assert!(!s.intersects(100, 200));
        assert!(s.covers(5, 5), "empty range always covered");
    }

    #[test]
    fn gaps_enumerates_missing_parts() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        let gaps = |s: &IntervalSet, lo, hi| s.gaps(lo, hi).collect::<Vec<_>>();
        assert_eq!(gaps(&s, 0, 50), vec![(0, 10), (20, 30), (40, 50)]);
        assert_eq!(gaps(&s, 12, 18), vec![]);
        assert_eq!(gaps(&s, 15, 35), vec![(20, 30)]);
        assert_eq!(gaps(&IntervalSet::new(), 3, 7), vec![(3, 7)]);
    }

    #[test]
    fn overlaps_enumerates_present_parts() {
        let mut s = IntervalSet::new();
        s.insert(10, 20);
        s.insert(30, 40);
        assert_eq!(
            s.overlaps(15, 35).collect::<Vec<_>>(),
            vec![(15, 20), (30, 35)]
        );
        assert_eq!(s.overlaps(0, 5).count(), 0);
    }

    #[test]
    fn remove_splits_ranges() {
        let mut s = IntervalSet::from_range(0, 100);
        s.remove(40, 60);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 40), (60, 100)]);
        s.remove(0, 10);
        s.remove(90, 200);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(10, 40), (60, 90)]);
        assert_eq!(s.total(), 60);
    }

    #[test]
    fn random_ops_match_bitset_model() {
        // Cross-check against a naive bit vector.
        let mut s = IntervalSet::new();
        let mut model = vec![false; 512];
        let mut seed = 0xDEADBEEFu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..300 {
            let a = (rnd() % 512) as usize;
            let b = (rnd() % 512) as usize;
            let (lo, hi) = (a.min(b), a.max(b));
            if rnd() % 3 == 0 {
                let delta = s.remove(lo, hi);
                let expect = model[lo..hi].iter().filter(|&&b| b).count();
                assert_eq!(delta, expect, "remove({lo},{hi}) delta");
                model[lo..hi].iter_mut().for_each(|x| *x = false);
            } else {
                let delta = s.insert(lo, hi);
                let expect = model[lo..hi].iter().filter(|&&b| !b).count();
                assert_eq!(delta, expect, "insert({lo},{hi}) delta");
                model[lo..hi].iter_mut().for_each(|x| *x = true);
            }
            let stored: Vec<_> = s.iter().collect();
            assert!(
                stored.iter().all(|&(a, b)| a < b) && stored.windows(2).all(|w| w[0].1 < w[1].0),
                "not sorted, disjoint and non-adjacent: {stored:?}"
            );
            let total_model = model.iter().filter(|&&b| b).count();
            assert_eq!(s.total(), total_model);
            let q = (rnd() % 512) as usize;
            let r = ((q + (rnd() % 64) as usize).min(512)).max(q);
            let cov_model = model[q..r].iter().all(|&b| b);
            assert_eq!(s.covers(q, r), cov_model, "covers({q},{r})");
        }
    }
}
