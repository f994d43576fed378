//! Address Translation Cache (§4.3).
//!
//! Copy addresses show high locality (recycled buffer pools, fixed I/O
//! buffers — the paper measures >75% recurrence in Redis), so Copier caches
//! the VA→physical-extent translation of whole buffers. A recycled buffer
//! is rarely copied at the same length twice, so the cache answers by
//! *containment*: an entry is keyed by the buffer's base address and covers
//! a length; any sub-range of it is a hit, served by slicing the shared
//! extents. Re-translating the same base at a greater length grows the
//! entry; nothing shrinks it.
//!
//! That locality is per application, so the cache is too: every address
//! space ([`AddressSpace::instance`]) that has been translated owns one
//! table, bounded by the cache's capacity and evicted FIFO on its own. A
//! tenant cycling through its pool can push out only its own entries,
//! kernel-buffer churn cannot push out user buffers, and the hit rate of a
//! fleet is the hit rate of its tenants, however many there are.
//!
//! Three things keep a hit truthful:
//!
//! * a table belongs to an address-space *instance*, so a later space that
//!   re-uses the id can never be handed a dead process's frames;
//! * a table dies with its space: [`ATCache::purge`] drops it when its
//!   client is reaped, and the tables of spaces that went away any other
//!   way (a forked child, a binder peer, a process exit) are swept when
//!   new ones are made;
//! * a table carries the space's *generation*: any mapping change bumps it
//!   and thereby invalidates every cached translation of that space, so the
//!   first lookup or insert that sees a newer generation empties the table.
//!
//! A translation resolved for reading says nothing about write access
//! (the page may be CoW-shared or its mapping read-only), so each entry
//! also remembers how much of it was resolved for writing, and a write
//! lookup hits only inside that prefix.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::{Rc, Weak};

use copier_mem::{AddressSpace, Extent, VirtAddr};

use crate::units::slice_extents_into;

struct Entry {
    /// Bytes from the base the extents translate.
    covered: usize,
    /// Prefix of `covered` that was resolved for writing.
    write_covered: usize,
    extents: Rc<[Extent]>,
}

/// Lookup and replacement counters, summed over every space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtcStats {
    /// Lookups that returned a valid translation.
    pub hits: u64,
    /// Lookups that did not (nothing covers the range, or what did was
    /// stale).
    pub misses: u64,
    /// Live entries pushed out of their space's table by capacity, oldest
    /// first.
    pub evictions: u64,
    /// Entries dropped because their generation had passed.
    pub stale: u64,
}

impl AtcStats {
    /// Hits per lookup; 0 before the first lookup.
    pub fn hit_frac(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

/// One address space's translations, all captured at `generation`.
/// `order` lists exactly the keys of `map`, each once, oldest first.
struct SpaceTable {
    owner: Weak<AddressSpace>,
    generation: u64,
    /// Base va → entry.
    map: BTreeMap<u64, Entry>,
    order: VecDeque<u64>,
}

impl SpaceTable {
    /// Empties the table if the space's mappings changed since its entries
    /// were captured; returns how many entries that dropped.
    fn refresh(&mut self, generation: u64) -> u64 {
        if self.generation == generation {
            return 0;
        }
        self.generation = generation;
        self.order.clear();
        let dropped = self.map.len() as u64;
        self.map.clear();
        dropped
    }
}

/// A translation cache of one bounded FIFO table per address space;
/// `capacity` counts buffers (entries) per space.
///
/// Memory bound: entries that can still hit ≤ live touched spaces ×
/// `capacity`. A space is *touched* once a translation of it is inserted
/// (a registered tenant that never copies owns nothing here). The table of
/// a dead space can never hit (instances are never re-used); it goes at
/// `purge`, or else at the first new table after the number of tables has
/// doubled since the last sweep, so there are never more than 2 × the
/// touched spaces live at that sweep + 1 tables.
pub struct ATCache {
    capacity: usize,
    /// [`AddressSpace::instance`] → that space's table.
    tables: RefCell<BTreeMap<u64, SpaceTable>>,
    /// Table count at which the next new table first sweeps dead ones.
    sweep_at: Cell<usize>,
    stats: Cell<AtcStats>,
}

impl ATCache {
    /// Creates a cache holding up to `capacity` buffer translations per
    /// address space; 0 turns it off (the Fig. 9 ablation).
    pub fn new(capacity: usize) -> Self {
        ATCache {
            capacity,
            tables: RefCell::new(BTreeMap::new()),
            sweep_at: Cell::new(0),
            stats: Cell::new(AtcStats::default()),
        }
    }

    fn count(&self, f: impl FnOnce(&mut AtcStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// [`Self::lookup_into`] into a fresh vector: the unit tests' spelling.
    #[cfg(test)]
    pub fn lookup(
        &self,
        asp: &AddressSpace,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Option<Vec<Extent>> {
        let mut out = Vec::new();
        self.lookup_into(asp, va, len, write, &mut out)
            .then_some(out)
    }

    /// Looks up the cached translation of `[va, va+len)`: a hit if this
    /// space's entry with the greatest base at or below `va` covers the
    /// range (for `write`, inside its write-resolved prefix) and the
    /// space's mappings have not changed since; if they have, its table
    /// is emptied. On a hit `out` holds the translation and the call is
    /// true; on a miss `out` is unchanged.
    pub fn lookup_into(
        &self,
        asp: &AddressSpace,
        va: VirtAddr,
        len: usize,
        write: bool,
        out: &mut Vec<Extent>,
    ) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut tables = self.tables.borrow_mut();
        let hit = tables.get_mut(&asp.instance()).is_some_and(|t| {
            let stale = t.refresh(asp.generation());
            self.count(|s| s.stale += stale);
            let Some((&base, e)) = t.map.range(..=va.0).next_back() else {
                return false;
            };
            let off = va.0 - base;
            let limit = if write { e.write_covered } else { e.covered } as u64;
            let covered = off <= limit && len as u64 <= limit - off;
            if covered {
                slice_extents_into(&e.extents, off as usize, len, out);
            }
            covered
        });
        self.count(|s| if hit { s.hits += 1 } else { s.misses += 1 });
        hit
    }

    /// Records the translation of `[va, va+len)` captured at the space's
    /// current generation (`write`: resolved for writing). An entry at the
    /// same base grows to the longer of the two; it never shrinks. A
    /// space's first insert makes its table.
    pub fn insert(
        &self,
        asp: &Rc<AddressSpace>,
        va: VirtAddr,
        len: usize,
        write: bool,
        extents: &[Extent],
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut tables = self.tables.borrow_mut();
        if !tables.contains_key(&asp.instance()) && tables.len() >= self.sweep_at.get() {
            tables.retain(|_, t| t.owner.strong_count() > 0);
            self.sweep_at.set(2 * tables.len() + 1);
        }
        let t = tables.entry(asp.instance()).or_insert_with(|| SpaceTable {
            owner: Rc::downgrade(asp),
            generation: asp.generation(),
            map: BTreeMap::new(),
            order: VecDeque::new(),
        });
        let stale = t.refresh(asp.generation());
        self.count(|s| s.stale += stale);
        if let Some(e) = t.map.get_mut(&va.0) {
            // Same generation, same page table: the longer translation
            // extends the shorter one frame for frame.
            if len > e.covered {
                e.covered = len;
                e.extents = extents.into();
            }
            if write {
                e.write_covered = e.write_covered.max(len);
            }
            return;
        }
        t.map.insert(
            va.0,
            Entry {
                covered: len,
                write_covered: if write { len } else { 0 },
                extents: extents.into(),
            },
        );
        t.order.push_back(va.0);
        if t.map.len() > self.capacity {
            let old = t.order.pop_front().expect("order lists every key of map");
            t.map.remove(&old);
            self.count(|s| s.evictions += 1);
        }
        debug_assert_eq!(t.order.len(), t.map.len());
    }

    /// Drops this address-space instance's table (its owner died).
    pub fn purge(&self, asp: &AddressSpace) {
        self.tables.borrow_mut().remove(&asp.instance());
    }

    /// Tables currently held, dead spaces' not yet swept included.
    pub fn tables(&self) -> usize {
        self.tables.borrow().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AtcStats {
        self.stats.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_mem::{AllocPolicy, PhysMem, Prot, PAGE_SIZE};

    fn pool() -> Rc<PhysMem> {
        Rc::new(PhysMem::new(64, AllocPolicy::Scattered))
    }

    fn space() -> Rc<AddressSpace> {
        AddressSpace::new(1, pool())
    }

    /// Resolves `[va, va+len)` and caches it, like the service's miss path.
    fn fill(atc: &ATCache, asp: &Rc<AddressSpace>, va: VirtAddr, len: usize, write: bool) {
        let (ex, _) = asp.resolve_range(va, len, write).unwrap();
        atc.insert(asp, va, len, write, &ex);
    }

    #[test]
    fn sub_ranges_of_a_cached_buffer_hit() {
        let asp = space();
        let va = asp.mmap(4 * PAGE_SIZE, Prot::RW, true).unwrap();
        let atc = ATCache::new(8);
        assert!(atc.lookup(&asp, va, 4 * PAGE_SIZE, false).is_none());
        fill(&atc, &asp, va, 4 * PAGE_SIZE, false);
        for (off, len) in [
            (0, 4 * PAGE_SIZE),
            (0, 100),
            (PAGE_SIZE + 7, 5000),
            (4 * PAGE_SIZE, 0),
        ] {
            assert_eq!(
                atc.lookup(&asp, va.add(off), len, false),
                Some(asp.extents(va.add(off), len).unwrap()),
                "off {off} len {len}"
            );
        }
        assert!(atc.lookup(&asp, va.add(1), 4 * PAGE_SIZE, false).is_none());
        assert_eq!(
            atc.stats(),
            AtcStats {
                hits: 4,
                misses: 2,
                ..AtcStats::default()
            }
        );
    }

    #[test]
    fn entries_grow_and_never_shrink() {
        let asp = space();
        let va = asp.mmap(4 * PAGE_SIZE, Prot::RW, true).unwrap();
        let atc = ATCache::new(8);
        fill(&atc, &asp, va, PAGE_SIZE, false);
        assert!(atc.lookup(&asp, va, 2 * PAGE_SIZE, false).is_none());
        fill(&atc, &asp, va, 3 * PAGE_SIZE, false);
        fill(&atc, &asp, va, 100, false);
        assert_eq!(
            atc.lookup(&asp, va.add(PAGE_SIZE), 2 * PAGE_SIZE, false),
            Some(asp.extents(va.add(PAGE_SIZE), 2 * PAGE_SIZE).unwrap())
        );
    }

    #[test]
    fn write_lookups_hit_only_what_was_resolved_for_writing() {
        let asp = space();
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        // Fork leaves the parent's pages CoW-shared: a read translation
        // names frames a write must not touch.
        let _child = asp.fork(2).unwrap();
        let atc = ATCache::new(8);
        fill(&atc, &asp, va, 2 * PAGE_SIZE, false);
        assert!(atc.lookup(&asp, va, PAGE_SIZE, false).is_some());
        assert!(atc.lookup(&asp, va, PAGE_SIZE, true).is_none());
        // The write resolve breaks CoW (new generation, new frames).
        fill(&atc, &asp, va, PAGE_SIZE, true);
        assert_eq!(
            atc.lookup(&asp, va, PAGE_SIZE, true),
            Some(asp.extents(va, PAGE_SIZE).unwrap())
        );
        // Reads may use the write-resolved prefix; writes stop at its end.
        fill(&atc, &asp, va, 2 * PAGE_SIZE, false);
        assert!(atc.lookup(&asp, va, 2 * PAGE_SIZE, false).is_some());
        assert!(atc.lookup(&asp, va, 2 * PAGE_SIZE, true).is_none());
    }

    #[test]
    fn stale_entries_are_dropped_where_they_are_found() {
        let asp = space();
        let a = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let b = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let atc = ATCache::new(2);
        fill(&atc, &asp, a, PAGE_SIZE, false);
        // Any mapping change (here: a new mmap) bumps the generation.
        let c = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        assert!(atc.lookup(&asp, a, PAGE_SIZE, false).is_none());
        assert_eq!(atc.stats().stale, 1);
        // The dead entry holds no slot: two live ones fit beside it.
        fill(&atc, &asp, b, PAGE_SIZE, false);
        fill(&atc, &asp, c, PAGE_SIZE, false);
        assert!(atc.lookup(&asp, b, PAGE_SIZE, false).is_some());
        assert!(atc.lookup(&asp, c, PAGE_SIZE, false).is_some());
        assert_eq!(atc.stats().evictions, 0);
    }

    #[test]
    fn a_refreshed_key_queues_at_the_back() {
        let asp = space();
        let a = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let b = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let atc = ATCache::new(2);
        fill(&atc, &asp, a, PAGE_SIZE, false);
        let c = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        fill(&atc, &asp, b, PAGE_SIZE, false);
        // `a` is re-inserted over its stale self without a lookup between:
        // it is the youngest entry now, so `b` goes first.
        fill(&atc, &asp, a, PAGE_SIZE, false);
        fill(&atc, &asp, c, PAGE_SIZE, false);
        assert!(atc.lookup(&asp, b, PAGE_SIZE, false).is_none(), "evicted");
        assert!(atc.lookup(&asp, a, PAGE_SIZE, false).is_some());
        assert!(atc.lookup(&asp, c, PAGE_SIZE, false).is_some());
        assert_eq!((atc.stats().stale, atc.stats().evictions), (1, 1));
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let asp = space();
        let atc = ATCache::new(2);
        let vas: Vec<_> = (0..3)
            .map(|_| asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap())
            .collect();
        // Insert after all mmaps so generations stay valid.
        for &va in &vas {
            fill(&atc, &asp, va, PAGE_SIZE, false);
        }
        assert!(
            atc.lookup(&asp, vas[0], PAGE_SIZE, false).is_none(),
            "evicted"
        );
        assert!(atc.lookup(&asp, vas[1], PAGE_SIZE, false).is_some());
        assert!(atc.lookup(&asp, vas[2], PAGE_SIZE, false).is_some());
        assert_eq!(atc.stats().evictions, 1);
    }

    #[test]
    fn capacity_zero_never_hits() {
        let asp = space();
        let va = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let atc = ATCache::new(0);
        fill(&atc, &asp, va, PAGE_SIZE, false);
        assert!(atc.lookup(&asp, va, PAGE_SIZE, false).is_none());
    }

    /// Regression: freshness used to be `(AsId, generation)`, so a new
    /// process with a recycled id, the same VA layout and the same number
    /// of mapping changes was handed the dead process's frames.
    #[test]
    fn a_reused_space_id_never_sees_the_old_instance() {
        let pm = pool();
        let atc = ATCache::new(8);
        let old = AddressSpace::new(7, Rc::clone(&pm));
        let va = old.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        fill(&atc, &old, va, PAGE_SIZE, false);
        let generation = old.generation();
        drop(old);
        let new = AddressSpace::new(7, pm);
        assert_eq!(new.mmap(PAGE_SIZE, Prot::RW, true).unwrap(), va);
        assert_eq!(new.generation(), generation);
        assert!(atc.lookup(&new, va, PAGE_SIZE, false).is_none());
    }

    #[test]
    fn purge_drops_one_instance_only() {
        let pm = pool();
        let atc = ATCache::new(2);
        let (a, b) = (
            AddressSpace::new(1, Rc::clone(&pm)),
            AddressSpace::new(2, pm),
        );
        let va = a.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let vb = b.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        fill(&atc, &a, va, PAGE_SIZE, false);
        fill(&atc, &b, vb, PAGE_SIZE, false);
        atc.purge(&a);
        assert_eq!(atc.tables(), 1);
        assert!(atc.lookup(&a, va, PAGE_SIZE, false).is_none());
        assert!(atc.lookup(&b, vb, PAGE_SIZE, false).is_some());
    }

    #[test]
    fn a_space_evicts_only_its_own_entries() {
        let pm = pool();
        let atc = ATCache::new(2);
        let (a, b) = (
            AddressSpace::new(1, Rc::clone(&pm)),
            AddressSpace::new(2, pm),
        );
        let va = a.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        let vbs: Vec<_> = (0..8)
            .map(|_| b.mmap(PAGE_SIZE, Prot::RW, true).unwrap())
            .collect();
        fill(&atc, &a, va, PAGE_SIZE, false);
        for &vb in &vbs {
            fill(&atc, &b, vb, PAGE_SIZE, false);
        }
        assert_eq!(atc.stats().evictions, 6);
        assert!(atc.lookup(&a, va, PAGE_SIZE, false).is_some());
        assert!(atc.lookup(&b, vbs[5], PAGE_SIZE, false).is_none());
        assert!(atc.lookup(&b, vbs[6], PAGE_SIZE, false).is_some());
    }

    #[test]
    fn a_dropped_space_takes_its_table_with_it() {
        let pm = pool();
        let atc = ATCache::new(2);
        let keeper = AddressSpace::new(1, Rc::clone(&pm));
        let vk = keeper.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
        fill(&atc, &keeper, vk, PAGE_SIZE, false);
        for id in 2..100 {
            // Nobody reaps these: the space just goes away.
            let asp = AddressSpace::new(id, Rc::clone(&pm));
            let va = asp.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
            fill(&atc, &asp, va, PAGE_SIZE, false);
            assert!(atc.tables() <= 3, "{} tables", atc.tables());
        }
        assert!(atc.lookup(&keeper, vk, PAGE_SIZE, false).is_some());
    }
}
