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
//! Two things keep a hit truthful:
//!
//! * entries belong to an address-space *instance*
//!   ([`AddressSpace::instance`]), so a later space that re-uses the id
//!   can never be handed a dead process's frames, and [`ATCache::purge`]
//!   drops an instance's entries when its client is reaped;
//! * entries carry the space's *generation*: any mapping change bumps it
//!   and thereby invalidates every cached translation of that space. A
//!   stale entry is dropped by the lookup that finds it.
//!
//! A translation resolved for reading says nothing about write access
//! (the page may be CoW-shared or its mapping read-only), so each entry
//! also remembers how much of it was resolved for writing, and a write
//! lookup hits only inside that prefix.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use copier_mem::{AddressSpace, Extent, VirtAddr};

use crate::units::slice_extents;

/// `(address-space instance, base va)`.
type Key = (u64, u64);

struct Entry {
    generation: u64,
    /// Bytes from the base the extents translate.
    covered: usize,
    /// Prefix of `covered` that was resolved for writing.
    write_covered: usize,
    extents: Rc<[Extent]>,
}

/// Lookup and replacement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtcStats {
    /// Lookups that returned a valid translation.
    pub hits: u64,
    /// Lookups that did not (nothing covers the range, or what did was
    /// stale).
    pub misses: u64,
    /// Live entries pushed out by capacity, oldest first.
    pub evictions: u64,
    /// Entries dropped because their generation had passed.
    pub stale: u64,
}

/// `order` lists exactly the keys of `map`, each once, oldest first.
#[derive(Default)]
struct Table {
    map: BTreeMap<Key, Entry>,
    order: VecDeque<Key>,
}

impl Table {
    fn remove(&mut self, key: Key) {
        self.map.remove(&key);
        if let Some(i) = self.order.iter().position(|&k| k == key) {
            self.order.remove(i);
        }
        debug_assert_eq!(self.order.len(), self.map.len());
    }
}

/// A bounded FIFO translation cache; `capacity` counts buffers (entries).
pub struct ATCache {
    capacity: usize,
    table: RefCell<Table>,
    stats: Cell<AtcStats>,
}

impl ATCache {
    /// Creates a cache holding up to `capacity` buffer translations; 0
    /// turns it off (the Fig. 9 ablation).
    pub fn new(capacity: usize) -> Self {
        ATCache {
            capacity,
            table: RefCell::new(Table::default()),
            stats: Cell::new(AtcStats::default()),
        }
    }

    fn count(&self, f: impl FnOnce(&mut AtcStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// The cached translation of `[va, va+len)`, if the entry with the
    /// greatest base at or below `va` in this space is fresh and covers the
    /// range (for `write`, inside its write-resolved prefix). Stale entries
    /// met on the way are dropped.
    pub fn lookup(
        &self,
        asp: &AddressSpace,
        va: VirtAddr,
        len: usize,
        write: bool,
    ) -> Option<Vec<Extent>> {
        if self.capacity == 0 {
            return None;
        }
        let inst = asp.instance();
        let mut t = self.table.borrow_mut();
        let hit = loop {
            let Some((&key, e)) = t.map.range((inst, 0)..=(inst, va.0)).next_back() else {
                break None;
            };
            if e.generation != asp.generation() {
                t.remove(key);
                self.count(|s| s.stale += 1);
                continue;
            }
            let off = va.0 - key.1;
            let limit = if write { e.write_covered } else { e.covered } as u64;
            break (off <= limit && len as u64 <= limit - off)
                .then(|| slice_extents(&e.extents, off as usize, len));
        };
        self.count(|s| match hit {
            Some(_) => s.hits += 1,
            None => s.misses += 1,
        });
        hit
    }

    /// Records the translation of `[va, va+len)` captured at the space's
    /// current generation (`write`: resolved for writing). A fresh entry
    /// at the same base grows to the longer of the two; it never shrinks.
    pub fn insert(
        &self,
        asp: &AddressSpace,
        va: VirtAddr,
        len: usize,
        write: bool,
        extents: &[Extent],
    ) {
        if self.capacity == 0 {
            return;
        }
        let key = (asp.instance(), va.0);
        let generation = asp.generation();
        let mut t = self.table.borrow_mut();
        match t.map.get_mut(&key) {
            // Same generation, same page table: the longer translation
            // extends the shorter one frame for frame.
            Some(e) if e.generation == generation => {
                if len > e.covered {
                    e.covered = len;
                    e.extents = extents.into();
                }
                if write {
                    e.write_covered = e.write_covered.max(len);
                }
                return;
            }
            // A dead translation under this key gives its successor no
            // seniority: the new entry queues at the back.
            Some(_) => {
                t.remove(key);
                self.count(|s| s.stale += 1);
            }
            None => {}
        }
        t.map.insert(
            key,
            Entry {
                generation,
                covered: len,
                write_covered: if write { len } else { 0 },
                extents: extents.into(),
            },
        );
        t.order.push_back(key);
        while t.map.len() > self.capacity {
            let old = t.order.pop_front().expect("order lists every key of map");
            t.map.remove(&old);
            self.count(|s| s.evictions += 1);
        }
        debug_assert_eq!(t.order.len(), t.map.len());
    }

    /// Drops every entry of this address-space instance (its owner died).
    pub fn purge(&self, asp: &AddressSpace) {
        let inst = asp.instance();
        let mut t = self.table.borrow_mut();
        let Table { map, order } = &mut *t;
        order.retain(|&(i, _)| i != inst);
        map.retain(|&(i, _), _| i != inst);
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
    fn fill(atc: &ATCache, asp: &AddressSpace, va: VirtAddr, len: usize, write: bool) {
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
        assert!(atc.lookup(&a, va, PAGE_SIZE, false).is_none());
        assert!(atc.lookup(&b, vb, PAGE_SIZE, false).is_some());
        // The freed slot is usable: nothing is evicted to refill it.
        fill(&atc, &a, va, PAGE_SIZE, false);
        assert!(atc.lookup(&b, vb, PAGE_SIZE, false).is_some());
        assert_eq!(atc.stats().evictions, 0);
    }
}
