//! Descriptor pool (§5.1 internal implementation).
//!
//! libCopier pre-allocates descriptors in size classes so that task
//! submission does not pay allocation on the fast path. A descriptor is
//! recycled once no in-flight copy references it (sole `Rc` owner). The
//! pool's tables are built by its first `take`: a tenant that copies only
//! through caller-owned descriptors, or never copies, holds one pointer.

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use copier_core::SegDescriptor;

/// Free descriptors keyed by `(len, segment)`.
type FreeMap = BTreeMap<(usize, usize), Vec<Rc<SegDescriptor>>>;

/// A pool of reusable descriptors keyed by `(len, segment)`.
#[derive(Default)]
pub struct DescriptorPool(OnceCell<Box<Tables>>);

/// What a pool holds once it has handed out a descriptor.
#[derive(Default)]
struct Tables {
    free: RefCell<FreeMap>,
    /// Descriptors handed out and awaiting recycling.
    busy: RefCell<Vec<Rc<SegDescriptor>>>,
    allocs: Cell<u64>,
    reuses: Cell<u64>,
}

impl DescriptorPool {
    /// Creates an empty pool; it allocates nothing until its first `take`.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Takes (or creates) a descriptor for a copy of `len` at `seg`.
    pub(crate) fn take(&self, len: usize, seg: usize) -> Rc<SegDescriptor> {
        let t = self.0.get_or_init(Box::default);
        let key = (len, seg);
        if let Some(d) = t.free.borrow_mut().get_mut(&key).and_then(Vec::pop) {
            d.reset();
            t.reuses.set(t.reuses.get() + 1);
            t.busy.borrow_mut().push(Rc::clone(&d));
            return d;
        }
        t.allocs.set(t.allocs.get() + 1);
        let d = Rc::new(SegDescriptor::new(len, seg));
        t.busy.borrow_mut().push(Rc::clone(&d));
        d
    }

    /// Recycles every busy descriptor no longer referenced elsewhere.
    pub(crate) fn recycle(&self) {
        let Some(t) = self.0.get() else {
            return;
        };
        let mut busy = t.busy.borrow_mut();
        let mut free = t.free.borrow_mut();
        busy.retain(|d| {
            // One Rc here; a second means the tracker/service still holds it.
            if Rc::strong_count(d) == 1 {
                free.entry((d.len(), d.segment_size()))
                    .or_default()
                    .push(Rc::clone(d));
                false
            } else {
                true
            }
        });
    }

    /// `(fresh allocations, reuses)` — reuse dominates under buffer
    /// recycling workloads.
    pub(crate) fn stats(&self) -> (u64, u64) {
        self.0
            .get()
            .map_or((0, 0), |t| (t.allocs.get(), t.reuses.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_returned_descriptors() {
        let p = DescriptorPool::new();
        let d1 = p.take(4096, 1024);
        d1.mark(0);
        drop(d1);
        p.recycle();
        let d2 = p.take(4096, 1024);
        assert!(!d2.is_marked(0), "recycled descriptor must be reset");
        assert_eq!(p.stats(), (1, 1));
    }

    #[test]
    fn distinct_classes_do_not_mix() {
        let p = DescriptorPool::new();
        let d1 = p.take(4096, 1024);
        drop(d1);
        p.recycle();
        let _d2 = p.take(8192, 1024);
        assert_eq!(p.stats(), (2, 0));
    }

    #[test]
    fn an_unused_pool_holds_one_pointer() {
        let p = DescriptorPool::new();
        assert_eq!(std::mem::size_of_val(&p), std::mem::size_of::<usize>());
        p.recycle();
        assert_eq!(p.stats(), (0, 0));
        assert!(p.0.get().is_none(), "recycle built the tables");
    }

    #[test]
    fn busy_descriptors_are_not_recycled() {
        let p = DescriptorPool::new();
        let d1 = p.take(4096, 1024);
        p.recycle();
        drop(d1);
        let _d2 = p.take(4096, 1024);
        // d1 was still alive at recycle time → fresh allocation.
        assert_eq!(p.stats(), (2, 0));
    }
}
