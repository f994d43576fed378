//! Copier scheduler and the `copier` cgroup controller (§4.5.2–§4.5.3).
//!
//! Copy is managed as a first-class resource whose unit is *copy length* —
//! not CPU time, whose correspondence to work varies with cache/TLB state.
//! Each Copier thread serves its runnable clients in CFS-like order: the
//! cgroup with the minimum share-weighted copied length first, then the
//! client with the minimum total copied length inside it. A *copy slice*
//! bounds the bytes served per scheduling decision — one round walks that
//! order until the slice is spent ([`RunOrder`]).

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use copier_sim::Nanos;

use crate::client::Client;

/// Default copy slice: maximum bytes served per scheduling round.
pub const DEFAULT_COPY_SLICE: usize = 256 * 1024;

/// Whether vruntime `a` is before `b` under wrap-around — the CFS
/// `(s64)(a - b) < 0` idiom. The copied-length accumulators are monotone
/// u64 counters that wrap on long-lived services; a direct `<` would then
/// rank the freshly wrapped (most-served) client as least-served and pin
/// the scheduler to it. Correct as long as no two live vruntimes are more
/// than `u64::MAX / 2` apart, which the copy-slice bound guarantees.
pub fn vruntime_before(a: u64, b: u64) -> bool {
    (a.wrapping_sub(b) as i64) < 0
}

/// The wrap-safe minimum copied-length vruntime among live `clients`
/// (`None` if all are dead). Shards publish this at the round barrier so
/// peers can keep the least-served exemption global without scanning
/// each other's client lists (DESIGN.md §17).
pub fn min_live_vruntime<'a>(clients: impl IntoIterator<Item = &'a Rc<Client>>) -> Option<u64> {
    let mut min: Option<u64> = None;
    for c in clients {
        if c.dead.get() {
            continue;
        }
        let v = c.copied_total.get();
        min = Some(match min {
            None => v,
            Some(m) if vruntime_before(v, m) => v,
            Some(m) => m,
        });
    }
    min
}

/// One control group with a `copier.shares` weight.
pub struct CGroup {
    /// Human-readable name.
    pub name: String,
    /// Relative share of Copier resources (like `cpu.shares`).
    pub shares: Cell<u64>,
    /// Share-weighted copied length (the cgroup vruntime).
    pub vruntime: Cell<u64>,
}

/// One round's service order, built by [`Scheduler::order_into`]: the
/// runnable clients' positions in the assignment list, popped
/// least-served first. Reused across rounds (the heap keeps its buffer).
#[derive(Default)]
pub struct RunOrder {
    /// Min-heap on (cgroup vruntime, client vruntime, position), the
    /// vruntimes as wrap-safe distances from the first candidate's.
    heap: BinaryHeap<Reverse<(i64, i64, usize)>>,
}

impl RunOrder {
    /// The next client to serve, as its position in the `clients` slice
    /// the order was built from.
    pub fn pop(&mut self) -> Option<usize> {
        self.heap.pop().map(|Reverse((_, _, pos))| pos)
    }
}

/// The per-service scheduler.
pub struct Scheduler {
    cgroups: RefCell<Vec<Rc<CGroup>>>,
    copy_slice: Cell<usize>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    /// Creates a scheduler with a single default cgroup (shares = 1024).
    pub fn new() -> Self {
        let s = Scheduler {
            cgroups: RefCell::new(Vec::new()),
            copy_slice: Cell::new(DEFAULT_COPY_SLICE),
        };
        s.create_cgroup("default", 1024);
        s
    }

    /// Creates a cgroup; returns its id.
    pub fn create_cgroup(&self, name: &str, shares: u64) -> usize {
        let mut g = self.cgroups.borrow_mut();
        g.push(Rc::new(CGroup {
            name: name.to_string(),
            shares: Cell::new(shares.max(1)),
            vruntime: Cell::new(0),
        }));
        g.len() - 1
    }

    /// Adjusts `copier.shares` of a cgroup.
    pub fn set_shares(&self, cgroup: usize, shares: u64) {
        self.cgroups.borrow()[cgroup].shares.set(shares.max(1));
    }

    /// The cgroup handle (for inspection).
    pub fn cgroup(&self, id: usize) -> Rc<CGroup> {
        Rc::clone(&self.cgroups.borrow()[id])
    }

    /// Sets the copy slice.
    pub fn set_copy_slice(&self, bytes: usize) {
        self.copy_slice.set(bytes.max(4096));
    }

    /// Current copy slice.
    pub fn copy_slice(&self) -> usize {
        self.copy_slice.get()
    }

    /// Fills `order` with the service order of one round: every client in
    /// `clients` with work at `now`, least-served first.
    ///
    /// Two-level min-vruntime: cgroup first (share-weighted), then client,
    /// ties to the earlier position in `clients`. The keys are read once,
    /// here — charges made while the round serves the order do not
    /// re-rank it. O(clients) to build; each [`RunOrder::pop`] is
    /// O(log runnable), so a round that spends its slice on the first few
    /// clients never sorts the rest.
    pub fn order_into(
        &self,
        clients: &[Rc<Client>],
        now: Nanos,
        lazy_period: Nanos,
        order: &mut RunOrder,
    ) {
        let groups = self.cgroups.borrow();
        let mut keys = std::mem::take(&mut order.heap).into_vec();
        keys.clear();
        // Vruntimes are ranked by their signed distance from the first
        // candidate's — `vruntime_before` made a total order, exact under
        // the same bound (no two live vruntimes `u64::MAX / 2` apart).
        let mut base: Option<(u64, u64)> = None;
        for (pos, c) in clients.iter().enumerate() {
            if !c.has_work(now, lazy_period) {
                continue;
            }
            let gv = groups
                .get(c.cgroup.get())
                .map(|g| g.vruntime.get())
                .unwrap_or(0);
            let cv = c.copied_total.get();
            let (bg, bc) = *base.get_or_insert((gv, cv));
            keys.push(Reverse((
                gv.wrapping_sub(bg) as i64,
                cv.wrapping_sub(bc) as i64,
                pos,
            )));
        }
        order.heap = BinaryHeap::from(keys);
    }

    /// Charges `bytes` of copy to the client and its cgroup. The
    /// accumulators wrap (never saturate): saturation would freeze every
    /// client at `u64::MAX` and erase the fairness order, while wrapping
    /// keeps relative distances — which [`vruntime_before`] compares —
    /// exact across the boundary.
    pub fn charge(&self, client: &Client, bytes: usize) {
        client
            .copied_total
            .set(client.copied_total.get().wrapping_add(bytes as u64));
        let groups = self.cgroups.borrow();
        if let Some(g) = groups.get(client.cgroup.get()) {
            // Weighted: smaller shares accrue vruntime faster.
            let delta = (bytes as u64 * 1024) / g.shares.get();
            g.vruntime.set(g.vruntime.get().wrapping_add(delta));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::SegDescriptor;
    use crate::task::CopyTask;
    use crate::task::QueueEntry;
    use copier_mem::{AddressSpace, AllocPolicy, PhysMem, VirtAddr};

    fn client_with_work(id: u32) -> Rc<Client> {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let space = AddressSpace::new(id, pm);
        let c = Client::new(id, Rc::clone(&space), 16);
        let t = CopyTask {
            dst_space: Rc::clone(&space),
            dst: VirtAddr(0x1000),
            src_space: space,
            src: VirtAddr(0x9000),
            len: 64,
            seg: 64,
            descr: Rc::new(SegDescriptor::new(64, 64)),
            func: None,
            lazy: false,
            verify: false,
        };
        c.default_set().uq.copy.push(QueueEntry::Copy(t)).unwrap();
        c
    }

    /// The ids of `clients` in the order one round would serve them.
    fn run(s: &Scheduler, clients: &[Rc<Client>]) -> Vec<u32> {
        let mut order = RunOrder::default();
        s.order_into(clients, Nanos::ZERO, Nanos::ZERO, &mut order);
        std::iter::from_fn(|| order.pop())
            .map(|pos| clients[pos].id)
            .collect()
    }

    #[test]
    fn run_is_ordered_by_copied_length() {
        let s = Scheduler::new();
        let a = client_with_work(1);
        let b = client_with_work(2);
        let c = client_with_work(3);
        a.copied_total.set(1000);
        b.copied_total.set(10);
        c.copied_total.set(500);
        assert_eq!(run(&s, &[a, b, c]), [2, 3, 1]);
    }

    #[test]
    fn run_skips_idle_clients() {
        let s = Scheduler::new();
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let idle = Client::new(9, AddressSpace::new(9, pm), 16);
        idle.copied_total.set(0);
        let busy = client_with_work(1);
        busy.copied_total.set(99999);
        assert_eq!(run(&s, &[idle, busy]), [1]);
        assert_eq!(run(&s, &[]), [] as [u32; 0]);
    }

    #[test]
    fn ties_go_to_the_earlier_position() {
        let s = Scheduler::new();
        let clients: Vec<_> = [4, 2, 7, 5].into_iter().map(client_with_work).collect();
        clients[2].copied_total.set(1);
        // 4, 2 and 5 tie at zero: assignment order decides, not the id.
        assert_eq!(run(&s, &clients), [4, 2, 5, 7]);
    }

    #[test]
    fn cgroup_shares_weight_the_run() {
        let s = Scheduler::new();
        let small = s.create_cgroup("small", 256); // quarter share
        let big = s.create_cgroup("big", 1024);
        let a = client_with_work(1);
        a.cgroup.set(small);
        let b = client_with_work(2);
        b.cgroup.set(big);
        let c = client_with_work(3);
        c.cgroup.set(big);
        // Charge both groups the same raw bytes; the small-shares group's
        // vruntime grows 4× faster, so the big group runs first — all of
        // it, whatever its clients' own totals — ordered inside by client.
        s.charge(&a, 4096);
        s.charge(&b, 4096);
        assert!(s.cgroup(small).vruntime.get() > s.cgroup(big).vruntime.get());
        c.copied_total.set(1 << 20);
        assert_eq!(run(&s, &[a, c, b]), [2, 3, 1]);
    }

    #[test]
    fn the_order_is_as_of_its_build() {
        let s = Scheduler::new();
        let a = client_with_work(1);
        let b = client_with_work(2);
        b.copied_total.set(100);
        let clients = [a, b];
        let mut order = RunOrder::default();
        s.order_into(&clients, Nanos::ZERO, Nanos::ZERO, &mut order);
        assert_eq!(order.pop(), Some(0));
        // Serving the first client moves it past the second; the run
        // already under way is not re-ranked, the next one is.
        s.charge(&clients[0], 4096);
        assert_eq!(order.pop(), Some(1));
        assert_eq!(order.pop(), None);
        assert_eq!(run(&s, &clients), [2, 1]);
    }

    #[test]
    fn charge_accumulates_client_total() {
        let s = Scheduler::new();
        let a = client_with_work(1);
        s.charge(&a, 100);
        s.charge(&a, 200);
        assert_eq!(a.copied_total.get(), 300);
    }

    #[test]
    fn min_live_vruntime_skips_dead_and_wraps() {
        let a = client_with_work(1);
        let b = client_with_work(2);
        assert_eq!(min_live_vruntime([] as [&Rc<Client>; 0]), None);
        a.copied_total.set(u64::MAX - 10); // wrapped: actually least-served
        b.copied_total.set(100);
        assert_eq!(
            min_live_vruntime([&a, &b]),
            Some(u64::MAX - 10),
            "wrap-safe order, not numeric order"
        );
        a.dead.set(true);
        assert_eq!(min_live_vruntime([&a, &b]), Some(100));
    }

    #[test]
    fn fairness_order_survives_vruntime_wraparound() {
        // Same class of hazard as the PR 6 ring-occupancy wrap bug: the
        // vruntime accumulators are monotone counters compared for order.
        // Park both clients just below u64::MAX and drive one across the
        // boundary; the wrapped (most-served) client must NOT be ranked
        // least-served.
        let s = Scheduler::new();
        let a = client_with_work(1);
        let b = client_with_work(2);
        let near = u64::MAX - 4096;
        a.copied_total.set(near);
        b.copied_total.set(near);
        s.charge(&a, 8192); // wraps: a is now 8 KiB *ahead* of b
        assert!(a.copied_total.get() < b.copied_total.get(), "a wrapped");
        assert!(vruntime_before(b.copied_total.get(), a.copied_total.get()));
        let clients = [a, b];
        assert_eq!(run(&s, &clients), [2, 1], "who copied less runs first");
        // And the cgroup level wraps the same way.
        let g = s.cgroup(0);
        g.vruntime.set(u64::MAX - 10);
        s.charge(&clients[0], 4096);
        assert!(g.vruntime.get() < u64::MAX - 10, "cgroup vruntime wrapped");
    }

    #[test]
    fn one_run_orders_across_the_wrap() {
        // Wrapped and unwrapped vruntimes inside a single run, with the
        // first candidate (the distance base) in the middle of the band
        // and at either end of it: numeric order would put 5 first.
        let s = Scheduler::new();
        let vrs = [u64::MAX - 10, 5, u64::MAX - 4000, 3000, u64::MAX];
        let sorted = [3, 1, 5, 2, 4];
        for rot in 0..vrs.len() {
            let clients: Vec<_> = (0..vrs.len())
                .map(|i| {
                    let i = (i + rot) % vrs.len();
                    let c = client_with_work(i as u32 + 1);
                    c.copied_total.set(vrs[i]);
                    c
                })
                .collect();
            assert_eq!(run(&s, &clients), sorted, "rotation {rot}");
        }
        // The cgroup level, wrapped, still outranks the client level.
        let g = s.create_cgroup("wrapped", 1024);
        s.cgroup(0).vruntime.set(u64::MAX - 100);
        s.cgroup(g).vruntime.set(100);
        let early = client_with_work(1);
        early.copied_total.set(1 << 40);
        let late = client_with_work(2);
        late.cgroup.set(g);
        assert_eq!(run(&s, &[late, early]), [1, 2]);
    }
}
