//! Copier scheduler and the `copier` cgroup controller (§4.5.2–§4.5.3).
//!
//! Copy is managed as a first-class resource whose unit is *copy length* —
//! not CPU time, whose correspondence to work varies with cache/TLB state.
//! Each Copier thread serves its runnable clients in CFS-like order: the
//! cgroup with the minimum share-weighted copied length first, then the
//! client with the minimum total copied length inside it. A cgroup's
//! length is per thread — what that thread served it — so an order reads
//! no other thread's state. A *copy slice* bounds the bytes served per
//! scheduling decision — one round walks that order until the slice is
//! spent (`RunOrder`).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use copier_sim::Nanos;

use crate::client::Client;

/// Default copy slice: maximum bytes served per scheduling round.
pub const DEFAULT_COPY_SLICE: usize = 256 * 1024;

/// The smallest copy slice a round serves, whatever `copy_slice` asks.
pub(crate) const MIN_COPY_SLICE: usize = 4096;

/// Whether vruntime `a` is before `b` under wrap-around — the CFS
/// `(s64)(a - b) < 0` idiom. The copied-length accumulators are monotone
/// u64 counters that wrap on long-lived services; a direct `<` would then
/// rank the freshly wrapped (most-served) client as least-served and pin
/// the scheduler to it. Correct as long as no two live vruntimes are more
/// than `u64::MAX / 2` apart, which the copy-slice bound guarantees.
pub(crate) fn vruntime_before(a: u64, b: u64) -> bool {
    (a.wrapping_sub(b) as i64) < 0
}

/// The wrap-safe minimum copied-length vruntime among live `clients`
/// (`None` if all are dead). Shards publish this at the round barrier so
/// peers can keep the least-served exemption global without scanning
/// each other's client lists (DESIGN.md §17).
pub(crate) fn min_live_vruntime<'a>(
    clients: impl IntoIterator<Item = &'a Rc<Client>>,
) -> Option<u64> {
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

/// Fills `order` with the service order of one round: every client in
/// `clients` with work at `now`, least-served first.
///
/// Two-level min-vruntime: cgroup first (share-weighted, from the
/// serving thread's `group_vr`), then client, ties to the earlier
/// position in `clients`. The keys are read once, here — charges made
/// while the round serves the order do not re-rank it. O(clients) to
/// build; each [`RunOrder::pop`] is O(log runnable), so a round that
/// spends its slice on the first few clients never sorts the rest.
pub(crate) fn order_into(
    clients: &[Rc<Client>],
    group_vr: &[u64],
    now: Nanos,
    lazy_period: Nanos,
    order: &mut RunOrder,
) {
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
        let gv = group_vr.get(c.cgroup.get()).copied().unwrap_or(0);
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

/// One round's service order, built by [`order_into`]: the
/// runnable clients' positions in the assignment list, popped
/// least-served first. Reused across rounds (the heap keeps its buffer).
#[derive(Default)]
pub(crate) struct RunOrder {
    /// Min-heap on (cgroup vruntime, client vruntime, position), the
    /// vruntimes as wrap-safe distances from the first candidate's.
    heap: BinaryHeap<Reverse<(i64, i64, usize)>>,
}

impl RunOrder {
    /// The next client to serve, as its position in the `clients` slice
    /// the order was built from.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        self.heap.pop().map(|Reverse((_, _, pos))| pos)
    }
}

/// The per-service cgroup registry: each cgroup's `copier.shares` weight
/// (like `cpu.shares`), indexed by cgroup id.
pub(crate) struct Scheduler {
    shares: RefCell<Vec<u64>>,
}

impl Scheduler {
    /// A registry holding the default cgroup, id 0, at 1024 shares.
    pub(crate) fn new() -> Self {
        Scheduler {
            shares: RefCell::new(vec![1024]),
        }
    }

    /// Creates a cgroup of `shares` (at least 1); returns its id.
    pub(crate) fn create_cgroup(&self, shares: u64) -> usize {
        let mut g = self.shares.borrow_mut();
        g.push(shares.max(1));
        g.len() - 1
    }

    /// Whether `id` names a cgroup of this registry.
    pub(crate) fn holds(&self, id: usize) -> bool {
        id < self.shares.borrow().len()
    }

    /// Charges `bytes` of copy to the client and, in `group_vr` (the
    /// serving thread's table), to its cgroup. The accumulators wrap
    /// (never saturate): saturation would freeze every client at
    /// `u64::MAX` and erase the fairness order, while wrapping keeps
    /// relative distances — which [`vruntime_before`] compares — exact
    /// across the boundary. The client's cgroup is one this registry
    /// holds: `set_cgroup` and adoption admit no other.
    pub(crate) fn charge(&self, client: &Client, bytes: usize, group_vr: &mut Vec<u64>) {
        client
            .copied_total
            .set(client.copied_total.get().wrapping_add(bytes as u64));
        let g = client.cgroup.get();
        // Weighted: smaller shares accrue vruntime faster.
        let delta = (bytes as u64 * 1024) / self.shares.borrow()[g];
        group_vr.resize(group_vr.len().max(g + 1), 0);
        group_vr[g] = group_vr[g].wrapping_add(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CopierConfig;
    use crate::descriptor::SegDescriptor;
    use crate::service::Copier;
    use crate::task::CopyTask;
    use crate::task::QueueEntry;
    use copier_hw::CostModel;
    use copier_mem::{AddressSpace, AllocPolicy, PhysMem, VirtAddr};
    use copier_sim::{Machine, Sim};

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

    /// A one-shard service, for its cgroup registry.
    fn service() -> Rc<Copier> {
        let sim = Sim::new();
        let core = Machine::new(&sim.handle(), 1).core(0);
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        Copier::new(&sim.handle(), pm, vec![core], cost, CopierConfig::default())
    }

    /// The ids of `clients` in the order one round would serve them on a
    /// thread whose cgroup vruntimes are `vr`.
    fn run(vr: &[u64], clients: &[Rc<Client>]) -> Vec<u32> {
        let mut order = RunOrder::default();
        order_into(clients, vr, Nanos::ZERO, Nanos::ZERO, &mut order);
        std::iter::from_fn(|| order.pop())
            .map(|pos| clients[pos].id)
            .collect()
    }

    #[test]
    fn run_is_ordered_by_copied_length() {
        let a = client_with_work(1);
        let b = client_with_work(2);
        let c = client_with_work(3);
        a.copied_total.set(1000);
        b.copied_total.set(10);
        c.copied_total.set(500);
        assert_eq!(run(&[], &[a, b, c]), [2, 3, 1]);
    }

    #[test]
    fn run_skips_idle_clients() {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        let idle = Client::new(9, AddressSpace::new(9, pm), 16);
        idle.copied_total.set(0);
        let busy = client_with_work(1);
        busy.copied_total.set(99999);
        assert_eq!(run(&[], &[idle, busy]), [1]);
        assert_eq!(run(&[], &[]), [] as [u32; 0]);
    }

    #[test]
    fn ties_go_to_the_earlier_position() {
        let clients: Vec<_> = [4, 2, 7, 5].into_iter().map(client_with_work).collect();
        clients[2].copied_total.set(1);
        // 4, 2 and 5 tie at zero: assignment order decides, not the id.
        assert_eq!(run(&[], &clients), [4, 2, 5, 7]);
    }

    #[test]
    fn cgroup_shares_weight_the_run() {
        let s = service();
        let small = s.create_cgroup(256); // quarter share
        let big = s.create_cgroup(1024);
        let a = client_with_work(1);
        s.set_cgroup(&a, small).unwrap();
        let b = client_with_work(2);
        s.set_cgroup(&b, big).unwrap();
        let c = client_with_work(3);
        s.set_cgroup(&c, big).unwrap();
        // Charge both groups the same raw bytes; the small-shares group's
        // vruntime grows 4× faster, so the big group runs first — all of
        // it, whatever its clients' own totals — ordered inside by client.
        let mut vr = Vec::new();
        s.sched.charge(&a, 4096, &mut vr);
        s.sched.charge(&b, 4096, &mut vr);
        assert_eq!(vr, [0, 16384, 4096]);
        c.copied_total.set(1 << 20);
        assert_eq!(run(&vr, &[a, c, b]), [2, 3, 1]);
    }

    #[test]
    fn set_cgroup_refuses_an_id_the_registry_does_not_hold() {
        let s = service();
        let a = client_with_work(1);
        assert!(s.set_cgroup(&a, 1).is_err(), "only the default exists");
        assert_eq!(a.view().cgroup, 0);
        let g = s.create_cgroup(0);
        s.set_cgroup(&a, g).unwrap();
        assert_eq!((g, a.view().cgroup), (1, 1));
        // Zero shares clamp to one: the charge divides by them.
        let mut vr = Vec::new();
        s.sched.charge(&a, 1, &mut vr);
        assert_eq!(vr, [0, 1024]);
    }

    /// A restarted service holds only the cgroups re-created since: an
    /// adopted client in one it lacks joins the default instead of going
    /// uncharged and ranking first.
    #[test]
    fn an_adopted_client_keeps_only_a_cgroup_its_successor_holds() {
        let (old, new) = (service(), service());
        let (a, b) = (client_with_work(1), client_with_work(2));
        let g = old.create_cgroup(256);
        old.set_cgroup(&a, g).unwrap();
        old.set_cgroup(&b, g).unwrap();
        drop(new.adopt_client(&a));
        assert_eq!(a.view().cgroup, 0);
        assert_eq!(new.create_cgroup(256), g);
        drop(new.adopt_client(&b));
        assert_eq!(b.view().cgroup, g);
    }

    #[test]
    fn a_charge_moves_only_the_serving_threads_table() {
        let s = service();
        let g = s.create_cgroup(512);
        let (mut mine, theirs) = (vec![0], vec![0]);
        let a = client_with_work(1);
        s.set_cgroup(&a, g).unwrap();
        s.sched.charge(&a, 4096, &mut mine);
        assert_eq!((mine, &theirs), (vec![0, 8192], &vec![0]));
        // The peer thread still ranks the cgroup as never served.
        let b = client_with_work(2);
        b.copied_total.set(1 << 20);
        assert_eq!(run(&theirs, &[a, b]), [1, 2]);
    }

    #[test]
    fn the_order_is_as_of_its_build() {
        let s = service();
        let a = client_with_work(1);
        let b = client_with_work(2);
        b.copied_total.set(100);
        let clients = [a, b];
        let mut order = RunOrder::default();
        let mut vr = vec![0];
        order_into(&clients, &vr, Nanos::ZERO, Nanos::ZERO, &mut order);
        assert_eq!(order.pop(), Some(0));
        // Serving the first client moves it past the second; the run
        // already under way is not re-ranked, the next one is.
        s.sched.charge(&clients[0], 4096, &mut vr);
        assert_eq!(order.pop(), Some(1));
        assert_eq!(order.pop(), None);
        assert_eq!(run(&vr, &clients), [2, 1]);
    }

    #[test]
    fn charge_accumulates_client_total() {
        let s = service();
        let a = client_with_work(1);
        s.sched.charge(&a, 100, &mut vec![0]);
        s.sched.charge(&a, 200, &mut vec![0]);
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
        let s = service();
        let a = client_with_work(1);
        let b = client_with_work(2);
        let near = u64::MAX - 4096;
        a.copied_total.set(near);
        b.copied_total.set(near);
        let mut vr = vec![0];
        s.sched.charge(&a, 8192, &mut vr); // wraps: a is now 8 KiB *ahead* of b
        assert!(a.copied_total.get() < b.copied_total.get(), "a wrapped");
        assert!(vruntime_before(b.copied_total.get(), a.copied_total.get()));
        let clients = [a, b];
        assert_eq!(run(&vr, &clients), [2, 1], "who copied less runs first");
        // And the cgroup level wraps the same way.
        vr[0] = u64::MAX - 10;
        s.sched.charge(&clients[0], 4096, &mut vr);
        assert!(vr[0] < u64::MAX - 10, "cgroup vruntime wrapped");
    }

    #[test]
    fn one_run_orders_across_the_wrap() {
        // Wrapped and unwrapped vruntimes inside a single run, with the
        // first candidate (the distance base) in the middle of the band
        // and at either end of it: numeric order would put 5 first.
        let s = service();
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
            assert_eq!(run(&[], &clients), sorted, "rotation {rot}");
        }
        // The cgroup level, wrapped, still outranks the client level.
        let g = s.create_cgroup(1024);
        let vr = [u64::MAX - 100, 100];
        let early = client_with_work(1);
        early.copied_total.set(1 << 40);
        let late = client_with_work(2);
        s.set_cgroup(&late, g).unwrap();
        assert_eq!(run(&vr, &[late, early]), [1, 2]);
    }
}
