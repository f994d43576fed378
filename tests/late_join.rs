//! A tenant that registers while a peer on its shard is busy is served
//! in the next round, not after the peer's backlog (DESIGN.md §18).
//!
//! A busy tenant queues 200 × 64 KiB copies at time zero: about 2.8 ms
//! of work for its shard. A second tenant, placed on the same
//! shard, registers at 20 µs + k·137 ns, submits one 4 KiB copy and waits
//! for it with `csync_all`. Its copy is the least-served work on the
//! shard, so it is served within a round or two of its doorbell. Mutant
//! this kills: a round that keeps only the clients registered before it
//! started, cached by the shard's assignment epoch. The busy tenant never
//! settles, so nothing moves that epoch again, and the late copy waited
//! out the whole backlog: ≈ 2.85 ms at every offset, where it is served
//! in ≈ 58 µs.

use std::cell::Cell;
use std::rc::Rc;

use copier::client::CopierHandle;
use copier::core::{Copier, CopierConfig, PollMode};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier::sim::{Machine, Nanos, Sim};

const BUSY_COPIES: usize = 200;
const BUSY_LEN: usize = 64 * 1024;
const LATE_LEN: usize = 4 * 1024;
/// The late tenant's copy, from registration to `csync_all`'s return,
/// must finish within this: well before the busy backlog drains.
const BOUND: Nanos = Nanos(100_000);

/// Runs one join at `join_at` on a `shards`-shard service. Returns how
/// long the late tenant's copy took from registration to `csync_all`'s
/// return, and when the busy tenant's last copy landed.
fn late_join(shards: usize, join_at: Nanos) -> (Nanos, Nanos) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2 + shards);
    let frames = (BUSY_COPIES + 1) * BUSY_LEN / 4096 + 64;
    let pm = Rc::new(PhysMem::new(frames, AllocPolicy::Sequential));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        (0..shards).map(|i| machine.core(2 + i)).collect(),
        Rc::new(CostModel::default()),
        CopierConfig {
            shards,
            use_dma: false,
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos(20_000),
            },
            ..Default::default()
        },
    );
    svc.start();

    // The busy tenant: one source, a destination per copy.
    let busy = CopierHandle::new(&svc, AddressSpace::new(1, Rc::clone(&pm)));
    let src = busy.uspace.mmap(BUSY_LEN, Prot::RW, true).unwrap();
    busy.uspace.write_bytes(src, &vec![0x5A; BUSY_LEN]).unwrap();
    let dsts: Vec<_> = (0..BUSY_COPIES)
        .map(|_| busy.uspace.mmap(BUSY_LEN, Prot::RW, true).unwrap())
        .collect();
    let busy_done = Rc::new(Cell::new(Nanos::ZERO));
    let (core, h2, done2) = (machine.core(0), h.clone(), Rc::clone(&busy_done));
    sim.spawn("busy", async move {
        let mut last = None;
        for &dst in &dsts {
            last = Some(busy.amemcpy(&core, dst, src, BUSY_LEN).await.unwrap());
        }
        let last = last.unwrap();
        while !last.all_ready() {
            h2.sleep(Nanos(1_000)).await;
        }
        done2.set(h2.now());
    });

    // The late tenant: the first space id after the busy one's that
    // hashes to the same shard.
    let id = (2..)
        .find(|&id| svc.shard_of_space(id) == svc.shard_of_space(1))
        .unwrap();
    let space = AddressSpace::new(id, Rc::clone(&pm));
    let (lsrc, ldst) = (
        space.mmap(LATE_LEN, Prot::RW, true).unwrap(),
        space.mmap(LATE_LEN, Prot::RW, true).unwrap(),
    );
    space.write_bytes(lsrc, &[0xC3; LATE_LEN]).unwrap();
    let took = Rc::new(Cell::new(Nanos::ZERO));
    let (svc2, core, h2, took2) = (
        Rc::clone(&svc),
        machine.core(1),
        h.clone(),
        Rc::clone(&took),
    );
    let busy_done2 = Rc::clone(&busy_done);
    sim.spawn("late", async move {
        h2.sleep(join_at).await;
        let lib = CopierHandle::new(&svc2, Rc::clone(&space));
        let t0 = h2.now();
        lib.amemcpy(&core, ldst, lsrc, LATE_LEN).await.unwrap();
        lib.csync_all(&core).await.unwrap();
        took2.set(h2.now() - t0);
        let mut got = [0u8; LATE_LEN];
        space.read_bytes(ldst, &mut got).unwrap();
        assert!(
            got.iter().all(|&b| b == 0xC3),
            "late copy landed wrong bytes"
        );
        while busy_done2.get() == Nanos::ZERO {
            h2.sleep(Nanos(10_000)).await;
        }
        svc2.stop();
    });
    sim.run();
    (took.get(), busy_done.get())
}

#[test]
fn a_late_tenant_does_not_wait_out_a_busy_peer() {
    for shards in [1, 2, 4] {
        for k in 0..24u64 {
            let join_at = Nanos(20_000 + k * 137);
            let (took, busy_end) = late_join(shards, join_at);
            assert!(
                took <= BOUND,
                "{shards} shard(s), join at {join_at:?}: the late copy took {took:?} \
                 (busy backlog drained at {busy_end:?})"
            );
            // The case is what it says: the join lands mid-backlog.
            assert!(
                busy_end > join_at + BOUND,
                "{shards} shard(s): the backlog drained at {busy_end:?}, before the bound"
            );
        }
    }
}
