//! An idle tenant costs only its identity (DESIGN.md §18): registering
//! builds no queue set, and nothing that only reads a client builds one —
//! not a thousand service rounds, not a reap, not a crash's journal replay
//! and adoption. The tenant's first copy builds exactly its default set.
//!
//! Mutants this kills, each seen failing in a scratch copy: a read path
//! that builds the default set, in `reap_client`'s walk of the sets or in
//! adoption's sweep of the surviving windows.

use std::rc::Rc;

use copier::client::CopierHandle;
use copier::core::{Copier, CopierConfig, JournalStore};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::os::Os;
use copier::sim::{FaultConfig, FaultPlan, Machine, Nanos, Sim};

const LEN: usize = 4096;
/// Service rounds, active and settled, the busy tenant's copies span.
const ROUNDS: u64 = 1_000;

/// Whether `lib`'s client has built no queue set.
fn setless(lib: &CopierHandle) -> bool {
    lib.client.set_at(0).is_none()
}

/// A source filled with `fill` and a zeroed destination in `lib`'s space.
fn buffers(lib: &CopierHandle, fill: u8) -> (VirtAddr, VirtAddr) {
    let src = lib.uspace.mmap(LEN, Prot::RW, true).unwrap();
    let dst = lib.uspace.mmap(LEN, Prot::RW, true).unwrap();
    lib.uspace.write_bytes(src, &[fill; LEN]).unwrap();
    (src, dst)
}

#[test]
fn an_idle_tenant_has_no_set_through_rounds_and_a_reap() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    let [busy, idle, reaped] =
        [1, 2, 3].map(|id| CopierHandle::new(&svc, AddressSpace::new(id, Rc::clone(&pm))));
    assert!(setless(&busy) && setless(&idle) && setless(&reaped));
    let (bsrc, bdst) = buffers(&busy, 0x5A);
    let (isrc, idst) = buffers(&idle, 0xA5);

    let (svc2, idle2, core) = (Rc::clone(&svc), Rc::clone(&idle), machine.core(0));
    sim.spawn("tenants", async move {
        let rounds = || {
            let s = svc2.stats();
            s.rounds_active + s.rounds_settled
        };
        while rounds() < ROUNDS {
            busy.amemcpy(&core, bdst, bsrc, LEN)
                .await
                .expect("admitted");
            assert_eq!(busy.csync_all(&core).await, Ok(()));
            assert!(setless(&idle2), "a round built an idle tenant's set");
        }
        svc2.reap_client(&reaped.client);
        assert!(setless(&reaped), "the reap built a set");
        assert!(setless(&idle2), "a peer's reap built a set");

        // The first copy builds the default set, and only it.
        idle2
            .amemcpy(&core, idst, isrc, LEN)
            .await
            .expect("admitted");
        assert!(idle2.client.set_at(0).is_some() && idle2.client.set_at(1).is_none());
        assert_eq!(idle2.csync_all(&core).await, Ok(()));
        svc2.stop();
    });
    sim.run();
    let mut got = [0u8; LEN];
    idle.uspace.read_bytes(idst, &mut got).unwrap();
    assert_eq!(got, [0xA5; LEN], "the first copy did not land");
}

#[test]
fn an_idle_tenant_has_no_set_through_a_crash_and_adoption() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 256);
    // The first drained submission kills the service; the restart, which
    // replays the journal and adopts both tenants, runs clean.
    let plan = FaultPlan::new(FaultConfig {
        seed: 0x1D1E,
        crash_prob: 1.0,
        max_crashes: 1,
        ..Default::default()
    });
    let cfg = CopierConfig {
        journal: Some(JournalStore::new()),
        fault_plan: Some(Rc::clone(&plan)),
        ..Default::default()
    };
    os.install_copier(vec![os.machine.core(1)], cfg.clone());
    let busy = os.spawn_process().lib();
    let idle = os.spawn_process().lib();
    let (src, dst) = buffers(&busy, 0x3C);

    let (os2, idle2, h2) = (Rc::clone(&os), Rc::clone(&idle), h.clone());
    let (core0, core1) = (os.machine.core(0), os.machine.core(1));
    sim.spawn("tenants", async move {
        busy.amemcpy(&core0, dst, src, LEN).await.expect("admitted");
        while !busy.service().has_crashed() {
            h2.sleep(Nanos(1_000)).await;
        }
        let svc = os2.install_copier(vec![core1], cfg);
        busy.reattach(&core0, &svc).await;
        assert_eq!(idle2.reattach(&core0, &svc).await, 0);
        assert!(setless(&idle2), "adoption built a set");
        assert_eq!(busy.csync_all(&core0).await, Ok(()));
        assert!(setless(&idle2), "the adopted service built a set");
        svc.stop();
    });
    sim.run();
    assert_eq!(plan.log().crashes, 1, "the service never crashed");
    assert!(setless(&idle));
}
