//! A hostile client against the service: ring entries no library writes,
//! pushed straight onto a tenant's u-rings beside an honest tenant. The
//! service must settle each with a typed outcome, and the honest tenant
//! must not notice.

use std::cell::Cell;
use std::rc::Rc;

use copier::core::{
    CopierConfig, CopyFault, CopyTask, Handler, QueueEntry, SegDescriptor, SyncTask,
    DEFAULT_SEGMENT,
};
use copier::mem::{Prot, VirtAddr};
use copier::os::Os;
use copier::sim::{Machine, Nanos, Sim};
use copier_testkit::assert_no_pinned_leaks;

/// A copy whose destination or source range runs past the end of the
/// address space fails `Segv` at the drain boundary — handler run, no
/// window entry, nothing pinned — and a csync over a wrapping range
/// matches nothing; an honest tenant's copy beside them lands intact.
#[test]
fn wrapping_ranges_fail_as_segv_beside_an_honest_tenant() {
    const LEN: usize = 100;
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 3);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(vec![os.machine.core(2)], CopierConfig::default());
    let hostile = os.spawn_process().lib();
    let honest = os.spawn_process().lib();
    let space = Rc::clone(&hostile.uspace);
    let buf = space.mmap(4096, Prot::RW, true).unwrap();
    let wrap = VirtAddr(u64::MAX - 10);
    let settled = Rc::new(Cell::new(0u32));
    let task = |dst: VirtAddr, src: VirtAddr| {
        let settled = Rc::clone(&settled);
        CopyTask {
            dst_space: Rc::clone(&space),
            dst,
            src_space: Rc::clone(&space),
            src,
            len: LEN,
            seg: DEFAULT_SEGMENT,
            descr: Rc::new(SegDescriptor::new(LEN, DEFAULT_SEGMENT)),
            func: Some(Handler::KFunc(Rc::new(move || {
                settled.set(settled.get() + 1)
            }))),
            lazy: false,
            verify: false,
        }
    };
    let bad = [task(wrap, buf), task(buf, wrap)];
    let descrs: Vec<_> = bad.iter().map(|t| Rc::clone(&t.descr)).collect();
    let set = hostile.client.default_set();
    for t in bad {
        assert!(set.uq.copy.push(QueueEntry::Copy(t)).is_ok());
    }
    let csync = SyncTask {
        space_id: space.id(),
        addr: wrap,
        len: LEN,
        abort: false,
        target: None,
    };
    assert!(set.uq.sync.push(csync).is_ok());
    svc.doorbell(&hostile.client);

    let len = 8 * 1024;
    let src = honest.uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = honest.uspace.mmap(len, Prot::RW, true).unwrap();
    honest.uspace.write_bytes(src, &vec![0x5A; len]).unwrap();
    let (core, svc2, settled2) = (os.machine.core(0), Rc::clone(&svc), Rc::clone(&settled));
    let honest2 = Rc::clone(&honest);
    sim.spawn("honest", async move {
        honest2
            .amemcpy(&core, dst, src, len)
            .await
            .expect("admitted");
        honest2.csync_all(&core).await.expect("honest copy lands");
        for _ in 0..1000 {
            if settled2.get() == 2 {
                break;
            }
            h.sleep(Nanos::from_micros(1)).await;
        }
        svc2.stop();
    });
    sim.run();

    assert_eq!(settled.get(), 2, "both wrapping copies ran their handler");
    for d in &descrs {
        assert_eq!(d.fault(), Some(CopyFault::Segv));
    }
    assert_eq!(
        *hostile.client.signals.borrow(),
        vec![CopyFault::Segv, CopyFault::Segv]
    );
    assert_eq!(hostile.client.inflight_tasks.get(), 0, "no window entry");
    assert_eq!(
        svc.stats().faults,
        2,
        "the two wrapping copies, nothing else"
    );
    let mut got = vec![0u8; len];
    honest.uspace.read_bytes(dst, &mut got).unwrap();
    assert!(got.iter().all(|&b| b == 0x5A), "the honest copy landed");
    assert_no_pinned_leaks(&os.pm);
    svc.audit_aggregates().expect("aggregates stay exact");
}
