//! Handler delivery on the fault path: a poisoned copy still fires its
//! completion handler (KFUNC inline on the service thread, UFUNC via
//! `post_handlers`), and the handler observes the fault through the
//! descriptor — the §4.4 contract that completion callbacks see the
//! outcome, not just success.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{CopierConfig, CopyFault, Handler, SegDescriptor, DEFAULT_SEGMENT};
use copier::mem::{Prot, PAGE_SIZE};
use copier::os::Os;
use copier::sim::{Machine, Nanos, Sim};

/// Observed handler firing: `Some(fault)` once the handler ran.
type Observed = Rc<RefCell<Option<Option<CopyFault>>>>;

/// Runs one copy of `len` bytes into a destination mapping of `dst_len`
/// bytes with the given handler attached; returns what the handler saw.
fn run_with_handler(
    dst_len: usize,
    len: usize,
    make: impl FnOnce(Rc<SegDescriptor>, Observed) -> Handler,
) -> (Observed, Rc<SegDescriptor>) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 1024);
    let svc = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);

    let src = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = uspace.mmap(dst_len, Prot::RW, true).unwrap();
    uspace.write_bytes(src, &vec![0xA5u8; len]).unwrap();

    let descr = Rc::new(SegDescriptor::new(len, DEFAULT_SEGMENT));
    let observed: Observed = Rc::new(RefCell::new(None));
    let func = make(Rc::clone(&descr), Rc::clone(&observed));

    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let d2 = Rc::clone(&descr);
    sim.spawn("client", async move {
        let opts = AmemcpyOpts {
            func: Some(func),
            descr: Some(Rc::clone(&d2)),
            ..Default::default()
        };
        let _ = lib2._amemcpy(&core, dst, src, len, opts).await;
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    sim.run();
    (observed, descr)
}

fn observe(descr: Rc<SegDescriptor>, observed: Observed) -> impl Fn() {
    move || {
        observed.borrow_mut().replace(descr.fault());
    }
}

#[test]
fn kfunc_handler_observes_poison() {
    let len = 3 * PAGE_SIZE;
    let (seen, descr) = run_with_handler(len - PAGE_SIZE, len, |d, o| {
        Handler::KFunc(Rc::new(observe(d, o)))
    });
    assert_eq!(descr.fault(), Some(CopyFault::Segv));
    assert_eq!(
        *seen.borrow(),
        Some(Some(CopyFault::Segv)),
        "KFUNC handler must fire on the fault path and see the poison"
    );
}

#[test]
fn ufunc_handler_observes_poison() {
    let len = 3 * PAGE_SIZE;
    let (seen, descr) = run_with_handler(len - PAGE_SIZE, len, |d, o| {
        Handler::UFunc(Rc::new(observe(d, o)))
    });
    assert_eq!(descr.fault(), Some(CopyFault::Segv));
    assert_eq!(
        *seen.borrow(),
        Some(Some(CopyFault::Segv)),
        "UFUNC handler must be delivered via post_handlers and see the poison"
    );
}

#[test]
fn handlers_still_fire_clean_on_success() {
    let len = 2 * PAGE_SIZE;
    let (seen, descr) = run_with_handler(len, len, |d, o| Handler::UFunc(Rc::new(observe(d, o))));
    assert!(descr.all_ready());
    assert_eq!(
        *seen.borrow(),
        Some(None),
        "success-path handler must observe a clean descriptor"
    );
}

/// UFUNC handlers run in the order their copies completed, also when
/// more of them complete than the handler ring holds: with two slots and
/// four settled copies, the last two wait in the overflow list behind the
/// two in the ring.
#[test]
fn ufunc_handlers_past_a_full_ring_run_in_completion_order() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 1024);
    let cfg = CopierConfig {
        queue_cap: 2,
        ..CopierConfig::default()
    };
    let svc = os.install_copier(vec![os.machine.core(1)], cfg);
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let src = uspace.mmap(PAGE_SIZE, Prot::RW, true).unwrap();
    let dsts: Vec<_> = (0..4)
        .map(|_| uspace.mmap(PAGE_SIZE, Prot::RW, true).unwrap())
        .collect();

    let ran = Rc::new(RefCell::new(Vec::new()));
    let (ran2, core) = (Rc::clone(&ran), os.machine.core(0));
    let posted = Rc::new(Cell::new(0));
    let posted2 = Rc::clone(&posted);
    sim.spawn("client", async move {
        for (i, &dst) in dsts.iter().enumerate() {
            let ran = Rc::clone(&ran2);
            let opts = AmemcpyOpts {
                func: Some(Handler::UFunc(Rc::new(move || ran.borrow_mut().push(i)))),
                ..Default::default()
            };
            lib._amemcpy(&core, dst, src, PAGE_SIZE, opts)
                .await
                .expect("admitted");
            lib.csync(&core, dst, PAGE_SIZE).await.expect("copied");
        }
        h.sleep(Nanos(10_000)).await;
        posted2.set(lib.post_handlers(&core).await);
        svc.stop();
    });
    sim.run();
    assert_eq!(posted.get(), 4, "every handler delivered once");
    assert_eq!(
        *ran.borrow(),
        [0, 1, 2, 3],
        "handlers out of completion order"
    );
}
