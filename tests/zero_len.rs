//! Zero-length and segment-boundary edge cases, end to end.
//!
//! `amemcpy(dst, src, 0)` is legal the way `memcpy(dst, src, 0)` is: the
//! descriptor has zero segments and is born complete, the service
//! finishes it at the drain boundary (handler delivered, credit
//! returned), and no byte of memory moves. Straddling lengths
//! (`k*segment ± 1`) exercise the span math in `mark_progress` and the
//! address-index scan bounds, which previously underflowed at `len == 0`
//! and mis-clamped at partial last segments.

use std::cell::Cell;
use std::rc::Rc;

use copier::client::AmemcpyOpts;
use copier::core::{CopierConfig, Handler, PollMode, SegDescriptor, DEFAULT_SEGMENT};
use copier::mem::Prot;
use copier::os::Os;
use copier::sim::{Machine, Nanos, Sim};
use copier_testkit::assert_no_pinned_leaks;

/// Zero-length copies complete immediately: born all-ready, handler run,
/// credit returned, zero bytes moved, destination untouched.
#[test]
fn zero_length_amemcpy_completes_immediately() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = 64 * 1024;
    let src = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = uspace.mmap(len, Prot::RW, true).unwrap();
    uspace.write_bytes(src, &vec![0xAB; len]).unwrap();

    let fired = Rc::new(Cell::new(0u32));
    let f2 = Rc::clone(&fired);
    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    let credits_before = lib.client.credits.get();
    sim.spawn("client", async move {
        for _ in 0..3 {
            let d = lib2
                ._amemcpy(
                    &core,
                    dst,
                    src,
                    0,
                    AmemcpyOpts {
                        func: Some(Handler::KFunc(Rc::new({
                            let f = Rc::clone(&f2);
                            move || f.set(f.get() + 1)
                        }))),
                        ..Default::default()
                    },
                )
                .await
                .expect("zero-length submission admitted");
            assert!(d.all_ready(), "zero-length descriptor born complete");
            assert_eq!(d.num_segments(), 0);
            assert_eq!(d.fault(), None);
        }
        let _ = lib2.csync_all(&core).await;
        svc2.stop();
    });
    sim.run();

    assert_eq!(fired.get(), 3, "every zero-length handler must run");
    let st = svc.stats();
    assert_eq!(
        st.tasks_completed, 3,
        "zero-length tasks count as completed"
    );
    assert_eq!(st.bytes_copied, 0, "no bytes may move");
    assert!(st.credits_granted >= 3, "credits must be returned");
    assert_eq!(
        lib.client.credits.get(),
        credits_before,
        "credit pool must be restored — a zero-length task may not leak its window slot"
    );
    let mut got = vec![0u8; len];
    uspace.read_bytes(dst, &mut got).unwrap();
    assert!(
        got.iter().all(|&b| b == 0),
        "destination must stay untouched"
    );
    assert_no_pinned_leaks(&os.pm);
}

/// `csync_all` waits for a zero-length task to be settled by the service,
/// not merely for its (born-complete) descriptor: when it returns, the
/// handler has run and the credit is back, with no later round needed.
/// A `csync_all` that returns at once on a born-complete descriptor fails
/// here, and fails the test above whenever the service's first drain
/// misses the last of the three submissions.
#[test]
fn csync_all_waits_for_a_zero_length_task_to_settle() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
    let proc = os.spawn_process();
    let lib = proc.lib();
    let a = lib.uspace.mmap(4096, Prot::RW, true).unwrap();

    let fired = Rc::new(Cell::new(false));
    let f2 = Rc::clone(&fired);
    let core = os.machine.core(0);
    let credits_before = lib.client.credits.get();
    sim.spawn("client", async move {
        let opts = AmemcpyOpts {
            func: Some(Handler::KFunc(Rc::new(move || f2.set(true)))),
            ..Default::default()
        };
        let d = lib._amemcpy(&core, a, a, 0, opts).await.expect("admitted");
        assert!(d.all_ready() && !fired.get(), "complete at birth, unserved");
        lib.csync_all(&core).await.expect("nothing to fault");
        assert!(fired.get(), "csync_all returned before the handler ran");
        assert_eq!(lib.client.credits.get(), credits_before, "credit back");
        svc.stop();
    });
    sim.run();
    assert_no_pinned_leaks(&os.pm);
}

/// While a `ScenarioDriven` service is outside its scenario nothing is
/// served, so `csync_all` on a zero-length task blocks exactly as it does
/// on a copy with bytes, and returns once the scenario is active.
#[test]
fn csync_all_on_a_zero_length_task_blocks_while_the_service_is_gated() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(
        vec![os.machine.core(1)],
        CopierConfig {
            polling: PollMode::ScenarioDriven,
            ..Default::default()
        },
    );
    svc.set_scenario_active(false);
    let proc = os.spawn_process();
    let lib = proc.lib();
    let a = lib.uspace.mmap(4096, Prot::RW, true).unwrap();

    let fired = Rc::new(Cell::new(false));
    let returned = Rc::new(Cell::new(false));
    let gate = Nanos::from_micros(300);
    sim.spawn("gate", {
        let (h, svc) = (h.clone(), Rc::clone(&svc));
        let (fired, returned) = (Rc::clone(&fired), Rc::clone(&returned));
        async move {
            h.sleep(gate).await;
            assert!(!fired.get(), "served outside the scenario");
            assert!(!returned.get(), "csync_all returned on an unsettled task");
            svc.set_scenario_active(true);
        }
    });
    let core = os.machine.core(0);
    let f2 = Rc::clone(&fired);
    let r2 = Rc::clone(&returned);
    sim.spawn("client", async move {
        let opts = AmemcpyOpts {
            func: Some(Handler::KFunc(Rc::new(move || f2.set(true)))),
            ..Default::default()
        };
        lib._amemcpy(&core, a, a, 0, opts).await.expect("admitted");
        lib.csync_all(&core).await.expect("nothing to fault");
        r2.set(true);
        assert!(h.now() >= gate, "returned before the scenario began");
        svc.stop();
    });
    sim.run();
    assert!(fired.get() && returned.get());
    assert_no_pinned_leaks(&os.pm);
}

/// A caller-owned zero-length descriptor reused once its first submission
/// has settled is waited on again: `reset` re-arms `delivered`, so the
/// second `csync_all` does not return on the first submission's flag.
#[test]
fn csync_all_waits_again_for_a_reused_zero_length_descriptor() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
    let proc = os.spawn_process();
    let lib = proc.lib();
    let a = lib.uspace.mmap(4096, Prot::RW, true).unwrap();

    let fired = Rc::new(Cell::new(0u32));
    let f2 = Rc::clone(&fired);
    let core = os.machine.core(0);
    let credits_before = lib.client.credits.get();
    sim.spawn("client", async move {
        let d = Rc::new(SegDescriptor::new(0, DEFAULT_SEGMENT));
        for n in 1..=2 {
            let opts = AmemcpyOpts {
                descr: Some(Rc::clone(&d)),
                func: Some(Handler::KFunc(Rc::new({
                    let f = Rc::clone(&f2);
                    move || f.set(f.get() + 1)
                }))),
                ..Default::default()
            };
            lib._amemcpy(&core, a, a, 0, opts).await.expect("admitted");
            assert!(!d.delivered(), "submission {n} starts unsettled");
            lib.csync_all(&core).await.expect("nothing to fault");
            assert_eq!(f2.get(), n, "csync_all {n} returned before handler {n}");
            assert_eq!(lib.client.credits.get(), credits_before, "credit back");
        }
        svc.stop();
    });
    sim.run();
    assert_eq!(fired.get(), 2);
    assert_no_pinned_leaks(&os.pm);
}

/// Zero-length copies interleaved with real ones neither block nor
/// corrupt them, under absorption-friendly chaining (dst of one is src
/// of a zero-length follow-up).
#[test]
fn zero_length_interleaves_with_real_copies() {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 2048);
    let svc = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
    let proc = os.spawn_process();
    let lib = proc.lib();
    let uspace = Rc::clone(&lib.uspace);
    let len = 48 * 1024 + 123;
    let src = uspace.mmap(len, Prot::RW, true).unwrap();
    let dst = uspace.mmap(len, Prot::RW, true).unwrap();
    let pat: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
    uspace.write_bytes(src, &pat).unwrap();

    let lib2 = Rc::clone(&lib);
    let svc2 = Rc::clone(&svc);
    let core = os.machine.core(0);
    sim.spawn("client", async move {
        let _ = lib2.amemcpy(&core, dst, src, 0).await.expect("admitted");
        let d = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
        // Zero-length read *of the pending destination*: must not trip
        // the absorption/taint machinery (nothing is forwarded).
        let _ = lib2.amemcpy(&core, src, dst, 0).await.expect("admitted");
        let _ = lib2.csync_all(&core).await;
        assert!(d.all_ready(), "real copy must complete");
        svc2.stop();
    });
    sim.run();

    let mut got = vec![0u8; len];
    uspace.read_bytes(dst, &mut got).unwrap();
    assert_eq!(got, pat, "real copy corrupted by zero-length neighbours");
    assert_eq!(svc.stats().tasks_completed, 3);
    assert_no_pinned_leaks(&os.pm);
}

/// Lengths straddling segment boundaries: `k*seg - 1`, `k*seg`,
/// `k*seg + 1`, and `1`. Every segment must be marked, the partial last
/// segment included, and the bytes must land exactly.
#[test]
fn segment_straddling_lengths_complete_exactly() {
    let seg = DEFAULT_SEGMENT;
    let mut lens = vec![1usize];
    for k in [1usize, 3, 7] {
        lens.extend([k * seg - 1, k * seg, k * seg + 1]);
    }
    for len in lens {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 2048);
        let svc = os.install_copier(vec![os.machine.core(1)], CopierConfig::default());
        let proc = os.spawn_process();
        let lib = proc.lib();
        let uspace = Rc::clone(&lib.uspace);
        let src = uspace.mmap(len, Prot::RW, true).unwrap();
        let dst = uspace.mmap(len, Prot::RW, true).unwrap();
        let pat: Vec<u8> = (0..len).map(|i| (i ^ (i >> 8)) as u8).collect();
        uspace.write_bytes(src, &pat).unwrap();

        let got_d = Rc::new(std::cell::RefCell::new(None));
        let gd = Rc::clone(&got_d);
        let lib2 = Rc::clone(&lib);
        let svc2 = Rc::clone(&svc);
        let core = os.machine.core(0);
        sim.spawn("client", async move {
            let d = lib2.amemcpy(&core, dst, src, len).await.expect("admitted");
            let _ = lib2.csync_all(&core).await;
            gd.borrow_mut().replace(d);
            svc2.stop();
        });
        sim.run();

        let d = got_d.borrow().clone().unwrap();
        assert_eq!(d.num_segments(), len.div_ceil(seg), "len {len}");
        assert!(d.all_ready(), "len {len}: unfinished segments");
        for s in 0..d.num_segments() {
            assert!(d.is_marked(s), "len {len}: segment {s} unmarked");
            let (lo, hi) = d.segment_range(s);
            assert!(
                hi <= len,
                "len {len}: segment {s} range [{lo},{hi}) overruns"
            );
        }
        let mut got = vec![0u8; len];
        uspace.read_bytes(dst, &mut got).unwrap();
        assert_eq!(got, pat, "len {len}: bytes differ");
        assert_eq!(svc.stats().bytes_copied, len as u64, "len {len}");
        assert_no_pinned_leaks(&os.pm);
    }
}
