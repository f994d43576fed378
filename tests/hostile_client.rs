//! A hostile client against the service: ring entries no library writes,
//! pushed straight onto a tenant's u-rings, and random writes into every
//! part of its mapped page, beside honest tenants. The service must settle
//! each hostile submission with a typed outcome, and the honest tenants
//! must not notice.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle, SubmitResult};
use copier::core::{
    CopierConfig, CopyFault, CopyTask, Handler, PollMode, QueueEntry, SegDescriptor, SyncTask,
    DEFAULT_SEGMENT,
};
use copier::mem::{Prot, VirtAddr};
use copier::os::Os;
use copier::sim::{Machine, Nanos, Sim};
use copier_testkit::{
    assert_no_pinned_leaks, check_with, prop_assert, prop_assert_eq, shrink_vec, Config,
    PropResult, TestRng,
};

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
    assert_eq!(hostile.client.view().inflight_tasks, 0, "no window entry");
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

/// One write a tenant makes into what it maps: its credit word, its
/// signal list, its queue sets and its handler rings — everything
/// `Client` and `QueueSet` leave public — or a copy through the library.
#[derive(Debug, Clone, Copy)]
enum Scribble {
    /// Overwrites the credit word.
    Credits(u64),
    /// Returns this many credits it never took.
    OverReturn(u32),
    /// Pushes a signal, or clears the list on `None`.
    Signal(Option<CopyFault>),
    /// Opens another queue set of this many slots.
    NewSet(usize),
    /// Pops every set's handler ring and overflow list without running
    /// the handlers.
    PopHandlers,
    /// Submits a copy on queue set `fd` (modulo the sets it holds); a
    /// `wild` one reads an unmapped source.
    Copy {
        fd: usize,
        len: usize,
        lazy: bool,
        wild: bool,
    },
    /// Lets the service run this many microseconds.
    Work(u64),
}

const FAULTS: [CopyFault; 6] = [
    CopyFault::Segv,
    CopyFault::OutOfMemory,
    CopyFault::Aborted,
    CopyFault::Overloaded,
    CopyFault::Torn,
    CopyFault::Corrupted,
];
/// Bytes of each hostile buffer and of each honest copy.
const BUF: usize = 32 * 1024;
const HONEST_COPIES: usize = 4;

fn gen_scribbles(rng: &mut TestRng) -> Vec<Scribble> {
    (0..rng.range_usize(1, 48))
        .map(|_| match rng.gen_range(9) {
            0 => Scribble::Credits(match rng.gen_range(4) {
                0 => 0,
                1 => u64::MAX,
                2 => rng.gen_range(2048),
                _ => rng.next_u64(),
            }),
            1 => Scribble::OverReturn(rng.gen_range(2000) as u32),
            2 => Scribble::Signal(rng.gen_bool(0.8).then(|| *rng.choose(&FAULTS))),
            3 => Scribble::NewSet(rng.range_usize(0, 65)),
            4 => Scribble::PopHandlers,
            5 => Scribble::Work(rng.gen_range(60)),
            _ => Scribble::Copy {
                fd: rng.range_usize(0, 4),
                len: rng.range_usize(1, BUF + 1),
                lazy: rng.gen_bool(0.3),
                wild: rng.gen_bool(0.15),
            },
        })
        .collect()
}

/// Content of honest tenant `t`'s source for copy `c`.
fn honest_pattern(t: usize, c: usize) -> Vec<u8> {
    (0..BUF).map(|i| (i * 7 + t * 31 + c * 13) as u8).collect()
}

/// Runs the hostile tenant's `scribbles` on `shards` shards beside one
/// honest tenant per shard, each copying known bytes and syncing them.
fn run_hostile_page(scribbles: &[Scribble], shards: usize) -> PropResult {
    let mut sim = Sim::new();
    let h = sim.handle();
    // Tenant cores: the hostile one, then up to 16 candidates for the
    // honest ones; the shard cores come last.
    const CANDIDATES: usize = 16;
    let machine = Machine::new(&h, 1 + CANDIDATES + shards);
    let os = Os::boot(&h, machine, 4096);
    let cfg = CopierConfig {
        shards,
        polling: PollMode::Napi {
            spin_rounds: 64,
            park_timeout: Nanos(20_000),
        },
        ..Default::default()
    };
    let cores = (0..shards).map(|i| os.machine.core(1 + CANDIDATES + i));
    let svc = os.install_copier(cores.collect(), cfg);
    let hostile = os.spawn_process().lib();
    // One honest tenant per shard: spaces hash to shards, so register
    // tenants until each shard holds one.
    let mut honest: Vec<Rc<CopierHandle>> = Vec::new();
    for _ in 0..CANDIDATES {
        let lib = os.spawn_process().lib();
        if honest.iter().all(|o| o.shard() != lib.shard()) {
            honest.push(lib);
        }
    }
    prop_assert_eq!(honest.len(), shards, "an honest tenant on every shard");

    let done = Rc::new(Cell::new(0usize));
    let tenants = 1 + honest.len();
    let stop_when_all_done = {
        let (done, svc) = (Rc::clone(&done), Rc::clone(&svc));
        move || {
            done.set(done.get() + 1);
            if done.get() == tenants {
                svc.stop();
            }
        }
    };
    let honest_bufs: Vec<Vec<(VirtAddr, VirtAddr)>> = honest
        .iter()
        .enumerate()
        .map(|(t, lib)| {
            (0..HONEST_COPIES)
                .map(|c| {
                    let src = lib.uspace.mmap(BUF, Prot::RW, true).unwrap();
                    let dst = lib.uspace.mmap(BUF, Prot::RW, true).unwrap();
                    lib.uspace.write_bytes(src, &honest_pattern(t, c)).unwrap();
                    (src, dst)
                })
                .collect()
        })
        .collect();
    let honest_ok = Rc::new(Cell::new(0usize));
    for (t, lib) in honest.iter().enumerate() {
        let (lib, core, bufs) = (
            Rc::clone(lib),
            os.machine.core(1 + t),
            honest_bufs[t].clone(),
        );
        let (ok, finish, h) = (Rc::clone(&honest_ok), stop_when_all_done.clone(), h.clone());
        sim.spawn("honest", async move {
            for &(src, dst) in &bufs {
                if lib.amemcpy(&core, dst, src, BUF).await.is_ok() {
                    ok.set(ok.get() + 1);
                }
                h.sleep(Nanos::from_micros(5)).await;
            }
            if lib.csync_all(&core).await.is_err() {
                ok.set(0);
            }
            finish();
        });
    }

    // Every hostile submission: refused at the library, or admitted with
    // a descriptor that must end copied or faulted.
    let outcomes: Rc<RefCell<Vec<SubmitResult>>> = Rc::default();
    let (lib, core, out) = (
        Rc::clone(&hostile),
        os.machine.core(0),
        Rc::clone(&outcomes),
    );
    let src = lib.uspace.mmap(BUF, Prot::RW, true).unwrap();
    let dst = lib.uspace.mmap(BUF, Prot::RW, true).unwrap();
    let scribbles = scribbles.to_vec();
    sim.spawn("hostile", async move {
        let mut fds = vec![0];
        let client = &lib.client;
        for s in scribbles {
            match s {
                Scribble::Credits(v) => client.credits.set(v),
                Scribble::OverReturn(n) => (0..n).for_each(|_| client.grant_credit()),
                Scribble::Signal(Some(f)) => client.signals.borrow_mut().push(f),
                Scribble::Signal(None) => client.signals.borrow_mut().clear(),
                Scribble::NewSet(cap) => fds.push(lib.create_queue(cap)),
                Scribble::PopHandlers => {
                    for &fd in &fds {
                        let set = client.set(fd);
                        while set.handler.pop().is_some() {}
                        set.handler_overflow.borrow_mut().clear();
                    }
                }
                Scribble::Copy {
                    fd,
                    len,
                    lazy,
                    wild,
                } => {
                    let from = if wild {
                        VirtAddr(0x7000_0000_0000)
                    } else {
                        src
                    };
                    let opts = AmemcpyOpts {
                        fd: fds[fd % fds.len()],
                        lazy,
                        func: Some(Handler::UFunc(Rc::new(|| {}))),
                        ..Default::default()
                    };
                    let outcome = lib._amemcpy(&core, dst, from, len, opts).await;
                    out.borrow_mut().push(outcome);
                }
                Scribble::Work(us) => h.sleep(Nanos::from_micros(us)).await,
            }
        }
        // Whatever the credit word says, syncing settles what was admitted.
        let _ = lib.csync_all(&core).await;
        stop_when_all_done();
    });
    sim.run();

    prop_assert_eq!(
        honest_ok.get(),
        shards * HONEST_COPIES,
        "every honest copy admitted and synced"
    );
    for (t, lib) in honest.iter().enumerate() {
        for (c, &(_, dst)) in honest_bufs[t].iter().enumerate() {
            let mut got = vec![0u8; BUF];
            lib.uspace.read_bytes(dst, &mut got).unwrap();
            prop_assert!(
                got == honest_pattern(t, c),
                "honest tenant {} copy {}",
                t,
                c
            );
        }
    }
    for (i, o) in outcomes.borrow().iter().enumerate() {
        if let Ok(d) = o {
            prop_assert!(
                d.all_ready() || d.fault().is_some(),
                "hostile submission {} neither landed nor faulted",
                i
            );
        }
    }
    for lib in std::iter::once(&hostile).chain(&honest) {
        lib.client.index_consistent()?;
        prop_assert_eq!(lib.client.view().pinned, 0, "client {} pins", lib.client.id);
    }
    prop_assert_eq!(os.pm.pinned_frames(), 0, "pinned frames");
    svc.audit_aggregates()
}

/// A tenant writes random values into everything its page leaves public —
/// the credit word (zeroed, maxed, over-returned), its signal list, extra
/// queue sets, its handler rings — between copies of its own. At 1 and 4
/// shards, with one honest tenant per shard: no panic, every honest copy
/// lands intact, nothing stays pinned, the aggregates audit clean, and
/// each hostile submission ends refused, copied or faulted. The books it
/// cannot write (vruntime, cgroup, in-flight counts, pins, `dead`, the
/// merge cells) are `Client`'s and `QueueSet`'s private fields.
#[test]
fn random_writes_to_the_mapped_page_leave_the_service_whole() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 24;
    }
    check_with(
        &cfg,
        gen_scribbles,
        |s| shrink_vec(s, |_| Vec::new()),
        |s| {
            for shards in [1, 4] {
                run_hostile_page(s, shards).map_err(|e| format!("{shards} shards: {e}"))?;
            }
            Ok(())
        },
    );
}
