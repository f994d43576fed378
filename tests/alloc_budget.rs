//! Host guard: planning a served copy stays within a heap-call budget.
//!
//! One tenant on scattered frames (every 4 KiB page its own extent, the
//! benchmark's `AllocPolicy`) submits 40 KiB copies a little slower than
//! the service copies them, so a round serves about one task — the case
//! where nothing a round allocates is shared between tasks. A counting
//! `#[global_allocator]` counts `alloc`/`realloc` calls on the test's
//! thread from the end of a warm-up (pools, scratch buffers and caches at
//! their steady size) to the last completion. The simulation is
//! single-threaded and deterministic, so the count repeats exactly: it is
//! a count, not a timing. Virtual time does not depend on it.
//!
//! The same allocator also sums the bytes asked for, which pins what a
//! registered tenant costs: its queue set is built by its first copy and
//! each CSH ring allocates its slots on its first push, so registration
//! pays for the client's identity only (DESIGN.md §18).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use copier::client::{AmemcpyOpts, CopierHandle};
use copier::core::{Copier, CopierConfig, Handler, QueueEntry, Ring, SyncTask};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::sim::{Machine, Nanos, Sim};

struct Counting;

thread_local! {
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
    static HEAP_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one heap call asking for `bytes` (a `realloc` counts its new
/// size: the bytes sum is what was asked for, not what is live).
fn bump(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = HEAP_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = HEAP_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn heap_calls() -> u64 {
    HEAP_CALLS.with(Cell::get)
}

fn heap_bytes() -> u64 {
    HEAP_BYTES.with(Cell::get)
}

/// Bytes the heap was asked for while `f` ran.
fn bytes_of<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = heap_bytes();
    let r = f();
    (r, heap_bytes() - start)
}

const LEN: usize = 40 * 1024;
const POOL: usize = 8;
const WARMUP: usize = 400;
const MEASURED: usize = 1000;
/// Heap calls a served 40 KiB copy may cost end to end: client submit,
/// ring, admission, window entry, absorption analysis, translation and
/// pinning of ten scattered frames a side, dispatch, completion.
const BUDGET: u64 = 16;

/// Runs the scenario and returns (heap calls in the measured phase, the
/// virtual end time).
fn run() -> (u64, u64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(
        4 * POOL * LEN / 4096 + 256,
        AllocPolicy::Scattered,
    ));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig {
            use_dma: false,
            ..Default::default()
        },
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let bufs: Vec<(VirtAddr, VirtAddr)> = (0..POOL)
        .map(|b| {
            let src = space.mmap(LEN, Prot::RW, true).unwrap();
            let dst = space.mmap(LEN, Prot::RW, true).unwrap();
            space.write_bytes(src, &vec![b as u8 + 1; LEN]).unwrap();
            (dst, src)
        })
        .collect();

    let measured = Rc::new(Cell::new(0u64));
    let (measured2, svc2, h2, core) = (
        Rc::clone(&measured),
        Rc::clone(&svc),
        h.clone(),
        machine.core(0),
    );
    let bufs2 = bufs.clone();
    sim.spawn("tenant", async move {
        let mut start = 0;
        let mut last = None;
        for i in 0..WARMUP + MEASURED {
            if i == WARMUP {
                start = heap_calls();
            }
            let (dst, src) = bufs2[i % POOL];
            last = Some(lib.amemcpy(&core, dst, src, LEN).await.expect("admitted"));
            // 40 KiB takes the service ≈ 4.3 µs; 8 buffer pairs × 5 µs
            // leave every pair idle again before its next turn.
            h2.sleep(Nanos(5_000)).await;
        }
        let last = last.expect("submitted");
        while !last.all_ready() {
            h2.sleep(Nanos(1_000)).await;
        }
        measured2.set(heap_calls() - start);
        svc2.stop();
    });
    let end = sim.run();

    assert_eq!(svc.stats().tasks_completed, (WARMUP + MEASURED) as u64);
    assert_eq!(pm.pinned_frames(), 0, "pins leaked");
    let mut got = vec![0u8; LEN];
    for (b, &(dst, _)) in bufs.iter().enumerate() {
        space.read_bytes(dst, &mut got).unwrap();
        assert!(
            got.iter().all(|&x| x == b as u8 + 1),
            "buffer {b} not copied"
        );
    }
    (measured.get(), end.as_nanos())
}

#[test]
fn a_served_copy_costs_a_bounded_number_of_heap_calls() {
    let (calls, end) = run();
    let per_copy = calls as f64 / MEASURED as f64;
    println!("{calls} heap calls for {MEASURED} served copies = {per_copy:.2} a copy");
    assert!(
        calls <= BUDGET * MEASURED as u64,
        "{per_copy:.2} heap calls per served 40 KiB copy, budget {BUDGET}"
    );
    // The count is a property of the code, not of the run.
    assert_eq!(run(), (calls, end), "heap-call count does not repeat");
}

/// Bytes a registered tenant costs on a default-config service
/// (`queue_cap` 1024): its client state and its libCopier handle, with no
/// queue set and no descriptor pool. When registration built every ring's
/// slots, each queue pair behind its own `Rc`, it was 344,936 bytes; with
/// a default queue set of five ring headers and the pool's tables built
/// up front, 824.
const REGISTRATION_BYTES: u64 = 368;
/// What a tenant's first copy asks for beyond a later copy and the u-mode
/// Copy ring's slots: its default queue set, its descriptor pool's
/// tables, its first descriptor and the first capacity of the handle's
/// and the service's per-tenant tables.
const FIRST_USE_BYTES: u64 = 1248;

/// What the footprint scenario measured, all in heap bytes asked for.
#[derive(Debug, PartialEq, Eq)]
struct Footprint {
    /// `CopierHandle::new`.
    registration: u64,
    /// A fresh `Ring<QueueEntry>`'s slot array at `queue_cap` slots.
    copy_slots: u64,
    /// The tenant's first copy, from its submission to its return.
    first_copy: u64,
    /// Its later copies, each submitted after the one before settled.
    later_copies: [u64; 2],
}

/// Bytes `ring`'s next push asks for: its slot array if no push has
/// reached it yet, else nothing.
fn push_bytes<T>(ring: &Ring<T>, v: T) -> u64 {
    bytes_of(|| assert!(ring.push(v).is_ok(), "probe push refused")).1
}

/// Registers one tenant on a default-config service, runs three copies
/// with kernel-function handlers, and checks which rings were allocated.
fn footprint() -> Footprint {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(64, AllocPolicy::Scattered));
    let cfg = CopierConfig::default();
    let cap = cfg.queue_cap;
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        cfg,
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let (lib, registration) = bytes_of(|| CopierHandle::new(&svc, Rc::clone(&space)));
    let src = space.mmap(4096, Prot::RW, true).unwrap();
    let dst = space.mmap(4096, Prot::RW, true).unwrap();
    space.write_bytes(src, &[7; 4096]).unwrap();

    let copies = Rc::new(Cell::new([0; 3]));
    let (copies2, lib2, svc2, h2, core) = (
        Rc::clone(&copies),
        Rc::clone(&lib),
        Rc::clone(&svc),
        h.clone(),
        machine.core(0),
    );
    sim.spawn("tenant", async move {
        let mut bytes = [0; 3];
        for b in &mut bytes {
            let opts = AmemcpyOpts {
                func: Some(Handler::KFunc(Rc::new(|| {}))),
                ..Default::default()
            };
            let start = heap_bytes();
            let d = lib2.try_amemcpy(&core, dst, src, 4096, opts).await;
            *b = heap_bytes() - start;
            let d = d.expect("admitted");
            while !d.all_ready() {
                h2.sleep(Nanos(1_000)).await;
            }
            h2.sleep(Nanos(10_000)).await;
        }
        copies2.set(bytes);
        svc2.stop();
    });
    sim.run();
    assert_eq!(svc.stats().tasks_completed, 3);
    let mut got = [0; 4096];
    space.read_bytes(dst, &mut got).unwrap();
    assert!(got.iter().all(|&x| x == 7), "copy not served");

    // What each ring type's slot array costs, from a fresh ring's push.
    let barrier = || QueueEntry::Barrier { peer_pos: 0 };
    let sync = || SyncTask {
        space_id: 1,
        addr: src,
        len: 0,
        abort: false,
        target: None,
    };
    let handler = || Handler::KFunc(Rc::new(|| {}));
    let copy_slots = push_bytes(&Ring::new(cap), barrier());
    let sync_slots = push_bytes(&Ring::new(cap), sync());
    let handler_slots = push_bytes(&Ring::new(cap), handler());
    assert!(copy_slots >= cap as u64, "a slot is at least a byte");

    // The copies pushed only the u-mode Copy ring: the Sync rings of both
    // levels, the k-mode Copy ring and the Handler ring are still without
    // slots (their first push allocates them now), and the u-mode Copy
    // ring has its slots (a push allocates nothing).
    let set = lib.client.default_set();
    assert_eq!(push_bytes(&set.uq.copy, barrier()), 0, "u-mode Copy ring");
    let unpushed = [
        (
            "k-mode Copy",
            push_bytes(&set.kq.copy, barrier()),
            copy_slots,
        ),
        ("k-mode Sync", push_bytes(&set.kq.sync, sync()), sync_slots),
        ("u-mode Sync", push_bytes(&set.uq.sync, sync()), sync_slots),
        (
            "Handler",
            push_bytes(&set.handler, handler()),
            handler_slots,
        ),
    ];
    for (ring, got, slots) in unpushed {
        assert_eq!(got, slots, "{ring} ring was pushed");
    }

    let [first_copy, later_copies @ ..] = copies.get();
    Footprint {
        registration,
        copy_slots,
        first_copy,
        later_copies,
    }
}

#[test]
fn a_registered_tenant_holds_no_ring_slots() {
    let f = footprint();
    println!("{f:?}");
    assert_eq!(
        f.registration, REGISTRATION_BYTES,
        "bytes to register a tenant"
    );
    // The first copy pays for the one ring it pushes, once.
    let [later, again] = f.later_copies;
    assert_eq!(later, again, "a later copy's bytes");
    assert_eq!(
        f.first_copy - f.copy_slots - later,
        FIRST_USE_BYTES,
        "first copy's bytes beyond a later copy and the u-mode Copy ring"
    );
    // The count is a property of the code, not of the run.
    assert_eq!(footprint(), f, "byte count does not repeat");
}
