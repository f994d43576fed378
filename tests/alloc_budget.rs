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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use copier::client::CopierHandle;
use copier::core::{Copier, CopierConfig};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier::sim::{Machine, Nanos, Sim};

struct Counting;

thread_local! {
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = HEAP_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump that does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
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
