//! §6.3.5 micro-architectural impact: the cache-pollution proxy.
//!
//! Inline copies evict the app's hot data; offloading them to Copier's
//! core keeps the app's CPI low. We run compute+copy rounds on a core
//! whose cache-residency model notes each inline copy and report the
//! copy-irrelevant compute time with and without Copier (paper: −4–16%
//! CPI).

use std::rc::Rc;

use copier_bench::{delta, kb, row, section};
use copier_client::{sync_memcpy, CopierHandle};
use copier_core::{Copier, CopierConfig};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier_sim::{CacheModel, Machine, Nanos, Sim};

const ROUNDS: usize = 50;
const COMPUTE: Nanos = Nanos::from_micros(8);

fn run(size: usize, use_copier: bool) -> Nanos {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(8192, AllocPolicy::Scattered));
    let cost = Rc::new(CostModel::default());
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::clone(&cost),
        CopierConfig::default(),
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);
    let out = Rc::new(std::cell::Cell::new(Nanos::ZERO));
    let out2 = Rc::clone(&out);
    let svc2 = Rc::clone(&svc);
    sim.spawn("driver", async move {
        let src = space.mmap(size, Prot::RW, true).unwrap();
        let dst = space.mmap(size, Prot::RW, true).unwrap();
        let (mut cache, mut compute_time) = (CacheModel::default(), Nanos::ZERO);
        for _ in 0..ROUNDS {
            if use_copier {
                lib.amemcpy(&core, dst, src, size).await.expect("admitted");
            } else {
                sync_memcpy(&core, &cost, &space, dst, src, size)
                    .await
                    .unwrap();
                cache.note_inline_copy(size);
            }
            // Copy-irrelevant hot-data compute; its CPI reflects how much
            // of the working set the copy evicted.
            let before = core.busy_time();
            core.advance(cache.compute_cost(COMPUTE)).await;
            compute_time += core.busy_time() - before;
            if use_copier {
                lib.csync(&core, dst, size).await.unwrap();
            }
        }
        out2.set(Nanos(compute_time.as_nanos() / ROUNDS as u64));
        svc2.stop();
    });
    sim.run();
    out.get()
}

fn main() {
    section("CPI proxy: copy-irrelevant compute time per round (8us nominal)");
    for size in [16 * 1024usize, 64 * 1024, 256 * 1024, 1024 * 1024] {
        let inline = run(size, false);
        let offload = run(size, true);
        row(&[
            ("copy", kb(size)),
            ("inline", format!("{inline}")),
            ("copier", format!("{offload}")),
            ("cpi-change", delta(inline, offload)),
        ]);
    }
}
