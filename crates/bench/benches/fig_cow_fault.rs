//! §6.1.2 CoW fault handling: average thread-blocking time per fault for
//! 4 KB base pages and 2 MB huge-page regions.
//!
//! Paper shape: −71.8% for 2 MB, −8.0% for 4 KB.

use std::rc::Rc;

use copier_bench::{delta, kb, row, section};
use copier_mem::{Prot, PAGE_SIZE};
use copier_os::{handle_cow_fault, Os};
use copier_sim::{Machine, Nanos, Sim};

const FAULTS: usize = 12;

fn run(region: usize, use_copier: bool) -> Nanos {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 3 * FAULTS * region / PAGE_SIZE + 4096);
    if use_copier {
        os.install_copier(vec![os.machine.core(1)], Default::default());
    }
    let parent = os.spawn_process();
    let core = os.machine.core(0);
    let os2 = Rc::clone(&os);
    let out = Rc::new(std::cell::Cell::new(Nanos::ZERO));
    let out2 = Rc::clone(&out);
    sim.spawn("faults", async move {
        let mut total = Nanos::ZERO;
        let mut children = Vec::new();
        for i in 0..FAULTS {
            let va = parent.space.mmap(region, Prot::RW, true).unwrap();
            parent.space.write_bytes(va, &[i as u8; 64]).unwrap();
            // Fork to arm CoW, then fault the whole region at once.
            children.push(parent.space.fork(1000 + i as u32).unwrap());
            let o = handle_cow_fault(&os2, &core, &parent, va, region, use_copier)
                .await
                .unwrap();
            total += o.blocked;
        }
        out2.set(Nanos(total.as_nanos() / FAULTS as u64));
        if let Some(svc) = os2.copier.borrow().as_ref() {
            svc.stop();
        }
    });
    sim.run();
    out.get()
}

fn main() {
    section("CoW fault blocking time per fault");
    for region in [PAGE_SIZE, 2 * 1024 * 1024] {
        let b = run(region, false);
        let c = run(region, true);
        row(&[
            ("region", kb(region)),
            ("baseline", format!("{b}")),
            ("copier", format!("{c}")),
            ("change", delta(b, c)),
        ]);
    }
}
