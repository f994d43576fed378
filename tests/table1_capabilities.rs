//! Table 1's capability matrix, asserted as executable facts about this
//! implementation: Copier works without page alignment, across privilege
//! levels and address spaces, without blocking the submitter, and it
//! absorbs redundant copies — the combination no baseline system offers.

use std::rc::Rc;

use copier::client::CopierHandle;
use copier::core::{Copier, CopierConfig};
use copier::hw::CostModel;
use copier::mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier::sim::{Machine, Nanos, Sim};

struct World {
    sim: Sim,
    machine: Rc<Machine>,
    pm: Rc<PhysMem>,
    svc: Rc<Copier>,
}

fn world() -> World {
    let sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig::default(),
    );
    svc.start();
    World {
        sim,
        machine,
        pm,
        svc,
    }
}

#[test]
fn no_alignment_requirement() {
    // Zero-copy sockets and zIO need page-aligned, page-granular buffers;
    // Copier copies arbitrary ragged ranges.
    let mut w = world();
    let space = AddressSpace::new(1, Rc::clone(&w.pm));
    let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
    let core = w.machine.core(0);
    let svc = Rc::clone(&w.svc);
    w.sim.spawn("t", async move {
        let src = space.mmap(16 * 1024, Prot::RW, true).unwrap();
        let dst = space.mmap(16 * 1024, Prot::RW, true).unwrap();
        let data = vec![0x5Au8; 7331];
        space.write_bytes(src.add(13), &data).unwrap();
        lib.amemcpy(&core, dst.add(777), src.add(13), 7331)
            .await
            .expect("admitted");
        lib.csync(&core, dst.add(777), 7331).await.unwrap();
        let mut out = vec![0u8; 7331];
        space.read_bytes(dst.add(777), &mut out).unwrap();
        assert_eq!(out, data);
        svc.stop();
    });
    w.sim.run();
}

#[test]
fn cross_address_space_copy() {
    // IPC-style: source in process A, destination in process B.
    let mut w = world();
    let a = AddressSpace::new(1, Rc::clone(&w.pm));
    let b = AddressSpace::new(2, Rc::clone(&w.pm));
    let lib = CopierHandle::new(&w.svc, Rc::clone(&a));
    let core = w.machine.core(0);
    let svc = Rc::clone(&w.svc);
    let b2 = Rc::clone(&b);
    w.sim.spawn("t", async move {
        let src = a.mmap(4096, Prot::RW, true).unwrap();
        let dst = b2.mmap(4096, Prot::RW, true).unwrap();
        a.write_bytes(src, b"cross-space message").unwrap();
        lib._amemcpy(
            &core,
            dst,
            src,
            19,
            copier::client::AmemcpyOpts {
                dst_space: Some(Rc::clone(&b2)),
                ..Default::default()
            },
        )
        .await
        .expect("admitted");
        lib.csync_in(&core, b2.id(), dst, 19, 0).await.unwrap();
        let mut out = [0u8; 19];
        b2.read_bytes(dst, &mut out).unwrap();
        assert_eq!(&out, b"cross-space message");
        svc.stop();
    });
    w.sim.run();
}

#[test]
fn submission_does_not_block() {
    // The submitter's cost is bounded by queue ops, independent of size.
    let mut w = world();
    let space = AddressSpace::new(1, Rc::clone(&w.pm));
    let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
    let core = w.machine.core(0);
    let svc = Rc::clone(&w.svc);
    let h = w.sim.handle();
    w.sim.spawn("t", async move {
        let len = 1024 * 1024; // 1 MB — takes ~95us to actually copy
        let src = space.mmap(len, Prot::RW, true).unwrap();
        let dst = space.mmap(len, Prot::RW, true).unwrap();
        let t0 = h.now();
        lib.amemcpy(&core, dst, src, len).await.expect("admitted");
        let submit_time = h.now() - t0;
        assert!(
            submit_time < Nanos::from_micros(1),
            "submission must not block on the copy, took {submit_time}"
        );
        lib.csync(&core, dst, len).await.unwrap();
        svc.stop();
    });
    w.sim.run();
}

#[test]
fn multiple_replicas_supported() {
    // Unlike remapping-based zero-copy, the same source can be copied to
    // many independent destinations, each privately mutable.
    let mut w = world();
    let space = AddressSpace::new(1, Rc::clone(&w.pm));
    let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
    let core = w.machine.core(0);
    let svc = Rc::clone(&w.svc);
    w.sim.spawn("t", async move {
        let src = space.mmap(8192, Prot::RW, true).unwrap();
        space.write_bytes(src, b"replicate me").unwrap();
        let mut dsts = Vec::new();
        for _ in 0..4 {
            let d = space.mmap(8192, Prot::RW, true).unwrap();
            lib.amemcpy(&core, d, src, 12).await.expect("admitted");
            dsts.push(d);
        }
        lib.csync_all(&core).await.unwrap();
        for (i, d) in dsts.iter().enumerate() {
            space.write_bytes(d.add(10), &[b'0' + i as u8]).unwrap();
        }
        for (i, d) in dsts.iter().enumerate() {
            let mut out = [0u8; 12];
            space.read_bytes(*d, &mut out).unwrap();
            assert_eq!(&out[..10], b"replicate ");
            assert_eq!(out[10], b'0' + i as u8, "replica {i} is independent");
        }
        svc.stop();
    });
    w.sim.run();
}

/// Tasks drained together are analysed together: the chain a → b → c
/// lands while an unrelated 128 KB copy is in service (1 µs in, ≈ 10 µs
/// to go), so the next round's one drain finds both links and c is filled
/// from a. (A service with nothing else to do starts a → b the moment it
/// lands, and there is nothing left to absorb when b → c arrives.)
/// Mutant: `absorption: false` copies both links in full and
/// `bytes_absorbed` stays 0.
#[test]
fn absorbs_redundant_copies() {
    let mut w = world();
    let space = AddressSpace::new(1, Rc::clone(&w.pm));
    let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
    let core = w.machine.core(0);
    let svc = Rc::clone(&w.svc);
    w.sim.spawn("t", async move {
        let a = space.mmap(32 * 1024, Prot::RW, true).unwrap();
        let b = space.mmap(32 * 1024, Prot::RW, true).unwrap();
        let c = space.mmap(32 * 1024, Prot::RW, true).unwrap();
        let x = space.mmap(256 * 1024, Prot::RW, true).unwrap();
        space.write_bytes(a, &vec![9u8; 32 * 1024]).unwrap();
        lib.amemcpy(&core, x.add(128 * 1024), x, 128 * 1024)
            .await
            .expect("admitted");
        core.advance(Nanos::from_micros(1)).await;
        lib.amemcpy(&core, b, a, 32 * 1024).await.expect("admitted");
        lib.amemcpy(&core, c, b, 32 * 1024).await.expect("admitted");
        lib.csync(&core, c, 32 * 1024).await.unwrap();
        assert!(svc.stats().bytes_absorbed > 0, "{:?}", svc.stats());
        let mut out = vec![0u8; 32 * 1024];
        space.read_bytes(c, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 9));
        svc.stop();
    });
    w.sim.run();
}
