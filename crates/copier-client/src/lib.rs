//! # copier-client — libCopier
//!
//! The client library of Table 2: `amemcpy`/`amemmove`/`csync`/`csync_all`
//! high-level APIs, `_amemcpy`/`_csync` low-level variants with customized
//! descriptors, per-thread queues, lazy copies and abort, the descriptor
//! pool, kernel-mode copies bracketed by cross-queue barriers, and the
//! synchronous baselines Copier is compared against.

pub mod api;
pub mod pool;
pub mod syncops;

pub use api::{AmemcpyOpts, CopierHandle, CsyncResult, ShmBinding, SubmitError, SubmitResult};
pub use pool::DescriptorPool;
pub use syncops::{sync_copy, sync_memcpy, sync_memmove};

#[cfg(test)]
mod e2e {
    use std::cell::RefCell;
    use std::rc::Rc;

    use copier_core::{Copier, CopierConfig, CopyFault, Handler};
    use copier_hw::CostModel;
    use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
    use copier_sim::{Machine, Nanos, Sim};

    use crate::api::{AmemcpyOpts, CopierHandle};

    struct World {
        sim: Sim,
        machine: Rc<Machine>,
        pm: Rc<PhysMem>,
        svc: Rc<Copier>,
    }

    /// Builds a 2-core machine: core 0 = app, core 1 = Copier.
    fn world(cfg: CopierConfig) -> World {
        let sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
        let cost = Rc::new(CostModel::default());
        let svc = Copier::new(&h, Rc::clone(&pm), vec![machine.core(1)], cost, cfg);
        svc.start();
        World {
            sim,
            machine,
            pm,
            svc,
        }
    }

    fn fill_pattern(space: &Rc<AddressSpace>, va: VirtAddr, len: usize, salt: u8) -> Vec<u8> {
        let data: Vec<u8> = (0..len)
            .map(|i| ((i as u32 * 31 + salt as u32) % 251) as u8)
            .collect();
        space.write_bytes(va, &data).unwrap();
        data
    }

    #[test]
    fn amemcpy_csync_roundtrip() {
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let src = space2.mmap(64 * 1024, Prot::RW, true).unwrap();
            let dst = space2.mmap(64 * 1024, Prot::RW, true).unwrap();
            let data = fill_pattern(&space2, src, 64 * 1024, 7);
            lib.amemcpy(&core, dst, src, 64 * 1024).await.unwrap();
            lib.csync(&core, dst, 64 * 1024).await.unwrap();
            let mut out = vec![0u8; 64 * 1024];
            space2.read_bytes(dst, &mut out).unwrap();
            assert_eq!(out, data);
            svc.stop();
        });
        w.sim.run();
        let st = w.svc.stats();
        assert_eq!(st.bytes_copied, 64 * 1024);
        assert_eq!(st.tasks_completed, 1);
    }

    #[test]
    fn copy_overlaps_with_compute() {
        // The headline mechanism: app compute and the copy proceed in
        // parallel, so total time ≈ max(compute, copy), not the sum.
        let len = 256 * 1024;
        let compute = Nanos::from_micros(200);

        let run = |async_mode: bool| -> Nanos {
            let mut w = world(CopierConfig::default());
            let space = AddressSpace::new(1, Rc::clone(&w.pm));
            let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
            let core = w.machine.core(0);
            let space2 = Rc::clone(&space);
            let svc = Rc::clone(&w.svc);
            let h = w.sim.handle();
            let cost = Rc::clone(w.svc.cost_model());
            let end = Rc::new(std::cell::Cell::new(Nanos::ZERO));
            let end2 = Rc::clone(&end);
            w.sim.spawn("app", async move {
                let src = space2.mmap(len, Prot::RW, true).unwrap();
                let dst = space2.mmap(len, Prot::RW, true).unwrap();
                fill_pattern(&space2, src, len, 3);
                let t0 = h.now();
                if async_mode {
                    lib.amemcpy(&core, dst, src, len).await.unwrap();
                    core.advance(compute).await; // the Copy-Use window
                    lib.csync(&core, dst, len).await.unwrap();
                } else {
                    crate::syncops::sync_memcpy(&core, &cost, &space2, dst, src, len)
                        .await
                        .unwrap();
                    core.advance(compute).await;
                }
                end2.set(h.now() - t0);
                svc.stop();
            });
            w.sim.run();
            end.get()
        };

        let t_async = run(true);
        let t_sync = run(false);
        assert!(
            t_async < t_sync,
            "async {t_async} should beat sync {t_sync}"
        );
        // 256 KB AVX copy ≈ 23.8 µs; fully hidden inside the 200 µs window.
        let hidden = t_sync - t_async;
        assert!(
            hidden > Nanos::from_micros(15),
            "most of the copy should be hidden, got {hidden}"
        );
    }

    #[test]
    fn segment_pipeline_unblocks_early() {
        // csync of the first KB returns before the full 256 KB lands.
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        let h = w.sim.handle();
        let cost = Rc::clone(w.svc.cost_model());
        w.sim.spawn("app", async move {
            let len = 256 * 1024;
            let src = space2.mmap(len, Prot::RW, true).unwrap();
            let dst = space2.mmap(len, Prot::RW, true).unwrap();
            fill_pattern(&space2, src, len, 9);
            let d = lib.amemcpy(&core, dst, src, len).await.unwrap();
            lib.csync(&core, dst, 1024).await.unwrap();
            let t_first = h.now();
            assert!(d.range_ready(0, 1024));
            assert!(
                !d.all_ready(),
                "first segment ready while the tail is still copying"
            );
            lib.csync(&core, dst, len).await.unwrap();
            let t_all = h.now();
            assert!(t_all - t_first > cost.cpu_copy(copier_hw::CpuCopyKind::Avx2, 64 * 1024));
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn absorption_short_circuits_chain() {
        // A: S1 → I (16 KB), B: I → D. With absorption the service copies
        // S1 → D directly and I is owed lazily. The pair lands while an
        // unrelated 128 KB copy is in service, so the next round drains
        // and analyses A and B together; an idle service would have
        // started A alone. Mutant: `absorption: false` (bytes_absorbed 0).
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let len = 16 * 1024;
            let s1 = space2.mmap(len, Prot::RW, true).unwrap();
            let ibuf = space2.mmap(len, Prot::RW, true).unwrap();
            let d = space2.mmap(len, Prot::RW, true).unwrap();
            let data = fill_pattern(&space2, s1, len, 5);
            let busy = space2.mmap(256 * 1024, Prot::RW, true).unwrap();
            lib.amemcpy(&core, busy.add(128 * 1024), busy, 128 * 1024)
                .await
                .unwrap();
            core.advance(Nanos::from_micros(1)).await;
            lib.amemcpy(&core, ibuf, s1, len).await.unwrap();
            lib.amemcpy(&core, d, ibuf, len).await.unwrap();
            lib.csync(&core, d, len).await.unwrap();
            let mut out = vec![0u8; len];
            space2.read_bytes(d, &mut out).unwrap();
            assert_eq!(out, data, "short-circuited data must be correct");
            // Absorption must have redirected some bytes.
            assert!(svc.stats().bytes_absorbed > 0, "{:?}", svc.stats());
            // The I buffer is still owed; csync forces it.
            lib.csync(&core, ibuf, len).await.unwrap();
            space2.read_bytes(ibuf, &mut out).unwrap();
            assert_eq!(out, data);
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn lazy_task_absorbed_and_aborted() {
        // The proxy pattern (§4.4): K1 → U lazy; U → K2; abort K1 → U.
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let len = 32 * 1024;
            let k1 = space2.mmap(len, Prot::RW, true).unwrap();
            let u = space2.mmap(len, Prot::RW, true).unwrap();
            let k2 = space2.mmap(len, Prot::RW, true).unwrap();
            let data = fill_pattern(&space2, k1, len, 11);
            let opts = AmemcpyOpts {
                lazy: true,
                ..AmemcpyOpts::default()
            };
            lib._amemcpy(&core, u, k1, len, opts).await.unwrap();
            lib.amemcpy(&core, k2, u, len).await.unwrap();
            lib.csync(&core, k2, len).await.unwrap();
            let mut out = vec![0u8; len];
            space2.read_bytes(k2, &mut out).unwrap();
            assert_eq!(out, data);
            let absorbed = svc.stats().bytes_absorbed;
            assert_eq!(absorbed as usize, len, "whole lazy copy absorbed");
            // Discard the lazy task — U is never materialized.
            lib.abort(&core, u, len).await;
            lib.csync_all(&core).await.unwrap();
            assert_eq!(svc.stats().aborts, 1);
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn fault_poisons_descriptor_and_signals() {
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let dst = space2.mmap(4096, Prot::RW, true).unwrap();
            // Source range was never mapped: proactive fault handling must
            // reject it and deliver a simulated SIGSEGV.
            lib.amemcpy(&core, dst, VirtAddr(0x40), 4096).await.unwrap();
            let r = lib.csync(&core, dst, 4096).await;
            assert_eq!(r, Err(CopyFault::Segv));
            assert_eq!(lib.client.signals.borrow().as_slice(), &[CopyFault::Segv]);
            assert_eq!(svc.stats().faults, 1);
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn handlers_run_after_completion() {
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        let klog = Rc::new(RefCell::new(Vec::<&str>::new()));
        let klog2 = Rc::clone(&klog);
        w.sim.spawn("app", async move {
            let src = space2.mmap(4096, Prot::RW, true).unwrap();
            let dst = space2.mmap(4096, Prot::RW, true).unwrap();
            fill_pattern(&space2, src, 4096, 2);
            let klog3 = Rc::clone(&klog2);
            let kf = Handler::KFunc(Rc::new(move || klog3.borrow_mut().push("kfunc")));
            lib._amemcpy(
                &core,
                dst,
                src,
                4096,
                AmemcpyOpts {
                    func: Some(kf),
                    ..AmemcpyOpts::default()
                },
            )
            .await
            .unwrap();
            lib.csync(&core, dst, 4096).await.unwrap();
            let klog4 = Rc::clone(&klog2);
            let uf = Handler::UFunc(Rc::new(move || klog4.borrow_mut().push("ufunc")));
            lib._amemcpy(
                &core,
                dst,
                src,
                4096,
                AmemcpyOpts {
                    func: Some(uf),
                    ..AmemcpyOpts::default()
                },
            )
            .await
            .unwrap();
            lib.csync_all(&core).await.unwrap();
            assert_eq!(*klog2.borrow(), vec!["kfunc", "ufunc"]);
            svc.stop();
        });
        w.sim.run();
        assert_eq!(*klog.borrow(), vec!["kfunc", "ufunc"]);
    }

    #[test]
    fn kernel_amemcpy_orders_across_privileges() {
        // Kernel submits K: S → X inside a trap; user then submits U: X → Y.
        // Barrier keys must order K before U even though they sit in
        // different rings; the data must flow S → X → Y.
        let mut w = world(CopierConfig {
            absorption: false, // force both copies to actually execute
            ..CopierConfig::default()
        });
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let len = 8 * 1024;
            let s = space2.mmap(len, Prot::RW, true).unwrap();
            let x = space2.mmap(len, Prot::RW, true).unwrap();
            let y = space2.mmap(len, Prot::RW, true).unwrap();
            let data = fill_pattern(&space2, s, len, 8);
            lib.kernel_amemcpy(&core, x, s, len, AmemcpyOpts::default())
                .await
                .unwrap();
            lib.amemcpy(&core, y, x, len).await.unwrap();
            lib.csync(&core, y, len).await.unwrap();
            let mut out = vec![0u8; len];
            space2.read_bytes(y, &mut out).unwrap();
            assert_eq!(out, data);
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn amemmove_overlapping_forward_is_correct() {
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let space2 = Rc::clone(&space);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let len = 32 * 1024;
            let base = space2.mmap(len + 8 * 1024, Prot::RW, true).unwrap();
            let data = fill_pattern(&space2, base, len, 13);
            // Move forward by 8 KB — overlapping.
            lib.amemmove(&core, base.add(8 * 1024), base, len)
                .await
                .unwrap();
            lib.csync(&core, base.add(8 * 1024), len).await.unwrap();
            let mut out = vec![0u8; len];
            space2.read_bytes(base.add(8 * 1024), &mut out).unwrap();
            assert_eq!(out, data);
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn amemmove_fault_in_the_synchronous_path_is_reported_by_csync() {
        // A shift under len/16 moves the bytes synchronously; a fault there
        // ends like any client fault — a poisoned descriptor over `dst`
        // that csync reports once — instead of panicking the caller.
        let mut w = world(CopierConfig::default());
        let space = AddressSpace::new(1, Rc::clone(&w.pm));
        let lib = CopierHandle::new(&w.svc, Rc::clone(&space));
        let core = w.machine.core(0);
        let svc = Rc::clone(&w.svc);
        w.sim.spawn("app", async move {
            let len = 32 * 1024;
            let base = space.mmap(len + 1024, Prot::RO, true).unwrap();
            let dst = base.add(1024);
            let moved = lib.amemmove(&core, dst, base, len).await.unwrap();
            assert_eq!(moved.len(), 1);
            assert_eq!(moved[0].fault(), Some(CopyFault::Segv));
            assert_eq!(lib.csync(&core, dst, len).await, Err(CopyFault::Segv));
            assert_eq!(lib.csync(&core, dst, len).await, Ok(()), "reported once");
            svc.stop();
        });
        w.sim.run();
    }

    #[test]
    fn multi_client_fairness_by_copy_length() {
        // Two clients flood the service; served bytes must be balanced
        // (CFS by copy length, §4.5.3).
        let mut w = world(CopierConfig::default());
        let core_app = w.machine.core(0);
        let svc = Rc::clone(&w.svc);
        let mut libs = Vec::new();
        for id in 0..2u32 {
            let space = AddressSpace::new(id + 1, Rc::clone(&w.pm));
            libs.push((CopierHandle::new(&w.svc, Rc::clone(&space)), space));
        }
        let h = w.sim.handle();
        w.sim.spawn("driver", async move {
            let len = 32 * 1024;
            let mut bufs = Vec::new();
            for (lib, space) in &libs {
                let src = space.mmap(len, Prot::RW, true).unwrap();
                let dst_area = space.mmap(len * 8, Prot::RW, true).unwrap();
                fill_pattern(space, src, len, 1);
                for i in 0..8 {
                    lib.amemcpy(&core_app, dst_area.add(i * len), src, len)
                        .await
                        .unwrap();
                }
                bufs.push((Rc::clone(lib), dst_area));
            }
            h.sleep(Nanos::from_millis(2)).await;
            for (lib, dst) in &bufs {
                lib.csync(&core_app, *dst, len * 8).await.unwrap();
            }
            let a = libs[0].0.client.copied_total.get();
            let b = libs[1].0.client.copied_total.get();
            assert_eq!(a, b, "equal work → equal served bytes");
            svc.stop();
        });
        w.sim.run();
    }
}
