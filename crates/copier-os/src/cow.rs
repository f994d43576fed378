//! Copy-on-write fault handling with Copier (§5.2, §6.1.2).
//!
//! The baseline CoW handler allocates a page and copies it synchronously
//! inside the fault. Copier-Linux splits the work: the handler submits a
//! Copy Task for the bulk of the page(s), copies a small leading slice
//! itself (so handler work and Copier copy overlap), `csync`s, and only
//! then swings the PTE — multi-replica semantics that zero-copy methods
//! cannot express (§2.2).

use std::rc::Rc;

use copier_client::{sync_copy, AmemcpyOpts};
use copier_hw::CpuCopyKind;
use copier_mem::{FrameId, MemError, Prot, Pte, VirtAddr, PAGE_SIZE};
use copier_sim::{Core, Nanos};

use crate::process::{Os, Process};

/// Outcome of one CoW fault resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CowOutcome {
    /// Bytes copied to produce the private replica.
    pub bytes: usize,
    /// Virtual time the faulting thread was blocked.
    pub blocked: Nanos,
}

/// Resolves a write fault on a CoW region of `region_len` bytes starting
/// at `va` (page-aligned). `region_len = PAGE_SIZE` models a base page;
/// `2 MiB` models a huge page whose replica must be produced at once.
///
/// `use_copier = false` is the baseline in-handler copy.
pub async fn handle_cow_fault(
    os: &Rc<Os>,
    core: &Rc<Core>,
    proc: &Rc<Process>,
    va: VirtAddr,
    region_len: usize,
    use_copier: bool,
) -> Result<CowOutcome, MemError> {
    assert!(va.is_page_aligned() && region_len.is_multiple_of(PAGE_SIZE));
    let t0 = os.h.now();
    let pages = region_len / PAGE_SIZE;
    // Fault entry overhead.
    core.advance(os.cost.page_fault).await;

    // Gather the old frames (they must be mapped CoW).
    let mut old = Vec::with_capacity(pages);
    for p in 0..pages {
        let pte = proc
            .space
            .translate(va.add(p * PAGE_SIZE))
            .ok_or(MemError::Segv(va))?;
        old.push(pte.frame);
    }
    // Allocate the private replica (contiguous, like a huge page).
    let first = os.pm.alloc_contiguous(pages)?;
    let new: Vec<FrameId> = (0..pages).map(|i| FrameId(first.0 + i as u32)).collect();

    // Map both ranges into kernel VAs (kmap) to copy through.
    let src_kva = os.kspace.map_shared(&old, Prot::RO)?;
    let dst_kva = os.kspace.map_shared(&new, Prot::RW)?;
    for &f in &new {
        os.pm.decref(f); // ownership handed to the mapping + later the PTE
    }

    // Both sides of the replica copy are kernel mappings.
    let kmaps = || AmemcpyOpts {
        dst_space: Some(Rc::clone(&os.kspace)),
        src_space: Some(Rc::clone(&os.kspace)),
        ..Default::default()
    };
    // The in-handler synchronous copy of the replica's first `len` bytes.
    let sync_replica = |len| {
        sync_copy(
            core,
            &os.cost,
            CpuCopyKind::Erms,
            &os.kspace,
            dst_kva,
            &os.kspace,
            src_kva,
            len,
        )
    };
    if use_copier && region_len > PAGE_SIZE {
        // Split: Copier takes the tail; the handler copies the head while
        // the service streams (§5.2 "divides the work").
        let lib = proc.lib();
        let head = (region_len / 4).max(PAGE_SIZE);
        let tail = region_len - head;
        let submitted = lib
            .kernel_amemcpy(core, dst_kva.add(head), src_kva.add(head), tail, kmaps())
            .await;
        match submitted {
            Ok(d) => {
                sync_replica(head).await?;
                // Sync before making the replica visible (csync
                // guideline 4).
                lib._csync(core, &d, 0, tail, 0, dst_kva.add(head), 0)
                    .await
                    .expect("cow copy");
            }
            Err(_) => {
                // Service overloaded: the whole replica is produced by
                // the in-handler synchronous copy (§4.6 fallback).
                sync_replica(region_len).await?;
            }
        }
    } else if use_copier {
        // A single base page: the submission overhead dominates; the
        // handler still offloads and overlaps its own bookkeeping.
        let lib = proc.lib();
        let submitted = lib
            .kernel_amemcpy(core, dst_kva, src_kva, region_len, kmaps())
            .await;
        // Fault bookkeeping the handler performs while Copier copies:
        // rmap/anon-vma updates, accounting.
        core.advance(Nanos(700)).await;
        match submitted {
            Ok(d) => {
                lib._csync(core, &d, 0, region_len, 0, dst_kva, 0)
                    .await
                    .expect("cow copy");
            }
            Err(_) => {
                sync_replica(region_len).await?;
            }
        }
    } else {
        sync_replica(region_len).await?;
        // The same bookkeeping, paid after the copy on the critical path.
        core.advance(Nanos(700)).await;
    }

    // Swing the PTEs to the private replica and drop the kmaps.
    for (p, &frame) in new.iter().enumerate().take(pages) {
        proc.space.set_pte(
            va.add(p * PAGE_SIZE),
            Pte {
                frame,
                writable: true,
                cow: false,
            },
        );
        os.pm.incref(frame); // the PTE's reference
    }
    // Copier locks mappings while a copy is in flight (§4.5.4); the kernel
    // waits for the pin to drop before tearing down the kmaps.
    munmap_wait(os, src_kva, region_len).await?;
    munmap_wait(os, dst_kva, region_len).await?;
    Ok(CowOutcome {
        bytes: region_len,
        blocked: os.h.now() - t0,
    })
}

/// Unmaps a kernel range, waiting out transient Copier pins (§4.5.4).
async fn munmap_wait(os: &Rc<Os>, va: VirtAddr, len: usize) -> Result<(), MemError> {
    loop {
        match os.kspace.munmap(va, len) {
            Err(MemError::Pinned(_)) => os.h.sleep(Nanos(200)).await,
            other => return other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim};

    fn run(region: usize, use_copier: bool) -> (Nanos, bool) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 2);
        let os = Os::boot(&h, machine, 4096);
        if use_copier {
            os.install_copier(vec![os.machine.core(1)], Default::default());
        }
        let parent = os.spawn_process();
        let core = os.machine.core(0);
        let os2 = Rc::clone(&os);
        let out = Rc::new(std::cell::Cell::new((Nanos::ZERO, false)));
        let out2 = Rc::clone(&out);
        sim.spawn("t", async move {
            let va = parent.space.mmap(region, Prot::RW, true).unwrap();
            let data: Vec<u8> = (0..region).map(|i| (i % 251) as u8).collect();
            parent.space.write_bytes(va, &data).unwrap();
            let child_space = parent.space.fork(99).unwrap();

            let o = handle_cow_fault(&os2, &core, &parent, va, region, use_copier)
                .await
                .unwrap();
            // Parent now writes privately; the child still sees the data.
            parent.space.write_bytes(va, b"XX").unwrap();
            let mut buf = vec![0u8; region];
            child_space.read_bytes(va, &mut buf).unwrap();
            let intact = buf == data;
            // And the parent's replica carried the original bytes too.
            let mut pbuf = vec![0u8; region];
            parent.space.read_bytes(va, &mut pbuf).unwrap();
            let replica_ok = pbuf[2..] == data[2..] && &pbuf[..2] == b"XX";
            out2.set((o.blocked, intact && replica_ok));
            if let Some(svc) = os2.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        out.get()
    }

    #[test]
    fn cow_baseline_correct_4k() {
        let (t, ok) = run(PAGE_SIZE, false);
        assert!(ok);
        assert!(t > Nanos::ZERO);
    }

    #[test]
    fn cow_copier_correct_and_faster_2m() {
        let (t_base, ok1) = run(2 * 1024 * 1024, false);
        let (t_cop, ok2) = run(2 * 1024 * 1024, true);
        assert!(ok1 && ok2);
        let reduction = 1.0 - t_cop.as_nanos() as f64 / t_base.as_nanos() as f64;
        assert!(
            reduction > 0.4,
            "2M blocking time should drop substantially, got {:.1}% ({t_base} → {t_cop})",
            reduction * 100.0
        );
    }

    #[test]
    fn cow_copier_4k_small_gain() {
        let (t_base, _) = run(PAGE_SIZE, false);
        let (t_cop, _) = run(PAGE_SIZE, true);
        // Small pages see a modest change either way (paper: −8%).
        let ratio = t_cop.as_nanos() as f64 / t_base.as_nanos() as f64;
        assert!(
            ratio < 1.25,
            "4K copier path should stay near baseline, ratio {ratio}"
        );
    }
}
