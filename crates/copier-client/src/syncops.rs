//! Synchronous copy baselines.
//!
//! These are the `memcpy` paths Copier is compared against: the userspace
//! AVX2 routine, the kernel ERMS routine, and a plain byte loop. They move
//! real bytes through the simulated address spaces, charge the calling
//! core the modeled cost, handle page faults inline (the baseline pays
//! them on the critical path), and pollute the caller's cache model.

use std::rc::Rc;

use copier_hw::{CostModel, CpuCopyKind};
use copier_mem::{AddressSpace, FaultWork, MemError, VirtAddr, PAGE_SIZE};
use copier_sim::{Core, Nanos};

/// Synchronous copy between (possibly different) address spaces.
///
/// Charges `kind`'s cost curve plus inline fault handling, performs the
/// real data movement, and returns the fault work for diagnostics.
#[allow(clippy::too_many_arguments)]
pub async fn sync_copy(
    core: &Rc<Core>,
    cost: &Rc<CostModel>,
    kind: CpuCopyKind,
    dst_space: &Rc<AddressSpace>,
    dst: VirtAddr,
    src_space: &Rc<AddressSpace>,
    src: VirtAddr,
    len: usize,
) -> Result<FaultWork, MemError> {
    let mut work = FaultWork::default();
    let pm = dst_space.phys();
    let mut done = 0usize;
    while done < len {
        let s = src.add(done);
        let d = dst.add(done);
        let (sf, w1) = src_space.resolve(s, false)?;
        let (df, w2) = dst_space.resolve(d, true)?;
        work.add(w1);
        work.add(w2);
        let take = (len - done)
            .min(PAGE_SIZE - s.page_off())
            .min(PAGE_SIZE - d.page_off());
        pm.copy(df, d.page_off(), sf, s.page_off(), take);
        done += take;
    }
    let mut t = cost.cpu_copy(kind, len);
    let faults = (work.demand_zero + work.cow_remap + work.cow_copy) as u64;
    t += Nanos(cost.page_fault.as_nanos() * faults);
    // A CoW break copies its page in the fault handler; a demand-zero or
    // remap fault copies nothing and pays no copy's fixed cost.
    if work.bytes_copied > 0 {
        t += cost.cpu_copy(CpuCopyKind::Avx2, work.bytes_copied);
    }
    core.advance(t).await;
    Ok(work)
}

/// Synchronous copy within one address space (the libc `memcpy` shape).
pub async fn sync_memcpy(
    core: &Rc<Core>,
    cost: &Rc<CostModel>,
    space: &Rc<AddressSpace>,
    dst: VirtAddr,
    src: VirtAddr,
    len: usize,
) -> Result<FaultWork, MemError> {
    sync_copy(core, cost, CpuCopyKind::Avx2, space, dst, space, src, len).await
}

/// Synchronous `memmove`: correct for overlapping ranges.
pub(crate) async fn sync_memmove(
    core: &Rc<Core>,
    cost: &Rc<CostModel>,
    space: &Rc<AddressSpace>,
    dst: VirtAddr,
    src: VirtAddr,
    len: usize,
) -> Result<FaultWork, MemError> {
    let overlap = dst.0 < src.0 + len as u64 && src.0 < dst.0 + len as u64;
    if !overlap || dst.0 <= src.0 {
        // Forward copy is safe when dst precedes src.
        return sync_copy(core, cost, CpuCopyKind::Avx2, space, dst, space, src, len).await;
    }
    // Backward copy through a bounce buffer (simple and correct; the cost
    // charged is still a single traversal).
    let mut buf = vec![0u8; len];
    space.read_bytes(src, &mut buf)?;
    space.write_bytes(dst, &buf)?;
    core.advance(cost.cpu_copy(CpuCopyKind::Avx2, len)).await;
    Ok(FaultWork::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_mem::{AllocPolicy, PhysMem, Prot};
    use copier_sim::{Machine, Sim};

    #[test]
    fn sync_copy_moves_bytes_and_charges() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Scattered));
        let space = AddressSpace::new(1, pm);
        let cost = Rc::new(CostModel::default());
        let core = m.core(0);
        let h2 = h.clone();
        sim.spawn("t", async move {
            let src = space.mmap(8192, Prot::RW, false).unwrap();
            let dst = space.mmap(8192, Prot::RW, false).unwrap();
            let data: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
            space.write_bytes(src, &data).unwrap();
            let t0 = h2.now();
            let w = sync_memcpy(&core, &cost, &space, dst, src, 5000)
                .await
                .unwrap();
            // Demand-zero faults on the destination were paid inline.
            assert!(w.demand_zero >= 1);
            assert!(h2.now() - t0 >= cost.cpu_copy(CpuCopyKind::Avx2, 5000));
            let mut out = vec![0u8; 5000];
            space.read_bytes(dst, &mut out).unwrap();
            assert_eq!(out, data);
        });
        sim.run();
    }

    /// Demand-zero faults on the destination cost `page_fault` each and
    /// nothing more: they copy no bytes, so no copy's fixed cost is due.
    #[test]
    fn a_demand_zero_fault_charges_no_copy() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
        let space = AddressSpace::new(1, pm);
        let cost = Rc::new(CostModel::default());
        let core = m.core(0);
        sim.spawn("t", async move {
            let src = space.mmap(8192, Prot::RW, false).unwrap();
            let dst = space.mmap(8192, Prot::RW, false).unwrap();
            space.write_bytes(src, &[7; 6000]).unwrap();
            let t0 = h.now();
            let kind = CpuCopyKind::Erms;
            let w = sync_copy(&core, &cost, kind, &space, dst, &space, src, 6000)
                .await
                .unwrap();
            assert_eq!((w.demand_zero, w.bytes_copied), (2, 0), "{w:?}");
            let faults = u64::from(w.demand_zero);
            let want = cost.cpu_copy(kind, 6000) + Nanos(cost.page_fault.as_nanos() * faults);
            assert_eq!(h.now() - t0, want);
        });
        sim.run();
    }

    #[test]
    fn sync_memmove_overlapping_forward() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
        let space = AddressSpace::new(1, pm);
        let cost = Rc::new(CostModel::default());
        let core = m.core(0);
        sim.spawn("t", async move {
            let base = space.mmap(8192, Prot::RW, true).unwrap();
            let data: Vec<u8> = (0..4096).map(|i| (i % 199) as u8).collect();
            space.write_bytes(base, &data).unwrap();
            // Move forward by 100 bytes (dst > src, overlapping).
            sync_memmove(&core, &cost, &space, base.add(100), base, 4096)
                .await
                .unwrap();
            let mut out = vec![0u8; 4096];
            space.read_bytes(base.add(100), &mut out).unwrap();
            assert_eq!(out, data);
        });
        sim.run();
    }

    #[test]
    fn segv_propagates() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let m = Machine::new(&h, 1);
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
        let space = AddressSpace::new(1, pm);
        let cost = Rc::new(CostModel::default());
        let core = m.core(0);
        sim.spawn("t", async move {
            let r = sync_memcpy(&core, &cost, &space, VirtAddr(0x10), VirtAddr(0x20), 16).await;
            assert!(matches!(r, Err(MemError::Segv(_))));
        });
        sim.run();
    }
}
