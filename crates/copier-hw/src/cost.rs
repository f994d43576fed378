//! Calibrated cost model for the simulated hardware.
//!
//! Constants are first-order fits to the paper's own quoted numbers for its
//! Xeon E5-2650 v4 testbed (DESIGN.md §8): e.g. "submitting a DMA task
//! costs as much as copying 1.4 KB with AVX2" (§4.3), "~240 cycles per page
//! for VA→PA translation" (§4.3, ≈83 ns at 2.9 GHz), and the break-even
//! sizes of §4.6. Every field is public and overridable per experiment.

use copier_sim::Nanos;

/// Which CPU copy routine is modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuCopyKind {
    /// Userspace glibc-style AVX2 memcpy — the fastest single-unit method.
    Avx2,
    /// Kernel `REP MOVSB` (ERMS) — no SIMD state to save, but a slower
    /// asymptote and a higher startup cost.
    Erms,
    /// A plain byte/word loop — the floor, used for sanity baselines.
    ByteLoop,
}

/// A linear cost curve `fixed + bytes / bytes_per_ns`.
#[derive(Debug, Clone, Copy)]
pub struct CopyCurve {
    /// Fixed startup cost.
    pub fixed: Nanos,
    /// Streaming bandwidth in bytes per nanosecond (= GB/s).
    pub bytes_per_ns: f64,
}

impl CopyCurve {
    /// The modeled time to move `bytes`.
    pub(crate) fn cost(&self, bytes: usize) -> Nanos {
        Nanos(self.fixed.as_nanos() + (bytes as f64 / self.bytes_per_ns).round() as u64)
    }
}

/// The full machine cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// AVX2 copy curve (userspace memcpy).
    pub avx2: CopyCurve,
    /// ERMS copy curve (kernel copy path).
    pub erms: CopyCurve,
    /// Byte-loop copy curve.
    pub byte_loop: CopyCurve,
    /// DMA transfer curve (device time; no CPU consumed during transfer).
    pub dma: CopyCurve,
    /// CPU time to submit one DMA descriptor (the paper: ≈ one 1.4 KB AVX copy).
    pub dma_submit: Nanos,
    /// CPU time to chain an additional descriptor onto an open batch
    /// (I/OAT descriptor rings amortize the doorbell over a chain).
    pub dma_chain: Nanos,
    /// CPU time to check/confirm one DMA completion.
    pub dma_complete_check: Nanos,
    /// Maximum bytes per hardware subtask: larger physically contiguous
    /// pieces are re-chunked so the AVX/DMA split can balance (and real
    /// DMA engines cap per-descriptor transfer sizes anyway).
    pub max_subtask: usize,
    /// Syscall trap + return.
    pub syscall: Nanos,
    /// One context switch (used by blocking syscalls and io_uring wakeups).
    pub context_switch: Nanos,
    /// Kernel page-fault entry/exit overhead (excluding the copy itself).
    pub page_fault: Nanos,
    /// One page-table walk (VA→PA, per page).
    pub pte_walk: Nanos,
    /// ATCache hit lookup.
    pub atc_hit: Nanos,
    /// TLB shootdown per remap/unmap operation (zero-copy/zIO tax).
    pub tlb_shootdown: Nanos,
    /// Enqueue of one task into a CSH queue (client side).
    pub task_submit: Nanos,
    /// A csync that finds its segments already complete.
    pub csync_hit: Nanos,
    /// One poll sweep over a client's queues finding nothing.
    pub poll_idle: Nanos,
    /// Per-byte instrumentation tax of Userspace Bypass's binary translation
    /// on user buffer access (fraction of byte-loop cost added).
    pub ub_access_tax: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        let avx2 = CopyCurve {
            fixed: Nanos(20),
            bytes_per_ns: 11.0,
        };
        CostModel {
            avx2,
            erms: CopyCurve {
                fixed: Nanos(45),
                bytes_per_ns: 6.0,
            },
            byte_loop: CopyCurve {
                fixed: Nanos(5),
                bytes_per_ns: 2.5,
            },
            dma: CopyCurve {
                fixed: Nanos(60),
                bytes_per_ns: 4.2,
            },
            // Time to copy 1.4 KB with AVX2: 20 + 1434/11 ≈ 150 ns.
            dma_submit: avx2.cost(1434),
            dma_chain: Nanos(35),
            dma_complete_check: Nanos(30),
            max_subtask: 32 * 1024,
            syscall: Nanos(300),
            context_switch: Nanos(1200),
            page_fault: Nanos(1000),
            pte_walk: Nanos(83),
            atc_hit: Nanos(12),
            tlb_shootdown: Nanos(2000),
            task_submit: Nanos(40),
            csync_hit: Nanos(25),
            poll_idle: Nanos(80),
            ub_access_tax: 0.35,
        }
    }
}

impl CostModel {
    /// The curve for a CPU copy method.
    pub(crate) fn cpu_curve(&self, kind: CpuCopyKind) -> CopyCurve {
        match kind {
            CpuCopyKind::Avx2 => self.avx2,
            CpuCopyKind::Erms => self.erms,
            CpuCopyKind::ByteLoop => self.byte_loop,
        }
    }

    /// CPU cost of copying `bytes` with `kind`.
    pub fn cpu_copy(&self, kind: CpuCopyKind, bytes: usize) -> Nanos {
        self.cpu_curve(kind).cost(bytes)
    }

    /// Device time for a DMA transfer of `bytes`.
    pub fn dma_transfer(&self, bytes: usize) -> Nanos {
        self.dma.cost(bytes)
    }

    /// The DMA/AVX split ratio that equalizes completion times: assign this
    /// fraction of piggybacked bytes to DMA.
    pub(crate) fn dma_share(&self) -> f64 {
        self.dma.bytes_per_ns / (self.dma.bytes_per_ns + self.avx2.bytes_per_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotonic_in_size() {
        let m = CostModel::default();
        for kind in [CpuCopyKind::Avx2, CpuCopyKind::Erms, CpuCopyKind::ByteLoop] {
            let mut last = Nanos::ZERO;
            for sz in [64, 512, 4096, 65536] {
                let c = m.cpu_copy(kind, sz);
                assert!(c > last);
                last = c;
            }
        }
    }

    #[test]
    fn avx_beats_erms_beats_byteloop() {
        let m = CostModel::default();
        for sz in [256, 4096, 262144] {
            assert!(m.cpu_copy(CpuCopyKind::Avx2, sz) < m.cpu_copy(CpuCopyKind::Erms, sz));
            assert!(m.cpu_copy(CpuCopyKind::Erms, sz) < m.cpu_copy(CpuCopyKind::ByteLoop, sz));
        }
    }

    #[test]
    fn dma_submission_matches_quoted_equivalence() {
        let m = CostModel::default();
        // §4.3: submitting a DMA task costs about a 1.4 KB AVX2 copy.
        let avx_1_4k = m.cpu_copy(CpuCopyKind::Avx2, 1434);
        assert_eq!(m.dma_submit, avx_1_4k);
    }

    #[test]
    fn dma_slower_than_avx_for_small_but_useful_parallel() {
        let m = CostModel::default();
        // Fig. 7-a: DMA throughput below AVX2, markedly so for small sizes.
        assert!(m.dma_transfer(512) > m.cpu_copy(CpuCopyKind::Avx2, 512));
        // DMA over AVX2 throughput at one size: AVX2 time over DMA time.
        let ratio = |b| m.avx2.cost(b).as_nanos() as f64 / m.dma.cost(b).as_nanos() as f64;
        let (r_small, r_large) = (ratio(512), ratio(1 << 20));
        assert!(r_small < r_large, "gap must shrink with size");
        assert!(m.dma_share() > 0.2 && m.dma_share() < 0.5);
    }
}
