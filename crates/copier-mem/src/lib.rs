//! # copier-mem — simulated kernel memory subsystem
//!
//! The memory substrate Copier coordinates with (paper §4.5.4): physical
//! frames with refcounts and pins, per-process address spaces with VMAs and
//! page tables, demand-zero paging, copy-on-write with `fork`, page
//! aliasing (the primitive behind zIO), page pinning (the zero-copy
//! send), and a translation *generation* used by the ATCache for
//! invalidation.
//!
//! Everything moves real bytes; only time is modeled (by callers charging
//! costs from `copier-hw`).

pub mod phys;
pub mod space;

pub use phys::{
    AllocPolicy, CopyEngineStats, FrameId, PhysError, PhysMem, DEFER_MIN_BATCH,
    DEFER_WARM_MIN_BATCH, PAGE_SIZE,
};
pub use space::{
    frames_of, AddressSpace, AsId, Extent, FaultWork, MemError, Prot, Pte, VirtAddr, KERNEL_BASE,
    USER_BASE,
};
