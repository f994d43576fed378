//! # copier-hw — simulated copy hardware
//!
//! The heterogeneous copy units Copier harmonizes (§4.3 of the paper):
//!
//! * [`cost::CostModel`] — calibrated cost curves for AVX2 / ERMS /
//!   byte-loop CPU copies, DMA transfers, traps, faults, and queue ops;
//! * [`units`] — subtask splitting at physical-contiguity boundaries and
//!   the real data movement of one subtask;
//! * [`dma::DmaEngine`] — an I/OAT-style asynchronous device;
//! * [`dispatch::Dispatcher`] — the piggyback scheduler pairing DMA with
//!   AVX so neither waits on the other;
//! * [`atcache::ATCache`] — generation-validated VA→PA translation cache.

pub mod atcache;
pub mod cost;
pub mod dispatch;
pub mod dma;
pub mod units;

pub use atcache::{ATCache, AtcStats};
pub use cost::{CopyCurve, CostModel, CpuCopyKind};
pub use dispatch::{DispatchReport, Dispatcher, PlannedCopy, ProgressFn, VerifyPolicy};
pub use dma::{DmaCompletion, DmaEngine, DmaError};
pub use units::{slice_extents_into, split_subtasks_into, SubTask};
