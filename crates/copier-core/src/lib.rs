//! # copier-core — the Copier service
//!
//! The paper's primary contribution (§4): coordinated asynchronous memory
//! copy as a first-class OS service. This crate provides:
//!
//! * the queue-based **CSH abstractions** — Copy/Sync/Handler rings,
//!   bounded single-threaded FIFOs ([`ring::Ring`]; the paper's §5.1
//!   lock-free protocol is not reproduced, see the module docs);
//! * **segment descriptors** for fine-grained copy-use pipelining
//!   ([`descriptor::SegDescriptor`]);
//! * **order dependency** across privilege levels via barrier keys and
//!   **data dependency** with promotion ([`client`], [`service`]);
//! * **layered copy absorption** with lazy tasks and abort ([`absorb`]);
//! * the **copy-length scheduler** and `copier` cgroup controller
//!   ([`sched`]);
//! * **proactive fault handling** and pinning during planning
//!   ([`service::Copier`]).
//!
//! Client-facing ergonomics (`amemcpy`/`csync`) live in `copier-client`.

pub mod absorb;
pub mod client;
pub mod config;
pub mod descriptor;
pub mod interval;
pub mod journal;
pub mod pendindex;
pub mod ring;
pub mod sched;
pub mod service;
pub mod task;

pub use absorb::{AbsorbPlan, SrcPiece, MAX_ABSORB_DEPTH};
pub use client::{
    Client, ClientId, ClientView, OrderKey, PendEntry, QueuePair, QueueSet, DEFAULT_QUEUE_CAP,
};
pub use config::{AdmissionConfig, CopierConfig, PollMode};
pub use copier_hw::VerifyPolicy;
pub use descriptor::{CopyFault, SegDescriptor, DEFAULT_SEGMENT};
pub use interval::IntervalSet;
pub use journal::{AdmitRec, Journal, JournalStats, JournalStore, Recovered, TaintRec};
pub use pendindex::{PendIndex, RangeKind};
pub use ring::{Ring, RingFull};
pub use sched::DEFAULT_COPY_SLICE;
pub use service::{stats_layout, stats_to_vec, ControlObs, Copier, CopierStats};
pub use task::{CopyTask, Handler, QueueEntry, SyncTask, TaskId};
