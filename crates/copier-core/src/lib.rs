//! # copier-core — the Copier service
//!
//! The paper's primary contribution (§4): coordinated asynchronous memory
//! copy as a first-class OS service. This crate provides:
//!
//! * the queue-based **CSH abstractions** — Copy/Sync/Handler rings with
//!   the lock-free slot-acquisition protocol of §5.1 ([`ring::Ring`]);
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
    Client, ClientId, OrderKey, PendEntry, QueuePair, QueueSet, TaintRange, DEFAULT_QUEUE_CAP,
};
pub use config::{AdmissionConfig, CopierConfig, PollMode};
pub use copier_hw::VerifyPolicy;
pub use descriptor::{CopyFault, SegDescriptor, DEFAULT_SEGMENT};
pub use interval::IntervalSet;
pub use journal::{AdmitRec, Journal, JournalStats, JournalStore, Recovered, TaintRec};
pub use pendindex::{PendIndex, RangeKind};
pub use ring::{Ring, RingFull};
pub use sched::min_live_vruntime;
pub use sched::{CGroup, RunOrder, Scheduler, DEFAULT_COPY_SLICE};
pub use service::{stats_from_vec, stats_layout, stats_to_vec, ControlObs, Copier, CopierStats};
pub use task::{CopyTask, Handler, Privilege, QueueEntry, SyncTask, TaskId};
