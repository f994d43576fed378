//! # copier-sim — deterministic discrete-event simulation substrate
//!
//! The Copier reproduction runs on a *virtual-time* machine instead of real
//! silicon (see DESIGN.md §1 for the substitution rationale: the build
//! environment is a single-core VM without DMA hardware, so wall-clock
//! overlap experiments are impossible; virtual time makes them exact and
//! deterministic instead).
//!
//! This crate provides:
//!
//! * [`Sim`] / [`SimHandle`] — a single-threaded async executor whose clock
//!   advances only through timers (exact, reproducible schedules);
//! * [`Machine`] / [`Core`] — simulated cores as processor-sharing resources
//!   with round-robin quanta, busy-time accounting, and an energy proxy;
//! * [`Notify`], [`Chan`] — virtual-time synchronization primitives;
//! * [`CacheModel`] — the §6.3.5 cache-pollution proxy;
//! * [`SimRng`] — a seeded PRNG for workload generation;
//! * [`Tracer`] / [`Trace`] — the rr-style record/replay event log with
//!   lockstep divergence checking (DESIGN.md §14).
//!
//! Simulated *data is real*: higher layers really move bytes between real
//! buffers at event time; only durations come from cost models.

pub mod cache;
pub mod cpu;
pub mod exec;
pub mod fault;
#[cfg(test)]
mod inplace_oracle;
#[cfg(test)]
mod order_oracle;
#[cfg(test)]
mod reference;
pub mod rng;
#[cfg(test)]
mod spin_oracle;
pub mod sync;
pub mod time;
pub mod trace;
pub mod workload;

pub use cache::{CacheConfig, CacheModel};
pub use cpu::{Again, Core, Machine, PowerModel, DEFAULT_QUANTUM};
pub use exec::{JoinHandle, Sim, SimHandle, SimStats, TaskId};
pub use fault::{CrashPoint, DmaFault, FaultConfig, FaultLog, FaultPlan, SilentCorruption};
pub use rng::{stream_seed, SimRng};
pub use sync::{Chan, Notify};
pub use time::Nanos;
pub use trace::{Divergence, Trace, TraceEvent, Tracer};
pub use workload::{Arrival, ArrivalDist, LenDist, WorkloadConfig, WorkloadPlan};
