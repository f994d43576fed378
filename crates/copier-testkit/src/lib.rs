//! # copier-testkit — hermetic, seed-deterministic test & bench substrate
//!
//! The repository's headline property is bit-for-bit determinism
//! (DESIGN §"deterministic discrete-event simulator"), so the test and
//! bench tooling must own every entropy and timing source rather than
//! pull them from external crates at registry-resolution time. This
//! crate replaces the three external dev-dependencies the workspace
//! used to carry:
//!
//! * [`rng`] replaces `rand` — a splitmix64-seeded **xoshiro256++**
//!   generator with the `gen_range` / `fill_bytes` / `shuffle` surface
//!   the tests need.
//! * [`prop`] replaces `proptest` — a minimal property-testing runner:
//!   case generation from the PRNG, greedy failure shrinking, and a
//!   fixed-seed regression mode (`TESTKIT_REPRO`) so any reported
//!   counterexample replays exactly.
//! * [`bench`](mod@bench) replaces `criterion` — warmup, per-sample iteration
//!   calibration, and raw nanosecond samples that feed directly into
//!   `copier-bench`'s `stats()`.
//!
//! Everything is deterministic from a seed: the same `TESTKIT_SEED`
//! explores the same cases, and a failure line prints the one
//! environment variable needed to replay it.

pub mod bench;
pub mod latency;
pub mod prop;
pub mod rng;

pub use bench::{black_box, median, Bench, BenchResult, PairedRuns};
pub use latency::{peak_rss_bytes, rss_bytes, LatencyRecorder, Percentiles};
pub use prop::{check_with, edge_u64, minimize, shrink_vec, Arbitrary, Config, Damage, PropResult};
pub use rng::TestRng;

/// Asserts that a [`copier_mem::PhysMem`] has no pinned frames left.
///
/// Every test that drives copies through the service should call this in
/// its teardown: a frame still pinned after the workload settles means the
/// proactive-fault pin/unpin pairing (§4.5.4) leaked somewhere — the
/// kernel could then never reclaim the page.
#[track_caller]
pub fn assert_no_pinned_leaks(pm: &copier_mem::PhysMem) {
    let pinned = pm.pinned_frames();
    assert_eq!(
        pinned, 0,
        "pinned-frame leak: {pinned} frame(s) still pinned after teardown"
    );
}
