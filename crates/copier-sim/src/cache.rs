//! Cache-residency proxy model (§6.3.5 of the paper).
//!
//! The paper observes that large copies executed *inline* evict the
//! application's hot data from the top-level cache, inflating the CPI of
//! copy-irrelevant code by 4–16%; offloading the copy to Copier's core
//! avoids the eviction. Real hardware counters are unavailable here, so we
//! model the effect with a single scalar for the application's core: the
//! *residency* of its hot working set in [0, 1].
//!
//! * An inline copy of `b` bytes decays residency exponentially with scale
//!   [`POLLUTION_BYTES`] (roughly the L2 size — a copy that streams an
//!   L2's worth of data evicts ~63% of hot lines).
//! * Copy-irrelevant compute is inflated by `1 + MISS_TAX × (1 − residency)`
//!   and restores residency toward 1 with time constant [`RECOVERY`].
//!
//! The model is deliberately first-order and belongs to its experiment
//! (`fig_cpi_proxy`), which notes its own inline copies; the service and
//! the cores know nothing of it. EXPERIMENTS.md discusses how it maps onto
//! the paper's measured 4–16% CPI reduction.

use crate::time::Nanos;

/// Bytes of streamed copy that reduce residency by the factor `1/e`:
/// the 256 KiB L2 per core of the paper's Xeon E5-2650 v4.
pub const POLLUTION_BYTES: f64 = 256.0 * 1024.0;
/// Maximum fractional CPI inflation when residency is 0.
pub const MISS_TAX: f64 = 0.20;
/// Compute time that restores residency by the factor `1 − 1/e`.
pub const RECOVERY: Nanos = Nanos::from_micros(30);

/// One core's hot-data cache state.
pub struct CacheModel {
    residency: f64,
}

impl Default for CacheModel {
    /// Full residency.
    fn default() -> Self {
        CacheModel { residency: 1.0 }
    }
}

impl CacheModel {
    /// Records an inline copy of `bytes` through this core's cache.
    pub fn note_inline_copy(&mut self, bytes: usize) {
        self.residency *= (-(bytes as f64) / POLLUTION_BYTES).exp();
    }

    /// Returns the inflated cost of `dur` of compute and restores residency.
    pub fn compute_cost(&mut self, dur: Nanos) -> Nanos {
        let r = self.residency;
        let inflated = dur.mul_f64(1.0 + MISS_TAX * (1.0 - r));
        // Recover toward full residency.
        let alpha = (-(dur.as_nanos() as f64) / RECOVERY.as_nanos() as f64).exp();
        self.residency = 1.0 - (1.0 - r) * alpha;
        inflated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_copy_decays_residency() {
        let mut m = CacheModel::default();
        m.note_inline_copy(256 * 1024);
        assert!((m.residency - (-1.0f64).exp()).abs() < 1e-9);
        m.note_inline_copy(256 * 1024);
        assert!((m.residency - (-2.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn compute_inflates_then_recovers() {
        let mut m = CacheModel::default();
        m.note_inline_copy(10 << 20); // residency ~ 0
        let c = m.compute_cost(Nanos(10_000));
        assert!(c > Nanos(10_000));
        assert!(c <= Nanos(12_001)); // bounded by MISS_TAX = 20%
                                     // Long compute restores residency.
        for _ in 0..100 {
            m.compute_cost(Nanos::from_micros(30));
        }
        assert!(m.residency > 0.99);
        // Near-full residency: negligible inflation.
        let c2 = m.compute_cost(Nanos(10_000));
        assert!(c2 < Nanos(10_100));
    }
}
