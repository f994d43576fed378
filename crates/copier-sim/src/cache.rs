//! Cache-residency proxy model (§6.3.5 of the paper).
//!
//! The paper observes that large copies executed *inline* evict the
//! application's hot data from the top-level cache, inflating the CPI of
//! copy-irrelevant code by 4–16%; offloading the copy to Copier's core
//! avoids the eviction. Real hardware counters are unavailable here, so we
//! model the effect with a single scalar per core: the *residency* of the
//! application's hot working set in [0, 1].
//!
//! * An inline copy of `b` bytes decays residency exponentially with scale
//!   [`CacheConfig::pollution_bytes`] (roughly the L2 size — a copy that
//!   streams an L2's worth of data evicts ~63% of hot lines).
//! * Copy-irrelevant compute is inflated by `1 + miss_tax × (1 − residency)`
//!   and restores residency toward 1 with time constant
//!   [`CacheConfig::recovery`].
//!
//! The model is deliberately first-order; EXPERIMENTS.md discusses how it
//! maps onto the paper's measured 4–16% CPI reduction.

use std::cell::Cell;

use crate::time::Nanos;

/// Tuning knobs for the cache-residency model.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Bytes of streamed copy that reduce residency by the factor `1/e`.
    pub pollution_bytes: f64,
    /// Maximum fractional CPI inflation when residency is 0.
    pub miss_tax: f64,
    /// Compute time that restores residency by the factor `1 − 1/e`.
    pub recovery: Nanos,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            // 256 KiB L2 per core on the paper's Xeon E5-2650 v4.
            pollution_bytes: 256.0 * 1024.0,
            miss_tax: 0.20,
            recovery: Nanos::from_micros(30),
        }
    }
}

/// Per-core cache state.
pub struct CacheModel {
    cfg: Cell<CacheConfig>,
    residency: Cell<f64>,
    enabled: Cell<bool>,
}

impl CacheModel {
    /// Creates a model with full residency; `enabled` gates all effects.
    pub fn default_enabled(enabled: bool) -> Self {
        CacheModel {
            cfg: Cell::new(CacheConfig::default()),
            residency: Cell::new(1.0),
            enabled: Cell::new(enabled),
        }
    }

    /// Turns the model on or off (off = no inflation, no decay).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
        if !on {
            self.residency.set(1.0);
        }
    }

    /// Current hot-data residency in [0, 1].
    #[cfg(test)]
    pub(crate) fn residency(&self) -> f64 {
        self.residency.get()
    }

    /// Records an inline copy of `bytes` through this core's cache.
    pub fn note_inline_copy(&self, bytes: usize) {
        if !self.enabled.get() {
            return;
        }
        let cfg = self.cfg.get();
        let decay = (-(bytes as f64) / cfg.pollution_bytes).exp();
        self.residency.set(self.residency.get() * decay);
    }

    /// Returns the inflated cost of `dur` of compute and restores residency.
    pub fn compute_cost(&self, dur: Nanos) -> Nanos {
        if !self.enabled.get() {
            return dur;
        }
        let cfg = self.cfg.get();
        let r = self.residency.get();
        let inflated = dur.mul_f64(1.0 + cfg.miss_tax * (1.0 - r));
        // Recover toward full residency.
        let alpha = (-(dur.as_nanos() as f64) / cfg.recovery.as_nanos() as f64).exp();
        self.residency.set(1.0 - (1.0 - r) * alpha);
        inflated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_model_is_identity() {
        let m = CacheModel::default_enabled(false);
        m.note_inline_copy(1 << 20);
        assert_eq!(m.residency(), 1.0);
        assert_eq!(m.compute_cost(Nanos(1000)), Nanos(1000));
    }

    #[test]
    fn inline_copy_decays_residency() {
        let m = CacheModel::default_enabled(true);
        m.note_inline_copy(256 * 1024);
        assert!((m.residency() - (-1.0f64).exp()).abs() < 1e-9);
        m.note_inline_copy(256 * 1024);
        assert!((m.residency() - (-2.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn compute_inflates_then_recovers() {
        let m = CacheModel::default_enabled(true);
        m.note_inline_copy(10 << 20); // residency ~ 0
        let c = m.compute_cost(Nanos(10_000));
        assert!(c > Nanos(10_000));
        assert!(c <= Nanos(12_001)); // bounded by miss_tax = 20%
                                     // Long compute restores residency.
        for _ in 0..100 {
            m.compute_cost(Nanos::from_micros(30));
        }
        assert!(m.residency() > 0.99);
        // Near-full residency: negligible inflation.
        let c2 = m.compute_cost(Nanos(10_000));
        assert!(c2 < Nanos(10_100));
    }
}
