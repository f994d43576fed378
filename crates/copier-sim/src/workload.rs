//! Deterministic open-loop overload workloads (multi-tenant).
//!
//! The overload experiments need traffic that does **not** slow down when
//! the service does — an open-loop arrival process — and they need it to
//! be reproducible from a seed, like [`crate::fault::FaultPlan`]. A
//! [`WorkloadPlan`] precomputes, per tenant, a sorted schedule of
//! submission instants (exponential inter-arrival gaps) and copy lengths
//! (uniform in a configured range). Each tenant draws from its own PRNG
//! stream derived from `(seed, tenant)`, so adding a tenant never
//! perturbs the others' schedules and any run is fully determined by the
//! config.
//!
//! The plan only *schedules*; harnesses own the submission mechanics
//! (amemcpy, credit handling, what to do on `Overloaded`).

use std::rc::Rc;

use crate::rng::{stream_seed, SimRng};
use crate::time::Nanos;

/// One scheduled submission for one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Virtual instant the request enters the system.
    pub at: Nanos,
    /// Bytes the request asks the service to copy.
    pub len: usize,
}

/// Per-tenant inter-arrival gap distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalDist {
    /// Exponential gaps (Poisson arrivals) with mean `mean_gap` — the
    /// legacy default; its draw sequence is pinned by the golden test.
    Exponential,
    /// Heavy-tailed bounded-Pareto gaps: most gaps are short bursts,
    /// rare gaps are long silences — the soak benchmark's tenant shape.
    /// The lower bound is derived so the distribution's mean is exactly
    /// `mean_gap`; the upper bound is `spread` times the lower.
    BoundedPareto {
        /// Tail index (> 0; heavier tail as it approaches 1).
        alpha: f64,
        /// Upper/lower bound ratio (> 1).
        spread: f64,
    },
}

/// Per-request copy-length distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LenDist {
    /// Uniform in `[len_min, len_max]` — the legacy default; its draw
    /// sequence is pinned by the golden test.
    Uniform,
    /// Heavy-tailed bounded Pareto on `[len_min, len_max]`: mostly small
    /// copies with a fat tail of large ones (elephants-and-mice).
    BoundedPareto {
        /// Tail index (> 0; heavier tail as it approaches 1).
        alpha: f64,
    },
}

/// Configuration of a seeded open-loop multi-tenant workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Seed all per-tenant PRNG streams derive from.
    pub seed: u64,
    /// Number of independent tenants.
    pub tenants: usize,
    /// Mean inter-arrival gap per tenant (any [`ArrivalDist`]).
    pub mean_gap: Nanos,
    /// Minimum copy length (inclusive).
    pub len_min: usize,
    /// Maximum copy length (inclusive).
    pub len_max: usize,
    /// Arrivals are generated in `[0, horizon)`.
    pub horizon: Nanos,
    /// Inter-arrival gap shape.
    pub arrival: ArrivalDist,
    /// Copy-length shape.
    pub length: LenDist,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0,
            tenants: 2,
            mean_gap: Nanos::from_micros(10),
            len_min: 16 * 1024,
            len_max: 64 * 1024,
            horizon: Nanos::from_millis(1),
            arrival: ArrivalDist::Exponential,
            length: LenDist::Uniform,
        }
    }
}

/// Inverse CDF of the bounded Pareto on `[lo, hi]` with tail index
/// `alpha`, evaluated at `u ∈ [0, 1)`.
fn bounded_pareto(u: f64, lo: f64, hi: f64, alpha: f64) -> f64 {
    let r = (lo / hi).powf(alpha);
    lo * (1.0 - u * (1.0 - r)).powf(-1.0 / alpha)
}

/// `E[X] / L` for the bounded Pareto on `[L, spread·L]` — used to derive
/// the lower bound that hits a configured mean exactly.
fn bounded_pareto_mean_factor(alpha: f64, spread: f64) -> f64 {
    if (alpha - 1.0).abs() < 1e-9 {
        // α → 1 limit of the general form below.
        spread.ln() * spread / (spread - 1.0)
    } else {
        (alpha / (alpha - 1.0)) * (1.0 - spread.powf(1.0 - alpha)) / (1.0 - spread.powf(-alpha))
    }
}

/// A precomputed, seed-deterministic open-loop workload.
pub struct WorkloadPlan {
    cfg: WorkloadConfig,
    /// `per_tenant[t]` is tenant `t`'s schedule, sorted by `at`.
    per_tenant: Vec<Vec<Arrival>>,
}

impl std::fmt::Debug for WorkloadPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadPlan")
            .field("cfg", &self.cfg)
            .field("arrivals", &self.total_arrivals())
            .finish()
    }
}

impl WorkloadPlan {
    /// Generates the full schedule from `cfg`.
    pub fn new(cfg: WorkloadConfig) -> Rc<Self> {
        assert!(cfg.tenants > 0, "workload needs at least one tenant");
        assert!(cfg.mean_gap > Nanos::ZERO, "mean gap must be positive");
        assert!(
            0 < cfg.len_min && cfg.len_min <= cfg.len_max,
            "degenerate length range"
        );
        if let ArrivalDist::BoundedPareto { alpha, spread } = cfg.arrival {
            assert!(alpha > 0.0 && spread > 1.0, "degenerate Pareto arrivals");
        }
        if let LenDist::BoundedPareto { alpha } = cfg.length {
            assert!(alpha > 0.0, "degenerate Pareto lengths");
        }
        // Lower gap bound hitting `mean_gap` exactly (Pareto arrivals).
        let gap_lo = match cfg.arrival {
            ArrivalDist::Exponential => 0.0,
            ArrivalDist::BoundedPareto { alpha, spread } => {
                cfg.mean_gap.as_nanos() as f64 / bounded_pareto_mean_factor(alpha, spread)
            }
        };
        let per_tenant = (0..cfg.tenants)
            .map(|t| {
                // Independent stream per tenant, derived through the
                // splitmix64 finalizer. The previous xor-with-(t+1)·PHI
                // derivation collided streams across nearby seeds (see
                // `stream_seed`); switching is a deliberate, documented
                // determinism break pinned by the golden test below.
                // Every shape consumes exactly one raw draw per gap and
                // one per length, so the default (Exponential/Uniform)
                // sequence is bit-identical to the pre-`ArrivalDist`
                // code — the golden test below pins it.
                let rng = SimRng::new(stream_seed(cfg.seed, t as u64));
                let mut sched = Vec::new();
                let mut now = Nanos::ZERO;
                loop {
                    // Gap with the configured mean; clamp away from zero
                    // so two arrivals never share an instant.
                    let u = rng.gen_f64();
                    let gap = match cfg.arrival {
                        ArrivalDist::Exponential => {
                            (-(1.0 - u).ln() * cfg.mean_gap.as_nanos() as f64) as u64
                        }
                        ArrivalDist::BoundedPareto { alpha, spread } => {
                            bounded_pareto(u, gap_lo, gap_lo * spread, alpha) as u64
                        }
                    };
                    now += Nanos(gap.max(1));
                    if now >= cfg.horizon {
                        break;
                    }
                    let len = match cfg.length {
                        LenDist::Uniform => {
                            cfg.len_min
                                + rng.gen_range((cfg.len_max - cfg.len_min + 1) as u64) as usize
                        }
                        LenDist::BoundedPareto { alpha } => {
                            let u = rng.gen_f64();
                            (bounded_pareto(u, cfg.len_min as f64, cfg.len_max as f64, alpha)
                                as usize)
                                .clamp(cfg.len_min, cfg.len_max)
                        }
                    };
                    sched.push(Arrival { at: now, len });
                }
                sched
            })
            .collect();
        Rc::new(WorkloadPlan { cfg, per_tenant })
    }

    /// Tenant `t`'s schedule, sorted by arrival instant.
    pub fn tenant(&self, t: usize) -> &[Arrival] {
        &self.per_tenant[t]
    }

    /// Total arrivals across all tenants.
    pub fn total_arrivals(&self) -> usize {
        self.per_tenant.iter().map(Vec::len).sum()
    }

    /// All arrivals merged across tenants, sorted by `(at, tenant)` —
    /// the interleaved submission order a shared service front-end sees.
    /// Deterministic for a given config like everything else here.
    pub fn merged(&self) -> Vec<(usize, Arrival)> {
        let mut all: Vec<(usize, Arrival)> = self
            .per_tenant
            .iter()
            .enumerate()
            .flat_map(|(t, sched)| sched.iter().map(move |&a| (t, a)))
            .collect();
        all.sort_by_key(|&(t, a)| (a.at, t));
        all
    }

    /// Total bytes the workload offers the service over the horizon.
    pub(crate) fn offered_bytes(&self) -> u64 {
        self.per_tenant.iter().flatten().map(|a| a.len as u64).sum()
    }

    /// Offered load in bytes per nanosecond (all tenants combined).
    pub fn offered_rate(&self) -> f64 {
        self.offered_bytes() as f64 / self.cfg.horizon.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            tenants: 3,
            mean_gap: Nanos::from_micros(5),
            len_min: 4 * 1024,
            len_max: 32 * 1024,
            horizon: Nanos::from_millis(2),
            ..Default::default()
        }
    }

    #[test]
    fn same_seed_identical_schedule() {
        let a = WorkloadPlan::new(cfg(42));
        let b = WorkloadPlan::new(cfg(42));
        for t in 0..3 {
            assert_eq!(a.tenant(t), b.tenant(t));
        }
        assert!(a.total_arrivals() > 100, "2 ms at ~5 µs gaps");
        assert_eq!(a.offered_bytes(), b.offered_bytes());
    }

    #[test]
    fn schedules_sorted_within_horizon_and_lengths_in_range() {
        let p = WorkloadPlan::new(cfg(7));
        for t in 0..3 {
            let s = p.tenant(t);
            assert!(s.windows(2).all(|w| w[0].at < w[1].at));
            assert!(s.iter().all(|a| a.at < cfg(7).horizon));
            assert!(s.iter().all(|a| (4 * 1024..=32 * 1024).contains(&a.len)));
        }
    }

    #[test]
    fn tenants_draw_independent_streams() {
        let p = WorkloadPlan::new(cfg(9));
        assert_ne!(p.tenant(0), p.tenant(1), "streams must differ");
        // Removing a tenant leaves the survivors' schedules untouched.
        let fewer = WorkloadPlan::new(WorkloadConfig {
            tenants: 2,
            ..cfg(9)
        });
        assert_eq!(p.tenant(0), fewer.tenant(0));
        assert_eq!(p.tenant(1), fewer.tenant(1));
    }

    #[test]
    fn merged_interleaves_all_tenants_in_time_order() {
        let p = WorkloadPlan::new(cfg(11));
        let m = p.merged();
        assert_eq!(m.len(), p.total_arrivals());
        assert!(m
            .windows(2)
            .all(|w| (w[0].1.at, w[0].0) < (w[1].1.at, w[1].0)));
        // Filtering the merged stream by tenant recovers each schedule.
        for t in 0..3 {
            let back: Vec<Arrival> = m.iter().filter(|(tt, _)| *tt == t).map(|x| x.1).collect();
            assert_eq!(back, p.tenant(t));
        }
    }

    #[test]
    fn golden_schedule_pins_stream_derivation() {
        // Golden outputs for the splitmix64-finalizer stream derivation.
        // These values changed (deliberately) when the xor/PHI scheme
        // was replaced; if they change again, that is a determinism
        // break every recorded trace and EXPERIMENTS number depends on —
        // document it or revert.
        let p = WorkloadPlan::new(cfg(42));
        let first: Vec<(u64, usize)> = (0..3)
            .map(|t| {
                let a = p.tenant(t)[0];
                (a.at.as_nanos(), a.len)
            })
            .collect();
        assert_eq!(first, &[(457, 9986), (12939, 28916), (9899, 32699)]);
        assert_eq!(p.total_arrivals(), 1168);
        assert_eq!(p.offered_bytes(), 21_486_559);
    }

    fn pareto_cfg(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            arrival: ArrivalDist::BoundedPareto {
                alpha: 1.5,
                spread: 1000.0,
            },
            length: LenDist::BoundedPareto { alpha: 1.2 },
            ..cfg(seed)
        }
    }

    #[test]
    fn pareto_same_seed_identical_schedule() {
        let a = WorkloadPlan::new(pareto_cfg(42));
        let b = WorkloadPlan::new(pareto_cfg(42));
        for t in 0..3 {
            assert_eq!(a.tenant(t), b.tenant(t));
        }
        // Heavy-tailed lengths stay inside the configured bounds.
        for t in 0..3 {
            assert!(a
                .tenant(t)
                .iter()
                .all(|x| (4 * 1024..=32 * 1024).contains(&x.len)));
        }
    }

    #[test]
    fn pareto_golden_schedule_pins_draws() {
        // Golden outputs for the bounded-Pareto option (seed 42,
        // α_gap = 1.5, spread = 1000, α_len = 1.2). If these change,
        // that is a determinism break — document it or revert.
        let p = WorkloadPlan::new(pareto_cfg(42));
        let first: Vec<(u64, usize)> = (0..3)
            .map(|t| {
                let a = p.tenant(t)[0];
                (a.at.as_nanos(), a.len)
            })
            .collect();
        assert_eq!(first, &[(1829, 4874), (9658, 15296), (6441, 32049)]);
        assert_eq!(
            (p.total_arrivals(), p.offered_bytes()),
            (1149, 10_537_818),
            "totals"
        );
    }

    #[test]
    fn pareto_default_draws_unperturbed() {
        // Adding the distribution options must not move the default
        // (Exponential/Uniform) draw sequence: rebuilt via `..Default`
        // it still matches the legacy golden schedule.
        let p = WorkloadPlan::new(WorkloadConfig {
            arrival: ArrivalDist::Exponential,
            length: LenDist::Uniform,
            ..cfg(42)
        });
        assert_eq!(p.total_arrivals(), 1168);
        assert_eq!(p.offered_bytes(), 21_486_559);
    }

    #[test]
    fn pareto_mean_gap_matches_config() {
        // The derived lower bound makes the *distribution* mean equal
        // `mean_gap`; with a heavy tail the sample mean converges slowly,
        // so allow a generous band over ~10k draws.
        let p = WorkloadPlan::new(WorkloadConfig {
            horizon: Nanos::from_millis(100),
            ..pareto_cfg(3)
        });
        let s = p.tenant(0);
        let mean = s.last().unwrap().at.as_nanos() / s.len() as u64;
        assert!((3_000..=7_500).contains(&mean), "sample mean {mean} ns");
        // Heavy tail: the largest gap dwarfs the median gap.
        let mut gaps: Vec<u64> = s
            .windows(2)
            .map(|w| (w[1].at - w[0].at).as_nanos())
            .collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let max = *gaps.last().unwrap();
        assert!(
            max > 20 * median,
            "tail too light: max {max}, median {median}"
        );
    }

    #[test]
    fn mean_gap_roughly_matches_config() {
        let p = WorkloadPlan::new(WorkloadConfig {
            horizon: Nanos::from_millis(50),
            ..cfg(3)
        });
        let s = p.tenant(0);
        let mean = s.last().unwrap().at.as_nanos() / s.len() as u64;
        // Exponential with mean 5 µs: the sample mean over ~10k draws
        // lands well inside ±20%.
        assert!((4_000..=6_000).contains(&mean), "sample mean {mean} ns");
    }
}
