//! Tiny wall-clock bench harness replacing `criterion`.
//!
//! Model: calibrate an iteration count so one sample takes roughly
//! `sample_ms`, warm up for `warmup_ms`, then record `samples`
//! samples of mean per-iteration nanoseconds. The raw samples are
//! public so callers can feed them straight into `copier-bench`'s
//! `stats()` (`Vec<Nanos>`) for the same summary format the fig*
//! harnesses print.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Bench configuration: warmup length, sample count, target sample time.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Warmup duration before sampling (milliseconds).
    pub warmup_ms: u64,
    /// Number of recorded samples.
    pub samples: usize,
    /// Target wall-clock length of one sample (milliseconds); the
    /// harness calibrates iterations-per-sample to hit it.
    pub sample_ms: u64,
}

impl Default for Bench {
    fn default() -> Self {
        Bench {
            warmup_ms: 200,
            samples: 20,
            sample_ms: 10,
        }
    }
}

/// Result of one bench run: per-iteration nanoseconds, one per sample.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name.
    pub name: String,
    /// Calibrated iterations per sample.
    pub iters_per_sample: u64,
    /// Mean per-iteration nanoseconds of each sample.
    pub samples_ns: Vec<u64>,
}

impl BenchResult {
    /// Median per-iteration nanoseconds.
    pub fn median_ns(&self) -> u64 {
        let mut v = self.samples_ns.clone();
        v.sort_unstable();
        v[v.len() / 2]
    }

    /// Minimum per-iteration nanoseconds (least-noise estimate).
    pub fn min_ns(&self) -> u64 {
        *self.samples_ns.iter().min().expect("non-empty samples")
    }
}

impl Bench {
    /// Quick config for self-tests: minimal warmup and sample time.
    pub fn fast() -> Self {
        Bench {
            warmup_ms: 1,
            samples: 5,
            sample_ms: 1,
        }
    }

    /// Runs `f` under the harness and returns raw samples.
    pub fn run<F: FnMut()>(&self, name: &str, mut f: F) -> BenchResult {
        assert!(self.samples > 0, "need at least one sample");
        // Calibrate: grow the batch until it takes a measurable slice,
        // then scale to the target sample time.
        let mut batch: u64 = 1;
        let per_iter_ns = loop {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            let elapsed = t.elapsed();
            if elapsed >= Duration::from_micros(100) || batch >= 1 << 30 {
                break (elapsed.as_nanos() as u64 / batch).max(1);
            }
            batch *= 4;
        };
        let iters_per_sample = (self.sample_ms * 1_000_000 / per_iter_ns).clamp(1, 1 << 34);

        let warmup_deadline = Instant::now() + Duration::from_millis(self.warmup_ms);
        while Instant::now() < warmup_deadline {
            for _ in 0..batch {
                f();
            }
        }

        let mut samples_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            samples_ns.push((t.elapsed().as_nanos() as u64 / iters_per_sample).max(1));
        }
        BenchResult {
            name: name.to_string(),
            iters_per_sample,
            samples_ns,
        }
    }

    /// Runs `f` and prints a one-line summary (median/min, sample count).
    pub fn run_and_print<F: FnMut()>(&self, name: &str, f: F) -> BenchResult {
        let r = self.run(name, f);
        println!(
            "  {name:<28} median={:>8}ns  min={:>8}ns  (n={}, {} iters/sample)",
            r.median_ns(),
            r.min_ns(),
            r.samples_ns.len(),
            r.iters_per_sample
        );
        r
    }
}

/// Median of `xs` (the upper middle for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median absolute deviation of `xs` from their median: the spread
/// statistic that, like the median, one slow outlier does not move.
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    median(&xs.iter().map(|x| (x - m).abs()).collect::<Vec<_>>())
}

/// Wall-clock milliseconds of two variants of one workload, measured as
/// interleaved pairs: repetition `i` runs both back to back, alternating
/// which goes first, so machine drift during the measurement lands on
/// both variants instead of on whichever ran last.
#[derive(Debug, Clone)]
pub struct PairedRuns {
    /// Variant A (the baseline), one sample per repetition.
    pub a_ms: Vec<f64>,
    /// Variant B, one sample per repetition.
    pub b_ms: Vec<f64>,
}

impl PairedRuns {
    /// Runs `reps` interleaved pairs of `a` and `b`.
    pub fn measure(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Self {
        assert!(reps > 0, "need at least one pair");
        let time = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        };
        let mut out = PairedRuns {
            a_ms: Vec::with_capacity(reps),
            b_ms: Vec::with_capacity(reps),
        };
        for i in 0..reps {
            if i % 2 == 0 {
                out.a_ms.push(time(&mut a));
                out.b_ms.push(time(&mut b));
            } else {
                out.b_ms.push(time(&mut b));
                out.a_ms.push(time(&mut a));
            }
        }
        out
    }

    /// B's cost over A's, per pair: `b / a − 1`.
    pub fn overheads(&self) -> Vec<f64> {
        self.a_ms
            .iter()
            .zip(&self.b_ms)
            .map(|(a, b)| b / a - 1.0)
            .collect()
    }

    /// Median per-pair overhead: the number to hold against a bar.
    pub fn overhead(&self) -> f64 {
        median(&self.overheads())
    }

    /// MAD of the per-pair overheads: the measurement's noise floor. A
    /// bar means something only when it sits well above this.
    pub fn noise_floor(&self) -> f64 {
        mad(&self.overheads())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_ignore_one_outlier() {
        let xs = [10.0, 11.0, 9.0, 10.5, 500.0];
        assert_eq!(median(&xs), 10.5);
        assert_eq!(mad(&xs), 0.5);
        assert_eq!(mad(&[3.0]), 0.0);
    }

    #[test]
    fn paired_runs_alternate_and_compare() {
        let order = std::cell::RefCell::new(String::new());
        let spin = |n: u64| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
        };
        let r = PairedRuns::measure(
            4,
            || {
                order.borrow_mut().push('a');
                spin(20_000);
            },
            || {
                order.borrow_mut().push('b');
                spin(200_000);
            },
        );
        assert_eq!(*order.borrow(), "abbaabba");
        assert_eq!((r.a_ms.len(), r.b_ms.len()), (4, 4));
        assert!(r.overhead() > 1.0, "10x the work: {:?}", r.overheads());
        assert!(r.noise_floor() >= 0.0);
    }

    #[test]
    fn produces_requested_samples() {
        let mut x = 0u64;
        let r = Bench::fast().run("spin", || {
            x = black_box(x.wrapping_add(1));
        });
        assert_eq!(r.samples_ns.len(), 5);
        assert!(r.iters_per_sample >= 1);
        assert!(r.samples_ns.iter().all(|&s| s >= 1));
        assert!(r.min_ns() <= r.median_ns());
    }

    #[test]
    fn slower_work_measures_slower() {
        let fast = Bench::fast().run("fast", || {
            black_box(1u64);
        });
        let slow = Bench::fast().run("slow", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            black_box(acc);
        });
        assert!(
            slow.median_ns() > fast.median_ns(),
            "slow {} <= fast {}",
            slow.median_ns(),
            fast.median_ns()
        );
    }
}
