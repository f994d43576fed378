//! Pure arithmetic of the benchmark: nearest-rank percentiles, quartiles,
//! and the end-to-end accounting over per-op records (warm-up exclusion,
//! SLO and failure accounting, fairness). No simulator types here, so the
//! rules the README states are unit-tested in isolation.

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Submitted, not yet settled (a failure if still so at drain).
    Pending,
    /// Settled fault-free with every segment ready and the payload intact.
    Ok,
    /// Refused at submit (`WouldBlock` / `Overloaded`) or a send error.
    Refused,
    /// The completion handler fired on a descriptor admission control
    /// had poisoned `Overloaded`: shed, the designed answer to overload.
    Shed,
    /// The completion handler fired on a descriptor poisoned by any other
    /// fault, or not fully ready.
    Faulted,
    /// Settled, but destination bytes differ from the source.
    Mismatch,
}

/// One op as the benchmark saw it from outside, all instants in virtual
/// nanoseconds. `submit_*` and `settle` are 0 until stamped.
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub tenant: u32,
    pub len: u32,
    /// When the plan said the op enters the system.
    pub due: u64,
    /// When the generator actually started the submit call.
    pub submit_start: u64,
    /// When the submit call returned.
    pub submit_end: u64,
    /// When the completion handler (or the sink) saw the op finish.
    pub settle: u64,
    pub outcome: Outcome,
}

/// Nearest-rank (ceiling) percentile of an ascending slice: the smallest
/// sample with at least `ceil(p * n)` samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// `percentile` that sorts a scratch copy and reads 0 for an empty set
/// (per-layer rows that do not apply to a workload print 0).
pub fn percentile_or_zero(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, p)
}

/// `(q1, median, q3)` of host-clock repeats, by the same exclusive method
/// as Python's `statistics.quantiles(v, n=4)` so `compare.py` and the
/// runner agree. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no runs");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let n = v.len();
    let at = |i: usize| {
        // CPython's integer arithmetic, step for step: the clamp on `j`
        // lets `delta` leave [0, 4], which extrapolates at the ends.
        let j = (i * n / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// The virtual-clock end-to-end numbers of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Every op the plan scheduled.
    pub attempted: u64,
    /// Ops not settled successfully (any outcome but `Ok`).
    pub failed: u64,
    /// The part of `failed` that admission control turned away: refused
    /// at submit or shed. Not an error on a workload that overloads the
    /// service on purpose.
    pub turned_away: u64,
    /// Ops due after warm-up (the SLO denominator).
    pub timed_attempted: u64,
    /// Latency samples: successful ops due after warm-up.
    pub timed_ok: u64,
    pub goodput_gbps: f64,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub slo_miss_frac: f64,
    pub failed_frac: f64,
    pub fair_share_min: f64,
}

/// Applies the benchmark's accounting rules to a run's op records.
///
/// * Warm-up: ops due before `warmup_end` run but enter neither the
///   latency set, the SLO count, nor goodput.
/// * Latency is `settle - due` over successful timed ops only. An op
///   whose handler fired on a poisoned descriptor is a failure and an SLO
///   miss, never a latency sample.
/// * `failed_frac` is over every attempted op, warm-up included.
/// * `fair_share_min` is the minimum over tenants that offered bytes of
///   served / offered bytes.
pub fn account(ops: &[OpRec], warmup_end: u64, drain_end: u64, slo_ns: u64) -> EndToEnd {
    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|o| o.outcome != Outcome::Ok).count() as u64;
    let turned_away = ops
        .iter()
        .filter(|o| matches!(o.outcome, Outcome::Refused | Outcome::Shed))
        .count() as u64;
    let mut lat: Vec<u64> = Vec::new();
    let mut timed_attempted = 0u64;
    let mut slo_miss = 0u64;
    let mut good_bytes = 0u64;
    let ntenants = ops.iter().map(|o| o.tenant as usize + 1).max().unwrap_or(0);
    let mut offered = vec![0u64; ntenants];
    let mut served = vec![0u64; ntenants];
    for o in ops {
        let ok = o.outcome == Outcome::Ok;
        offered[o.tenant as usize] += o.len as u64;
        if ok {
            served[o.tenant as usize] += o.len as u64;
        }
        if o.due < warmup_end {
            continue;
        }
        timed_attempted += 1;
        if ok {
            let l = o.settle.saturating_sub(o.due);
            lat.push(l);
            good_bytes += o.len as u64;
            if l > slo_ns {
                slo_miss += 1;
            }
        } else {
            slo_miss += 1;
        }
    }
    lat.sort_unstable();
    let pct = |p| {
        if lat.is_empty() {
            0
        } else {
            percentile(&lat, p)
        }
    };
    let fair_share_min = offered
        .iter()
        .zip(&served)
        .filter(|(&o, _)| o > 0)
        .map(|(&o, &s)| s as f64 / o as f64)
        .fold(1.0f64, f64::min);
    let span = drain_end.saturating_sub(warmup_end).max(1);
    EndToEnd {
        attempted,
        failed,
        turned_away,
        timed_attempted,
        timed_ok: lat.len() as u64,
        goodput_gbps: good_bytes as f64 / span as f64,
        mean_ns: lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64,
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        p999_ns: pct(0.999),
        slo_miss_frac: slo_miss as f64 / timed_attempted.max(1) as f64,
        failed_frac: failed as f64 / attempted.max(1) as f64,
        fair_share_min,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(tenant: u32, len: u32, due: u64, settle: u64, outcome: Outcome) -> OpRec {
        OpRec {
            tenant,
            len,
            due,
            submit_start: due,
            submit_end: due,
            settle,
            outcome,
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        // 67 samples: ceil(0.99 * 67) = 67, so p99 is the maximum; the
        // rounded-rank definition would under-report it as 66.
        let v: Vec<u64> = (1..=67).collect();
        assert_eq!(percentile(&v, 0.99), 67);
        assert_eq!(percentile(&v, 0.50), 34);
        assert_eq!(percentile(&[7], 0.999), 7);
        assert_eq!(percentile_or_zero(&[], 0.5), 0);
        assert_eq!(percentile_or_zero(&[30, 10, 20, 40], 0.5), 20);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn warm_up_ops_run_but_are_not_timed() {
        let ops = [
            // Due in warm-up: a huge latency that must not show.
            op(0, 1000, 10, 90_000, Outcome::Ok),
            op(0, 1000, 100, 300, Outcome::Ok),
            op(0, 3000, 200, 600, Outcome::Ok),
        ];
        let e = account(&ops, 100, 1100, 1_000);
        assert_eq!(e.attempted, 3);
        assert_eq!(e.timed_attempted, 2);
        assert_eq!(e.timed_ok, 2);
        assert_eq!(e.p50_ns, 200);
        assert_eq!(e.p99_ns, 400);
        // 4000 timed bytes over 1000 ns after warm-up.
        assert_eq!(e.goodput_gbps, 4.0);
        assert_eq!(e.slo_miss_frac, 0.0);
        assert_eq!(e.failed_frac, 0.0);
    }

    #[test]
    fn shed_op_is_a_failure_and_an_slo_miss_never_a_latency_sample() {
        let ops = [
            op(0, 1000, 100, 200, Outcome::Ok),
            // Shed: the handler fired early (settle stamped!) on a
            // poisoned descriptor. Fast, but not a success.
            op(0, 1000, 100, 101, Outcome::Shed),
            op(1, 1000, 100, 0, Outcome::Refused),
            // Slow success: inside the latency set, outside the SLO.
            op(1, 1000, 100, 5_100, Outcome::Ok),
        ];
        let e = account(&ops, 0, 10_000, 1_000);
        assert_eq!(e.failed, 2);
        assert_eq!(e.turned_away, 2);
        assert_eq!(e.failed_frac, 0.5);
        assert_eq!(e.timed_ok, 2, "only successes are latency samples");
        assert_eq!(e.p50_ns, 100);
        assert_eq!(e.p99_ns, 5_000);
        assert_eq!(
            e.slo_miss_frac, 0.75,
            "two failures and one late op of four"
        );
        // Each tenant was served half of what it offered.
        assert_eq!(e.fair_share_min, 0.5);
    }

    #[test]
    fn unfinished_ops_count_as_failed() {
        let ops = [
            op(0, 10, 0, 5, Outcome::Ok),
            op(0, 10, 0, 0, Outcome::Pending),
        ];
        let e = account(&ops, 0, 10, 100);
        assert_eq!(e.failed, 1);
        assert_eq!(e.slo_miss_frac, 0.5);
    }

    #[test]
    fn idle_tenants_do_not_set_the_fair_share() {
        // Tenant 1 offered nothing: the minimum is over tenants 0 and 2.
        let ops = [
            op(0, 100, 0, 1, Outcome::Ok),
            op(2, 100, 0, 1, Outcome::Ok),
            op(2, 300, 0, 1, Outcome::Faulted),
        ];
        let e = account(&ops, 0, 10, 100);
        assert_eq!(e.fair_share_min, 0.25);
    }
}
