//! Submission-to-settle latency percentiles and per-tenant SLO
//! attainment (the soak benchmark's observability surface).
//!
//! A [`LatencyRecorder`] collects `(tenant, submit, settle)` samples in
//! virtual time, then answers percentile and SLO queries. Everything is
//! deterministic: samples are plain vectors, percentiles use the
//! nearest-rank (ceiling) definition (matching `copier-bench`'s
//! `stats()`), and no wall-clock or allocation-order state leaks into
//! any result. [`peak_rss_bytes`] and [`rss_bytes`] are the deliberately
//! host-side exceptions — the soak's memory-footprint metrics — and are
//! reported alongside, never folded into, deterministic outputs.

use std::cell::RefCell;

/// Collects per-tenant submission-to-settle latency samples. Times are
/// raw virtual nanoseconds (`u64`) so the crate stays dependency-free;
/// harnesses convert from their `Nanos` at the call site.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    /// `(tenant, latency_ns)` per settled request, in settle order.
    samples: RefCell<Vec<(u32, u64)>>,
}

/// p50/p99/p999 summary over one sample population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — the soak's headline tail metric.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
    /// Sample count.
    pub n: usize,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one settled request. `settle` must not precede `submit`.
    pub fn record(&self, tenant: u32, submit: u64, settle: u64) {
        assert!(settle >= submit, "settle precedes submit");
        self.samples.borrow_mut().push((tenant, settle - submit));
    }

    /// Total samples recorded.
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    /// The raw `(tenant, latency)` samples in settle order — the
    /// bit-identity surface for determinism checks (two runs of the same
    /// seed must produce equal vectors, not just equal percentiles).
    pub fn samples(&self) -> Vec<(u32, u64)> {
        self.samples.borrow().clone()
    }

    /// Latency percentiles over every sample (all tenants pooled).
    /// Returns `None` on an empty recorder.
    pub fn percentiles(&self) -> Option<Percentiles> {
        let mut lat: Vec<u64> = self.samples.borrow().iter().map(|&(_, l)| l).collect();
        percentiles_of(&mut lat)
    }

    /// Per-tenant SLO attainment: for every tenant with at least one
    /// sample, the fraction of its samples at or under `slo`. Sorted by
    /// tenant id, so the result is deterministic.
    pub(crate) fn slo_attainment(&self, slo: u64) -> Vec<(u32, f64)> {
        let samples = self.samples.borrow();
        let mut per: std::collections::BTreeMap<u32, (u64, u64)> =
            std::collections::BTreeMap::new();
        for &(t, l) in samples.iter() {
            let e = per.entry(t).or_insert((0, 0));
            e.1 += 1;
            if l <= slo {
                e.0 += 1;
            }
        }
        per.into_iter()
            .map(|(t, (ok, n))| (t, ok as f64 / n as f64))
            .collect()
    }

    /// How many tenants meet `slo` on at least `target` of their
    /// samples (e.g. `target = 0.99` for a "99% of requests under X"
    /// SLO), out of the tenants that recorded anything.
    pub fn tenants_meeting(&self, slo: u64, target: f64) -> (usize, usize) {
        let att = self.slo_attainment(slo);
        let total = att.len();
        let met = att.iter().filter(|&&(_, f)| f >= target).count();
        (met, total)
    }
}

/// Nearest-rank (ceiling) percentiles over `lat` (sorts in place).
fn percentiles_of(lat: &mut [u64]) -> Option<Percentiles> {
    if lat.is_empty() {
        return None;
    }
    lat.sort_unstable();
    let n = lat.len();
    let pct = |p: f64| {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        lat[rank - 1]
    };
    Some(Percentiles {
        p50: pct(0.50),
        p99: pct(0.99),
        p999: pct(0.999),
        max: lat[n - 1],
        n,
    })
}

/// Peak resident-set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where that interface is missing.
/// Host-side observability for the soak's memory-footprint row — never
/// feed it into anything deterministic.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Current resident-set size of this process in bytes (`VmRSS`), or
/// `None` where that interface is missing. Host-side, like
/// [`peak_rss_bytes`]: the soak reads it around registration.
pub fn rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

/// The `key` line of `/proc/self/status`, a size in kB, in bytes.
fn proc_status_bytes(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|line| line.strip_prefix(key))?;
    let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_ceiling_rank() {
        let r = LatencyRecorder::new();
        for i in 1..=2000u64 {
            r.record(0, 0, i);
        }
        let p = r.percentiles().unwrap();
        assert_eq!(p.p50, 1000);
        assert_eq!(p.p99, 1980);
        assert_eq!(p.p999, 1998);
        assert_eq!(p.max, 2000);
        assert_eq!(p.n, 2000);
    }

    #[test]
    fn small_populations_pin_p999_to_max() {
        let r = LatencyRecorder::new();
        for i in [5u64, 1, 3] {
            r.record(0, 10, 10 + i);
        }
        let p = r.percentiles().unwrap();
        assert_eq!(p.p999, 5);
        assert_eq!(p.max, 5);
    }

    #[test]
    fn slo_attainment_is_per_tenant_and_sorted() {
        let r = LatencyRecorder::new();
        // Tenant 0: 3/4 under 100. Tenant 7: 1/2 under 100.
        for l in [50u64, 80, 99, 150] {
            r.record(0, 0, l);
        }
        for l in [100u64, 101] {
            r.record(7, 0, l);
        }
        let att = r.slo_attainment(100);
        assert_eq!(att.len(), 2);
        assert_eq!(att[0].0, 0);
        assert!((att[0].1 - 0.75).abs() < 1e-12);
        assert_eq!(att[1].0, 7);
        assert!((att[1].1 - 0.5).abs() < 1e-12);
        assert_eq!(r.tenants_meeting(100, 0.75), (1, 2));
        assert_eq!(r.tenants_meeting(200, 0.99), (2, 2));
    }

    #[test]
    fn peak_rss_parses_where_proc_exists() {
        // On Linux this must parse; elsewhere None is acceptable.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().unwrap() > 0);
            assert!(rss_bytes().unwrap() > 0);
        }
    }
}
