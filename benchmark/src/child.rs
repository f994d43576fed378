//! One (workload, repeat) in its own single-threaded process. In-process
//! reruns grow RSS run over run and share one `VmHWM`, so the parent
//! spawns a child per run and reads its `name=value` lines.

use std::time::Instant;

use copier_sim::trace::{fnv_fold, FNV_OFFSET};

use crate::copyloop::Guards;
use crate::record::write_spans;
use crate::run::RunOut;
use crate::spec::{workload, Kind};
use crate::stats::{account, OpRec};
use crate::{copyloop, probes, proxy};

/// A variant of a workload the traced run prices separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined.
    Plain,
    /// `guarded_small` with only one of its three features on.
    OnlyTracer,
    OnlyJournal,
    OnlyVerify,
    /// `proxy_chain` through `ProxyMode::Baseline`, no Copier installed.
    Baseline,
}

impl Variant {
    const NAMES: [(Variant, &'static str); 5] = [
        (Variant::Plain, "plain"),
        (Variant::OnlyTracer, "tracer"),
        (Variant::OnlyJournal, "journal"),
        (Variant::OnlyVerify, "verify"),
        (Variant::Baseline, "baseline"),
    ];

    pub fn parse(s: &str) -> Option<Self> {
        Self::NAMES.iter().find(|(_, n)| *n == s).map(|(v, _)| *v)
    }

    pub fn name(self) -> &'static str {
        Self::NAMES
            .iter()
            .find(|(v, _)| *v == self)
            .map_or("plain", |(_, n)| n)
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is missing.
fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") as f64 / 1024.0
}

fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// FNV-1a (the trace layer's own fold) over every virtual instant and
/// outcome of the run: two runs of one commit and seed must agree on it
/// bit for bit.
fn virtual_digest(ops: &[OpRec], drain_end: u64) -> u64 {
    ops.iter().fold(fnv_fold(FNV_OFFSET, drain_end), |h, o| {
        [
            o.tenant as u64,
            o.len as u64,
            o.due,
            o.submit_start,
            o.submit_end,
            o.settle,
            o.outcome as u64,
        ]
        .into_iter()
        .fold(h, fnv_fold)
    })
}

/// What the parent asks of one child.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub variant: Variant,
    /// The plan's seed (already derived from the run's seed).
    pub seed: u64,
    /// Keep spans, read the layers' counters, run the probes.
    pub traced: bool,
    pub smoke: bool,
    /// After reporting, run the scenario a second time in this process
    /// and report how much resident memory the first run left behind.
    pub rerun: bool,
}

fn run_scenario(name: &str, job: Job, t0: Instant) -> Option<(RunOut, u64, bool)> {
    let w = workload(name, job.smoke)?;
    let out = match w.kind {
        Kind::Copy(mut spec) => {
            let none = Guards::default();
            spec.guards = match job.variant {
                Variant::Plain => spec.guards,
                Variant::OnlyTracer => Guards {
                    tracer: true,
                    ..none
                },
                Variant::OnlyJournal => Guards {
                    journal: true,
                    ..none
                },
                Variant::OnlyVerify => Guards {
                    verify: true,
                    ..none
                },
                Variant::Baseline => return None,
            };
            copyloop::run(&spec, job.seed, job.traced, t0)
        }
        Kind::Proxy(mut spec) => {
            match job.variant {
                Variant::Plain => {}
                Variant::Baseline => spec.copier = false,
                _ => return None,
            }
            proxy::run(&spec, job.seed, job.traced, t0)
        }
    };
    Some((out, w.slo_us, w.overloads))
}

/// Runs one scenario and prints its result lines. Returns the process
/// exit code: 0 when every output check passed.
pub fn main(name: &str, job: Job, t0: Instant) -> i32 {
    let Some((out, slo_us, overloads)) = run_scenario(name, job, t0) else {
        eprintln!("no workload {name} with variant {}", job.variant.name());
        return 2;
    };
    // Before the probes below allocate anything of their own.
    let rss = peak_rss_mb();
    let e = account(&out.ops, out.warmup_end, out.drain_end, slo_us * 1_000);
    // Being turned away is an error except where the workload overloads
    // the service on purpose; there it only lowers `served_frac`.
    let failed = if overloads {
        e.failed - e.turned_away
    } else {
        e.failed
    };

    println!("n.attempted={}", e.attempted);
    println!("n.failed={failed}");
    println!("n.unserved={}", e.failed);
    println!("n.timed_attempted={}", e.timed_attempted);
    println!("n.timed_ok={}", e.timed_ok);
    println!(
        "virt.digest={:016x}",
        virtual_digest(&out.ops, out.drain_end)
    );
    println!("e2e.setup_s={:?}", out.setup_s);
    println!("e2e.goodput_gbps={:?}", e.goodput_gbps);
    println!("e2e.op_p50_us={:?}", e.p50_ns as f64 / 1e3);
    println!("e2e.op_p99_us={:?}", e.p99_ns as f64 / 1e3);
    println!("e2e.slo_ok_frac={:?}", 1.0 - e.slo_miss_frac);
    println!("e2e.served_frac={:?}", 1.0 - e.failed_frac);
    println!("e2e.fair_share_min={:?}", e.fair_share_min);
    println!("e2e.host_wall_s={:?}", out.host_wall_s);
    println!("e2e.peak_rss_mb={rss:?}");
    println!("layer.e2e.op_mean_us={:?}", e.mean_ns / 1e3);
    // 99.9th percentile: only where ten samples lie beyond it.
    if e.timed_ok >= 10_000 {
        println!("layer.e2e.op_p999_us={:?}", e.p999_ns as f64 / 1e3);
    }

    if job.traced {
        for (k, v) in &out.layers {
            println!("layer.{k}={v:?}");
        }
        let get = |k: &str| out.layers.iter().find(|(n, _)| *n == k).map(|(_, v)| *v);
        if let Some(base) = get("hw.avx2_loop_gbps").filter(|b| *b > 0.0) {
            println!("layer.hw.speedup_vs_avx2={:?}", e.goodput_gbps / base);
        }
        let div = if job.smoke { crate::spec::SMOKE_DIV } else { 1 };
        let p = probes::run(out.mean_len.max(64), div);
        println!("layer.sim.event_ns={:?}", p.event_ns);
        println!("layer.core.ring_push_pop_ns={:?}", p.ring_push_pop_ns);
        println!("layer.mem.copy_run_gbps={:?}", p.copy_run_gbps);
        println!(
            "layer.mem.resolve_range_ns_per_page={:?}",
            p.resolve_range_ns_per_page
        );
        if let Some(moved) = get("core.bytes_copied") {
            // Host seconds a bare copy_run of the bytes the service moved
            // would take, as a share of the run.
            println!(
                "layer.mem.copy_host_frac={:?}",
                moved / (p.copy_run_gbps * 1e9) / out.host_wall_s
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{name}.spans.jsonl"));
        if let Err(err) = write_spans(&path, &out.ops, &out.spans) {
            eprintln!("cannot write {}: {err}", path.display());
            return 2;
        }
    }

    let mut code = 0;
    for c in &out.checks {
        if c.passed {
            println!("check.{}=ok", c.name);
        } else {
            println!("check.{}=FAIL {}", c.name, c.detail.replace('\n', " "));
            code = 1;
        }
    }

    if job.rerun {
        drop(out);
        let after_first = proc_status_kb("VmRSS:");
        drop(run_scenario(name, job, Instant::now()));
        let after_second = proc_status_kb("VmRSS:");
        println!(
            "layer.sim.rerun_rss_growth_mb={:?}",
            (after_second as f64 - after_first as f64) / 1024.0
        );
    }
    code
}
