//! The runner: spawns one child per (plan, repeat), checks the children
//! against each other, and reduces them to the reported metrics.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use crate::child::{Job, Variant};
use crate::probes::CALIBRATION_REF_S;
use crate::spec::{
    plan_seed, workload, Clock, Kind, Metric, E2E, LAYER, PLANS, SMOKE_DIV, WORKLOAD_NAMES,
};
use crate::stats::quartiles;

/// A child's `name=value` lines, values kept verbatim so virtual-clock
/// results can be compared bit for bit.
struct ChildOut {
    code: i32,
    lines: BTreeMap<String, String>,
    /// What the child's host times are multiplied by: the reference
    /// calibration time over the mean of the calibrations run just before
    /// and just after it.
    speed: f64,
}

impl ChildOut {
    fn num(&self, key: &str) -> Option<f64> {
        self.lines.get(key)?.parse().ok()
    }

    /// `setup_s` or `host_wall_s` in calibrated seconds.
    fn host_s(&self, key: &str) -> Option<f64> {
        Some(self.num(key)? * self.speed)
    }

    fn count(&self, key: &str) -> u64 {
        self.lines
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// Every line that is a pure function of (commit, workload, seed).
    fn virtual_lines(&self) -> Vec<(&str, &str)> {
        self.lines
            .iter()
            .filter(|(k, _)| {
                k.starts_with("n.")
                    || k.starts_with("virt.")
                    || E2E.iter().any(|m| {
                        m.clock == Clock::Virtual && k.strip_prefix("e2e.") == Some(m.name)
                    })
            })
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect()
    }

    fn failed_checks(&self) -> Vec<String> {
        self.lines
            .iter()
            .filter(|(k, v)| k.starts_with("check.") && v.as_str() != "ok")
            .map(|(k, v)| format!("{k}: {v}"))
            .collect()
    }
}

/// Runs this executable with `args` to completion and collects its
/// `name=value` lines. `output` waits for the process to exit; stderr
/// (panic messages) is passed through.
fn run_self(args: &[String]) -> (i32, BTreeMap<String, String>) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("spawn child");
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    (out.status.code().unwrap_or(-1), lines)
}

/// Spawns the children of one run, timing the calibration kernel between
/// them: each child's host times are read at the speed the sandbox had
/// around it.
struct Runner {
    smoke: bool,
    /// Calibration time after the previous child (before the next).
    last_calibration_s: f64,
    calibrations: Vec<f64>,
}

impl Runner {
    fn new(smoke: bool) -> Self {
        let mut r = Runner {
            smoke,
            last_calibration_s: 0.0,
            calibrations: Vec::new(),
        };
        r.calibrate();
        r
    }

    fn calibrate(&mut self) -> f64 {
        let mut args = vec!["--calibrate".to_string()];
        if self.smoke {
            args.push("--smoke".to_string());
        }
        let (_, lines) = run_self(&args);
        let s = lines
            .get("calibration_s")
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN);
        self.calibrations.push(s);
        std::mem::replace(&mut self.last_calibration_s, s)
    }

    /// Runs one child to completion.
    fn spawn(&mut self, name: &str, job: Job) -> ChildOut {
        let mut args: Vec<String> = ["--child", name, "--variant", job.variant.name()]
            .map(String::from)
            .to_vec();
        args.extend(["--seed".to_string(), job.seed.to_string()]);
        args.extend(["--trace", if job.traced { "1" } else { "0" }].map(String::from));
        if job.smoke {
            args.push("--smoke".to_string());
        }
        if job.rerun {
            args.push("--rerun".to_string());
        }
        let (code, lines) = run_self(&args);
        let before = self.calibrate();
        let div = if self.smoke { SMOKE_DIV } else { 1 };
        let reference = CALIBRATION_REF_S / div as f64;
        ChildOut {
            code,
            lines,
            speed: reference / ((before + self.last_calibration_s) / 2.0),
        }
    }
}

/// One reported metric of one workload.
pub struct Row {
    pub metric: &'static Metric,
    /// The median (over plans for virtual metrics, over children for
    /// host metrics).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Values the median was taken over.
    pub n: usize,
}

fn row(metric: &'static Metric, values: &[f64]) -> Row {
    let (q1, value, q3) = quartiles(values);
    Row {
        metric,
        value,
        q1,
        q3,
        n: values.len(),
    }
}

/// The reduced result of a timed or traced run of one workload.
pub struct Outcome {
    /// Every output check passed in every child, repeats were
    /// bit-identical, and every reported value is a finite number.
    pub correct: bool,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
}

fn plain(seed: u64, smoke: bool) -> Job {
    Job {
        variant: Variant::Plain,
        seed,
        traced: false,
        smoke,
        rerun: false,
    }
}

fn note_child(problems: &mut Vec<String>, what: &str, c: &ChildOut) {
    if c.code != 0 {
        problems.push(format!("{what}: child exited with code {}", c.code));
    }
    problems.extend(
        c.failed_checks()
            .into_iter()
            .map(|f| format!("{what}: {f}")),
    );
}

fn note_divergence(problems: &mut Vec<String>, what: &str, a: &ChildOut, b: &ChildOut) {
    if a.virtual_lines() != b.virtual_lines() {
        let diff: Vec<String> = a
            .virtual_lines()
            .iter()
            .zip(b.virtual_lines())
            .filter(|(x, y)| **x != *y)
            .map(|(x, y)| format!("{}={} vs {}", x.0, x.1, y.1))
            .collect();
        problems.push(format!(
            "{what}: virtual results differ: {}",
            diff.join(", ")
        ));
    }
}

/// The timed run: end-to-end metrics with tracing off. Each of the
/// [`PLANS`] plans runs at least once; until `seconds` have passed the
/// plans are re-run round-robin, each repeat checked bit-identical to its
/// plan's first run and adding one host-clock sample.
pub fn timed(name: &str, seed: u64, seconds: f64, smoke: bool) -> Outcome {
    let nplans = if smoke { 1 } else { PLANS };
    let t0 = Instant::now();
    let mut runner = Runner::new(smoke);
    let mut problems = Vec::new();
    let mut firsts: Vec<ChildOut> = Vec::new();
    let mut repeats: Vec<ChildOut> = Vec::new();
    let mut r = 0usize;
    while r < nplans || (!smoke && t0.elapsed().as_secs_f64() < seconds) {
        let k = r % nplans;
        let c = runner.spawn(name, plain(plan_seed(seed, k), smoke));
        note_child(&mut problems, &format!("plan {k} run {}", r / nplans), &c);
        if r < nplans {
            firsts.push(c);
        } else {
            note_divergence(
                &mut problems,
                &format!("plan {k} repeat {}", r / nplans),
                &firsts[k],
                &c,
            );
            repeats.push(c);
        }
        r += 1;
    }
    if let Some(reference) = workload(name, smoke).and_then(|w| w.guarded_form_of) {
        // Same plan, features off: the virtual results must not move.
        let r = runner.spawn(reference, plain(plan_seed(seed, 0), smoke));
        note_child(&mut problems, reference, &r);
        note_divergence(&mut problems, reference, &firsts[0], &r);
    }

    let rows = E2E
        .iter()
        .map(|m| {
            let key = format!("e2e.{}", m.name);
            // Host seconds are calibrated; resident memory is not a time.
            let read = |c: &ChildOut| match (m.clock, m.unit) {
                (Clock::Host, "s") => c.host_s(&key),
                _ => c.num(&key),
            };
            let of = |cs: &[ChildOut]| -> Vec<f64> { cs.iter().filter_map(read).collect() };
            let mut values = of(&firsts);
            if m.clock == Clock::Host {
                values.extend(of(&repeats));
            }
            if values.len() < firsts.len() {
                problems.push(format!("{key}: missing from a child"));
                values.push(f64::NAN);
            }
            row(m, &values)
        })
        .collect();
    finish(
        problems,
        firsts.iter().map(|c| c.count("n.attempted")).sum(),
        firsts.iter().map(|c| c.count("n.failed")).sum(),
        rows,
    )
}

/// The traced run: per-layer metrics from plan 0, with spans kept and the
/// layers' counters read, beside an untraced run of the same plan (the
/// difference is the tracing overhead) and the workload's reference runs.
pub fn traced(name: &str, seed: u64, smoke: bool) -> Outcome {
    let seed0 = plan_seed(seed, 0);
    let mut runner = Runner::new(smoke);
    let mut problems = Vec::new();
    let untraced = runner.spawn(
        name,
        Job {
            rerun: true,
            ..plain(seed0, smoke)
        },
    );
    note_child(&mut problems, "untraced run", &untraced);
    let tr = runner.spawn(
        name,
        Job {
            traced: true,
            ..plain(seed0, smoke)
        },
    );
    note_child(&mut problems, "traced run", &tr);
    // Spans are kept outside the deterministic state: tracing must not
    // move a single virtual instant.
    note_divergence(&mut problems, "traced vs untraced", &untraced, &tr);

    let wall = |c: &ChildOut| c.host_s("e2e.host_wall_s").unwrap_or(f64::NAN);
    let mut extra: BTreeMap<&str, f64> = BTreeMap::new();
    extra.insert("trace.overhead_frac", wall(&tr) / wall(&untraced) - 1.0);
    if let Some(v) = untraced.num("layer.sim.rerun_rss_growth_mb") {
        extra.insert("sim.rerun_rss_growth_mb", v);
    }
    let w = workload(name, smoke);
    if let Some(reference) = w.as_ref().and_then(|w| w.guarded_form_of) {
        // Price each feature alone against the same plan with none.
        let base = runner.spawn(reference, plain(seed0, smoke));
        note_child(&mut problems, reference, &base);
        for (variant, metric) in [
            (Variant::OnlyTracer, "sim.trace_host_frac"),
            (Variant::OnlyJournal, "core.journal_host_frac"),
            (Variant::OnlyVerify, "hw.verify_host_frac"),
        ] {
            let c = runner.spawn(
                name,
                Job {
                    variant,
                    ..plain(seed0, smoke)
                },
            );
            note_child(&mut problems, variant.name(), &c);
            note_divergence(&mut problems, variant.name(), &base, &c);
            extra.insert(metric, wall(&c) / wall(&base) - 1.0);
        }
    }
    if matches!(w.map(|w| w.kind), Some(Kind::Proxy(_))) {
        let base = runner.spawn(
            name,
            Job {
                variant: Variant::Baseline,
                ..plain(seed0, smoke)
            },
        );
        note_child(&mut problems, "baseline proxy", &base);
        let vs = |key: &str| tr.num(key).unwrap_or(f64::NAN) / base.num(key).unwrap_or(f64::NAN);
        extra.insert("apps.p50_vs_baseline", vs("e2e.op_p50_us"));
        extra.insert("apps.goodput_vs_baseline", vs("e2e.goodput_gbps"));
    }

    extra.insert("host.calibration_s", quartiles(&runner.calibrations).1);
    let rows = LAYER
        .iter()
        .map(|m| {
            let v = extra
                .get(m.name)
                .copied()
                .or_else(|| tr.num(&format!("layer.{}", m.name)))
                // Does not apply to this workload.
                .unwrap_or(0.0);
            row(m, &[v])
        })
        .collect();
    finish(
        problems,
        tr.count("n.attempted"),
        tr.count("n.failed"),
        rows,
    )
}

fn finish(mut problems: Vec<String>, attempted: u64, failed: u64, rows: Vec<Row>) -> Outcome {
    for r in &rows {
        if !r.value.is_finite() {
            problems.push(format!("{}: not a finite number", r.metric.name));
        }
    }
    if attempted == 0 {
        problems.push("no operation attempted".to_string());
    }
    Outcome {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        rows,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// One contract run: `--workload W --seed N --seconds S --trace 0|1`.
/// The last line of standard output is the result object.
pub fn contract_run(name: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> i32 {
    if workload(name, smoke).is_none() {
        eprintln!(
            "unknown workload {name}; one of: {}",
            WORKLOAD_NAMES.join(" ")
        );
        return 2;
    }
    let o = if trace {
        traced(name, seed, smoke)
    } else {
        timed(name, seed, seconds, smoke)
    };
    for p in &o.problems {
        eprintln!("FAILED {name}: {p}");
    }
    let metrics: Vec<String> = o
        .rows
        .iter()
        .map(|r| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                r.metric.name,
                json_num(r.value),
                r.metric.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
    if o.correct {
        0
    } else {
        1
    }
}

fn rows_json(kind: &str, rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let m = r.metric;
            format!(
                "      \"{}\": {{\"kind\": \"{kind}\", \"value\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \"clock\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                json_num(r.value),
                json_num(r.q1),
                json_num(r.q3),
                r.n,
                m.unit,
                m.clock.name(),
                if m.higher_better { "higher" } else { "lower" },
                json_num(m.bound),
            )
        })
        .collect()
}

/// Every workload, timed then traced: prints every metric by name and
/// unit and writes the results file `compare.py` reads.
pub fn all(seed: u64, seconds: f64, smoke: bool, out: Option<&str>) -> i32 {
    let mut ok = true;
    let mut blocks = Vec::new();
    for name in WORKLOAD_NAMES {
        let w = workload(name, smoke).expect("listed workload");
        let t = timed(name, seed, seconds, smoke);
        let tr = traced(name, seed, smoke);
        let correct = t.correct && tr.correct;
        ok &= correct;
        println!(
            "== {name}  slo_us={}  attempted={} failed={}  {}",
            w.slo_us,
            t.attempted,
            t.failed,
            if correct {
                "checks ok"
            } else {
                "CHECKS FAILED"
            }
        );
        for p in t.problems.iter().chain(&tr.problems) {
            println!("   FAILED: {p}");
        }
        for r in t.rows.iter().chain(&tr.rows) {
            let spread = if r.n > 1 {
                format!("  [{:.6} .. {:.6}] n={}", r.q1, r.q3, r.n)
            } else {
                String::new()
            };
            println!(
                "{name:<15} {:<32} {:>16.6} {:<8} {:<7}{spread}",
                r.metric.name,
                r.value,
                r.metric.unit,
                r.metric.clock.name()
            );
        }
        let mut metrics = rows_json("end_to_end", &t.rows);
        metrics.extend(rows_json("per_layer", &tr.rows));
        blocks.push(format!(
            "    \"{name}\": {{\n     \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"slo_us\": {},\n     \"metrics\": {{\n{}\n     }}\n    }}",
            t.attempted,
            t.failed,
            w.slo_us,
            metrics.join(",\n")
        ));
    }
    let json = format!(
        "{{\n  \"seed\": {seed}, \"smoke\": {smoke}, \"plans\": {}, \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        if smoke { 1 } else { PLANS },
        json_num(seconds),
        blocks.join(",\n")
    );
    let path = out.map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/results.json")
    });
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}
