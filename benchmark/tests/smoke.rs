//! Plumbing check: every workload at 1/50 scale, one plan, timed and
//! traced, through the real binary and its child processes.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_copier-benchmark");

fn benchmark_json_names(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .expect("section");
    let body = body.split("\n  ]").next().unwrap();
    body.lines()
        .filter_map(|l| l.split("\"name\": \"").nth(1))
        .map(|l| l.split('"').next().unwrap().to_string())
        .collect()
}

#[test]
fn smoke_prints_every_metric_of_every_workload() {
    let results = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke_results.json");
    let out = Command::new(EXE)
        .args(["--smoke", "--out", results.to_str().unwrap()])
        .output()
        .expect("run benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}");
    let written = std::fs::read_to_string(&results).expect("results file");
    for w in benchmark_json_names("workloads") {
        assert!(stdout.contains(&format!("== {w} ")), "no {w} block");
        for m in benchmark_json_names("end_to_end")
            .iter()
            .chain(&benchmark_json_names("per_layer"))
        {
            assert!(
                stdout.lines().any(|l| {
                    let mut f = l.split_whitespace();
                    f.next() == Some(w.as_str()) && f.next() == Some(m.as_str())
                }),
                "{w}: {m} not printed"
            );
        }
    }
    assert_eq!(written.matches("\"correct\": true").count(), 6);
}

#[test]
fn contract_run_ends_with_the_result_object() {
    for trace in ["0", "1"] {
        let out = Command::new(EXE)
            .args(["--workload", "proxy_chain", "--seed", "5", "--seconds", "1"])
            .args(["--trace", trace, "--smoke"])
            .output()
            .expect("run benchmark");
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("a result line");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        let section = if trace == "0" {
            "end_to_end"
        } else {
            "per_layer"
        };
        let names = benchmark_json_names(section);
        assert_eq!(last.matches("\"value\": ").count(), names.len());
        for m in names {
            assert!(last.contains(&format!("\"{m}\": {{\"value\": ")), "{m}");
        }
    }
}

#[test]
fn unknown_workload_is_refused_without_a_result() {
    let out = Command::new(EXE)
        .args([
            "--workload",
            "redis",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
