//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! copier-benchmark --workload W --seed N --seconds S --trace 0|1   # one contract run
//! copier-benchmark --all [--seed N] [--seconds S] [--out FILE]     # every workload, every metric
//! copier-benchmark --smoke                                         # 1/50 horizon, R = 1
//! ```

mod child;
mod copyloop;
mod layers;
mod parent;
mod probes;
mod proxy;
mod record;
mod run;
mod spec;
mod stats;

use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: copier-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      copier-benchmark --all [--seed <n>] [--seconds <s>] [--out <file>] [--smoke]\n\
         workloads: {}",
        spec::WORKLOAD_NAMES.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let t0 = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut child = None;
    let mut variant = child::Variant::Plain;
    let mut seed = spec::DEFAULT_SEED;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut all = false;
    let mut smoke = false;
    let mut out = None;
    let mut rerun = false;
    let mut calibrate = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--child" => child = Some(val()),
            "--variant" => variant = child::Variant::parse(&val()).unwrap_or_else(|| usage()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => out = Some(val()),
            "--all" => all = true,
            "--smoke" => smoke = true,
            "--rerun" => rerun = true,
            "--calibrate" => calibrate = true,
            "--emit-benchmark-json" => {
                print!("{}", spec::benchmark_json());
                return;
            }
            _ => usage(),
        }
    }
    let code = if calibrate {
        let div = if smoke { spec::SMOKE_DIV } else { 1 };
        println!("calibration_s={:?}", probes::calibration_s(div));
        0
    } else if let Some(name) = child {
        let job = child::Job {
            variant,
            seed,
            traced: trace,
            smoke,
            rerun,
        };
        child::main(&name, job, t0)
    } else if let Some(name) = workload {
        parent::contract_run(&name, seed, seconds, trace, smoke)
    } else if all || smoke {
        parent::all(seed, seconds, smoke, out.as_deref())
    } else {
        usage()
    };
    std::process::exit(code);
}
