//! Fig. 14: whole-system resource utilization — 4 cores total, rising
//! Redis instance count until saturation.
//!
//! Paper shape: with idle cores Copier improves latency and throughput;
//! at full utilization it still cuts latency (≈ −18%) but costs a few
//! percent of throughput to submission/polling cycles.
//!
//! Our miniature Redis still diverges at saturation for 8 KB values —
//! −12% of throughput against the paper's −4.3%, latency +4.5% where
//! the paper cuts it — while 16 KB values gain throughput there (+10%;
//! paper −6.5%) and cut latency 9.6% (see EXPERIMENTS.md).
//! `BENCH_saturation.json` pins both halves of that story: the idle-core
//! wins must hold, and the saturation loss may not regress below the
//! floor.

use std::cell::RefCell;
use std::rc::Rc;

use copier_bench::json::Json;

use copier_apps::redis::{run_client, Op, RedisMode, RedisServer};
use copier_bench::{delta, ratio, row, section, stats};
use copier_os::{NetStack, Os};
use copier_sim::{Machine, Nanos, Sim, SimRng};

/// Requests per instance: a point is ≥ 9 ms of steady state. (At 20 a
/// point is a ≈ 250 µs start-up transient in which the Copier core
/// mostly idles.)
const REQS: u64 = 1000;
const CORES: usize = 4;

/// Runs `instances` Redis servers (one per core, wrapping) on a 4-core
/// machine; Copier takes one of the 4 cores when enabled.
fn run(instances: usize, use_copier: bool, value: usize) -> (Nanos, f64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    // 4 machine cores + client cores (clients modeled outside the box).
    let machine = Machine::new(&h, CORES + instances);
    let os = Os::boot(&h, machine, 128 * 1024);
    let app_cores = if use_copier {
        os.install_copier(vec![os.machine.core(CORES - 1)], Default::default());
        CORES - 1
    } else {
        CORES
    };
    let net = NetStack::new(&os);
    let samples: Rc<RefCell<Vec<Nanos>>> = Rc::new(RefCell::new(Vec::new()));
    let dur = Rc::new(std::cell::Cell::new(Nanos::ZERO));
    let done = Rc::new(std::cell::Cell::new(0usize));
    let mode = if use_copier {
        RedisMode::Copier
    } else {
        RedisMode::Baseline
    };
    for i in 0..instances {
        let server = RedisServer::new(&os, &net, mode.clone(), 512 * 1024);
        let (cs, ss) = net.socket_pair();
        // Instances share the app cores (time-sliced when oversubscribed).
        let score = os.machine.core(i % app_cores);
        let server2 = Rc::clone(&server);
        sim.spawn("server", async move {
            server2.serve(&score, ss, REQS + 1).await;
        });
        let os2 = Rc::clone(&os);
        let net2 = Rc::clone(&net);
        let ccore = os.machine.core(CORES + i);
        let samples2 = Rc::clone(&samples);
        let dur2 = Rc::clone(&dur);
        let done2 = Rc::clone(&done);
        let h2 = h.clone();
        sim.spawn("client", async move {
            let rng = Rc::new(SimRng::new(55 + i as u64));
            let t0 = h2.now();
            let s = run_client(
                Rc::clone(&os2),
                net2,
                ccore,
                cs,
                Op::Set,
                i as u32,
                value,
                REQS,
                rng,
            )
            .await;
            samples2.borrow_mut().extend(s.iter().map(|x| x.latency));
            dur2.set(dur2.get().max(h2.now() - t0));
            done2.set(done2.get() + 1);
            if done2.get() == instances {
                if let Some(svc) = os2.copier.borrow().as_ref() {
                    svc.stop();
                }
            }
        });
    }
    sim.run();
    let mut v = samples.borrow_mut();
    let st = stats(&mut v);
    let tput = (REQS as f64 * instances as f64) / dur.get().as_secs_f64() / 1000.0;
    (st.avg, tput)
}

fn main() {
    section("Fig 14: Redis SET on a 4-core budget (Copier uses 1 of 4)");
    // (value, instances, base_lat_ns, cop_lat_ns, base_kreqs, cop_kreqs)
    let mut points: Vec<(usize, usize, u64, u64, f64, f64)> = Vec::new();
    for value in [8 * 1024usize, 16 * 1024] {
        println!("\n  value = {}", copier_bench::kb(value));
        for instances in [1usize, 2, 3, 4] {
            let (bl, bt) = run(instances, false, value);
            let (cl, ct) = run(instances, true, value);
            row(&[
                ("instances", format!("{instances}")),
                ("base-lat", format!("{bl}")),
                ("cop-lat", format!("{cl}")),
                ("lat", delta(bl, cl)),
                ("base-kreq/s", format!("{bt:.1}")),
                ("cop-kreq/s", format!("{ct:.1}")),
                ("tput", ratio(ct, bt)),
            ]);
            points.push((value, instances, bl.as_nanos(), cl.as_nanos(), bt, ct));
        }
    }

    // Idle-core wins (1 instance): Copier must beat the baseline on both
    // latency and throughput, at both value sizes — the paper-confirming
    // half of the figure. Saturation (4 instances): the documented
    // divergence may not deepen past the measured floor.
    let idle_tput = points
        .iter()
        .filter(|p| p.1 == 1)
        .map(|p| p.5 / p.4)
        .fold(f64::INFINITY, f64::min);
    let idle_lat = points
        .iter()
        .filter(|p| p.1 == 1)
        .map(|p| p.3 as f64 / p.2 as f64)
        .fold(0.0, f64::max);
    let sat_tput = points
        .iter()
        .filter(|p| p.1 == 4)
        .map(|p| p.5 / p.4)
        .fold(f64::INFINITY, f64::min);
    let json = Json::obj([
        ("bench", Json::Str("fig14_saturation".into())),
        ("smoke", Json::Bool(false)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|&(value, instances, bl, cl, bt, ct)| {
                        Json::obj([
                            ("value", Json::Int(value as u64)),
                            ("instances", Json::Int(instances as u64)),
                            ("base_lat_ns", Json::Int(bl)),
                            ("copier_lat_ns", Json::Int(cl)),
                            ("base_kreqs", Json::Num(bt)),
                            ("copier_kreqs", Json::Num(ct)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::Arr(vec![
                Json::summary("idle_tput_gain", "ratio_min", 1.0, idle_tput),
                Json::summary("idle_lat_ratio", "ratio_max", 1.0, idle_lat),
                Json::summary("saturation_tput_floor", "ratio_min", 0.80, sat_tput),
            ]),
        ),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_saturation.json");
    json.write_file(path).expect("write BENCH_saturation.json");
    println!("\n  wrote {path}");
}
