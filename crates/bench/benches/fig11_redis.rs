//! Fig. 11: Redis GET/SET latency (avg, P99) and throughput across value
//! sizes, for baseline / Copier / zIO / UB / zero-copy send.
//!
//! Paper shape: Copier −2.7–43.4% avg SET latency and −4.2–42.5% GET;
//! zIO only helps large SETs (input-buffer reuse faults); UB only ≤4 KB;
//! zero-copy send only ≥32 KB values.

use std::cell::RefCell;
use std::rc::Rc;

use copier_apps::redis::{run_client, Op, RedisMode, RedisServer};
use copier_baselines::Zio;
use copier_bench::{delta, kb, row, section, stats, Stats};
use copier_os::{NetStack, Os};
use copier_sim::{Machine, Nanos, Sim, SimRng};

const REQS: u64 = 24;
const CLIENTS: usize = 2;

fn run(mode: RedisMode, with_copier: bool, op: Op, value_len: usize) -> (Stats, f64) {
    let mut sim = Sim::new();
    let h = sim.handle();
    // Client cores + server core + copier core.
    let machine = Machine::new(&h, CLIENTS + 2);
    let os = Os::boot(&h, machine, 64 * 1024);
    if with_copier {
        os.install_copier(vec![os.machine.core(CLIENTS + 1)], Default::default());
    }
    let net = NetStack::new(&os);
    let server = RedisServer::new(&os, &net, mode, 512 * 1024);
    let score = os.machine.core(CLIENTS);
    let total = (REQS + 1) * CLIENTS as u64;
    let samples: Rc<RefCell<Vec<Nanos>>> = Rc::new(RefCell::new(Vec::new()));
    let t_all = Rc::new(std::cell::Cell::new((Nanos::ZERO, Nanos::ZERO)));
    let done = Rc::new(std::cell::Cell::new(0usize));
    for c in 0..CLIENTS {
        let (cs, ss) = net.socket_pair();
        let server2 = Rc::clone(&server);
        let score2 = Rc::clone(&score);
        sim.spawn("server-conn", async move {
            server2.serve(&score2, ss, REQS + 1).await;
        });
        let os2 = Rc::clone(&os);
        let net2 = Rc::clone(&net);
        let core = os.machine.core(c);
        let samples2 = Rc::clone(&samples);
        let done2 = Rc::clone(&done);
        let t_all2 = Rc::clone(&t_all);
        let h2 = h.clone();
        sim.spawn("client", async move {
            let rng = Rc::new(SimRng::new(100 + c as u64));
            let t0 = h2.now();
            let s = run_client(
                Rc::clone(&os2),
                net2,
                core,
                cs,
                op,
                c as u32,
                value_len,
                REQS,
                rng,
            )
            .await;
            samples2.borrow_mut().extend(s.iter().map(|x| x.latency));
            let (start, dur) = t_all2.get();
            t_all2.set((start, dur.max(h2.now() - t0)));
            done2.set(done2.get() + 1);
            if done2.get() == CLIENTS {
                if let Some(svc) = os2.copier.borrow().as_ref() {
                    svc.stop();
                }
            }
        });
    }
    sim.run();
    assert_eq!(server.served.get(), total, "all requests served");
    let mut v = samples.borrow_mut();
    let st = stats(&mut v);
    let (_, dur) = t_all.get();
    let tput = (REQS as f64 * CLIENTS as f64) / dur.as_secs_f64() / 1000.0; // kreq/s
    (st, tput)
}

fn main() {
    section("Fig 11: Redis GET/SET latency and throughput");
    for op in [Op::Set, Op::Get] {
        for value in [1024usize, 4 * 1024, 16 * 1024, 64 * 1024] {
            println!("\n  {op:?} value = {}", kb(value));
            let (base, base_t) = run(RedisMode::Baseline, false, op, value);
            let systems: Vec<(&str, RedisMode, bool)> = vec![
                ("baseline", RedisMode::Baseline, false),
                ("copier", RedisMode::Copier, true),
                (
                    "zio",
                    RedisMode::Zio(Zio::new(Rc::new(copier_hw::CostModel::default()))),
                    false,
                ),
                ("ub", RedisMode::Ub, false),
                ("zc-send", RedisMode::ZeroCopySend, false),
            ];
            for (name, mode, cop) in systems {
                let (st, tput) = run(mode, cop, op, value);
                row(&[
                    ("sys", name.to_string()),
                    ("avg", format!("{}", st.avg)),
                    ("p99", format!("{}", st.p99)),
                    ("kreq/s", format!("{tput:.1}")),
                    ("avg-vs-base", delta(base.avg, st.avg)),
                    ("tput-vs-base", copier_bench::ratio(tput, base_t)),
                ]);
            }
        }
    }
}
