//! A mini-Redis session over the simulated network stack, baseline versus
//! Copier — the paper's flagship application (§6.2.1).
//!
//! Run with: `cargo run --example kv_server`

use std::rc::Rc;

use copier::apps::redis::{run_client, Op, RedisMode, RedisServer};
use copier::os::{NetStack, Os};
use copier::sim::{Machine, Sim, SimRng};

fn run(mode: RedisMode, with_copier: bool, label: &str) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 3);
    let os = Os::boot(&h, machine, 32 * 1024);
    if with_copier {
        os.install_copier(vec![os.machine.core(2)], Default::default());
    }
    let net = NetStack::new(&os);
    let server = RedisServer::new(&os, &net, mode, 512 * 1024);
    let (client_sock, server_sock) = net.socket_pair();

    let score = os.machine.core(1);
    let server2 = Rc::clone(&server);
    sim.spawn("redis-server", async move {
        // 20 SETs + 20 GETs + 2 seeding SETs.
        server2.serve(&score, server_sock, 42).await;
    });

    let os2 = Rc::clone(&os);
    let net2 = Rc::clone(&net);
    let ccore = os.machine.core(0);
    let label = label.to_string();
    sim.spawn("redis-client", async move {
        let rng = Rc::new(SimRng::new(7));
        let value_len = 16 * 1024;
        let sets = run_client(
            Rc::clone(&os2),
            Rc::clone(&net2),
            Rc::clone(&ccore),
            Rc::clone(&client_sock),
            Op::Set,
            1,
            value_len,
            20,
            Rc::clone(&rng),
        )
        .await;
        let gets = run_client(
            Rc::clone(&os2),
            net2,
            ccore,
            client_sock,
            Op::Get,
            1,
            value_len,
            20,
            rng,
        )
        .await;
        let avg = |v: &[copier::apps::redis::Sample]| {
            v.iter().map(|s| s.latency.as_nanos()).sum::<u64>() / v.len() as u64
        };
        println!(
            "{label:>10}: SET avg {:>7}ns   GET avg {:>7}ns   (16KB values, data verified)",
            avg(&sets),
            avg(&gets)
        );
        if let Some(svc) = os2.copier.borrow().as_ref() {
            let st = svc.stats();
            println!(
                "{label:>10}: absorbed {} bytes, {} aborts, {} tasks",
                st.bytes_absorbed, st.aborts, st.tasks_completed
            );
            println!(
                "{label:>10}: overload: {} rejected ({} bytes shed), {} credits granted, \
                 {} degraded sync copies, {} pressure events",
                st.admission_rejected,
                st.shed_bytes,
                st.credits_granted,
                st.degraded_sync_copies,
                st.pressure_events
            );
            println!(
                "{label:>10}: control plane: {} hazard scans ({} index hits, peak {} \
                 indexed ranges), {} settled / {} active rounds",
                st.hazard_scans,
                st.index_hits,
                st.index_entries_peak,
                st.rounds_settled,
                st.rounds_active
            );
            svc.stop();
        }
    });
    sim.run();
}

fn main() {
    println!("mini-Redis over the simulated netstack, 16KB values:\n");
    run(RedisMode::Baseline, false, "baseline");
    run(RedisMode::Copier, true, "copier");
}
