//! Copy absorption end to end: a proxy forwards a message it barely
//! touches, and Copier short-circuits the three copies (kernel → user →
//! output → kernel) into one kernel-to-kernel copy, discarding the
//! intermediates with `abort` (§4.4).
//!
//! Run with: `cargo run --example proxy_absorption`

use std::rc::Rc;

use copier::apps::proxy::{echo_server, Proxy, ProxyMode};
use copier::mem::Prot;
use copier::os::{IoMode, NetStack, Os};
use copier::sim::{Machine, Nanos, Sim};

fn run(mode: ProxyMode, with_copier: bool, label: &str) {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 4);
    let os = Os::boot(&h, machine, 64 * 1024);
    if with_copier {
        os.install_copier(vec![os.machine.core(3)], Default::default());
    }
    let net = NetStack::new(&os);
    let proxy = Proxy::new(&os, &net, mode, 512 * 1024).unwrap();
    let (client_tx, proxy_rx) = net.socket_pair();
    let (proxy_tx, upstream_rx) = net.socket_pair();
    let msgs = 16u64;
    let len = 64 * 1024;

    let pcore = os.machine.core(1);
    let proxy2 = Rc::clone(&proxy);
    sim.spawn("proxy", async move {
        proxy2
            .pump(&pcore, proxy_rx, proxy_tx, msgs)
            .await
            .expect("forward");
    });
    let os2 = Rc::clone(&os);
    let net2 = Rc::clone(&net);
    sim.spawn(
        "upstream",
        echo_server(
            Rc::clone(&os),
            Rc::clone(&net),
            os.machine.core(2),
            upstream_rx,
            msgs,
            None,
        ),
    );
    let ccore = os.machine.core(0);
    let h2 = h.clone();
    let label = label.to_string();
    sim.spawn("client", async move {
        let proc = os2.spawn_process();
        let buf = proc.space.mmap(len, Prot::RW, true).unwrap();
        proc.space.write_bytes(buf, &vec![0xAB; len]).unwrap();
        let t0 = h2.now();
        for _ in 0..msgs {
            net2.send(&ccore, &proc, &client_tx, buf, len, IoMode::Sync)
                .await
                .unwrap();
        }
        h2.sleep(Nanos::from_millis(5)).await;
        println!("{label:>10}: {msgs} x 64KB forwarded in {}", h2.now() - t0);
        if let Some(svc) = os2.copier.borrow().as_ref() {
            let st = svc.stats();
            println!(
                "{label:>10}: {} bytes absorbed (short-circuited), {} intermediate copies aborted",
                st.bytes_absorbed, st.aborts
            );
            svc.stop();
        }
    });
    sim.run();
}

fn main() {
    println!("TinyProxy-style forwarding, 64KB messages:\n");
    run(ProxyMode::Baseline, false, "baseline");
    run(ProxyMode::Copier, true, "copier");
}
