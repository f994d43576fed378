//! Scratch probe for multi-threaded proxy debugging.
use copier_apps::proxy::{echo_server, Proxy, ProxyMode};
use copier_mem::Prot;
use copier_os::{IoMode, NetStack, Os};
use copier_sim::{Machine, Nanos, Sim};
use std::cell::Cell;
use std::rc::Rc;

fn main() {
    let threads = 2usize;
    let len = 16 * 1024;
    let msgs = 5u64;
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, threads * 2 + 2);
    let os = Os::boot(&h, machine, 128 * 1024);
    os.install_copier(vec![os.machine.core(threads * 2 + 1)], Default::default());
    let net = NetStack::new(&os);
    let shared = os.spawn_process();
    let done = Rc::new(Cell::new(0usize));
    for t in 0..threads {
        let (ctx, prx) = net.socket_pair();
        let (ptx, urx) = net.socket_pair();
        let fd = if t == 0 {
            0
        } else {
            shared.lib().create_queue(1024)
        };
        let proxy = Proxy::with_process(
            &os,
            &net,
            ProxyMode::Copier,
            512 * 1024,
            Rc::clone(&shared),
            fd,
        )
        .unwrap();
        let pcore = os.machine.core(threads + t);
        let h4 = h.clone();
        sim.spawn("proxy", async move {
            proxy.pump(&pcore, prx, ptx, msgs).await.expect("forward");
            eprintln!("proxy {t} done at {}", h4.now());
        });
        let os2 = Rc::clone(&os);
        let net2 = Rc::clone(&net);
        let ucore = os.machine.core(threads * 2);
        let h3 = h.clone();
        let done2 = Rc::clone(&done);
        sim.spawn("up", async move {
            echo_server(Rc::clone(&os2), net2, ucore, urx, msgs, None).await;
            eprintln!("upstream {t} done at {}", h3.now());
            done2.set(done2.get() + 1);
            if done2.get() == threads {
                os2.copier().stop();
            }
        });
        let os3 = Rc::clone(&os);
        let net3 = Rc::clone(&net);
        let ccore = os.machine.core(t);
        sim.spawn("client", async move {
            let p = os3.spawn_process();
            let buf = p.space.mmap(len, Prot::RW, true).unwrap();
            p.space.write_bytes(buf, &vec![1u8; len]).unwrap();
            for _ in 0..msgs {
                net3.send(&ccore, &p, &ctx, buf, len, IoMode::Sync)
                    .await
                    .unwrap();
            }
            eprintln!("client {t} sent all");
        });
    }
    let end = sim.run_until(Nanos::from_millis(50));
    eprintln!("end {end}, live: {:?}", sim.live_task_names());
    eprintln!("stats {:?}", os.copier().stats());
}
