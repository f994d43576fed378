//! The Fig. 12 chain end to end and over a long run (ROADMAP 1b/1c):
//! paced clients → `NetStack::send` → `Proxy` (`ProxyMode::Copier`,
//! per-worker queue set) → a sink that checks every byte.
//!
//! Pinned here because the repo benchmark's `proxy_chain` stops at ≈ 830
//! messages, just short of where the parent commit collapsed: aborted
//! tasks never left the window, so the pending index grew by one record
//! per message, the credit pool ran dry at 1 023 aborts, and a refused
//! reorganize then sent a buffer nothing had written.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier::apps::proxy::{Proxy, ProxyMode};
use copier::core::{AdmissionConfig, CopierConfig, CopierStats};
use copier::mem::{Prot, PAGE_SIZE};
use copier::os::{IoMode, NetStack, Os};
use copier::sim::{Machine, Nanos, Sim, SimRng};

/// Bytes at the head of each message: sequence number and length.
const HEADER: usize = 8;
/// The proxy flips this bit of byte 0 when it rewrites the header.
const ROUTE_BIT: u8 = 0x80;
const LEN_MIN: usize = 8 * 1024;
const LEN_MAX: usize = 24 * 1024;
/// Message `k` and message `k + PERIOD` of a worker have the same length,
/// so the first and the last thousand of a run are the same traffic.
const PERIOD: usize = 500;
/// Source of every payload: message `k` carries the template from an
/// offset of its own, so a forwarded stale buffer cannot pass.
const TEMPLATE: usize = 128 * 1024;

struct Spec {
    workers: usize,
    msgs: usize,
    gap: Nanos,
    frames: usize,
    cfg: CopierConfig,
}

struct Outcome {
    /// Messages that arrived with a wrong length, header or payload byte.
    damaged: u64,
    arrived: u64,
    /// Due → verified, per worker in arrival order.
    latency: Vec<Vec<u64>>,
    /// `pm.allocated()` after each of worker 0's messages past the 1 000th.
    allocated: Vec<usize>,
    pinned: usize,
    stats: CopierStats,
    audit: Result<(), String>,
}

fn payload_off(k: usize, len: usize) -> usize {
    (k * 257) % (TEMPLATE - len)
}

fn run(spec: Spec) -> Outcome {
    let w = spec.workers;
    let mut sim = Sim::new();
    let h = sim.handle();
    // Clients, proxy workers, sinks, then the Copier core.
    let machine = Machine::new(&h, 3 * w + 1);
    let os = Os::boot(&h, machine, spec.frames);
    os.install_copier(vec![os.machine.core(3 * w)], spec.cfg);
    let net = NetStack::new(&os);
    let io_cap = LEN_MAX.next_multiple_of(PAGE_SIZE);
    let mut template = vec![0u8; TEMPLATE];
    SimRng::new(0x50A4).fill_bytes(&mut template);
    let template = Rc::new(template);
    let lens: Rc<Vec<usize>> = {
        let rng = SimRng::new(0x1E45);
        Rc::new(
            (0..PERIOD)
                .map(|_| rng.range_usize(LEN_MIN, LEN_MAX + 1))
                .collect(),
        )
    };

    let damaged = Rc::new(Cell::new(0u64));
    let arrived = Rc::new(Cell::new(0u64));
    let sinks_done = Rc::new(Cell::new(0usize));
    let latency: Vec<Rc<RefCell<Vec<u64>>>> = (0..w).map(|_| Rc::default()).collect();
    let allocated = Rc::new(RefCell::new(Vec::new()));
    let proxy_proc = os.spawn_process();
    for t in 0..w {
        let (client_tx, proxy_rx) = net.socket_pair();
        let (proxy_tx, sink_rx) = net.socket_pair();
        // Worker 0 keeps the process default queue set (§5.1 multi-queue).
        let fd = if t > 0 {
            proxy_proc.lib().create_queue(1024)
        } else {
            0
        };
        let proxy = Proxy::with_process(
            &os,
            &net,
            ProxyMode::Copier,
            io_cap,
            Rc::clone(&proxy_proc),
            fd,
        )
        .expect("proxy buffers");
        let pcore = os.machine.core(w + t);
        let msgs = spec.msgs as u64;
        sim.spawn("proxy", async move {
            proxy
                .pump(&pcore, proxy_rx, proxy_tx, msgs)
                .await
                .expect("forward");
        });

        let phase = (t as u64 * spec.gap.as_nanos()) / w as u64;
        let due = move |k: usize| phase + k as u64 * spec.gap.as_nanos();
        {
            let (os, net, h) = (Rc::clone(&os), Rc::clone(&net), h.clone());
            let core = os.machine.core(2 * w + t);
            let (lens, template) = (Rc::clone(&lens), Rc::clone(&template));
            let (damaged, arrived) = (Rc::clone(&damaged), Rc::clone(&arrived));
            let (latency, allocated) = (Rc::clone(&latency[t]), Rc::clone(&allocated));
            let sinks_done = Rc::clone(&sinks_done);
            sim.spawn("sink", async move {
                let proc = os.spawn_process();
                let buf = proc
                    .space
                    .mmap(io_cap, Prot::RW, true)
                    .expect("sink buffer");
                let mut got = vec![0u8; io_cap];
                for k in 0..spec.msgs {
                    while sink_rx.rx_depth() == 0 {
                        h.sleep(Nanos(500)).await;
                    }
                    let (n, _) = net
                        .recv(&core, &proc, &sink_rx, buf, io_cap, IoMode::Sync)
                        .await
                        .expect("sink recv");
                    proc.space
                        .read_bytes(buf, &mut got[..n])
                        .expect("sink read");
                    got[0] ^= ROUTE_BIT;
                    let len = lens[k % PERIOD];
                    let off = payload_off(k, len);
                    let intact = n == len
                        && got[0..4] == (k as u32).to_le_bytes()
                        && got[4..8] == (len as u32).to_le_bytes()
                        && got[HEADER..n] == template[off + HEADER..off + n];
                    if !intact {
                        damaged.set(damaged.get() + 1);
                    }
                    arrived.set(arrived.get() + 1);
                    latency.borrow_mut().push(h.now().as_nanos() - due(k));
                    if t == 0 && k >= 1000 {
                        allocated.borrow_mut().push(os.pm.allocated());
                    }
                }
                sinks_done.set(sinks_done.get() + 1);
            });
        }
        {
            let (os, net, h) = (Rc::clone(&os), Rc::clone(&net), h.clone());
            let core = os.machine.core(t);
            let (lens, template) = (Rc::clone(&lens), Rc::clone(&template));
            sim.spawn("client", async move {
                let proc = os.spawn_process();
                let buf = proc
                    .space
                    .mmap(io_cap, Prot::RW, true)
                    .expect("client buffer");
                let mut msg = vec![0u8; io_cap];
                for k in 0..spec.msgs {
                    let now = h.now().as_nanos();
                    if due(k) > now {
                        h.sleep(Nanos(due(k) - now)).await;
                    }
                    let len = lens[k % PERIOD];
                    let off = payload_off(k, len);
                    msg[..len].copy_from_slice(&template[off..off + len]);
                    msg[0..4].copy_from_slice(&(k as u32).to_le_bytes());
                    msg[4..8].copy_from_slice(&(len as u32).to_le_bytes());
                    proc.space
                        .write_bytes(buf, &msg[..len])
                        .expect("client write");
                    net.send(&core, &proc, &client_tx, buf, len, IoMode::Sync)
                        .await
                        .expect("client send");
                }
            });
        }
    }
    // Stop once every sink has its messages, or give up a fixed interval
    // after the last one was due (lost messages then show as not arrived).
    let give_up = spec.msgs as u64 * spec.gap.as_nanos() + Nanos::from_millis(20).as_nanos();
    {
        let (os, h) = (Rc::clone(&os), h.clone());
        let sinks_done = Rc::clone(&sinks_done);
        sim.spawn("driver", async move {
            while sinks_done.get() < w && h.now().as_nanos() < give_up {
                h.sleep(Nanos::from_micros(20)).await;
            }
            // Let aborts and skb reclaim settle before the audit.
            h.sleep(Nanos::from_micros(200)).await;
            os.copier().stop();
        });
    }
    sim.run_until(Nanos(give_up + Nanos::from_millis(5).as_nanos()));

    let svc = os.copier();
    Outcome {
        damaged: damaged.get(),
        arrived: arrived.get(),
        latency: latency.iter().map(|l| l.borrow().clone()).collect(),
        allocated: allocated.take(),
        pinned: os.pm.pinned_frames(),
        stats: svc.stats(),
        audit: svc.audit_aggregates(),
    }
}

/// Nearest-rank percentile.
fn percentile(mut v: Vec<u64>, p: f64) -> u64 {
    v.sort_unstable();
    v[((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1]
}

#[test]
fn twenty_thousand_messages_stay_intact_flat_and_bounded() {
    let (workers, msgs) = (2, 10_000);
    let out = run(Spec {
        workers,
        msgs,
        gap: Nanos::from_micros(12),
        frames: 32 * 1024,
        cfg: CopierConfig::default(),
    });
    assert_eq!(out.arrived, (workers * msgs) as u64, "messages lost");
    assert_eq!(out.damaged, 0, "payloads damaged");
    assert_eq!(out.pinned, 0, "frames left pinned");
    out.audit.expect("audit_aggregates");
    assert!(
        out.stats.index_entries_peak <= 16,
        "pending index grew with the run: peak {}",
        out.stats.index_entries_peak
    );
    // Every task's credit comes back: three copies a message, and the two
    // mediators leave through their abort.
    let forwarded = (workers * msgs) as u64;
    assert_eq!(out.stats.credits_granted, 3 * forwarded);
    assert_eq!(out.stats.aborts, 2 * forwarded);
    // Frames in use move only with the few socket buffers in flight.
    let (lo, hi) = (
        *out.allocated.iter().min().unwrap(),
        *out.allocated.iter().max().unwrap(),
    );
    let in_flight = 4 * workers * LEN_MAX.div_ceil(PAGE_SIZE);
    assert!(
        hi - lo <= in_flight,
        "allocated frames drift from {lo} to {hi} after message 1000"
    );
    // p99 is flat in run length: the last thousand messages (the first
    // thousand's lengths again) against the first thousand.
    let window = |from: usize| -> Vec<u64> {
        out.latency
            .iter()
            .flat_map(|l| l[from..from + 1000 / workers].iter().copied())
            .collect()
    };
    let first = percentile(window(0), 0.99);
    let last = percentile(window(msgs - 1000 / workers), 0.99);
    assert!(
        last.abs_diff(first) * 10 <= first,
        "p99 moved with run length: first 1000 {first} ns, last 1000 {last} ns"
    );
}

/// Fig. 12-c's "async" and "+hw" columns run the chain with absorption
/// off. Layering was all that ordered the send behind the young lazy
/// producers it reads from, so every payload went out stale.
#[test]
fn the_absorption_ablation_forwards_real_bytes() {
    for use_dma in [false, true] {
        let out = run(Spec {
            workers: 2,
            msgs: 400,
            gap: Nanos::from_micros(20),
            frames: 32 * 1024,
            cfg: CopierConfig {
                absorption: false,
                use_dma,
                ..Default::default()
            },
        });
        assert_eq!((out.arrived, out.damaged), (800, 0), "use_dma {use_dma}");
        assert_eq!(out.pinned, 0);
        out.audit.expect("audit_aggregates");
    }
}

/// With one credit the lazy recv holds it for the whole (long) lazy
/// period, so every reorganize is refused: the message is then only in
/// the receive buffer, and that is what has to be sent.
#[test]
fn a_refused_reorganize_still_delivers_the_payload() {
    let out = run(Spec {
        workers: 1,
        msgs: 6,
        gap: Nanos::from_millis(8),
        frames: 4 * 1024,
        cfg: CopierConfig {
            lazy_period: Nanos::from_millis(200),
            admission: AdmissionConfig {
                max_client_tasks: 1,
                ..Default::default()
            },
            ..Default::default()
        },
    });
    assert_eq!((out.arrived, out.damaged), (6, 0));
    // Two copies a message reached the service: the recv and the send.
    assert_eq!(out.stats.credits_granted, 12);
    assert_eq!(out.pinned, 0);
    out.audit.expect("audit_aggregates");
}
