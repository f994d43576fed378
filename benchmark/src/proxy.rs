//! `proxy_chain`: the one workload that goes through `copier-os` and
//! `copier-apps`. Each worker is a client sending planned messages with
//! `NetStack::send`, a `copier_apps::proxy::Proxy` forwarding them, and a
//! sink written here that reads the due-stamp and verifies every byte.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use copier_apps::proxy::{Proxy, ProxyMode};
use copier_core::CopierConfig;
use copier_mem::Prot;
use copier_os::{IoMode, NetStack, Os};
use copier_sim::{stream_seed, Machine, Nanos, Sim, SimRng};

use crate::layers::{self, Layers};
use crate::record::{span_durations, Recorder};
use crate::run::{pad_unattempted, run_guarded_until, Check, RunOut};
use crate::stats::{percentile_or_zero, Outcome};

/// Bytes at the head of each message: op id (u32), length (u32), due (u64).
const HEADER: usize = 16;
/// The proxy flips this bit of byte 0 when it rewrites the header.
const ROUTE_BIT: u8 = 0x80;
/// Source of every payload: message `i` carries the template from a
/// per-message offset, so a forwarded stale buffer cannot pass.
const TEMPLATE: usize = 128 * 1024;
/// How often a sink looks at its socket.
const SINK_POLL: Nanos = Nanos(500);

#[derive(Debug, Clone)]
pub struct ProxySpec {
    pub workers: usize,
    /// Interval between a worker's messages.
    pub gap: Nanos,
    pub len_min: usize,
    pub len_max: usize,
    pub horizon: Nanos,
    pub frames: usize,
    /// `false` re-runs the same plan through `ProxyMode::Baseline` with no
    /// Copier installed (the `apps.*_vs_baseline` reference).
    pub copier: bool,
}

impl ProxySpec {
    pub fn new(div: u64) -> Self {
        ProxySpec {
            workers: 2,
            gap: Nanos::from_micros(12),
            len_min: 8 * 1024,
            len_max: 24 * 1024,
            horizon: Nanos(Nanos::from_millis(5).as_nanos() / div),
            frames: 128 * 1024,
            copier: true,
        }
    }
}

fn payload_off(op: usize, len: usize) -> usize {
    (op * 257) % (TEMPLATE - len)
}

pub fn run(spec: &ProxySpec, seed: u64, traced: bool, t0: Instant) -> RunOut {
    let w = spec.workers;
    let mut sim = Sim::new();
    let h = sim.handle();
    // Clients, proxy workers, sinks, then the Copier core.
    let machine = Machine::new(&h, 3 * w + 1);
    let os = Os::boot(&h, machine, spec.frames);
    if spec.copier {
        os.install_copier(vec![os.machine.core(3 * w)], CopierConfig::default());
    }
    let net = NetStack::new(&os);
    let mode = if spec.copier {
        ProxyMode::Copier
    } else {
        ProxyMode::Baseline
    };
    let io_cap = spec.len_max.next_multiple_of(copier_mem::PAGE_SIZE);

    let mut template = vec![0u8; TEMPLATE];
    SimRng::new(stream_seed(seed ^ 0xB0FF_E125, 0)).fill_bytes(&mut template);
    let template = Rc::new(template);

    // Paced open loop: each worker's client sends one message every
    // `gap`, from a seed-drawn phase, with seed-drawn lengths.
    let plan_t0 = Instant::now();
    let gap = spec.gap.as_nanos();
    let arrivals: Vec<Vec<(u64, usize)>> = (0..w)
        .map(|t| {
            let rng = SimRng::new(stream_seed(seed, t as u64));
            let phase = rng.gen_range(gap);
            (0..)
                .map(|k| phase + k * gap)
                .take_while(|&due| due < spec.horizon.as_nanos())
                .map(|due| (due, rng.range_usize(spec.len_min, spec.len_max + 1)))
                .collect()
        })
        .collect();
    let plan_gen_s = plan_t0.elapsed().as_secs_f64();
    let plan_arrivals: usize = arrivals.iter().map(Vec::len).sum();
    let plan_bytes: u64 = arrivals.iter().flatten().map(|a| a.1 as u64).sum();

    let rec = Recorder::new(&h, traced, plan_arrivals);
    let sinks_done = Rc::new(Cell::new(0usize));
    let send_errors = Rc::new(Cell::new(0u64));
    let mismatches = Rc::new(Cell::new(0u64));
    let proxy_proc = os.spawn_process();
    let mut proxies = Vec::new();
    // Workers interleave, so op ids are not per-worker sequences: a sink
    // takes the id from the message header and checks length, due-stamp
    // and payload against what its worker's plan expects next.
    for (t, sched) in arrivals.iter().enumerate() {
        let (client_tx, proxy_rx) = net.socket_pair();
        let (proxy_tx, sink_rx) = net.socket_pair();
        // Per-worker queue set (§5.1 multi-queue); worker 0 keeps the
        // process default.
        let fd = if t > 0 && spec.copier {
            proxy_proc.lib().create_queue(1024)
        } else {
            0
        };
        let proxy =
            Proxy::with_process(&os, &net, mode.clone(), io_cap, Rc::clone(&proxy_proc), fd)
                .expect("proxy buffers");
        proxies.push(Rc::clone(&proxy));
        let pcore = os.machine.core(w + t);
        let msgs = sched.len() as u64;
        sim.spawn("proxy", async move {
            proxy.pump(&pcore, proxy_rx, proxy_tx, msgs).await;
        });

        // Sink: the k-th message on this socket must be this worker's k-th
        // planned op, byte for byte.
        {
            let os = Rc::clone(&os);
            let net = Rc::clone(&net);
            let core = os.machine.core(2 * w + t);
            let rec = Rc::clone(&rec);
            let sched = sched.clone();
            let template = Rc::clone(&template);
            let sinks_done = Rc::clone(&sinks_done);
            let mismatches = Rc::clone(&mismatches);
            let h2 = h.clone();
            sim.spawn("sink", async move {
                let proc = os.spawn_process();
                let buf = proc
                    .space
                    .mmap(io_cap, Prot::RW, true)
                    .expect("sink buffer");
                let mut got = vec![0u8; io_cap];
                for &(due, len) in &sched {
                    // Poll for a queued message, then receive it: `os.recv`
                    // times the receive path alone, not the wait for the
                    // proxy.
                    while sink_rx.rx_depth() == 0 {
                        h2.sleep(SINK_POLL).await;
                    }
                    let recv_t0 = rec.now();
                    let Ok((n, _)) = net
                        .recv(&core, &proc, &sink_rx, buf, io_cap, IoMode::Sync)
                        .await
                    else {
                        return;
                    };
                    proc.space
                        .read_bytes(buf, &mut got[..n])
                        .expect("sink read");
                    got[0] ^= ROUTE_BIT;
                    let op = u32::from_le_bytes(got[0..4].try_into().unwrap()) as usize;
                    let intact = n == len
                        && u32::from_le_bytes(got[4..8].try_into().unwrap()) as usize == len
                        && u64::from_le_bytes(got[8..16].try_into().unwrap()) == due
                        && {
                            let off = payload_off(op, len);
                            got[HEADER..n] == template[off + HEADER..off + n]
                        };
                    rec.span("os.recv", op, recv_t0);
                    // A damaged header names no op; blame the one expected.
                    let op = if intact { op } else { rec.first_pending(t) };
                    rec.stamp_settle(op);
                    if intact {
                        rec.set_outcome(op, Outcome::Ok);
                    } else {
                        mismatches.set(mismatches.get() + 1);
                        rec.set_outcome(op, Outcome::Mismatch);
                    }
                }
                sinks_done.set(sinks_done.get() + 1);
            });
        }

        // Client: one planned message at each due instant.
        {
            let os = Rc::clone(&os);
            let net = Rc::clone(&net);
            let core = os.machine.core(t);
            let rec = Rc::clone(&rec);
            let sched = sched.clone();
            let template = Rc::clone(&template);
            let h2 = h.clone();
            let send_errors = Rc::clone(&send_errors);
            sim.spawn("client", async move {
                let proc = os.spawn_process();
                let buf = proc
                    .space
                    .mmap(io_cap, Prot::RW, true)
                    .expect("client buffer");
                let mut msg = vec![0u8; io_cap];
                for &(due, len) in &sched {
                    let now = h2.now().as_nanos();
                    if due > now {
                        h2.sleep(Nanos(due - now)).await;
                    }
                    let op = rec.begin(t, len, due);
                    let off = payload_off(op, len);
                    msg[..len].copy_from_slice(&template[off..off + len]);
                    msg[0..4].copy_from_slice(&(op as u32).to_le_bytes());
                    msg[4..8].copy_from_slice(&(len as u32).to_le_bytes());
                    msg[8..16].copy_from_slice(&due.to_le_bytes());
                    proc.space
                        .write_bytes(buf, &msg[..len])
                        .expect("client write");
                    let sent = net
                        .send(&core, &proc, &client_tx, buf, len, IoMode::Sync)
                        .await;
                    rec.span("os.send", op, rec.op_submit_start(op));
                    rec.submitted(op, sent.is_ok());
                    if sent.is_err() {
                        send_errors.set(send_errors.get() + 1);
                    }
                }
            });
        }
    }

    // Driver: stop once every sink has its messages, or give up a fixed
    // virtual interval after the last arrival (lost messages stay Pending).
    let give_up = spec.horizon.as_nanos() + Nanos::from_millis(20).as_nanos();
    let drain_end = Rc::new(Cell::new(0u64));
    {
        let os = Rc::clone(&os);
        let h2 = h.clone();
        let sinks_done = Rc::clone(&sinks_done);
        let drain_end = Rc::clone(&drain_end);
        sim.spawn("driver", async move {
            while sinks_done.get() < w && h2.now().as_nanos() < give_up {
                h2.sleep(Nanos::from_micros(20)).await;
            }
            drain_end.set(h2.now().as_nanos());
            // Let aborts and skb reclaim settle before the audit.
            h2.sleep(Nanos::from_micros(200)).await;
            if let Some(svc) = os.copier.borrow().as_ref() {
                svc.stop();
            }
        });
    }

    let setup_s = t0.elapsed().as_secs_f64();
    let wall_t0 = Instant::now();
    // Past the driver's stop nothing useful runs; the bound only ends
    // pollers a wedged copy would otherwise keep alive forever.
    let panicked =
        run_guarded_until(&mut sim, Nanos(give_up + Nanos::from_millis(5).as_nanos())).is_err();
    let host_wall_s = wall_t0.elapsed().as_secs_f64();

    let mut ops = rec.take_ops();
    let spans = rec.take_spans();
    if panicked {
        pad_unattempted(&mut ops, &arrivals);
    }
    let end = if drain_end.get() > 0 {
        drain_end.get()
    } else {
        sim.now().as_nanos()
    };
    let forwarded: u64 = proxies.iter().map(|p| p.forwarded.get()).sum();
    let unverified = ops.iter().filter(|o| o.outcome != Outcome::Ok).count();

    let mut checks = vec![
        Check::new("sim_run_completed", !panicked, "panic inside Sim::run"),
        Check::new(
            "pinned_frames_zero",
            os.pm.pinned_frames() == 0,
            &format!("{} frames still pinned", os.pm.pinned_frames()),
        ),
        Check::new(
            "sink_payloads_verified",
            unverified == 0,
            &format!(
                "{unverified} of {} messages lost or damaged ({} byte mismatches)",
                ops.len(),
                mismatches.get()
            ),
        ),
    ];
    let svc = os.copier.borrow().clone();
    if let Some(svc) = &svc {
        let audit = svc.audit_aggregates();
        checks.push(Check::new(
            "audit_aggregates",
            audit.is_ok(),
            audit.as_ref().err().map_or("", String::as_str),
        ));
    }

    let mut layers = Layers::new();
    if traced {
        layers.extend([
            ("sim.virt_end_ms", end as f64 / 1e6),
            ("sim.plan_arrivals", plan_arrivals as f64),
            ("sim.plan_gen_s", plan_gen_s),
            (
                "os.send_ns_p50",
                percentile_or_zero(&span_durations(&spans, "os.send"), 0.50) as f64,
            ),
            (
                "os.recv_ns_p50",
                percentile_or_zero(&span_durations(&spans, "os.recv"), 0.50) as f64,
            ),
            ("os.send_errors", send_errors.get() as f64),
            ("apps.forwarded", forwarded as f64),
            ("apps.payload_mismatches", mismatches.get() as f64),
            ("mem.frames_allocated", os.pm.allocated() as f64),
            ("mem.pinned_frames_end", os.pm.pinned_frames() as f64),
        ]);
        // The ops here are messages: their submit call is `os.send`, and
        // the copies the kernel and the proxy submit are not in the log.
        layers.extend(layers::generator(&ops));
        if let Some(svc) = &svc {
            layers.extend(layers::clients(std::iter::once(&proxy_proc.lib())));
            layers.extend(layers::service(
                svc,
                &[os.machine.core(3 * w)],
                host_wall_s,
                sim.now().as_nanos(),
            ));
        }
    }

    RunOut {
        ops,
        spans,
        warmup_end: spec.horizon.as_nanos() / 10,
        drain_end: end,
        setup_s,
        host_wall_s,
        checks,
        layers,
        mean_len: (plan_bytes / plan_arrivals.max(1) as u64) as usize,
    }
}
