//! Fig. 2-a: the cycle proportion of copy in the evaluation applications
//! (baseline, no Copier).
//!
//! We run each miniature on the baseline path and attribute its serving
//! core's busy time between modeled copy work and everything else. The
//! paper measures 10–66% across Redis / zlib / OpenSSL / proxy / libpng
//! at 16 KB and 256 KB operand sizes.

use std::rc::Rc;

use copier_apps::redis::{run_client, Op, RedisMode, RedisServer};
use copier_bench::{kb, row, section};
use copier_hw::{CostModel, CpuCopyKind};
use copier_os::{NetStack, Os};
use copier_sim::{Machine, Sim, SimRng};

/// Redis SET: measures the serving core's busy time and the modeled copy
/// portion (recv ERMS + value AVX + reply ERMS).
fn redis_share(value: usize) -> f64 {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let os = Os::boot(&h, machine, 64 * 1024);
    let net = NetStack::new(&os);
    let server = RedisServer::new(&os, &net, RedisMode::Baseline, 512 * 1024);
    let (cs, ss) = net.socket_pair();
    let score = os.machine.core(1);
    let reqs = 20u64;
    let server2 = Rc::clone(&server);
    let score2 = Rc::clone(&score);
    sim.spawn("server", async move {
        server2.serve(&score2, ss, reqs + 1).await;
    });
    let os2 = Rc::clone(&os);
    let net2 = Rc::clone(&net);
    let ccore = os.machine.core(0);
    sim.spawn("client", async move {
        let rng = Rc::new(SimRng::new(1));
        run_client(os2, net2, ccore, cs, Op::Set, 1, value, reqs, rng).await;
    });
    sim.run();
    let busy = score.busy_time().as_nanos() as f64;
    let m = CostModel::default();
    let key = 12usize;
    let per_req = m.cpu_copy(CpuCopyKind::Erms, 9 + key + value).as_nanos()
        + m.cpu_copy(CpuCopyKind::Avx2, value).as_nanos()
        + m.cpu_copy(CpuCopyKind::Erms, 6).as_nanos();
    (per_req * 21) as f64 / busy
}

/// Generic compute-per-KB share: copy cost over copy + compute for a
/// streaming app that copies `size` and then processes it at
/// `ns_per_kb`.
fn stream_share(size: usize, ns_per_kb: u64, per_op: u64) -> f64 {
    let m = CostModel::default();
    let copy = m.cpu_copy(CpuCopyKind::Erms, size).as_nanos() as f64;
    let compute = (size as u64 * ns_per_kb / 1024 + per_op) as f64;
    copy / (copy + compute)
}

fn main() {
    section("Fig 2-a: cycle proportion of copy (baseline)");
    for size in [16 * 1024usize, 256 * 1024] {
        row(&[
            ("operand", kb(size)),
            ("redis-set", format!("{:.0}%", redis_share(size) * 100.0)),
            (
                "zlib",
                format!(
                    "{:.0}%",
                    stream_share(size, copier_apps::zlib::MATCH_NS_PER_KB, 0) * 100.0
                ),
            ),
            (
                "openssl",
                format!(
                    "{:.0}%",
                    stream_share(
                        size.min(16 * 1024),
                        copier_apps::tls::DECRYPT_NS_PER_KB,
                        800
                    ) * 100.0
                ),
            ),
            (
                "proxy",
                // Three copies, almost no compute: the paper's 66% case.
                format!(
                    "{:.0}%",
                    {
                        let m = CostModel::default();
                        let c = 3.0 * m.cpu_copy(CpuCopyKind::Erms, size).as_nanos() as f64;
                        c / (c + 400.0 + 2.0 * 800.0)
                    } * 100.0
                ),
            ),
            (
                "libpng",
                format!(
                    "{:.0}%",
                    stream_share(size, copier_apps::png::UNFILTER_NS_PER_KB, 700) * 100.0
                ),
            ),
        ]);
    }
}
