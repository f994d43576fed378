//! TinyProxy-style forwarding proxy (§6.2.2, Fig. 12).
//!
//! The proxy reads a message, inspects only the request line / headers to
//! pick an upstream, rewrites the header, reorganizes the message into an
//! output buffer, and sends it on — three copies of which only the header
//! bytes are ever touched. With Copier the recv copy is marked *lazy*, the
//! reorganize copy is async, and the send's kernel copy absorbs the whole
//! chain into a single kernel→kernel short-circuit; the lazy tasks are
//! `abort`ed once the forward completes (§4.4).

use std::rc::Rc;

use copier_baselines::Zio;
use copier_client::sync_memcpy;
use copier_core::CopyFault;
use copier_mem::{MemError, Prot, VirtAddr};
use copier_os::{IoMode, NetStack, Os, Process, SendHandle, Socket};
use copier_sim::{Again, Core, Nanos};

/// Header scan + routing decision cost.
pub const ROUTE_COST: Nanos = Nanos(400);
/// Bytes of header the proxy reads and rewrites.
pub const HEADER_LEN: usize = 64;
/// A send that finds no socket buffer would block: it is retried this
/// many times, sleeping `SEND_BACKOFF << attempt` (capped at 64 ×) in
/// between — ≈ 700 µs in all, far past any buffer's reclaim.
const SEND_RETRIES: u32 = 16;
const SEND_BACKOFF: Nanos = Nanos(1000);
/// How often a forward looks at its send's descriptor while it waits.
const FORWARD_POLL: Nanos = Nanos(200);

/// Why a pump stopped before its limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProxyError {
    /// A socket or buffer operation failed (socket-buffer exhaustion only
    /// after the bounded retries).
    Mem(MemError),
    /// A copy the forward had to wait for faulted.
    Copy(CopyFault),
}

impl From<MemError> for ProxyError {
    fn from(e: MemError) -> Self {
        ProxyError::Mem(e)
    }
}

impl From<CopyFault> for ProxyError {
    fn from(f: CopyFault) -> Self {
        ProxyError::Copy(f)
    }
}

/// Proxy data-path variants.
#[derive(Clone)]
pub enum ProxyMode {
    /// Plain syscalls + two synchronous userspace copies.
    Baseline,
    /// Copier with lazy recv, async reorganize, absorption, and abort.
    Copier,
    /// zIO interposing on the userspace reorganize copy.
    Zio(Rc<Zio>),
}

/// A running proxy between one client socket and one upstream socket.
pub struct Proxy {
    os: Rc<Os>,
    net: Rc<NetStack>,
    /// The proxy process.
    pub proc: Rc<Process>,
    mode: ProxyMode,
    ubuf: VirtAddr,
    obuf: VirtAddr,
    cap: usize,
    /// Messages forwarded.
    pub forwarded: std::cell::Cell<u64>,
    /// Per-thread queue fd for multi-threaded runs (§6.3.2).
    fd: usize,
}

impl Proxy {
    /// Creates a proxy with `cap`-byte reusable buffers.
    pub fn new(
        os: &Rc<Os>,
        net: &Rc<NetStack>,
        mode: ProxyMode,
        cap: usize,
    ) -> Result<Rc<Self>, MemError> {
        let proc = os.spawn_process();
        Self::with_process(os, net, mode, cap, proc, 0)
    }

    /// Creates a proxy worker sharing `proc` but using its own per-thread
    /// queue set (Fig. 12-b scalability).
    pub fn with_process(
        os: &Rc<Os>,
        net: &Rc<NetStack>,
        mode: ProxyMode,
        cap: usize,
        proc: Rc<Process>,
        fd: usize,
    ) -> Result<Rc<Self>, MemError> {
        let ubuf = proc.space.mmap(cap, Prot::RW, true)?;
        let obuf = proc.space.mmap(cap, Prot::RW, true)?;
        Ok(Rc::new(Proxy {
            os: Rc::clone(os),
            net: Rc::clone(net),
            proc,
            mode,
            ubuf,
            obuf,
            cap,
            forwarded: std::cell::Cell::new(0),
            fd,
        }))
    }

    /// Forwards `limit` messages from `downstream` to `upstream`; the
    /// first one that cannot be forwarded ends the pump with its error.
    pub async fn pump(
        self: &Rc<Self>,
        core: &Rc<Core>,
        downstream: Rc<Socket>,
        upstream: Rc<Socket>,
        limit: u64,
    ) -> Result<(), ProxyError> {
        for _ in 0..limit {
            self.forward_one(core, &downstream, &upstream).await?;
            self.forwarded.set(self.forwarded.get() + 1);
        }
        Ok(())
    }

    /// `send`s `[va, va + n)` upstream. No socket buffer
    /// (`Fragmented`/`OutOfMemory`) is would-block, retried after a
    /// bounded back-off; the error comes back once the retries are spent.
    async fn send(
        &self,
        core: &Rc<Core>,
        upstream: &Rc<Socket>,
        va: VirtAddr,
        n: usize,
        mode: IoMode,
    ) -> Result<SendHandle, MemError> {
        let mut attempt = 0u32;
        loop {
            let sent = self
                .net
                .send_opts(core, &self.proc, upstream, va, n, mode, self.fd)
                .await;
            match sent {
                Err(MemError::Fragmented | MemError::OutOfMemory) if attempt < SEND_RETRIES => {
                    let wait = Nanos(SEND_BACKOFF.as_nanos() << attempt.min(6));
                    self.os.h.sleep(wait).await;
                    attempt += 1;
                }
                sent => return sent,
            }
        }
    }

    async fn forward_one(
        self: &Rc<Self>,
        core: &Rc<Core>,
        downstream: &Rc<Socket>,
        upstream: &Rc<Socket>,
    ) -> Result<(), ProxyError> {
        let space = &self.proc.space;
        match &self.mode {
            ProxyMode::Baseline | ProxyMode::Zio(_) => {
                let (n, _) = self
                    .net
                    .recv(
                        core,
                        &self.proc,
                        downstream,
                        self.ubuf,
                        self.cap,
                        IoMode::Sync,
                    )
                    .await?;
                core.advance(ROUTE_COST).await;
                // Rewrite the header in place (routing metadata).
                let mut hdr = [0u8; 8];
                space.read_bytes(self.ubuf, &mut hdr)?;
                hdr[0] ^= 0x80;
                space.write_bytes(self.ubuf, &hdr)?;
                // Reorganize into the output buffer.
                match &self.mode {
                    ProxyMode::Zio(zio) => {
                        zio.memcpy(core, &self.proc, self.obuf, self.ubuf, n)
                            .await?;
                    }
                    _ => {
                        sync_memcpy(core, &self.os.cost, space, self.obuf, self.ubuf, n).await?;
                    }
                }
                self.send(core, upstream, self.obuf, n, IoMode::Sync)
                    .await?;
            }
            ProxyMode::Copier => {
                let lib = self.proc.lib();
                // Lazy recv: the kernel→user copy is a mediator only.
                let (n, recv_d) = self
                    .net
                    .recv_opts(
                        core,
                        &self.proc,
                        downstream,
                        self.ubuf,
                        self.cap,
                        IoMode::Copier,
                        true,
                        self.fd,
                    )
                    .await?;
                core.advance(ROUTE_COST).await;
                // Header bytes are actually used: sync just those segments
                // (Fig. 8's "modified part" then flows from U, the rest
                // short-circuits from the kernel source).
                lib.csync_in(core, space.id(), self.ubuf, HEADER_LEN, self.fd)
                    .await?;
                let mut hdr = [0u8; 8];
                space.read_bytes(self.ubuf, &mut hdr)?;
                hdr[0] ^= 0x80;
                space.write_bytes(self.ubuf, &hdr)?;
                // Async reorganize (also never executed thanks to
                // absorption into the send).
                let reorg_d = lib
                    ._amemcpy(
                        core,
                        self.obuf,
                        self.ubuf,
                        n,
                        copier_client::AmemcpyOpts {
                            fd: self.fd,
                            lazy: true,
                            ..Default::default()
                        },
                    )
                    .await
                    .ok();
                // A refused reorganize wrote nothing into `obuf`: the
                // message is still in `ubuf`, where only the header is
                // known to have landed — sync the rest and send from there.
                let out = if reorg_d.is_some() {
                    self.obuf
                } else {
                    lib.csync_in(core, space.id(), self.ubuf, n, self.fd)
                        .await?;
                    self.ubuf
                };
                let done = self.send(core, upstream, out, n, IoMode::Copier).await?;
                // Once the NIC confirms the forward, discard the two
                // intermediate lazy copies (§4.4 abort).
                if let Some(d) = done.descriptor() {
                    let d2 = Rc::clone(&d);
                    let forwarding = move || !d2.all_ready() && d2.fault().is_none();
                    if forwarding() {
                        let again: Again = Rc::new(move |_| forwarding());
                        core.spin(FORWARD_POLL, &again).await;
                    }
                    if let (false, Some(fault)) = (d.all_ready(), d.fault()) {
                        return Err(fault.into());
                    }
                }
                if let Some(d) = &recv_d {
                    lib.abort_task(core, d, self.fd).await;
                }
                if let Some(d) = &reorg_d {
                    lib.abort_task(core, d, self.fd).await;
                }
            }
        }
        Ok(())
    }
}

/// A trivial echo peer: receives `limit` messages and replies nothing
/// (sink) or echoes (when `echo` is set).
pub async fn echo_server(
    os: Rc<Os>,
    net: Rc<NetStack>,
    core: Rc<Core>,
    sock: Rc<Socket>,
    limit: u64,
    reply: Option<Rc<Socket>>,
) {
    let proc = os.spawn_process();
    let cap = 512 * 1024;
    let buf = proc.space.mmap(cap, Prot::RW, true).expect("buf");
    for _ in 0..limit {
        let Ok((n, _)) = net.recv(&core, &proc, &sock, buf, cap, IoMode::Sync).await else {
            return;
        };
        if let Some(r) = &reply {
            net.send(&core, &proc, r, buf, n, IoMode::Sync)
                .await
                .expect("echo");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim};

    fn run(mode: ProxyMode, with_copier: bool, len: usize, msgs: u64) -> (Nanos, bool) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 4);
        let os = Os::boot(&h, machine, 16 * 1024);
        if with_copier {
            os.install_copier(vec![os.machine.core(3)], Default::default());
        }
        let net = NetStack::new(&os);
        let proxy = Proxy::new(&os, &net, mode, 512 * 1024).unwrap();
        let (client_tx, proxy_rx) = net.socket_pair();
        let (proxy_tx, upstream_rx) = net.socket_pair();

        let pcore = os.machine.core(1);
        let proxy2 = Rc::clone(&proxy);
        sim.spawn("proxy", async move {
            proxy2
                .pump(&pcore, proxy_rx, proxy_tx, msgs)
                .await
                .expect("forward");
        });

        // Upstream verifies every received message.
        let os2 = Rc::clone(&os);
        let net2 = Rc::clone(&net);
        let ucore = os.machine.core(2);
        let ok = Rc::new(std::cell::Cell::new(true));
        let ok2 = Rc::clone(&ok);
        sim.spawn("upstream", async move {
            let proc = os2.spawn_process();
            let buf = proc.space.mmap(512 * 1024, Prot::RW, true).unwrap();
            for i in 0..msgs {
                let (n, _) = net2
                    .recv(&ucore, &proc, &upstream_rx, buf, 512 * 1024, IoMode::Sync)
                    .await
                    .unwrap();
                let mut data = vec![0u8; n];
                proc.space.read_bytes(buf, &mut data).unwrap();
                // Byte 0 rewritten; rest must match the pattern.
                let exp0 = ((i as u8).wrapping_add(1)) ^ 0x80;
                if data[0] != exp0
                    || !data[1..]
                        .iter()
                        .enumerate()
                        .all(|(j, &b)| b == (((j + 1) as u8) ^ (i as u8)))
                {
                    ok2.set(false);
                }
            }
        });

        let os3 = Rc::clone(&os);
        let net3 = Rc::clone(&net);
        let ccore = os.machine.core(0);
        let h2 = h.clone();
        let elapsed = Rc::new(std::cell::Cell::new(Nanos::ZERO));
        let elapsed2 = Rc::clone(&elapsed);
        sim.spawn("client", async move {
            let proc = os3.spawn_process();
            let buf = proc.space.mmap(512 * 1024, Prot::RW, true).unwrap();
            let t0 = h2.now();
            for i in 0..msgs {
                let data: Vec<u8> = std::iter::once((i as u8).wrapping_add(1))
                    .chain((1..len).map(|j| (j as u8) ^ (i as u8)))
                    .collect();
                proc.space.write_bytes(buf, &data).unwrap();
                net3.send(&ccore, &proc, &client_tx, buf, len, IoMode::Sync)
                    .await
                    .unwrap();
            }
            // Let the pipeline drain.
            h2.sleep(Nanos::from_millis(2)).await;
            elapsed2.set(h2.now() - t0);
            if let Some(svc) = os3.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        (elapsed.get(), ok.get())
    }

    /// One message through a proxy whose send finds every free frame
    /// taken for `starve_for`. Returns how the pump ended and whether the
    /// message reached the upstream socket.
    fn run_starved(mode: ProxyMode, starve_for: Nanos) -> (Result<(), ProxyError>, bool) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 3);
        let os = Os::boot(&h, machine, 256);
        if matches!(mode, ProxyMode::Copier) {
            os.install_copier(vec![os.machine.core(2)], Default::default());
        }
        let net = NetStack::new(&os);
        let proxy = Proxy::new(&os, &net, mode, 16 * 1024).unwrap();
        let (client_tx, proxy_rx) = net.socket_pair();
        let (proxy_tx, upstream_rx) = net.socket_pair();
        let ended = Rc::new(std::cell::Cell::new(None));
        let (ended2, pcore) = (Rc::clone(&ended), os.machine.core(1));
        sim.spawn("proxy", async move {
            ended2.set(Some(proxy.pump(&pcore, proxy_rx, proxy_tx, 1).await));
        });
        let (os2, ccore) = (Rc::clone(&os), os.machine.core(0));
        sim.spawn("client", async move {
            let proc = os2.spawn_process();
            let buf = proc.space.mmap(16 * 1024, Prot::RW, true).unwrap();
            net.send(&ccore, &proc, &client_tx, buf, 16 * 1024, IoMode::Sync)
                .await
                .unwrap();
            // The message is on its way: keep taking every frame that is
            // left, or that the proxy's recv hands back.
            let t0 = os2.h.now();
            let mut hog = Vec::new();
            while os2.h.now() - t0 < starve_for {
                hog.extend(std::iter::from_fn(|| os2.pm.alloc().ok()));
                os2.h.sleep(Nanos(100)).await;
            }
            hog.iter().for_each(|&f| os2.pm.decref(f));
            os2.h.sleep(Nanos::from_millis(1)).await;
            if let Some(svc) = os2.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        (
            ended.take().expect("pump returned"),
            upstream_rx.rx_depth() == 1,
        )
    }

    #[test]
    fn a_send_without_socket_buffers_blocks_then_goes_out() {
        for mode in [ProxyMode::Baseline, ProxyMode::Copier] {
            let (ended, delivered) = run_starved(mode, Nanos::from_micros(100));
            assert_eq!(ended, Ok(()));
            assert!(delivered);
        }
    }

    #[test]
    fn spent_retries_end_the_pump_with_the_error() {
        for mode in [ProxyMode::Baseline, ProxyMode::Copier] {
            let (ended, delivered) = run_starved(mode, Nanos::from_millis(2));
            assert!(
                matches!(
                    ended,
                    Err(ProxyError::Mem(
                        MemError::OutOfMemory | MemError::Fragmented
                    ))
                ),
                "{ended:?}"
            );
            assert!(!delivered);
        }
    }

    #[test]
    fn baseline_forwards_correctly() {
        let (t, ok) = run(ProxyMode::Baseline, false, 16 * 1024, 8);
        assert!(ok, "payload corrupted");
        assert!(t > Nanos::ZERO);
    }

    #[test]
    fn copier_forwards_correctly_with_absorption() {
        let (_, ok) = run(ProxyMode::Copier, true, 16 * 1024, 8);
        assert!(ok, "payload corrupted through the absorbed chain");
    }

    #[test]
    fn zio_forwards_correctly() {
        let zio = Zio::new(Rc::new(copier_hw::CostModel::default()));
        let (_, ok) = run(ProxyMode::Zio(Rc::clone(&zio)), false, 32 * 1024, 4);
        assert!(ok);
        assert!(zio.stats().remaps > 0, "aligned forward should remap");
    }
}
