//! Simulated network stack: sockets, sk_buffs, and a loopback NIC (§5.2).
//!
//! The copies Copier optimizes live here: `send()` copies user data into a
//! kernel sk_buff; `recv()` copies an sk_buff into the user buffer. With
//! checksum offload the protocol layers only touch metadata, so the send
//! copy can run asynchronously until the driver enqueues the packet into
//! the NIC TX queue; the recv copy's Copy-Use window is the application's
//! post-recv processing.
//!
//! IO modes implement the paper's baselines: plain syscalls, Copier,
//! zero-copy send (`MSG_ZEROCOPY`-style pinning with completion
//! notifications), and Userspace Bypass (trap elision with an
//! instrumentation tax on buffer access).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use copier_client::{sync_copy, AmemcpyOpts};
use copier_core::{Handler, SegDescriptor};
use copier_hw::CpuCopyKind;
use copier_mem::{FrameId, MemError, Prot, VirtAddr, PAGE_SIZE};
use copier_sim::{Core, Nanos, Notify};

use crate::process::{Os, Process};

/// Per-packet protocol processing (TCP/IP headers, socket bookkeeping).
pub const NET_PROC: Nanos = Nanos(500);
/// Loopback wire + NIC latency per packet.
pub const WIRE_DELAY: Nanos = Nanos(1500);
/// Zero-copy send fixed setup (pinning bookkeeping, opt-in checks).
pub const ZC_SETUP: Nanos = Nanos(900);
/// Userspace Bypass dispatch cost (replaces the trap).
pub const UB_ENTRY: Nanos = Nanos(80);

/// What a `send_opts` produced, for completion observation.
pub enum SendHandle {
    /// Synchronous path: nothing to wait for.
    Plain,
    /// Copier path: the kernel copy's descriptor (all-ready ⇒ transmitted
    /// payload fully assembled).
    Copier(Rc<SegDescriptor>),
    /// Zero-copy path: pinned-page completion.
    Zc(Rc<ZcCompletion>),
}

impl SendHandle {
    /// The Copier descriptor, if any.
    pub fn descriptor(&self) -> Option<Rc<SegDescriptor>> {
        match self {
            SendHandle::Copier(d) => Some(Rc::clone(d)),
            _ => None,
        }
    }
}

/// How a syscall's data path is implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMode {
    /// Normal blocking syscall with a synchronous kernel (ERMS) copy.
    Sync,
    /// Copier-Linux: the kernel submits an async Copy Task (§5.2).
    Copier,
    /// Linux zero-copy send (page pinning + completion queue).
    ZeroCopy,
    /// Userspace Bypass: no trap, but instrumented (slower) buffer access.
    Ub,
}

/// A kernel packet buffer backed by physically contiguous frames.
pub struct Skb {
    /// Kernel virtual address of the payload.
    pub kva: VirtAddr,
    /// Payload length.
    pub len: usize,
    /// Progress descriptor when the payload is being written by Copier;
    /// the NIC/receiver must wait for it before touching the data.
    pub descr: RefCell<Option<Rc<SegDescriptor>>>,
    /// Frames pinned from user space (zero-copy send).
    pub user_pins: RefCell<Vec<FrameId>>,
    /// Completion notify for zero-copy reclaim.
    pub zc_done: Rc<ZcCompletion>,
}

/// Zero-copy completion state (the `MSG_ZEROCOPY` error-queue stand-in).
#[derive(Default)]
pub struct ZcCompletion {
    done: Cell<bool>,
    notify: Notify,
}

impl ZcCompletion {
    /// Whether the NIC has finished with the pinned pages.
    #[cfg(test)]
    pub(crate) fn is_done(&self) -> bool {
        self.done.get()
    }

    /// Waits for reclaim (the app's buffer is reusable afterwards).
    pub async fn wait(&self) {
        if !self.done.get() {
            self.notify.notified().await;
        }
    }
}

/// One endpoint of a connected socket pair.
pub struct Socket {
    /// Socket id (diagnostics).
    pub id: u32,
    rx: RefCell<VecDeque<Rc<Skb>>>,
    rx_notify: Notify,
    peer: RefCell<Option<Rc<Socket>>>,
}

impl Socket {
    /// Queued receive messages.
    pub fn rx_depth(&self) -> usize {
        self.rx.borrow().len()
    }
}

/// The network stack.
pub struct NetStack {
    os: Rc<Os>,
    next_sock: Cell<u32>,
}

impl NetStack {
    /// Creates the stack for an OS instance.
    pub fn new(os: &Rc<Os>) -> Rc<Self> {
        Rc::new(NetStack {
            os: Rc::clone(os),
            next_sock: Cell::new(1),
        })
    }

    /// Creates a connected socket pair (loopback).
    pub fn socket_pair(&self) -> (Rc<Socket>, Rc<Socket>) {
        let mk = |id| {
            Rc::new(Socket {
                id,
                rx: RefCell::new(VecDeque::new()),
                rx_notify: Notify::new(),
                peer: RefCell::new(None),
            })
        };
        let a = mk(self.next_sock.get());
        let b = mk(self.next_sock.get() + 1);
        self.next_sock.set(self.next_sock.get() + 2);
        *a.peer.borrow_mut() = Some(Rc::clone(&b));
        *b.peer.borrow_mut() = Some(Rc::clone(&a));
        (a, b)
    }

    fn alloc_skb(&self, len: usize) -> Result<Rc<Skb>, MemError> {
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let first = self.os.pm.alloc_contiguous(pages)?;
        let frames: Vec<FrameId> = (0..pages).map(|i| FrameId(first.0 + i as u32)).collect();
        let kva = self.os.kspace.map_shared(&frames, Prot::RW)?;
        // map_shared increfs; drop our allocation reference so the kernel
        // mapping is the sole owner.
        for &f in &frames {
            self.os.pm.decref(f);
        }
        Ok(Rc::new(Skb {
            kva,
            len,
            descr: RefCell::new(None),
            user_pins: RefCell::new(Vec::new()),
            zc_done: Rc::new(ZcCompletion::default()),
        }))
    }

    fn free_skb(&self, skb: &Skb) {
        let pages = skb.len.div_ceil(PAGE_SIZE).max(1);
        let kspace = Rc::clone(&self.os.kspace);
        let kva = skb.kva;
        match kspace.munmap(kva, pages * PAGE_SIZE) {
            Err(MemError::Pinned(_)) => {
                // Another in-flight copy (e.g. an absorption layer reading
                // this skb as its short-circuit source) still pins the
                // frames; Copier locks mappings until copies complete
                // (§4.5.4), so reclaim waits it out asynchronously.
                let h = self.os.h.clone();
                let h2 = h.clone();
                h.spawn("skb-reaper", async move {
                    loop {
                        h2.sleep(Nanos(500)).await;
                        match kspace.munmap(kva, pages * PAGE_SIZE) {
                            Err(MemError::Pinned(_)) => continue,
                            r => {
                                // Freed once, by its owner: only a pin refuses.
                                r.expect("skb unmap");
                                return;
                            }
                        }
                    }
                });
            }
            // Freed once, by its owner: only a pin refuses.
            r => r.expect("skb unmap"),
        }
    }

    /// Transmits an skb to the peer: waits for any in-flight Copier write
    /// (the driver's csync point), then delivers after the wire delay.
    fn transmit(self: &Rc<Self>, sock: &Rc<Socket>, skb: Rc<Skb>) {
        let peer = sock.peer.borrow().as_ref().cloned().expect("connected");
        let h = self.os.h.clone();
        let me = Rc::clone(self);
        self.os.h.spawn("nic-tx", async move {
            // Driver sync point: the payload must be complete before the
            // packet enters the TX queue (§5.2 send()).
            let descr = skb.descr.borrow().clone();
            if let Some(d) = descr {
                while !d.all_ready() {
                    if d.fault().is_some() {
                        // Dropped packet on a faulted copy: nothing will
                        // transmit this skb, so it is freed here.
                        me.free_skb(&skb);
                        return;
                    }
                    h.sleep(Nanos(200)).await;
                }
            }
            h.sleep(WIRE_DELAY).await;
            // Zero-copy: the NIC serializes the pinned user pages onto the
            // wire itself (device DMA — no CPU charged), after which the
            // pages are released and the completion is queued — also when
            // no contiguous receive skb can be had and the packet is dropped,
            // as Linux completes MSG_ZEROCOPY sends of dropped packets.
            let pins: Vec<FrameId> = skb.user_pins.borrow_mut().drain(..).collect();
            let out = if pins.is_empty() {
                skb
            } else {
                let fresh = me.alloc_skb(skb.len).ok();
                if let Some(fresh) = &fresh {
                    let mut done = 0usize;
                    while done < skb.len {
                        let take = (skb.len - done).min(PAGE_SIZE);
                        // `alloc_skb` mapped every page of `fresh` just above.
                        let (df, _) = me
                            .os
                            .kspace
                            .resolve(fresh.kva.add(done), true)
                            .expect("fresh skb mapped");
                        me.os.pm.copy(
                            df,
                            fresh.kva.add(done).page_off(),
                            pins[done / PAGE_SIZE],
                            0,
                            take,
                        );
                        done += take;
                    }
                }
                for f in pins {
                    me.os.pm.unpin(f);
                }
                skb.zc_done.done.set(true);
                skb.zc_done.notify.notify_all();
                let Some(fresh) = fresh else {
                    return;
                };
                fresh
            };
            peer.rx.borrow_mut().push_back(out);
            peer.rx_notify.notify_one();
        });
    }

    /// `send(sock, [va, va+len))` under the given mode.
    ///
    /// Returns a zero-copy completion handle when applicable.
    pub async fn send(
        self: &Rc<Self>,
        core: &Rc<Core>,
        proc: &Rc<Process>,
        sock: &Rc<Socket>,
        va: VirtAddr,
        len: usize,
        mode: IoMode,
    ) -> Result<Option<Rc<ZcCompletion>>, MemError> {
        match self.send_opts(core, proc, sock, va, len, mode, 0).await? {
            SendHandle::Zc(z) => Ok(Some(z)),
            _ => Ok(None),
        }
    }

    /// `send` with an explicit Copier queue-set `fd` (per-thread queues);
    /// returns the copy descriptor in Copier mode so callers can observe
    /// transmit completion.
    #[allow(clippy::too_many_arguments)]
    pub async fn send_opts(
        self: &Rc<Self>,
        core: &Rc<Core>,
        proc: &Rc<Process>,
        sock: &Rc<Socket>,
        va: VirtAddr,
        len: usize,
        mode: IoMode,
        fd: usize,
    ) -> Result<SendHandle, MemError> {
        match mode {
            IoMode::Sync | IoMode::Ub => {
                if mode == IoMode::Sync {
                    self.os.trap(core).await;
                } else {
                    core.advance(UB_ENTRY).await;
                }
                let skb = self.alloc_skb(len)?;
                sync_copy(
                    core,
                    &self.os.cost,
                    CpuCopyKind::Erms,
                    &self.os.kspace,
                    skb.kva,
                    &proc.space,
                    va,
                    len,
                )
                .await
                .inspect_err(|_| self.free_skb(&skb))?;
                if mode == IoMode::Ub {
                    // Instrumented user-buffer access tax.
                    let tax = self
                        .os
                        .cost
                        .cpu_copy(CpuCopyKind::Erms, len)
                        .mul_f64(self.os.cost.ub_access_tax);
                    core.advance(tax).await;
                }
                core.advance(NET_PROC).await;
                self.transmit(sock, skb);
                Ok(SendHandle::Plain)
            }
            IoMode::Copier => {
                self.os.trap(core).await;
                let skb = self.alloc_skb(len)?;
                let opts = AmemcpyOpts {
                    fd,
                    dst_space: Some(Rc::clone(&self.os.kspace)),
                    ..Default::default()
                };
                // Overloaded: the send degrades to the synchronous kernel
                // copy (§4.6) — the packet still goes out.
                let lib = proc.lib();
                let copied = lib.kernel_amemcpy_or_copy(core, skb.kva, va, len, opts);
                let Some(d) = copied.await.inspect_err(|_| self.free_skb(&skb))? else {
                    core.advance(NET_PROC).await;
                    self.transmit(sock, skb);
                    return Ok(SendHandle::Plain);
                };
                *skb.descr.borrow_mut() = Some(Rc::clone(&d));
                // Checksum offloaded: protocol layers use metadata only,
                // overlapping with the copy.
                core.advance(NET_PROC).await;
                self.transmit(sock, skb);
                Ok(SendHandle::Copier(d))
            }
            IoMode::ZeroCopy => {
                self.os.trap(core).await;
                // Alignment constraint of remap/pin-based zero-copy.
                if !va.is_page_aligned() {
                    // Linux falls back to a normal copy in this case; we
                    // model the documented behavior.
                    let r =
                        Box::pin(self.send_opts(core, proc, sock, va, len, IoMode::Sync, fd)).await;
                    return r;
                }
                core.advance(ZC_SETUP).await;
                let (extents, work) = proc.space.resolve_range(va, len, false)?;
                let frames = proc.space.pin_extents(&extents);
                core.advance(Nanos(
                    self.os.cost.pte_walk.as_nanos() * frames.len() as u64
                        + self.os.cost.page_fault.as_nanos()
                            * (work.demand_zero + work.cow_copy) as u64,
                ))
                .await;
                // CoW-protect the pages against modification: TLB shootdown.
                core.advance(self.os.cost.tlb_shootdown).await;
                let skb = Rc::new(Skb {
                    kva: VirtAddr(0), // payload lives in the pinned frames
                    len,
                    descr: RefCell::new(None),
                    user_pins: RefCell::new(frames),
                    zc_done: Rc::new(ZcCompletion::default()),
                });
                core.advance(NET_PROC).await;
                let done = Rc::clone(&skb.zc_done);
                self.transmit(sock, skb);
                Ok(SendHandle::Zc(done))
            }
        }
    }

    /// Blocks until a message is queued, then receives it into
    /// `[va, va+cap)` under the given mode.
    ///
    /// Datagram semantics: a message longer than `cap` is truncated to
    /// `cap` and the remainder discarded (size your buffers to the
    /// protocol's maximum, as the applications here do).
    ///
    /// Returns the message length and, in Copier mode, its descriptor
    /// (also registered with the process's tracking table so plain
    /// `csync(addr, len)` works).
    pub async fn recv(
        self: &Rc<Self>,
        core: &Rc<Core>,
        proc: &Rc<Process>,
        sock: &Rc<Socket>,
        va: VirtAddr,
        cap: usize,
        mode: IoMode,
    ) -> Result<(usize, Option<Rc<SegDescriptor>>), MemError> {
        self.recv_opts(core, proc, sock, va, cap, mode, false, 0)
            .await
    }

    /// `recv` with an explicit queue-set `fd` and a `lazy` flag marking
    /// the kernel copy a mediator-only Lazy Task (§4.4, the proxy case).
    #[allow(clippy::too_many_arguments)]
    pub async fn recv_opts(
        self: &Rc<Self>,
        core: &Rc<Core>,
        proc: &Rc<Process>,
        sock: &Rc<Socket>,
        va: VirtAddr,
        cap: usize,
        mode: IoMode,
        lazy: bool,
        fd: usize,
    ) -> Result<(usize, Option<Rc<SegDescriptor>>), MemError> {
        // Trap first (entering the syscall), then wait for data (blocking
        // costs a context switch when the queue is empty). A zero-copy recv
        // is a `Sync` one: the paper does not evaluate it (header-data-split
        // NICs required), so it takes the copy path, as an unaligned
        // zero-copy send does.
        match mode {
            IoMode::Sync | IoMode::Copier | IoMode::ZeroCopy => self.os.trap(core).await,
            IoMode::Ub => core.advance(UB_ENTRY).await,
        }
        loop {
            if !sock.rx.borrow().is_empty() {
                break;
            }
            self.os.context_switch(core).await;
            sock.rx_notify.notified().await;
        }
        let skb = sock.rx.borrow_mut().pop_front().expect("non-empty");
        let len = skb.len.min(cap);
        match mode {
            IoMode::Sync | IoMode::Ub | IoMode::ZeroCopy => {
                core.advance(NET_PROC).await;
                sync_copy(
                    core,
                    &self.os.cost,
                    CpuCopyKind::Erms,
                    &proc.space,
                    va,
                    &self.os.kspace,
                    skb.kva,
                    len,
                )
                .await
                .inspect_err(|_| self.free_skb(&skb))?;
                if mode == IoMode::Ub {
                    let tax = self
                        .os
                        .cost
                        .cpu_copy(CpuCopyKind::Erms, len)
                        .mul_f64(self.os.cost.ub_access_tax);
                    core.advance(tax).await;
                }
                self.free_skb(&skb);
                Ok((len, None))
            }
            IoMode::Copier => {
                core.advance(NET_PROC).await;
                let lib = proc.lib();
                let me = Rc::clone(self);
                let skb2 = Rc::clone(&skb);
                // KFUNC: reclaim the socket buffer once the copy is done
                // (§5.2 recv()).
                let kfunc = Handler::KFunc(Rc::new(move || {
                    me.free_skb(&skb2);
                }));
                let opts = AmemcpyOpts {
                    fd,
                    func: Some(kfunc),
                    lazy,
                    src_space: Some(Rc::clone(&self.os.kspace)),
                    ..Default::default()
                };
                // Overloaded: delivered synchronously (§4.6). The KFUNC
                // never runs then — the skb is freed here instead.
                let copied = lib.kernel_amemcpy_or_copy(core, va, skb.kva, len, opts);
                let d = copied.await.inspect_err(|_| self.free_skb(&skb))?;
                if d.is_none() {
                    self.free_skb(&skb);
                }
                Ok((len, d))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim};

    fn setup(cores: usize, with_copier: bool) -> (Sim, Rc<Os>, Rc<NetStack>) {
        let sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, cores);
        let os = Os::boot(&h, machine, 4096);
        if with_copier {
            let core = os.machine.core(cores - 1);
            os.install_copier(vec![core], Default::default());
        }
        let net = NetStack::new(&os);
        (sim, os, net)
    }

    #[test]
    fn sync_send_recv_roundtrip() {
        let (mut sim, os, net) = setup(1, false);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, b) = net.socket_pair();
        let os2 = Rc::clone(&os);
        sim.spawn("t", async move {
            let tx = p.space.mmap(8192, Prot::RW, true).unwrap();
            let rx = p.space.mmap(8192, Prot::RW, true).unwrap();
            let data: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
            p.space.write_bytes(tx, &data).unwrap();
            net.send(&core, &p, &a, tx, 5000, IoMode::Sync)
                .await
                .unwrap();
            let (n, d) = net
                .recv(&core, &p, &b, rx, 8192, IoMode::Sync)
                .await
                .unwrap();
            assert_eq!(n, 5000);
            assert!(d.is_none());
            let mut out = vec![0u8; 5000];
            p.space.read_bytes(rx, &mut out).unwrap();
            assert_eq!(out, data);
            let _ = os2; // keep the OS alive through the test body
        });
        sim.run();
    }

    #[test]
    fn copier_send_recv_roundtrip_with_csync() {
        let (mut sim, os, net) = setup(2, true);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, b) = net.socket_pair();
        let svc = os.copier();
        sim.spawn("t", async move {
            let lib = p.lib();
            let tx = p.space.mmap(16 * 1024, Prot::RW, true).unwrap();
            let rx = p.space.mmap(16 * 1024, Prot::RW, true).unwrap();
            let data: Vec<u8> = (0..16 * 1024).map(|i| (i % 239) as u8).collect();
            p.space.write_bytes(tx, &data).unwrap();
            net.send(&core, &p, &a, tx, 16 * 1024, IoMode::Copier)
                .await
                .unwrap();
            let (n, d) = net
                .recv(&core, &p, &b, rx, 16 * 1024, IoMode::Copier)
                .await
                .unwrap();
            assert_eq!(n, 16 * 1024);
            assert!(d.is_some());
            // The app syncs before use — plain csync finds the kernel task.
            lib.csync(&core, rx, n).await.unwrap();
            let mut out = vec![0u8; n];
            p.space.read_bytes(rx, &mut out).unwrap();
            assert_eq!(out, data);
            // Let the KFUNC reclaim run.
            lib.csync_all(&core).await.unwrap();
            svc.stop();
        });
        sim.run();
        // skb unmapped by the KFUNC: only the tx/rx user pages remain.
        assert_eq!(os.kspace.mapped_pages(), 0);
    }

    #[test]
    fn copier_send_returns_before_copy_done() {
        let (mut sim, os, net) = setup(2, true);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, b) = net.socket_pair();
        let svc = os.copier();
        let h = sim.handle();
        let cost = Rc::clone(&os.cost);
        sim.spawn("t", async move {
            let len = 64 * 1024;
            let tx = p.space.mmap(len, Prot::RW, true).unwrap();
            p.space.write_bytes(tx, &vec![7u8; len]).unwrap();
            let t0 = h.now();
            net.send(&core, &p, &a, tx, len, IoMode::Copier)
                .await
                .unwrap();
            let t_send = h.now() - t0;
            // The send syscall must return well before an ERMS copy of the
            // payload would even finish.
            assert!(t_send < cost.cpu_copy(CpuCopyKind::Erms, len));
            // And the data still arrives intact.
            let p2 = Rc::clone(&p);
            let rx = p2.space.mmap(len, Prot::RW, true).unwrap();
            let (n, _) = net
                .recv(&core, &p, &b, rx, len, IoMode::Sync)
                .await
                .unwrap();
            assert_eq!(n, len);
            let mut out = vec![0u8; len];
            p.space.read_bytes(rx, &mut out).unwrap();
            assert!(out.iter().all(|&x| x == 7));
            svc.stop();
        });
        sim.run();
    }

    /// A Copier send from an unmapped buffer faults its kernel copy; the
    /// packet is dropped, and its skb is unmapped all the same.
    #[test]
    fn faulted_copier_send_frees_its_skb() {
        let (mut sim, os, net) = setup(2, true);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, _b) = net.socket_pair();
        let svc = os.copier();
        sim.spawn("t", async move {
            let unmapped = VirtAddr(0x7000_0000);
            let sent = net.send(&core, &p, &a, unmapped, 8 * 1024, IoMode::Copier);
            sent.await.expect("the send queues a kernel copy");
            assert!(p.lib().csync_all(&core).await.is_err());
            svc.stop();
        });
        sim.run();
        assert_eq!(os.kspace.mapped_pages(), 0);
    }

    /// A synchronous send from an unmapped buffer fails its copy into the
    /// skb; the skb is unmapped all the same.
    #[test]
    fn failed_sync_send_frees_its_skb() {
        let (mut sim, os, net) = setup(1, false);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, _b) = net.socket_pair();
        sim.spawn("t", async move {
            let unmapped = VirtAddr(0x7000_0000);
            let sent = net.send(&core, &p, &a, unmapped, 8 * 1024, IoMode::Sync);
            assert!(sent.await.is_err());
        });
        sim.run();
        assert_eq!(os.kspace.mapped_pages(), 0);
    }

    /// A receive into an unmapped buffer fails its copy out of the skb; the
    /// message is dropped and its skb unmapped.
    #[test]
    fn failed_sync_recv_frees_its_skb() {
        let (mut sim, os, net) = setup(1, false);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, b) = net.socket_pair();
        sim.spawn("t", async move {
            let tx = p.space.mmap(8 * 1024, Prot::RW, true).unwrap();
            net.send(&core, &p, &a, tx, 8 * 1024, IoMode::Sync)
                .await
                .unwrap();
            let unmapped = VirtAddr(0x7000_0000);
            let got = net.recv(&core, &p, &b, unmapped, 8 * 1024, IoMode::Sync);
            assert!(got.await.is_err());
        });
        sim.run();
        assert_eq!(os.kspace.mapped_pages(), 0);
    }

    /// A zero-copy recv takes the `Sync` path: the same bytes land in the
    /// same virtual time.
    #[test]
    fn zerocopy_recv_behaves_as_sync() {
        fn recv_with(mode: IoMode) -> (Vec<u8>, Nanos) {
            let (mut sim, os, net) = setup(1, false);
            let core = os.machine.core(0);
            let p = os.spawn_process();
            let (a, b) = net.socket_pair();
            let h = sim.handle();
            let out = Rc::new(RefCell::new((Vec::new(), Nanos::ZERO)));
            let out2 = Rc::clone(&out);
            sim.spawn("t", async move {
                let tx = p.space.mmap(3 * PAGE_SIZE, Prot::RW, true).unwrap();
                let rx = p.space.mmap(3 * PAGE_SIZE, Prot::RW, true).unwrap();
                let data: Vec<u8> = (0..9000).map(|i| (i % 233) as u8).collect();
                p.space.write_bytes(tx, &data).unwrap();
                net.send(&core, &p, &a, tx, data.len(), IoMode::Sync)
                    .await
                    .unwrap();
                let t0 = h.now();
                let (n, d) = net
                    .recv(&core, &p, &b, rx, 3 * PAGE_SIZE, mode)
                    .await
                    .unwrap();
                assert!(d.is_none());
                let mut got = vec![0u8; n];
                p.space.read_bytes(rx, &mut got).unwrap();
                *out2.borrow_mut() = (got, h.now() - t0);
            });
            sim.run();
            out.take()
        }
        let sync = recv_with(IoMode::Sync);
        assert_eq!(sync.0.len(), 9000);
        assert_eq!(recv_with(IoMode::ZeroCopy), sync);
    }

    #[test]
    fn zerocopy_send_pins_and_completes() {
        let (mut sim, os, net) = setup(1, false);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, b) = net.socket_pair();
        sim.spawn("t", async move {
            let len = 32 * 1024;
            let tx = p.space.mmap(len, Prot::RW, true).unwrap();
            assert!(tx.is_page_aligned());
            p.space.write_bytes(tx, &vec![9u8; len]).unwrap();
            let done = net
                .send(&core, &p, &a, tx, len, IoMode::ZeroCopy)
                .await
                .unwrap()
                .expect("zc completion");
            assert!(!done.is_done(), "pages pinned until NIC finishes");
            let rx = p.space.mmap(len, Prot::RW, true).unwrap();
            let (n, _) = net
                .recv(&core, &p, &b, rx, len, IoMode::Sync)
                .await
                .unwrap();
            assert_eq!(n, len);
            done.wait().await;
            assert!(done.is_done());
        });
        sim.run();
    }

    /// What a zero-copy send charges for pinning its pages: one walk per
    /// page and one fault per page it had to back. Pages not yet touched
    /// fault in demand-zero; a CoW-shared page is only read, so it stays
    /// shared and costs a walk.
    #[test]
    fn zerocopy_send_charges_a_walk_per_page_and_a_fault_per_backed_page() {
        let (mut sim, os, net) = setup(1, false);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, _b) = net.socket_pair();
        let h = sim.handle();
        let cost = Rc::clone(&os.cost);
        let pm = Rc::clone(&os.pm);
        let len = 6 * PAGE_SIZE;
        let tx = p.space.mmap(len, Prot::RW, false).unwrap();
        p.space.write_bytes(tx, &[1u8; 2 * PAGE_SIZE]).unwrap();
        let _child = p.space.fork(99).unwrap();
        let took = Rc::new(Cell::new(Nanos::ZERO));
        let took2 = Rc::clone(&took);
        sim.spawn("t", async move {
            let t0 = h.now();
            net.send(&core, &p, &a, tx, len, IoMode::ZeroCopy)
                .await
                .unwrap();
            took2.set(h.now() - t0);
            assert_eq!(pm.pinned_frames(), 6);
            assert_eq!(p.space.fault_stats().demand_zero, 2 + 4);
        });
        sim.run();
        let walks = Nanos(cost.pte_walk.as_nanos() * 6);
        let faults = Nanos(cost.page_fault.as_nanos() * 4);
        let expected = cost.syscall + ZC_SETUP + walks + faults + cost.tlb_shootdown + NET_PROC;
        assert_eq!(took.get(), expected);
    }

    /// A zero-copy send whose receive-side skb finds no contiguous run in
    /// a fragmented pool is a dropped packet, not a kernel panic: the user
    /// pages are unpinned and the completion still arrives.
    #[test]
    fn zerocopy_send_on_a_fragmented_pool_drops_and_completes() {
        let (mut sim, os, net) = setup(1, false);
        let core = os.machine.core(0);
        let p = os.spawn_process();
        let (a, b) = net.socket_pair();
        let len = 4 * PAGE_SIZE;
        let tx = p.space.mmap(len, Prot::RW, true).unwrap();
        // Take what is left of the pool and give back every other frame by
        // id: no two free frames are adjacent.
        let mut held = Vec::new();
        while let Ok(f) = os.pm.alloc() {
            held.push(f);
        }
        held.sort_by_key(|f| f.0);
        held.iter().step_by(2).for_each(|&f| os.pm.decref(f));
        sim.spawn("t", async move {
            let done = net
                .send(&core, &p, &a, tx, len, IoMode::ZeroCopy)
                .await
                .unwrap()
                .expect("zc completion");
            done.wait().await;
            assert!(done.is_done());
            assert_eq!(b.rx_depth(), 0, "the packet was dropped");
        });
        sim.run();
        assert_eq!(os.pm.pinned_frames(), 0, "user pages still pinned");
    }

    #[test]
    fn ub_mode_skips_trap_but_taxes_access() {
        // For small messages UB wins (trap dominates); for large ones the
        // instrumentation tax overtakes the saved trap — the paper's
        // observed diminishing returns.
        fn latency(len: usize, mode: IoMode) -> Nanos {
            let (mut sim, os, net) = setup(1, false);
            let core = os.machine.core(0);
            let p = os.spawn_process();
            let (a, _b) = net.socket_pair();
            let h = sim.handle();
            let out = Rc::new(Cell::new(Nanos::ZERO));
            let out2 = Rc::clone(&out);
            sim.spawn("t", async move {
                let tx = p.space.mmap(len.max(4096), Prot::RW, true).unwrap();
                p.space.write_bytes(tx, &vec![1u8; len]).unwrap();
                let t0 = h.now();
                net.send(&core, &p, &a, tx, len, mode).await.unwrap();
                out2.set(h.now() - t0);
            });
            sim.run();
            out.get()
        }
        assert!(latency(256, IoMode::Ub) < latency(256, IoMode::Sync));
        assert!(latency(64 * 1024, IoMode::Ub) > latency(64 * 1024, IoMode::Sync));
    }
}
