//! Android-style Binder IPC with Parcel (§5.2, §6.1.2).
//!
//! Binder's two-step transfer: the client's message is copied by the
//! Binder driver into a kernel buffer, which the server has mapped
//! read-only into its address space (so the "second copy" is free). The
//! Copy-Use window spans the driver's bookkeeping, the server-thread
//! wakeup, and the server's incremental Parcel reads — with Copier, the
//! driver submits an async Copy Task whose descriptor travels at the
//! front of the message (shm descriptor binding), and `Parcel` issues
//! `_csync` before each typed read. Apps above Parcel need no changes.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use copier_client::AmemcpyOpts;
use copier_core::SegDescriptor;
use copier_hw::CpuCopyKind;
use copier_mem::{FrameId, MemError, Prot, VirtAddr, PAGE_SIZE};
use copier_sim::{Core, Nanos, Notify};

use crate::net::IoMode;
use crate::process::{Os, Process};

/// Driver-side bookkeeping per transaction (queue + thread scheduling).
pub const BINDER_DRIVER_WORK: Nanos = Nanos(2500);

/// A message delivered to the server.
pub struct BinderMessage {
    /// Offset of the payload within the server's mapped receive window.
    pub offset: usize,
    /// Payload length.
    pub len: usize,
    /// Copy descriptor (present when the driver used Copier); bound to the
    /// shared memory per `shm_descr_bind`.
    pub descr: Option<Rc<SegDescriptor>>,
}

/// One direction of a Binder connection.
pub struct BinderChannel {
    os: Rc<Os>,
    /// Kernel VA of the transaction buffer.
    pub kbuf: VirtAddr,
    /// The same buffer mapped into the server (read-only).
    pub server_window: VirtAddr,
    /// The server process.
    pub server: Rc<Process>,
    cap: usize,
    cursor: std::cell::Cell<usize>,
    queue: RefCell<VecDeque<BinderMessage>>,
    notify: Notify,
}

impl BinderChannel {
    /// Creates a channel with a `cap`-byte kernel transaction buffer
    /// mapped into `server`.
    pub fn new(os: &Rc<Os>, server: &Rc<Process>, cap: usize) -> Result<Rc<Self>, MemError> {
        let pages = cap.div_ceil(PAGE_SIZE);
        let first = os.pm.alloc_contiguous(pages)?;
        let frames: Vec<FrameId> = (0..pages).map(|i| FrameId(first.0 + i as u32)).collect();
        let kbuf = os.kspace.map_shared(&frames, Prot::RW)?;
        let server_window = server.space.map_shared(&frames, Prot::RO)?;
        for &f in &frames {
            os.pm.decref(f);
        }
        Ok(Rc::new(BinderChannel {
            os: Rc::clone(os),
            kbuf,
            server_window,
            server: Rc::clone(server),
            cap,
            cursor: std::cell::Cell::new(0),
            queue: RefCell::new(VecDeque::new()),
            notify: Notify::new(),
        }))
    }

    /// Client-side transaction: copies `[va, va+len)` into the kernel
    /// buffer (sync or via Copier) and queues a message for the server.
    pub async fn transact(
        self: &Rc<Self>,
        core: &Rc<Core>,
        client: &Rc<Process>,
        va: VirtAddr,
        len: usize,
        mode: IoMode,
    ) -> Result<(), MemError> {
        assert!(len <= self.cap, "transaction exceeds binder buffer");
        self.os.trap(core).await;
        // Simple bump allocation within the transaction buffer.
        let offset = if self.cursor.get() + len <= self.cap {
            self.cursor.get()
        } else {
            0
        };
        self.cursor.set(offset + len);
        let dst = self.kbuf.add(offset);
        let mut submitted = None;
        if mode == IoMode::Copier {
            let opts = AmemcpyOpts {
                dst_space: Some(Rc::clone(&self.os.kspace)),
                ..Default::default()
            };
            // Overload falls through to the synchronous path below — the
            // transaction still happens, just without async offload
            // (§4.6 break-even fallback).
            submitted = client
                .lib()
                .kernel_amemcpy(core, dst, va, len, opts)
                .await
                .ok();
        }
        let descr = match submitted {
            Some(d) => Some(d),
            None => {
                copier_client::sync_copy(
                    core,
                    &self.os.cost,
                    CpuCopyKind::Erms,
                    &self.os.kspace,
                    dst,
                    &client.space,
                    va,
                    len,
                )
                .await?;
                None
            }
        };
        // Driver bookkeeping + server thread scheduling overlap the copy.
        core.advance(BINDER_DRIVER_WORK).await;
        self.queue
            .borrow_mut()
            .push_back(BinderMessage { offset, len, descr });
        self.notify.notify_one();
        Ok(())
    }

    /// Server-side: waits for the next message.
    pub async fn next_message(self: &Rc<Self>, core: &Rc<Core>) -> BinderMessage {
        loop {
            if let Some(m) = self.queue.borrow_mut().pop_front() {
                return m;
            }
            self.os.context_switch(core).await;
            self.notify.notified().await;
        }
    }

    /// Opens a Parcel over a received message (server side).
    pub fn parcel<'a>(self: &Rc<Self>, msg: &'a BinderMessage) -> Parcel<'a> {
        Parcel {
            chan: Rc::clone(self),
            msg,
            pos: 0,
        }
    }
}

/// Typed reader over a Binder message (the Android `Parcel` shape).
///
/// Every read `_csync`s the range first when the message carries a
/// descriptor — apps above Parcel benefit without modification (§5.2).
pub struct Parcel<'a> {
    chan: Rc<BinderChannel>,
    msg: &'a BinderMessage,
    pos: usize,
}

impl Parcel<'_> {
    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.msg.len - self.pos
    }

    async fn ensure(&self, core: &Rc<Core>, len: usize) {
        if let Some(d) = &self.msg.descr {
            // The descriptor is bound to the shared window; wait until the
            // segments covering [pos, pos+len) are ready.
            let lib = self.chan.server.lib();
            lib._csync(
                core,
                d,
                self.pos,
                len,
                crate::process::KERNEL_AS,
                self.chan.kbuf.add(self.msg.offset + self.pos),
                0,
            )
            .await
            .expect("binder copy faulted");
        }
    }

    /// Reads `len` raw bytes through the server's read-only window.
    pub async fn read_bytes(&mut self, core: &Rc<Core>, buf: &mut [u8]) {
        self.ensure(core, buf.len()).await;
        let va = self.chan.server_window.add(self.msg.offset + self.pos);
        self.chan
            .server
            .space
            .read_bytes(va, buf)
            .expect("window mapped");
        // Typed-read bookkeeping cost (bounds checks, cursor updates).
        core.advance(Nanos(40)).await;
        self.pos += buf.len();
    }

    /// Reads a length-prefixed string written by [`write_string_to`].
    pub async fn read_string(&mut self, core: &Rc<Core>) -> Vec<u8> {
        let mut lenb = [0u8; 4];
        self.read_bytes(core, &mut lenb).await;
        let n = u32::from_le_bytes(lenb) as usize;
        let mut s = vec![0u8; n];
        self.read_bytes(core, &mut s).await;
        s
    }
}

/// Serializes `n` copies of `payload` as length-prefixed strings into a
/// client buffer; returns the total size (client-side Parcel writer).
pub fn write_strings(
    proc: &Rc<Process>,
    va: VirtAddr,
    payload: &[u8],
    n: usize,
) -> Result<usize, MemError> {
    let mut off = 0usize;
    for _ in 0..n {
        proc.space
            .write_bytes(va.add(off), &(payload.len() as u32).to_le_bytes())?;
        off += 4;
        proc.space.write_bytes(va.add(off), payload)?;
        off += payload.len();
    }
    Ok(off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim};

    fn setup(with_copier: bool) -> (Sim, Rc<Os>) {
        let sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 3);
        let os = Os::boot(&h, machine, 8192);
        if with_copier {
            os.install_copier(vec![os.machine.core(2)], Default::default());
        }
        (sim, os)
    }

    fn roundtrip(mode: IoMode, with_copier: bool) -> Nanos {
        let (mut sim, os) = setup(with_copier);
        let client = os.spawn_process();
        let server = os.spawn_process();
        let chan = BinderChannel::new(&os, &server, 1 << 20).unwrap();
        let ccore = os.machine.core(0);
        let score = os.machine.core(1);
        let h = sim.handle();
        let end = Rc::new(std::cell::Cell::new(Nanos::ZERO));

        let chan2 = Rc::clone(&chan);
        let done = Rc::new(Notify::new());
        let done2 = Rc::clone(&done);
        sim.spawn("server", async move {
            let msg = chan2.next_message(&score).await;
            let mut p = chan2.parcel(&msg);
            let mut total = 0;
            while p.remaining() > 0 {
                let s = p.read_string(&score).await;
                assert_eq!(s.len(), 1024);
                assert!(s.iter().all(|&b| b == 0x5a));
                total += 1;
            }
            assert_eq!(total, 16);
            done2.notify_one();
        });

        let os2 = Rc::clone(&os);
        let end2 = Rc::clone(&end);
        sim.spawn("client", async move {
            let buf = client.space.mmap(64 * 1024, Prot::RW, true).unwrap();
            let len = write_strings(&client, buf, &[0x5a; 1024], 16).unwrap();
            let t0 = h.now();
            chan.transact(&ccore, &client, buf, len, mode)
                .await
                .unwrap();
            done.notified().await;
            end2.set(h.now() - t0);
            if let Some(svc) = os2.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        end.get()
    }

    #[test]
    fn binder_sync_roundtrip_delivers_strings() {
        let t = roundtrip(IoMode::Sync, false);
        assert!(t > Nanos::ZERO);
    }

    #[test]
    fn binder_copier_roundtrip_is_faster() {
        let t_sync = roundtrip(IoMode::Sync, false);
        let t_cop = roundtrip(IoMode::Copier, true);
        assert!(t_cop < t_sync, "copier {t_cop} should beat sync {t_sync}");
    }
}
