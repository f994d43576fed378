//! Mini-Redis: a RESP-style key-value server over the simulated netstack.
//!
//! Reproduces the five copies the paper optimizes (§6.2.1):
//! 1. request: kernel → I/O buffer in `recv()`;
//! 2. SET: value from the I/O buffer → the value's buffer;
//! 3. GET: value from the value's buffer → the output buffer;
//! 4. reply: output buffer → kernel in `send()`;
//! 5. internal bookkeeping copies during processing.
//!
//! Each connection's I/O buffer is fixed and reused across its requests
//! — the address recurrence that feeds the ATCache (§4.3) and, under zIO,
//! the CoW faults that erode its elision (§6.2.1).
//!
//! Wire format: `[op u8][klen u32][vlen u32][key][value]`; replies are
//! `[len u32][payload]`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use copier_baselines::Zio;
use copier_client::{sync_memcpy, AmemcpyOpts};
use copier_core::SegDescriptor;
use copier_mem::{MemError, Prot, VirtAddr};
use copier_os::{IoMode, NetStack, Os, Process, Socket};
use copier_sim::{Again, Core, Nanos, SimRng};

/// Request parse cost (protocol scan, separators).
pub const PARSE_COST: Nanos = Nanos(250);
/// Hash + table op cost per SET/GET.
pub const TABLE_COST: Nanos = Nanos(300);

/// Which system the server runs on.
#[derive(Clone)]
pub enum RedisMode {
    /// Plain syscalls + synchronous userspace memcpy.
    Baseline,
    /// Copier for all five copies.
    Copier,
    /// zIO interposing on the userspace copies (syscalls stay plain).
    Zio(Rc<Zio>),
    /// Userspace Bypass for the syscalls (userspace copies stay plain).
    Ub,
    /// Linux zero-copy send for replies (everything else plain).
    ZeroCopySend,
}

impl RedisMode {
    fn recv_mode(&self) -> IoMode {
        match self {
            RedisMode::Copier => IoMode::Copier,
            RedisMode::Ub => IoMode::Ub,
            _ => IoMode::Sync,
        }
    }

    fn send_mode(&self) -> IoMode {
        match self {
            RedisMode::Copier => IoMode::Copier,
            RedisMode::Ub => IoMode::Ub,
            RedisMode::ZeroCopySend => IoMode::ZeroCopy,
            _ => IoMode::Sync,
        }
    }
}

/// SET or GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Store a value.
    Set,
    /// Fetch a value.
    Get,
}

struct DbValue {
    va: VirtAddr,
    len: usize,
    cap: usize,
}

/// Deferred cleanup: the guard descriptor to wait on, plus the
/// intermediate copies to abort once it lands.
type PrevCleanup = Option<(Rc<SegDescriptor>, Vec<Rc<SegDescriptor>>)>;

/// One connection's state, as real Redis keeps a query buffer and a reply
/// buffer per client: connections served on one core interleave at every
/// `await`, so nothing a request is parsed from or assembled in may be
/// shared between them. The buffers stay mapped for the life of the
/// server process.
struct Conn {
    io_buf: VirtAddr,
    out_buf: VirtAddr,
    /// Cleanup owed from the previous request (Copier mode): wait for the
    /// guard descriptor, then abort the listed intermediate copies — the
    /// paper's lazy+abort reuse pattern (§4.4, §5.1 low-level APIs).
    prev: PrevCleanup,
    /// Descriptor of the last recv task (abort target on SET).
    last_recv: Option<Rc<SegDescriptor>>,
    /// Descriptor of the pending GET output-mediator copy.
    out_pending: Option<Rc<SegDescriptor>>,
}

/// The server state shared by every connection.
pub struct RedisServer {
    os: Rc<Os>,
    net: Rc<NetStack>,
    /// The server process.
    pub proc: Rc<Process>,
    mode: RedisMode,
    cap: usize,
    db: RefCell<HashMap<Vec<u8>, DbValue>>,
    /// Recycled value buffers by capacity (address recurrence).
    pool: RefCell<Vec<(usize, VirtAddr)>>,
    /// Requests served.
    pub served: std::cell::Cell<u64>,
}

impl RedisServer {
    /// Creates a server process whose connections each get fixed I/O
    /// buffers of `cap` bytes.
    pub fn new(os: &Rc<Os>, net: &Rc<NetStack>, mode: RedisMode, cap: usize) -> Rc<Self> {
        Rc::new(RedisServer {
            os: Rc::clone(os),
            net: Rc::clone(net),
            proc: os.spawn_process(),
            mode,
            cap,
            db: RefCell::new(HashMap::new()),
            pool: RefCell::new(Vec::new()),
            served: std::cell::Cell::new(0),
        })
    }

    fn alloc_value(&self, len: usize) -> Result<VirtAddr, MemError> {
        let mut pool = self.pool.borrow_mut();
        if let Some(i) = pool.iter().position(|&(c, _)| c >= len) {
            return Ok(pool.remove(i).1);
        }
        drop(pool);
        self.proc.space.mmap(len.max(64), Prot::RW, true)
    }

    /// Serves one connection: requests on `sock` until `limit` are handled.
    pub async fn serve(self: &Rc<Self>, core: &Rc<Core>, sock: Rc<Socket>, limit: u64) {
        let mode = self.mode.clone();
        let copier = matches!(mode, RedisMode::Copier);
        let map = |what| self.proc.space.mmap(self.cap, Prot::RW, true).expect(what);
        let mut conn = Conn {
            io_buf: map("query buffer"),
            out_buf: map("reply buffer"),
            prev: None,
            last_recv: None,
            out_pending: None,
        };
        for _ in 0..limit {
            if copier {
                self.cleanup_previous(core, &mut conn).await;
            }
            let (n, descr) = match self
                .net
                .recv_opts(
                    core,
                    &self.proc,
                    &sock,
                    conn.io_buf,
                    self.cap,
                    mode.recv_mode(),
                    copier, // recv copies are mediators: header/key synced, value absorbed
                    0,
                )
                .await
            {
                Ok(r) => r,
                Err(_) => return,
            };
            conn.last_recv = descr;
            self.handle_request(core, &sock, &mut conn, n)
                .await
                .expect("request");
            self.served.set(self.served.get() + 1);
        }
        if copier {
            self.cleanup_previous(core, &mut conn).await;
        }
    }

    /// Waits for the previous request's dependent copy to land, then
    /// aborts the intermediate-buffer obligations so buffer reuse does not
    /// re-materialize absorbed copies.
    async fn cleanup_previous(self: &Rc<Self>, core: &Rc<Core>, conn: &mut Conn) {
        let Some((guard, aborts)) = conn.prev.take() else {
            return;
        };
        let lib = self.proc.lib();
        let landing = move || !guard.all_ready() && guard.fault().is_none();
        if landing() {
            let again: Again = Rc::new(move |_| landing());
            core.spin(Nanos(100), &again).await;
        }
        for d in aborts {
            lib.abort_task(core, &d, 0).await;
        }
    }

    async fn handle_request(
        self: &Rc<Self>,
        core: &Rc<Core>,
        sock: &Rc<Socket>,
        conn: &mut Conn,
        n: usize,
    ) -> Result<(), MemError> {
        let space = &self.proc.space;
        let copier = matches!(self.mode, RedisMode::Copier);
        let lib = copier.then(|| self.proc.lib());

        // Parse the header — with Copier, sync only the bytes used so the
        // value keeps streaming (copy-use pipeline).
        if let Some(lib) = &lib {
            lib.csync(core, conn.io_buf, 9).await.expect("hdr");
        }
        core.advance(PARSE_COST).await;
        let mut hdr = [0u8; 9];
        space.read_bytes(conn.io_buf, &mut hdr)?;
        let op = if hdr[0] == 0 { Op::Set } else { Op::Get };
        let klen = u32::from_le_bytes(hdr[1..5].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(hdr[5..9].try_into().unwrap()) as usize;
        assert_eq!(n, 9 + klen + if op == Op::Set { vlen } else { 0 });

        if let Some(lib) = &lib {
            lib.csync(core, conn.io_buf.add(9), klen)
                .await
                .expect("key");
        }
        let mut key = vec![0u8; klen];
        space.read_bytes(conn.io_buf.add(9), &mut key)?;
        core.advance(TABLE_COST).await;

        match op {
            Op::Set => {
                let src = conn.io_buf.add(9 + klen);
                // Reclaim any previous buffer for this key.
                if let Some(old) = self.db.borrow_mut().remove(&key) {
                    self.pool.borrow_mut().push((old.cap, old.va));
                }
                // Copy 2: I/O buffer → value buffer.
                let dst = match &self.mode {
                    RedisMode::Zio(zio) => {
                        // zIO needs page congruence to elide; give it a
                        // congruent target like its allocator-aware mode.
                        let raw = self.alloc_value(vlen + src.page_off())?;
                        let dst = raw.add(src.page_off());
                        zio.memcpy(core, &self.proc, dst, src, vlen).await?;
                        dst
                    }
                    RedisMode::Copier => {
                        let dst = self.alloc_value(vlen)?;
                        // Absorbs against the pending (lazy) recv() task:
                        // the service short-circuits kernel → value buffer.
                        match lib.as_ref().unwrap().amemcpy(core, dst, src, vlen).await {
                            Ok(d) => {
                                // Once this copy lands, the recv task's value
                                // segments are pure dead weight — abort them
                                // before the I/O buffer is reused.
                                let aborts = conn.last_recv.iter().cloned().collect();
                                conn.prev = Some((d, aborts));
                            }
                            Err(_) => {
                                // Overloaded: materialize the lazy recv bytes,
                                // then copy the value synchronously (§4.6).
                                lib.as_ref()
                                    .unwrap()
                                    .csync(core, src, vlen)
                                    .await
                                    .expect("value");
                                sync_memcpy(core, &self.os.cost, space, dst, src, vlen).await?;
                            }
                        }
                        dst
                    }
                    _ => {
                        let dst = self.alloc_value(vlen)?;
                        sync_memcpy(core, &self.os.cost, space, dst, src, vlen).await?;
                        dst
                    }
                };
                self.db.borrow_mut().insert(
                    key,
                    DbValue {
                        va: dst,
                        len: vlen,
                        cap: vlen,
                    },
                );
                // Reply "+OK".
                space.write_bytes(conn.out_buf, &2u32.to_le_bytes())?;
                space.write_bytes(conn.out_buf.add(4), b"OK")?;
                self.net
                    .send(
                        core,
                        &self.proc,
                        sock,
                        conn.out_buf,
                        6,
                        self.mode.send_mode(),
                    )
                    .await?;
            }
            Op::Get => {
                let (vva, vl) = {
                    let db = self.db.borrow();
                    let v = db.get(&key).expect("key exists");
                    (v.va, v.len)
                };
                space.write_bytes(conn.out_buf, &(vl as u32).to_le_bytes())?;
                // Copy 3: value buffer → output buffer.
                match &self.mode {
                    RedisMode::Zio(zio) => {
                        zio.memcpy(core, &self.proc, conn.out_buf.add(4), vva, vl)
                            .await?;
                    }
                    RedisMode::Copier => {
                        // The send()'s kernel copy will absorb this one —
                        // value buffer → kernel, skipping the output buffer
                        // entirely (lazy: the server never reads it).
                        let od = lib
                            .as_ref()
                            .unwrap()
                            ._amemcpy(
                                core,
                                conn.out_buf.add(4),
                                vva,
                                vl,
                                AmemcpyOpts {
                                    lazy: true,
                                    ..Default::default()
                                },
                            )
                            .await;
                        match od {
                            Ok(od) => conn.out_pending = Some(od),
                            Err(_) => {
                                // Overloaded: no mediator to absorb; produce
                                // the reply bytes synchronously (§4.6).
                                conn.out_pending = None;
                                sync_memcpy(
                                    core,
                                    &self.os.cost,
                                    space,
                                    conn.out_buf.add(4),
                                    vva,
                                    vl,
                                )
                                .await?;
                            }
                        }
                    }
                    _ => {
                        sync_memcpy(core, &self.os.cost, space, conn.out_buf.add(4), vva, vl)
                            .await?;
                    }
                }
                // Copy 4: output buffer → kernel in send().
                let h = self
                    .net
                    .send_opts(
                        core,
                        &self.proc,
                        sock,
                        conn.out_buf,
                        4 + vl,
                        self.mode.send_mode(),
                        0,
                    )
                    .await?;
                if let Some(d) = h.descriptor() {
                    // After the reply is assembled in the kernel, the
                    // value → output-buffer mediator (and the recv task's
                    // remainder) can be discarded.
                    let mut aborts: Vec<Rc<SegDescriptor>> =
                        conn.last_recv.iter().cloned().collect();
                    aborts.extend(conn.out_pending.iter().cloned());
                    conn.prev = Some((d, aborts));
                }
            }
        }
        Ok(())
    }
}

/// One measured request from a closed-loop client.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// End-to-end request latency.
    pub latency: Nanos,
    /// SET or GET.
    pub op: Op,
}

/// Drives `requests` alternating-or-fixed ops from one client; returns
/// per-request samples. The caller spawns one task per closed-loop client.
#[allow(clippy::too_many_arguments)]
pub async fn run_client(
    os: Rc<Os>,
    net: Rc<NetStack>,
    core: Rc<Core>,
    sock: Rc<Socket>,
    op: Op,
    key_id: u32,
    value_len: usize,
    requests: u64,
    rng: Rc<SimRng>,
) -> Vec<Sample> {
    let proc = os.spawn_process();
    let cap = 9 + 16 + value_len + 64;
    let tx = proc.space.mmap(cap, Prot::RW, true).expect("tx");
    let rx = proc.space.mmap(cap, Prot::RW, true).expect("rx");
    let key = format!("key:{key_id:08}");
    let mut samples = Vec::with_capacity(requests as usize);
    // Always seed the key with one SET first.
    let mut value = vec![0u8; value_len];
    rng.fill_bytes(&mut value);
    for i in 0..requests + 1 {
        let this_op = if i == 0 { Op::Set } else { op };
        let req_len = encode_request(&proc, tx, this_op, key.as_bytes(), &value).expect("enc");
        let t0 = os.h.now();
        net.send(&core, &proc, &sock, tx, req_len, IoMode::Sync)
            .await
            .expect("send");
        let (n, _) = net
            .recv(&core, &proc, &sock, rx, cap, IoMode::Sync)
            .await
            .expect("recv");
        let lat = os.h.now() - t0;
        // Verify the reply end to end.
        let mut got = vec![0u8; n - 4];
        proc.space.read_bytes(rx.add(4), &mut got).expect("read");
        match this_op {
            Op::Get => assert_eq!(got, value, "GET returned corrupted data"),
            Op::Set => assert_eq!(got, b"OK", "SET returned a corrupted reply"),
        }
        if i > 0 {
            samples.push(Sample {
                latency: lat,
                op: this_op,
            });
        }
    }
    samples
}

/// Encodes a request into `tx`; returns its length.
pub(crate) fn encode_request(
    proc: &Rc<Process>,
    tx: VirtAddr,
    op: Op,
    key: &[u8],
    value: &[u8],
) -> Result<usize, MemError> {
    let space = &proc.space;
    space.write_bytes(tx, &[if op == Op::Set { 0u8 } else { 1u8 }])?;
    space.write_bytes(tx.add(1), &(key.len() as u32).to_le_bytes())?;
    let vlen = if op == Op::Set { value.len() } else { 0 };
    space.write_bytes(tx.add(5), &(vlen as u32).to_le_bytes())?;
    space.write_bytes(tx.add(9), key)?;
    if op == Op::Set {
        space.write_bytes(tx.add(9 + key.len()), value)?;
    }
    Ok(9 + key.len() + vlen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_sim::{Machine, Sim};

    fn run(mode: RedisMode, with_copier: bool, value_len: usize, reqs: u64) -> (Nanos, u64) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 3);
        let os = Os::boot(&h, machine, 16 * 1024);
        if with_copier {
            os.install_copier(vec![os.machine.core(2)], Default::default());
        }
        let net = NetStack::new(&os);
        let server = RedisServer::new(&os, &net, mode, 512 * 1024);
        let (c_sock, s_sock) = net.socket_pair();
        let score = os.machine.core(1);
        let server2 = Rc::clone(&server);
        sim.spawn("server", async move {
            server2.serve(&score, s_sock, reqs * 2 + 2).await;
        });
        let ccore = os.machine.core(0);
        let os2 = Rc::clone(&os);
        let net2 = Rc::clone(&net);
        let rng = Rc::new(SimRng::new(7));
        let out = Rc::new(RefCell::new(Vec::new()));
        let out2 = Rc::clone(&out);
        sim.spawn("client", async move {
            // A SET phase then a GET phase, both verified.
            let s = run_client(
                Rc::clone(&os2),
                Rc::clone(&net2),
                Rc::clone(&ccore),
                Rc::clone(&c_sock),
                Op::Set,
                1,
                value_len,
                reqs,
                Rc::clone(&rng),
            )
            .await;
            let g = run_client(
                os2.clone(),
                net2,
                ccore,
                c_sock,
                Op::Get,
                1,
                value_len,
                reqs,
                rng,
            )
            .await;
            out2.borrow_mut().extend(s);
            out2.borrow_mut().extend(g);
            if let Some(svc) = os2.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        let samples = out.borrow();
        let total: u64 = samples.iter().map(|s| s.latency.as_nanos()).sum();
        (Nanos(total / samples.len() as u64), samples.len() as u64)
    }

    /// Two connections served on one core interleave at every `await`, so
    /// each must parse its own request and assemble its own reply: in
    /// every mode, every reply is byte-compared by `run_client` and every
    /// stored value is read back through the table.
    #[test]
    fn two_connections_keep_their_own_requests_and_replies() {
        const REQS: u64 = 6;
        let zio = Zio::new(Rc::new(copier_hw::CostModel::default()));
        for (name, mode, with_copier) in [
            ("baseline", RedisMode::Baseline, false),
            ("copier", RedisMode::Copier, true),
            ("zio", RedisMode::Zio(zio), false),
            ("ub", RedisMode::Ub, false),
            ("zc-send", RedisMode::ZeroCopySend, false),
        ] {
            let mut sim = Sim::new();
            let h = sim.handle();
            let machine = Machine::new(&h, 4);
            let os = Os::boot(&h, machine, 16 * 1024);
            if with_copier {
                os.install_copier(vec![os.machine.core(3)], Default::default());
            }
            let net = NetStack::new(&os);
            let server = RedisServer::new(&os, &net, mode, 512 * 1024);
            let done = Rc::new(std::cell::Cell::new(0));
            let value_len = |c: usize| 12 * 1024 + c * 5000;
            for c in 0..2 {
                let (c_sock, s_sock) = net.socket_pair();
                let (server2, score) = (Rc::clone(&server), os.machine.core(2));
                sim.spawn("server-conn", async move {
                    server2.serve(&score, s_sock, 2 * (REQS + 1)).await;
                });
                let (os2, net2, done2) = (Rc::clone(&os), Rc::clone(&net), Rc::clone(&done));
                let ccore = os.machine.core(c);
                sim.spawn("client", async move {
                    let rng = Rc::new(SimRng::new(100 + c as u64));
                    for op in [Op::Set, Op::Get] {
                        run_client(
                            Rc::clone(&os2),
                            Rc::clone(&net2),
                            Rc::clone(&ccore),
                            Rc::clone(&c_sock),
                            op,
                            c as u32,
                            value_len(c),
                            REQS,
                            Rc::clone(&rng),
                        )
                        .await;
                    }
                    done2.set(done2.get() + 1);
                    if done2.get() == 2 {
                        if let Some(svc) = os2.copier.borrow().as_ref() {
                            svc.stop();
                        }
                    }
                });
            }
            sim.run();
            assert_eq!(server.served.get(), 4 * (REQS + 1), "{name}: all served");
            for c in 0..2 {
                // The value `run_client` drew for its second (GET) phase.
                let rng = SimRng::new(100 + c as u64);
                let mut want = vec![0u8; value_len(c)];
                rng.fill_bytes(&mut want);
                rng.fill_bytes(&mut want);
                let db = server.db.borrow();
                let stored = &db[format!("key:{c:08}").as_bytes()];
                let mut got = vec![0u8; stored.len];
                server.proc.space.read_bytes(stored.va, &mut got).unwrap();
                assert!(got == want, "{name}: connection {c}'s stored value");
            }
        }
    }

    #[test]
    fn baseline_serves_correct_data() {
        let (avg, n) = run(RedisMode::Baseline, false, 4096, 4);
        assert_eq!(n, 8);
        assert!(avg > Nanos::ZERO);
    }

    #[test]
    fn copier_mode_correct_and_faster_for_16k() {
        let (base, _) = run(RedisMode::Baseline, false, 16 * 1024, 6);
        let (cop, _) = run(RedisMode::Copier, true, 16 * 1024, 6);
        assert!(cop < base, "copier {cop} should beat baseline {base}");
    }

    #[test]
    fn zio_mode_correct() {
        let zio = Zio::new(Rc::new(copier_hw::CostModel::default()));
        let (avg, n) = run(RedisMode::Zio(zio), false, 64 * 1024, 3);
        assert_eq!(n, 6);
        assert!(avg > Nanos::ZERO);
    }

    #[test]
    fn ub_mode_correct() {
        let (avg, _) = run(RedisMode::Ub, false, 2048, 3);
        assert!(avg > Nanos::ZERO);
    }

    #[test]
    fn zerocopy_send_mode_correct() {
        let (avg, _) = run(RedisMode::ZeroCopySend, false, 64 * 1024, 3);
        assert!(avg > Nanos::ZERO);
    }
}
