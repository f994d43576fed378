//! Mini-Protobuf: length-delimited deserialization over recv (Fig. 13-a).
//!
//! Messages are a sequence of `[tag u8][varint len][bytes]` fields. The
//! application receives a serialized message and deserializes it into an
//! owned structure; with Copier the recv copy streams in parallel with
//! deserialization, `csync`ing one field ahead of the cursor (the
//! copy-use pipeline of §4.1 — the paper instruments exactly this window
//! in Fig. 3).

use std::rc::Rc;

use copier_mem::{MemError, VirtAddr};
use copier_os::{IoMode, NetStack, Os, Process, Socket};
use copier_sim::{Core, Nanos};

/// Per-field decode overhead (tag dispatch, varint decode, vec setup).
pub const FIELD_COST: Nanos = Nanos(100);
/// Per-byte deserialize cost (≈1 GB/s — Protobuf-class parsing with
/// bounds checks and allocation).
pub const BYTE_COST_X100: u64 = 100; // 1 ns/byte

/// A decoded message: the field payloads.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Message {
    /// `(tag, payload)` pairs in wire order.
    pub fields: Vec<(u8, Vec<u8>)>,
}

/// Encodes `fields` into `buf` inside `proc`; returns the wire length.
pub fn encode(
    proc: &Rc<Process>,
    buf: VirtAddr,
    fields: &[(u8, Vec<u8>)],
) -> Result<usize, MemError> {
    let mut off = 0usize;
    for (tag, payload) in fields {
        proc.space.write_bytes(buf.add(off), &[*tag])?;
        off += 1;
        let mut l = payload.len();
        loop {
            let mut b = (l & 0x7f) as u8;
            l >>= 7;
            if l > 0 {
                b |= 0x80;
            }
            proc.space.write_bytes(buf.add(off), &[b])?;
            off += 1;
            if l == 0 {
                break;
            }
        }
        proc.space.write_bytes(buf.add(off), payload)?;
        off += payload.len();
    }
    Ok(off)
}

/// Receives one serialized message on `sock` and deserializes it.
///
/// Returns the decoded message and the end-to-end latency (recv entry to
/// last field decoded).
#[allow(clippy::too_many_arguments)]
pub async fn recv_and_decode(
    os: &Rc<Os>,
    net: &Rc<NetStack>,
    core: &Rc<Core>,
    proc: &Rc<Process>,
    sock: &Rc<Socket>,
    buf: VirtAddr,
    cap: usize,
    use_copier: bool,
) -> Result<(Message, Nanos), MemError> {
    let t0 = os.h.now();
    let mode = if use_copier {
        IoMode::Copier
    } else {
        IoMode::Sync
    };
    let (n, _d) = net.recv(core, proc, sock, buf, cap, mode).await?;
    let lib = use_copier.then(|| proc.lib());
    let mut msg = Message::default();
    let mut off = 0usize;
    while off < n {
        // Sync the header bytes of the next field (tag + varint ≤ 6 B),
        // then the payload range, before touching them.
        if let Some(lib) = &lib {
            lib.csync(core, buf.add(off), 6.min(n - off))
                .await
                .expect("field hdr");
        }
        let mut hdr = [0u8; 6];
        let take = 6.min(n - off);
        proc.space.read_bytes(buf.add(off), &mut hdr[..take])?;
        let tag = hdr[0];
        let mut len = 0usize;
        let mut shift = 0;
        let mut used = 1;
        loop {
            let b = hdr[used];
            used += 1;
            len |= ((b & 0x7f) as usize) << shift;
            shift += 7;
            if b & 0x80 == 0 {
                break;
            }
        }
        core.advance(FIELD_COST).await;
        let payload_off = off + used;
        if let Some(lib) = &lib {
            lib.csync(core, buf.add(payload_off), len)
                .await
                .expect("field payload");
        }
        let mut payload = vec![0u8; len];
        proc.space.read_bytes(buf.add(payload_off), &mut payload)?;
        core.advance(Nanos(len as u64 * BYTE_COST_X100 / 100)).await;
        msg.fields.push((tag, payload));
        off = payload_off + len;
    }
    Ok((msg, os.h.now() - t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_mem::Prot;
    use copier_sim::{Machine, Sim, SimRng};
    use std::cell::RefCell;

    fn run(use_copier: bool, field_len: usize, nfields: usize) -> (Nanos, bool) {
        let mut sim = Sim::new();
        let h = sim.handle();
        let machine = Machine::new(&h, 3);
        let os = Os::boot(&h, machine, 8192);
        if use_copier {
            os.install_copier(vec![os.machine.core(2)], Default::default());
        }
        let net = NetStack::new(&os);
        let (tx_sock, rx_sock) = net.socket_pair();
        let rng = SimRng::new(11);
        let fields: Vec<(u8, Vec<u8>)> = (0..nfields)
            .map(|i| {
                let mut p = vec![0u8; field_len];
                rng.fill_bytes(&mut p);
                (i as u8 + 1, p)
            })
            .collect();

        let sender = os.spawn_process();
        let cap = (field_len + 8) * nfields + 64;
        let net2 = Rc::clone(&net);
        let os2 = Rc::clone(&os);
        let score = os.machine.core(0);
        let fields2: Vec<(u8, Vec<u8>)> = fields.to_vec();
        sim.spawn("sender", async move {
            let buf = sender.space.mmap(cap, Prot::RW, true).unwrap();
            let len = encode(&sender, buf, &fields2).unwrap();
            net2.send(&score, &sender, &tx_sock, buf, len, IoMode::Sync)
                .await
                .unwrap();
            let _ = os2;
        });

        let receiver = os.spawn_process();
        let rcore = os.machine.core(1);
        let os3 = Rc::clone(&os);
        let out = Rc::new(RefCell::new((Nanos::ZERO, false)));
        let out2 = Rc::clone(&out);
        sim.spawn("receiver", async move {
            let buf = receiver.space.mmap(cap, Prot::RW, true).unwrap();
            let (msg, lat) = recv_and_decode(
                &os3, &net, &rcore, &receiver, &rx_sock, buf, cap, use_copier,
            )
            .await
            .unwrap();
            let ok = msg.fields == fields;
            *out2.borrow_mut() = (lat, ok);
            if let Some(svc) = os3.copier.borrow().as_ref() {
                svc.stop();
            }
        });
        sim.run();
        let o = out.borrow();
        (o.0, o.1)
    }

    #[test]
    fn baseline_decodes_correctly() {
        let (lat, ok) = run(false, 2048, 8);
        assert!(ok);
        assert!(lat > Nanos::ZERO);
    }

    #[test]
    fn copier_pipeline_decodes_correctly_and_faster() {
        let (base, ok1) = run(false, 2048, 8); // 16 KB message
        let (cop, ok2) = run(true, 2048, 8);
        assert!(ok1 && ok2);
        assert!(cop < base, "copier {cop} vs baseline {base}");
    }
}
