//! Control-plane journal + checkpoint (DESIGN.md §15).
//!
//! The Copier's *data* plane is already crash-safe by construction —
//! bytes either landed in destination frames or they did not — but the
//! *control* plane (pending windows, address index, credits, taints,
//! stats) lives in service-private memory and dies with the service. The
//! journal is the durable mirror of that control state: an epoch-stamped,
//! FNV-checksummed append-only record log kept in a [`JournalStore`] that
//! outlives any one service incarnation (the stand-in for pmem/a kernel
//! keepalive page in the simulator).
//!
//! Record classes:
//!
//! * **Epoch** — a service incarnation started (carries the tid
//!   high-water mark so restarted services never reuse task ids);
//! * **Admit** — a submission entered the pending window, with its order
//!   key and pre-copy extent digests of both ranges (sampled head/tail
//!   pages — cheap, yet enough to detect a torn destination);
//! * **Complete** — a window entry finalized (clean or with a typed
//!   fault), releasing it from the live set;
//! * **Taint** — a poisoned destination range was remembered;
//! * **Checkpoint** — a compaction snapshot carrying the service stats
//!   vector.
//!
//! Staged records become durable only at an explicit [`Journal::flush`]
//! (the service flushes right after the drain boundary and at round end);
//! a crash between flushes loses the staged tail, and the
//! `MidJournalFlush` crash point tears the *final* record mid-write. The
//! decoder is torn-tail-tolerant: it stops at the first short or
//! checksum-failing record and reports the loss, exactly like a kernel
//! log replay after power failure.
//!
//! Compaction: when the store outgrows its threshold, the log is
//! rewritten as `Checkpoint + Epoch + live Admits + Taints` — the fixed
//! point of replaying the old log — so the journal's size is bounded by
//! live state, not history.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use copier_sim::trace::FNV_OFFSET;

const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Default store size that triggers compaction on flush.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 64 * 1024;

const REC_EPOCH: u8 = 1;
const REC_ADMIT: u8 = 2;
const REC_COMPLETE: u8 = 3;
const REC_TAINT: u8 = 4;
const REC_CHECKPOINT: u8 = 5;

fn checksum(payload: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in payload {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// The byte store a journal appends into. Shared by `Rc` between the
/// owning service and whatever restarts it — the simulator's stand-in
/// for storage that survives a service crash.
pub struct JournalStore {
    bytes: RefCell<Vec<u8>>,
}

impl std::fmt::Debug for JournalStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalStore")
            .field("len", &self.bytes.borrow().len())
            .finish()
    }
}

impl JournalStore {
    /// An empty store.
    pub fn new() -> Rc<Self> {
        Rc::new(JournalStore {
            bytes: RefCell::new(Vec::new()),
        })
    }

    /// Durable bytes currently in the store.
    pub fn len(&self) -> usize {
        self.bytes.borrow().len()
    }

    /// Whether the store holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the raw bytes (tests and tooling).
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.borrow().clone()
    }

    /// Overwrites the raw bytes (tests constructing corrupt stores).
    pub fn restore(&self, bytes: Vec<u8>) {
        *self.bytes.borrow_mut() = bytes;
    }
}

/// A journaled admission: everything needed to reason about a pending
/// task without the service that admitted it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmitRec {
    /// Task id (unique across service incarnations via the Epoch record).
    pub tid: u64,
    /// Owning client id.
    pub client: u32,
    /// Index of the client's queue set the task was drained from.
    pub set_idx: u32,
    /// The window order key `(k_key, privileged, seq)`.
    pub key: (u64, u8, u64),
    /// Destination address-space id.
    pub dst_space: u32,
    /// Destination virtual address.
    pub dst: u64,
    /// Source address-space id.
    pub src_space: u32,
    /// Source virtual address.
    pub src: u64,
    /// Copy length in bytes.
    pub len: u64,
    /// Notification segment size.
    pub seg: u64,
    /// Pre-copy sampled extent digest of the destination range.
    pub dst_digest: u64,
    /// Admission-time sampled extent digest of the source range.
    pub src_digest: u64,
}

/// A journaled taint (poisoned destination range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintRec {
    /// Owning client id.
    pub client: u32,
    /// Queue-set index the taint lives in.
    pub set_idx: u32,
    /// Tainted address-space id.
    pub space: u32,
    /// Range start (inclusive).
    pub lo: u64,
    /// Range end (exclusive).
    pub hi: u64,
    /// Wire code of the poisoning fault.
    pub fault: u8,
}

/// What a journal replay reconstructed from the store.
#[derive(Debug, Clone, Default)]
pub struct Recovered {
    /// Epoch of the last incarnation that wrote the store.
    pub epoch: u64,
    /// First task id the new incarnation may issue.
    pub next_tid: u64,
    /// Admitted-but-not-completed tasks, by tid.
    pub live: BTreeMap<u64, AdmitRec>,
    /// Remembered taints at crash time.
    pub taints: Vec<TaintRec>,
    /// Stats vector from the most recent checkpoint, if any.
    pub stats: Option<Vec<u64>>,
    /// Whether a torn/corrupt tail was detected (and truncated).
    pub torn_tail: bool,
    /// Records replayed from the store.
    pub records: u64,
}

/// Journal activity counters. Kept separate from `CopierStats` so that
/// enabling journaling leaves the service's own stats byte-identical to
/// a journal-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended (staged) this incarnation.
    pub records: u64,
    /// Payload bytes appended this incarnation.
    pub bytes: u64,
    /// Flushes that moved staged bytes into the store.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
}

/// One service incarnation's writer over a [`JournalStore`].
pub struct Journal {
    store: Rc<JournalStore>,
    epoch: u64,
    staged: RefCell<Vec<u8>>,
    /// Offset in `staged` of the last staged record (torn-flush target).
    last_rec_off: Cell<usize>,
    /// Live (admitted, not completed) tasks as of the staged state.
    live: RefCell<BTreeMap<u64, AdmitRec>>,
    /// Taints as of the staged state (bounded like the service's list).
    taints: RefCell<Vec<TaintRec>>,
    /// Highest tid ever journaled (epoch records carry it forward).
    max_tid: Cell<u64>,
    compact_threshold: Cell<usize>,
    stats: Cell<JournalStats>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("epoch", &self.epoch)
            .field("store_len", &self.store.len())
            .field("staged", &self.staged.borrow().len())
            .field("live", &self.live.borrow().len())
            .finish()
    }
}

impl Journal {
    /// Replays `store` and opens a new epoch over it.
    ///
    /// Returns the writer plus what the replay reconstructed. A torn or
    /// corrupt tail is truncated from the store (its records were never
    /// acknowledged durable). The new epoch's Epoch record is staged and
    /// flushed immediately so even an idle incarnation is visible.
    pub fn attach(store: &Rc<JournalStore>) -> (Journal, Recovered) {
        let recovered = Self::replay(&store.snapshot());
        if recovered.torn_tail {
            // Drop the unreadable tail: re-encode the valid prefix.
            let mut clean = Vec::new();
            Self::reencode_prefix(&store.snapshot(), &mut clean);
            store.restore(clean);
        }
        let epoch = recovered.epoch + 1;
        let j = Journal {
            store: Rc::clone(store),
            epoch,
            staged: RefCell::new(Vec::new()),
            last_rec_off: Cell::new(0),
            live: RefCell::new(recovered.live.clone()),
            taints: RefCell::new(recovered.taints.clone()),
            max_tid: Cell::new(recovered.next_tid.saturating_sub(1)),
            compact_threshold: Cell::new(DEFAULT_COMPACT_THRESHOLD),
            stats: Cell::new(JournalStats::default()),
        };
        let mut payload = vec![REC_EPOCH];
        put_varint(&mut payload, epoch);
        put_varint(&mut payload, recovered.next_tid);
        j.stage(payload);
        j.flush();
        (j, recovered)
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the store size that triggers compaction.
    pub fn set_compact_threshold(&self, bytes: usize) {
        self.compact_threshold.set(bytes.max(256));
    }

    /// Journal activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats.get()
    }

    fn stage(&self, payload: Vec<u8>) {
        let mut staged = self.staged.borrow_mut();
        self.last_rec_off.set(staged.len());
        staged.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        staged.extend_from_slice(&payload);
        staged.extend_from_slice(&checksum(&payload).to_le_bytes());
        let mut s = self.stats.get();
        s.records += 1;
        s.bytes += payload.len() as u64;
        self.stats.set(s);
    }

    /// Stages an admission record.
    pub fn record_admit(&self, rec: AdmitRec) {
        let mut payload = vec![REC_ADMIT];
        put_varint(&mut payload, self.epoch);
        put_varint(&mut payload, rec.tid);
        put_varint(&mut payload, rec.client as u64);
        put_varint(&mut payload, rec.set_idx as u64);
        put_varint(&mut payload, rec.key.0);
        payload.push(rec.key.1);
        put_varint(&mut payload, rec.key.2);
        put_varint(&mut payload, rec.dst_space as u64);
        put_varint(&mut payload, rec.dst);
        put_varint(&mut payload, rec.src_space as u64);
        put_varint(&mut payload, rec.src);
        put_varint(&mut payload, rec.len);
        put_varint(&mut payload, rec.seg);
        put_varint(&mut payload, rec.dst_digest);
        put_varint(&mut payload, rec.src_digest);
        self.stage(payload);
        self.max_tid.set(self.max_tid.get().max(rec.tid));
        self.live.borrow_mut().insert(rec.tid, rec);
    }

    /// Stages a completion record (fault 0 = clean), releasing the task
    /// from the live set.
    pub fn record_complete(&self, tid: u64, fault: u8) {
        let mut payload = vec![REC_COMPLETE];
        put_varint(&mut payload, self.epoch);
        put_varint(&mut payload, tid);
        payload.push(fault);
        self.stage(payload);
        self.live.borrow_mut().remove(&tid);
    }

    /// Stages a taint record (bounded mirror of the service's list).
    pub fn record_taint(&self, rec: TaintRec) {
        let mut payload = vec![REC_TAINT];
        put_varint(&mut payload, self.epoch);
        put_varint(&mut payload, rec.client as u64);
        put_varint(&mut payload, rec.set_idx as u64);
        put_varint(&mut payload, rec.space as u64);
        put_varint(&mut payload, rec.lo);
        put_varint(&mut payload, rec.hi);
        payload.push(rec.fault);
        self.stage(payload);
        let mut taints = self.taints.borrow_mut();
        if taints.len() >= 64 {
            taints.remove(0);
        }
        taints.push(rec);
    }

    /// Makes staged records durable. Returns whether the store has
    /// outgrown the compaction threshold (the caller then provides the
    /// stats snapshot and calls [`Journal::compact`]).
    pub fn flush(&self) -> bool {
        let mut staged = self.staged.borrow_mut();
        if !staged.is_empty() {
            self.store.bytes.borrow_mut().extend_from_slice(&staged);
            staged.clear();
            self.last_rec_off.set(0);
            let mut s = self.stats.get();
            s.flushes += 1;
            self.stats.set(s);
        }
        self.store.len() > self.compact_threshold.get()
    }

    /// The `MidJournalFlush` crash: flushes staged records but tears the
    /// final one mid-write — only half of its bytes reach the store, so
    /// replay sees a checksum-failing tail.
    pub fn flush_torn(&self) {
        let mut staged = self.staged.borrow_mut();
        if staged.is_empty() {
            return;
        }
        let off = self.last_rec_off.get();
        let tail_len = staged.len() - off;
        // Keep everything before the last record plus half of it: the
        // truncation point is deterministic (no extra PRNG draw).
        let keep = off + tail_len / 2;
        self.store
            .bytes
            .borrow_mut()
            .extend_from_slice(&staged[..keep]);
        staged.clear();
        self.last_rec_off.set(0);
    }

    /// Rewrites the store as `Checkpoint(stats) + Epoch + live Admits +
    /// Taints` — the replay fixed point — bounding the log by live state.
    pub fn compact(&self, stats_vec: &[u64]) {
        let mut out = Vec::new();
        let push = |out: &mut Vec<u8>, payload: Vec<u8>| {
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            let ck = checksum(&payload);
            out.extend_from_slice(&payload);
            out.extend_from_slice(&ck.to_le_bytes());
        };
        let mut ckpt = vec![REC_CHECKPOINT];
        put_varint(&mut ckpt, self.epoch);
        put_varint(&mut ckpt, self.max_tid.get() + 1);
        put_varint(&mut ckpt, stats_vec.len() as u64);
        for &v in stats_vec {
            put_varint(&mut ckpt, v);
        }
        push(&mut out, ckpt);
        let mut ep = vec![REC_EPOCH];
        put_varint(&mut ep, self.epoch);
        put_varint(&mut ep, self.max_tid.get() + 1);
        push(&mut out, ep);
        for rec in self.live.borrow().values() {
            let mut payload = vec![REC_ADMIT];
            put_varint(&mut payload, self.epoch);
            put_varint(&mut payload, rec.tid);
            put_varint(&mut payload, rec.client as u64);
            put_varint(&mut payload, rec.set_idx as u64);
            put_varint(&mut payload, rec.key.0);
            payload.push(rec.key.1);
            put_varint(&mut payload, rec.key.2);
            put_varint(&mut payload, rec.dst_space as u64);
            put_varint(&mut payload, rec.dst);
            put_varint(&mut payload, rec.src_space as u64);
            put_varint(&mut payload, rec.src);
            put_varint(&mut payload, rec.len);
            put_varint(&mut payload, rec.seg);
            put_varint(&mut payload, rec.dst_digest);
            put_varint(&mut payload, rec.src_digest);
            push(&mut out, payload);
        }
        for rec in self.taints.borrow().iter() {
            let mut payload = vec![REC_TAINT];
            put_varint(&mut payload, self.epoch);
            put_varint(&mut payload, rec.client as u64);
            put_varint(&mut payload, rec.set_idx as u64);
            put_varint(&mut payload, rec.space as u64);
            put_varint(&mut payload, rec.lo);
            put_varint(&mut payload, rec.hi);
            payload.push(rec.fault);
            push(&mut out, payload);
        }
        self.store.restore(out);
        let mut s = self.stats.get();
        s.compactions += 1;
        self.stats.set(s);
    }

    /// Decodes one framed record from `buf` at `pos`; `None` on a short
    /// or checksum-failing frame (torn tail).
    fn next_record(buf: &[u8], pos: &mut usize) -> Option<Vec<u8>> {
        if *pos + 4 > buf.len() {
            return None;
        }
        let len = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().unwrap()) as usize;
        let start = *pos + 4;
        let end = start.checked_add(len)?;
        if end + 8 > buf.len() {
            return None;
        }
        let payload = &buf[start..end];
        let ck = u64::from_le_bytes(buf[end..end + 8].try_into().unwrap());
        if checksum(payload) != ck {
            return None;
        }
        *pos = end + 8;
        Some(payload.to_vec())
    }

    /// Copies the longest valid record prefix of `buf` into `out`.
    fn reencode_prefix(buf: &[u8], out: &mut Vec<u8>) {
        let mut pos = 0usize;
        while Self::next_record(buf, &mut pos).is_some() {}
        out.extend_from_slice(&buf[..pos]);
    }

    /// Replays raw store bytes into a [`Recovered`] state.
    pub fn replay(buf: &[u8]) -> Recovered {
        let mut rec = Recovered::default();
        let mut pos = 0usize;
        loop {
            let Some(payload) = Self::next_record(buf, &mut pos) else {
                rec.torn_tail = pos < buf.len();
                break;
            };
            rec.records += 1;
            let mut p = 1usize;
            let bad = match payload.first() {
                Some(&REC_EPOCH) => (|| {
                    let epoch = get_varint(&payload, &mut p)?;
                    let next_tid = get_varint(&payload, &mut p)?;
                    rec.epoch = rec.epoch.max(epoch);
                    rec.next_tid = rec.next_tid.max(next_tid);
                    Some(())
                })()
                .is_none(),
                Some(&REC_ADMIT) => (|| {
                    let epoch = get_varint(&payload, &mut p)?;
                    let tid = get_varint(&payload, &mut p)?;
                    let client = get_varint(&payload, &mut p)? as u32;
                    let set_idx = get_varint(&payload, &mut p)? as u32;
                    let k0 = get_varint(&payload, &mut p)?;
                    let k1 = *payload.get(p)?;
                    p += 1;
                    let k2 = get_varint(&payload, &mut p)?;
                    let dst_space = get_varint(&payload, &mut p)? as u32;
                    let dst = get_varint(&payload, &mut p)?;
                    let src_space = get_varint(&payload, &mut p)? as u32;
                    let src = get_varint(&payload, &mut p)?;
                    let len = get_varint(&payload, &mut p)?;
                    let seg = get_varint(&payload, &mut p)?;
                    let dst_digest = get_varint(&payload, &mut p)?;
                    let src_digest = get_varint(&payload, &mut p)?;
                    rec.epoch = rec.epoch.max(epoch);
                    rec.next_tid = rec.next_tid.max(tid + 1);
                    rec.live.insert(
                        tid,
                        AdmitRec {
                            tid,
                            client,
                            set_idx,
                            key: (k0, k1, k2),
                            dst_space,
                            dst,
                            src_space,
                            src,
                            len,
                            seg,
                            dst_digest,
                            src_digest,
                        },
                    );
                    Some(())
                })()
                .is_none(),
                Some(&REC_COMPLETE) => (|| {
                    let epoch = get_varint(&payload, &mut p)?;
                    let tid = get_varint(&payload, &mut p)?;
                    let _fault = *payload.get(p)?;
                    rec.epoch = rec.epoch.max(epoch);
                    rec.live.remove(&tid);
                    Some(())
                })()
                .is_none(),
                Some(&REC_TAINT) => (|| {
                    let epoch = get_varint(&payload, &mut p)?;
                    let client = get_varint(&payload, &mut p)? as u32;
                    let set_idx = get_varint(&payload, &mut p)? as u32;
                    let space = get_varint(&payload, &mut p)? as u32;
                    let lo = get_varint(&payload, &mut p)?;
                    let hi = get_varint(&payload, &mut p)?;
                    let fault = *payload.get(p)?;
                    rec.epoch = rec.epoch.max(epoch);
                    if rec.taints.len() >= 64 {
                        rec.taints.remove(0);
                    }
                    rec.taints.push(TaintRec {
                        client,
                        set_idx,
                        space,
                        lo,
                        hi,
                        fault,
                    });
                    Some(())
                })()
                .is_none(),
                Some(&REC_CHECKPOINT) => (|| {
                    let epoch = get_varint(&payload, &mut p)?;
                    let next_tid = get_varint(&payload, &mut p)?;
                    let n = get_varint(&payload, &mut p)? as usize;
                    if n > payload.len() {
                        return None;
                    }
                    let mut stats = Vec::with_capacity(n);
                    for _ in 0..n {
                        stats.push(get_varint(&payload, &mut p)?);
                    }
                    rec.epoch = rec.epoch.max(epoch);
                    rec.next_tid = rec.next_tid.max(next_tid);
                    rec.stats = Some(stats);
                    Some(())
                })()
                .is_none(),
                _ => true,
            };
            if bad {
                // A record that framed correctly but does not parse is
                // corruption past the torn-tail model; stop replay there.
                rec.torn_tail = true;
                break;
            }
        }
        if rec.next_tid == 0 {
            rec.next_tid = 1;
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(tid: u64) -> AdmitRec {
        AdmitRec {
            tid,
            client: 1,
            set_idx: 0,
            key: (0, 1, tid),
            dst_space: 1,
            dst: 0x10_0000 + tid * 0x1000,
            src_space: 1,
            src: 0x50_0000 + tid * 0x1000,
            len: 4096,
            seg: 4096,
            dst_digest: 0xD0 + tid,
            src_digest: 0x50 + tid,
        }
    }

    #[test]
    fn roundtrip_admit_complete_taint() {
        let store = JournalStore::new();
        {
            let (j, r) = Journal::attach(&store);
            assert_eq!(j.epoch(), 1);
            assert_eq!(r.records, 0);
            j.record_admit(admit(1));
            j.record_admit(admit(2));
            j.record_complete(1, 0);
            j.record_taint(TaintRec {
                client: 1,
                set_idx: 0,
                space: 1,
                lo: 0x2000,
                hi: 0x3000,
                fault: 5,
            });
            j.flush();
        }
        let (j2, r) = Journal::attach(&store);
        assert_eq!(j2.epoch(), 2);
        assert!(!r.torn_tail);
        assert_eq!(r.live.len(), 1, "completed task released from live set");
        assert_eq!(r.live[&2], admit(2));
        assert_eq!(r.taints.len(), 1);
        assert_eq!(r.taints[0].fault, 5);
        assert_eq!(r.next_tid, 3);
    }

    #[test]
    fn unflushed_records_are_lost() {
        let store = JournalStore::new();
        {
            let (j, _) = Journal::attach(&store);
            j.record_admit(admit(1));
            j.flush();
            j.record_admit(admit(2)); // staged, never flushed
        }
        let (_, r) = Journal::attach(&store);
        assert!(!r.torn_tail);
        assert_eq!(r.live.len(), 1);
        assert!(r.live.contains_key(&1));
    }

    #[test]
    fn torn_final_record_is_detected_and_truncated() {
        let store = JournalStore::new();
        {
            let (j, _) = Journal::attach(&store);
            j.record_admit(admit(1));
            j.flush();
            j.record_admit(admit(2));
            j.record_admit(admit(3));
            j.flush_torn(); // admit(2) durable, admit(3) torn mid-record
        }
        let r = Journal::replay(&store.snapshot());
        assert!(r.torn_tail, "torn tail must be reported");
        assert_eq!(r.live.len(), 2);
        assert!(r.live.contains_key(&1) && r.live.contains_key(&2));
        // Attach truncates the tail; a second replay is then clean.
        let (_, r2) = Journal::attach(&store);
        assert!(r2.torn_tail);
        let r3 = Journal::replay(&store.snapshot());
        assert!(!r3.torn_tail, "attach must truncate the torn tail");
    }

    #[test]
    fn corrupted_checksum_stops_replay() {
        let store = JournalStore::new();
        {
            let (j, _) = Journal::attach(&store);
            j.record_admit(admit(1));
            j.record_admit(admit(2));
            j.flush();
        }
        let mut bytes = store.snapshot();
        let n = bytes.len();
        bytes[n - 9] ^= 0xff; // flip a payload byte of the final record
        store.restore(bytes);
        let r = Journal::replay(&store.snapshot());
        assert!(r.torn_tail);
        assert_eq!(r.live.len(), 1, "replay stops at the corrupt record");
    }

    #[test]
    fn compaction_preserves_live_state_and_bounds_size() {
        let store = JournalStore::new();
        let (j, _) = Journal::attach(&store);
        j.set_compact_threshold(256);
        for tid in 1..=100u64 {
            j.record_admit(admit(tid));
            if tid % 2 == 0 {
                j.record_complete(tid, 0);
            }
        }
        assert!(j.flush(), "store must outgrow the threshold");
        let before = store.len();
        j.compact(&[7, 8, 9]);
        assert!(store.len() < before, "compaction must shrink the store");
        let (_, r) = Journal::attach(&store);
        assert!(!r.torn_tail);
        assert_eq!(r.live.len(), 50, "only odd tids stay live");
        assert!(r.live.keys().all(|t| t % 2 == 1));
        assert_eq!(r.stats.as_deref(), Some(&[7u64, 8, 9][..]));
        assert_eq!(r.next_tid, 101);
    }

    #[test]
    fn epochs_are_monotone_across_attaches() {
        let store = JournalStore::new();
        for expect in 1..=4u64 {
            let (j, r) = Journal::attach(&store);
            assert_eq!(j.epoch(), expect);
            assert_eq!(r.epoch, expect - 1);
            j.flush();
        }
    }
}
