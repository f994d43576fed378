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
//! Five record classes, one row each of `Record`'s table: `Epoch`,
//! `Admit`, `Complete`, `Taint` and `Checkpoint`; the rows say what each
//! carries.
//!
//! Staged records become durable only at an explicit [`Journal::flush`]
//! (the service flushes right after the drain boundary and at round end);
//! a crash between flushes loses the staged tail, and the
//! `MidJournalFlush` crash point tears the *final* record mid-write. The
//! decoder is torn-tail-tolerant: it stops at the first short,
//! checksum-failing or unparseable record and reports the loss, exactly
//! like a kernel log replay after power failure.
//!
//! Compaction: when the store outgrows its threshold, the log is
//! rewritten as `Checkpoint + Epoch + live Admits + Taints` — the fixed
//! point of replaying the old log — so the journal's size is bounded by
//! live state, not history.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use copier_sim::wire::{fnv_bytes, Field, FNV_OFFSET};
use copier_sim::wire_table;

/// Default store size that triggers compaction on flush.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 64 * 1024;

/// Taints a journal (and a replay) remembers; the oldest goes first.
const TAINT_CAP: usize = 64;

wire_table! {
    /// One journal record's payload: a tag byte, then the row's fields in
    /// order. Every record but the epoch's own carries the epoch of the
    /// incarnation that wrote it.
    #[derive(Debug)]
    enum Record {
        /// A service incarnation started; `next_tid` is the tid high-water
        /// mark, so a restarted service never reuses a task id.
        1 => Epoch { epoch: u64, next_tid: u64 },
        /// A submission entered the pending window.
        2 => Admit { epoch: u64, rec: AdmitRec },
        /// A window entry finalized (`fault` 0 = clean), releasing it from
        /// the live set.
        3 => Complete { epoch: u64, tid: u64, fault: u8 },
        /// A poisoned destination range was remembered.
        4 => Taint { epoch: u64, rec: TaintRec },
        /// A compaction snapshot: the tid high-water mark and the service
        /// stats vector.
        5 => Checkpoint { epoch: u64, next_tid: u64, stats: Vec<u64> },
    }
}

/// Appends `rec` to `out` framed `u32 LE payload length ‖ payload ‖ u64
/// LE FNV-1a of the payload`; returns the payload length.
fn frame(out: &mut Vec<u8>, rec: &Record) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    rec.put(out);
    let len = out.len() - at - 4;
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let ck = fnv_bytes(FNV_OFFSET, &out[at + 4..]);
    out.extend_from_slice(&ck.to_le_bytes());
    len
}

/// Appends `t`, dropping the oldest taint past [`TAINT_CAP`].
fn push_taint(taints: &mut Vec<TaintRec>, t: TaintRec) {
    if taints.len() >= TAINT_CAP {
        taints.remove(0);
    }
    taints.push(t);
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

    /// A copy of the raw bytes.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<u8> {
        self.bytes.borrow().clone()
    }

    /// Overwrites the raw bytes (tests constructing corrupt stores).
    pub(crate) fn restore(&self, bytes: Vec<u8>) {
        *self.bytes.borrow_mut() = bytes;
    }
}

wire_table! {
    /// A journaled admission: everything needed to reason about a pending
    /// task without the service that admitted it. Its fields, in this
    /// order, follow the epoch in an `Admit` record.
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
}

wire_table! {
    /// A journaled taint (poisoned destination range). Its fields, in this
    /// order, follow the epoch in a `Taint` record.
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
        let (recovered, valid) = Self::replay_prefix(&store.bytes.borrow());
        store.bytes.borrow_mut().truncate(valid);
        let epoch = recovered.epoch.saturating_add(1);
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
        j.stage(&Record::Epoch {
            epoch,
            next_tid: recovered.next_tid,
        });
        j.flush();
        (j, recovered)
    }

    /// This incarnation's epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Sets the store size that triggers compaction.
    pub fn set_compact_threshold(&self, bytes: usize) {
        self.compact_threshold.set(bytes.max(256));
    }

    /// Journal activity counters.
    pub(crate) fn stats(&self) -> JournalStats {
        self.stats.get()
    }

    fn stage(&self, rec: &Record) {
        let mut staged = self.staged.borrow_mut();
        self.last_rec_off.set(staged.len());
        let len = frame(&mut staged, rec);
        let mut s = self.stats.get();
        s.records += 1;
        s.bytes += len as u64;
        self.stats.set(s);
    }

    /// Stages an admission record.
    pub fn record_admit(&self, rec: AdmitRec) {
        self.stage(&Record::Admit {
            epoch: self.epoch,
            rec: rec.clone(),
        });
        self.max_tid.set(self.max_tid.get().max(rec.tid));
        self.live.borrow_mut().insert(rec.tid, rec);
    }

    /// Stages a completion record (fault 0 = clean), releasing the task
    /// from the live set.
    pub(crate) fn record_complete(&self, tid: u64, fault: u8) {
        self.stage(&Record::Complete {
            epoch: self.epoch,
            tid,
            fault,
        });
        self.live.borrow_mut().remove(&tid);
    }

    /// Stages a taint record (bounded mirror of the service's list).
    pub(crate) fn record_taint(&self, rec: TaintRec) {
        self.stage(&Record::Taint {
            epoch: self.epoch,
            rec,
        });
        push_taint(&mut self.taints.borrow_mut(), rec);
    }

    /// Makes staged records durable. Returns whether the store has
    /// outgrown the compaction threshold (the caller then provides the
    /// stats snapshot and calls `Journal::compact`).
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
    pub(crate) fn flush_torn(&self) {
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
    pub(crate) fn compact(&self, stats_vec: &[u64]) {
        let (epoch, next_tid) = (self.epoch, self.max_tid.get().saturating_add(1));
        let mut out = Vec::new();
        frame(
            &mut out,
            &Record::Checkpoint {
                epoch,
                next_tid,
                stats: stats_vec.to_vec(),
            },
        );
        frame(&mut out, &Record::Epoch { epoch, next_tid });
        for rec in self.live.borrow().values() {
            let rec = rec.clone();
            frame(&mut out, &Record::Admit { epoch, rec });
        }
        for &rec in self.taints.borrow().iter() {
            frame(&mut out, &Record::Taint { epoch, rec });
        }
        self.store.restore(out);
        let mut s = self.stats.get();
        s.compactions += 1;
        self.stats.set(s);
    }

    /// The payload of the framed record at `pos`, advancing past it;
    /// `None` on a short or checksum-failing frame (torn tail).
    fn next_record<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
        let len = u32::from_le_bytes(buf.get(*pos..*pos + 4)?.try_into().ok()?) as usize;
        let start = *pos + 4;
        let end = start.checked_add(len)?;
        let payload = buf.get(start..end)?;
        let ck = u64::from_le_bytes(buf.get(end..end + 8)?.try_into().ok()?);
        if fnv_bytes(FNV_OFFSET, payload) != ck {
            return None;
        }
        *pos = end + 8;
        Some(payload)
    }

    /// Replays raw store bytes into a [`Recovered`] state.
    #[cfg(test)]
    pub(crate) fn replay(buf: &[u8]) -> Recovered {
        Self::replay_prefix(buf).0
    }

    /// Replays raw store bytes into a [`Recovered`] state, and returns the
    /// length of the prefix it replayed: a record that is short, fails its
    /// checksum or does not parse ends replay there, and everything from it
    /// on is the torn tail.
    fn replay_prefix(buf: &[u8]) -> (Recovered, usize) {
        let mut rec = Recovered::default();
        let mut pos = 0usize;
        while pos < buf.len() {
            let mut next = pos;
            let Some(payload) = Self::next_record(buf, &mut next) else {
                rec.torn_tail = true;
                break;
            };
            rec.records += 1;
            let mut p = 0;
            let record = match Record::get(payload, &mut p) {
                Ok(r) if p == payload.len() => r,
                // A record that framed correctly but does not parse is
                // corruption past the torn-tail model; stop replay there.
                _ => {
                    rec.torn_tail = true;
                    break;
                }
            };
            pos = next;
            match record {
                Record::Epoch { epoch, next_tid } => {
                    rec.epoch = rec.epoch.max(epoch);
                    rec.next_tid = rec.next_tid.max(next_tid);
                }
                Record::Admit { epoch, rec: a } => {
                    rec.epoch = rec.epoch.max(epoch);
                    rec.next_tid = rec.next_tid.max(a.tid.saturating_add(1));
                    rec.live.insert(a.tid, a);
                }
                Record::Complete { epoch, tid, .. } => {
                    rec.epoch = rec.epoch.max(epoch);
                    rec.live.remove(&tid);
                }
                Record::Taint { epoch, rec: t } => {
                    rec.epoch = rec.epoch.max(epoch);
                    push_taint(&mut rec.taints, t);
                }
                Record::Checkpoint {
                    epoch,
                    next_tid,
                    stats,
                } => {
                    rec.epoch = rec.epoch.max(epoch);
                    rec.next_tid = rec.next_tid.max(next_tid);
                    rec.stats = Some(stats);
                }
            }
        }
        if rec.next_tid == 0 {
            rec.next_tid = 1;
        }
        (rec, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_testkit::{
        check_with, edge_u64, prop_assert, prop_assert_eq, Config, Damage, TestRng,
    };

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

    fn varied_admit(tid: u64) -> AdmitRec {
        AdmitRec {
            tid,
            client: 1 + (tid % 3) as u32,
            set_idx: (tid % 2) as u32,
            key: (tid * 7, (tid % 2) as u8, tid),
            dst_space: 1,
            dst: 0x10_0000 + tid * 0x1000,
            src_space: 2,
            src: 0x50_0000 + tid * 0x1000,
            len: 4096 * tid,
            seg: 4096,
            dst_digest: 0xD0D0_0000_0000 + tid,
            src_digest: u64::MAX - tid,
        }
    }

    /// The store's bytes after each step of a fixed script — two epochs,
    /// admits, completes, a taint, a torn flush, `attach`'s truncation, a
    /// compaction with a stats vector and a third attach — pinned by their
    /// FNV-1a. The values were computed with the hand-written encoder
    /// that the record table replaced (commit b9e3092), so they hold the
    /// table to the same bytes.
    #[test]
    fn a_fixed_script_writes_the_pinned_bytes() {
        let store = JournalStore::new();
        let digest = || fnv_bytes(FNV_OFFSET, &store.snapshot());
        let mut got = Vec::new();
        {
            let (j, _) = Journal::attach(&store);
            got.push(digest());
            j.record_admit(varied_admit(1));
            j.record_admit(varied_admit(2));
            j.record_complete(1, 0);
            j.record_taint(TaintRec {
                client: 2,
                set_idx: 1,
                space: 1,
                lo: 0x2000,
                hi: 0x3000,
                fault: 5,
            });
            j.flush();
            got.push(digest());
            j.record_admit(varied_admit(3));
            j.record_admit(varied_admit(300));
            j.flush_torn();
            got.push(digest());
        }
        let (j, r) = Journal::attach(&store);
        assert!(r.torn_tail);
        got.push(digest());
        j.record_admit(varied_admit(4));
        j.record_complete(2, 3);
        j.flush();
        j.compact(&[7, 8, 9, u64::MAX]);
        got.push(digest());
        drop(j);
        let (_, r) = Journal::attach(&store);
        got.push(digest());
        assert_eq!(
            got,
            [
                0xc597_32d2_a00c_7dca,
                0x5aa4_befd_4e61_712d,
                0x9e1f_2c0e_4565_6802,
                0xac9a_5609_d68d_1bac,
                0x8503_2933_c187_bbd8,
                0x973d_8dd1_d538_f89f,
            ]
        );
        assert_eq!(store.len(), 182);
        assert_eq!(r.live.keys().copied().collect::<Vec<_>>(), [3, 4]);
        assert_eq!((r.next_tid, r.stats), (5, Some(vec![7, 8, 9, u64::MAX])));
    }

    /// A checksum-valid admission of tid `u64::MAX` used to overflow
    /// `tid + 1` (a panic in debug builds); the high-water mark saturates.
    #[test]
    fn replay_saturates_the_tid_high_water_mark() {
        let store = JournalStore::new();
        {
            let (j, _) = Journal::attach(&store);
            j.record_admit(AdmitRec {
                tid: u64::MAX,
                ..admit(1)
            });
            j.flush();
        }
        let r = Journal::replay(&store.snapshot());
        assert!(!r.torn_tail);
        assert_eq!(r.next_tid, u64::MAX);
        assert!(r.live.contains_key(&u64::MAX));
    }

    #[derive(Debug)]
    enum Op {
        Admit(AdmitRec),
        Complete(u64, u8),
        Taint(TaintRec),
        Flush,
        Compact(Vec<u64>),
    }

    fn random_op(rng: &mut TestRng, tids: &[u64]) -> Op {
        let mut v = || edge_u64(rng);
        match v() % 9 {
            0..=2 => Op::Admit(AdmitRec {
                tid: v(),
                client: v() as u32,
                set_idx: v() as u32,
                key: (v(), v() as u8, v()),
                dst_space: v() as u32,
                dst: v(),
                src_space: v() as u32,
                src: v(),
                len: v(),
                seg: v(),
                dst_digest: v(),
                src_digest: v(),
            }),
            3 | 4 => {
                let tid = match tids {
                    [] => v(),
                    _ => tids[(v() % tids.len() as u64) as usize],
                };
                Op::Complete(tid, v() as u8)
            }
            5 => Op::Taint(TaintRec {
                client: v() as u32,
                set_idx: v() as u32,
                space: v() as u32,
                lo: v(),
                hi: v(),
                fault: v() as u8,
            }),
            6 | 7 => Op::Flush,
            _ => Op::Compact((0..v() % 6).map(|_| v()).collect()),
        }
    }

    /// Damage to the whole store, or to one record's payload (modulo the
    /// record count) framed again with a valid length and checksum, so
    /// that the record parser sees it and not only the checksum.
    #[derive(Debug)]
    enum StoreDamage {
        Bytes(Damage),
        Reframe(usize, Damage),
    }

    impl StoreDamage {
        fn apply(&self, buf: &mut Vec<u8>) {
            match self {
                StoreDamage::Bytes(d) => d.apply(buf),
                StoreDamage::Reframe(which, d) => {
                    let bounds = boundaries(buf);
                    let k = which % (bounds.len() - 1);
                    let (lo, hi) = (bounds[k], bounds[k + 1]);
                    let mut payload = buf[lo + 4..hi - 8].to_vec();
                    d.apply(&mut payload);
                    let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
                    framed.extend_from_slice(&payload);
                    framed.extend_from_slice(&fnv_bytes(FNV_OFFSET, &payload).to_le_bytes());
                    buf.splice(lo..hi, framed);
                }
            }
        }
    }

    /// The offsets at which the store's records start, then its length.
    fn boundaries(buf: &[u8]) -> Vec<usize> {
        let mut at = vec![0];
        let mut pos = 0;
        while Journal::next_record(buf, &mut pos).is_some() {
            at.push(pos);
        }
        at
    }

    /// `Journal::replay` is total: a store written by a random script of
    /// admits, completes, taints, flushes and compactions, then cut,
    /// bit-flipped, spliced or re-framed around a damaged payload, replays
    /// to a `Recovered` without panicking, and `attach` leaves it clean.
    /// Cut at a record boundary, it replays exactly the records before the
    /// cut; undamaged, it recovers the script's live set.
    #[test]
    fn replay_is_total_on_damaged_stores() {
        let mut cfg = Config::from_env();
        if std::env::var_os("TESTKIT_CASES").is_none() {
            cfg.cases = 2000;
        }
        let gen = |rng: &mut TestRng| {
            let mut tids = Vec::new();
            let ops: Vec<Op> = (0..rng.gen_range(24))
                .map(|_| {
                    let op = random_op(rng, &tids);
                    if let Op::Admit(a) = &op {
                        tids.push(a.tid);
                    }
                    op
                })
                .collect();
            let damage = if rng.gen_bool(0.5) {
                StoreDamage::Bytes(Damage::random(rng))
            } else {
                StoreDamage::Reframe(rng.next_u64() as usize, Damage::random(rng))
            };
            (ops, rng.next_u64() as usize, damage)
        };
        check_with(
            &cfg,
            gen,
            |_| Vec::new(),
            |(ops, cut, damage)| {
                let store = JournalStore::new();
                let (j, _) = Journal::attach(&store);
                for op in ops {
                    match op {
                        Op::Admit(a) => j.record_admit(a.clone()),
                        &Op::Complete(tid, fault) => j.record_complete(tid, fault),
                        &Op::Taint(t) => j.record_taint(t),
                        Op::Flush => drop(j.flush()),
                        Op::Compact(stats) => {
                            j.flush();
                            j.compact(stats);
                        }
                    }
                }
                j.flush();
                let valid = store.snapshot();
                let r = Journal::replay(&valid);
                prop_assert!(!r.torn_tail);
                prop_assert_eq!(&r.live, &*j.live.borrow());

                let bounds = boundaries(&valid);
                prop_assert_eq!(*bounds.last().unwrap(), valid.len());
                let k = cut % bounds.len();
                let r = Journal::replay(&valid[..bounds[k]]);
                prop_assert!(!r.torn_tail);
                prop_assert_eq!(r.records, k as u64);

                let mut bytes = valid.clone();
                damage.apply(&mut bytes);
                let _ = Journal::replay(&bytes);
                store.restore(bytes);
                let (j2, r) = Journal::attach(&store);
                prop_assert_eq!(j2.epoch(), r.epoch.saturating_add(1));
                prop_assert!(!Journal::replay(&store.snapshot()).torn_tail);
                Ok(())
            },
        );
    }
}
