//! Record/replay trace layer (rr-style, ROADMAP item 4).
//!
//! A [`Trace`] is a compact binary event log of one service execution:
//! per round, the entries drained, the fault-plan draws consumed, the
//! scheduling and admission decisions taken, and the round boundaries
//! with state hashes (pending window, address index, stats, and periodic
//! physical-memory digests). Because the simulator is deterministic, the
//! log is both a *witness* of a run and an *input* that reproduces it:
//!
//! * **Record** — a [`Tracer`] in record mode appends every event a run
//!   emits; the harness saves the encoded trace next to a failing seed.
//! * **Replay** — a tracer in replay mode feeds the recorded fault draws
//!   back to the service and checks every emitted event
//!   against the log in lockstep. The first mismatch is latched as a
//!   [`Divergence`] naming the round and position where the re-execution
//!   left the recorded timeline — the divergence checker.
//!
//! Recording is host-side only: no virtual time is charged anywhere, so
//! a traced run is byte-identical to an untraced one. Idle poll sweeps
//! emit nothing (round headers are lazy), which keeps traces proportional
//! to *work done*, not wall time. See DESIGN.md §14.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Magic prefix of an encoded trace.
pub const TRACE_MAGIC: [u8; 4] = *b"CPTR";
/// Encoding version. 3: one round frame at every shard count —
/// `RoundStart` and `RoundEnd` carry the shard, the per-shard pair of
/// version 2 (tags 15 and 16) is retired, and the `stats` word of every
/// `RoundEnd` folds the shard's private cells and then the service-wide
/// stats (DESIGN.md §14). A file of another version is refused here
/// instead of replaying to a spurious divergence at its first round.
pub const TRACE_VERSION: u8 = 3;

use crate::wire::Field;
pub use crate::wire::{fnv_fold, FNV_OFFSET};

crate::wire_table! {
    /// One recorded event. Integer payloads only — on the wire a tag byte,
    /// then each field in row order ([`crate::wire`]: `u8`/`bool` a raw
    /// byte, `u32`/`u64` a LEB128 varint, `Vec<u64>` a count then
    /// varints), so common events are 2–6 bytes. A new event takes a new
    /// tag: never 1 (the retired workload `Submission`, which nothing
    /// wrote) nor 15 or 16 (version 2's retired per-shard round frame),
    /// and a changed row bumps [`TRACE_VERSION`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TraceEvent {
        /// Harness-defined metadata (workload parameters, case seeds). Keys
        /// are owned by the recording harness; replay reconstructs its case
        /// from them.
        0 => Meta { key: u32, val: u64 },
        /// A batch of race instants drawn from the fault plan.
        2 => RaceTimes { times: Vec<u64> },
        /// A shard's service round began (lazy: only emitted for rounds that
        /// produce at least one other event). `round` is the shard-local
        /// round counter; a lone shard is shard 0.
        3 => RoundStart { shard: u32, round: u64, now: u64 },
        /// The drain boundary: copy entries and sync tasks pulled this round.
        4 => Drained { copies: u64, syncs: u64 },
        /// One admission decision at the drain boundary.
        5 => Admit { client: u32, len: u64, admitted: bool },
        /// The scheduler picked a client this round.
        6 => SchedPick { client: u32 },
        /// One DMA fault-plan draw: 0 none, 1 transient, 2 hard, 3 timeout.
        7 => DmaDraw { fault: u8 },
        /// One ATCache staleness draw.
        8 => AtcDraw { stale: bool },
        /// A descriptor state transition: a window entry was finalized.
        /// `fault` is 0 for clean completion (see the service's encoding).
        9 => TaskDone { tid: u64, fault: u8 },
        /// Round boundary with state hashes: the pending windows and address
        /// indexes of the shard's clients, and its stats digest. Lets replay
        /// pinpoint the first divergent `(shard, round)` pair instead of just
        /// a position in the stream.
        10 => RoundEnd { shard: u32, round: u64, pending: u64, index: u64, stats: u64 },
        /// Periodic physical-memory digest (checkpoint granularity; see
        /// DESIGN.md §14 for why it is not per-round).
        11 => MemDigest { round: u64, digest: u64 },
        /// One crash-oracle draw at a round sub-step (`point` is the
        /// [`crate::fault::CrashPoint`] wire code; `fire` whether the
        /// service died there).
        12 => CrashDraw { point: u8, fire: bool },
        /// One silent-corruption draw for a DMA transfer: `kind` is 0 for
        /// none, 1 for a bit flip (`arg` = bit position), 2 for a
        /// misdirected write (`arg` = offset shift). See
        /// [`crate::fault::SilentCorruption`].
        13 => CorruptDraw { kind: u8, arg: u64 },
        /// One pinned-page bit-rot draw: `hit` whether rot fires this
        /// round, `pos` the seeded bit position it lands on.
        14 => RotDraw { hit: bool, pos: u64 },
    }
}

/// A decoded (or freshly recorded) event log.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// The events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Mutable access (used by tests to inject perturbations).
    pub fn events_mut(&mut self) -> &mut Vec<TraceEvent> {
        &mut self.events
    }

    /// The first `Meta` value recorded under `key`.
    pub fn meta(&self, key: u32) -> Option<u64> {
        self.events.iter().find_map(|e| match e {
            TraceEvent::Meta { key: k, val } if *k == key => Some(*val),
            _ => None,
        })
    }

    /// Number of distinct `(shard, round)` rounds that produced events.
    pub fn rounds(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::RoundStart { .. }))
            .count()
    }

    /// Encodes to the binary wire format (`CPTR` magic + version +
    /// varint-packed events).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.events.len() * 4);
        out.extend_from_slice(&TRACE_MAGIC);
        out.push(TRACE_VERSION);
        (self.events.len() as u64).put(&mut out);
        for e in &self.events {
            e.put(&mut out);
        }
        out
    }

    /// Decodes exactly `n` events that fill `body` (the wire format past
    /// its header, which is also how a [`Tracer`] buffers its stream).
    fn decode_events(body: &[u8], n: usize) -> Result<Trace, String> {
        if n > body.len() {
            return Err("event count exceeds trace size".into());
        }
        let mut pos = 0usize;
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(TraceEvent::get(body, &mut pos)?);
        }
        if pos != body.len() {
            return Err(format!("{} trailing bytes after events", body.len() - pos));
        }
        Ok(Trace { events })
    }

    /// Decodes the binary wire format.
    pub fn decode(buf: &[u8]) -> Result<Trace, String> {
        if buf.len() < 5 || buf[..4] != TRACE_MAGIC {
            return Err("not a CPTR trace".into());
        }
        if buf[4] != TRACE_VERSION {
            return Err(format!("unsupported trace version {}", buf[4]));
        }
        let mut pos = 5usize;
        let n = u64::get(buf, &mut pos)? as usize;
        Trace::decode_events(&buf[pos..], n)
    }

    /// Writes the encoded trace to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode())
    }

    /// Loads and decodes a trace from `path`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Trace> {
        let buf = std::fs::read(path)?;
        Trace::decode(&buf).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Offline divergence check: the position and surrounding rounds of
    /// the first event where two traces differ (`None` if identical).
    pub fn first_divergence(&self, other: &Trace) -> Option<Divergence> {
        let n = self.events.len().min(other.events.len());
        let mut round = 0u64;
        let mut shard = 0u32;
        for i in 0..n {
            if let TraceEvent::RoundStart {
                shard: s, round: r, ..
            } = self.events[i]
            {
                round = r;
                shard = s;
            }
            if self.events[i] != other.events[i] {
                return Some(Divergence {
                    round,
                    shard,
                    pos: i,
                    expected: Some(self.events[i].clone()),
                    got: format!("{:?}", other.events[i]),
                });
            }
        }
        if self.events.len() != other.events.len() {
            return Some(Divergence {
                round,
                shard,
                pos: n,
                expected: self.events.get(n).cloned(),
                got: format!(
                    "stream ends after {} events (reference has {})",
                    other.events.len(),
                    self.events.len()
                ),
            });
        }
        None
    }
}

/// The first point where a replay left the recorded timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Round current when the mismatch was detected (0 = before the
    /// first recorded round). Shard-local.
    pub round: u64,
    /// Shard whose round was current when the mismatch was detected.
    pub shard: u32,
    /// Index into the recorded event stream.
    pub pos: usize,
    /// The recorded event at that position (`None` if the log was
    /// already exhausted).
    pub expected: Option<TraceEvent>,
    /// What the re-execution produced instead.
    pub got: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at shard {} round {} (event {}): expected {:?}, got {}",
            self.shard, self.round, self.pos, self.expected, self.got
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Record,
    Replay,
}

/// Default active-round interval between physical-memory digests. A
/// digest re-hashes the frames written since the previous one, so the
/// interval sets how much memory history brackets a divergence (a few
/// hundred rounds) and how often a frame written every round is
/// re-hashed, not what a checkpoint costs (`fig_trace` measures both).
pub const DEFAULT_MEM_INTERVAL: u64 = 256;

/// The live recorder / replay checker handed to the service and the
/// fault plan through their configs. Interior mutability throughout —
/// the simulator is single-threaded and the tracer is shared by `Rc`.
pub struct Tracer {
    mode: Mode,
    /// Events this run produced (record and replay both re-record, so a
    /// faithful replay's `finish()` byte-equals the original trace),
    /// each appended in its wire encoding as it is emitted: a few bytes
    /// per event instead of a 48-byte enum in a doubling `Vec`.
    stream: RefCell<Vec<u8>>,
    /// Events in `stream`.
    emitted: Cell<usize>,
    /// The reference stream (replay mode only).
    recorded: Vec<TraceEvent>,
    cursor: Cell<usize>,
    diverged: RefCell<Option<Divergence>>,
    active_rounds: Cell<u64>,
    mem_interval: Cell<u64>,
    /// The shard whose round an anonymous emit (fault-plan draw, memory
    /// digest) attributes to: the last shard that
    /// opened or closed a round or emitted through `emit_on` (DESIGN.md
    /// §17). A lone shard is shard 0.
    shard_cur: Cell<u32>,
    /// One lazy round header per shard.
    shard_slots: RefCell<Vec<ShardSlot>>,
}

/// A shard's lazy round header: set by `begin_shard_round`, flushed by
/// the first real event of the round, dropped by `end_shard_round` if
/// none came.
#[derive(Clone, Copy, Default)]
struct ShardSlot {
    round: u64,
    /// The round's opening instant while its `RoundStart` is unwritten.
    header: Option<u64>,
    flushed: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("mode", &self.mode)
            .field("events", &self.emitted.get())
            .field("cursor", &self.cursor.get())
            .field("diverged", &self.diverged.borrow().is_some())
            .finish()
    }
}

impl Tracer {
    fn new(mode: Mode, recorded: Vec<TraceEvent>) -> Rc<Self> {
        Rc::new(Tracer {
            mode,
            stream: RefCell::new(Vec::new()),
            emitted: Cell::new(0),
            recorded,
            cursor: Cell::new(0),
            diverged: RefCell::new(None),
            active_rounds: Cell::new(0),
            mem_interval: Cell::new(DEFAULT_MEM_INTERVAL),
            shard_cur: Cell::new(0),
            shard_slots: RefCell::new(Vec::new()),
        })
    }

    /// A tracer that records a fresh run.
    pub fn record() -> Rc<Self> {
        Self::new(Mode::Record, Vec::new())
    }

    /// A tracer that replays `trace`, feeding recorded draws back and
    /// checking every emitted event against the log in lockstep.
    pub fn replay(trace: Trace) -> Rc<Self> {
        Self::new(Mode::Replay, trace.events)
    }

    /// Whether this tracer is in replay mode.
    pub(crate) fn is_replay(&self) -> bool {
        self.mode == Mode::Replay
    }

    /// Sets the active-round interval between memory digests.
    pub fn set_mem_interval(&self, every: u64) {
        self.mem_interval.set(every.max(1));
    }

    /// Events emitted so far (bench instrumentation).
    pub fn events_len(&self) -> usize {
        self.emitted.get()
    }

    /// The current shard's round (0 before its first).
    fn cur_round(&self) -> u64 {
        let slots = self.shard_slots.borrow();
        slots
            .get(self.shard_cur.get() as usize)
            .map_or(0, |s| s.round)
    }

    fn mark_divergence(&self, got: String) {
        let pos = self.cursor.get();
        *self.diverged.borrow_mut() = Some(Divergence {
            round: self.cur_round(),
            shard: self.shard_cur.get(),
            pos,
            expected: self.recorded.get(pos).cloned(),
            got,
        });
    }

    /// Appends `ev` to this run's stream.
    fn append(&self, ev: &TraceEvent) {
        ev.put(&mut self.stream.borrow_mut());
        self.emitted.set(self.emitted.get() + 1);
    }

    /// Appends `ev` and, in replay mode, checks it against the recorded
    /// stream. After the first divergence checking stops (the replay
    /// keeps running on live draws so it still terminates cleanly).
    fn push(&self, ev: TraceEvent) {
        if self.mode == Mode::Replay && self.diverged.borrow().is_none() {
            let pos = self.cursor.get();
            match self.recorded.get(pos) {
                Some(rec) if *rec == ev => self.cursor.set(pos + 1),
                _ => self.mark_divergence(format!("{ev:?}")),
            }
        }
        self.append(&ev);
    }

    /// Writes the current shard's buffered `RoundStart`, if it has one.
    /// An event is attributed to the shard that last emitted through
    /// `emit_on`; anonymous draws inherit it — every *active* shard round
    /// flushes its own header through a service emit first, so an
    /// inherited flush only ever surfaces an otherwise-idle round,
    /// deterministically on record and replay alike.
    fn flush_header(&self) {
        let shard = self.shard_cur.get();
        let hdr = {
            let mut slots = self.shard_slots.borrow_mut();
            slots.get_mut(shard as usize).and_then(|slot| {
                let now = slot.header.take()?;
                slot.flushed = true;
                Some((slot.round, now))
            })
        };
        if let Some((round, now)) = hdr {
            self.push(TraceEvent::RoundStart { shard, round, now });
        }
    }

    /// Emits one event on behalf of the current shard, flushing its
    /// pending round header first.
    pub fn emit(&self, ev: TraceEvent) {
        self.flush_header();
        self.push(ev);
    }

    /// Emits one event on behalf of `shard`, flushing that shard's
    /// pending round header first.
    pub fn emit_on(&self, shard: u32, ev: TraceEvent) {
        self.shard_cur.set(shard);
        self.emit(ev);
    }

    /// Opens shard-local round `round` of `shard` at virtual instant
    /// `now`. The header stays buffered until the shard emits something
    /// through `emit_on` (or an anonymous draw lands while this shard is
    /// current).
    pub fn begin_shard_round(&self, shard: u32, round: u64, now: u64) {
        self.shard_cur.set(shard);
        let mut slots = self.shard_slots.borrow_mut();
        if slots.len() <= shard as usize {
            slots.resize(shard as usize + 1, ShardSlot::default());
        }
        slots[shard as usize] = ShardSlot {
            round,
            header: Some(now),
            flushed: false,
        };
    }

    /// Closes `shard`'s round. If it was active (emitted anything), a
    /// `RoundEnd` carrying that shard's `(pending, index, stats)` hashes
    /// from the closure is appended — the closure is never called for
    /// idle rounds. Returns whether a memory digest checkpoint is due
    /// (counted across all shards' active rounds).
    pub fn end_shard_round(&self, shard: u32, hashes: impl FnOnce() -> (u64, u64, u64)) -> bool {
        let (flushed, round) = {
            let mut slots = self.shard_slots.borrow_mut();
            let slot = &mut slots[shard as usize];
            slot.header = None;
            (slot.flushed, slot.round)
        };
        if !flushed {
            return false;
        }
        let (pending, index, stats) = hashes();
        self.shard_cur.set(shard);
        self.push(TraceEvent::RoundEnd {
            shard,
            round,
            pending,
            index,
            stats,
        });
        let n = self.active_rounds.get() + 1;
        self.active_rounds.set(n);
        n.is_multiple_of(self.mem_interval.get())
    }

    /// Appends a physical-memory digest for the current shard's round.
    pub fn record_mem(&self, digest: u64) {
        self.emit(TraceEvent::MemDigest {
            round: self.cur_round(),
            digest,
        });
    }

    /// Replay mode: consumes the recorded event at the cursor if `pick`
    /// accepts it, re-appending it to this run's stream; anything else
    /// there is a divergence (`what` names the draw that was asked for).
    /// `None` means the stream diverged, now or earlier — the caller falls
    /// back to live draws.
    pub(crate) fn take<T>(
        &self,
        what: std::fmt::Arguments<'_>,
        pick: impl FnOnce(&TraceEvent) -> Option<T>,
    ) -> Option<T> {
        debug_assert!(self.is_replay());
        if self.diverged.borrow().is_some() {
            return None;
        }
        self.flush_header();
        if self.diverged.borrow().is_some() {
            return None;
        }
        let pos = self.cursor.get();
        if let Some(ev) = self.recorded.get(pos) {
            if let Some(v) = pick(ev) {
                self.cursor.set(pos + 1);
                self.append(ev);
                return Some(v);
            }
        }
        self.mark_divergence(format!("{what} was requested"));
        None
    }

    /// The first divergence, if the replay has left the recorded
    /// timeline.
    pub fn divergence(&self) -> Option<Divergence> {
        self.diverged.borrow().clone()
    }

    /// Closes the run and returns what it produced as a [`Trace`]. In
    /// replay mode, recorded events the re-execution never consumed are
    /// a divergence too (the run ended early) — latched here.
    pub fn finish(&self) -> Trace {
        if self.mode == Mode::Replay
            && self.diverged.borrow().is_none()
            && self.cursor.get() < self.recorded.len()
        {
            self.mark_divergence(format!(
                "run ended with {} recorded events unconsumed",
                self.recorded.len() - self.cursor.get()
            ));
        }
        Trace::decode_events(&self.stream.borrow(), self.emitted.get())
            .expect("the tracer's own encoding decodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_testkit::{
        check_with, edge_u64, prop_assert, prop_assert_eq, Config, Damage, TestRng,
    };

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Meta { key: 1, val: 42 },
            TraceEvent::RaceTimes {
                times: vec![5, 1 << 40, 0],
            },
            TraceEvent::RoundStart {
                shard: 0,
                round: 1,
                now: 12345,
            },
            TraceEvent::Drained {
                copies: 4,
                syncs: 1,
            },
            TraceEvent::Admit {
                client: 2,
                len: 4096,
                admitted: true,
            },
            TraceEvent::SchedPick { client: 2 },
            TraceEvent::DmaDraw { fault: 2 },
            TraceEvent::AtcDraw { stale: false },
            TraceEvent::TaskDone { tid: 7, fault: 0 },
            TraceEvent::RoundEnd {
                shard: 0,
                round: 1,
                pending: u64::MAX,
                index: 0,
                stats: 0xdead_beef,
            },
            TraceEvent::MemDigest {
                round: 1,
                digest: FNV_OFFSET,
            },
            TraceEvent::CrashDraw {
                point: 3,
                fire: true,
            },
            TraceEvent::CorruptDraw {
                kind: 1,
                arg: 1 << 33,
            },
            TraceEvent::RotDraw {
                hit: true,
                pos: u64::MAX,
            },
            TraceEvent::RoundStart {
                shard: 3,
                round: 17,
                now: 1 << 50,
            },
            TraceEvent::RoundEnd {
                shard: 3,
                round: 17,
                pending: u64::MAX,
                index: 1,
                stats: 0xfeed_f00d,
            },
        ]
    }

    #[test]
    fn codec_roundtrips_every_event() {
        let t = Trace {
            events: sample_events(),
        };
        let bytes = t.encode();
        assert_eq!(&bytes[..4], b"CPTR");
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Trace::decode(b"").is_err());
        assert!(Trace::decode(b"NOPE\x01\x00").is_err());
        assert!(Trace::decode(b"CPTR\x04\x00").is_err(), "bad version");
        let mut bytes = Trace {
            events: sample_events(),
        }
        .encode();
        bytes.push(0xff);
        assert!(Trace::decode(&bytes).is_err(), "trailing bytes");
        bytes.pop();
        bytes.pop();
        assert!(Trace::decode(&bytes).is_err(), "truncated");
    }

    /// A trace of an earlier version frames rounds and defines hashes
    /// differently: it is refused by name, not replayed to a false
    /// divergence.
    #[test]
    fn earlier_version_headers_are_refused() {
        let mut bytes = Trace {
            events: sample_events(),
        }
        .encode();
        assert_eq!(bytes[4], TRACE_VERSION);
        for v in [1u8, 2] {
            bytes[4] = v;
            let err = Trace::decode(&bytes).unwrap_err();
            assert_eq!(err, format!("unsupported trace version {v}"));
        }
    }

    /// Tag 1 was the workload `Submission`, which nothing wrote; tags 15
    /// and 16 were version 2's per-shard round frame. A version-3 buffer
    /// carrying any of them is refused by the event decoder.
    #[test]
    fn retired_tags_are_refused() {
        for tag in [1u8, 15, 16] {
            let err = TraceEvent::get(&[tag, 3, 17, 0, 0, 0], &mut 0).unwrap_err();
            assert_eq!(err, format!("unknown TraceEvent tag {tag}"));
        }
    }

    #[test]
    fn replay_lockstep_accepts_faithful_stream() {
        let rec = Tracer::record();
        rec.begin_shard_round(0, 1, 10);
        rec.emit(TraceEvent::SchedPick { client: 1 });
        rec.end_shard_round(0, || (7, 8, 9));
        let trace = rec.finish();

        let rep = Tracer::replay(trace.clone());
        rep.begin_shard_round(0, 1, 10);
        rep.emit(TraceEvent::SchedPick { client: 1 });
        rep.end_shard_round(0, || (7, 8, 9));
        assert_eq!(rep.divergence(), None);
        assert_eq!(rep.finish().encode(), trace.encode());
    }

    #[test]
    fn replay_feeds_back_draws_and_flags_unconsumed_tail() {
        let rec = Tracer::record();
        rec.begin_shard_round(0, 1, 1);
        rec.emit(TraceEvent::DmaDraw { fault: 3 });
        rec.emit(TraceEvent::AtcDraw { stale: true });
        rec.end_shard_round(0, || (0, 0, 0));
        let trace = rec.finish();

        let rep = Tracer::replay(trace.clone());
        rep.begin_shard_round(0, 1, 1);
        // Headers flush through draw consumption too: emit something
        // first the way the service would (drain/sched before draws).
        rep.emit(TraceEvent::DmaDraw { fault: 3 });
        let atc = rep.take(format_args!("an ATC staleness draw"), |ev| match ev {
            &TraceEvent::AtcDraw { stale } => Some(stale),
            _ => None,
        });
        assert_eq!(atc, Some(true));
        rep.end_shard_round(0, || (0, 0, 0));
        assert_eq!(rep.divergence(), None);

        // A replay that stops early leaves recorded events unconsumed.
        let rep2 = Tracer::replay(trace);
        rep2.begin_shard_round(0, 1, 1);
        rep2.emit(TraceEvent::DmaDraw { fault: 3 });
        let _ = rep2.finish();
        assert!(rep2.divergence().is_some(), "unconsumed tail must flag");
    }

    #[test]
    fn shard_round_headers_are_lazy_and_interleave() {
        let t = Tracer::record();
        // Shard 1 opens a round, shard 0 opens one too; only shard 1
        // emits — shard 0's header must never appear.
        t.begin_shard_round(0, 5, 100);
        t.begin_shard_round(1, 7, 100);
        t.emit_on(
            1,
            TraceEvent::Drained {
                copies: 2,
                syncs: 0,
            },
        );
        assert!(!t.end_shard_round(0, || unreachable!("idle shard rounds are never hashed")));
        t.end_shard_round(1, || (4, 5, 6));
        let trace = t.finish();
        assert_eq!(
            trace.events(),
            &[
                TraceEvent::RoundStart {
                    shard: 1,
                    round: 7,
                    now: 100
                },
                TraceEvent::Drained {
                    copies: 2,
                    syncs: 0
                },
                TraceEvent::RoundEnd {
                    shard: 1,
                    round: 7,
                    pending: 4,
                    index: 5,
                    stats: 6
                },
            ]
        );
    }

    #[test]
    fn shard_replay_divergence_names_shard_and_round() {
        let rec = Tracer::record();
        for (shard, round) in [(0u32, 1u64), (1, 1), (0, 2), (1, 2)] {
            rec.begin_shard_round(shard, round, round * 10);
            rec.emit_on(shard, TraceEvent::SchedPick { client: shard });
            rec.end_shard_round(shard, || (round, round, round));
        }
        let trace = rec.finish();

        let rep = Tracer::replay(trace);
        for (shard, round) in [(0u32, 1u64), (1, 1), (0, 2)] {
            rep.begin_shard_round(shard, round, round * 10);
            rep.emit_on(shard, TraceEvent::SchedPick { client: shard });
            rep.end_shard_round(shard, || (round, round, round));
        }
        // Shard 1's second round picks the wrong client, after shard 0
        // has opened a later round of its own: the divergence names the
        // round of the shard that emitted, not the last one opened.
        rep.begin_shard_round(1, 2, 20);
        rep.begin_shard_round(0, 3, 20);
        rep.emit_on(1, TraceEvent::SchedPick { client: 9 });
        rep.end_shard_round(1, || (2, 2, 2));
        let d = rep.divergence().expect("must diverge");
        assert_eq!((d.shard, d.round), (1, 2), "{d}");
        assert_eq!(d.expected, Some(TraceEvent::SchedPick { client: 1 }), "{d}");
    }

    #[test]
    fn offline_first_divergence_localizes() {
        let a = Trace {
            events: sample_events(),
        };
        let mut b = a.clone();
        b.events_mut()[7] = TraceEvent::DmaDraw { fault: 0 };
        let d = a.first_divergence(&b).expect("must differ");
        assert_eq!(d.pos, 7);
        assert_eq!(d.round, 1);
        assert_eq!(a.first_divergence(&a), None);
    }

    /// A `Meta` stream whose `key` and `val` varints are spelled by hand.
    fn meta_stream(key: &[u8], val: &[u8]) -> Vec<u8> {
        let mut buf = b"CPTR".to_vec();
        buf.extend_from_slice(&[TRACE_VERSION, 1, 0]);
        buf.extend_from_slice(key);
        buf.extend_from_slice(val);
        buf
    }

    /// A varint's 10th byte holds bit 63 alone: a 2 there used to decode
    /// to a wrong value instead of an error.
    #[test]
    fn decode_refuses_a_varint_past_64_bits() {
        let max = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];
        assert_eq!(
            Trace::decode(&meta_stream(&[1], &max)),
            Ok(Trace {
                events: vec![TraceEvent::Meta {
                    key: 1,
                    val: u64::MAX
                }]
            })
        );
        let mut over = max;
        over[9] = 0x02;
        assert!(Trace::decode(&meta_stream(&[1], &over)).is_err());
    }

    /// A `u32` field carrying 2^32 used to decode truncated to 0.
    #[test]
    fn decode_refuses_an_over_wide_u32_field() {
        let two_pow_32 = [0x80, 0x80, 0x80, 0x80, 0x10];
        assert!(Trace::decode(&meta_stream(&two_pow_32, &[0])).is_err());
        let u32_max = [0xff, 0xff, 0xff, 0xff, 0x0f];
        assert!(Trace::decode(&meta_stream(&u32_max, &[0])).is_ok());
    }

    /// An event of a random kind, each arm numbered by its tag; a draw of
    /// the retired tag 1 falls to the last arm.
    fn random_event(rng: &mut TestRng) -> TraceEvent {
        let mut v = || edge_u64(rng);
        match v() % 15 {
            0 => TraceEvent::Meta {
                key: v() as u32,
                val: v(),
            },
            2 => TraceEvent::RaceTimes {
                times: (0..v() % 5).map(|_| v()).collect(),
            },
            3 => TraceEvent::RoundStart {
                shard: v() as u32,
                round: v(),
                now: v(),
            },
            4 => TraceEvent::Drained {
                copies: v(),
                syncs: v(),
            },
            5 => TraceEvent::Admit {
                client: v() as u32,
                len: v(),
                admitted: v() % 2 == 0,
            },
            6 => TraceEvent::SchedPick { client: v() as u32 },
            7 => TraceEvent::DmaDraw { fault: v() as u8 },
            8 => TraceEvent::AtcDraw {
                stale: v() % 2 == 0,
            },
            9 => TraceEvent::TaskDone {
                tid: v(),
                fault: v() as u8,
            },
            10 => TraceEvent::RoundEnd {
                shard: v() as u32,
                round: v(),
                pending: v(),
                index: v(),
                stats: v(),
            },
            11 => TraceEvent::MemDigest {
                round: v(),
                digest: v(),
            },
            12 => TraceEvent::CrashDraw {
                point: v() as u8,
                fire: v() % 2 == 0,
            },
            13 => TraceEvent::CorruptDraw {
                kind: v() as u8,
                arg: v(),
            },
            _ => TraceEvent::RotDraw {
                hit: v() % 2 == 0,
                pos: v(),
            },
        }
    }

    /// `Trace::decode` is total: a valid stream of sampled events, cut,
    /// bit-flipped or spliced, decodes to `Ok` or `Err` and never panics;
    /// whatever it accepts re-encodes to a stream that decodes to the
    /// same events, and an undamaged stream decodes to what was encoded.
    #[test]
    fn decode_is_total_on_damaged_streams() {
        let mut cfg = Config::from_env();
        if std::env::var_os("TESTKIT_CASES").is_none() {
            cfg.cases = 2000;
        }
        let gen = |rng: &mut TestRng| {
            let n = rng.gen_range(24) as usize;
            let events: Vec<TraceEvent> = (0..n).map(|_| random_event(rng)).collect();
            (events, rng.gen_bool(0.75).then(|| Damage::random(rng)))
        };
        check_with(
            &cfg,
            gen,
            |_| Vec::new(),
            |(events, damage)| {
                let trace = Trace {
                    events: events.clone(),
                };
                let mut buf = trace.encode();
                if let Some(damage) = damage {
                    damage.apply(&mut buf);
                }
                match Trace::decode(&buf) {
                    Ok(got) => {
                        prop_assert_eq!(Trace::decode(&got.encode()), Ok(got.clone()));
                        if damage.is_none() {
                            prop_assert_eq!(got, trace);
                        }
                    }
                    Err(e) => {
                        prop_assert!(damage.is_some(), "an undamaged stream was refused: {e}")
                    }
                }
                Ok(())
            },
        );
    }
}
