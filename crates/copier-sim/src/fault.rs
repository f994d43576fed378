//! Deterministic fault injection (chaos substrate).
//!
//! A [`FaultPlan`] is a seed-driven oracle that higher layers consult at
//! well-defined interposition points: the DMA engine before processing each
//! descriptor, the ATCache on each hit, and test harnesses when scheduling
//! `munmap`/exit races. Because the simulator is single-threaded and every
//! decision goes through one seeded PRNG, a fault schedule is fully
//! determined by `(seed, workload)` — the same seed replays the exact same
//! hardware failures at the exact same virtual instants, which turns any
//! chaos-found bug into a one-command regression (record-and-replay style).
//!
//! The plan only *decides*; the owning layer implements the failure
//! semantics (retry, quarantine, CPU fallback, re-walk). Injection counters
//! are kept here so tests can assert that a schedule actually exercised the
//! paths it claims to.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::rng::SimRng;
use crate::time::Nanos;
use crate::trace::{TraceEvent, Tracer};

/// A DMA descriptor-level failure decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaFault {
    /// Transient error: the descriptor fails after partial device time;
    /// a resubmission is expected to succeed.
    Transient,
    /// Hard channel death: the channel is permanently lost and every
    /// descriptor queued or later submitted to it must fail.
    HardFail,
    /// Completion timeout: the device stalls far beyond the modeled
    /// transfer time; the submitter should give up and cancel.
    Timeout,
}

/// A silent-corruption decision for one DMA transfer: the device moves
/// wrong bytes but still reports success — the failure class completion
/// status cannot see. The owning layer (the DMA engine's device loop)
/// applies the byte damage; the payload here is only a seeded position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SilentCorruption {
    /// One bit of the destination is flipped in flight. `pos` is a raw
    /// seeded draw; the engine reduces it modulo the transfer's bit
    /// length.
    BitFlip {
        /// Seeded bit-position draw (reduced modulo `len * 8`).
        pos: u64,
    },
    /// The payload lands at a wrong destination offset (a misdirected
    /// write): the engine rotates the written bytes by a non-zero shift
    /// derived from `shift`.
    Misdirect {
        /// Seeded offset-shift draw (reduced to `1..len`).
        shift: u64,
    },
}

/// A round sub-step at which the service consults the crash oracle.
///
/// The points bracket the interesting control-plane states: after tasks
/// moved off the submission rings but before any journal flush
/// (`MidDrain`), while pins are held but no byte has moved
/// (`MidDispatch`), after bytes landed but before handlers/credits
/// settle (`PreFinalize`), and during the journal append itself, where
/// the final record is torn mid-write (`MidJournalFlush`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// After ring drain/sync, before admitted submissions are journaled.
    MidDrain,
    /// After translate+pin planning, before the copy batch dispatches.
    MidDispatch,
    /// After the batch executed, before the completion/finalize pass.
    PreFinalize,
    /// During the journal flush: the final staged record is torn.
    MidJournalFlush,
}

impl CrashPoint {
    /// Wire encoding of the crash point.
    pub(crate) fn code(self) -> u8 {
        match self {
            CrashPoint::MidDrain => 0,
            CrashPoint::MidDispatch => 1,
            CrashPoint::PreFinalize => 2,
            CrashPoint::MidJournalFlush => 3,
        }
    }
}

/// Probabilities (per interposition event) of each injected fault class.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the decision PRNG.
    pub seed: u64,
    /// Per-descriptor probability of a transient DMA error.
    pub dma_transient_prob: f64,
    /// Per-descriptor probability of hard channel death.
    pub dma_hard_prob: f64,
    /// Per-descriptor probability of a completion timeout stall.
    pub dma_timeout_prob: f64,
    /// Per-hit probability that a cached translation is treated as stale
    /// (forcing a fresh page walk).
    pub atc_stale_prob: f64,
    /// Per-crash-point probability that the service dies there. Zero
    /// disables the crash oracle entirely — no PRNG draw is consumed, so
    /// crash-free schedules are byte-identical to pre-crash-layer runs.
    pub crash_prob: f64,
    /// Upper bound on injected crashes; past it every draw decides "no"
    /// (the draw is still consumed, keeping the schedule stable).
    pub max_crashes: u64,
    /// Per-descriptor probability of an in-flight DMA bit flip (silent:
    /// the transfer still reports success). Zero, together with
    /// `dma_misdirect_prob == 0`, disables the corruption oracle with no
    /// PRNG draw consumed.
    pub dma_flip_prob: f64,
    /// Per-descriptor probability of a misdirected DMA write (payload
    /// lands at a wrong destination offset; still reports success).
    pub dma_misdirect_prob: f64,
    /// Per-consultation probability of a pinned-page bit-rot event
    /// (scrubber substrate). Zero disables the rot oracle with no PRNG
    /// draw consumed.
    pub rot_prob: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            dma_transient_prob: 0.0,
            dma_hard_prob: 0.0,
            dma_timeout_prob: 0.0,
            atc_stale_prob: 0.0,
            crash_prob: 0.0,
            max_crashes: 0,
            dma_flip_prob: 0.0,
            dma_misdirect_prob: 0.0,
            rot_prob: 0.0,
        }
    }
}

/// Counters of faults actually injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Transient DMA errors injected.
    pub dma_transient: u64,
    /// Hard channel deaths injected.
    pub dma_hard: u64,
    /// DMA completion timeouts injected.
    pub dma_timeout: u64,
    /// Stale ATCache hits injected.
    pub atc_stale: u64,
    /// Service crashes injected.
    pub crashes: u64,
    /// Silent DMA bit flips injected.
    pub dma_flips: u64,
    /// Misdirected DMA writes injected.
    pub dma_misdirects: u64,
    /// Pinned-page bit-rot events injected.
    pub rot_events: u64,
}

impl FaultLog {
    /// Total injected faults of any class.
    pub fn total(&self) -> u64 {
        self.dma_transient
            + self.dma_hard
            + self.dma_timeout
            + self.atc_stale
            + self.crashes
            + self.dma_flips
            + self.dma_misdirects
            + self.rot_events
    }
}

/// A seeded fault-injection oracle shared across layers.
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SimRng,
    log: Cell<FaultLog>,
    /// Record/replay hook. In record mode every decision is appended to
    /// the trace; in replay mode decisions are *sourced from* the trace
    /// (the PRNG is not consulted) until the stream diverges, after
    /// which the oracle falls back to live draws so the run terminates.
    tracer: RefCell<Option<Rc<Tracer>>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("cfg", &self.cfg)
            .field("log", &self.log.get())
            .finish()
    }
}

impl FaultPlan {
    /// Creates a plan from a config (the PRNG is seeded from `cfg.seed`).
    pub fn new(cfg: FaultConfig) -> Rc<Self> {
        let rng = SimRng::new(cfg.seed);
        Rc::new(FaultPlan {
            cfg,
            rng,
            log: Cell::new(FaultLog::default()),
            tracer: RefCell::new(None),
        })
    }

    /// Attaches a record/replay tracer to this oracle's decision stream.
    pub fn set_tracer(&self, tracer: &Rc<Tracer>) {
        *self.tracer.borrow_mut() = Some(Rc::clone(tracer));
    }

    /// One oracle decision through the record/replay hook. Replaying, it
    /// is the recorded event at the cursor, if `pick` accepts it; once the
    /// stream has diverged — and in every other mode — `live` draws it,
    /// from the never-advanced replay PRNG in the diverged case, so the
    /// run stays deterministic and terminates. A recording run appends
    /// the live event to the trace.
    fn draw<T>(
        &self,
        what: std::fmt::Arguments<'_>,
        pick: impl Fn(&TraceEvent) -> Option<T>,
        live: impl FnOnce(&SimRng) -> TraceEvent,
    ) -> T {
        let tracer = self.tracer.borrow().clone();
        let replay = tracer.as_deref().filter(|t| t.is_replay());
        if let Some(v) = replay.and_then(|t| t.take(what, &pick)) {
            return v;
        }
        let ev = live(&self.rng);
        let v = pick(&ev).expect("a live draw is of the kind that was asked for");
        if let Some(t) = tracer.as_deref().filter(|t| !t.is_replay()) {
            t.emit(ev);
        }
        v
    }

    /// Decides the fate of one DMA descriptor. Classes are checked in
    /// severity order (hard death, then timeout, then transient); each
    /// check consumes exactly one PRNG draw so the decision stream is
    /// independent of which classes are enabled.
    pub fn decide_dma(&self) -> Option<DmaFault> {
        let code = self.draw(
            format_args!("a DMA fault draw"),
            |ev| match ev {
                &TraceEvent::DmaDraw { fault } => Some(fault),
                _ => None,
            },
            |rng| {
                let hard = rng.gen_bool(self.cfg.dma_hard_prob);
                let timeout = rng.gen_bool(self.cfg.dma_timeout_prob);
                let transient = rng.gen_bool(self.cfg.dma_transient_prob);
                let fault = if hard {
                    Some(DmaFault::HardFail)
                } else if timeout {
                    Some(DmaFault::Timeout)
                } else if transient {
                    Some(DmaFault::Transient)
                } else {
                    None
                };
                TraceEvent::DmaDraw {
                    fault: Self::dma_code(fault),
                }
            },
        );
        let fault = Self::dma_from_code(code);
        let mut log = self.log.get();
        match fault {
            Some(DmaFault::HardFail) => log.dma_hard += 1,
            Some(DmaFault::Timeout) => log.dma_timeout += 1,
            Some(DmaFault::Transient) => log.dma_transient += 1,
            None => {}
        }
        self.log.set(log);
        fault
    }

    /// Wire encoding of a DMA decision: 0 none, 1 transient, 2 hard,
    /// 3 timeout.
    pub(crate) fn dma_code(fault: Option<DmaFault>) -> u8 {
        match fault {
            None => 0,
            Some(DmaFault::Transient) => 1,
            Some(DmaFault::HardFail) => 2,
            Some(DmaFault::Timeout) => 3,
        }
    }

    fn dma_from_code(code: u8) -> Option<DmaFault> {
        match code {
            1 => Some(DmaFault::Transient),
            2 => Some(DmaFault::HardFail),
            3 => Some(DmaFault::Timeout),
            _ => None,
        }
    }

    /// Decides whether an ATCache hit should be treated as stale.
    pub fn decide_atc_stale(&self) -> bool {
        let stale = self.draw(
            format_args!("an ATC staleness draw"),
            |ev| match ev {
                &TraceEvent::AtcDraw { stale } => Some(stale),
                _ => None,
            },
            |rng| TraceEvent::AtcDraw {
                stale: rng.gen_bool(self.cfg.atc_stale_prob),
            },
        );
        if stale {
            let mut log = self.log.get();
            log.atc_stale += 1;
            self.log.set(log);
        }
        stale
    }

    /// Decides whether the service crashes at `point`.
    ///
    /// With `crash_prob == 0.0` this consumes no draw at all, so enabling
    /// the crash-capable oracle does not perturb crash-free schedules.
    /// Otherwise exactly one draw is consumed per consultation; once
    /// `max_crashes` fired, the draw still happens but the answer is
    /// forced to "no", keeping the decision stream length stable.
    pub fn decide_crash(&self, point: CrashPoint) -> bool {
        if self.cfg.crash_prob <= 0.0 {
            return false;
        }
        let point = point.code();
        let fire = self.draw(
            format_args!("a crash draw at point {point}"),
            |ev| match ev {
                &TraceEvent::CrashDraw { point: p, fire } if p == point => Some(fire),
                _ => None,
            },
            |rng| TraceEvent::CrashDraw {
                point,
                fire: rng.gen_bool(self.cfg.crash_prob)
                    && self.log.get().crashes < self.cfg.max_crashes,
            },
        );
        if fire {
            let mut log = self.log.get();
            log.crashes += 1;
            self.log.set(log);
        }
        fire
    }

    /// Decides whether one DMA transfer is silently corrupted, and how.
    ///
    /// With both corruption probabilities zero this consumes no draw at
    /// all (same contract as the crash oracle), so corruption-free
    /// schedules are byte-identical to pre-integrity-layer runs.
    /// Otherwise exactly three draws are consumed per consultation
    /// (flip check, misdirect check, position payload) regardless of
    /// which classes are enabled or which fires; a flip outranks a
    /// misdirect when both fire.
    pub fn decide_corrupt(&self) -> Option<SilentCorruption> {
        if self.cfg.dma_flip_prob <= 0.0 && self.cfg.dma_misdirect_prob <= 0.0 {
            return None;
        }
        let (kind, arg) = self.draw(
            format_args!("a silent-corruption draw"),
            |ev| match ev {
                &TraceEvent::CorruptDraw { kind, arg } => Some((kind, arg)),
                _ => None,
            },
            |rng| {
                let flip = rng.gen_bool(self.cfg.dma_flip_prob);
                let misdirect = rng.gen_bool(self.cfg.dma_misdirect_prob);
                let payload = rng.next_u64();
                let (kind, arg) = Self::corrupt_code(if flip {
                    Some(SilentCorruption::BitFlip { pos: payload })
                } else if misdirect {
                    Some(SilentCorruption::Misdirect { shift: payload })
                } else {
                    None
                });
                TraceEvent::CorruptDraw { kind, arg }
            },
        );
        let c = Self::corrupt_from_code(kind, arg);
        let mut log = self.log.get();
        match c {
            Some(SilentCorruption::BitFlip { .. }) => log.dma_flips += 1,
            Some(SilentCorruption::Misdirect { .. }) => log.dma_misdirects += 1,
            None => {}
        }
        self.log.set(log);
        c
    }

    /// Wire encoding of a corruption decision: kind 0 none, 1 bit flip,
    /// 2 misdirect; `arg` carries the position/shift payload.
    pub(crate) fn corrupt_code(c: Option<SilentCorruption>) -> (u8, u64) {
        match c {
            None => (0, 0),
            Some(SilentCorruption::BitFlip { pos }) => (1, pos),
            Some(SilentCorruption::Misdirect { shift }) => (2, shift),
        }
    }

    fn corrupt_from_code(kind: u8, arg: u64) -> Option<SilentCorruption> {
        match kind {
            1 => Some(SilentCorruption::BitFlip { pos: arg }),
            2 => Some(SilentCorruption::Misdirect { shift: arg }),
            _ => None,
        }
    }

    /// Decides whether a pinned-page bit-rot event fires, returning the
    /// seeded bit position it lands on (the owning layer reduces it to a
    /// byte inside the scrub-registered footprint).
    ///
    /// With `rot_prob == 0.0` this consumes no draw at all; otherwise
    /// exactly two draws (hit check, position payload) per consultation,
    /// whether or not the event fires.
    pub fn decide_rot(&self) -> Option<u64> {
        if self.cfg.rot_prob <= 0.0 {
            return None;
        }
        let (hit, pos) = self.draw(
            format_args!("a bit-rot draw"),
            |ev| match ev {
                &TraceEvent::RotDraw { hit, pos } => Some((hit, pos)),
                _ => None,
            },
            |rng| TraceEvent::RotDraw {
                hit: rng.gen_bool(self.cfg.rot_prob),
                pos: rng.next_u64(),
            },
        );
        if !hit {
            return None;
        }
        let mut log = self.log.get();
        log.rot_events += 1;
        self.log.set(log);
        Some(pos)
    }

    /// Draws `n` virtual instants uniformly in `[0, horizon)` for delayed
    /// race events (`munmap`/exit against in-flight copies), sorted
    /// ascending. Harnesses spawn timer tasks at these instants.
    pub fn race_times(&self, n: usize, horizon: Nanos) -> Vec<Nanos> {
        assert!(horizon > Nanos::ZERO);
        let times = self.draw(
            format_args!("a batch of {n} race times"),
            |ev| match ev {
                TraceEvent::RaceTimes { times } if times.len() == n => Some(times.clone()),
                _ => None,
            },
            |rng| {
                let mut times: Vec<u64> =
                    (0..n).map(|_| rng.gen_range(horizon.as_nanos())).collect();
                times.sort();
                TraceEvent::RaceTimes { times }
            },
        );
        times.into_iter().map(Nanos).collect()
    }

    /// Snapshot of the injected-fault counters.
    pub fn log(&self) -> FaultLog {
        self.log.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_config(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            dma_transient_prob: 0.3,
            dma_hard_prob: 0.1,
            dma_timeout_prob: 0.1,
            atc_stale_prob: 0.2,
            ..Default::default()
        }
    }

    fn chaotic(seed: u64) -> Rc<FaultPlan> {
        FaultPlan::new(chaotic_config(seed))
    }

    #[test]
    fn same_seed_same_decision_stream() {
        let a = chaotic(77);
        let b = chaotic(77);
        for _ in 0..500 {
            assert_eq!(a.decide_dma(), b.decide_dma());
            assert_eq!(a.decide_atc_stale(), b.decide_atc_stale());
        }
        assert_eq!(a.log(), b.log());
        assert!(a.log().total() > 0, "a chaotic plan must inject something");
    }

    #[test]
    fn zero_probabilities_inject_nothing() {
        let p = FaultPlan::new(FaultConfig::default());
        for _ in 0..100 {
            assert_eq!(p.decide_dma(), None);
            assert!(!p.decide_atc_stale());
        }
        assert_eq!(p.log(), FaultLog::default());
    }

    #[test]
    fn race_times_sorted_within_horizon_and_reproducible() {
        let a = chaotic(5).race_times(8, Nanos::from_millis(1));
        let b = chaotic(5).race_times(8, Nanos::from_millis(1));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < Nanos::from_millis(1)));
    }

    #[test]
    fn recorded_decision_stream_replays_verbatim() {
        let rec = Tracer::record();
        let a = chaotic(31);
        a.set_tracer(&rec);
        let mut decisions = Vec::new();
        for _ in 0..200 {
            decisions.push((a.decide_dma(), a.decide_atc_stale()));
        }
        let races = a.race_times(4, Nanos::from_millis(1));
        let trace = rec.finish();

        // Replay against a plan with a DIFFERENT seed: every decision
        // must come from the log, not the PRNG.
        let rep = Tracer::replay(trace);
        let b = chaotic(9999);
        b.set_tracer(&rep);
        for &(dma, atc) in &decisions {
            assert_eq!(b.decide_dma(), dma);
            assert_eq!(b.decide_atc_stale(), atc);
        }
        assert_eq!(b.race_times(4, Nanos::from_millis(1)), races);
        assert_eq!(rep.divergence(), None);
        assert_eq!(a.log(), b.log(), "replay reproduces injection counters");
    }

    #[test]
    fn decision_stream_isolated_per_class_count() {
        // Disabling one class must not perturb which events the others hit:
        // each decide_dma consumes a fixed number of draws.
        let all = chaotic(9);
        let no_timeout = FaultPlan::new(FaultConfig {
            seed: 9,
            dma_timeout_prob: 0.0,
            ..chaotic_config(9)
        });
        let mut hard_a = 0;
        let mut hard_b = 0;
        for _ in 0..400 {
            if all.decide_dma() == Some(DmaFault::HardFail) {
                hard_a += 1;
            }
            if no_timeout.decide_dma() == Some(DmaFault::HardFail) {
                hard_b += 1;
            }
        }
        assert_eq!(hard_a, hard_b, "hard-fail schedule independent of timeouts");
    }

    #[test]
    fn disabled_crash_oracle_consumes_no_draws() {
        // The crash oracle must be free when off: interleaving
        // decide_crash calls with crash_prob == 0 must not shift the DMA
        // decision stream.
        let plain = chaotic(13);
        let probed = chaotic(13);
        for _ in 0..300 {
            assert!(!probed.decide_crash(CrashPoint::MidDrain));
            assert_eq!(plain.decide_dma(), probed.decide_dma());
        }
        assert_eq!(probed.log().crashes, 0);
    }

    #[test]
    fn crash_schedule_is_seeded_and_bounded() {
        let mk = || {
            FaultPlan::new(FaultConfig {
                seed: 41,
                crash_prob: 0.2,
                max_crashes: 3,
                ..Default::default()
            })
        };
        let a = mk();
        let b = mk();
        let mut fired = Vec::new();
        for i in 0..200 {
            let fa = a.decide_crash(CrashPoint::PreFinalize);
            assert_eq!(fa, b.decide_crash(CrashPoint::PreFinalize));
            if fa {
                fired.push(i);
            }
        }
        assert_eq!(a.log().crashes, 3, "max_crashes bounds injection");
        assert_eq!(fired.len(), 3);
        // Draws past the bound are still consumed: the DMA stream after
        // the crash budget is spent matches a plan that kept drawing.
        assert_eq!(a.decide_dma(), b.decide_dma());
    }

    #[test]
    fn disabled_corruption_oracle_consumes_no_draws() {
        // Corruption and rot oracles must be free when off: probing them
        // with zero probabilities must not shift the DMA decision stream.
        let plain = chaotic(21);
        let probed = chaotic(21);
        for _ in 0..300 {
            assert_eq!(probed.decide_corrupt(), None);
            assert_eq!(probed.decide_rot(), None);
            assert_eq!(plain.decide_dma(), probed.decide_dma());
        }
        let log = probed.log();
        assert_eq!(log.dma_flips + log.dma_misdirects + log.rot_events, 0);
    }

    #[test]
    fn corruption_schedule_is_seeded_and_class_isolated() {
        let mk = |misdirect: f64| {
            FaultPlan::new(FaultConfig {
                seed: 63,
                dma_flip_prob: 0.15,
                dma_misdirect_prob: misdirect,
                rot_prob: 0.1,
                ..Default::default()
            })
        };
        let a = mk(0.15);
        let b = mk(0.15);
        let no_misdirect = mk(0.0);
        let mut flips_a = 0;
        let mut flips_c = 0;
        for _ in 0..400 {
            let ca = a.decide_corrupt();
            assert_eq!(ca, b.decide_corrupt());
            assert_eq!(a.decide_rot(), b.decide_rot());
            if matches!(ca, Some(SilentCorruption::BitFlip { .. })) {
                flips_a += 1;
            }
            if matches!(
                no_misdirect.decide_corrupt(),
                Some(SilentCorruption::BitFlip { .. })
            ) {
                flips_c += 1;
            }
            let _ = no_misdirect.decide_rot();
        }
        assert_eq!(flips_a, flips_c, "flip schedule independent of misdirects");
        assert!(a.log().dma_flips > 0, "a chaotic plan must inject flips");
        assert!(a.log().rot_events > 0, "rot oracle must fire at 10%");
    }

    #[test]
    fn recorded_corruption_draws_replay_verbatim() {
        let rec = Tracer::record();
        let a = FaultPlan::new(FaultConfig {
            seed: 11,
            dma_flip_prob: 0.2,
            dma_misdirect_prob: 0.2,
            rot_prob: 0.15,
            ..Default::default()
        });
        a.set_tracer(&rec);
        let mut decisions = Vec::new();
        for _ in 0..150 {
            decisions.push((a.decide_corrupt(), a.decide_rot()));
        }
        let trace = rec.finish();

        let rep = Tracer::replay(trace);
        let b = FaultPlan::new(FaultConfig {
            seed: 0xBEEF, // different seed: every decision must come from the log
            dma_flip_prob: 0.2,
            dma_misdirect_prob: 0.2,
            rot_prob: 0.15,
            ..Default::default()
        });
        b.set_tracer(&rep);
        for &(c, r) in &decisions {
            assert_eq!(b.decide_corrupt(), c);
            assert_eq!(b.decide_rot(), r);
        }
        assert_eq!(rep.divergence(), None);
        assert_eq!(a.log(), b.log(), "replay reproduces injection counters");
    }

    #[test]
    fn recorded_crash_draws_replay_verbatim() {
        let rec = Tracer::record();
        let a = FaultPlan::new(FaultConfig {
            seed: 7,
            crash_prob: 0.15,
            max_crashes: 2,
            ..Default::default()
        });
        a.set_tracer(&rec);
        let points = [
            CrashPoint::MidDrain,
            CrashPoint::MidDispatch,
            CrashPoint::PreFinalize,
            CrashPoint::MidJournalFlush,
        ];
        let mut decisions = Vec::new();
        for i in 0..100usize {
            decisions.push(a.decide_crash(points[i % points.len()]));
        }
        let trace = rec.finish();

        let rep = Tracer::replay(trace);
        let b = FaultPlan::new(FaultConfig {
            seed: 0xDEAD, // different seed: every decision must come from the log
            crash_prob: 0.15,
            max_crashes: 2,
            ..Default::default()
        });
        b.set_tracer(&rep);
        for (i, &fire) in decisions.iter().enumerate() {
            assert_eq!(b.decide_crash(points[i % points.len()]), fire);
        }
        assert_eq!(rep.divergence(), None);
        assert_eq!(a.log().crashes, b.log().crashes);
    }
}
