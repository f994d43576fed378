//! Simulated DMA engine (Intel I/OAT stand-in).
//!
//! The engine is a device: it owns per-channel descriptor queues and one
//! device task per channel that processes descriptors sequentially in
//! *device time* — no simulated core is consumed while a transfer runs,
//! which is exactly why piggybacking it under AVX copies is profitable
//! (§4.3). The CPU-side costs (descriptor submission, completion checks)
//! are charged by the dispatcher.
//!
//! Failure model: when a [`FaultPlan`] is attached, each descriptor may be
//! hit by a transient error (fails after partial device time; a resubmit
//! succeeds), a hard channel death (the channel is quarantined and every
//! descriptor on it fails with [`DmaError::ChannelDead`]), or a completion
//! timeout (the device stalls far beyond the modeled transfer time until
//! the submitter cancels). A failed or cancelled descriptor never moves
//! bytes and never fires its `on_done` callback, so progress accounting
//! stays exact across recovery.
//!
//! Silent corruption is the one failure class completion status cannot
//! see: a transfer hit by a seeded [`SilentCorruption`] draw lands
//! *wrong* bytes (one bit flipped in flight, or the payload rotated to a
//! wrong destination offset) and still reports `Done` and fires
//! `on_done`. Detection is the dispatcher's job (digest verification);
//! when it catches a mismatch it calls `DmaEngine::note_corruption` so
//! a channel that repeatedly corrupts is quarantined like one that died.
//!
//! Constraints mirrored from real hardware: each descriptor's source and
//! destination must be physically contiguous ranges.

use std::cell::Cell;
use std::rc::Rc;

use copier_mem::PhysMem;
use copier_sim::{Chan, DmaFault, FaultPlan, Nanos, Notify, SilentCorruption, SimHandle};

use crate::cost::CostModel;
use crate::units::{copy_extent_pair, SubTask};

/// Why a DMA descriptor failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaError {
    /// Transient hardware error; resubmission is expected to succeed.
    Transient,
    /// The channel died (quarantined); resubmit elsewhere or fall back.
    ChannelDead,
    /// The transfer was cancelled after exceeding its completion budget.
    Timeout,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Pending,
    Done,
    Failed(DmaError),
}

/// Completion state of one submitted descriptor.
pub struct DmaCompletion {
    state: Cell<State>,
    /// Set by the submitter to withdraw the descriptor; the device discards
    /// a cancelled descriptor without moving bytes or firing callbacks.
    cancelled: Cell<bool>,
    notify: Notify,
    /// The subtask the descriptor covered (for progress reporting).
    pub subtask: SubTask,
    /// The channel the descriptor was queued on.
    pub channel: usize,
}

impl DmaCompletion {
    /// Whether the transfer finished successfully.
    pub(crate) fn is_done(&self) -> bool {
        self.state.get() == State::Done
    }

    /// The failure, if the transfer failed.
    pub(crate) fn error(&self) -> Option<DmaError> {
        match self.state.get() {
            State::Failed(e) => Some(e),
            _ => None,
        }
    }

    /// Whether the descriptor reached a terminal state (done or failed).
    pub(crate) fn is_settled(&self) -> bool {
        self.state.get() != State::Pending
    }

    /// Withdraws the descriptor: the device will discard it instead of
    /// copying. Safe to call at any point; a no-op once settled.
    pub(crate) fn cancel(&self) {
        self.cancelled.set(true);
    }

    /// Waits (in virtual time) for the transfer to settle.
    pub(crate) async fn wait(&self) {
        if !self.is_settled() {
            self.notify.notified().await;
            debug_assert!(self.is_settled());
        }
    }
}

/// Device-context completion callback: invoked the moment data lands.
pub type DoneFn = Box<dyn Fn(&SubTask)>;

struct Descriptor {
    st: SubTask,
    completion: Rc<DmaCompletion>,
    /// Invoked in device context the moment the data lands — drives
    /// fine-grained descriptor-bitmap updates. Never invoked on failure.
    on_done: Option<DoneFn>,
    /// Whether the landing is queued for the host copy engine instead of
    /// copied on the simulation thread (the dispatcher's per-batch choice).
    deferred: bool,
}

/// How long a timeout-injected descriptor stalls the device, as a multiple
/// of its modeled transfer time (fault injection only). The fault model's
/// choice (DESIGN.md §10); the dispatcher's wait budget must be shorter,
/// which it asserts at compile time.
pub(crate) const DMA_TIMEOUT_STALL: u64 = 64;

struct Channel {
    queue: Chan<Descriptor>,
    dead: Cell<bool>,
    /// Verified-corruption strikes recorded against this channel by
    /// [`DmaEngine::note_corruption`].
    corrupt_hits: Cell<u32>,
}

/// The simulated DMA engine.
pub struct DmaEngine {
    channels: Vec<Rc<Channel>>,
    next: Cell<usize>,
    /// Verified-corruption strikes after which a channel is quarantined
    /// (0 disables corruption-driven quarantine).
    corrupt_threshold: u32,
    /// Channels quarantined by corruption strikes (disjoint from hard
    /// deaths, which flip `Channel::dead` directly).
    corrupt_quarantined: Cell<u64>,
}

/// Applies one silent-corruption decision to the *landed* destination
/// bytes. A misdirect that rotates a uniform payload onto itself writes
/// nothing.
fn apply_corruption(pm: &PhysMem, st: &SubTask, c: SilentCorruption) {
    let len = st.len();
    match c {
        SilentCorruption::BitFlip { pos } if len > 0 => {
            let bit = (pos % (len as u64 * 8)) as usize;
            let mut byte = [0u8];
            pm.read_run(st.dst.frame, st.dst.off + bit / 8, &mut byte);
            byte[0] ^= 1 << (bit % 8);
            pm.write_run(st.dst.frame, st.dst.off + bit / 8, &byte);
        }
        SilentCorruption::Misdirect { shift } if len >= 2 => {
            let s = 1 + (shift % (len as u64 - 1)) as usize;
            let mut buf = vec![0u8; len];
            pm.read_run(st.dst.frame, st.dst.off, &mut buf);
            let before = buf.clone();
            buf.rotate_right(s);
            if buf != before {
                pm.write_run(st.dst.frame, st.dst.off, &buf);
            }
        }
        _ => {}
    }
}

fn fail(d: &Descriptor, err: DmaError) {
    d.completion.state.set(State::Failed(err));
    d.completion.notify.notify_all();
}

impl DmaEngine {
    /// Creates an engine with `channels` independent channels, an
    /// optional fault plan consulted per descriptor, and the count of
    /// verified-corruption strikes that quarantines a channel (0 never
    /// does).
    pub fn new(
        h: &SimHandle,
        pm: Rc<PhysMem>,
        cost: Rc<CostModel>,
        channels: usize,
        plan: Option<Rc<FaultPlan>>,
        corrupt_threshold: u32,
    ) -> Rc<Self> {
        assert!(channels > 0, "DMA engine needs at least one channel");
        let chans: Vec<Rc<Channel>> = (0..channels)
            .map(|_| {
                Rc::new(Channel {
                    queue: Chan::new(),
                    dead: Cell::new(false),
                    corrupt_hits: Cell::new(0),
                })
            })
            .collect();
        for (i, ch) in chans.iter().enumerate() {
            let ch = Rc::clone(ch);
            let h2 = h.clone();
            let pm2 = Rc::clone(&pm);
            let cost2 = Rc::clone(&cost);
            let plan2 = plan.clone();
            h.spawn(&format!("dma-chan{i}"), async move {
                loop {
                    let d = match ch.queue.recv().await {
                        Some(d) => d,
                        None => break,
                    };
                    if d.completion.cancelled.get() {
                        fail(&d, DmaError::Timeout);
                        continue;
                    }
                    if ch.dead.get() {
                        fail(&d, DmaError::ChannelDead);
                        continue;
                    }
                    let dur = cost2.dma_transfer(d.st.len());
                    match plan2.as_ref().and_then(|p| p.decide_dma()) {
                        Some(DmaFault::HardFail) => {
                            // The channel dies mid-transfer: partial device
                            // time burned, no bytes land, and the channel is
                            // quarantined for good.
                            h2.sleep(Nanos(dur.as_nanos() / 4)).await;
                            ch.dead.set(true);
                            fail(&d, DmaError::ChannelDead);
                            continue;
                        }
                        Some(DmaFault::Transient) => {
                            h2.sleep(Nanos(dur.as_nanos() / 4)).await;
                            fail(&d, DmaError::Transient);
                            continue;
                        }
                        Some(DmaFault::Timeout) => {
                            // Stall far beyond the modeled time; the
                            // submitter's wait budget expires long before
                            // this sleep does and cancels the descriptor.
                            h2.sleep(Nanos(dur.as_nanos().max(1) * DMA_TIMEOUT_STALL))
                                .await;
                        }
                        None => {
                            // Device time: a plain sleep, not a core advance.
                            h2.sleep(dur).await;
                        }
                    }
                    if d.completion.cancelled.get() {
                        fail(&d, DmaError::Timeout);
                        continue;
                    }
                    copy_extent_pair(&pm2, d.st.dst, d.st.src, d.deferred);
                    // Silent corruption: consulted once per transfer that
                    // lands bytes, *after* the copy — the damage hits the
                    // landed destination, and the descriptor still reports
                    // Done and fires on_done below.
                    if let Some(c) = plan2.as_ref().and_then(|p| p.decide_corrupt()) {
                        apply_corruption(&pm2, &d.st, c);
                    }
                    d.completion.state.set(State::Done);
                    d.completion.notify.notify_all();
                    if let Some(cb) = &d.on_done {
                        cb(&d.st);
                    }
                }
            });
        }
        Rc::new(DmaEngine {
            channels: chans,
            next: Cell::new(0),
            corrupt_threshold,
            corrupt_quarantined: Cell::new(0),
        })
    }

    /// Submits one descriptor to the next live channel (round-robin).
    /// Returns its completion handle; if every channel is quarantined the
    /// handle is already failed with [`DmaError::ChannelDead`].
    ///
    /// The *CPU* cost of submission ([`CostModel::dma_submit`]) must be
    /// charged by the caller on its own core; this method only queues
    /// device work. A `deferred` descriptor's bytes land through
    /// [`copy_extent_pair`]'s host copy engine: same virtual time, same
    /// bytes for every later reader.
    pub(crate) fn submit(
        &self,
        st: SubTask,
        on_done: Option<DoneFn>,
        deferred: bool,
    ) -> Rc<DmaCompletion> {
        let n = self.channels.len();
        let start = self.next.get();
        let chosen = (0..n)
            .map(|k| (start + k) % n)
            .find(|&i| !self.channels[i].dead.get());
        let Some(i) = chosen else {
            return Rc::new(DmaCompletion {
                state: Cell::new(State::Failed(DmaError::ChannelDead)),
                cancelled: Cell::new(false),
                notify: Notify::new(),
                subtask: st,
                channel: start % n,
            });
        };
        self.next.set((i + 1) % n);
        let completion = Rc::new(DmaCompletion {
            state: Cell::new(State::Pending),
            cancelled: Cell::new(false),
            notify: Notify::new(),
            subtask: st,
            channel: i,
        });
        self.channels[i].queue.send(Descriptor {
            st,
            completion: Rc::clone(&completion),
            on_done,
            deferred,
        });
        completion
    }

    /// Quarantined (dead) channels.
    pub fn quarantined(&self) -> usize {
        self.channels.iter().filter(|c| c.dead.get()).count()
    }

    /// Channels still accepting work.
    pub(crate) fn live_channels(&self) -> usize {
        self.channels.len() - self.quarantined()
    }

    /// Records one *verified* corruption against `channel` — called by
    /// the dispatcher when digest verification catches a transfer that
    /// reported success with wrong bytes. At the configured threshold
    /// the channel is quarantined exactly like a hard death (every
    /// later descriptor fails [`DmaError::ChannelDead`]). Returns
    /// whether this strike retired the channel.
    pub(crate) fn note_corruption(&self, channel: usize) -> bool {
        let Some(ch) = self.channels.get(channel) else {
            return false;
        };
        let hits = ch.corrupt_hits.get() + 1;
        ch.corrupt_hits.set(hits);
        let threshold = self.corrupt_threshold;
        if threshold > 0 && hits >= threshold && !ch.dead.get() {
            ch.dead.set(true);
            self.corrupt_quarantined
                .set(self.corrupt_quarantined.get() + 1);
            return true;
        }
        false
    }

    /// Channels quarantined because of verified-corruption strikes.
    pub fn corrupt_quarantined(&self) -> u64 {
        self.corrupt_quarantined.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copier_mem::{AllocPolicy, Extent};
    use copier_sim::{FaultConfig, Sim};

    fn subtask(pm: &PhysMem, len: usize) -> SubTask {
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        pm.write(a, 0, &data);
        SubTask {
            task_off: 0,
            src: Extent {
                frame: a,
                off: 0,
                len,
            },
            dst: Extent {
                frame: b,
                off: 0,
                len,
            },
            dma: true,
        }
    }

    #[test]
    fn dma_moves_bytes_in_device_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(8, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let eng = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, None, 2);

        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        pm.write(a, 0, b"dma payload");
        let st = SubTask {
            task_off: 0,
            src: Extent {
                frame: a,
                off: 0,
                len: 11,
            },
            dst: Extent {
                frame: b,
                off: 0,
                len: 11,
            },
            dma: true,
        };
        let eng2 = Rc::clone(&eng);
        let pm2 = Rc::clone(&pm);
        let h2 = h.clone();
        sim.spawn("driver", async move {
            let t0 = h2.now();
            let c = eng2.submit(st, None, false);
            // Submission returns immediately; data not yet there.
            assert!(!c.is_done());
            c.wait().await;
            assert_eq!(h2.now() - t0, CostModel::default().dma_transfer(11));
            let mut buf = [0u8; 11];
            pm2.read(b, 0, &mut buf);
            assert_eq!(&buf, b"dma payload");
        });
        sim.run();
    }

    #[test]
    fn descriptors_processed_in_order_with_callbacks() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(8, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 1, None, 2);
        let a = pm.alloc().unwrap();
        let b = pm.alloc().unwrap();
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut completions = Vec::new();
        for i in 0..3usize {
            let st = SubTask {
                task_off: i * 100,
                src: Extent {
                    frame: a,
                    off: i * 100,
                    len: 100,
                },
                dst: Extent {
                    frame: b,
                    off: i * 100,
                    len: 100,
                },
                dma: true,
            };
            let log2 = Rc::clone(&log);
            completions.push(eng.submit(
                st,
                Some(Box::new(move |s: &SubTask| {
                    log2.borrow_mut().push(s.task_off);
                })),
                false,
            ));
        }
        let last = completions.pop().unwrap();
        sim.spawn("driver", async move {
            last.wait().await;
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 100, 200]);
        assert!(completions.iter().all(|c| c.is_done()));
    }

    #[test]
    fn hard_failure_quarantines_channel_and_fails_descriptor() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            dma_hard_prob: 1.0,
            ..Default::default()
        });
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 1, Some(plan), 2);
        let st = subtask(&pm, 256);
        let dst = st.dst.frame;
        let fired = Rc::new(Cell::new(false));
        let fired2 = Rc::clone(&fired);
        let eng2 = Rc::clone(&eng);
        sim.spawn("driver", async move {
            let c = eng2.submit(st, Some(Box::new(move |_| fired2.set(true))), false);
            c.wait().await;
            assert_eq!(c.error(), Some(DmaError::ChannelDead));
            // A second submit finds no live channel: fails synchronously.
            let c2 = eng2.submit(st, None, false);
            assert_eq!(c2.error(), Some(DmaError::ChannelDead));
        });
        sim.run();
        assert!(!fired.get(), "on_done must not fire for a failed transfer");
        assert_eq!(eng.quarantined(), 1);
        assert_eq!(eng.live_channels(), 0);
        // No bytes landed.
        let mut buf = [0u8; 256];
        pm.read(dst, 0, &mut buf);
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn transient_failure_then_resubmit_succeeds() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        // Seeded plan: first descriptor transient-fails, later ones pass
        // (probability 0.4 with this seed: fail, then pass).
        let plan = FaultPlan::new(FaultConfig {
            seed: 3,
            dma_transient_prob: 0.4,
            ..Default::default()
        });
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 1, Some(plan), 2);
        let st = subtask(&pm, 512);
        let dst = st.dst.frame;
        let eng2 = Rc::clone(&eng);
        sim.spawn("driver", async move {
            let mut c = eng2.submit(st, None, false);
            c.wait().await;
            let mut resubmits = 0;
            while let Some(err) = c.error() {
                assert_eq!(err, DmaError::Transient);
                c = eng2.submit(st, None, false);
                c.wait().await;
                resubmits += 1;
                assert!(resubmits < 32, "transient storm never drains");
            }
            assert!(c.is_done());
            assert!(resubmits > 0, "the seeded plan fails the first descriptor");
        });
        sim.run();
        assert_eq!(eng.quarantined(), 0);
        let mut buf = [0u8; 512];
        pm.read(dst, 0, &mut buf);
        assert_eq!(buf[13], 13);
    }

    #[test]
    fn cancelled_timeout_descriptor_never_lands_bytes() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let plan = FaultPlan::new(FaultConfig {
            seed: 2,
            dma_timeout_prob: 1.0,
            ..Default::default()
        });
        let eng = DmaEngine::new(&h, Rc::clone(&pm), Rc::clone(&cost), 1, Some(plan), 2);
        let st = subtask(&pm, 1024);
        let dst = st.dst.frame;
        let fired = Rc::new(Cell::new(false));
        let fired2 = Rc::clone(&fired);
        let eng2 = Rc::clone(&eng);
        let h2 = h.clone();
        sim.spawn("driver", async move {
            let c = eng2.submit(st, Some(Box::new(move |_| fired2.set(true))), false);
            // Give up long before the stalled device would finish.
            h2.sleep(Nanos(cost.dma_transfer(1024).as_nanos() * 2))
                .await;
            assert!(!c.is_settled(), "device is stalling");
            c.cancel();
            c.wait().await;
            assert_eq!(c.error(), Some(DmaError::Timeout));
        });
        sim.run();
        assert!(!fired.get());
        let mut buf = [0u8; 1024];
        pm.read(dst, 0, &mut buf);
        assert!(
            buf.iter().all(|&x| x == 0),
            "cancelled transfer landed bytes"
        );
    }

    #[test]
    fn bit_flip_lands_wrong_bytes_but_reports_success() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            dma_flip_prob: 1.0,
            ..Default::default()
        });
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 1, Some(plan), 2);
        let st = subtask(&pm, 512);
        let (src, dst) = (st.src.frame, st.dst.frame);
        let fired = Rc::new(Cell::new(false));
        let fired2 = Rc::clone(&fired);
        let eng2 = Rc::clone(&eng);
        sim.spawn("driver", async move {
            let c = eng2.submit(st, Some(Box::new(move |_| fired2.set(true))), false);
            c.wait().await;
            assert!(c.is_done(), "silent corruption still reports success");
        });
        sim.run();
        assert!(fired.get(), "on_done fires — the device believes it");
        let mut a = [0u8; 512];
        let mut b = [0u8; 512];
        pm.read(src, 0, &mut a);
        pm.read(dst, 0, &mut b);
        let diff_bits: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(diff_bits, 1, "exactly one bit flipped in flight");
    }

    #[test]
    fn misdirect_rotates_payload_but_reports_success() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let plan = FaultPlan::new(FaultConfig {
            seed: 8,
            dma_misdirect_prob: 1.0,
            ..Default::default()
        });
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 1, Some(plan), 2);
        let st = subtask(&pm, 256); // non-uniform pattern: rotation must show
        let (src, dst) = (st.src.frame, st.dst.frame);
        let eng2 = Rc::clone(&eng);
        sim.spawn("driver", async move {
            let c = eng2.submit(st, None, false);
            c.wait().await;
            assert!(c.is_done());
        });
        sim.run();
        let mut a = [0u8; 256];
        let mut b = [0u8; 256];
        pm.read(src, 0, &mut a);
        pm.read(dst, 0, &mut b);
        assert_ne!(a, b, "payload landed at a wrong offset");
        // Same multiset of bytes — it is a misdirection, not a flip.
        let mut sa = a;
        let mut sb = b;
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb);
    }

    #[test]
    fn corruption_strikes_quarantine_channel_at_threshold() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(16, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 2, None, 2);
        assert!(!eng.note_corruption(0), "first strike is below threshold");
        assert_eq!(eng.live_channels(), 2);
        assert!(eng.note_corruption(0), "second strike retires the channel");
        assert_eq!(eng.live_channels(), 1);
        assert_eq!(eng.quarantined(), 1);
        assert_eq!(eng.corrupt_quarantined(), 1);
        // Strikes on an already-dead channel don't double-count.
        assert!(!eng.note_corruption(0));
        assert_eq!(eng.corrupt_quarantined(), 1);
        // Subsequent descriptors route to the surviving channel.
        let st = subtask(&pm, 64);
        let eng2 = Rc::clone(&eng);
        sim.spawn("driver", async move {
            let c = eng2.submit(st, None, false);
            c.wait().await;
            assert!(c.is_done());
            assert_ne!(c.channel, 0);
        });
        sim.run();
    }

    #[test]
    fn round_robin_skips_dead_channels() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
        let cost = Rc::new(CostModel::default());
        // Kill exactly the first descriptor's channel.
        let plan = FaultPlan::new(FaultConfig {
            seed: 1,
            dma_hard_prob: 1.0,
            ..Default::default()
        });
        let eng = DmaEngine::new(&h, Rc::clone(&pm), cost, 2, Some(plan), 2);
        let st0 = subtask(&pm, 128);
        let eng2 = Rc::clone(&eng);
        sim.spawn("driver", async move {
            let c0 = eng2.submit(st0, None, false);
            c0.wait().await;
            assert_eq!(c0.error(), Some(DmaError::ChannelDead));
            assert_eq!(eng2.live_channels(), 1);
            // With one channel dead the plan would also kill channel 1 on
            // its next decision — but routing must at least target a live
            // channel, never the quarantined one.
            let c1 = eng2.submit(st0, None, false);
            assert_ne!(c1.channel, c0.channel);
        });
        sim.run();
    }
}
