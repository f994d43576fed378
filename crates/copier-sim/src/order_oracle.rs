//! Order oracle: random programs run once on the production executor,
//! wait primitives and cores, and once on [`crate::reference`] (the same
//! three as they were when every poll allocated a waker and every core
//! was a task). Every poll of every task and every resumption after an
//! await is logged with the virtual time it happened at; the two logs,
//! each core's busy time and the end time must be equal.
//!
//! The production side runs with every wait taking its event
//! ([`EVENTED_WAITS`]): the reference has no in-place path, and
//! `AdvanceAbandon` polls a wait beside another, which the await rule
//! allows only there. `inplace_oracle` holds the in-place path to this
//! evented schedule on the same programs, made straight-line.
//!
//! The machine is built before the first task runs, as every caller in
//! the repo builds it, or by the first task in its first poll. Later than
//! that is left out on purpose: a reference core spawned onto a task slot
//! that an earlier task left behind with wakers still held is the one
//! schedule the production code cannot reproduce (DESIGN.md §12).

use std::cell::{Cell, OnceCell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use copier_testkit::{check_with, prop_assert_eq, shrink_vec, Config, TestRng};

use crate::cpu::Again;
use crate::exec::{SimStats, EVENTED_WAITS};
use crate::time::Nanos;

const CELLS: usize = 2;
const CHANS: usize = 2;

#[derive(Debug, Clone)]
pub(crate) enum Op {
    Advance {
        core: usize,
        ns: u64,
    },
    /// Files the demand, waits `patience` (zero: not at all), looks once
    /// more and drops the future, finished or not.
    AdvanceAbandon {
        core: usize,
        ns: u64,
        patience: u64,
    },
    Sleep(u64),
    SleepUntil(u64),
    Yield,
    NotifyOne(usize),
    NotifyAll(usize),
    Notified(usize),
    WaitTimeout {
        cell: usize,
        ns: u64,
    },
    Send {
        chan: usize,
        value: u32,
    },
    Recv(usize),
    Close(usize),
    Spawn(Task),
    /// Awaits the oldest child not yet joined, if there is one.
    Join,
    /// Logs the core's busy time and load.
    Observe(usize),
    SetQuantum {
        core: usize,
        ns: u64,
    },
    /// Spins in steps of `step` until its predicate has been asked
    /// `times` times. Only `inplace_oracle` makes one: a spin polls its
    /// task less than the loop the reference spells, so the two logs of
    /// this oracle could not agree on it.
    Spin {
        core: usize,
        step: u64,
        times: u64,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Task {
    pub(crate) label: u32,
    pub(crate) ops: Vec<Op>,
}

#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// One core per entry.
    quanta: Vec<u64>,
    /// The first root builds the machine, not the harness.
    late_machine: bool,
    pub(crate) roots: Vec<Task>,
    /// The run stops here once (`run_until`) before it is let finish.
    pause_at: u64,
}

/// The step of a log entry that is a poll of the task.
pub(crate) const POLL: i32 = -1;
/// The step of a log entry that is a spin's predicate being asked; the
/// value is how many times it has been.
pub(crate) const ASKED: i32 = -2;

/// `(now, task label, step, value)`: a [`POLL`], an [`ASKED`], or the op
/// at `step` that just finished, with what it returned or observed.
type Entry = (u64, u32, i32, u64);

#[derive(Debug, PartialEq)]
pub(crate) struct Outcome {
    pub(crate) log: Vec<Entry>,
    busy: Vec<u64>,
    paused: u64,
    end: u64,
    /// Tasks of the program still blocked at the end.
    live: usize,
}

/// Polls `F` once and reports whether it finished.
struct PollOnce<'a, F>(Pin<&'a mut F>);

impl<F: Future> Future for PollOnce<'_, F> {
    type Output = bool;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        Poll::Ready(self.0.as_mut().poll(cx).is_ready())
    }
}

/// The same interpreter over either implementation: the two differ only
/// in the module their types come from, in whether cores show up in
/// `Sim::live_tasks` (`$core_tasks` per core) and in `$spin`, an
/// `async fn spin(core, h, step, again)`.
macro_rules! interpreter {
    ($name:ident, $core_tasks:expr, $($root:ident)::+, $spin:item) => {
        mod $name {
            use super::*;
            use $($root)::+::cpu::{Core, Machine};
            use $($root)::+::exec::{Sim, SimHandle};
            use $($root)::+::sync::{Chan, Notify};

            $spin

            struct World {
                h: SimHandle,
                cores: OnceCell<Vec<Rc<Core>>>,
                cells: Vec<Notify>,
                chans: Vec<Chan<u32>>,
                log: RefCell<Vec<Entry>>,
            }

            impl World {
                fn build_machine(&self, quanta: &[u64]) {
                    let machine = Machine::new(&self.h, quanta.len());
                    for (core, q) in machine.cores().iter().zip(quanta) {
                        core.set_quantum(Nanos(*q));
                    }
                    assert!(self.cores.set(machine.cores().to_vec()).is_ok());
                }

                fn core(&self, i: usize) -> &Rc<Core> {
                    &self.cores.get().expect("the machine is built first")[i]
                }

                fn note(&self, label: u32, step: i32, value: u64) {
                    let now = self.h.now().as_nanos();
                    self.log.borrow_mut().push((now, label, step, value));
                }
            }

            /// A task's body with every poll of it logged, spurious ones
            /// included.
            struct Logged {
                w: Rc<World>,
                label: u32,
                body: Pin<Box<dyn Future<Output = u32>>>,
            }

            impl Future for Logged {
                type Output = u32;
                fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<u32> {
                    self.w.note(self.label, POLL, 0);
                    self.body.as_mut().poll(cx)
                }
            }

            fn logged(w: &Rc<World>, task: Task, boot: Option<Vec<u64>>) -> Logged {
                Logged {
                    w: Rc::clone(w),
                    label: task.label,
                    body: Box::pin(body(Rc::clone(w), task, boot)),
                }
            }

            async fn body(w: Rc<World>, task: Task, boot: Option<Vec<u64>>) -> u32 {
                if let Some(quanta) = boot {
                    w.build_machine(&quanta);
                }
                let mut children = std::collections::VecDeque::new();
                for (step, op) in task.ops.iter().enumerate() {
                    let value = match op {
                        Op::Advance { core, ns } => {
                            w.core(*core).advance(Nanos(*ns)).await;
                            0
                        }
                        Op::AdvanceAbandon { core, ns, patience } => {
                            let mut adv = Box::pin(w.core(*core).advance(Nanos(*ns)));
                            let mut done = PollOnce(adv.as_mut()).await;
                            if !done && *patience > 0 {
                                w.h.sleep(Nanos(*patience)).await;
                                done = PollOnce(adv.as_mut()).await;
                            }
                            drop(adv);
                            done as u64
                        }
                        Op::Sleep(ns) => {
                            w.h.sleep(Nanos(*ns)).await;
                            0
                        }
                        Op::SleepUntil(at) => {
                            w.h.sleep_until(Nanos(*at)).await;
                            0
                        }
                        Op::Yield => {
                            w.h.yield_now().await;
                            0
                        }
                        Op::NotifyOne(cell) => {
                            w.cells[*cell].notify_one();
                            0
                        }
                        Op::NotifyAll(cell) => {
                            w.cells[*cell].notify_all();
                            0
                        }
                        Op::Notified(cell) => {
                            w.cells[*cell].notified().await;
                            0
                        }
                        Op::WaitTimeout { cell, ns } => {
                            w.cells[*cell].wait_timeout(&w.h, Nanos(*ns)).await as u64
                        }
                        Op::Send { chan, value } => {
                            w.chans[*chan].send(*value);
                            w.chans[*chan].len() as u64
                        }
                        Op::Recv(chan) => w.chans[*chan].recv().await.map_or(u64::MAX, u64::from),
                        Op::Close(chan) => {
                            w.chans[*chan].close();
                            0
                        }
                        Op::Spawn(child) => {
                            children.push_back(w.h.spawn("child", logged(&w, child.clone(), None)));
                            0
                        }
                        Op::Join => match children.pop_front() {
                            Some(child) => u64::from(child.await),
                            None => u64::MAX,
                        },
                        Op::Observe(core) => {
                            let c = w.core(*core);
                            c.busy_time().as_nanos() << 8 | c.load() as u64
                        }
                        Op::SetQuantum { core, ns } => {
                            w.core(*core).set_quantum(Nanos(*ns));
                            0
                        }
                        Op::Spin { core, step, times } => {
                            let asked = Rc::new(Cell::new(0));
                            let again: Again = {
                                let (w, asked) = (Rc::clone(&w), Rc::clone(&asked));
                                let (label, times) = (task.label, *times);
                                Rc::new(move |at: Nanos| {
                                    asked.set(asked.get() + 1);
                                    let entry = (at.as_nanos(), label, ASKED, asked.get());
                                    w.log.borrow_mut().push(entry);
                                    asked.get() < times
                                })
                            };
                            spin(w.core(*core), &w.h, Nanos(*step), &again).await;
                            asked.get()
                        }
                    };
                    w.note(task.label, step as i32, value);
                }
                task.label
            }

            /// Runs `p`; the simulation is returned for its counters.
            pub(crate) fn run(p: &Program) -> (Outcome, Sim) {
                let mut sim = Sim::new();
                let h = sim.handle();
                let w = Rc::new(World {
                    h,
                    cores: OnceCell::new(),
                    cells: (0..CELLS).map(|_| Notify::new()).collect(),
                    chans: (0..CHANS).map(|_| Chan::new()).collect(),
                    log: RefCell::new(Vec::new()),
                });
                if !p.late_machine {
                    w.build_machine(&p.quanta);
                }
                for (i, root) in p.roots.iter().enumerate() {
                    let boot = (p.late_machine && i == 0).then(|| p.quanta.clone());
                    sim.spawn("root", logged(&w, root.clone(), boot));
                }
                let paused = sim.run_until(Nanos(p.pause_at)).as_nanos();
                let end = sim.run().as_nanos();
                let out = Outcome {
                    log: w.log.take(),
                    busy: (0..p.quanta.len())
                        .map(|i| w.core(i).busy_time().as_nanos())
                        .collect(),
                    paused,
                    end,
                    live: sim.live_tasks() - $core_tasks * p.quanta.len(),
                };
                (out, sim)
            }
        }
    };
}

interpreter!(
    production,
    0,
    crate,
    async fn spin(core: &Rc<Core>, _h: &SimHandle, step: Nanos, again: &Again) {
        core.spin(step, again).await;
    }
);
interpreter!(
    reference,
    1,
    crate::reference,
    /// The reference has no `Core::spin`, and this oracle makes no spin.
    async fn spin(_: &Rc<Core>, _: &SimHandle, _: Nanos, _: &Again) {
        unreachable!("the order oracle generates no spin")
    }
);

/// Instants and durations sit on a 1 µs grid most of the time, so that
/// timers tie, a timeout races the notify meant to beat it, and a slice
/// ends when a sleeper wakes; one off either way for the near misses.
fn grid(rng: &mut TestRng, max_us: u64) -> u64 {
    let t = rng.gen_range(max_us + 1) * 1_000;
    match rng.gen_range(8) {
        0 => t + 1,
        1 => t.saturating_sub(1),
        2 => rng.gen_range(max_us * 1_000 + 1),
        _ => t,
    }
}

fn gen_task(rng: &mut TestRng, p: &Program, next_label: &mut u32, depth: usize) -> Task {
    let label = *next_label;
    *next_label += 1;
    let n = rng.range_usize(1, if depth == 0 { 11 } else { 6 });
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let core = rng.range_usize(0, p.quanta.len());
        let cell = rng.range_usize(0, CELLS);
        let chan = rng.range_usize(0, CHANS);
        // Zero, below one quantum, or several quanta.
        let demand = |rng: &mut TestRng| match rng.gen_range(6) {
            0 => 0,
            1 | 2 => rng.gen_range(p.quanta[core]) + 1,
            3 => p.quanta[core],
            _ => grid(rng, 3 * p.quanta[core] / 1_000 + 2),
        };
        ops.push(match rng.gen_range(24) {
            0..=5 => Op::Advance {
                core,
                ns: demand(rng),
            },
            6 => Op::AdvanceAbandon {
                core,
                ns: demand(rng),
                patience: if rng.gen_bool(0.5) { 0 } else { grid(rng, 30) },
            },
            7 | 8 => Op::Sleep(grid(rng, 30)),
            9 => Op::SleepUntil(grid(rng, 90)),
            10 => Op::Yield,
            11 | 12 => Op::NotifyOne(cell),
            13 => Op::NotifyAll(cell),
            14 => Op::Notified(cell),
            15 | 16 => Op::WaitTimeout {
                cell,
                ns: grid(rng, 40),
            },
            17 => Op::Send {
                chan,
                value: rng.next_u64() as u32,
            },
            18 => Op::Recv(chan),
            19 if rng.gen_bool(0.3) => Op::Close(chan),
            19 | 20 if depth < 2 => Op::Spawn(gen_task(rng, p, next_label, depth + 1)),
            21 => Op::Join,
            22 => Op::Observe(core),
            _ if rng.gen_bool(0.2) => Op::SetQuantum {
                core,
                ns: grid(rng, 25).max(1),
            },
            _ => Op::Sleep(grid(rng, 5)),
        });
    }
    Task { label, ops }
}

pub(crate) fn gen_program(rng: &mut TestRng) -> Program {
    let cores = rng.range_usize(1, 4);
    let mut p = Program {
        quanta: (0..cores)
            .map(|_| [1_000, 7_000, 20_000][rng.range_usize(0, 3)])
            .collect(),
        late_machine: rng.gen_bool(0.25),
        roots: Vec::new(),
        pause_at: grid(rng, 80),
    };
    let mut next_label = 0;
    for _ in 0..rng.range_usize(2, 6) {
        let root = gen_task(rng, &p, &mut next_label, 0);
        p.roots.push(root);
    }
    p
}

/// Fewer roots, then fewer ops in one root (a spawned child goes whole).
pub(crate) fn shrink_program(p: &Program) -> Vec<Program> {
    let with_roots = |roots: Vec<Task>| Program { roots, ..p.clone() };
    let mut out: Vec<Program> = shrink_vec(&p.roots, |_| Vec::new())
        .into_iter()
        .map(with_roots)
        .collect();
    for (i, root) in p.roots.iter().enumerate() {
        for ops in shrink_vec(&root.ops, |_| Vec::new()) {
            let mut roots = p.roots.clone();
            roots[i].ops = ops;
            out.push(with_roots(roots));
        }
    }
    out
}

/// Runs `p` on the production side, every wait evented (as the reference
/// knows them) or with waits completing in place.
pub(crate) fn run_production(p: &Program, evented: bool) -> (Outcome, SimStats) {
    EVENTED_WAITS.with(|c| c.set(evented));
    let (out, sim) = production::run(p);
    EVENTED_WAITS.with(|c| c.set(false));
    (out, sim.stats())
}

#[test]
fn random_programs_resume_in_the_reference_order() {
    let mut cfg = Config::from_env();
    if std::env::var_os("TESTKIT_CASES").is_none() {
        cfg.cases = 3000;
    }
    check_with(&cfg, gen_program, shrink_program, |p: &Program| {
        let (want, _) = reference::run(p);
        let (got, _) = run_production(p, true);
        for (i, (g, w)) in got.log.iter().zip(&want.log).enumerate() {
            prop_assert_eq!(g, w, "log entry {i} (now, task, step, value)");
        }
        prop_assert_eq!(got, want);
        Ok(())
    });
}

/// The generator must actually reach what the oracle is for; a suite
/// that never ties two timers or never reuses a slot proves nothing.
#[test]
fn generated_programs_cover_the_hard_cases() {
    let mut rng = TestRng::new(0x0DDE_5C0D);
    let (mut spurious, mut timeouts, mut notified, mut abandoned, mut blocked) = (0, 0, 0, 0, 0);
    let (mut sliced, mut queued) = (0, 0);
    for _ in 0..400 {
        let p = gen_program(&mut rng);
        let (out, _) = run_production(&p, true);
        // A poll that resumes nothing: the next entry of that task is
        // another poll.
        let mut last_was_poll = std::collections::HashMap::new();
        for &(_, label, step, value) in &out.log {
            if step == POLL && last_was_poll.insert(label, true) == Some(true) {
                spurious += 1;
            } else if step >= 0 {
                last_was_poll.insert(label, false);
            }
            let op = (step >= 0).then(|| op_at(&p, label, step as usize));
            match op {
                Some(Op::WaitTimeout { .. }) if value == 0 => timeouts += 1,
                Some(Op::WaitTimeout { .. }) => notified += 1,
                Some(Op::AdvanceAbandon { .. }) if value == 0 => abandoned += 1,
                Some(Op::Observe(_)) if value & 0xFF > 0 => queued += 1,
                _ => {}
            }
        }
        blocked += out.live;
        sliced += p
            .quanta
            .iter()
            .zip(&out.busy)
            .filter(|(q, busy)| *busy > *q)
            .count();
    }
    for (what, n) in [
        ("spurious polls", spurious),
        ("timeouts", timeouts),
        ("notified before the timeout", notified),
        ("advances dropped unfinished", abandoned),
        ("tasks left blocked", blocked),
        ("cores busy past one quantum", sliced),
        ("observations of a queued core", queued),
    ] {
        assert!(n >= 20, "only {n} {what} in 400 programs");
    }
}

fn op_at(p: &Program, label: u32, step: usize) -> &Op {
    fn find(t: &Task, label: u32) -> Option<&Task> {
        if t.label == label {
            return Some(t);
        }
        t.ops.iter().find_map(|op| match op {
            Op::Spawn(child) => find(child, label),
            _ => None,
        })
    }
    let task = p.roots.iter().find_map(|t| find(t, label));
    &task
        .expect("every logged label is a task of the program")
        .ops[step]
}
