//! Spin oracle: [`Core::spin`] against the loop it stands for,
//! `loop { core.advance(step).await; if !again(now) { break } }`, on the
//! same executor. Random programs put spinners on one or two cores beside
//! foreign sleepers that flip the spinners' flags — some exactly on a step
//! boundary, where a timer ties the boundary — and beside plain sleepers
//! and second demands filed on a spinning core mid-spell; the run pauses
//! once at a `run_until` deadline. Every resumption and every call of a
//! predicate is logged with its instant and who made it; the two logs,
//! each core's busy time, the paused time and the end time must be equal.
//!
//! Mutants it kills (each checked by hand when the spin went in): batching
//! a boundary *equal to* the next timer's instant (`t <= when` in
//! `Kernel::skip_to`), ignoring the run deadline there, and batching while
//! another demand is queued on the core (`alone` ignored in `spin_on`).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use copier_testkit::{check_with, prop_assert_eq, shrink_vec, Config, TestRng};

use crate::cpu::{Again, Core, Machine};
use crate::exec::{Sim, SimHandle};
use crate::time::Nanos;

const FLAGS: usize = 3;

#[derive(Debug, Clone)]
struct Spell {
    /// Absolute instant the spinner starts (`sleep_until`).
    start: u64,
    step: u64,
    /// Spin while this flag is clear …
    flag: usize,
    /// … and the boundary is before `start + limit`.
    limit: u64,
}

#[derive(Debug, Clone)]
enum Task {
    /// Spells one after another on `core`.
    Spinner { core: usize, spells: Vec<Spell> },
    /// Sleeps until `at`, then sets (or clears) `flag`.
    Flip { at: u64, flag: usize, set: bool },
    /// Sleeps until `at`: a timer that may tie a boundary.
    Sleeper { at: u64 },
    /// Files an `advance(ns)` on `core` at `at`.
    Demand { at: u64, core: usize, ns: u64 },
}

#[derive(Debug, Clone)]
struct Program {
    quanta: Vec<u64>,
    tasks: Vec<Task>,
    pause_at: u64,
}

/// `(now, task, what)`: what ≥ 0 is a step of the task that finished;
/// −1 a predicate that answered no, −2 one that answered yes.
type Entry = (u64, usize, i64);

#[derive(Debug, PartialEq)]
struct Outcome {
    log: Vec<Entry>,
    busy: Vec<u64>,
    paused: u64,
    end: u64,
}

struct World {
    h: SimHandle,
    flags: [Cell<bool>; FLAGS],
    log: RefCell<Vec<Entry>>,
}

impl World {
    fn note(&self, who: usize, what: i64) {
        let now = self.h.now().as_nanos();
        self.log.borrow_mut().push((now, who, what));
    }
}

/// Spins one spell, either way; the predicate logs every answer.
async fn spell(w: &Rc<World>, core: &Rc<Core>, who: usize, s: &Spell, native: bool) {
    let stop = s.start + s.limit;
    let w2 = Rc::clone(w);
    let flag = s.flag;
    let again: Again = Rc::new(move |at: Nanos| {
        let yes = !w2.flags[flag].get() && at.as_nanos() < stop;
        w2.log
            .borrow_mut()
            .push((at.as_nanos(), who, if yes { -2 } else { -1 }));
        yes
    });
    if native {
        core.spin(Nanos(s.step), &again).await;
    } else {
        loop {
            core.advance(Nanos(s.step)).await;
            if !again(w.h.now()) {
                break;
            }
        }
    }
}

fn run(p: &Program, native: bool) -> Outcome {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, p.quanta.len());
    for (core, q) in machine.cores().iter().zip(&p.quanta) {
        core.set_quantum(Nanos(*q));
    }
    let w = Rc::new(World {
        h: h.clone(),
        flags: Default::default(),
        log: RefCell::new(Vec::new()),
    });
    for (who, task) in p.tasks.iter().cloned().enumerate() {
        let (w, h) = (Rc::clone(&w), h.clone());
        let cores = machine.cores().to_vec();
        sim.spawn("task", async move {
            match task {
                Task::Spinner { core, spells } => {
                    for (i, s) in spells.iter().enumerate() {
                        h.sleep_until(Nanos(s.start)).await;
                        spell(&w, &cores[core], who, s, native).await;
                        w.note(who, i as i64);
                    }
                }
                Task::Flip { at, flag, set } => {
                    h.sleep_until(Nanos(at)).await;
                    w.flags[flag].set(set);
                    w.note(who, 0);
                }
                Task::Sleeper { at } => {
                    h.sleep_until(Nanos(at)).await;
                    w.note(who, 0);
                }
                Task::Demand { at, core, ns } => {
                    h.sleep_until(Nanos(at)).await;
                    cores[core].advance(Nanos(ns)).await;
                    w.note(who, 0);
                }
            }
        });
    }
    let paused = sim.run_until(Nanos(p.pause_at)).as_nanos();
    let end = sim.run().as_nanos();
    Outcome {
        log: w.log.take(),
        busy: machine
            .cores()
            .iter()
            .map(|c| c.busy_time().as_nanos())
            .collect(),
        paused,
        end,
    }
}

/// Mostly an instant at which one of `spells` reaches a step boundary
/// when its core is free; sometimes one off, sometimes anywhere.
fn near_boundary(rng: &mut TestRng, spells: &[Spell]) -> u64 {
    let s = &spells[rng.range_usize(0, spells.len())];
    let t = s.start + s.step * (rng.gen_range(s.limit / s.step + 2) + 1);
    match rng.gen_range(6) {
        0 => t + 1,
        1 => t.saturating_sub(1),
        2 => rng.gen_range(s.start + s.limit + 1),
        _ => t,
    }
}

fn gen_program(rng: &mut TestRng) -> Program {
    let quanta: Vec<u64> = (0..rng.range_usize(1, 3))
        .map(|_| *rng.choose(&[150, 1_000, 20_000]))
        .collect();
    let mut tasks = Vec::new();
    let mut spells = Vec::new();
    for _ in 0..rng.range_usize(1, 3) {
        let core = rng.range_usize(0, quanta.len());
        let mut at = rng.gen_range(500);
        let mine: Vec<Spell> = (0..rng.range_usize(1, 4))
            .map(|_| {
                let step = *rng.choose(&[1, 7, 80, 80, 200, 400]);
                let s = Spell {
                    start: at,
                    step,
                    flag: rng.range_usize(0, FLAGS),
                    limit: step * rng.gen_range(40) + rng.gen_range(step),
                };
                at = s.start + s.limit + rng.gen_range(300);
                s
            })
            .collect();
        spells.extend(mine.iter().cloned());
        tasks.push(Task::Spinner { core, spells: mine });
    }
    for _ in 0..rng.range_usize(0, 9) {
        let at = near_boundary(rng, &spells);
        tasks.push(match rng.gen_range(5) {
            0 | 1 => Task::Flip {
                at,
                flag: rng.range_usize(0, FLAGS),
                set: rng.gen_bool(0.7),
            },
            2 | 3 => Task::Sleeper { at },
            _ => Task::Demand {
                at,
                core: rng.range_usize(0, quanta.len()),
                ns: *rng.choose(&[1, 50, 80, 160, 1_000]),
            },
        });
    }
    // Shuffle, so a foreign task is sometimes spawned before a spinner.
    for i in (1..tasks.len()).rev() {
        tasks.swap(i, rng.range_usize(0, i + 1));
    }
    let pause_at = near_boundary(rng, &spells);
    Program {
        quanta,
        tasks,
        pause_at,
    }
}

fn shrink_program(p: &Program) -> Vec<Program> {
    shrink_vec(&p.tasks, |_| Vec::new())
        .into_iter()
        .map(|tasks| Program { tasks, ..p.clone() })
        .collect()
}

#[test]
fn spin_is_the_advance_loop() {
    let mut cfg = Config::from_env();
    if std::env::var_os("TESTKIT_CASES").is_none() {
        cfg.cases = 2000;
    }
    check_with(&cfg, gen_program, shrink_program, |p: &Program| {
        let want = run(p, false);
        let got = run(p, true);
        for (i, (g, w)) in got.log.iter().zip(&want.log).enumerate() {
            prop_assert_eq!(g, w, "log entry {i} (now, task, what)");
        }
        prop_assert_eq!(got, want);
        Ok(())
    });
}

/// The generator must reach what the oracle is for: predicates answered
/// at the instant a foreign timer fires, spells cut short by a flip,
/// pauses inside a spell and demands that queue behind a spinner.
#[test]
fn generated_programs_cover_the_hard_cases() {
    let mut rng = TestRng::new(0x51D0_5B1A);
    let (mut ties, mut flipped, mut paused_mid, mut contended) = (0, 0, 0, 0);
    for _ in 0..400 {
        let p = gen_program(&mut rng);
        let out = run(&p, true);
        let foreign_at: Vec<u64> = out
            .log
            .iter()
            .filter(|&&(_, who, what)| what == 0 && !matches!(p.tasks[who], Task::Spinner { .. }))
            .map(|&(at, ..)| at)
            .collect();
        let answers = out.log.iter().filter(|&&(_, _, what)| what < 0);
        ties += answers
            .clone()
            .filter(|(at, ..)| foreign_at.contains(at))
            .count();
        for &(at, who, what) in answers {
            let Task::Spinner { spells, .. } = &p.tasks[who] else {
                unreachable!("only spinners answer")
            };
            let in_spell = |s: &Spell| s.start <= at && at < s.start + s.limit;
            if what == -1 && spells.iter().any(in_spell) {
                flipped += 1;
            }
        }
        for task in &p.tasks {
            if let Task::Spinner { spells, .. } = task {
                let pause = p.pause_at;
                paused_mid += spells
                    .iter()
                    .filter(|s| s.start < pause && pause < s.start + s.limit)
                    .count();
            }
        }
        // A demand that finished later than it would on an idle core.
        contended += p
            .tasks
            .iter()
            .enumerate()
            .filter(|(who, t)| match t {
                Task::Demand { at, ns, .. } => out
                    .log
                    .iter()
                    .any(|&(done, w, what)| w == *who && what == 0 && done > at + ns),
                _ => false,
            })
            .count();
    }
    for (what, n) in [
        ("answers at a foreign timer's instant", ties),
        ("spells cut short by a flip", flipped),
        ("pauses inside a spell", paused_mid),
        ("demands queued behind a spinner", contended),
    ] {
        assert!(n >= 20, "only {n} {what} in 400 programs");
    }
}
