//! In-place oracle: waits that complete in place (a `sleep`, an
//! `advance` on a free core; `Kernel::wait_in_place`) against the same
//! waits taking their events (`EVENTED_WAITS`), both on the production
//! executor. The programs are the order oracle's, made straight-line:
//! each `AdvanceAbandon`, which polls a wait beside another and so breaks
//! the await rule, becomes a spin on its core, whose first step is never
//! served in place. Every resumption and every predicate answer is logged
//! with its instant; the two logs (polls aside: saving them is the point),
//! each core's busy time, the paused time, the end time and the tasks
//! left blocked must be equal, and the polls saved must be exactly the
//! waits completed in place.
//!
//! Mutants it kills (each checked by hand when the path went in):
//! completing in place with a task ready (the ready queue ignored in
//! `Kernel::skip_to`), with a timer due at the same instant (`t <= when`),
//! past the run deadline, on a core that is running, queued or kicked
//! (`free` ignored in `Core::serve_in_place`), and a spin's first step
//! (`again` ignored in `Advance::poll`).

use copier_testkit::{check_with, prop_assert, prop_assert_eq, Config, TestRng};

use crate::exec::SimStats;
use crate::order_oracle::{
    gen_program, run_production, shrink_program, Op, Outcome, Program, Task, ASKED, POLL,
};

/// `p` with every `AdvanceAbandon` turned into a spin of its core.
fn straight_line(mut p: Program) -> Program {
    fn task(t: &Task) -> Task {
        let ops = t
            .ops
            .iter()
            .map(|op| match op {
                Op::AdvanceAbandon { core, ns, patience } => Op::Spin {
                    core: *core,
                    step: (*ns).max(1),
                    times: 1 + (ns + patience) % 6,
                },
                Op::Spawn(child) => Op::Spawn(task(child)),
                op => op.clone(),
            })
            .collect();
        Task {
            label: t.label,
            ops,
        }
    }
    p.roots = p.roots.iter().map(task).collect();
    p
}

fn gen_straight(rng: &mut TestRng) -> Program {
    straight_line(gen_program(rng))
}

/// Runs `p` with waits evented or not; the log without its polls.
fn run(p: &Program, evented: bool) -> (Outcome, SimStats) {
    let (mut out, stats) = run_production(p, evented);
    out.log.retain(|&(_, _, step, _)| step != POLL);
    (out, stats)
}

#[test]
fn waits_completed_in_place_resume_where_their_events_would() {
    let mut cfg = Config::from_env();
    if std::env::var_os("TESTKIT_CASES").is_none() {
        cfg.cases = 3000;
    }
    check_with(&cfg, gen_straight, shrink_program, |p: &Program| {
        let (want, off) = run(p, true);
        let (got, on) = run(p, false);
        for (i, (g, w)) in got.log.iter().zip(&want.log).enumerate() {
            prop_assert_eq!(g, w, "log entry {i} (now, task, step, value)");
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(off.in_place, 0, "evented, yet completed in place");
        prop_assert_eq!(
            off.polls.checked_sub(on.polls),
            Some(on.in_place),
            "polls saved against waits completed in place"
        );
        prop_assert!(off.timers_armed.saturating_sub(on.timers_armed) >= on.in_place);
        Ok(())
    });
}

/// The generator must reach what the oracle is for: waits completed in
/// place, advances served in place across several slices, and spins
/// whose predicates are asked.
#[test]
fn generated_programs_cover_the_hard_cases() {
    let mut rng = TestRng::new(0x1A_91ACE);
    let (mut in_place, mut sliced, mut asked) = (0, 0, 0);
    for _ in 0..400 {
        let p = gen_straight(&mut rng);
        let (out, on) = run(&p, false);
        let (_, off) = run(&p, true);
        in_place += on.in_place;
        sliced += u64::from(off.timers_armed.saturating_sub(on.timers_armed) > on.in_place);
        asked += out.log.iter().filter(|e| e.2 == ASKED).count() as u64;
    }
    for (what, n) in [
        ("waits completed in place", in_place),
        (
            "programs with an advance served in place past a quantum",
            sliced,
        ),
        ("spin predicates asked", asked),
    ] {
        assert!(n >= 20, "only {n} {what} in 400 programs");
    }
}
