//! What one scenario run hands back, and the guarded `Sim::run`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use copier_sim::{Nanos, Sim};

use crate::record::Span;
use crate::stats::OpRec;

/// One output check; a failed check fails the run (non-zero exit).
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    /// Why it failed (empty when it passed).
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail_if_failed: &str) -> Self {
        Check {
            name,
            passed,
            detail: if passed {
                String::new()
            } else {
                detail_if_failed.to_string()
            },
        }
    }
}

/// The raw result of one scenario run in a child process.
pub struct RunOut {
    pub ops: Vec<OpRec>,
    pub spans: Vec<Span>,
    /// Ops due before this virtual instant are warm-up.
    pub warmup_end: u64,
    /// Virtual instant the service windows had drained.
    pub drain_end: u64,
    /// Host seconds from process start to the first `Sim::run`.
    pub setup_s: f64,
    /// Host seconds inside `Sim::run`.
    pub host_wall_s: f64,
    pub checks: Vec<Check>,
    /// Per-layer counters read from the crates' public accessors (traced
    /// run only).
    pub layers: crate::layers::Layers,
    /// Mean op length of the plan (the probes' input size).
    pub mean_len: usize,
}

/// Runs the simulation to completion, catching a panic raised inside it.
/// After an `Err` the op log still holds whatever had been stamped; ops
/// left `Pending` are counted as failed by [`crate::stats::account`].
pub fn run_guarded(sim: &mut Sim) -> Result<(), String> {
    run_guarded_until(sim, Nanos(u64::MAX))
}

/// [`run_guarded`] bounded by a virtual deadline.
pub fn run_guarded_until(sim: &mut Sim, deadline: Nanos) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        sim.run_until(deadline);
    }))
    .map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// After a caught panic the generators are dead: every plan entry they
/// never reached is appended as a `Pending` (hence failed) op, so the
/// failure share is over what the plan attempted, not what got through.
/// `arrivals[t]` is tenant `t`'s `(due, len)` schedule; generators begin
/// ops in schedule order.
pub fn pad_unattempted(ops: &mut Vec<OpRec>, arrivals: &[Vec<(u64, usize)>]) {
    let mut begun = vec![0usize; arrivals.len()];
    for o in ops.iter() {
        begun[o.tenant as usize] += 1;
    }
    for (t, sched) in arrivals.iter().enumerate() {
        for &(due, len) in sched.iter().skip(begun[t]) {
            ops.push(OpRec {
                tenant: t as u32,
                len: len as u32,
                due,
                submit_start: 0,
                submit_end: 0,
                settle: 0,
                outcome: crate::stats::Outcome::Pending,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Recorder;
    use crate::stats::{account, Outcome};

    #[test]
    fn a_panic_inside_sim_run_is_caught_and_unfinished_ops_fail() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let rec = Recorder::new(&h, false, 4);
        let rec2 = std::rc::Rc::clone(&rec);
        sim.spawn("generator", async move {
            for i in 0..4usize {
                let op = rec2.begin(0, 100, h.now().as_nanos());
                rec2.submitted(op, true);
                h.sleep(Nanos(10)).await;
                if i == 2 {
                    panic!("injected: service bug at op {i}");
                }
                rec2.stamp_settle(op);
                rec2.set_outcome(op, Outcome::Ok);
            }
        });
        let err = run_guarded(&mut sim).expect_err("the panic must surface as Err");
        assert!(err.contains("injected"), "{err}");
        let mut ops = rec.take_ops();
        assert_eq!(ops.len(), 3, "the generator died at its third op");
        pad_unattempted(&mut ops, &[vec![(0, 100), (10, 100), (20, 100), (30, 100)]]);
        let e = account(&ops, 0, sim.now().as_nanos(), 1_000);
        assert_eq!(e.attempted, 4, "the plan's fourth op was never reached");
        assert_eq!(e.failed, 2, "in flight at the panic, and never reached");
        assert_eq!(e.timed_ok, 2);
        assert_eq!(e.failed_frac, 0.5);
    }
}
