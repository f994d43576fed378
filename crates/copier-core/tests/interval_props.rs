//! Differential properties for `IntervalSet` against a naive bit-vector
//! model, with shrinking: a failing op sequence minimizes to the shortest
//! prefix (and smallest coordinates) that still disagrees.
//!
//! The set's fast paths (partition-point window search in `insert` /
//! `remove` / `covers` / `intersects`, in-place sliver removal) must be
//! behaviorally identical to "paint bits in an array" — every op is
//! followed by a full behavioral comparison, so any divergence is caught
//! at the op that introduced it.

use copier_core::interval::IntervalSet;
use copier_testkit::{check_with, shrink_vec, Config, PropResult, TestRng};
use copier_testkit::{prop_assert, prop_assert_eq};

/// Model universe size. Ops and queries stay inside `[0, N)`.
const N: usize = 256;

/// One operation on both the set and the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Op {
    insert: bool,
    lo: usize,
    hi: usize,
}

fn gen_op(rng: &mut TestRng) -> Op {
    let lo = rng.range_usize(0, N);
    // Mostly short ranges (the common DMA-progress shape), occasionally
    // long ones that span many stored ranges.
    let max_len = if rng.gen_bool(0.2) {
        N - lo
    } else {
        24.min(N - lo)
    };
    let hi = lo + rng.range_usize(0, max_len + 1);
    Op {
        insert: rng.gen_bool(0.65),
        lo,
        hi,
    }
}

fn shrink_op(op: &Op) -> Vec<Op> {
    let mut out = Vec::new();
    if op.hi > op.lo {
        out.push(Op { hi: op.lo, ..*op }); // empty range
        out.push(Op {
            hi: op.lo + (op.hi - op.lo) / 2,
            ..*op
        });
    }
    if op.lo > 0 {
        out.push(Op {
            lo: op.lo / 2,
            ..*op
        });
        out.push(Op {
            lo: op.lo - 1,
            ..*op
        });
    }
    if !op.insert {
        out.push(Op {
            insert: true,
            ..*op
        });
    }
    out.retain(|c| c != op);
    out
}

/// Derives the covered runs of `[0, N)` from the model bits.
fn model_runs(bits: &[bool]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < bits.len() {
        if bits[i] {
            let s = i;
            while i < bits.len() && bits[i] {
                i += 1;
            }
            out.push((s, i));
        } else {
            i += 1;
        }
    }
    out
}

fn check_against_model(s: &IntervalSet, bits: &[bool], step: usize) -> PropResult {
    // Structural invariant: sorted, disjoint, non-adjacent, non-empty.
    let stored: Vec<_> = s.iter().collect();
    for w in stored.windows(2) {
        prop_assert!(
            w[0].1 < w[1].0,
            "step {step}: ranges not disjoint/merged: {stored:?}"
        );
    }
    for &(a, b) in &stored {
        prop_assert!(a < b, "step {step}: empty stored range in {stored:?}");
    }
    // Exact content equality via the runs of the model.
    prop_assert_eq!(stored, model_runs(bits), "step {step}: content");
    prop_assert_eq!(
        s.total(),
        bits.iter().filter(|&&b| b).count(),
        "step {step}: total"
    );
    prop_assert_eq!(s.is_empty(), bits.iter().all(|&b| !b), "step {step}");
    Ok(())
}

fn check_queries(s: &IntervalSet, bits: &[bool], lo: usize, hi: usize) -> PropResult {
    let window = &bits[lo..hi];
    prop_assert_eq!(
        s.covers(lo, hi),
        window.iter().all(|&b| b),
        "covers({lo},{hi})"
    );
    prop_assert_eq!(
        s.intersects(lo, hi),
        window.iter().any(|&b| b),
        "intersects({lo},{hi})"
    );
    let uncovered: Vec<(usize, usize)> = model_runs(&bits.iter().map(|&b| !b).collect::<Vec<_>>())
        .into_iter()
        .filter_map(|(a, b)| {
            let (a, b) = (a.max(lo), b.min(hi));
            (a < b).then_some((a, b))
        })
        .collect();
    prop_assert_eq!(
        s.gaps(lo, hi).collect::<Vec<_>>(),
        uncovered,
        "gaps({lo},{hi})"
    );
    let covered: Vec<(usize, usize)> = model_runs(bits)
        .into_iter()
        .filter_map(|(a, b)| {
            let (a, b) = (a.max(lo), b.min(hi));
            (a < b).then_some((a, b))
        })
        .collect();
    prop_assert_eq!(
        s.overlaps(lo, hi).collect::<Vec<_>>(),
        covered,
        "overlaps({lo},{hi})"
    );
    Ok(())
}

#[test]
fn interval_set_matches_bitvec_model() {
    check_with(
        &Config::from_env(),
        |rng| {
            let n_ops = rng.range_usize(1, 40);
            (0..n_ops).map(|_| gen_op(rng)).collect::<Vec<_>>()
        },
        |ops| shrink_vec(ops, shrink_op),
        |ops| {
            let mut s = IntervalSet::new();
            let mut bits = vec![false; N];
            for (step, op) in ops.iter().enumerate() {
                if op.insert {
                    s.insert(op.lo, op.hi);
                    bits[op.lo..op.hi].iter_mut().for_each(|b| *b = true);
                } else {
                    s.remove(op.lo, op.hi);
                    bits[op.lo..op.hi].iter_mut().for_each(|b| *b = false);
                }
                check_against_model(&s, &bits, step)?;
                // Query windows anchored at the op's own coordinates plus
                // the full universe — deterministic, so shrinking is stable.
                check_queries(&s, &bits, 0, N)?;
                check_queries(&s, &bits, op.lo, op.hi.max(op.lo))?;
                let mid = (op.lo + op.hi) / 2;
                check_queries(&s, &bits, op.lo / 2, mid.max(op.lo / 2))?;
            }
            Ok(())
        },
    );
}

#[test]
fn from_range_equals_insert() {
    check_with(
        &Config::from_env(),
        |rng| {
            let lo = rng.range_usize(0, N);
            (lo, lo + rng.range_usize(0, N - lo + 1))
        },
        |_| Vec::new(),
        |&(lo, hi)| {
            let mut a = IntervalSet::new();
            a.insert(lo, hi);
            prop_assert_eq!(IntervalSet::from_range(lo, hi), a);
            Ok(())
        },
    );
}
