//! Differential property suite: index-backed hazard/absorption analysis
//! (`absorb::analyze_indexed` over a [`PendIndex`]) against the linear
//! reference sweep (`absorb::analyze`) on seeded multi-tenant windows.
//!
//! Each case generates a window of tasks over a handful of small address
//! spaces on a page grid (so overlaps, chains, hazards, and partially
//! copied producers are all common), builds the address index the way the
//! service does on submit, and checks that both analyses agree entry by
//! entry on the *plan*: blocked flag, blockers (in window order), pieces
//! (offset, length, space, address, depth), absorbed byte total, and the
//! defer set (order-normalized — its application is commutative). A
//! failing case shrinks to a locally minimal window and prints a
//! `TESTKIT_REPRO` seed.
//!
//! With absorption disabled the analyses must also block a reader on every
//! unfinished earlier producer of its source (stated independently of both
//! implementations): nothing else enforces RAW once layering is off.
//!
//! A further property exercises index *maintenance*: removing entries (as
//! finalize does, including re-removal of already-gone records) must keep
//! the index an exact mirror of the surviving window.

use std::rc::Rc;

use copier_core::absorb::{analyze, analyze_indexed, AbsorbPlan};
use copier_core::client::PendEntry;
use copier_core::descriptor::{CopyFault, SegDescriptor};
use copier_core::pendindex::PendIndex;
use copier_core::task::CopyTask;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, VirtAddr};
use copier_sim::Nanos;
use copier_testkit::{check_with, prop_assert, prop_assert_eq, shrink_vec, Config, TestRng};

const PAGE: usize = 4096;
/// Length table: sub-page, page, multi-page, and unaligned variants.
const LENS: [usize; 5] = [1, 1024, PAGE, PAGE + 2048, 2 * PAGE];
const SPACES: usize = 3;
const PAGES: u8 = 12;

/// One generated task, in shrink-friendly small-integer coordinates.
#[derive(Debug, Clone, Copy)]
struct TaskSpec {
    src_space: u8,
    src_page: u8,
    dst_space: u8,
    dst_page: u8,
    /// Index into [`LENS`].
    len_sel: u8,
    /// Copied-so-far shape: 0 none, 1 prefix, 2 middle, 3 full, 4 chunks.
    copied_sel: u8,
    /// 0 live, 1 aborted, 2 failed.
    state_sel: u8,
}

#[derive(Debug, Clone)]
struct Case {
    specs: Vec<TaskSpec>,
    /// Absorption enabled, or hazard-detection-only (Fig 12-c ablation).
    enabled: bool,
}

fn gen_spec(rng: &mut TestRng) -> TaskSpec {
    // Bias toward live entries; finished/aborted/failed ones must be
    // transparent to both analyses but need not dominate the window.
    let state = match rng.gen_range(8) {
        0 => 1,
        1 => 2,
        _ => 0,
    };
    TaskSpec {
        src_space: rng.gen_range(SPACES as u64) as u8,
        src_page: rng.gen_range(PAGES as u64) as u8,
        dst_space: rng.gen_range(SPACES as u64) as u8,
        dst_page: rng.gen_range(PAGES as u64) as u8,
        len_sel: rng.gen_range(LENS.len() as u64) as u8,
        copied_sel: rng.gen_range(5) as u8,
        state_sel: state,
    }
}

fn gen_case(rng: &mut TestRng) -> Case {
    let n = rng.range_usize(0, 25);
    Case {
        specs: (0..n).map(|_| gen_spec(rng)).collect(),
        enabled: rng.gen_bool(0.8),
    }
}

/// Integer ladder on every field (halve, decrement).
fn shrink_spec(s: &TaskSpec) -> Vec<TaskSpec> {
    let mut out = Vec::new();
    macro_rules! ladder {
        ($f:ident) => {
            if s.$f != 0 {
                let mut half = *s;
                half.$f /= 2;
                out.push(half);
                if s.$f > 1 {
                    let mut dec = *s;
                    dec.$f -= 1;
                    out.push(dec);
                }
            }
        };
    }
    ladder!(src_space);
    ladder!(src_page);
    ladder!(dst_space);
    ladder!(dst_page);
    ladder!(len_sel);
    ladder!(copied_sel);
    ladder!(state_sel);
    out
}

fn shrink_case(c: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = shrink_vec(&c.specs, shrink_spec)
        .into_iter()
        .map(|specs| Case {
            specs,
            enabled: c.enabled,
        })
        .collect();
    if c.enabled {
        out.push(Case {
            specs: c.specs.clone(),
            enabled: false,
        });
    }
    out
}

/// Materializes the window: ascending keys in vector order (so slice
/// order == window order == key order, as in the service).
fn build(specs: &[TaskSpec]) -> Vec<Rc<PendEntry>> {
    let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
    let spaces: Vec<Rc<AddressSpace>> = (0..SPACES as u32)
        .map(|id| AddressSpace::new(id + 1, Rc::clone(&pm)))
        .collect();
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let tid = i as u64 + 1;
            let len = LENS[s.len_sel as usize % LENS.len()];
            let src = VirtAddr(((s.src_page as usize + 1) * PAGE) as u64);
            let dst = VirtAddr(((s.dst_page as usize + 1) * PAGE) as u64);
            let e = Rc::new(PendEntry::new(
                tid,
                (0, 1, tid),
                CopyTask {
                    dst_space: Rc::clone(&spaces[s.dst_space as usize % SPACES]),
                    dst,
                    src_space: Rc::clone(&spaces[s.src_space as usize % SPACES]),
                    src,
                    len,
                    seg: 1024,
                    descr: Rc::new(SegDescriptor::new(len, 1024)),
                    func: None,
                    lazy: false,
                    verify: false,
                },
                Nanos::ZERO,
            ));
            {
                let mut copied = e.copied.borrow_mut();
                match s.copied_sel % 5 {
                    0 => {}
                    1 => {
                        copied.insert(0, (len / 3).max(1));
                    }
                    2 => {
                        let lo = len / 4;
                        let hi = (3 * len / 4).max(lo + 1).min(len);
                        copied.insert(lo, hi);
                    }
                    3 => {
                        copied.insert(0, len);
                    }
                    _ => {
                        let chunk = (len / 8).max(1).min(len);
                        copied.insert(0, chunk);
                        let lo = len / 2;
                        let hi = (lo + chunk).min(len);
                        if lo > chunk && lo < hi {
                            copied.insert(lo, hi);
                        }
                    }
                }
            }
            match s.state_sel % 3 {
                1 => e.aborted.set(true),
                2 => e.failed.set(Some(CopyFault::Segv)),
                _ => {}
            }
            e
        })
        .collect()
}

/// Plan fingerprint. Blockers keep their order (both paths must produce
/// window order); defers are sorted — the linear backward sweep and the
/// indexed worklist discover the same set in different orders, and
/// applying a defer is commutative (interval insert + same `defer_until`).
type Norm = (
    bool,
    Vec<u64>,
    usize,
    Vec<(usize, usize, u32, u64, u32)>,
    Vec<(u64, usize, usize)>,
);

fn norm(p: &AbsorbPlan) -> Norm {
    let mut defers: Vec<(u64, usize, usize)> =
        p.defers.iter().map(|(e, s, t)| (e.tid, *s, *t)).collect();
    defers.sort_unstable();
    (
        p.blocked,
        p.blockers.iter().map(|b| b.tid).collect(),
        p.absorbed_bytes,
        p.pieces
            .iter()
            .map(|x| (x.off, x.len, x.space.id(), x.va.0, x.depth))
            .collect(),
        defers,
    )
}

/// `TESTKIT_CASES` still overrides, but the differential suite defaults
/// to well past 1000 seeded windows.
fn cfg() -> Config {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = cfg.cases.max(1024);
    }
    cfg
}

#[test]
fn indexed_analysis_matches_linear_reference() {
    check_with(&cfg(), gen_case, shrink_case, |case| {
        let entries = build(&case.specs);
        // The index holds the whole window — including each analyzed
        // entry and everything after it — exactly as in the service;
        // `analyze_indexed` must ignore keys >= the entry's own.
        let index = PendIndex::new();
        for e in &entries {
            index.insert(e);
        }
        for (i, e) in entries.iter().enumerate() {
            let linear = analyze(e, &entries[..i], case.enabled);
            let (indexed, _hits) = analyze_indexed(e, &index, case.enabled);
            prop_assert_eq!(
                norm(&linear),
                norm(&indexed),
                "entry {} (tid {}) diverged, enabled={}",
                i,
                e.tid,
                case.enabled
            );
        }
        Ok(())
    });
}

/// With layering off nothing but the hazard scan orders a reader behind
/// its producer: every unfinished earlier entry writing into the task's
/// source must be a blocker of both analyses, and the plan must read the
/// task's own source.
#[test]
fn disabled_analysis_blocks_on_unfinished_producers() {
    check_with(&cfg(), gen_case, shrink_case, |case| {
        let entries = build(&case.specs);
        let index = PendIndex::new();
        for e in &entries {
            index.insert(e);
        }
        for (i, e) in entries.iter().enumerate() {
            let (ssp, slo, shi) = e.task.src_range();
            let producers: Vec<u64> = entries[..i]
                .iter()
                .filter(|p| {
                    let (dsp, dlo, dhi) = p.task.dst_range();
                    !p.finished() && dsp == ssp && dlo < shi && slo < dhi
                })
                .map(|p| p.tid)
                .collect();
            for plan in [
                analyze(e, &entries[..i], false),
                analyze_indexed(e, &index, false).0,
            ] {
                let blockers: Vec<u64> = plan.blockers.iter().map(|b| b.tid).collect();
                prop_assert!(
                    producers.iter().all(|t| blockers.contains(t)),
                    "entry {}: producers {:?} not all in blockers {:?}",
                    i,
                    producers,
                    blockers
                );
                prop_assert_eq!(plan.blocked, !blockers.is_empty());
                prop_assert_eq!(plan.absorbed_bytes, 0);
                prop_assert!(plan.pieces.len() == 1 && plan.pieces[0].depth == 0);
            }
        }
        Ok(())
    });
}

#[test]
fn index_mirrors_window_across_removals() {
    check_with(&cfg(), gen_case, shrink_case, |case| {
        let entries = build(&case.specs);
        let index = PendIndex::new();
        for e in &entries {
            index.insert(e);
        }
        prop_assert!(
            index.check_against(entries.iter()).is_ok(),
            "index inconsistent right after build"
        );
        // Finalize-style removal of the fully-copied entries; removing a
        // record twice must be a no-op (finalize is idempotent).
        let gone = |s: &TaskSpec| s.copied_sel % 5 == 3;
        for (e, s) in entries.iter().zip(&case.specs) {
            if gone(s) {
                index.remove(e);
                index.remove(e);
            }
        }
        let survivors: Vec<Rc<PendEntry>> = entries
            .iter()
            .zip(&case.specs)
            .filter(|(_, s)| !gone(s))
            .map(|(e, _)| Rc::clone(e))
            .collect();
        if let Err(msg) = index.check_against(survivors.iter()) {
            return Err(format!("index diverged after removals: {msg}"));
        }
        for e in &survivors {
            index.remove(e);
        }
        prop_assert!(index.is_empty(), "records left after removing all");
        Ok(())
    });
}
