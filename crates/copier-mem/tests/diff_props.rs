//! Differential properties for the arena-backed fast paths against their
//! reference models, with shrinking.
//!
//! Two layers are cross-checked:
//!
//! * `PhysMem::copy_run` (single coalesced memcpy/memmove) against a flat
//!   `Vec<u8>` model (`copy_within`), over random op sequences including
//!   overlapping runs;
//! * `AddressSpace::resolve_range` (settled scan, or `resolve` per page
//!   then the scan) against the per-page `resolve` loop with its extents
//!   merged independently of the space's scan, on twin spaces built from
//!   the same random script — including demand-zero, CoW breaks after
//!   `fork`, read-only protection faults, unmapped guard pages, and pages
//!   a partial `munmap` left outside any VMA. Extents, fault work,
//!   cumulative fault stats, and error values must all agree.

use std::rc::Rc;

use copier_mem::{
    frames_of, AddressSpace, AllocPolicy, Extent, FrameId, MemError, PhysMem, Prot, VirtAddr,
    PAGE_SIZE,
};
use copier_testkit::{check_with, shrink_vec, Config, TestRng};
use copier_testkit::{prop_assert, prop_assert_eq};

// ---------------------------------------------------------------------------
// copy_run vs. flat model
// ---------------------------------------------------------------------------

const FRAMES: usize = 8;
const ARENA: usize = FRAMES * PAGE_SIZE;

/// One copy op in absolute arena byte positions (may overlap, may span
/// several pages on either side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CopyOp {
    dst: usize,
    src: usize,
    len: usize,
}

/// Positions biased toward page boundaries, where the tiling logic lives.
fn gen_pos(rng: &mut TestRng, max: usize) -> usize {
    if rng.gen_bool(0.5) {
        let page = rng.range_usize(0, max / PAGE_SIZE + 1);
        let delta = rng.range_usize(0, 5);
        (page * PAGE_SIZE).saturating_sub(delta / 2).min(max)
    } else {
        rng.range_usize(0, max + 1)
    }
}

fn gen_copy_op(rng: &mut TestRng) -> CopyOp {
    let len = if rng.gen_bool(0.3) {
        rng.range_usize(0, 3 * PAGE_SIZE)
    } else {
        rng.range_usize(0, 64)
    };
    let len = len.min(ARENA);
    let dst = gen_pos(rng, ARENA - len);
    // Half the time, place src near dst so the runs overlap.
    let src = if rng.gen_bool(0.5) {
        let jitter = rng.range_usize(0, 2 * PAGE_SIZE);
        (dst + jitter).saturating_sub(PAGE_SIZE).min(ARENA - len)
    } else {
        gen_pos(rng, ARENA - len)
    };
    CopyOp { dst, src, len }
}

fn shrink_copy_op(op: &CopyOp) -> Vec<CopyOp> {
    let mut out = vec![
        CopyOp {
            len: op.len / 2,
            ..*op
        },
        CopyOp {
            dst: op.dst / 2,
            ..*op
        },
        CopyOp {
            src: op.src / 2,
            ..*op
        },
        CopyOp { src: op.dst, ..*op }, // degenerate self-copy
    ];
    out.retain(|c| c != op);
    out
}

fn arena_pool() -> (Rc<PhysMem>, FrameId) {
    let pm = Rc::new(PhysMem::new(FRAMES, AllocPolicy::Sequential));
    let base = pm.alloc_contiguous(FRAMES).unwrap();
    assert_eq!(base, FrameId(0));
    (pm, base)
}

fn at(base: FrameId, pos: usize) -> (FrameId, usize) {
    (FrameId(base.0 + (pos / PAGE_SIZE) as u32), pos % PAGE_SIZE)
}

#[test]
fn copy_run_matches_flat_model() {
    check_with(
        &Config::from_env(),
        |rng| {
            let n = rng.range_usize(1, 12);
            (0..n).map(|_| gen_copy_op(rng)).collect::<Vec<_>>()
        },
        |ops| shrink_vec(ops, shrink_copy_op),
        |ops| {
            let (pm, base) = arena_pool();
            let mut model: Vec<u8> = (0..ARENA).map(|i| (i % 251) as u8).collect();
            pm.write_run(base, 0, &model);

            for op in ops {
                let (df, doff) = at(base, op.dst);
                let (sf, soff) = at(base, op.src);
                pm.copy_run(df, doff, sf, soff, op.len);
                model.copy_within(op.src..op.src + op.len, op.dst);
            }

            let mut got = vec![0u8; ARENA];
            pm.read_run(base, 0, &mut got);
            prop_assert!(got == model, "copy_run diverged from flat model");
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// resolve_range vs. per-page reference on twin scripted spaces
// ---------------------------------------------------------------------------

/// One step of the address-space setup script. Region/space indices are
/// taken modulo the current counts so shrinking never invalidates them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetupOp {
    Mmap {
        pages: usize,
        writable: bool,
        populate: bool,
    },
    Write {
        space: usize,
        region: usize,
        off: usize,
        len: usize,
    },
    Fork,
    /// Unmaps a prefix of a region. A prefix shorter than the region drops
    /// its whole VMA but only the prefix's page-table entries, leaving the
    /// rest mapped in the page table and outside any VMA.
    Unmap {
        space: usize,
        region: usize,
        pages: usize,
    },
}

fn gen_setup_op(rng: &mut TestRng) -> SetupOp {
    match rng.gen_range(11) {
        0..=3 => SetupOp::Mmap {
            pages: rng.range_usize(1, 7),
            writable: rng.gen_bool(0.8),
            populate: rng.gen_bool(0.5),
        },
        4..=7 => SetupOp::Write {
            space: rng.range_usize(0, 4),
            region: rng.range_usize(0, 8),
            off: rng.range_usize(0, 3 * PAGE_SIZE),
            len: rng.range_usize(1, 2 * PAGE_SIZE),
        },
        8 | 9 => SetupOp::Fork,
        _ => SetupOp::Unmap {
            space: rng.range_usize(0, 4),
            region: rng.range_usize(0, 8),
            pages: rng.range_usize(1, 7),
        },
    }
}

fn shrink_setup_op(op: &SetupOp) -> Vec<SetupOp> {
    let mut out = Vec::new();
    match *op {
        SetupOp::Mmap {
            pages,
            writable,
            populate,
        } => {
            if pages > 1 {
                out.push(SetupOp::Mmap {
                    pages: pages / 2,
                    writable,
                    populate,
                });
            }
            if !populate {
                out.push(SetupOp::Mmap {
                    pages,
                    writable,
                    populate: true,
                });
            }
            if !writable {
                out.push(SetupOp::Mmap {
                    pages,
                    writable: true,
                    populate,
                });
            }
        }
        SetupOp::Write {
            space,
            region,
            off,
            len,
        } => {
            out.push(SetupOp::Write {
                space,
                region,
                off: off / 2,
                len,
            });
            out.push(SetupOp::Write {
                space,
                region,
                off,
                len: len / 2,
            });
            if space > 0 {
                out.push(SetupOp::Write {
                    space: 0,
                    region,
                    off,
                    len,
                });
            }
            if region > 0 {
                out.push(SetupOp::Write {
                    space,
                    region: 0,
                    off,
                    len,
                });
            }
            out.retain(|c| c != op);
        }
        SetupOp::Fork => {}
        SetupOp::Unmap {
            space,
            region,
            pages,
        } => {
            out.push(SetupOp::Unmap {
                space: 0,
                region,
                pages,
            });
            out.push(SetupOp::Unmap {
                space,
                region,
                pages: pages / 2,
            });
            out.retain(|c| c != op && !matches!(c, SetupOp::Unmap { pages: 0, .. }));
        }
    }
    out
}

/// The query run after setup, against one of the built spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Query {
    space: usize,
    region: usize,
    off: usize,
    len: usize,
    write: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Case {
    script: Vec<SetupOp>,
    query: Query,
}

fn gen_case(rng: &mut TestRng) -> Case {
    let n = rng.range_usize(1, 10);
    let mut script: Vec<SetupOp> = (0..n).map(|_| gen_setup_op(rng)).collect();
    // Ensure at least one region exists so the query usually lands.
    script.insert(
        0,
        SetupOp::Mmap {
            pages: rng.range_usize(2, 7),
            writable: true,
            populate: rng.gen_bool(0.5),
        },
    );
    Case {
        script,
        query: Query {
            space: rng.range_usize(0, 4),
            region: rng.range_usize(0, 8),
            off: rng.range_usize(0, 4 * PAGE_SIZE),
            // Occasionally overshoot the region into the guard page.
            len: rng.range_usize(1, 6 * PAGE_SIZE + 1),
            write: rng.gen_bool(0.5),
        },
    }
}

fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out: Vec<Case> = shrink_vec(&case.script, shrink_setup_op)
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|script| Case {
            script,
            query: case.query,
        })
        .collect();
    let q = case.query;
    for cand in [
        Query {
            off: q.off / 2,
            ..q
        },
        Query {
            len: q.len / 2 + 1,
            ..q
        },
        Query { write: false, ..q },
        Query { space: 0, ..q },
        Query { region: 0, ..q },
    ] {
        if cand != q {
            out.push(Case {
                script: case.script.clone(),
                query: cand,
            });
        }
    }
    out
}

/// Builds one instance of the scripted world: returns the physical pool,
/// all spaces (root first, then forked children), and the mapped regions
/// as `(va, bytes)`.
#[allow(clippy::type_complexity)]
fn build(script: &[SetupOp]) -> (Rc<PhysMem>, Vec<Rc<AddressSpace>>, Vec<(VirtAddr, usize)>) {
    let pm = Rc::new(PhysMem::new(512, AllocPolicy::Sequential));
    let mut spaces = vec![AddressSpace::new(1, Rc::clone(&pm))];
    let mut regions: Vec<(VirtAddr, usize)> = Vec::new();
    for (i, op) in script.iter().enumerate() {
        match *op {
            SetupOp::Mmap {
                pages,
                writable,
                populate,
            } => {
                let prot = if writable { Prot::RW } else { Prot::RO };
                // All spaces share one VA layout (forks clone it), so only
                // root-mapped regions are addressable everywhere; map in
                // the root and record it.
                let va = spaces[0].mmap(pages * PAGE_SIZE, prot, populate).unwrap();
                regions.push((va, pages * PAGE_SIZE));
            }
            SetupOp::Write {
                space,
                region,
                off,
                len,
            } => {
                if regions.is_empty() {
                    continue;
                }
                let asp = &spaces[space % spaces.len()];
                let (va, bytes) = regions[region % regions.len()];
                let off = off % bytes;
                let len = len.min(bytes - off).max(1);
                let data: Vec<u8> = (0..len).map(|k| (k as u8) ^ (i as u8)).collect();
                // May legitimately fail (read-only region, region mapped
                // after this space forked): both twins fail identically.
                let _ = asp.write_bytes(va.add(off), &data);
            }
            SetupOp::Fork => {
                let child_id = spaces.len() as u32 + 1;
                let child = spaces[0].fork(child_id).unwrap();
                spaces.push(child);
            }
            SetupOp::Unmap {
                space,
                region,
                pages,
            } => {
                if regions.is_empty() {
                    continue;
                }
                let asp = &spaces[space % spaces.len()];
                let (va, bytes) = regions[region % regions.len()];
                // Nothing is pinned during setup, so this cannot fail.
                asp.munmap(va, (pages * PAGE_SIZE).min(bytes)).unwrap();
            }
        }
    }
    (pm, spaces, regions)
}

/// Per-page reference for the gather walk: `resolve` page by page, then
/// the extents merged from those frames here, page piece by page piece,
/// not by the space's own scan. It is what `resolve_range` replaced.
#[allow(clippy::type_complexity)]
fn reference_walk(
    asp: &AddressSpace,
    va: VirtAddr,
    len: usize,
    write: bool,
) -> Result<(Vec<Extent>, Vec<FrameId>, copier_mem::FaultWork), MemError> {
    let first = va.vpn();
    let last = VirtAddr(va.0 + (len - 1) as u64).vpn();
    let mut frames = Vec::new();
    let mut work = copier_mem::FaultWork::default();
    for p in first..=last {
        let (f, w) = asp.resolve(VirtAddr(p * PAGE_SIZE as u64), write)?;
        frames.push(f);
        work.add(w);
    }
    let mut extents: Vec<Extent> = Vec::new();
    let mut done = 0;
    for (i, &frame) in frames.iter().enumerate() {
        let off = if i == 0 { va.page_off() } else { 0 };
        let take = (len - done).min(PAGE_SIZE - off);
        match extents.last_mut() {
            Some(e) if i > 0 && frames[i - 1].0 + 1 == frame.0 => e.len += take,
            _ => extents.push(Extent {
                frame,
                off,
                len: take,
            }),
        }
        done += take;
    }
    Ok((extents, frames, work))
}

#[test]
fn resolve_range_matches_per_page_reference() {
    check_with(&Config::from_env(), gen_case, shrink_case, |case| {
        // Twin worlds from the same script: A answers with the batched
        // walk, B with the per-page reference.
        let (pm_a, spaces_a, regions) = build(&case.script);
        let (pm_b, spaces_b, _) = build(&case.script);
        if regions.is_empty() {
            return Ok(());
        }
        let q = case.query;
        let (va, bytes) = regions[q.region % regions.len()];
        let off = q.off % bytes;
        let va = va.add(off);
        let len = q.len.max(1); // may overshoot into the guard page
        let a = &spaces_a[q.space % spaces_a.len()];
        let b = &spaces_b[q.space % spaces_b.len()];
        prop_assert_eq!(a.fault_stats(), b.fault_stats(), "twin setup stats");

        let got = a.resolve_range(va, len, q.write);
        let want = reference_walk(b, va, len, q.write);
        match (got, want) {
            (Ok((ex, work)), Ok((ref_ex, ref_frames, ref_work))) => {
                prop_assert_eq!(&ex, &ref_ex, "extents");
                prop_assert_eq!(frames_of(&ex), ref_frames, "frames");
                prop_assert_eq!(work, ref_work, "fault work");
            }
            (Err(e), Err(ref_e)) => {
                prop_assert_eq!(e, ref_e, "error value");
            }
            (got, want) => {
                return Err(format!(
                    "outcome mismatch: batched={got:?} reference={want:?}"
                ));
            }
        }
        prop_assert_eq!(a.fault_stats(), b.fault_stats(), "post-walk stats");

        // Pinning a translation pins exactly the spanned frames, and
        // unpinning drops the pool back to zero pinned.
        if let Ok((ex, _)) = a.resolve_range(va, len, q.write) {
            let frames = a.pin_extents(&ex);
            prop_assert_eq!(&frames, &frames_of(&ex), "pinned frames");
            prop_assert_eq!(pm_a.pinned_frames(), frames.len(), "pinned count");
            a.unpin_frames(&frames);
        }
        prop_assert_eq!(pm_a.pinned_frames(), 0, "pinned leak");
        prop_assert_eq!(pm_b.pinned_frames(), 0, "reference pinned leak");
        Ok(())
    });
}
