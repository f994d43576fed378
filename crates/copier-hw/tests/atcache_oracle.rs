//! Oracle property for the range-covering ATCache: whatever sequence of
//! mapping changes a process goes through, a cache hit is exactly what a
//! fresh page-table read returns, and a write hit names only pages the
//! process may write right now.
//!
//! A case interleaves `mmap` / `munmap` / `mprotect` / fork (the child
//! shares the parent's id and VA layout, so only the instance token tells
//! them apart) / child exit / touch faults with translations of random
//! sub-ranges, driven the way the service drives the cache: look up, and on
//! a miss resolve the range and insert it. The cache is kept small so FIFO
//! eviction and stale drops run all the time.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::Cell;
use std::rc::Rc;

use copier_hw::ATCache;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier_testkit::prop::{check_with, shrink_vec, Config, PropResult};
use copier_testkit::{prop_assert, prop_assert_eq, TestRng};

const MAX_PAGES: usize = 6;
const MAX_REGIONS: usize = 8;

/// Indices and offsets are raw draws, reduced modulo what exists when the
/// op runs, so any sub-sequence of a case is still a valid case.
#[derive(Debug, Clone)]
enum Op {
    Mmap {
        pages: usize,
        populate: bool,
    },
    Munmap {
        region: usize,
    },
    Mprotect {
        region: usize,
        write: bool,
    },
    Fork,
    ChildExit,
    /// A CPU access: demand-zero or CoW-break fault on one page.
    Touch {
        child: bool,
        region: usize,
        page: usize,
        write: bool,
    },
    Translate {
        child: bool,
        region: usize,
        off: usize,
        len: usize,
        write: bool,
    },
}

fn gen_ops(rng: &mut TestRng) -> Vec<Op> {
    let n = rng.range_usize(64, 256);
    (0..n)
        .map(|_| {
            let region = rng.range_usize(0, 64);
            let child = rng.gen_bool(0.3);
            let write = rng.gen_bool(0.5);
            match rng.gen_range(128) {
                0..=3 => Op::Mmap {
                    pages: rng.range_usize(1, MAX_PAGES + 1),
                    populate: rng.gen_bool(0.6),
                },
                4 => Op::Munmap { region },
                5 => Op::Mprotect { region, write },
                6 => Op::Fork,
                7 => Op::ChildExit,
                8..=9 => Op::Touch {
                    child,
                    region,
                    page: rng.range_usize(0, MAX_PAGES),
                    write,
                },
                _ => Op::Translate {
                    child,
                    region,
                    // Buffers are mostly named by their base, as recycled
                    // pools are; the rest start anywhere inside.
                    off: if rng.gen_bool(0.8) {
                        0
                    } else {
                        rng.range_usize(0, MAX_PAGES * PAGE_SIZE)
                    },
                    len: rng.range_usize(0, MAX_PAGES * PAGE_SIZE + 1),
                    write,
                },
            }
        })
        .collect()
}

/// The service's translation path against one space, with the oracle on
/// every hit.
fn translate(
    atc: &ATCache,
    asp: &AddressSpace,
    va: VirtAddr,
    len: usize,
    write: bool,
) -> PropResult {
    match atc.lookup(asp, va, len, write) {
        Some(hit) => {
            prop_assert_eq!(asp.extents(va, len), Ok(hit), "va {va} len {len}");
            if write && len > 0 {
                for vpn in va.vpn()..=va.add(len - 1).vpn() {
                    let pte = asp.translate(VirtAddr(vpn * PAGE_SIZE as u64));
                    prop_assert!(
                        pte.is_some_and(|p| p.writable),
                        "write hit on a page that is not writable: vpn {vpn:#x} {pte:?}"
                    );
                }
            }
        }
        None => {
            if let Ok((extents, _)) = asp.resolve_range(va, len, write) {
                atc.insert(asp, va, len, write, &extents);
            }
        }
    }
    Ok(())
}

/// Runs one case; returns how many lookups hit.
fn run(ops: &[Op]) -> Result<u64, String> {
    let pm = Rc::new(PhysMem::new(512, AllocPolicy::Scattered));
    let atc = ATCache::new(6);
    let parent = AddressSpace::new(1, Rc::clone(&pm));
    let mut child: Option<Rc<AddressSpace>> = None;
    // Every mapping ever made, unmapped ones included: translating a dead
    // range must miss.
    let mut regions: Vec<(VirtAddr, usize)> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    for op in ops {
        match *op {
            Op::Mmap { pages, populate } => {
                if live.len() < MAX_REGIONS {
                    if let Ok(va) = parent.mmap(pages * PAGE_SIZE, Prot::RW, populate) {
                        live.push(regions.len());
                        regions.push((va, pages));
                    }
                }
            }
            Op::Munmap { region } => {
                if !live.is_empty() {
                    let (va, pages) = regions[live.swap_remove(region % live.len())];
                    parent
                        .munmap(va, pages * PAGE_SIZE)
                        .expect("nothing is pinned");
                }
            }
            Op::Mprotect { region, write } => {
                if !live.is_empty() {
                    let (va, _) = regions[live[region % live.len()]];
                    let prot = if write { Prot::RW } else { Prot::RO };
                    parent.mprotect(va, prot).expect("live mapping");
                }
            }
            Op::Fork => {
                if let Some(old) = child.take() {
                    atc.purge(&old);
                }
                child = parent.fork(1).ok();
            }
            Op::ChildExit => {
                if let Some(old) = child.take() {
                    atc.purge(&old);
                }
            }
            Op::Touch {
                child: in_child,
                region,
                page,
                write,
            } => {
                let asp = child.as_ref().filter(|_| in_child).unwrap_or(&parent);
                if !regions.is_empty() {
                    let (va, pages) = regions[region % regions.len()];
                    // Segv (unmapped, read-only) and OOM are legal outcomes.
                    let _ = asp.resolve(va.add((page % pages) * PAGE_SIZE), write);
                }
            }
            Op::Translate {
                child: in_child,
                region,
                off,
                len,
                write,
            } => {
                let asp = child.as_ref().filter(|_| in_child).unwrap_or(&parent);
                if !regions.is_empty() {
                    let (va, pages) = regions[region % regions.len()];
                    let off = off % (pages * PAGE_SIZE);
                    let len = len % (pages * PAGE_SIZE - off + 1);
                    translate(&atc, asp, va.add(off), len, write)?;
                }
            }
        }
    }
    Ok(atc.stats().hits)
}

#[test]
fn every_hit_equals_a_fresh_page_table_read() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 1000;
    }
    let hits = Cell::new(0);
    check_with(
        &cfg,
        gen_ops,
        |ops: &Vec<Op>| shrink_vec(ops, |_| Vec::new()),
        |ops: &Vec<Op>| run(ops).map(|n| hits.set(hits.get() + n)),
    );
    // The oracle only speaks on hits; make sure the cases produce them.
    assert!(
        cfg.repro.is_some() || hits.get() > 20 * u64::from(cfg.cases),
        "only {} hits",
        hits.get()
    );
}
