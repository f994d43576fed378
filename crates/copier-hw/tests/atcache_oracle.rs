//! Oracle properties for the per-space, range-covering ATCache.
//!
//! 1. **Truth.** Whatever sequence of mapping changes 1–64 processes go
//!    through, a cache hit is exactly what a fresh page-table read
//!    returns, and a write hit names only pages the process may write
//!    right now. A case interleaves `mmap` / `munmap` / `mprotect` / fork
//!    (the child shares the parent's id and VA layout, so only the
//!    instance token tells them apart) / child exit (reaped or just
//!    dropped) / touch faults with translations of random sub-ranges,
//!    driven the way the service drives the cache: look up, and on a miss
//!    resolve the range and insert it. The capacity is kept small so FIFO
//!    eviction and stale drops run all the time.
//! 2. **Isolation.** A space's hit/miss sequence is the same whether or
//!    not another space cycles four capacities' worth of buffers beside
//!    it.
//! 3. **Lifetime.** Spaces that are used and dropped without anyone
//!    purging them leave at most one table behind.
//!
//! Reproduce failures with the printed `TESTKIT_REPRO=<seed>` line.

use std::cell::Cell;
use std::rc::Rc;

use copier_hw::ATCache;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr, PAGE_SIZE};
use copier_testkit::prop::{check_with, shrink_vec, Config};
use copier_testkit::{prop_assert, prop_assert_eq, TestRng};

const CAPACITY: usize = 6;
const MAX_PAGES: usize = 6;
const MAX_REGIONS: usize = 8;
const MAX_SPACES: usize = 64;

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
    /// The child goes away; `reap` says whether anyone tells the cache.
    ChildExit {
        reap: bool,
    },
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

/// A case: how many processes there are, and which one each op is for.
#[derive(Debug, Clone)]
struct Script {
    spaces: usize,
    ops: Vec<(usize, Op)>,
}

fn gen_op(rng: &mut TestRng) -> Op {
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
        7 => Op::ChildExit {
            reap: rng.gen_bool(0.5),
        },
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
}

fn gen_script(rng: &mut TestRng) -> Script {
    // Half the cases are the single process the cache used to be tested
    // with; the rest spread the same number of ops over up to 64.
    let spaces = if rng.gen_bool(0.5) {
        1
    } else {
        rng.range_usize(2, MAX_SPACES + 1)
    };
    let n = rng.range_usize(64, 256);
    Script {
        spaces,
        ops: (0..n)
            .map(|_| (rng.range_usize(0, MAX_SPACES), gen_op(rng)))
            .collect(),
    }
}

fn shrink_script(s: &Script) -> Vec<Script> {
    let mut out: Vec<Script> = shrink_vec(&s.ops, |_| Vec::new())
        .into_iter()
        .map(|ops| Script {
            spaces: s.spaces,
            ops,
        })
        .collect();
    if s.spaces > 1 {
        out.push(Script {
            spaces: s.spaces / 2,
            ops: s.ops.clone(),
        });
    }
    out
}

/// The service's translation path against one space, with the oracle on
/// every hit. Returns whether the lookup hit.
fn translate(
    atc: &ATCache,
    asp: &Rc<AddressSpace>,
    va: VirtAddr,
    len: usize,
    write: bool,
) -> Result<bool, String> {
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
            Ok(true)
        }
        None => {
            if let Ok((extents, _)) = asp.resolve_range(va, len, write) {
                atc.insert(asp, va, len, write, &extents);
            }
            Ok(false)
        }
    }
}

/// One process: its space, its forked child, and every mapping it ever
/// made — unmapped ones included, since translating a dead range must
/// miss.
struct Proc {
    parent: Rc<AddressSpace>,
    child: Option<Rc<AddressSpace>>,
    regions: Vec<(VirtAddr, usize)>,
    live: Vec<usize>,
}

impl Proc {
    fn new(id: u32, pm: &Rc<PhysMem>) -> Self {
        Proc {
            parent: AddressSpace::new(id, Rc::clone(pm)),
            child: None,
            regions: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Applies one op; `Some(hit)` if it was a translation.
    fn apply(&mut self, atc: &ATCache, op: &Op) -> Result<Option<bool>, String> {
        match *op {
            Op::Mmap { pages, populate } => {
                if self.live.len() < MAX_REGIONS {
                    if let Ok(va) = self.parent.mmap(pages * PAGE_SIZE, Prot::RW, populate) {
                        self.live.push(self.regions.len());
                        self.regions.push((va, pages));
                    }
                }
            }
            Op::Munmap { region } => {
                if !self.live.is_empty() {
                    let (va, pages) = self.regions[self.live.swap_remove(region % self.live.len())];
                    self.parent
                        .munmap(va, pages * PAGE_SIZE)
                        .expect("nothing is pinned");
                }
            }
            Op::Mprotect { region, write } => {
                if !self.live.is_empty() {
                    let (va, _) = self.regions[self.live[region % self.live.len()]];
                    let prot = if write { Prot::RW } else { Prot::RO };
                    self.parent.mprotect(va, prot).expect("live mapping");
                }
            }
            Op::Fork => {
                // The previous child, if any, dies unannounced.
                self.child = self.parent.fork(self.parent.id()).ok();
            }
            Op::ChildExit { reap } => {
                if let Some(old) = self.child.take() {
                    if reap {
                        atc.purge(&old);
                    }
                }
            }
            Op::Touch {
                child,
                region,
                page,
                write,
            } => {
                let asp = self
                    .child
                    .as_ref()
                    .filter(|_| child)
                    .unwrap_or(&self.parent);
                if !self.regions.is_empty() {
                    let (va, pages) = self.regions[region % self.regions.len()];
                    // Segv (unmapped, read-only) and OOM are legal outcomes.
                    let _ = asp.resolve(va.add((page % pages) * PAGE_SIZE), write);
                }
            }
            Op::Translate {
                child,
                region,
                off,
                len,
                write,
            } => {
                let asp = self
                    .child
                    .as_ref()
                    .filter(|_| child)
                    .unwrap_or(&self.parent);
                if !self.regions.is_empty() {
                    let (va, pages) = self.regions[region % self.regions.len()];
                    let off = off % (pages * PAGE_SIZE);
                    let len = len % (pages * PAGE_SIZE - off + 1);
                    return translate(atc, asp, va.add(off), len, write).map(Some);
                }
            }
        }
        Ok(None)
    }
}

/// Runs one case; returns how many lookups hit.
fn run(script: &Script) -> Result<u64, String> {
    let pm = Rc::new(PhysMem::new(4096, AllocPolicy::Scattered));
    let atc = ATCache::new(CAPACITY);
    let mut procs: Vec<Proc> = (0..script.spaces)
        .map(|i| Proc::new(i as u32 + 1, &pm))
        .collect();
    for (space, op) in &script.ops {
        procs[space % script.spaces].apply(&atc, op)?;
    }
    // Never more than a parent and a child per process are alive, however
    // many children came and went unreaped.
    let peak_live = 2 * procs.len();
    prop_assert!(
        atc.tables() <= 2 * peak_live + 1,
        "{} tables for at most {peak_live} live spaces",
        atc.tables()
    );
    Ok(atc.stats().hits)
}

#[test]
fn every_hit_equals_a_fresh_page_table_read() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 1000;
    }
    let hits = Cell::new(0);
    check_with(&cfg, gen_script, shrink_script, |s: &Script| {
        run(s).map(|n| hits.set(hits.get() + n))
    });
    // The oracle only speaks on hits; make sure the cases produce them.
    assert!(
        cfg.repro.is_some() || hits.get() > 10 * u64::from(cfg.cases),
        "only {} hits",
        hits.get()
    );
}

/// The victim's hit/miss sequence over `ops`, with an antagonist space
/// translating `4 * CAPACITY` buffers of its own between any two of them
/// or not.
fn victim_sequence(ops: &[Op], antagonist: bool) -> Result<Vec<bool>, String> {
    let pm = Rc::new(PhysMem::new(1024, AllocPolicy::Scattered));
    let atc = ATCache::new(CAPACITY);
    let mut victim = Proc::new(1, &pm);
    let other = AddressSpace::new(2, Rc::clone(&pm));
    let pool: Vec<VirtAddr> = (0..4 * CAPACITY)
        .map(|_| other.mmap(PAGE_SIZE, Prot::RW, true).unwrap())
        .collect();
    let mut seq = Vec::new();
    for op in ops {
        seq.extend(victim.apply(&atc, op)?);
        if antagonist {
            for &va in &pool {
                translate(&atc, &other, va, PAGE_SIZE, false)?;
            }
        }
    }
    Ok(seq)
}

#[test]
fn a_neighbour_cycling_its_pool_changes_nothing_for_a_space() {
    let mut cfg = Config::from_env();
    if std::env::var("TESTKIT_CASES").is_err() {
        cfg.cases = 300;
    }
    let hits = Cell::new(0usize);
    check_with(
        &cfg,
        |rng| {
            let n = rng.range_usize(64, 256);
            (0..n).map(|_| gen_op(rng)).collect::<Vec<_>>()
        },
        |ops: &Vec<Op>| shrink_vec(ops, |_| Vec::new()),
        |ops: &Vec<Op>| {
            let alone = victim_sequence(ops, false)?;
            let beside = victim_sequence(ops, true)?;
            prop_assert_eq!(&alone, &beside, "the antagonist moved the victim's hits");
            hits.set(hits.get() + alone.iter().filter(|&&h| h).count());
            Ok(())
        },
    );
    assert!(
        cfg.repro.is_some() || hits.get() > 10 * cfg.cases as usize,
        "only {} victim hits",
        hits.get()
    );
}

#[test]
fn dropped_spaces_leave_at_most_one_table_behind() {
    let pm = Rc::new(PhysMem::new(64, AllocPolicy::Scattered));
    let atc = ATCache::new(CAPACITY);
    for id in 0..10_000u32 {
        let asp = AddressSpace::new(id, Rc::clone(&pm));
        let va = asp.mmap(2 * PAGE_SIZE, Prot::RW, true).unwrap();
        assert!(!translate(&atc, &asp, va, 2 * PAGE_SIZE, false).unwrap());
        assert!(translate(&atc, &asp, va, PAGE_SIZE, false).unwrap());
        // No purge: the space is simply dropped.
    }
    assert!(atc.tables() <= 1, "{} tables", atc.tables());
    assert_eq!(atc.stats().hits, 10_000);
}
