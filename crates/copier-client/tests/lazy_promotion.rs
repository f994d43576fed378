//! Differential property: range-granular promotion of lazy copies (§4.4,
//! Fig. 8) against sequential `memcpy`.
//!
//! A case is a lazy chain `S → U` (A) `→ O` (B, optional) with `csync`s of
//! sub-ranges, client writes into the synced bytes, non-lazy consumers
//! reading `U` or `O`, and one of three endings: the mediators are
//! aborted, the lazy period expires, or `csync_all` promotes everything.
//! Every byte the client may look at must equal what copying in program
//! order would have left there — and when the chain ends in aborts, the
//! service must have copied no more than the synced segments plus what
//! the consumers pulled: a `csync` of part of a lazy task lands that part.

use std::cell::RefCell;
use std::rc::Rc;

use copier_client::{AmemcpyOpts, CopierHandle};
use copier_core::{Copier, CopierConfig, DEFAULT_SEGMENT};
use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot, VirtAddr};
use copier_sim::{Machine, Nanos, Sim, SimRng};
use copier_testkit::{check_with, prop_assert, prop_assert_eq, Config, PropResult, TestRng};

const CAP: usize = 24 * 1024;
const LAZY_PERIOD: Nanos = Nanos::from_millis(1);

/// A byte range of a chain buffer, and the byte the client then writes
/// over the first `write` bytes of it (after the csync that made it
/// legal).
#[derive(Debug, Clone, Copy)]
struct Sync {
    off: usize,
    len: usize,
    write: usize,
    val: u8,
}

#[derive(Debug, Clone, Copy)]
enum Ending {
    /// `abort` A and B, by address or by descriptor.
    Abort {
        by_addr: bool,
    },
    /// Sleep past the lazy period, then look.
    Expire,
    CsyncAll,
}

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    /// csyncs (and writes) on `U` after A is submitted.
    on_u: Vec<Sync>,
    /// `Some`: B is submitted, then these csyncs (and writes) on `O`.
    on_o: Option<Vec<Sync>>,
    /// Consumers `(reads O rather than U, off, len)`, each into a buffer
    /// of its own.
    consumers: Vec<(bool, usize, usize)>,
    ending: Ending,
    use_dma: bool,
}

fn gen_syncs(rng: &mut TestRng, n: usize) -> Vec<Sync> {
    (0..rng.range_usize(0, 4))
        .map(|_| {
            let off = rng.range_usize(0, n);
            let len = rng.range_usize(1, (n - off).min(3000) + 1);
            Sync {
                off,
                len,
                write: rng.range_usize(0, len.min(80) + 1),
                val: rng.next_u64() as u8,
            }
        })
        .collect()
}

fn gen_case(rng: &mut TestRng) -> Case {
    let n = rng.range_usize(1, CAP + 1);
    let on_o = rng.gen_bool(0.7).then(|| gen_syncs(rng, n));
    let consumers = (0..rng.range_usize(0, 3))
        .map(|_| {
            let off = if rng.gen_bool(0.5) {
                0
            } else {
                rng.range_usize(0, n)
            };
            let len = if rng.gen_bool(0.5) {
                n - off
            } else {
                rng.range_usize(1, n - off + 1)
            };
            (on_o.is_some() && rng.gen_bool(0.7), off, len)
        })
        .collect();
    Case {
        n,
        on_u: gen_syncs(rng, n),
        on_o,
        consumers,
        ending: match rng.gen_range(4) {
            0 => Ending::Expire,
            1 => Ending::CsyncAll,
            _ => Ending::Abort {
                by_addr: rng.gen_bool(0.5),
            },
        },
        use_dma: rng.gen_bool(0.7),
    }
}

fn shrink_case(c: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for i in 0..c.on_u.len() {
        let mut s = c.clone();
        s.on_u.remove(i);
        out.push(s);
    }
    if let Some(on_o) = &c.on_o {
        for i in 0..on_o.len() {
            let mut s = c.clone();
            s.on_o.as_mut().unwrap().remove(i);
            out.push(s);
        }
    }
    for i in 0..c.consumers.len() {
        let mut s = c.clone();
        s.consumers.remove(i);
        out.push(s);
    }
    out
}

/// Applies a stage's writes to the model and returns the bytes its csyncs
/// had to land: the union of the segments they touch.
fn model_stage(buf: &mut [u8], syncs: &[Sync]) -> usize {
    let mut segs = vec![false; buf.len().div_ceil(DEFAULT_SEGMENT)];
    for s in syncs {
        buf[s.off..s.off + s.write].fill(s.val);
        segs[s.off / DEFAULT_SEGMENT..=(s.off + s.len - 1) / DEFAULT_SEGMENT].fill(true);
    }
    let full = segs.iter().filter(|&&s| s).count() * DEFAULT_SEGMENT;
    // The tail segment may be short.
    if segs.last() == Some(&true) {
        full - (segs.len() * DEFAULT_SEGMENT - buf.len())
    } else {
        full
    }
}

fn run_case(case: &Case) -> PropResult {
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, 2);
    let pm = Rc::new(PhysMem::new(256, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        vec![machine.core(1)],
        Rc::new(CostModel::default()),
        CopierConfig {
            lazy_period: LAZY_PERIOD,
            use_dma: case.use_dma,
            ..Default::default()
        },
    );
    svc.start();
    let space = AddressSpace::new(1, Rc::clone(&pm));
    let lib = CopierHandle::new(&svc, Rc::clone(&space));
    let core = machine.core(0);

    // The model: sequential memcpy in program order.
    let n = case.n;
    let mut source = vec![0u8; n];
    SimRng::new(n as u64).fill_bytes(&mut source);
    let mut u_model = source.clone();
    let mut synced_bytes = model_stage(&mut u_model, &case.on_u);
    let mut o_model = u_model.clone();
    if let Some(on_o) = &case.on_o {
        synced_bytes += model_stage(&mut o_model, on_o);
    }

    let result: Rc<RefCell<Option<PropResult>>> = Rc::default();
    let (result2, svc2, case2) = (Rc::clone(&result), Rc::clone(&svc), case.clone());
    sim.spawn("driver", async move {
        let case = case2;
        let body = async {
            let map = || space.mmap(CAP, Prot::RW, true).unwrap();
            let (s, u, o) = (map(), map(), map());
            space.write_bytes(s, &source).unwrap();
            let lazy = || AmemcpyOpts {
                lazy: true,
                ..Default::default()
            };
            // csync a range, then (only then) write into it.
            let stage = |buf: VirtAddr, syncs: Vec<Sync>| {
                let (lib, core, space) = (Rc::clone(&lib), Rc::clone(&core), Rc::clone(&space));
                async move {
                    for sy in syncs {
                        prop_assert_eq!(lib.csync(&core, buf.add(sy.off), sy.len).await, Ok(()));
                        let bytes = vec![sy.val; sy.write];
                        space.write_bytes(buf.add(sy.off), &bytes).unwrap();
                    }
                    Ok(())
                }
            };
            let read = |va: VirtAddr, off: usize, len: usize| {
                let mut out = vec![0u8; len];
                space.read_bytes(va.add(off), &mut out).unwrap();
                out
            };

            let a = lib._amemcpy(&core, u, s, n, lazy()).await.unwrap();
            stage(u, case.on_u.clone()).await?;
            let mut mediators = vec![(u, a)];
            if let Some(on_o) = &case.on_o {
                let b = lib._amemcpy(&core, o, u, n, lazy()).await.unwrap();
                stage(o, on_o.clone()).await?;
                mediators.push((o, b));
            }
            let mut pulled = 0;
            for &(from_o, off, len) in &case.consumers {
                let (src, model) = if from_o { (o, &o_model) } else { (u, &u_model) };
                let k = map();
                let d = lib.amemcpy(&core, k, src.add(off), len).await.unwrap();
                // No csync: a promotion whose bytes have landed no longer
                // holds back the tasks behind it.
                let h = svc2.sim_handle();
                let deadline = h.now() + Nanos(LAZY_PERIOD.as_nanos() / 4);
                while !d.all_ready() && h.now() < deadline {
                    h.sleep(Nanos(200)).await;
                }
                prop_assert!(d.all_ready(), "consumer held back by an ended promotion");
                prop_assert!(read(k, 0, len) == model[off..off + len], "consumer bytes");
                pulled += len;
            }
            match case.ending {
                Ending::Abort { by_addr } => {
                    for (dst, d) in &mediators {
                        let placed = if by_addr {
                            lib.abort(&core, *dst, n).await
                        } else {
                            lib.abort_task(&core, d, 0).await
                        };
                        prop_assert!(placed);
                    }
                    svc2.sim_handle().sleep(Nanos::from_micros(5)).await;
                    // The mediators are gone and copied what was asked of
                    // them, no more.
                    let copied = svc2.stats().bytes_copied as usize;
                    prop_assert!(
                        copied <= synced_bytes + pulled,
                        "copied {copied} > synced {synced_bytes} + pulled {pulled}"
                    );
                    // What the client synced stays what it may read.
                    let stages = [
                        (u, &u_model, Some(&case.on_u)),
                        (o, &o_model, case.on_o.as_ref()),
                    ];
                    for (va, model, syncs) in stages {
                        for sy in syncs.into_iter().flatten() {
                            let want = &model[sy.off..sy.off + sy.len];
                            prop_assert!(read(va, sy.off, sy.len) == want, "synced bytes");
                        }
                    }
                }
                Ending::Expire | Ending::CsyncAll => {
                    if matches!(case.ending, Ending::Expire) {
                        let wait = Nanos(3 * LAZY_PERIOD.as_nanos());
                        svc2.sim_handle().sleep(wait).await;
                        prop_assert!(mediators.iter().all(|(_, d)| d.all_ready()), "expiry");
                    }
                    prop_assert_eq!(lib.csync_all(&core).await, Ok(()));
                    prop_assert!(read(u, 0, n) == u_model, "U after {:?}", case.ending);
                    if case.on_o.is_some() {
                        prop_assert!(read(o, 0, n) == o_model, "O after {:?}", case.ending);
                    }
                }
            }
            Ok(())
        };
        *result2.borrow_mut() = Some(body.await);
        svc2.stop();
    });
    sim.run();
    result.borrow_mut().take().expect("driver ran to its end")?;
    prop_assert_eq!(pm.pinned_frames(), 0);
    if let Err(e) = svc.audit_aggregates() {
        return Err(format!("audit_aggregates: {e}"));
    }
    Ok(())
}

#[test]
fn partly_synced_lazy_chains_match_sequential_memcpy() {
    check_with(&Config::from_env(), gen_case, shrink_case, run_case);
}
