//! The idle spin against the loop it replaced (DESIGN.md §12). Every run
//! here goes twice: once with the core answering quiet idle polls itself
//! (`Core::spin` over `quiet_poll`), once with `ONE_POLL_SPELLS`, every
//! spell one poll — the loop as it was. The service's counters, its
//! control observables, the trace and journal bytes, physical memory, every
//! core's busy time and the end time must be equal. The executor's work
//! must drop where a quiet poll is possible and stay exactly as it was
//! where it is not: under a fault plan, a scrub region, the reference
//! sweep (its active set is empty by design, so "empty" is no sign of
//! idleness) and four shards.

use std::cell::Cell;
use std::rc::Rc;

use copier_hw::CostModel;
use copier_mem::{AddressSpace, AllocPolicy, PhysMem, Prot};
use copier_sim::{FaultConfig, FaultPlan, Machine, Nanos, Sim, SimRng, Tracer};

use super::aggregates::sweeping;
use super::shard::ONE_POLL_SPELLS;
use super::{stats_to_vec, ControlObs, Copier};
use crate::config::{CopierConfig, PollMode};
use crate::descriptor::SegDescriptor;
use crate::journal::JournalStore;
use crate::task::{CopyTask, QueueEntry};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Napi,
    /// `ScenarioDriven`, switched off and on again mid-run.
    Scenario,
    Traced,
    Journaled,
    /// The aggregates' reference reads (`aggregates::sweeping`).
    Sweep,
    Faults,
    Scrub,
    Shards,
}

impl Case {
    /// Whether a quiet poll can happen at all.
    fn may_spin(self) -> bool {
        !matches!(
            self,
            Case::Sweep | Case::Faults | Case::Scrub | Case::Shards
        )
    }

    fn config(self) -> CopierConfig {
        let mut cfg = CopierConfig {
            polling: PollMode::Napi {
                spin_rounds: 64,
                park_timeout: Nanos::from_micros(30),
            },
            ..Default::default()
        };
        match self {
            Case::Napi => {}
            Case::Scenario => cfg.polling = PollMode::ScenarioDriven,
            Case::Traced => cfg.tracer = Some(Tracer::record()),
            Case::Journaled => cfg.journal = Some(JournalStore::new()),
            Case::Sweep => cfg = sweeping(cfg),
            Case::Faults => {
                cfg.fault_plan = Some(FaultPlan::new(FaultConfig {
                    seed: 7,
                    dma_transient_prob: 0.05,
                    atc_stale_prob: 0.05,
                    ..Default::default()
                }));
            }
            Case::Scrub => cfg.scrub_period = 8,
            Case::Shards => cfg.shards = 4,
        }
        cfg
    }
}

#[derive(Debug, PartialEq)]
struct Outcome {
    stats: Vec<u64>,
    obs: ControlObs,
    trace: Vec<u8>,
    journal: Vec<u8>,
    mem: u64,
    busy: Vec<u64>,
    end: u64,
}

const TENANTS: usize = 4;
const COPIES: usize = 40;
const LEN: usize = 16 * 1024;

/// Tenants submit straight to their rings at gaps from back-to-back to
/// past a park, so spells end on a doorbell, on the spin budget and on a
/// stop; each waits for its copy by sleeping, not spinning. Returns the
/// outcome and the executor's events.
fn run(case: Case, one_poll: bool) -> (Outcome, u64) {
    ONE_POLL_SPELLS.with(|c| c.set(one_poll));
    let cfg = case.config();
    let (shards, tracer, journal) = (cfg.shards, cfg.tracer.clone(), cfg.journal.clone());
    let mut sim = Sim::new();
    let h = sim.handle();
    let machine = Machine::new(&h, shards);
    let pm = Rc::new(PhysMem::new(1024, AllocPolicy::Scattered));
    let svc = Copier::new(
        &h,
        Rc::clone(&pm),
        machine.cores().to_vec(),
        Rc::new(CostModel::default()),
        cfg,
    );
    svc.start();
    let done = Rc::new(Cell::new(0));
    for t in 0..TENANTS {
        let space = AddressSpace::new(t as u32 + 1, Rc::clone(&pm));
        let client = svc.register_client(Rc::clone(&space));
        let [src, dst, replica] = [0; 3].map(|_| space.mmap(LEN, Prot::RW, true).unwrap());
        for buf in [src, replica] {
            space.write_bytes(buf, &[t as u8 + 1; LEN]).unwrap();
        }
        if case == Case::Scrub && t == 0 {
            svc.register_scrub_region(&client, &space, src, replica, LEN, 4096);
        }
        let (svc, h, done) = (Rc::clone(&svc), h.clone(), Rc::clone(&done));
        sim.spawn("tenant", async move {
            let rng = SimRng::new(t as u64 + 1);
            for _ in 0..COPIES {
                let gap = [200, 5_000, 20_000, 120_000][rng.range_usize(0, 4)];
                h.sleep(Nanos(rng.gen_range(gap))).await;
                let len = rng.range_usize(64, LEN + 1);
                let descr = Rc::new(SegDescriptor::new(len, 1024));
                let task = CopyTask {
                    dst_space: Rc::clone(&space),
                    dst,
                    src_space: Rc::clone(&space),
                    src,
                    len,
                    seg: 1024,
                    descr: Rc::clone(&descr),
                    func: None,
                    lazy: false,
                    verify: false,
                };
                assert!(client.set(0).uq.copy.push(QueueEntry::Copy(task)).is_ok());
                svc.doorbell(&client);
                while !descr.all_ready() && descr.fault().is_none() {
                    h.sleep(Nanos(300)).await;
                }
            }
            done.set(done.get() + 1);
        });
    }
    let (svc2, h2) = (Rc::clone(&svc), h.clone());
    sim.spawn("driver", async move {
        if case == Case::Scenario {
            h2.sleep(Nanos::from_micros(300)).await;
            svc2.set_scenario_active(false);
            h2.sleep(Nanos::from_micros(400)).await;
            svc2.set_scenario_active(true);
        }
        while done.get() < TENANTS {
            h2.sleep(Nanos::from_micros(50)).await;
        }
        svc2.stop();
    });
    let end = sim.run().as_nanos();
    ONE_POLL_SPELLS.with(|c| c.set(false));
    let out = Outcome {
        stats: stats_to_vec(&svc.stats()),
        obs: svc.control_obs(),
        trace: tracer.map_or_else(Vec::new, |t| t.finish().encode()),
        journal: journal.map_or_else(Vec::new, |j| j.snapshot()),
        mem: pm.digest(),
        busy: machine
            .cores()
            .iter()
            .map(|c| c.busy_time().as_nanos())
            .collect(),
        end,
    };
    (out, sim.stats().events())
}

fn differential(case: Case) {
    let (spun, spun_events) = run(case, false);
    let (polled, polled_events) = run(case, true);
    assert_eq!(spun, polled, "{case:?}: the spin moved something");
    assert!(
        spun.stats[super::stats_layout::IDLE_POLLS] > 0,
        "{case:?}: the run never idled"
    );
    if case.may_spin() {
        assert!(
            spun_events < polled_events,
            "{case:?}: no idle poll was answered in place ({spun_events} events)"
        );
    } else {
        assert_eq!(spun_events, polled_events, "{case:?}: a poll was batched");
    }
}

#[test]
fn one_shard_napi() {
    differential(Case::Napi);
}

#[test]
fn scenario_driven_across_a_deactivation() {
    differential(Case::Scenario);
}

#[test]
fn traced() {
    differential(Case::Traced);
}

#[test]
fn journaled() {
    differential(Case::Journaled);
}

#[test]
fn reference_sweep() {
    differential(Case::Sweep);
}

#[test]
fn fault_plan() {
    differential(Case::Faults);
}

#[test]
fn scrub_regions() {
    differential(Case::Scrub);
}

#[test]
fn four_shards() {
    differential(Case::Shards);
}
