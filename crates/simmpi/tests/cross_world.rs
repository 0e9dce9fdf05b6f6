//! One world against the other: the same rank body — rank-dependent
//! compute, a ring halo exchange with two different modeled sizes, a
//! hypercube exchange — once as a closure on the thread world
//! ([`run_cluster`]) and once as a [`RankProgram`] on the event engine
//! ([`run_virtual_cluster`]).  Both worlds keep one `simcluster::Endpoint`
//! per rank and time every message with its two formulas, so the per-rank
//! virtual-time records must agree exactly.

use simcluster::{MachineModel, SimTime, Topology};
use simmpi::{
    run_cluster, run_virtual_cluster, ClusterConfig, EngineConfig, MpiError, ProcHandle, RankCtx,
    RankProgram, Step,
};

const ROUNDS: usize = 3;
const TO_RIGHT: (u32, usize) = (1, 96 * 1024);
const TO_LEFT: (u32, usize) = (2, 512);
const CUBE_TAG: u32 = 3;
const CUBE_BYTES: usize = 8;

fn flops(rank: usize, round: usize) -> f64 {
    1e6 * (1 + rank % 5 + round) as f64
}

/// The body as the flat list of steps one rank executes; sends come before
/// the receives of the same phase in both worlds.
fn script(rank: usize, world: usize) -> Vec<Step> {
    let (right, left) = ((rank + 1) % world, (rank + world - 1) % world);
    let mut steps = Vec::new();
    for round in 0..ROUNDS {
        steps.push(Step::Compute {
            flops: flops(rank, round),
            mem_bytes: 4e5,
        });
        for (dst, (tag, bytes)) in [(right, TO_RIGHT), (left, TO_LEFT)] {
            steps.push(Step::Send { dst, tag, bytes });
        }
        for (src, (tag, _)) in [(left, TO_RIGHT), (right, TO_LEFT)] {
            steps.push(Step::Recv {
                src: Some(src),
                tag: Some(tag),
            });
        }
        let mut bit = 1;
        while bit < world {
            let partner = rank ^ bit;
            if partner < world {
                steps.push(Step::Send {
                    dst: partner,
                    tag: CUBE_TAG,
                    bytes: CUBE_BYTES,
                });
                steps.push(Step::Recv {
                    src: Some(partner),
                    tag: Some(CUBE_TAG),
                });
            }
            bit <<= 1;
        }
    }
    steps
}

struct Scripted {
    steps: std::vec::IntoIter<Step>,
}

impl RankProgram for Scripted {
    fn step(&mut self, _ctx: &RankCtx) -> Step {
        self.steps.next().unwrap_or(Step::Done)
    }
}

fn run_threaded(proc: ProcHandle) {
    let world = proc.world();
    for step in script(world.rank(), world.size()) {
        match step {
            Step::Compute { flops, mem_bytes } => proc.charge_compute(flops, mem_bytes),
            Step::Send { dst, tag, bytes } => {
                // A buffered send: the request is dropped, not waited on.
                world
                    .isend_with_modeled_size(&[0u8], dst, tag, bytes)
                    .unwrap();
            }
            Step::Recv { src, tag } => {
                world.recv::<u8>(src.unwrap(), tag.unwrap()).unwrap();
            }
            Step::Elapse(_) | Step::Done => unreachable!("not in the script"),
        }
    }
}

type Record = (SimTime, SimTime, SimTime, SimTime);

#[test]
fn both_worlds_produce_the_same_virtual_time_records() {
    let machine = MachineModel::grid5000_ib20g();
    for (ranks, cores_per_node) in [(8, 4), (12, 4), (16, 8), (6, 1)] {
        let topology = Topology::block(ranks, cores_per_node);

        let threads = run_cluster(
            &ClusterConfig::new(ranks)
                .with_machine(machine)
                .with_topology(topology.clone()),
            run_threaded,
        );
        assert!(!threads.any_panicked());
        let threads: Vec<Record> = threads
            .procs
            .iter()
            .map(|p| (p.final_time, p.compute_time, p.comm_time, p.wait_time))
            .collect();

        let engine = run_virtual_cluster(
            &EngineConfig::new(ranks)
                .with_machine(machine)
                .with_topology(topology),
            |rank| Scripted {
                steps: script(rank, ranks).into_iter(),
            },
        );
        assert_eq!(engine.num_completed(), ranks);
        let engine: Vec<Record> = engine
            .ranks
            .iter()
            .map(|r| (r.final_time, r.compute_time, r.comm_time, r.wait_time))
            .collect();

        assert_eq!(threads, engine, "{ranks} ranks, {cores_per_node} per node");
        // Not vacuous: somebody computed, communicated and waited.
        assert!(threads
            .iter()
            .all(|r| r.1 > SimTime::ZERO && r.2 > SimTime::ZERO));
        assert!(threads.iter().any(|r| r.3 > SimTime::ZERO));
    }
}

/// A receive from and a send to rank `world`, one past the last: the thread
/// world returns `InvalidRank` for each, and on the engine the same step
/// ends the rank as errored with that error's text while the others
/// complete.
#[test]
fn both_worlds_reject_a_rank_outside_the_run() {
    const RANKS: usize = 4;
    let invalid = MpiError::InvalidRank {
        rank: RANKS,
        size: RANKS,
    };

    let threads = run_cluster(&ClusterConfig::ideal(RANKS), |proc| {
        let world = proc.world();
        (
            world.recv::<u8>(RANKS, 1).err(),
            world.isend_with_modeled_size(&[0u8], RANKS, 1, 8).err(),
        )
    });
    for outcome in threads.unwrap_results() {
        assert_eq!(outcome, (Some(invalid.clone()), Some(invalid.clone())));
    }

    for bad in [
        Step::Recv {
            src: Some(RANKS),
            tag: Some(1),
        },
        Step::Send {
            dst: RANKS,
            tag: 1,
            bytes: 8,
        },
    ] {
        // Rank 0 posts `bad`; the others do nothing.
        let engine = run_virtual_cluster(&EngineConfig::ideal(RANKS), |rank| {
            let steps = if rank == 0 { vec![bad] } else { Vec::new() };
            Scripted {
                steps: steps.into_iter(),
            }
        });
        let text = invalid.to_string();
        assert_eq!(engine.errors(), vec![(0, text.as_str())], "{bad:?}");
        assert_eq!(engine.num_completed(), RANKS - 1, "{bad:?}");
    }
}
