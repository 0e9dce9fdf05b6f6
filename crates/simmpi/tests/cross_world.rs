//! One world against the other: the same rank body — rank-dependent
//! compute, a ring halo exchange with two different modeled sizes, a
//! hypercube exchange — once as a closure on the thread world
//! ([`run_cluster`]) and once as a [`RankProgram`] on the event engine
//! ([`run_virtual_cluster`]).  Both worlds keep one `simcluster::Endpoint`
//! per rank and time every message with its two formulas, so the per-rank
//! virtual-time records must agree exactly.

use simcluster::{MachineModel, SimTime, Topology};
use simmpi::{
    run_cluster, run_virtual_cluster, ClusterConfig, EngineConfig, ProcHandle, RankCtx,
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
