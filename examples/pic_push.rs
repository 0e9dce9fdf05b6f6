//! Particle-in-cell demo (GTC-style): intra-parallelized charge deposition
//! and particle push with `inout` particle arrays.
//!
//! Run with:
//! ```text
//! cargo run --release --example pic_push
//! ```
//!
//! This exercises the part of the paper's design that the other examples do
//! not: tasks whose arguments are read *and* written (`inout`), which the
//! runtime snapshots at launch time so they can be re-executed safely after
//! a failure (Section III-B2; in GTC these are the particle positions).  The
//! example runs a few PIC steps on 4 physical processes (2 logical ranks × 2
//! replicas), injects a crash of one replica midway through the
//! `Experiment` builder's `inject_failure` knob, and checks that the total
//! deposited charge is conserved on every surviving replica.

use apps::{run_gtc, GtcParams};
use intra_replication::prelude::*;

fn main() {
    let particles_per_rank = 10_000;
    let steps = 6;

    let run = Experiment::builder()
        .app(AppId::Gtc)
        .mode(Mode::IntraReplication)
        .logical_procs(2)
        // Replica 0 of logical rank 1 (physical rank 1) dies at step 3.
        .inject_failure(1, ProtocolPoint::IterationStart { iteration: 3 })
        .build()
        .expect("valid experiment")
        .run_with(move |ctx| {
            let params = GtcParams::small(particles_per_rank, steps);
            run_gtc(ctx, &params)
        })
        .expect("pic experiment");

    let mut survivors = 0;
    for (rank, result) in run.results.iter().enumerate() {
        match result {
            Ok(out) => {
                survivors += 1;
                println!(
                    "physical rank {rank}: charge = {:.1} (expected {particles_per_rank}), \
                     kinetic diagnostic = {:.3}, sections = {}",
                    out.total_charge, out.kinetic, out.report.sections.count
                );
                assert!(
                    (out.total_charge - particles_per_rank as f64).abs() < 1e-6,
                    "charge must be conserved"
                );
            }
            Err(e) => println!("physical rank {rank}: crashed as injected ({e})"),
        }
    }
    assert_eq!(survivors, 3, "three of the four replicas survive");
    assert_eq!(run.failure_events, 1);
    println!("\npic_push finished: charge conserved on every surviving replica");
}
