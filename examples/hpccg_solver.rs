//! HPCCG end-to-end demo: solve the 27-point problem with the conjugate
//! gradient mini-app in the paper's three configurations and compare them.
//!
//! Run with:
//! ```text
//! cargo run --release --example hpccg_solver
//! ```
//!
//! The run uses 8 physical processes.  In the native configuration they are
//! 8 logical MPI ranks; in the replicated and intra-parallelized
//! configurations they host 2 replicas of 4 logical ranks (with twice the
//! per-rank data, following the fixed-resource methodology of the paper's
//! Figure 5).  The example prints virtual execution times and the resulting
//! replication efficiency.
//!
//! All three configurations are the same `Experiment` with a different
//! mode axis; only the per-process problem size is custom, so the body
//! goes through `Experiment::run_with`.

use apps::{run_hpccg, HpccgParams};
use intra_replication::prelude::*;

fn run_mode(mode: ExecutionMode, procs: usize) -> (f64, f64) {
    let degree = mode.degree();
    let run = Experiment::builder()
        .app(AppId::Hpccg)
        .execution_mode(mode)
        .logical_procs(procs / degree)
        .build()
        .expect("valid experiment")
        .run_with(move |ctx| {
            let params = HpccgParams {
                nx: 8,
                ny: 8,
                nz: 8 * degree,
                modeled_nx: 128,
                modeled_ny: 128,
                modeled_nz: 128 * degree,
                max_iters: 15,
            };
            let out = run_hpccg(ctx, &params)?;
            Ok((out.report.total_time.as_secs(), out.residual))
        })
        .expect("hpccg experiment");
    let results = run.unwrap_results();
    let time = results.iter().map(|(t, _)| *t).fold(0.0f64, f64::max);
    let residual = results[0].1;
    (time, residual)
}

fn main() {
    let procs = 8;
    println!("HPCCG on {procs} simulated physical processes (virtual time)\n");

    let (t_native, r_native) = run_mode(ExecutionMode::Native, procs);
    let (t_sdr, r_sdr) = run_mode(ExecutionMode::Replicated { degree: 2 }, procs);
    let (t_intra, r_intra) = run_mode(ExecutionMode::IntraParallel { degree: 2 }, procs);

    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "configuration", "time [s]", "efficiency", "residual"
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>12.3e}",
        "Open MPI (no replication)", t_native, 1.0, r_native
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>12.3e}",
        "SDR-MPI (full replication)",
        t_sdr,
        t_native / t_sdr,
        r_sdr
    );
    println!(
        "{:<28} {:>12.4} {:>12.2} {:>12.3e}",
        "intra-parallelization",
        t_intra,
        t_native / t_intra,
        r_intra
    );

    let eff_sdr = t_native / t_sdr;
    let eff_intra = t_native / t_intra;
    assert!(eff_sdr < 0.6, "full replication cannot beat the 50% wall");
    assert!(
        eff_intra > eff_sdr,
        "intra-parallelization should beat plain replication"
    );
    println!(
        "\nintra-parallelization recovers {:.0}% of the native throughput (vs {:.0}% for plain replication)",
        eff_intra * 100.0,
        eff_sdr * 100.0
    );
}
