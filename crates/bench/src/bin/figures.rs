//! Regenerates the paper's evaluation figures as text tables.
//!
//! ```text
//! cargo run --release -p ipr-bench --bin figures -- all            # every figure, paper scale
//! cargo run --release -p ipr-bench --bin figures -- fig5a small    # one figure, reduced scale
//! cargo run --release -p ipr-bench --bin figures -- granularity
//! cargo run --release -p ipr-bench --bin figures -- adaptive       # ABL-ADAPT scheduler study
//! cargo run --release -p ipr-bench --bin figures -- fig5b small adaptive   # scheduler knob
//! ```
//!
//! Available figure ids: `fig5` (the replication-vs-C/R efficiency
//! crossover), `fig5a`, `fig5b`, `fig6a`, `fig6b`, `fig6c`, `fig6d`,
//! `granularity`, `bandwidth`, `scheduler`, `adaptive`, `all`.
//! After the figure id, an optional scale (`full` / `small`, default
//! `full`) and an optional scheduler name can be given in any order; the
//! scheduler selects who runs the tasks inside intra-parallel sections for
//! the application figures (fig5b / fig6): `static-block` (paper default),
//! `round-robin`, `cost-aware`, `adaptive` or `locality`.

use apps::{AppId, ExperimentScale};
use ipr_bench::table::{f2, f3, render};
use ipr_bench::{ablations, fig5, fig5a, fig5b, fig6};
use ipr_core::SchedulerKind;

fn print_fig5(scale: ExperimentScale) {
    let study = fig5::run(scale);
    let table_rows: Vec<Vec<String>> = study
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.4}", r.mtbf_s),
                format!("{:.2}x", r.mtbf_over_t0),
                f2(r.native_eff),
                r.native_recoveries.to_string(),
                f2(r.replicated_eff),
                r.replicated_recoveries.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "Figure 5 — replication vs checkpoint/restart efficiency crossover",
            &[
                "MTBF [s]",
                "MTBF/T0",
                "native+C/R eff",
                "rollbacks",
                "replicated2+C/R eff",
                "defeats"
            ],
            &table_rows,
        )
    );
    println!(
        "Daly-interval C/R, checkpoint cost {:.4}s, restart cost {:.4}s, failure-free native T0 = {:.4}s",
        study.ckpt_cost_s, study.restart_cost_s, study.baseline_s
    );
    match study.crossover_mtbf_s {
        Some(m) => println!(
            "Crossover: replication wins below a per-process MTBF of {:.4}s ({:.2}x T0); \
             checkpoint/restart wins above it\n",
            m,
            m / study.baseline_s
        ),
        None => println!("No crossover inside the swept MTBF grid\n"),
    }
}

fn print_fig5a(scale: ExperimentScale) {
    let rows = fig5a::run(scale);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.to_string(),
                r.mode.to_string(),
                format!("{:.4}", r.time_s),
                f2(r.normalized),
                f2(r.efficiency),
                format!("{:.0}%", r.update_fraction * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "Figure 5a — HPCCG kernels, normalized time & efficiency",
            &[
                "kernel",
                "config",
                "time [s]",
                "normalized",
                "efficiency",
                "update share"
            ],
            &table_rows,
        )
    );
    println!("Paper reference: waxpby 0.5/0.34, ddot 0.5/0.99, sparsemv 0.5/0.94 (SDR/intra efficiency)\n");
}

fn print_fig5b(scale: ExperimentScale, scheduler: Option<SchedulerKind>) {
    let rows = fig5b::run(scale, scheduler);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.procs.to_string(),
                r.mode.to_string(),
                f3(r.time_s),
                f2(r.efficiency),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "Figure 5b — HPCCG weak scaling (execution time & efficiency)",
            &["procs", "config", "time [s]", "efficiency"],
            &table_rows,
        )
    );
    println!(
        "Paper reference: SDR-MPI 0.5; intra 0.80 / 0.79 / 0.82 at 128 / 256 / 512 processes\n"
    );
}

/// The four Figure 6 sub-plots: figure label, application, display name
/// and the paper's published outcome.
const FIG6: [(&str, AppId, &str, &str); 4] = [
    (
        "6a",
        AppId::AmgPcg27,
        "AMG2013 (27-pt PCG)",
        "paper: 0.48 / 0.61 (SDR / intra), sections ≈ 62% of native time",
    ),
    (
        "6b",
        AppId::AmgGmres7,
        "AMG2013 (7-pt GMRES)",
        "paper: 0.49 / 0.59 (SDR / intra), sections ≈ 42% of native time",
    ),
    (
        "6c",
        AppId::Gtc,
        "GTC",
        "paper: 0.49 / 0.71 (SDR / intra), sections ≈ 75% of native time",
    ),
    (
        "6d",
        AppId::MiniGhost,
        "MiniGhost",
        "paper: 0.49 / 0.51 (SDR / intra), sections ≈ 10% of native time",
    ),
];

fn print_fig6(
    (figure, app, name, reference): (&str, AppId, &str, &str),
    scale: ExperimentScale,
    scheduler: Option<SchedulerKind>,
) {
    let rows = fig6::run(app, scale, scheduler);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.to_string(),
                format!("{} ps", r.procs),
                f3(r.time_s),
                f3(r.sections_s),
                f3(r.others_s),
                f2(r.efficiency),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &format!("Figure {figure} — {name}"),
            &[
                "config",
                "procs",
                "time [s]",
                "sections [s]",
                "others [s]",
                "efficiency"
            ],
            &table_rows,
        )
    );
    println!("Paper reference: {reference}\n");
}

fn print_granularity(scale: ExperimentScale) {
    let rows = ablations::granularity(scale, &ablations::default_task_counts());
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.tasks_per_section.to_string(),
                format!("{:.4}", r.time_s),
                f2(r.efficiency),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "Ablation — tasks per section (sparsemv, intra)",
            &["tasks/section", "time [s]", "efficiency"],
            &table_rows,
        )
    );
    println!("Paper choice: 8 tasks per section (4 per replica)\n");
}

fn print_bandwidth(scale: ExperimentScale) {
    let rows = ablations::bandwidth(scale, &ablations::default_bandwidths());
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2}", r.bandwidth_gbs),
                r.kernel.to_string(),
                f2(r.efficiency),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "Ablation — inter-node bandwidth vs intra efficiency",
            &["bandwidth [GB/s]", "kernel", "efficiency"],
            &table_rows,
        )
    );
}

fn print_scheduler(scale: ExperimentScale) {
    let rows = ablations::scheduler(scale);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.scheduler.to_string(), format!("{:.4}", r.time_s)])
        .collect();
    println!(
        "{}",
        render(
            "Ablation — scheduler comparison on heterogeneous tasks",
            &["scheduler", "section time [s]"],
            &table_rows,
        )
    );
}

fn print_adaptive(scale: ExperimentScale) {
    let rows = ablations::adaptive(scale);
    let iters = rows.iter().map(|r| r.iteration + 1).max().unwrap_or(0);
    // Pivot: one row per scheduler, one column per section instance.
    let schedulers: Vec<&'static str> = {
        let mut seen = Vec::new();
        for r in &rows {
            if !seen.contains(&r.scheduler) {
                seen.push(r.scheduler);
            }
        }
        seen
    };
    let mut headers: Vec<String> = vec!["scheduler".to_string()];
    headers.extend((0..iters).map(|i| format!("iter {i} [s]")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table_rows: Vec<Vec<String>> = schedulers
        .iter()
        .map(|s| {
            let mut row = vec![s.to_string()];
            for it in 0..iters {
                let m = rows
                    .iter()
                    .find(|r| r.scheduler == *s && r.iteration == it)
                    .map(|r| r.makespan_s)
                    .unwrap_or(f64::NAN);
                row.push(format!("{m:.4}"));
            }
            row
        })
        .collect();
    println!(
        "{}",
        render(
            "ABL-ADAPT — per-iteration makespan, heterogeneous HPCCG/GTC section",
            &header_refs,
            &table_rows,
        )
    );
    println!(
        "Expected: adaptive == cost-aware at iter 0 (no history), then matches or beats it\n\
         once the measured-cost EMA is warm (<= 3 iterations).\n"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    // The optional scale and scheduler arguments are recognized by value
    // (in any order), so `figures fig5b adaptive` works and a typo errors
    // out instead of silently running the Full scale with the default
    // scheduler.
    let mut scale = ExperimentScale::Full;
    let mut scheduler: Option<SchedulerKind> = None;
    for arg in args.iter().skip(1) {
        if let Some(s) = ExperimentScale::parse(arg) {
            scale = s;
        } else if let Ok(kind) = arg.parse::<SchedulerKind>() {
            scheduler = Some(kind);
        } else {
            eprintln!(
                "unrecognized argument '{arg}': expected a scale (full, small) or a scheduler ({})",
                SchedulerKind::names().join(", ")
            );
            std::process::exit(2);
        }
    }

    println!(
        "intra-replication figure harness — target: {what}, scale: {scale:?}, scheduler: {}\n",
        scheduler
            .map(|k| k.name())
            .unwrap_or("static-block (paper default)")
    );
    match what {
        "fig5" => print_fig5(scale),
        "fig5a" => print_fig5a(scale),
        "fig5b" => print_fig5b(scale, scheduler),
        "fig6a" => print_fig6(FIG6[0], scale, scheduler),
        "fig6b" => print_fig6(FIG6[1], scale, scheduler),
        "fig6c" => print_fig6(FIG6[2], scale, scheduler),
        "fig6d" => print_fig6(FIG6[3], scale, scheduler),
        "fig6" => {
            for plot in FIG6 {
                print_fig6(plot, scale, scheduler);
            }
        }
        "granularity" => print_granularity(scale),
        "bandwidth" => print_bandwidth(scale),
        "scheduler" => print_scheduler(scale),
        "adaptive" => print_adaptive(scale),
        "all" => {
            print_fig5(scale);
            print_fig5a(scale);
            print_fig5b(scale, scheduler);
            for plot in FIG6 {
                print_fig6(plot, scale, scheduler);
            }
            print_granularity(scale);
            print_bandwidth(scale);
            print_scheduler(scale);
            print_adaptive(scale);
        }
        other => {
            eprintln!("unknown figure id '{other}'");
            eprintln!("expected one of: fig5 fig5a fig5b fig6a fig6b fig6c fig6d fig6 granularity bandwidth scheduler adaptive all");
            std::process::exit(2);
        }
    }
}
