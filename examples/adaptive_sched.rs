//! Adaptive scheduling: watching the history-driven scheduler converge.
//!
//! Run with:
//! ```text
//! cargo run --example adaptive_sched
//! ```
//!
//! A 2-replica logical process executes the same heterogeneous section six
//! times.  The section mixes flop-bound "push-like" tasks (GTC's particle
//! push) with memory-bound "sparsemv-like" tasks (HPCCG's dominant kernel).
//! The declared scheduling weight, `max(flops, mem_bytes)`, mixes units and
//! mis-ranks tasks across the two roofline regimes, so the declared-weight
//! LPT scheduler (`SchedulerKind::CostAware`) settles on a suboptimal
//! split.  The `SchedulerKind::Adaptive` scheduler records the virtual-time
//! duration of every task (see `SectionReport::task_costs`), folds it into
//! a per-task-name EMA (`CostModel`), and from the second instance on
//! schedules from *measured* durations — the makespan drops and stays down.
//!
//! The scheduler is one typed axis of the `Experiment` builder; everything
//! else (cluster, replication environment, runtime) comes with it.

use intra_replication::prelude::*;
// The heterogeneous (name, flops, mem_bytes) task set shared with the
// ABL-ADAPT ablation, so the example, the ablation and its acceptance test
// stay on the same workload.
use ipr_bench::ablations::adaptive_task_set as tasks;

fn run(scheduler: SchedulerKind, iterations: usize) -> Vec<f64> {
    let run = Experiment::builder()
        .app(AppId::Hpccg) // nominal: the body drives its own sections
        .mode(Mode::IntraReplication)
        .logical_procs(1)
        .scheduler(scheduler)
        .build()
        .expect("valid experiment")
        .run_with(move |ctx| {
            let mut ws = Workspace::new();
            let set = tasks();
            let out = ws.add_zeros("out", set.len());
            // Per-iteration section times, then what the cost model learned.
            let mut times = Vec::with_capacity(iterations);
            for _ in 0..iterations {
                let mut section = ctx.rt.section(&mut ws);
                for (t, (name, flops, mem)) in set.iter().enumerate() {
                    section.add_task(
                        TaskDef::new(
                            name,
                            |c| c.outputs[0][0] += 1.0,
                            vec![ArgSpec::inout(out, t..t + 1)],
                        )
                        .with_cost(TaskCost::new(*flops, *mem)),
                    )?;
                }
                times.push(section.end()?.total_time().as_secs());
            }
            if ctx.env.replica_id() == 0 {
                println!("  learned costs (replica 0 of '{scheduler}'):");
                for (name, _, _) in &set {
                    // Each name occurs once per section, so its history is
                    // that of the name's first instance.
                    if let Some(est) = ctx.rt.cost_model().estimate(name, 0) {
                        println!(
                            "    {name}: {:.4} s after {} observation(s)",
                            est.seconds, est.samples
                        );
                    }
                }
            }
            Ok(times)
        })
        .expect("adaptive-scheduling experiment");
    // Makespan per iteration: max over the two replicas.
    let per_proc = run.unwrap_results();
    (0..iterations)
        .map(|i| per_proc.iter().map(|t| t[i]).fold(0.0f64, f64::max))
        .collect()
}

fn main() {
    let iterations = 6;
    println!("adaptive scheduling convergence, {iterations} instances of one section\n");
    let adaptive = run(SchedulerKind::Adaptive, iterations);
    let cost_aware = run(SchedulerKind::CostAware, iterations);

    println!("\n  iter   cost-aware [s]   adaptive [s]");
    for i in 0..iterations {
        let marker = if adaptive[i] < cost_aware[i] - 1e-12 {
            "  <- measured costs in effect"
        } else {
            ""
        };
        println!(
            "  {i:>4}   {:>14.4}   {:>12.4}{marker}",
            cost_aware[i], adaptive[i]
        );
    }

    assert!(
        (adaptive[0] - cost_aware[0]).abs() < 1e-9,
        "first instance has no history: the schedulers must coincide"
    );
    assert!(
        adaptive[iterations - 1] < cost_aware[iterations - 1],
        "adaptive must beat declared-weight LPT once the EMA is warm"
    );
    println!(
        "\nadaptive converged after one warm-up instance: {:.4} s -> {:.4} s ({:.0}% faster)",
        adaptive[0],
        adaptive[iterations - 1],
        100.0 * (1.0 - adaptive[iterations - 1] / adaptive[0])
    );
}
