//! The per-layer suite of the traced run: every layer (crate) is timed from
//! outside, through its public functions, at a size that takes a fraction
//! of a second.  Each number names the end-to-end metric it should move
//! (see README.md); none of them is bounded, and short microbenchmarks on
//! a shared host are noisy — they attribute, they do not gate.

use crate::harness::Ctx;
use crate::host;
use crate::inputs::{sweep_jobs, FIGURE_SCALE, MODES, SPECS_PER_SWEEP_SEED, WEAK_MODES};
use crate::stats::{median, percentile};
use apps::{AppId, ExperimentScale, WeakMode, WeakScalingSpec};
use campaign::{
    diff_documents, fingerprint, run_spec, run_specs, run_weak_spec, serve, CampaignGrid,
    CampaignReport, ExecutorPool, FailureSpec, Json, RunCache, RunResult, RunSpec, ServeOptions,
    Spool, WeakRunSpec,
};
use ckpt::{system_mtbf, CheckpointPlan, CkptSession};
use intra_replication::prelude::{ArgSpec, Mode, ProtocolPoint, TaskDef, Workspace};
use intra_replication::Experiment;
use ipr_bench::{fabric, kernels as kbench};
use ipr_core::{split_ranges, SchedulerKind};
use kernels::pic::{self, ParticleSet};
use kernels::sparse::spmv_cost;
use kernels::stencil::stencil_cost;
use kernels::vecops::{ddot_cost, waxpby_cost};
use replication::{
    majorant_candidates, sample_failure_trace, CorrelatedPlan, FailureDomain, FailureRate,
};
use simcluster::{seeded_rng, SimTime, TaskId, Topology, VirtualEngine};
use simmpi::{
    run_cluster, run_virtual_cluster, ClusterConfig, EngineConfig, RankCtx, RankProgram, Step,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GOLDEN_CKPT: &str = include_str!("../../crates/campaign/golden/ckpt.json");

/// Named results of the suite.
pub type Values = Vec<(String, f64)>;

fn secs(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64().max(1e-9)
}

/// Runs one microbenchmark as one op under a span and collects what it
/// measured; a microbenchmark that panics fails its op and reports nothing.
fn bench(
    ctx: &mut Ctx,
    out: &mut Values,
    layer: &'static str,
    name: &str,
    f: impl FnOnce(&Ctx) -> Values,
) {
    ctx.tracer.begin(layer, name);
    let values = catch_unwind(AssertUnwindSafe(|| f(ctx)));
    ctx.tracer.end();
    ctx.ledger
        .check(values.is_ok(), format!("microbenchmark {name} panicked"));
    out.extend(values.unwrap_or_default());
}

// --- simmpi::engine ------------------------------------------------------

/// Every rank sends to its right neighbour and receives from its left one,
/// `rounds` times: the smallest program that exercises dispatch, mailbox
/// matching and parking.
struct Ring {
    rounds: usize,
    done: usize,
    sent: bool,
}

impl RankProgram for Ring {
    fn step(&mut self, ctx: &RankCtx) -> Step {
        if self.done == self.rounds {
            return Step::Done;
        }
        if !self.sent {
            self.sent = true;
            return Step::Send {
                dst: (ctx.rank() + 1) % ctx.world(),
                tag: 1,
                bytes: 64,
            };
        }
        self.sent = false;
        self.done += 1;
        Step::Recv {
            src: Some((ctx.rank() + ctx.world() - 1) % ctx.world()),
            tag: Some(1),
        }
    }
}

/// Must run first in its process: `bytes_per_rank` is the growth of the
/// process's peak resident set over the run.
fn engine_ring(_: &Ctx) -> Values {
    const RANKS: usize = 50_000;
    const ROUNDS: usize = 2;
    let ring = |_rank: usize| Ring {
        rounds: ROUNDS,
        done: 0,
        sent: false,
    };
    let rss_before = host::rss_bytes();
    let mut report = None;
    let pinned_s = secs(|| {
        report = Some(run_virtual_cluster(
            &EngineConfig::ideal(RANKS).with_workers(1),
            ring,
        ));
    });
    let peak = host::peak_rss_mb() * 1024.0 * 1024.0;
    let report = report.expect("the ring ran");
    assert_eq!(report.num_completed(), RANKS, "every ring rank completes");
    let auto_s = secs(|| {
        black_box(run_virtual_cluster(
            &EngineConfig::ideal(RANKS).with_workers(host::nproc()),
            ring,
        ));
    });
    vec![
        (
            "simmpi.engine.ring_msgs_per_s".to_string(),
            report.messages as f64 / pinned_s,
        ),
        (
            "simmpi.engine.dispatches_per_s".to_string(),
            report.dispatches as f64 / pinned_s,
        ),
        (
            "simmpi.engine.bytes_per_rank".to_string(),
            (peak - rss_before).max(0.0) / RANKS as f64,
        ),
        (
            "simmpi.engine.worker_speedup".to_string(),
            pinned_s / auto_s,
        ),
    ]
}

// --- simcluster::engine --------------------------------------------------

fn event_engine(_: &Ctx) -> Values {
    const EVENTS: usize = 1_000_000;
    let mut engine = VirtualEngine::new();
    let timer_s = secs(|| {
        for i in 0..EVENTS {
            engine.schedule_at(TaskId(i), SimTime::from_secs(((i * 7919) % 10_007) as f64));
        }
        while let Some(dispatch) = engine.next() {
            black_box(dispatch);
        }
    });
    let ready_s = secs(|| {
        for i in 0..EVENTS {
            engine.make_ready(TaskId(i));
        }
        while let Some(dispatch) = engine.next() {
            black_box(dispatch);
        }
    });
    vec![
        (
            "simcluster.engine.timer_events_per_s".to_string(),
            EVENTS as f64 / timer_s,
        ),
        (
            "simcluster.engine.ready_events_per_s".to_string(),
            EVENTS as f64 / ready_s,
        ),
    ]
}

// --- simmpi thread world -------------------------------------------------

fn fabric_p2p(_: &Ctx) -> Values {
    let p2p = fabric::p2p_throughput(100_000, 256);
    let depth = fabric::mailbox_depth(4096, 8, 32);
    vec![
        ("simmpi.p2p_msgs_per_s".to_string(), p2p.msgs_per_sec),
        (
            "simmpi.p2p_bytes_copied".to_string(),
            p2p.bytes_copied as f64,
        ),
        (
            "simmpi.mailbox_depth_msgs_per_s".to_string(),
            depth.msgs_per_sec,
        ),
    ]
}

/// Microseconds per collective on 64 ranks: the slowest rank's loop time
/// over the iteration count.
fn collective_us(barrier: bool) -> f64 {
    const ITERS: usize = 100;
    let report = run_cluster(&ClusterConfig::ideal(64), move |proc| {
        let world = proc.world();
        let started = Instant::now();
        for _ in 0..ITERS {
            if barrier {
                world.barrier().expect("barrier on a healthy cluster");
            } else {
                black_box(world.allreduce_sum_f64(1.0).expect("allreduce"));
            }
        }
        started.elapsed().as_secs_f64()
    });
    let slowest = report.unwrap_results().into_iter().fold(0.0f64, f64::max);
    slowest * 1e6 / ITERS as f64
}

fn collectives(_: &Ctx) -> Values {
    vec![
        ("simmpi.allreduce_us_64".to_string(), collective_us(false)),
        ("simmpi.barrier_us_64".to_string(), collective_us(true)),
    ]
}

fn spawn(_: &Ctx) -> Values {
    const REPS: usize = 10;
    let mut wall_s = 0.0;
    for ranks in [8, 128] {
        let config = ClusterConfig::ideal(ranks);
        wall_s += secs(|| {
            for _ in 0..REPS {
                black_box(run_cluster(&config, |proc| proc.rank()));
            }
        });
    }
    vec![(
        "simmpi.spawn_us_per_rank".to_string(),
        wall_s * 1e6 / (REPS * (8 + 128)) as f64,
    )]
}

// --- replication ---------------------------------------------------------

fn fanout(_: &Ctx) -> Values {
    let x2 = fabric::replica_fanout(2, 6_000, 256);
    let x4 = fabric::replica_fanout(4, 2_000, 256);
    vec![
        (
            "replication.fanout_x2_msgs_per_s".to_string(),
            x2.msgs_per_sec,
        ),
        (
            "replication.fanout_x4_msgs_per_s".to_string(),
            x4.msgs_per_sec,
        ),
        (
            "replication.fanout_bytes_copied".to_string(),
            (x2.bytes_copied + x4.bytes_copied) as f64,
        ),
    ]
}

fn sampler(ctx: &Ctx) -> Values {
    const TRACES: usize = 2_000;
    let horizon = SimTime::from_secs(8.0);
    let mut out = Values::new();
    let (mut accepted, mut candidates) = (0usize, 0usize);
    for (name, rate) in [
        ("const", FailureRate::Constant(1.0)),
        ("weibull", FailureRate::weibull_hpc(1.0)),
        ("lognormal", FailureRate::lognormal_hpc(1.0)),
    ] {
        let mut events = 0;
        let wall_s = secs(|| {
            for rank in 0..TRACES {
                events += sample_failure_trace(rate, horizon, ctx.seed, rank).len();
            }
        });
        out.push((
            format!("replication.sampler.{name}_traces_per_s"),
            TRACES as f64 / wall_s,
        ));
        if name != "const" {
            accepted += events;
            candidates += (0..TRACES)
                .map(|rank| majorant_candidates(rate, horizon, ctx.seed, rank).len())
                .sum::<usize>();
        }
    }
    out.push((
        "replication.sampler.accept_ratio".to_string(),
        accepted as f64 / candidates.max(1) as f64,
    ));
    const PLANS: usize = 50;
    let topology = Topology::block(4_096, 8);
    let plan = CorrelatedPlan::new(
        FailureDomain::Rack { nodes_per_rack: 8 },
        FailureRate::Constant(0.2),
        SimTime::from_secs(1.0),
    );
    let wall_s = secs(|| {
        for k in 0..PLANS {
            black_box(plan.crashes(&topology, ctx.seed + k as u64));
        }
    });
    out.push((
        "replication.correlated.plans_per_s".to_string(),
        PLANS as f64 / wall_s,
    ));
    out
}

// --- ckpt ----------------------------------------------------------------

fn ckpt_session(ctx: &Ctx) -> Values {
    const RANKS: usize = 64;
    const REPS: usize = 20;
    let (t0_s, horizon_s) = (1.0, 64.0);
    let mtbf_s = 0.5 * t0_s;
    let rate = FailureRate::Constant(1.0 / mtbf_s);
    let crashes: Vec<(usize, f64)> = (0..RANKS)
        .flat_map(|rank| {
            sample_failure_trace(rate, SimTime::from_secs(horizon_s), ctx.seed, rank)
                .into_iter()
                .map(move |at| (rank, at.as_secs()))
        })
        .collect();
    let plan = CheckpointPlan::daly(t0_s / 64.0, t0_s / 32.0);
    let system_mtbf_s = system_mtbf(rate, horizon_s, RANKS);
    let mut recoveries = 0;
    let wall_s = secs(|| {
        for _ in 0..REPS {
            // Two replicas per logical rank: only a defeat (both replicas
            // lost between recoveries) rolls back, so events > rollbacks.
            let mut session = CkptSession::new(&plan, system_mtbf_s, &crashes, RANKS / 2, 2);
            let mut clock = 0.0;
            for _ in 0..200 {
                clock += t0_s / 200.0;
                clock += session.advance(clock);
            }
            black_box(session.finish(clock));
            recoveries += session.stats().recoveries;
        }
    });
    let mtbf_calls = 2_000;
    let mtbf_wall_s = secs(|| {
        for k in 0..mtbf_calls {
            black_box(system_mtbf(
                FailureRate::weibull_hpc(1.0 + k as f64),
                horizon_s,
                RANKS,
            ));
        }
    });
    vec![
        (
            "ckpt.session.events_per_s".to_string(),
            (crashes.len() * REPS) as f64 / wall_s,
        ),
        (
            "ckpt.rollbacks_per_s".to_string(),
            recoveries as f64 / wall_s,
        ),
        (
            "ckpt.system_mtbf_us".to_string(),
            mtbf_wall_s * 1e6 / mtbf_calls as f64,
        ),
    ]
}

// --- ipr-core ------------------------------------------------------------

fn sections(_: &Ctx) -> Values {
    const ITERS: usize = 200;
    const TASKS: usize = 8;
    const N: usize = 4_096;
    let run = Experiment::builder()
        .app(AppId::Hpccg)
        .mode(Mode::IntraReplication)
        .logical_procs(1)
        .build()
        .expect("a one-rank intra experiment is valid")
        .run_with(|ctx| {
            let mut ws = Workspace::new();
            let x = ws.add("x", (0..N).map(|i| i as f64).collect());
            let w = ws.add_zeros("w", N);
            let started = Instant::now();
            for _ in 0..ITERS {
                let mut section = ctx.rt.section(&mut ws);
                for chunk in split_ranges(N, TASKS) {
                    section.add_task(TaskDef::new(
                        "scale",
                        |c| {
                            for i in 0..c.outputs[0].len() {
                                c.outputs[0][i] = 2.0 * c.inputs[0][i];
                            }
                        },
                        vec![ArgSpec::input(x, chunk.clone()), ArgSpec::output(w, chunk)],
                    ))?;
                }
                let _ = section.end()?;
            }
            Ok(started.elapsed().as_secs_f64())
        })
        .expect("the section loop runs");
    let slowest_s = run.unwrap_results().into_iter().fold(1e-9f64, f64::max);
    let mut out = vec![
        (
            "ipr-core.section_us".to_string(),
            slowest_s * 1e6 / ITERS as f64,
        ),
        (
            "ipr-core.tasks_per_s".to_string(),
            (ITERS * TASKS) as f64 / slowest_s,
        ),
    ];
    let weights: Vec<f64> = (0..1_024).map(|i| 1.0 + (i * 37 % 101) as f64).collect();
    for kind in SchedulerKind::ALL {
        let scheduler = kind.scheduler();
        const CALLS: usize = 200;
        let wall_s = secs(|| {
            for _ in 0..CALLS {
                black_box(scheduler.assign(black_box(&weights), &[0, 1]));
            }
        });
        out.push((
            format!("ipr-core.sched.{}_assign_us", kind.name()),
            wall_s * 1e6 / CALLS as f64,
        ));
    }
    // Counts of the recovery protocol: replica 0 dies before shipping the
    // first update of section 1, its peer re-executes what it owned.
    let report = Experiment::builder()
        .app(AppId::Hpccg)
        .scale(ExperimentScale::Tiny)
        .mode(Mode::IntraReplication)
        .inject_failure(
            0,
            ProtocolPoint::BeforeUpdateSend {
                section: 1,
                task: 0,
            },
        )
        .build()
        .and_then(|e| e.run())
        .expect("the injected-failure run executes");
    out.push((
        "ipr-core.update_bytes_sent".to_string(),
        report.update_bytes_sent() as f64,
    ));
    out.push((
        "ipr-core.tasks_reexecuted".to_string(),
        report.tasks_reexecuted() as f64,
    ));
    out
}

// --- kernels -------------------------------------------------------------

/// Seconds per call of the two particle kernels at `particles` particles on
/// `cells` cells.
fn pic_call_s(seed: u64, particles: usize, cells: usize, calls: usize) -> (f64, f64) {
    let mut set = ParticleSet::random(particles, cells as f64, &mut seeded_rng(seed, 0));
    let field: Vec<f64> = (0..cells).map(|i| (i as f64 * 0.1).sin()).collect();
    let mut density = vec![0.0; cells];
    let push_s = secs(|| {
        for _ in 0..calls {
            pic::push(&mut set, 0..particles, &field, 0.01);
        }
    });
    let charge_s = secs(|| {
        for _ in 0..calls {
            pic::charge_deposit(&set, 0..particles, &mut density);
        }
    });
    black_box((&set.x, &density));
    (push_s / calls as f64, charge_s / calls as f64)
}

fn kernel_suite(ctx: &Ctx) -> Values {
    let mut out = Values::new();
    for (name, b) in [
        ("stencil27_mcells", kbench::stencil27_throughput(64, 8)),
        (
            "stencil27_pool_mcells",
            kbench::stencil27_pool_throughput(64, 8),
        ),
        ("spmv_mnnz", kbench::spmv_throughput(32, 32, 64, 10)),
        ("waxpby_melems", kbench::waxpby_throughput(1 << 20, 20)),
        ("ddot_melems", kbench::ddot_throughput(1 << 20, 40)),
        (
            "ddot_lanes_melems",
            kbench::ddot_lanes_throughput(1 << 20, 40),
        ),
    ] {
        out.push((format!("kernels.{name}_per_s"), b.per_sec / 1e6));
    }
    const PARTICLES: usize = 1 << 20;
    let (push_s, charge_s) = pic_call_s(ctx.seed, PARTICLES, 128, 4);
    out.push((
        "kernels.pic_push_mparticles_per_s".to_string(),
        PARTICLES as f64 / push_s / 1e6,
    ));
    out.push((
        "kernels.pic_charge_mparticles_per_s".to_string(),
        PARTICLES as f64 / charge_s / 1e6,
    ));
    // Arithmetic intensity from the modeled costs, not from hardware
    // counters: this host reports a 260 MiB L3, so a memory-bound
    // measurement would need multi-GiB arrays.
    let n = 1 << 20;
    for (name, cost) in [
        ("stencil27", stencil_cost(n, 27)),
        ("spmv", spmv_cost(n, 27 * n)),
        ("waxpby", waxpby_cost(n)),
        ("ddot", ddot_cost(n)),
        ("pic_push", pic::push_cost(n)),
        ("pic_charge", pic::charge_cost(n, 128)),
    ] {
        out.push((format!("kernels.{name}_flops_per_byte"), cost.intensity()));
    }
    out
}

// --- apps ----------------------------------------------------------------

/// One intra2 run of every application at the `figs-thread` scale, the
/// engine workload per mode, and what the GTC run spends in kernels.
fn app_runs(ctx: &Ctx) -> Values {
    let mut out = Values::new();
    let mut gtc_wall_s = 0.0;
    for app in AppId::ALL {
        let experiment = Experiment::builder()
            .app(app)
            .scale(FIGURE_SCALE)
            .execution_mode(MODES[2])
            .seed(ctx.seed)
            .build()
            .expect("catalog applications are valid experiments");
        let wall_s = secs(|| {
            let _ = black_box(experiment.run().expect("the application runs"));
        });
        if app == AppId::Gtc {
            gtc_wall_s = wall_s;
        }
        out.push((format!("apps.{}_ms", app.name()), wall_s * 1e3));
    }
    // GTC's two kernels at the application's actual size, once per step on
    // every rank, half of the particles each under intra2 — against the
    // core-seconds the run had.
    let scale = FIGURE_SCALE;
    let (push_s, charge_s) = pic_call_s(ctx.seed, scale.actual_particles(), 128, 20);
    let ranks = scale.fig6_logical_procs() * 2;
    let kernel_core_s = (push_s + charge_s) / 2.0 * (scale.app_iterations() * ranks) as f64;
    out.push((
        "kernels.share_of_run".to_string(),
        kernel_core_s / (gtc_wall_s * host::nproc().min(ranks) as f64).max(1e-9),
    ));
    out
}

/// The engine microbenchmarks' run: 5 000 failure-free logical ranks.
fn weak_spec(seed: u64, mode: WeakMode) -> WeakRunSpec {
    WeakRunSpec {
        index: 0,
        logical: 5_000,
        mode,
        iters: 1,
        failure: FailureSpec::None,
        seed,
    }
}

fn weak_runs(ctx: &Ctx) -> Values {
    let spec = |mode: WeakMode| weak_spec(ctx.seed, mode);
    let mut out = Values::new();
    for mode in WEAK_MODES {
        let spec = spec(mode);
        let wall_s = secs(|| {
            black_box(run_weak_spec(&spec, 1));
        });
        out.push((
            format!("apps.weak.{}_ranks_per_s", mode.label()),
            spec.procs() as f64 / wall_s,
        ));
    }
    let native = spec(WeakMode::Native);
    let auto_s = secs(|| {
        black_box(run_weak_spec(&native, 0));
    });
    out.push((
        "apps.weak.auto_ranks_per_s".to_string(),
        native.procs() as f64 / auto_s,
    ));
    let failing = WeakRunSpec {
        iters: 50,
        failure: FailureSpec::poisson(0.5),
        ..spec(WeakMode::Native)
    };
    let crashes = failing.crashes();
    let workload: WeakScalingSpec = failing
        .workload()
        .with_checkpointing(CheckpointPlan::daly(0.005, 0.01), 0.05);
    const CALLS: usize = 20;
    let wall_s = secs(|| {
        for _ in 0..CALLS {
            black_box(apps::ckpt_charges(&workload, &crashes));
        }
    });
    out.push((
        "apps.weak.ckpt_charges_ms".to_string(),
        wall_s * 1e3 / CALLS as f64,
    ));
    out
}

// --- facade --------------------------------------------------------------

fn facade(ctx: &Ctx) -> Values {
    const BUILDS: usize = 2_000;
    let build = |seed: u64| {
        Experiment::builder()
            .app(AppId::Hpccg)
            .scale(ExperimentScale::Tiny)
            .execution_mode(MODES[2])
            .seed(seed)
            .build()
            .expect("a valid experiment")
    };
    let build_s = secs(|| {
        for k in 0..BUILDS {
            black_box(build(ctx.seed + k as u64));
        }
    });
    let experiment = build(ctx.seed);
    let fingerprint_s = secs(|| {
        for _ in 0..BUILDS {
            black_box(experiment.fingerprint_material());
        }
    });
    let overheads: Vec<f64> = (0..20)
        .map(|_| {
            let mut inner_ms = 0.0;
            let outer_s = secs(|| {
                inner_ms = experiment
                    .run()
                    .expect("the tiny run executes")
                    .wall_time_ms;
            });
            outer_s * 1e3 - inner_ms
        })
        .collect();
    vec![
        ("facade.build_us".to_string(), build_s * 1e6 / BUILDS as f64),
        (
            "facade.fingerprint_us".to_string(),
            fingerprint_s * 1e6 / BUILDS as f64,
        ),
        ("facade.run_overhead_ms".to_string(), median(&overheads)),
    ]
}

// --- campaign ------------------------------------------------------------

fn campaign_text(ctx: &Ctx) -> Values {
    const REPS: usize = 200;
    let grid = CampaignGrid::full();
    let expanded = grid.expand().len();
    let expand_s = secs(|| {
        for _ in 0..REPS {
            black_box(grid.expand());
        }
    });
    let specs = &sweep_jobs(ctx.seed % 1_000_000, 1)[0];
    let roundtrip_s = secs(|| {
        for _ in 0..REPS {
            for spec in specs {
                black_box(RunSpec::from_json(0, &spec.to_json()).expect("specs round-trip"));
            }
        }
    });
    let mb = (GOLDEN_CKPT.len() * REPS) as f64 / 1e6;
    let doc = Json::parse(GOLDEN_CKPT).expect("the checked-in golden parses");
    let parse_s = secs(|| {
        for _ in 0..REPS {
            black_box(Json::parse(GOLDEN_CKPT).expect("the checked-in golden parses"));
        }
    });
    let render_s = secs(|| {
        for _ in 0..REPS {
            black_box(doc.render());
        }
    });
    let report = CampaignReport::from_json(&doc).expect("the golden is a v1 report");
    let report_s = secs(|| {
        for _ in 0..REPS {
            black_box(report.to_json().render());
        }
    });
    let diff_s = secs(|| {
        for _ in 0..REPS {
            black_box(diff_documents(&doc, &doc, 0.0).expect("same schema"));
        }
    });
    vec![
        (
            "campaign.expand_specs_per_s".to_string(),
            (expanded * REPS) as f64 / expand_s,
        ),
        (
            "campaign.spec.roundtrip_per_s".to_string(),
            (specs.len() * REPS) as f64 / roundtrip_s,
        ),
        ("campaign.json.parse_mb_per_s".to_string(), mb / parse_s),
        ("campaign.json.render_mb_per_s".to_string(), mb / render_s),
        (
            "campaign.report.render_ms".to_string(),
            report_s * 1e3 / REPS as f64,
        ),
        ("campaign.diff.docs_per_s".to_string(), REPS as f64 / diff_s),
    ]
}

fn cache(ctx: &Ctx) -> Values {
    const ENTRIES: usize = 4_000;
    let seeds = ENTRIES.div_ceil(SPECS_PER_SWEEP_SEED);
    let first = ctx.seed % 1_000_000;
    let specs: Vec<RunSpec> = sweep_jobs(first, seeds)
        .into_iter()
        .flatten()
        .take(ENTRIES)
        .collect();
    let absent: Vec<RunSpec> = sweep_jobs(first + seeds as u64, seeds)
        .into_iter()
        .flatten()
        .take(ENTRIES)
        .collect();
    // One real result per spec shape; the other seeds reuse it under their
    // own id (the cache only checks that an entry describes its spec).
    let shapes: Vec<RunResult> = specs[..SPECS_PER_SWEEP_SEED].iter().map(run_spec).collect();
    let results: Vec<RunResult> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| RunResult {
            id: spec.id(),
            seed: spec.seed,
            ..shapes[i % SPECS_PER_SWEEP_SEED].clone()
        })
        .collect();
    let root = ctx.scratch.join("layers-cache");
    let _ = std::fs::remove_dir_all(&root);
    let store = RunCache::open(&root).expect("the scratch cache opens");
    let put_s = secs(|| {
        for (spec, result) in specs.iter().zip(&results) {
            store.put(spec, result).expect("cache put");
        }
    });
    let mut hits = 0;
    let hit_s = secs(|| hits = specs.iter().filter_map(|s| store.get(s)).count());
    let mut misses = 0;
    let miss_s = secs(|| misses = absent.iter().filter(|s| store.get(s).is_none()).count());
    assert_eq!((hits, misses), (ENTRIES, ENTRIES), "cache hits and misses");
    let fingerprint_s = secs(|| {
        for spec in &specs {
            black_box(fingerprint(spec));
        }
    });
    let bytes: u64 = std::fs::read_dir(&root)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&root);
    let n = ENTRIES as f64;
    vec![
        ("campaign.cache.put_per_s".to_string(), n / put_s),
        ("campaign.cache.get_hit_per_s".to_string(), n / hit_s),
        ("campaign.cache.get_miss_per_s".to_string(), n / miss_s),
        (
            "campaign.cache.fingerprint_per_s".to_string(),
            n / fingerprint_s,
        ),
        (
            "campaign.cache.bytes_per_entry".to_string(),
            bytes as f64 / n,
        ),
    ]
}

fn executor(ctx: &Ctx) -> Values {
    const TASKS: usize = 100_000;
    let pool = ExecutorPool::new(ctx.workers);
    let noop_s = secs(|| {
        for _ in 0..TASKS {
            pool.submit(|| {});
        }
        pool.drain();
    });
    pool.shutdown();
    let specs = &sweep_jobs(ctx.seed % 1_000_000, 1)[0];
    let runs_per_s = |jobs: usize| {
        const REPS: usize = 3;
        let wall_s = secs(|| {
            for _ in 0..REPS {
                black_box(run_specs(specs, jobs));
            }
        });
        (specs.len() * REPS) as f64 / wall_s
    };
    vec![
        (
            "campaign.queue.noop_tasks_per_s".to_string(),
            TASKS as f64 / noop_s,
        ),
        ("campaign.runner.runs_per_s_j1".to_string(), runs_per_s(1)),
        (
            "campaign.runner.runs_per_s_jn".to_string(),
            runs_per_s(ctx.workers),
        ),
    ]
}

/// A small cold / delta / warm cycle through the sweep service.
fn serve_cycle(ctx: &Ctx) -> Values {
    const SEEDS: usize = 16;
    const WARM: usize = 5;
    let first = ctx.seed % 1_000_000;
    let root = ctx.scratch.join("layers-serve");
    let _ = std::fs::remove_dir_all(&root);
    let spool = Spool::open(root.join("spool")).expect("the scratch spool opens");
    let store = Arc::new(RunCache::open(root.join("cache")).expect("the scratch cache opens"));
    let options = ServeOptions {
        workers: ctx.workers,
        drain: true,
        poll: Duration::from_millis(1),
    };
    let total = (SEEDS * SPECS_PER_SWEEP_SEED) as f64;
    let mut submit_s = 0.0;
    let mut pass = |tag: &str, jobs: &[Vec<RunSpec>]| {
        submit_s += secs(|| {
            for (i, job) in jobs.iter().enumerate() {
                spool
                    .submit_specs(&format!("{tag}-{i}"), job)
                    .expect("submit");
            }
        });
        let mut summaries = Vec::new();
        let serve_s = secs(|| summaries = serve(&spool, &store, &options).expect("serve"));
        (serve_s, summaries)
    };
    let cold_jobs = sweep_jobs(first, SEEDS);
    let delta_jobs = sweep_jobs(first + SEEDS as u64 / 2, SEEDS);
    let (cold_s, cold) = pass("cold", &cold_jobs);
    let (delta_s, _) = pass("delta", &delta_jobs);
    let warm_s: f64 = (0..WARM)
        .map(|w| pass(&format!("warm{w}"), &delta_jobs).0)
        .sum();
    let job_ms: Vec<f64> = cold.iter().map(|s| s.wall_ms).collect();
    // Host time the cold pass spent inside simulations, from the records.
    let run_ms: f64 = (0..SEEDS)
        .filter_map(|i| std::fs::read_to_string(spool.result_path(&format!("cold-{i}"))).ok())
        .filter_map(|text| Json::parse(&text).ok())
        .filter_map(|doc| CampaignReport::from_json(&doc).ok())
        .flat_map(|report| report.runs)
        .map(|run| run.wall_time_ms)
        .sum();
    let _ = std::fs::remove_dir_all(&root);
    vec![
        (
            "campaign.serve.submit_jobs_per_s".to_string(),
            (SEEDS * (2 + WARM)) as f64 / submit_s,
        ),
        (
            "campaign.serve.job_ms_p50".to_string(),
            percentile(&job_ms, 50.0),
        ),
        (
            "campaign.serve.job_ms_p80".to_string(),
            percentile(&job_ms, 80.0),
        ),
        (
            "campaign.serve.overhead_share".to_string(),
            1.0 - run_ms / 1e3 / (ctx.workers as f64 * cold_s),
        ),
        (
            "campaign.serve.cold_specs_per_s".to_string(),
            total / cold_s,
        ),
        (
            "campaign.serve.delta_specs_per_s".to_string(),
            total / delta_s,
        ),
        (
            "campaign.serve.warm_specs_per_s".to_string(),
            total * WARM as f64 / warm_s,
        ),
    ]
}

/// Allocation counts of one thread-world run (GTC, intra2, `figs-thread`
/// scale) and one engine run.  Only meaningful in the traced binary, whose
/// global allocator counts; everything timed runs in the plain binary so
/// that no rate above pays for the counting.
pub fn alloc_counts(ctx: &mut Ctx) -> Values {
    let mut out = Values::new();
    bench(ctx, &mut out, "apps", "alloc_counts", |ctx| {
        let experiment = Experiment::builder()
            .app(AppId::Gtc)
            .scale(FIGURE_SCALE)
            .execution_mode(MODES[2])
            .seed(ctx.seed)
            .build()
            .expect("catalog applications are valid experiments");
        let before = alloc_counter::snapshot();
        let _ = black_box(experiment.run().expect("the application runs"));
        let run = alloc_counter::since(&before);
        let spec = weak_spec(ctx.seed, WeakMode::Native);
        let before = alloc_counter::snapshot();
        black_box(run_weak_spec(&spec, 1));
        let engine = alloc_counter::since(&before);
        vec![
            ("alloc.allocs_per_run".to_string(), run.allocs as f64),
            ("alloc.bytes_per_run".to_string(), run.bytes as f64),
            (
                "alloc.allocs_per_rank".to_string(),
                engine.allocs as f64 / spec.procs() as f64,
            ),
        ]
    });
    out
}

/// Runs the whole suite.  `engine_ring` goes first: it reads the growth of
/// the process's peak resident set.
pub fn run_all(ctx: &mut Ctx) -> Values {
    let mut out = Values::new();
    ctx.tracer.begin("harness", "layers");
    bench(ctx, &mut out, "simmpi", "engine_ring", engine_ring);
    bench(ctx, &mut out, "simcluster", "event_engine", event_engine);
    bench(ctx, &mut out, "simmpi", "fabric_p2p", fabric_p2p);
    bench(ctx, &mut out, "simmpi", "collectives", collectives);
    bench(ctx, &mut out, "simmpi", "spawn", spawn);
    bench(ctx, &mut out, "replication", "fanout", fanout);
    bench(ctx, &mut out, "replication", "sampler", sampler);
    bench(ctx, &mut out, "ckpt", "ckpt_session", ckpt_session);
    bench(ctx, &mut out, "ipr-core", "sections", sections);
    bench(ctx, &mut out, "kernels", "kernel_suite", kernel_suite);
    bench(ctx, &mut out, "apps", "app_runs", app_runs);
    bench(ctx, &mut out, "apps", "weak_runs", weak_runs);
    bench(ctx, &mut out, "facade", "facade", facade);
    bench(ctx, &mut out, "campaign", "campaign_text", campaign_text);
    bench(ctx, &mut out, "campaign", "cache", cache);
    bench(ctx, &mut out, "campaign", "executor", executor);
    bench(ctx, &mut out, "campaign", "serve_cycle", serve_cycle);
    ctx.tracer.end();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_program_terminates_and_counts_its_messages() {
        let report = run_virtual_cluster(&EngineConfig::ideal(16).with_workers(1), |_| Ring {
            rounds: 3,
            done: 0,
            sent: false,
        });
        assert_eq!(report.num_completed(), 16);
        assert_eq!(report.messages, 48);
    }
}
